"""Tests of the benchmark itself: seeded pools, the output check, span
arithmetic and wrapper installation.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import chains  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.fixture
def ks():
    return run.load_program()


@pytest.mark.parametrize("name", list(chains.WORKLOADS))
def test_pool_is_identical_for_the_same_seed(ks, name):
    w = chains.WORKLOADS[name]
    first = chains.pool_digest(w.pool(7, ks))
    again = chains.pool_digest(w.pool(7, run.load_program()))
    other = chains.pool_digest(w.pool(8, ks))
    assert first == again
    assert first != other


def test_pools_walk_the_size_grid_and_carry_oracle_verdicts(ks):
    cases = chains.sum_to_clique_pool(0, ks)
    assert len(cases) == chains.SUM_TO_CLIQUE_POOL
    assert {c.args["inst"].n for c in cases} == {chains.SUM_TO_CLIQUE_N}
    assert all(c.expected is not None for c in cases)
    planted = cases[0::2]
    assert all(c.expected for c in planted)


def test_check_flags_a_wrong_verdict(ks):
    w = chains.WORKLOADS["clique_to_sum"]
    case = w.pool(0, ks)[0]
    latency, good = chains.run_case(w, case, ks, lambda: 0.0)
    assert (good.verified, good.failed, good.wrong) == (1, 0, 0)
    case.expected = not case.expected
    _, bad = chains.run_case(w, case, ks, lambda: 0.0)
    assert (bad.verified, bad.failed, bad.wrong) == (0, 1, 1)


def test_check_flags_a_witness_that_does_not_verify(ks):
    case = next(c for c in chains.sum_to_clique_pool(0, ks) if c.expected)
    numbers, target = case.source["numbers"], case.source["target"]
    triples = list(itertools.combinations(range(len(numbers)), 3))
    right = next(w for w in triples if sum(numbers[i] for i in w) == target)
    wrong = next(w for w in triples if sum(numbers[i] for i in w) != target)
    assert chains.sum_to_clique_check(case, True, right, True).wrong == 0
    assert chains.sum_to_clique_check(case, True, wrong, True).wrong == 1
    # the program's own verify_witness saying False is a failure too
    assert chains.sum_to_clique_check(case, True, right, False).wrong == 1


def test_nw_triangle_check_rejects_a_non_triangle():
    case = chains.Case(
        label="hand", args={}, expected=True,
        source={"edges": {(0, 1), (1, 2), (0, 2), (2, 3)}, "weights": (1, 2, 3, 0), "target": 6},
    )
    assert chains.nw_triangle_check(case, True, (0, 1, 2), True).wrong == 0
    assert chains.nw_triangle_check(case, True, (1, 2, 3), True).wrong == 1
    assert chains.nw_triangle_check(case, False, None, False).wrong == 1


def test_experiment_check_counts_trials(ks):
    case = chains.experiment_pool(0, ks)[0]
    trials = case.args["cfg"].trials
    clean = {"trials": trials, "passes": trials, "failures": []}
    assert chains.experiment_check(case, clean) == chains.Outcome(trials, trials, 0, 0)
    budget = {"trials": trials, "passes": trials - 1, "failures": [{"reason": "ResourceBudgetError: too big"}]}
    out = chains.experiment_check(case, budget)
    assert (out.verified, out.failed, out.wrong) == (trials - 1, 1, 0)
    mismatch = {"trials": trials, "passes": trials - 1, "failures": [{"reason": "solvability mismatch"}]}
    assert chains.experiment_check(case, mismatch).wrong == 1
    miscount = {"trials": trials, "passes": 0, "failures": []}
    assert chains.experiment_check(case, miscount).wrong == trials


def test_a_raising_config_fails_all_its_trials(ks):
    case = chains.experiment_pool(0, ks)[0]
    out = chains.raised(case, ValueError("boom"), ks.instances.ResourceBudgetError)
    assert out.failed == out.attempted == case.args["cfg"].trials
    assert out.wrong == 0


def test_a_bogus_solvable_claim_that_the_lift_rejects_is_wrong(ks, monkeypatch):
    w = chains.WORKLOADS["sum_to_clique"]
    case = next(c for c in w.pool(0, ks) if not c.expected)
    bogus = ks.solvers.SolverReport(True, (0, 1, 2), {})
    monkeypatch.setattr(ks.solvers, "solve_kclique_bruteforce", lambda graph: bogus)
    with pytest.raises(Exception):
        w.op(case, ks)
    _, out = chains.run_case(w, case, ks, lambda: 0.0)
    assert (out.attempted, out.verified, out.failed, out.wrong) == (1, 0, 1, 1)


def test_a_budget_overrun_on_a_chain_is_failed_not_wrong(ks, monkeypatch):
    w = chains.WORKLOADS["clique_to_sum"]
    case = w.pool(0, ks)[0]

    def over_budget(packed):
        raise ks.instances.ResourceBudgetError("too big")

    monkeypatch.setattr(ks.solvers, "solve_ksum_mim", over_budget)
    _, out = chains.run_case(w, case, ks, lambda: 0.0)
    assert (out.attempted, out.verified, out.failed, out.wrong) == (1, 0, 1, 0)


def test_set_up_flags_a_program_oracle_that_misjudges_sources(ks, monkeypatch):
    w = chains.WORKLOADS["experiment"]
    honest = w.pool(0, ks)
    assert all(c.source["oracle_disagreements"] == [] for c in honest)
    auto = ks.cli.SOLVERS["auto"]

    def flipped(inst):
        rep = auto(inst)
        return ks.solvers.SolverReport(False, None, {}) if rep.solvable else rep

    monkeypatch.setitem(ks.cli.SOLVERS, "auto", flipped)
    cases = w.pool(0, ks)
    misjudged = [c for c in cases if c.source["oracle_disagreements"]]
    assert misjudged
    case = misjudged[0]
    trials = case.units
    clean = {"trials": trials, "passes": trials, "failures": []}
    assert chains.experiment_check(case, clean).wrong == trials
    assert chains.raised(case, ValueError("boom"), ks.instances.ResourceBudgetError).wrong == trials


@pytest.mark.parametrize("inst_kind", ["ksum", "clique", "graph-node", "graph-edge", "targetsum", "lindep"])
def test_source_oracle_agrees_with_the_program_oracle_on_each_source_kind(ks, inst_kind):
    cfg = ks.cli.ExperimentConfig(trials=40, seed=5, n_range=(4, 7), k_range=(2, 3), m_range=(0, 6),
                                  chain=(), source=inst_kind)
    assert chains.oracle_disagreements(cfg, ks) == []


def test_a_set_up_aside_leaves_the_loaded_program_in_place(ks):
    w = chains.WORKLOADS["clique_to_sum"]
    loaded = {m: sys.modules[m] for m in sys.modules if m.startswith(run.PACKAGE)}
    _, digest = run.set_up_aside(w, 3)
    assert digest == chains.pool_digest(w.pool(3, ks))
    assert {m: sys.modules[m] for m in sys.modules if m.startswith(run.PACKAGE)} == loaded
    assert sys.modules[f"{run.PACKAGE}.instances"] is ks.instances


def test_self_time_on_a_hand_built_span_tree():
    #  root [0, 10]
    #    a  [1, 4]
    #      b [2, 3]
    #    a  [5, 9]
    #      b [6, 6.5]
    #      c [7, 8.5]
    names = ["root", "a", "b", "c"]
    name = [0, 1, 2, 1, 2, 3]
    parent = [-1, 0, 1, 0, 3, 3]
    start = [0.0, 1.0, 2.0, 5.0, 6.0, 7.0]
    end = [10.0, 4.0, 3.0, 9.0, 6.5, 8.5]
    selfs = spans.self_times(names, name, parent, start, end)
    assert selfs == pytest.approx({"root": 3.0, "a": 2.0 + 2.0, "b": 1.5, "c": 1.5})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_tracer_records_nested_spans():
    tr = spans.Tracer()
    outer = tr.open(tr.name_id("outer"))
    inner = tr.open(tr.name_id("inner"))
    tr.close(inner)
    tr.close(outer)
    assert list(tr.parent) == [-1, 0]
    selfs = tr.self_times()
    assert selfs["outer"] + selfs["inner"] == pytest.approx(tr.end[0] - tr.start[0])


def test_wrappers_reach_calls_between_modules_and_are_removed(ks):
    w = chains.WORKLOADS["nw_triangle"]
    case = w.pool(0, ks)[0]
    original = ks.solvers.detect_triangle
    registry = ks.cli.SOLVERS["ksum-mim"]
    tr = spans.Tracer()
    installed = spans.Installation(tr, run.PACKAGE)
    try:
        assert ks.cli.SOLVERS["ksum-mim"] is not registry
        assert ks.solvers.detect_triangle is not original
        _, out = chains.run_case(w, case, ks, lambda: 0.0)
    finally:
        installed.remove()
    assert out.wrong == 0
    assert ks.solvers.detect_triangle is original
    assert ks.cli.SOLVERS["ksum-mim"] is registry
    # solve_nw_triangle reaches these only through other modules' bindings
    assert tr.calls["solvers.solve_nw_triangle"] == 1
    assert tr.calls["reduce_sum_to_clique.build_alpha_instance"] >= 1
    assert tr.calls["solvers.detect_triangle"] == tr.calls["reduce_sum_to_clique.build_alpha_instance"]
    assert tr.counters["solvers.solve_nw_triangle.alphas"] == tr.calls["solvers.detect_triangle"]
    nested = {tr.names[tr.name[p]] for i, p in enumerate(tr.parent) if p >= 0 and tr.names[tr.name[i]] == "solvers.detect_triangle"}
    assert nested == {"solvers.solve_nw_triangle"}


def test_every_per_layer_metric_resolves():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    wrapped = sorted(spans.public_functions(run.PACKAGE).values())
    extra = {name: 0.0 for name in ("failed_frac", "bench.self_s", "trace.loop_s", "trace.untraced_loop_s",
                                    "trace.overhead_s", "trace.overhead_est_s", "trace.instances_per_s",
                                    "trace.untraced_instances_per_s", "trace.spanned_self_s", "trace.spans")}
    for spec in bench["per_layer"]:
        assert run.layer_value(spec["name"], spans.Tracer(), {}, wrapped, extra) == 0.0


def test_tail_percentile_leaves_ten_samples_beyond():
    for size in (64, 128, 210, 320, 512, 1536, 1792):
        pct = run.tail_percentile(size)
        beyond = size - math.ceil(pct / 100 * size)
        assert beyond >= 10
        assert size - math.ceil((pct + 1) / 100 * size) < 10


def test_speed_factors_follow_the_local_kernel_time():
    ref = run.CAL_REF_S
    kernel = [ref] * 30 + [2 * ref] * 30
    kernel[5] = 50 * ref  # one run hit by an interrupt
    factors = run.speed_factors(kernel, window=3)
    assert factors[5] == pytest.approx(1.0)
    assert factors[:26] == pytest.approx([1.0] * 26)
    slow = 2.0 ** run.CAL_SENSITIVITY
    assert factors[34:] == pytest.approx([slow] * 26)
    # an operation that took 20 ms while the kernel ran at half speed reads 20 / 2^CAL_SENSITIVITY reference ms
    assert 0.020 / factors[40] == pytest.approx(0.020 / slow)


def test_a_set_up_is_normalised_by_the_kernel_runs_around_it(monkeypatch):
    monkeypatch.setattr(run, "time_kernel", lambda: 2 * run.CAL_REF_S)
    secs, built = run.timed_set_up(None, 0, lambda w, seed: (1.0, "pool"))
    assert secs == pytest.approx(1.0 / 2.0 ** run.CAL_SENSITIVITY)
    assert built == ["pool"]
