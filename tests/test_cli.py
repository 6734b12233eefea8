"""Command-line surface: generators, reduce/solve/verify plumbing, the
experiment harness, and the per-k subset-sum sweep."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from itertools import islice
from math import isqrt
from pathlib import Path

import pytest

import ksumclique
from ksumclique import (
    CliqueInstance,
    KSumInstance,
    LinDepInstance,
    MalformedWitnessError,
    ParameterError,
    ResourceBudgetError,
    TargetSumInstance,
    VectorSumInstance,
    parse_collection,
    parse_instance,
    serialize_collection,
    serialize_instance,
    solve_ksum_bruteforce,
    verify_witness,
)
from ksumclique.cli import (
    KIND_SOLVERS,
    REDUCTIONS,
    SOLVERS,
    ExperimentConfig,
    ReductionSpec,
    _gen_source,
    _single_item_collection,
    gen_random_graph,
    gen_random_ksum,
    main,
    run_equivalence_experiment,
    solve_auto,
)
from ksumclique import fieldapps, solvers
from ksumclique import reduce_clique_to_sum as bwd
from ksumclique import reduce_sum_to_clique as fwd
from ksumclique.solvers import _kcliques

from util import make_ksum, oracle_kclique


# --- generators ---

def test_gen_ksum_plant_is_solvable():
    inst = gen_random_ksum(4, 2, 10, plant=True, seed=1)
    assert solve_ksum_bruteforce(inst).solvable


def test_gen_ksum_zero_bound_all_zero():
    inst = gen_random_ksum(4, 2, 0, seed=5)
    assert inst.numbers == (0, 0, 0, 0)
    assert solve_ksum_bruteforce(inst).solvable == (inst.target == 0)


def test_gen_ksum_seed_determinism():
    a = gen_random_ksum(9, 3, 100, plant=True, seed=77)
    b = gen_random_ksum(9, 3, 100, plant=True, seed=77)
    assert a == b


def test_gen_ksum_rejects_n_below_k():
    with pytest.raises(ParameterError):
        gen_random_ksum(2, 3, 10)


def test_gen_graph_planted_only_clique():
    g = gen_random_graph(6, 0.0, 3, plant_clique=True, seed=3)
    assert isinstance(g, CliqueInstance)
    assert len(g.edges) == 3  # exactly the planted triangle
    assert oracle_kclique(g.n, g.edges, 3) is not None


def test_gen_graph_complete():
    g = gen_random_graph(6, 1.0, 3, seed=4)
    assert len(g.edges) == 15
    assert oracle_kclique(g.n, g.edges, 3) is not None


def test_gen_graph_seed_determinism_and_weight_kinds():
    a = gen_random_graph(7, 0.4, 3, weights="node", big_m=9, seed=11)
    b = gen_random_graph(7, 0.4, 3, weights="node", big_m=9, seed=11)
    assert a == b
    assert a.node_weights is not None and all(0 <= w <= 9 for w in a.node_weights)
    e = gen_random_graph(7, 0.4, 3, weights="edge", big_m=9, seed=11)
    assert e.edge_weights is not None and all(-9 <= w <= 9 for _, _, w in e.edge_weights)


def test_gen_graph_planted_weighted_hits_target():
    g = gen_random_graph(6, 0.5, 3, plant_clique=True, weights="node", big_m=20, seed=9, target=30)
    assert g.target == 30
    from util import oracle_nw_kclique

    assert oracle_nw_kclique(g.n, g.edges, 3, g.node_weights, 30) is not None


def test_gen_graph_rejects_bad_edge_prob():
    with pytest.raises(ParameterError):
        gen_random_graph(4, 1.5, 2)


# --- experiment harness ---

def test_experiment_single_stage_all_pass():
    cfg = ExperimentConfig(
        trials=100, seed=42, n_range=(4, 10), k_range=(2, 3), m_range=(0, 40),
        chain=("ksum_to_vectorsum",),
    )
    report = run_equivalence_experiment(cfg)
    assert report["passes"] == 100
    assert report["failures"] == []
    # range-pruned sources emit empty collections, so this is not >= trials
    assert report["stats"]["total_leaf_instances"] > 0


def test_experiment_empty_chain_trivially_passes():
    cfg = ExperimentConfig(
        trials=20, seed=1, n_range=(3, 6), k_range=(2, 3), m_range=(0, 9), chain=(),
    )
    report = run_equivalence_experiment(cfg)
    assert report["passes"] == 20


def test_experiment_two_stage_chain():
    # k=3 would emit 75 vectors at arity 6 and blow the brute-force budget
    cfg = ExperimentConfig(
        trials=100, seed=7, n_range=(3, 5), k_range=(2, 2), m_range=(0, 5),
        chain=("clique_to_vectorsum", "vectorsum_to_ksum"), source="clique",
    )
    report = run_equivalence_experiment(cfg)
    assert report["passes"] == 100, report["failures"][:2]


def test_experiment_is_deterministic():
    cfg = ExperimentConfig(
        trials=15, seed=5, n_range=(4, 8), k_range=(2, 3), m_range=(0, 20),
        chain=("ksum_to_targetsum", "targetsum_to_ksum"),
    )
    a = run_equivalence_experiment(cfg)
    b = run_equivalence_experiment(cfg)
    assert a == b


def test_experiment_rejects_unknown_chain_name():
    with pytest.raises(ParameterError):
        ExperimentConfig(
            trials=1, seed=0, n_range=(3, 4), k_range=(2, 2), m_range=(0, 5),
            chain=("no_such_reduction",),
        )


def _broken_reduce(inst, params):
    dead = KSumInstance(k=2, numbers=(0, 0), target=1, bounds=(0, 0))
    return _single_item_collection("broken_noop", inst, dead, {})


def test_experiment_failure_emits_repro_bundle(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(
        REDUCTIONS, "broken_noop",
        ReductionSpec("broken_noop", "ksum", "ksum", "iff", _broken_reduce),
    )
    report_path = tmp_path / "report.json"
    cfg = {
        "trials": 20, "seed": 3, "n_range": [4, 6], "k_range": [2, 2],
        "m_range": [0, 10], "chain": ["broken_noop"], "report": str(report_path),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "o.json")])
    assert rc == 3
    bundle_path = report_path.with_suffix(".repro.json")
    assert bundle_path.exists()
    # the bundle replays to the same failure
    rc2 = main(["experiment", "--config", str(bundle_path), "--out", str(tmp_path / "o2.json")])
    assert rc2 == 3
    replay = json.loads((tmp_path / "o2.json").read_text())
    assert replay["trials"] == 1 and replay["passes"] == 0
    # the bundle carries no report, so the replay's bundle goes next to --out
    assert (tmp_path / "o2.repro.json").exists()
    assert not (Path.cwd() / "experiment.repro.json").exists()


def _raising_lift_reduce(inst, params):
    def decode(index, witness):
        raise MalformedWitnessError("lift broke")

    return _single_item_collection("broken_lift", inst, inst, {}, decode=decode)


def test_experiment_records_lift_errors_per_trial(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(
        REDUCTIONS, "broken_lift",
        ReductionSpec("broken_lift", "ksum", "ksum", "iff", _raising_lift_reduce),
    )
    report_path = tmp_path / "report.json"
    cfg = {
        "trials": 20, "seed": 3, "n_range": [4, 6], "k_range": [2, 2],
        "m_range": [0, 10], "chain": ["broken_lift"], "report": str(report_path),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "o.json")]) == 3
    report = json.loads(report_path.read_text())
    failures = report["failures"]
    assert failures and report["passes"] + len(failures) == 20
    assert {f["reason"] for f in failures} == {"MalformedWitnessError: lift broke"}
    assert report_path.with_suffix(".repro.json").exists()


def test_lindep_lift_pads_a_reused_source_index():
    # over F_2 the expanded vectors are 0*v0, 0*v1, 1*v0, 1*v1; the first
    # reduced witness, (0, 2), takes v0 under both scalars
    inst = LinDepInstance(q=2, n=1, vectors=((1,), (0,)), k=2, target=(1,))
    coll = REDUCTIONS["lindep_to_vectorsum"].reduce(inst, {})
    report = solve_auto(coll.items[0].instance)
    assert report.witness == (0, 2)
    assert coll.lift(0, report.witness) == (0, 1)


# one planted-solvable source per two-sided reduction, small enough for the
# brute-force oracles on every reduced item
LIFT_SOURCES = {
    "ksum_to_vectorsum": gen_random_ksum(6, 3, 20, plant=True, seed=1),
    "nodeweight_to_edgeweight": gen_random_graph(6, 0.5, 3, plant_clique=True, weights="node", big_m=5, seed=2),
    "edgeweight_to_unweighted": gen_random_graph(5, 0.5, 3, plant_clique=True, weights="edge", big_m=1, seed=3),
    "smallksum_to_kclique": gen_random_ksum(6, 2, 30, plant=True, seed=4),
    "clique_to_vectorsum": gen_random_graph(4, 0.5, 2, plant_clique=True, seed=5),
    "vectorsum_to_ksum": VectorSumInstance(k=2, dim=2, vectors=((1, 2), (0, 1), (2, 0), (1, 1)), target=(3, 1),
                                           entry_bounds=(0, 2)),
    "kclique_to_ksum": gen_random_graph(4, 0.5, 2, plant_clique=True, seed=6),
    "targetsum_to_ksum": TargetSumInstance(q=7, elements=(1, 5, 3, 6), k=2, target=1),
    "ksum_to_targetsum": gen_random_ksum(6, 3, 20, plant=True, seed=7),
    "lindep_to_vectorsum": LinDepInstance(q=3, n=2, vectors=((1, 0), (0, 1), (1, 1), (2, 1)), k=2, target=(2, 2)),
}


def _one_id_changed(inst, witness):
    """The witness with one id swapped for an unused one, so that it no
    longer holds in inst."""
    for pos in range(len(witness)):
        for x in range(inst.size):
            changed = tuple(sorted(witness[:pos] + (x,) + witness[pos + 1:]))
            if x not in witness and not inst.holds(changed):
                return changed
    raise AssertionError("every one-id change is still a witness")


def test_every_two_sided_reduction_lifts_its_own_witnesses():
    assert set(LIFT_SOURCES) == {name for name, spec in REDUCTIONS.items() if spec.equivalence == "iff"}
    for name, source in LIFT_SOURCES.items():
        coll = REDUCTIONS[name].reduce(source, {})
        idx, rep = next((i, r) for i, it in enumerate(coll.items) if (r := solve_auto(it.instance)).solvable)
        assert verify_witness(source, coll.lift(idx, rep.witness)), name
        with pytest.raises(MalformedWitnessError):
            coll.lift(idx, _one_id_changed(coll.items[idx].instance, rep.witness))
        # a parsed collection carries only the source digest
        with pytest.raises(ParameterError):
            parse_collection(serialize_collection(coll)).lift(idx, rep.witness)


def test_smallksum_decoder_lifts_as_lift_pipeline_witness():
    """The CLI's smallksum_to_kclique collection lifts the first cliques of
    300 seeded merged graphs to what lift_pipeline_witness gives."""
    rng = random.Random(1904)
    lifted = 0
    for _ in range(300):
        n = rng.randint(3, 6)
        source = gen_random_ksum(n, rng.randint(2, 3), rng.randint(0, n * n), plant=rng.random() < 0.7,
                                 seed=rng.getrandbits(32))
        coll = REDUCTIONS["smallksum_to_kclique"].reduce(source, {})
        result = fwd.smallksum_to_kclique(source, 2)
        merged = coll.items[0].instance
        assert merged == result.instance
        for clique in islice(_kcliques(merged.n, merged.edges, merged.k, [0]), 5):
            assert coll.lift(0, clique) == fwd.lift_pipeline_witness(result, clique)
            lifted += 1
    assert lifted > 300


def _raised(call):
    try:
        call()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return None


@pytest.mark.parametrize("name, params", [("clique_to_vectorsum", {}), ("kclique_to_ksum", {}),
                                          ("kclique_to_ksum", {"radix_mode": "mixed"})])
def test_backward_decoders_reuse_the_reduction_encoding(name, params, monkeypatch):
    """The CLI's clique_to_vectorsum and kclique_to_ksum collections lift each
    witness of 40 seeded graphs at k = 2 and 20 at k = 3 to what the public
    lift gives, without encoding the graph or building its vectors again,
    and refuse what the public reduction refuses, with the same error first."""
    reduce = {"clique_to_vectorsum": bwd.clique_to_vectorsum,
              "kclique_to_ksum": lambda g: bwd.kclique_to_ksum(g, **params)}[name]
    lift = {"clique_to_vectorsum": bwd.lift_vectorsum_witness_to_clique,
            "kclique_to_ksum": lambda g, w: bwd.lift_ksum_witness_to_clique(g, w, **params)}[name]
    rng = random.Random(2205)
    cases = []
    for k, n_lo, n_hi, count in ((2, 2, 5, 40), (3, 3, 4, 20)):
        for _ in range(count):
            g = gen_random_graph(rng.randint(n_lo, n_hi), rng.random(), k, plant_clique=rng.random() < 0.5,
                                 seed=rng.getrandbits(32))
            coll = REDUCTIONS[name].reduce(g, params)
            assert coll.items[0].instance == reduce(g)
            rep = solve_auto(coll.items[0].instance)
            if rep.solvable:
                cases.append((g, coll, rep.witness))
    assert sum(g.k == 2 for g, _, _ in cases) > 10 and sum(g.k == 3 for g, _, _ in cases) > 5
    built = []
    for fn in ("encode_vertices", "clique_to_vectorsum"):
        def counted(*args, fn=fn, real=getattr(bwd, fn), **kw):
            built.append(fn)
            return real(*args, **kw)
        monkeypatch.setattr(bwd, fn, counted)
    for g, coll, witness in cases:
        assert coll.lift(0, witness) == lift(g, witness)
        with pytest.raises(MalformedWitnessError):
            coll.lift(0, _one_id_changed(coll.items[0].instance, witness))
    assert len(built) == 2 * len(cases)  # the public lifts only
    refused = [CliqueInstance(n=4, edges=((0, 1),), k=1), CliqueInstance(n=10**7, edges=(), k=1),
               CliqueInstance(n=10**7, edges=(), k=3)]
    for g in refused:
        assert _raised(lambda: REDUCTIONS[name].reduce(g, params)) == _raised(lambda: reduce(g)) is not None
    for k in (2, 3, 5, 6):  # k >= 5 takes the digit-norm codes
        g = CliqueInstance(n=0, edges=(), k=k)
        assert REDUCTIONS[name].reduce(g, params).items[0].instance == reduce(g)
        assert not solve_auto(reduce(g)).solvable
    g = CliqueInstance(n=3, edges=((0, 1), (0, 2), (1, 2)), k=2)
    assert _raised(lambda: REDUCTIONS["kclique_to_ksum"].reduce(g, {"radix_mode": "bogus"})) == \
        _raised(lambda: bwd.kclique_to_ksum(g, radix_mode="bogus")) == ("ParameterError", "unknown radix mode 'bogus'")


def test_experiment_lindep_trials_pass():
    cfg = ExperimentConfig(
        trials=400, seed=7, n_range=(3, 8), k_range=(1, 3), m_range=(0, 5),
        chain=("lindep_to_vectorsum",), source="lindep",
    )
    report = run_equivalence_experiment(cfg)
    assert report["passes"] == 400, report["failures"][:2]


@pytest.mark.parametrize(
    "chain, params",
    [
        (("nodeweight_to_edgeweight",), {}),
        (("nodeweight_to_edgeweight",), {"d": 2}),
        (("nodeweight_to_edgeweight", "edgeweight_to_unweighted"), {"alpha_mode": "present"}),
    ],
)
def test_experiment_graph_node_trials_pass_with_edgeless_sources(chain, params):
    # n from 2 draws edgeless sources, whose squaring trick has no edge to weight
    cfg = ExperimentConfig(
        trials=60, seed=16, n_range=(2, 5), k_range=(2, 3), m_range=(0, 6),
        chain=chain, source="graph-node", params=params,
    )
    sources = [_gen_source(cfg, random.Random(f"{cfg.seed}:{trial}")) for trial in range(cfg.trials)]
    assert any(not g.edges for g in sources)
    report = run_equivalence_experiment(cfg)
    assert report["passes"] == report["trials"], report["failures"][:2]


# --- subcommand plumbing ---

@pytest.mark.parametrize(
    "instance",
    [
        {"type": "graph", "k": 2, "n": 3, "edges": [[0]]},
        {"type": "graph", "k": 2, "n": 3, "edges": [["a", 1]]},
        {"type": "graph", "k": 2, "n": 3, "edges": [[0, 1.5]]},
        {"type": "graph", "k": 2, "n": 3, "edges": "01"},
        {"type": "graph", "k": 2, "n": 2, "edges": [[0, 1]], "node_weights": "12", "target": "3"},
        {"type": "graph", "k": 2, "n": 2, "edges": [[0, 1]], "partition": "12"},
        {"type": "ksum", "k": 2, "numbers": "12", "target": "3", "range": ["0", "9"]},
        {"type": "graph", "k": 2, "n": 2, "edges": [[0, 1]], "edge_weights": [[0]], "target": "0"},
        {"type": "graph", "k": 2, "n": 2, "edges": [[0, 1]], "edge_weights": [["0", 1, "0"]], "target": "0"},
        {"type": "ksum", "k": 2, "numbers": ["1", "2"], "target": "3", "range": "09"},
        {"type": "ksum", "k": 2, "numbers": ["1", "2"], "target": "3", "range": ["0", "9", "9"]},
        {"type": "vectorsum", "k": 1, "dim": 1, "vectors": "1", "target": ["1"], "entry_range": ["0", "9"]},
        {"type": "vectorsum", "k": 1, "dim": 1, "vectors": ["1"], "target": ["1"], "entry_range": ["0", "9"]},
        {"type": "vectorsum", "k": 1, "dim": 1, "vectors": [["1"]], "target": "1", "entry_range": ["0", "9"]},
        {"type": "vectorsum", "k": 1, "dim": 1, "vectors": [["1"]], "target": ["1"], "entry_range": "09"},
        {"type": "targetsum", "q": "5", "k": 2, "elements": "12", "target": "3"},
        {"type": "lindep", "q": "5", "n": 1, "k": 1, "vectors": "1", "target": ["1"]},
        {"type": "lindep", "q": "5", "n": 1, "k": 1, "vectors": [["1"]], "target": "1"},
        {"type": "sumfree", "k": 3, "elements": ["1"], "params": "3"},
    ],
    ids=["one-endpoint", "string-endpoint", "float-endpoint", "edges-string",
         "node-weights-string", "partition-string", "numbers-string",
         "edge-weight-short", "edge-weight-string-endpoint", "range-string", "range-three",
         "vectors-string", "vector-string", "vector-target-string", "entry-range-string",
         "targetsum-elements-string", "lindep-vectors-string", "lindep-target-string",
         "sumfree-params-string"],
)
def test_cli_malformed_instance_is_usage_error(tmp_path, capsys, instance):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(instance))
    assert main(["solve", "--in", str(path), "--out", str(tmp_path / "r.json")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def run_cli(tmp_path, *argv):
    return main(list(argv))


def test_solver_registry_dispatch(tmp_path):
    inst = make_ksum([1, 3], 2, 4)
    assert solve_auto(inst).solvable
    assert SOLVERS["ksum-mim"](inst).solvable
    tri = CliqueInstance(n=3, edges=((0, 1), (0, 2), (1, 2)), k=3)
    assert solve_auto(tri).solvable
    path = tmp_path / "a.json"
    path.write_bytes(serialize_instance(inst))
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--in", str(path), "--solver", "quantum"])
    assert exc.value.code == 2


KSUM_FILE = {"type": "ksum", "k": 2, "numbers": ["1", "3"], "target": "4", "range": ["0", "3"]}
GRAPH_FILE = {"type": "graph", "k": 3, "n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}
NODE_WEIGHTED_FILE = dict(GRAPH_FILE, node_weights=["1", "2", "3"], weight_bound="3", target="6")


@pytest.mark.parametrize(
    "solver, instance",
    [
        ("clique-brute", KSUM_FILE),
        ("triangle-naive-mm", KSUM_FILE),
        ("nw-triangle", KSUM_FILE),
        ("vectorsum-brute", KSUM_FILE),
        ("lindep-brute", KSUM_FILE),
        ("ksum-mim", GRAPH_FILE),
        ("ksum-brute", GRAPH_FILE),
        ("nw-clique", GRAPH_FILE),
        ("targetsum-brute", GRAPH_FILE),
        ("triangle-degree-split", NODE_WEIGHTED_FILE),
    ],
    ids=lambda v: v if isinstance(v, str) else v["type"] + ("-node" if "node_weights" in v else ""),
)
def test_cli_solver_wrong_kind_is_usage_error(tmp_path, capsys, solver, instance):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    assert main(["solve", "--in", str(path), "--solver", solver, "--out", str(tmp_path / "r.json")]) == 2
    assert "does not take" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("solver", ["triangle-naive-mm", "triangle-degree-split"])
def test_cli_triangle_solver_rejects_k_other_than_3(tmp_path, capsys, solver, k):
    # K4 minus the edge (2, 3): two triangles, no 4-clique
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"type": "graph", "k": k, "n": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3]]}))
    assert main(["solve", "--in", str(path), "--solver", solver, "--out", str(tmp_path / "r.json")]) == 2
    assert "triangle detection requires k=3" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


# One seeded instance of each kind that KIND_SOLVERS lists, all with k = 3 so
# that the triangle solvers take the clique one.
KIND_INSTANCES = {
    "ksum": gen_random_ksum(8, 3, 20, plant=True, seed=1),
    "vectorsum": VectorSumInstance(k=3, dim=2, vectors=((0, 1), (2, 0), (1, 1), (2, 2), (0, 2)), target=(3, 3),
                                   entry_bounds=(0, 2)),
    "clique": gen_random_graph(9, 0.5, 3, seed=2),
    "graph-node": gen_random_graph(9, 0.5, 3, plant_clique=True, weights="node", big_m=6, seed=3),
    "graph-edge": gen_random_graph(8, 0.5, 3, plant_clique=True, weights="edge", big_m=4, seed=4),
    "targetsum": TargetSumInstance(q=7, elements=(1, 5, 2, 6, 3), k=3, target=4),
    "lindep": LinDepInstance(q=3, n=2, vectors=((1, 0), (0, 1), (1, 1), (2, 1)), k=3, target=(1, 2)),
}
SOLVER_KINDS = [(name, kind) for name in SOLVERS for kind, names in KIND_SOLVERS.items() if name in ("auto",) + names]


def test_every_solver_takes_some_kind():
    assert {name for name, _ in SOLVER_KINDS} == set(SOLVERS)
    assert {kind: inst.kind for kind, inst in KIND_INSTANCES.items()} == {kind: kind for kind in KIND_SOLVERS}


@pytest.mark.parametrize("solver, kind", SOLVER_KINDS, ids=lambda v: v)
def test_solver_reports_are_deterministic(solver, kind):
    first, second = (SOLVERS[solver](KIND_INSTANCES[kind]) for _ in range(2))
    assert first.to_json_dict() == second.to_json_dict()
    assert first.stats == second.stats


def test_cli_solve_timing_adds_only_the_wall_time(tmp_path):
    path, plain, timed = tmp_path / "inst.json", tmp_path / "plain.json", tmp_path / "timed.json"
    path.write_text(json.dumps(KSUM_FILE))
    assert main(["solve", "--in", str(path), "--out", str(plain)]) == 0
    assert main(["solve", "--in", str(path), "--timing", "--out", str(timed)]) == 0
    got = json.loads(timed.read_text())
    wall_time_s = got["stats"].pop("wall_time_s")
    assert isinstance(wall_time_s, float) and wall_time_s >= 0
    assert got == json.loads(plain.read_text())


def test_cli_gen_solve_verify_round_trip(tmp_path):
    inst_path = tmp_path / "a.json"
    rc = main(["gen", "ksum", "--n", "6", "--k", "2", "--M", "30", "--plant",
               "--seed", "8", "--out", str(inst_path)])
    assert rc == 0
    inst = parse_instance(inst_path.read_bytes())
    rep = solve_ksum_bruteforce(inst)
    assert rep.solvable

    out_path = tmp_path / "solved.json"
    rc = main(["solve", "--in", str(inst_path), "--out", str(out_path)])
    assert rc == 0
    solved = json.loads(out_path.read_text())
    assert solved["solvable"] is True

    witness = ",".join(str(i) for i in rep.witness)
    assert main(["verify", "--in", str(inst_path), "--witness", witness,
                 "--out", str(tmp_path / "v.json")]) == 0
    bad = "0,1" if rep.witness != (0, 1) else "0,2"
    assert main(["verify", "--in", str(inst_path), "--witness", bad,
                 "--out", str(tmp_path / "v2.json")]) in (0, 1)


def test_cli_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["gen", "graph", "--n", "8", "--k", "3", "--weights", "edge",
                     "--M", "12", "--seed", "21", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_solve_exit_one_on_unsolvable(tmp_path):
    inst_path = tmp_path / "u.json"
    inst_path.write_bytes(
        b'{"type":"ksum","k":2,"numbers":["1","1"],"target":"3","range":["0","1"]}'
    )
    assert main(["solve", "--in", str(inst_path), "--out", str(tmp_path / "r.json")]) == 1


def test_cli_solve_reduced_collection_reports_first_solvable_item(tmp_path):
    inst_path, red_path, out_path = tmp_path / "a.json", tmp_path / "red.jsonl", tmp_path / "r.json"
    inst = gen_random_ksum(7, 3, 40, plant=True, seed=3)
    inst_path.write_bytes(serialize_instance(inst))
    assert main(["reduce", "--in", str(inst_path), "--via", "ksum_to_vectorsum", "--d", "2", "--out", str(red_path)]) == 0
    coll = parse_collection(red_path.read_bytes())
    reports = [solve_auto(it.instance) for it in coll.items]
    first = next(i for i, r in enumerate(reports) if r.solvable)
    assert main(["solve", "--in", str(red_path), "--out", str(out_path)]) == 0
    got = json.loads(out_path.read_text())
    assert got == {**reports[first].to_json_dict(), "item": first}


def test_cli_solve_one_item_collection(tmp_path):
    inst_path, red_path, out_path = tmp_path / "a.json", tmp_path / "red.jsonl", tmp_path / "r.json"
    main(["gen", "graph", "--n", "6", "--k", "3", "--plant", "--seed", "4", "--out", str(inst_path)])
    assert main(["reduce", "--in", str(inst_path), "--via", "kclique_to_ksum", "--out", str(red_path)]) == 0
    assert main(["solve", "--in", str(red_path), "--solver", "ksum-mim", "--out", str(out_path)]) == 0
    got = json.loads(out_path.read_text())
    coll = REDUCTIONS["kclique_to_ksum"].reduce(parse_instance(inst_path.read_bytes()), {})
    assert got["item"] == 0 and verify_witness(parse_instance(inst_path.read_bytes()), coll.lift(0, got["witness"]))


def test_cli_solve_collection_without_solvable_item(tmp_path):
    inst_path, red_path, out_path = tmp_path / "a.json", tmp_path / "red.jsonl", tmp_path / "r.json"
    # the target is out of range, so the collection is empty
    inst_path.write_bytes(b'{"type":"ksum","k":2,"numbers":["1","1"],"target":"3","range":["0","1"]}')
    assert main(["reduce", "--in", str(inst_path), "--via", "ksum_to_vectorsum", "--out", str(red_path)]) == 0
    assert parse_collection(red_path.read_bytes()).items == ()
    assert main(["solve", "--in", str(red_path), "--out", str(out_path)]) == 1
    assert json.loads(out_path.read_text()) == {"solvable": False, "witness": None, "stats": {}, "item": None}


def test_cli_solve_collection_checks_each_item_kind(tmp_path, capsys):
    inst_path, red_path = tmp_path / "a.json", tmp_path / "red.jsonl"
    inst_path.write_bytes(serialize_instance(gen_random_ksum(6, 3, 20, plant=True, seed=1)))
    assert main(["reduce", "--in", str(inst_path), "--via", "ksum_to_vectorsum", "--out", str(red_path)]) == 0
    assert main(["solve", "--in", str(red_path), "--solver", "ksum-mim"]) == 2
    assert "does not take a vectorsum instance" in capsys.readouterr().err


_META = '{"meta":{"reduction":"x","source_digest":"d","params":{}}}'
_KSUM_LINE = '{"type":"ksum","k":1,"numbers":["1"],"target":"1","range":["0","1"]'


@pytest.mark.parametrize(
    "text",
    ['{"meta":{}}', '{"meta":5}', '{"meta":{"reduction":5,"source_digest":"d"}}',
     '{"meta":{"reduction":"x","source_digest":"d","params":[]}}',
     _META + "\n[1,2]", _META + '\n"abc"', _META + "\n" + _KSUM_LINE + ',"provenance":5}'],
    ids=["meta-empty", "meta-number", "reduction-number", "params-list", "item-list", "item-string",
         "provenance-number"],
)
def test_cli_solve_malformed_collection_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "bad.jsonl"
    path.write_text(text + "\n")
    assert main(["solve", "--in", str(path), "--out", str(tmp_path / "r.json")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_cli_reduce_from_to_lookup(tmp_path):
    inst_path = tmp_path / "a.json"
    main(["gen", "ksum", "--n", "5", "--k", "2", "--M", "9", "--seed", "2",
          "--out", str(inst_path)])
    out = tmp_path / "red.jsonl"
    rc = main(["reduce", "--in", str(inst_path), "--from", "ksum", "--to", "vectorsum",
               "--out", str(out)])
    assert rc == 0
    coll = parse_collection(out.read_bytes())
    assert coll.reduction == "ksum_to_vectorsum"


def test_cli_reduce_via_overrides(tmp_path):
    inst_path = tmp_path / "a.json"
    main(["gen", "ksum", "--n", "5", "--k", "2", "--M", "9", "--seed", "2",
          "--out", str(inst_path)])
    out = tmp_path / "red.jsonl"
    rc = main(["reduce", "--in", str(inst_path), "--via", "ksum_mod_reduce",
               "--confidence", "2", "--seed", "5", "--out", str(out)])
    assert rc == 0
    assert parse_collection(out.read_bytes()).reduction == "ksum_mod_reduce"


def test_cli_reduce_ambiguous_source_needs_via(tmp_path, capsys):
    inst_path = tmp_path / "a.json"
    main(["gen", "ksum", "--n", "5", "--k", "2", "--M", "9", "--seed", "2",
          "--out", str(inst_path)])
    assert main(["reduce", "--in", str(inst_path)]) == 2


def test_cli_reduce_wrong_kind_is_usage_error(tmp_path, capsys):
    inst_path = tmp_path / "a.json"
    main(["gen", "graph", "--n", "4", "--k", "2", "--seed", "2", "--out", str(inst_path)])
    assert main(["reduce", "--in", str(inst_path), "--via", "ksum_to_vectorsum"]) == 2


def test_cli_reduce_determinism(tmp_path):
    inst_path = tmp_path / "a.json"
    main(["gen", "ksum", "--n", "6", "--k", "3", "--M", "20", "--seed", "13",
          "--out", str(inst_path)])
    outs = []
    for name in ("r1.jsonl", "r2.jsonl"):
        out = tmp_path / name
        assert main(["reduce", "--in", str(inst_path), "--via", "smallksum_to_kclique",
                     "--f-exponent", "2", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_subsetsum_mode(tmp_path):
    inst_path = tmp_path / "ss.json"
    inst_path.write_bytes(
        b'{"type":"ksum","k":3,"numbers":["1","4","1","2","5"],"target":"10","range":["0","5"]}'
    )
    out_dir = tmp_path / "pieces"
    report = tmp_path / "report.jsonl"
    rc = main(["subsetsum-mode", "--in", str(inst_path), "--f-exponent", "2",
               "--out", str(out_dir), "--report", str(report)])
    assert rc == 0  # the subset {1,4,5} hits 10
    lines = [json.loads(x) for x in report.read_text().splitlines()]
    assert [entry["k"] for entry in lines] == list(range(0, 6))
    assert any(entry.get("solvable") for entry in lines)
    solvable_ks = [entry["k"] for entry in lines if entry.get("solvable")]
    assert solvable_ks == [3]
    assert (out_dir / "edgeweight_k3.jsonl").exists()


def test_cli_reduce_huge_number_at_d2(tmp_path):
    big = 10**30
    inst_path = tmp_path / "big.json"
    inst_path.write_text(json.dumps(
        {"type": "ksum", "k": 2, "numbers": ["1", str(big)], "target": str(big + 1), "range": ["0", str(big)]}
    ))
    out = tmp_path / "red.jsonl"
    assert main(["reduce", "--in", str(inst_path), "--via", "ksum_to_vectorsum", "--d", "2",
                 "--out", str(out)]) == 0
    coll = parse_collection(out.read_bytes())
    assert (coll.params["p"], coll.params["d"]) == (isqrt(2 * big) + 1, 2)
    assert any(solve_auto(item.instance).solvable for item in coll.items)


@pytest.mark.parametrize("target", ["0", "5"])
@pytest.mark.parametrize(
    "via, instance",
    [
        ("ksum_to_vectorsum", {"type": "ksum", "k": 3, "numbers": ["0", "0", "0"], "range": ["0", "0"]}),
        ("nodeweight_to_edgeweight", dict(GRAPH_FILE, node_weights=["0", "0", "0"], weight_bound="0")),
    ],
)
def test_cli_reduce_zero_digit_count_is_usage_error(tmp_path, capsys, via, instance, target):
    # all-zero weights fit p^0 = 1, so only a digit-count check stops d = 0,
    # both for a reachable target and for one the range check prunes
    instance = dict(instance, target=target)
    inst_path = tmp_path / "zero.json"
    inst_path.write_text(json.dumps(instance))
    out = tmp_path / "red.jsonl"
    assert main(["reduce", "--in", str(inst_path), "--via", via, "--p", "5", "--d", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "digit count must be >= 1" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("target", ["0", "5"])
@pytest.mark.parametrize(
    "via, instance",
    [
        ("ksum_to_vectorsum", {"type": "ksum", "k": 3, "numbers": ["0", "0", "0"], "range": ["0", "0"]}),
        ("nodeweight_to_edgeweight", dict(GRAPH_FILE, node_weights=["0", "0", "0"], weight_bound="0")),
    ],
)
def test_cli_reduce_radix_at_most_k_is_usage_error(tmp_path, capsys, via, instance, target):
    # all-zero weights fit any radix, so only the p > k check stops p = k = 3,
    # both for a reachable target and for one the range check prunes
    instance = dict(instance, target=target)
    inst_path = tmp_path / "zero.json"
    inst_path.write_text(json.dumps(instance))
    out = tmp_path / "red.jsonl"
    assert main(["reduce", "--in", str(inst_path), "--via", via, "--p", "3", "--out", str(out)]) == 2
    assert "radix must exceed the arity, got p=3 <= k=3" in capsys.readouterr().err
    assert not out.exists()


FIVE_NUMBER_3SUM = {"type": "ksum", "k": 3, "numbers": ["1", "2", "3", "4", "5"], "target": "9", "range": ["0", "5"]}


def test_cli_reduce_carry_count_over_the_budget_is_usage_error(tmp_path, capsys):
    # (k+1)^(d-1) = 4^11 carry tuples exceed ALPHA_BUDGET: refused before any is built
    inst_path = tmp_path / "k.json"
    inst_path.write_text(json.dumps(FIVE_NUMBER_3SUM))
    out = tmp_path / "red.jsonl"
    start = time.perf_counter()
    assert main(["reduce", "--in", str(inst_path), "--via", "ksum_to_vectorsum", "--p", "5", "--d", "12",
                 "--out", str(out)]) == 2
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert "4^11 carry tuples exceed the work budget 200000" in err and "Traceback" not in err
    assert not out.exists()


SIX_NUMBER_3SUM = {"type": "ksum", "k": 3, "numbers": ["4", "18", "27", "25", "24", "2"], "target": "32",
                   "range": ["0", "30"]}
K4_NODE = {"type": "graph", "k": 3, "n": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
           "node_weights": ["5", "3", "1", "0"], "edge_weights": None, "weight_bound": "5", "target": "15",
           "partition": None}
K4_EDGE_HUGE_K = dict(K4_NODE, k=100000, node_weights=None, target="0", edge_weights=[
    [0, 1, "5"], [0, 2, "1"], [0, 3, "-2"], [1, 2, "-4"], [1, 3, "2"], [2, 3, "-5"]])
K4_HUGE_K = dict(K4_NODE, k=100000, node_weights=None, weight_bound=None, target=None)
K4_ZERO_WEIGHTS_HUGE_K = dict(K4_EDGE_HUGE_K, weight_bound="0",
                              edge_weights=[[u, v, "0"] for u, v, _ in K4_EDGE_HUGE_K["edge_weights"]])


def _triangle_on(n, k):
    return {"type": "graph", "k": k, "n": n, "edges": [[0, 1], [0, 2], [1, 2]], "node_weights": None,
            "edge_weights": None, "weight_bound": None, "target": None, "partition": None}


def _star_on(n, leaves, k):
    return dict(_triangle_on(n, k), edges=[[0, v] for v in range(1, leaves + 1)])


def _cap_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("instance, argv, message", [
    (SIX_NUMBER_3SUM, ["reduce", "--via", "ksum_to_vectorsum", "--p", "11", "--d", "100000000"],
     "4^99999999 carry tuples exceed the work budget 200000"),
    (SIX_NUMBER_3SUM, ["reduce", "--via", "ksum_to_vectorsum", "--d", "100000000"],
     "4^99999999 carry tuples exceed the work budget 200000"),
    (K4_NODE, ["reduce", "--via", "nodeweight_to_edgeweight", "--p", "11", "--d", "100000000"],
     "4^99999999 carry tuples exceed the work budget 200000"),
    (K4_NODE, ["reduce", "--via", "nodeweight_to_edgeweight", "--d", "100000000"],
     "4^99999999 carry tuples exceed the work budget 200000"),
    # the clique guard counts the 61 vertices with an edge: C(61, 30) and 61 * 60^29
    (_star_on(10**6, 60, 30), ["solve"], "k-clique search on n=1000000, k=30 exceeds the work budget"),
    (_star_on(10**7, 60, 30), ["solve"], "k-clique search on n=10000000, k=30 exceeds the work budget"),
    (K4_EDGE_HUGE_K, ["reduce", "--via", "edgeweight_to_unweighted", "--alpha-mode", "full"],
     "alpha enumeration would need 11^4999949999 tuples (budget 200000)"),
    (K4_EDGE_HUGE_K, ["reduce", "--via", "edgeweight_to_unweighted", "--alpha-mode", "present"],
     "alpha enumeration would need 6^4999949999 tuples (budget 200000)"),
    (K4_HUGE_K, ["reduce", "--via", "clique_to_vectorsum"],
     "59999800000 vectors of 10000100001 coordinates exceed the work budget 20000000"),
    (K4_HUGE_K, ["reduce", "--via", "kclique_to_ksum"],
     "59999800000 vectors of 10000100001 coordinates exceed the work budget 20000000"),
    (K4_ZERO_WEIGHTS_HUGE_K, ["reduce", "--via", "edgeweight_to_unweighted", "--alpha-mode", "present"],
     "4999950000 alpha coordinates exceed the work budget 200000"),
    (dict(_triangle_on(10**9, 3), edge_weights=[[0, 1, "0"], [0, 2, "0"], [1, 2, "0"]], weight_bound="0",
          target="0"), ["reduce", "--via", "edgeweight_to_unweighted", "--alpha-mode", "present"],
     "1 x 3000000000 alpha-graph vertices exceed the work budget 20000000"),
    (_triangle_on(10**9, 3), ["reduce", "--via", "clique_to_vectorsum"],
     "3000000018 vectors of 13 coordinates exceed the work budget 20000000"),
], ids=["vectorsum-p11", "vectorsum-auto-radix", "nodeweight-p11", "nodeweight-auto-radix", "clique-1e6",
        "clique-1e7", "alpha-full", "alpha-present", "clique-vectors-huge-k", "clique-ksum-huge-k",
        "alpha-present-one-weight", "alpha-graph-1e9", "clique-vectors-1e9"])
def test_cli_work_budget_refuses_before_building_its_bound(tmp_path, instance, argv, message):
    """Each guard compares its bound without building the huge power or
    binomial, so the run exits 2 at once; a guard that builds it runs out of
    the 20 s or the 2 GiB address space given to the process."""
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(instance))
    env = dict(os.environ, PYTHONPATH=str(Path(ksumclique.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "ksumclique.cli", *argv, "--in", str(inst_path)],
                         capture_output=True, text=True, timeout=20, env=env, preexec_fn=_cap_address_space)
    assert (run.returncode, run.stdout) == (2, "")
    assert message in run.stderr and "Traceback" not in run.stderr


@pytest.mark.parametrize("backend, stats", [
    ("naive-mm", {"backend": "naive-mm", "pairs_checked": 1}),
    ("degree-split", {"backend": "degree-split", "delta": 2, "low_pairs": 0, "core_size": 3,
                      "core_pairs_checked": 1}),
])
def test_cli_triangle_solvers_ignore_vertices_without_edges(tmp_path, backend, stats):
    """The adjacency masks stop at the largest endpoint, so a triangle among
    10^9 vertices solves at once, with the counters of the 3-vertex graph."""
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(_triangle_on(10**9, 3)))
    env = dict(os.environ, PYTHONPATH=str(Path(ksumclique.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "ksumclique.cli", "solve", "--solver", f"triangle-{backend}",
                          "--in", str(inst_path)],
                         capture_output=True, text=True, timeout=20, env=env, preexec_fn=_cap_address_space)
    assert (run.returncode, run.stderr) == (0, "")
    assert json.loads(run.stdout) == {"solvable": True, "witness": [0, 1, 2], "stats": stats}


@pytest.mark.parametrize("instance, code, report", [
    (_triangle_on(10**9, 3), 0, {"solvable": True, "witness": [0, 1, 2], "stats": {"nodes_expanded": 4}}),
    (_triangle_on(10**6, 5 * 10**5), 1, {"solvable": False, "witness": None, "stats": {"nodes_expanded": 500001}}),
    (_triangle_on(10**7, 5 * 10**6), 1, {"solvable": False, "witness": None, "stats": {"nodes_expanded": 5000001}}),
], ids=["triangle-1e9", "k-5e5-among-1e6", "k-5e6-among-1e7"])
def test_cli_clique_solver_ignores_vertices_without_edges(tmp_path, instance, code, report):
    """The clique guard counts only the vertices that have an edge, so the
    default solver answers on 3 edges among 10^9 vertices at once, and finds
    no clique of 5*10^5 or 5*10^6 among their 3 vertices."""
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(instance))
    env = dict(os.environ, PYTHONPATH=str(Path(ksumclique.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "ksumclique.cli", "solve", "--in", str(inst_path)],
                         capture_output=True, text=True, timeout=20, env=env, preexec_fn=_cap_address_space)
    assert (run.returncode, run.stderr) == (code, "")
    assert json.loads(run.stdout) == report


def test_cli_reduce_carry_count_within_the_budget_is_unchanged(tmp_path):
    # 4^8 = 65,536 carry tuples; the digest is of the output before the budget existed
    inst_path = tmp_path / "k.json"
    inst_path.write_text(json.dumps(FIVE_NUMBER_3SUM))
    out = tmp_path / "red.jsonl"
    assert main(["reduce", "--in", str(inst_path), "--via", "ksum_to_vectorsum", "--p", "5", "--d", "9",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "28044463ed25857f236f1ff274a9eeb1652884a939d88eb28c0418a8abf503ab"
    )


def test_each_work_bound_is_one_constant_read_where_it_is_checked(monkeypatch):
    """Each work bound is one module constant that every check reads when
    it runs, so patched low it refuses every solver and reduction it bounds:
    those that check it themselves and those that reach it through another
    module or a search they call. With the shipped values each call runs."""
    nw = gen_random_graph(24, 0.3, 3, weights="node", big_m=60, seed=5)
    ew = gen_random_graph(5, 1.0, 3, weights="edge", big_m=9, seed=3)
    assert len(ew.edges_by_weight) ** 2 > 10  # present-mode heads support^(C(3,2)-1)
    ten = make_ksum(list(range(10)), 3, 100)
    targetsum = TargetSumInstance(q=11, elements=tuple(range(10)), k=3, target=4)
    k4 = CliqueInstance(n=4, edges=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), k=3)
    lindep = LinDepInstance(q=2, n=5, vectors=tuple((i % 2, (i // 2) % 2, 1, 0, 1) for i in range(8)), k=3,
                            target=(1, 1, 1, 1, 1))
    cases = [
        (fwd, "ALPHA_BUDGET", 10, [lambda: SOLVERS["nw-triangle"](nw), lambda: list(fwd.present_alpha_tuples(ew, 3)),
                                   lambda: REDUCTIONS["edgeweight_to_unweighted"].reduce(ew, {"alpha_mode": "present"})]),
        (solvers, "DEFAULT_BUDGET", 5, [lambda: SOLVERS["ksum-brute"](ten), lambda: SOLVERS["ksum-mim"](ten),
                                        lambda: SOLVERS["targetsum-brute"](targetsum)]),
        (fwd, "VECTOR_BUDGET", 10, [lambda: REDUCTIONS["clique_to_vectorsum"].reduce(k4, {}),
                                    lambda: REDUCTIONS["kclique_to_ksum"].reduce(k4, {"radix_mode": "mixed"})]),
        (fieldapps, "LINDEP_BUDGET", 5, [lambda: SOLVERS["lindep-brute"](lindep),
                                         lambda: REDUCTIONS["lindep_to_vectorsum"].reduce(lindep, {})]),
    ]
    for module, name, bound, calls in cases:
        for call in calls:
            call()
        monkeypatch.setattr(module, name, bound)
        for call in calls:
            with pytest.raises(ResourceBudgetError):
                call()
        monkeypatch.undo()


def test_cli_subsetsum_mode_huge_numbers(tmp_path):
    numbers = [2_000_000_000, 2_000_000_011, 1_999_999_989]
    inst_path = tmp_path / "ss.json"
    inst_path.write_text(json.dumps({
        "type": "ksum", "k": 2, "numbers": [str(x) for x in numbers],
        "target": str(numbers[0] + numbers[2]), "range": ["0", str(max(numbers))],
    }))
    report = tmp_path / "r.jsonl"
    assert main(["subsetsum-mode", "--in", str(inst_path), "--report", str(report)]) == 0
    lines = [json.loads(x) for x in report.read_text().splitlines()]
    assert [entry["k"] for entry in lines if entry["solvable"]] == [2]


def test_cli_subsetsum_mode_unsolvable_exit(tmp_path):
    inst_path = tmp_path / "ss.json"
    inst_path.write_bytes(
        b'{"type":"ksum","k":2,"numbers":["2","2","2"],"target":"3","range":["0","2"]}'
    )
    rc = main(["subsetsum-mode", "--in", str(inst_path), "--f-exponent", "2",
               "--report", str(tmp_path / "r.jsonl")])
    assert rc == 1


@pytest.mark.parametrize("command", ["reduce", "subsetsum-mode", "experiment"])
def test_cli_f_exponent_overflowing_the_radix_floor_is_usage_error(tmp_path, capsys, command):
    # k * 2^f * log2 n overflows a float at f = 1100; that is bad input, not "unsolvable"
    inst_path = tmp_path / "k.json"
    inst_path.write_bytes(serialize_instance(make_ksum([1, 2, 3], 3, 6)))
    if command == "reduce":
        argv = ["reduce", "--via", "smallksum_to_kclique", "--f-exponent", "1100", "--in", str(inst_path),
                "--out", str(tmp_path / "out.jsonl")]
    elif command == "subsetsum-mode":
        argv = ["subsetsum-mode", "--in", str(inst_path), "--f-exponent", "1100", "--report", str(tmp_path / "r.jsonl")]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trials": 3, "seed": 1, "chain": ["smallksum_to_kclique"],
                                        "params": {"f_exp": 1100}}))
        argv = ["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "f exponent 1100 overflows the radix floor" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["k.json"] + (["cfg.json"] if command == "experiment" else []))


@pytest.mark.parametrize("weights", ["node", "edge"])
def test_cli_gen_negative_weight_bound_is_usage_error(tmp_path, capsys, weights):
    out = tmp_path / "g.json"
    assert main(["gen", "graph", "--n", "5", "--k", "3", "--weights", weights, "--M", "-1", "--out", str(out)]) == 2
    assert "need M >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n, k", [(-1, -2), (3, 0)])
def test_cli_gen_ksum_arity_below_one_is_usage_error(tmp_path, capsys, n, k):
    out = tmp_path / "k.json"
    assert main(["gen", "ksum", "--n", str(n), "--k", str(k), "--M", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"arity k must be >= 1, got {k}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_unknown_reduction_is_usage_error(tmp_path):
    inst_path = tmp_path / "a.json"
    main(["gen", "ksum", "--n", "4", "--k", "2", "--M", "5", "--seed", "0",
          "--out", str(inst_path)])
    assert main(["reduce", "--in", str(inst_path), "--via", "bogus"]) == 2


@pytest.mark.parametrize(
    "config",
    [{"trials": "x"}, {"n_range": 5}, {"n_range": [6, 4]}, {"params": [1]}, [1, 2], {"report": 5},
     {"chain": ["ksum_to_vectorsum"], "params": {"d": "x"}},
     {"chain": ["ksum_to_vectorsum"], "params": {"d": [1]}},
     {"chain": ["ksum_to_vectorsum"], "params": {"p": "x"}},
     {"chain": ["nodeweight_to_edgeweight"], "source": "graph-node", "params": {"p": "x"}},
     {"chain": ["smallksum_to_kclique"], "params": {"f_exp": "x"}},
     {"chain": ["ksum_mod_reduce"], "params": {"confidence": "x"}},
     {"chain": ["ksum_mod_reduce"], "params": {"seed": [1]}},
     {"n_range": [-5, -1]}, {"k_range": [-3, -1]}, {"source": "targetsum", "m_range": [-3, -3]}],
    ids=["trials-string", "range-scalar", "range-reversed", "params-list", "top-level-list", "report-number",
         "param-d-string", "param-d-list", "param-p-string", "param-p-string-nodeweight", "param-f-exp-string",
         "param-confidence-string", "param-seed-list", "n-range-negative", "k-range-negative", "m-range-negative"],
)
def test_cli_malformed_experiment_config_is_usage_error(tmp_path, capsys, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 2
    assert "bad experiment config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        {"chain": ["ksum_to_vectorsum"], "source": "clique"},
        {"chain": ["ksum_to_vectorsum", "ksum_to_vectorsum"]},
        {"chain": ["ksum_to_vectorsum"],
         "source_instance": {"type": "graph", "k": 2, "n": 2, "edges": [[0, 1]], "target": "0"}},
        {"chain": ["clique_to_vectorsum"], "source": "clique", "oracle": "ksum-mim"},
        {"chain": [], "source": ["ksum"]},
        {"chain": ["edgeweight_to_unweighted"], "source": "graph-edge", "k_range": [1, 1]},
        {"chain": ["smallksum_to_kclique"], "m_range": [100, 200]},
    ],
    ids=["source-not-taken", "chain-does-not-compose", "source-instance-not-taken", "oracle-wrong-kind",
         "source-not-a-name", "reduction-rejects-arity", "reduction-rejects-numbers"],
)
def test_cli_experiment_config_the_chain_cannot_run_is_usage_error(tmp_path, capsys, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict({"trials": 3, "seed": 1}, **config)))
    assert main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 2
    assert "bad experiment config" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_cli_experiment_byte_deterministic(tmp_path):
    cfg = {
        "trials": 10, "seed": 42, "n_range": [4, 9], "k_range": [2, 3],
        "m_range": [1, 30], "chain": ["ksum_to_vectorsum"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
