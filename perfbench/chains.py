"""Workloads of the chain benchmark: seeded input pools, set-up oracles, the
chain each operation runs, and the check of every output.

A pool is generated from the seed alone, by this file's own generators; the
program only ever sees the finished instances. Input sizes follow a fixed
walk over each workload's ranges (the seed draws the values at each
position), so two seeds load the program with the same mix of sizes and the
run-to-run spread comes from the values, not from a lucky draw of small
inputs.

Verdicts are judged against oracles written here, independent of the
package: plain enumeration over k-subsets. Witnesses are re-checked the same
way.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import combinations, product
from types import SimpleNamespace
from typing import Any, Callable


@dataclass
class Case:
    """One pool entry: the program's input, the generated source facts the
    checker needs, the oracle verdict computed at set-up, and how many units
    (source instances, or trials for the experiment workload) it attempts."""

    label: str
    args: dict[str, Any]
    expected: bool | None = None
    source: dict[str, Any] = field(default_factory=dict)
    units: int = 1


@dataclass
class Outcome:
    """Accounting for one operation, in the workload's unit (instances, or
    trials for the experiment workload)."""

    attempted: int
    verified: int
    failed: int
    wrong: int
    error: str | None = None


# ---------------------------------------------------------------------------
# independent oracles and witness checks
# ---------------------------------------------------------------------------

def ksum_oracle(numbers: tuple[int, ...], k: int, target: int) -> bool:
    return any(sum(c) == target for c in combinations(numbers, k))


def ksum_witness_ok(numbers: tuple[int, ...], k: int, target: int, witness: Any) -> bool:
    w = list(witness)
    return (
        len(w) == k
        and len(set(w)) == k
        and all(0 <= i < len(numbers) for i in w)
        and sum(numbers[i] for i in w) == target
    )


def is_clique(edges: set[tuple[int, int]], verts: Any) -> bool:
    vs = sorted(verts)
    return len(set(vs)) == len(vs) and all((a, b) in edges for a, b in combinations(vs, 2))


def clique_oracle(n: int, edges: set[tuple[int, int]], k: int) -> bool:
    return any(is_clique(edges, c) for c in combinations(range(n), k))


def nw_triangle_oracle(n: int, edges: set[tuple[int, int]], weights: tuple[int, ...], target: int) -> bool:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for u, v in edges:
        for w in adj[u] & adj[v]:
            if w > v and weights[u] + weights[v] + weights[w] == target:
                return True
    return False


def nw_witness_ok(edges: set[tuple[int, int]], weights: tuple[int, ...], target: int, witness: Any) -> bool:
    w = list(witness)
    return len(w) == 3 and is_clique(edges, w) and sum(weights[v] for v in w) == target


def weighted_clique_oracle(n: int, edges: set[tuple[int, int]], k: int, weight: Callable[[tuple[int, ...]], int], target: int) -> bool:
    return any(is_clique(edges, c) and weight(c) == target for c in combinations(range(n), k))


def lindep_oracle(q: int, vectors: tuple[tuple[int, ...], ...], k: int, target: tuple[int, ...]) -> bool:
    """Some k distinct vectors whose F_q-span holds the target: every
    coefficient tuple over every k-subset."""
    for subset in combinations(vectors, k):
        for coeffs in product(range(q), repeat=k):
            if tuple(sum(c * v[j] for c, v in zip(coeffs, subset)) % q for j in range(len(target))) == target:
                return True
    return False


def source_oracle(inst: Any) -> bool:
    """Verdict on any source instance the experiment harness draws, by plain
    enumeration over k-subsets; dispatches on the class name so that it
    shares no code with the package."""
    kind, k = type(inst).__name__, inst.k
    if kind == "KSumInstance":
        return ksum_oracle(inst.numbers, k, inst.target)
    if kind == "VectorSumInstance":
        target = tuple(inst.target)
        return any(tuple(map(sum, zip(*c))) == target for c in combinations(inst.vectors, k))
    if kind == "TargetSumInstance":
        return any(sum(c) % inst.q == inst.target for c in combinations(inst.elements, k))
    if kind == "LinDepInstance":
        return lindep_oracle(inst.q, inst.vectors, k, tuple(inst.target))
    edges = set(inst.edges)
    if kind == "CliqueInstance":
        return clique_oracle(inst.n, edges, k)
    if kind == "WeightedGraph" and inst.node_weights is not None:
        nw = inst.node_weights
        return weighted_clique_oracle(inst.n, edges, k, lambda c: sum(nw[v] for v in c), inst.target)
    if kind == "WeightedGraph":
        ew = {(u, v): w for u, v, w in inst.edge_weights}
        return weighted_clique_oracle(inst.n, edges, k, lambda c: sum(ew[e] for e in combinations(c, 2)), inst.target)
    raise TypeError(f"no oracle for {kind}")


def judge_chain(expected: bool, solvable: bool, witness_ok: bool) -> Outcome:
    """One source instance: a verdict that differs from the oracle, or a
    solvable verdict whose lifted witness does not verify at the source, is a
    wrong answer and a failed operation."""
    wrong = solvable != expected or (solvable and not witness_ok)
    return Outcome(attempted=1, verified=0 if wrong else 1, failed=int(wrong), wrong=int(wrong))


def raised(case: Case, exc: BaseException, budget_error: type[BaseException]) -> Outcome:
    """An operation that raised failed every unit it attempted. Where the
    set-up oracle gave a verdict, a raise other than a budget overrun is a
    wrong answer too: the lifts reject a bogus witness by raising, so a
    solver that claims solvable on an unsolvable case ends there. A budget
    overrun is a failure only, and so is a raise where no verdict was set
    (a config run of the experiment workload) unless set-up found the
    program's oracle misjudging its sources."""
    judged = case.expected is not None and not isinstance(exc, budget_error)
    wrong = case.units if judged or case.source.get("oracle_disagreements") else 0
    return Outcome(attempted=case.units, verified=0, failed=case.units, wrong=wrong,
                   error=f"{case.label}: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _edges_with_density(rng: random.Random, n: int, density: float, plant: int = 0) -> tuple[set[tuple[int, int]], tuple[int, ...]]:
    """Exactly round(density * C(n,2)) distinct edges, including the edges of
    a planted `plant`-clique when asked for: the edge count, which sets the
    reductions' output size, is fixed by the pool position alone."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = tuple(sorted(rng.sample(range(n), plant))) if plant else ()
    edges = set(combinations(chosen, 2))
    rest = [e for e in pairs if e not in edges]
    edges.update(rng.sample(rest, max(0, round(density * len(pairs)) - len(edges))))
    return edges, chosen


def _spread(i: int, step: float, lo: float, hi: float) -> float:
    """Entry i of a fixed low-discrepancy walk over [lo, hi]: every prefix of
    the pool covers the range evenly, whatever the seed, and the sizes form a
    continuum rather than a few clusters with gaps in between."""
    return lo + (hi - lo) * ((i * step) % 1.0)


GOLDEN = 0.6180339887498949
SQRT2 = 0.4142135623730951
SQRT3 = 0.7320508075688772


# ---------------------------------------------------------------------------
# sum_to_clique
#
# Why: the forward pipeline end to end, as the CLI runs it (reduce, write the
# merged graph, read it back, solve, lift, verify). The clique backtrack over
# the very sparse merged graph is about two thirds of the time at n = 9 (82%
# at n = 10), so this is the workload for sparse-aware clique search;
# smallksum_to_kclique (carries, squaring trick, present-mode alpha
# stripping, merge) is most of the rest.
#
# Sized for time: n = 9, M = n^2 = 81, k = 3, f = 2. The cost of one
# instance varies about as much as its mean (it grows with the square of the
# merged graph's size), so the spread between seeds falls only with the number
# of instances in a run. At n = 12-13 (0.1-1.5 s each) a 20 s run holds ~90
# instances and seeds alone moved throughput by ~14% (one standard
# deviation); mixing n = 10 and 11 put the median between two populations.
# n = 10 alone holds ~500 instances, and with every operation of eight seeds
# interleaved in one process (so the machine's speed hit all alike) seeds
# alone still spread p50 by 0.19 and throughput by 0.09 (IQR/median). n = 9
# costs about 10 ms an instance and a 25 s run holds 1,536 (with 1,024 the
# tail, the 11th slowest, still spread by 0.13-0.18 over ten seeds; n = 8
# would be steadier still, but there the backtrack is only 55% of the time).
# Half of the targets are
# planted; the rest are drawn from [M, 2M], inside the range three numbers
# can reach, so few operations end in a trivial prune.
# ---------------------------------------------------------------------------

SUM_TO_CLIQUE_POOL = 1536
SUM_TO_CLIQUE_N = 9


def sum_to_clique_pool(seed: int, ks: SimpleNamespace) -> list[Case]:
    rng = random.Random(f"sum_to_clique:{seed}")
    cases = []
    for i in range(SUM_TO_CLIQUE_POOL):
        n, planted = SUM_TO_CLIQUE_N, i % 2 == 0
        big_m = n * n  # numbers bounded by n^f with f = 2
        numbers = tuple(rng.randint(0, big_m) for _ in range(n))
        if planted:
            target = sum(numbers[j] for j in rng.sample(range(n), 3))
        else:
            target = rng.randint(big_m, 2 * big_m)
        inst = ks.instances.KSumInstance(k=3, numbers=numbers, target=target, bounds=(0, big_m))
        cases.append(Case(
            label=f"sum_to_clique[{i}] n={n} planted={planted}",
            args={"inst": inst},
            expected=ksum_oracle(numbers, 3, target),
            source={"numbers": numbers, "target": target},
        ))
    return cases


def sum_to_clique_op(case: Case, ks: SimpleNamespace) -> tuple[bool, Any, bool]:
    inst = case.args["inst"]
    result = ks.fwd.smallksum_to_kclique(inst, 2)
    graph = ks.instances.parse_instance(ks.instances.serialize_instance(result.instance))
    report = ks.solvers.solve_kclique_bruteforce(graph)
    if not report.solvable:
        return False, None, False
    lifted = ks.fwd.lift_pipeline_witness(result, report.witness)
    return True, lifted, ks.instances.verify_witness(inst, lifted)


def sum_to_clique_check(case: Case, solvable: bool, witness: Any, verified: bool) -> Outcome:
    src = case.source
    ok = verified and ksum_witness_ok(src["numbers"], 3, src["target"], witness)
    return judge_chain(case.expected, solvable, ok)


# ---------------------------------------------------------------------------
# clique_to_sum
#
# Why: the backward chain. solve_ksum_mim over the packed 6-SUM numbers is
# ~99% of the time; kclique_to_ksum (sum-free vertex codes, vector encoding,
# radix packing) and the lift (which rebuilds the reduction twice) are ~1-2 ms
# each. A clique-search or lift refactor should leave this workload unchanged.
# ---------------------------------------------------------------------------

CLIQUE_TO_SUM_POOL = 128


def clique_to_sum_pool(seed: int, ks: SimpleNamespace) -> list[Case]:
    rng = random.Random(f"clique_to_sum:{seed}")
    cases = []
    for i in range(CLIQUE_TO_SUM_POOL):
        n, density = 8 + (i // 4) % 4, _spread(i, GOLDEN, 0.2, 0.35)
        planted, mode = i % 2 == 0, ("uniform", "mixed")[(i // 2) % 2]
        edges, _ = _edges_with_density(rng, n, density, 3 if planted else 0)
        graph = ks.instances.CliqueInstance(n=n, edges=tuple(sorted(edges)), k=3)
        cases.append(Case(
            label=f"clique_to_sum[{i}] n={n} m={len(edges)} planted={planted} {mode}",
            args={"graph": graph, "radix_mode": mode},
            expected=clique_oracle(n, edges, 3),
            source={"edges": edges},
        ))
    return cases


def clique_to_sum_op(case: Case, ks: SimpleNamespace) -> tuple[bool, Any, bool]:
    graph, mode = case.args["graph"], case.args["radix_mode"]
    packed = ks.bwd.kclique_to_ksum(graph, radix_mode=mode)
    report = ks.solvers.solve_ksum_mim(packed)
    if not report.solvable:
        return False, None, False
    lifted = ks.bwd.lift_ksum_witness_to_clique(graph, report.witness, radix_mode=mode)
    return True, lifted, ks.instances.verify_witness(graph, lifted)


def clique_to_sum_check(case: Case, solvable: bool, witness: Any, verified: bool) -> Outcome:
    ok = verified and witness is not None and len(witness) == 3 and is_clique(case.source["edges"], witness)
    return judge_chain(case.expected, solvable, ok)


# ---------------------------------------------------------------------------
# nw_triangle
#
# Why: node-weight triangle through the squaring trick and alpha stripping,
# with no backtracking: build_alpha_instance (~42%) and bitset triangle
# detection (~27%) dominate, and the search stops at the first hit. Both
# triangle backends alternate. This is the workload for alpha bucketing.
#
# Sized for time: n in [24, 36], M in [30, 100]. One operation's cost spans
# three orders of magnitude (an early hit, a range prune, or every alpha
# tried), so the median needs many operations. At n in [40, 60] a 20 s run
# holds 320, and with every operation of ten seeds interleaved in one process
# seeds alone spread p50 by 0.22 and the tail by 0.18 (IQR/median); at
# n in [24, 36] one costs about 10 ms and a run holds 1,792.
#
# Edge density stays in [0.2, 0.25]: at n = 60, M = 100 and density 0.3 the
# graph has more than 447 distinct squared edge weights, present-mode alpha
# enumeration exceeds ALPHA_BUDGET (200k) and the operation raises
# ResourceBudgetError. That is the pipeline's capacity limit, not a
# correctness defect, and this workload is meant to load alpha stripping.
# ---------------------------------------------------------------------------

NW_TRIANGLE_POOL = 1792


def nw_triangle_pool(seed: int, ks: SimpleNamespace) -> list[Case]:
    rng = random.Random(f"nw_triangle:{seed}")
    cases = []
    for i in range(NW_TRIANGLE_POOL):
        n, big_m = round(_spread(i, GOLDEN, 24, 36)), round(_spread(i, SQRT2, 30, 100))
        density = _spread(i, SQRT3, 0.2, 0.25)
        planted, backend = i % 2 == 0, ("naive-mm", "degree-split")[(i // 2) % 2]
        edges, clique = _edges_with_density(rng, n, density, 3 if planted else 0)
        weights = tuple(rng.randint(0, big_m) for _ in range(n))
        if planted:
            target = sum(weights[v] for v in clique)
        else:
            target = rng.randint(0, 3 * big_m)
        graph = ks.instances.WeightedGraph(
            n=n, edges=tuple(sorted(edges)), k=3, node_weights=weights,
            edge_weights=None, weight_bound=big_m, target=target,
        )
        cases.append(Case(
            label=f"nw_triangle[{i}] n={n} M={big_m} m={len(edges)} planted={planted} {backend}",
            args={"graph": graph, "backend": backend},
            expected=nw_triangle_oracle(n, edges, weights, target),
            source={"edges": edges, "weights": weights, "target": target},
        ))
    return cases


def nw_triangle_op(case: Case, ks: SimpleNamespace) -> tuple[bool, Any, bool]:
    graph = case.args["graph"]
    report = ks.solvers.solve_nw_triangle(graph, backend=case.args["backend"])
    if not report.solvable:
        return False, None, False
    return True, report.witness, ks.instances.verify_witness(graph, report.witness)


def nw_triangle_check(case: Case, solvable: bool, witness: Any, verified: bool) -> Outcome:
    src = case.source
    ok = verified and nw_witness_ok(src["edges"], src["weights"], src["target"], witness)
    return judge_chain(case.expected, solvable, ok)


# ---------------------------------------------------------------------------
# experiment
#
# Why: the seeded equivalence harness, one operation per config run. Only
# this workload reaches cli, modprime, fieldapps, the brute-force oracles and
# whole-chain leaf materialization; edgeweight_to_unweighted runs in full
# alpha mode with no early exit, so a change that speeds up nw_triangle but
# slows full emission shows here.
#
# Trials per config are sized for time (the median config run takes about
# 80 ms here, 210 runs per pass), not to avoid failures:
# - kclique_to_ksum keeps n in [4,6], k = 3, where the brute-force 6-SUM leaf
#   oracle trips ResourceBudgetError on about half the trials (a known
#   defect, counted as failed). One trial costs 0.4 s on average and up to
#   4 s, so it gets one trial per run and two runs per round trip of the
#   pool; at n in [3,4] it avoids the budget but 200 trials take 25 s.
# - lindep_to_vectorsum raises an uncaught MalformedWitnessError within the
#   first trials (a known defect); a config run that raises counts all of its
#   trials as failed.
# - the composed nodeweight_to_edgeweight,edgeweight_to_unweighted chain uses
#   present mode: full-mode alpha stripping after the squaring trick did not
#   finish 200 trials in 100 s at n in [4,8], M <= 6.
# - vectorsum_to_ksum on its own needs a vectorsum source, which the harness
#   cannot generate, so each of its runs gets a source instance generated
#   here.
# The harness judges both the source and the leaves with the program's own
# oracle (cli.SOLVERS["auto"]), so it cannot see a defect that breaks that
# oracle the same way on both sides. Set-up therefore rebuilds the sources of
# the first EXPERIMENT_CHECKED_TRIALS trials of every config run with the
# harness's own seeded draw and judges each with the program's oracle and with
# source_oracle here; every disagreement makes the run's answer wrong. The
# check is a sample (3,090 of 87,458 trials per pass, about 0.3 s): judging
# every trial takes about 4 s, too long to repeat at each set-up. Beyond it,
# the set-up verdict for every trial is that equivalence holds (a
# completeness-only chain, ksum_mod_reduce, is judged on completeness by the
# harness).
# ---------------------------------------------------------------------------

# chain, source kind, n_range, k_range, m_range, params, trials per run, and
# `every`: the config runs in pool rounds 0, every, 2*every, ...
EXPERIMENT_CONFIGS: tuple[tuple[str, str, tuple, tuple, tuple, dict, int, int], ...] = (
    ("ksum_to_vectorsum", "ksum", (4, 8), (2, 3), (0, 25), {}, 900, 1),
    ("nodeweight_to_edgeweight", "graph-node", (4, 8), (2, 3), (0, 6), {}, 450, 1),
    ("edgeweight_to_unweighted", "graph-edge", (4, 8), (2, 3), (0, 6), {}, 120, 1),
    ("smallksum_to_kclique", "ksum", (4, 8), (2, 3), (0, 16), {}, 150, 1),
    ("clique_to_vectorsum", "clique", (3, 5), (2, 2), (0, 5), {}, 300, 1),
    ("vectorsum_to_ksum", "vectorsum", (5, 8), (2, 3), (0, 5), {}, 1, 1),
    ("kclique_to_ksum", "clique", (4, 6), (3, 3), (0, 20), {}, 1, 8),
    ("ksum_mod_reduce", "ksum", (4, 8), (2, 3), (0, 1000), {}, 600, 1),
    ("targetsum_to_ksum", "targetsum", (4, 8), (2, 3), (0, 25), {}, 900, 1),
    ("ksum_to_targetsum", "ksum", (4, 8), (2, 3), (0, 25), {}, 900, 1),
    ("lindep_to_vectorsum", "lindep", (4, 8), (2, 3), (0, 5), {}, 20, 1),
    ("ksum_to_vectorsum,vectorsum_to_ksum", "ksum", (4, 8), (2, 3), (0, 25), {}, 600, 1),
    ("clique_to_vectorsum,vectorsum_to_ksum", "clique", (3, 5), (2, 2), (0, 5), {}, 300, 1),
    ("nodeweight_to_edgeweight,edgeweight_to_unweighted", "graph-node", (4, 8), (2, 3), (0, 6), {"alpha_mode": "present"}, 225, 1),
)

EXPERIMENT_ROUNDS = 16
EXPERIMENT_CHECKED_TRIALS = 16
MISMATCH_REASONS = ("solvability mismatch", "witness lift failed", "completeness violated")


def _vectorsum_source(rng: random.Random, ks: SimpleNamespace, n_range: tuple, k_range: tuple, hi: int) -> dict[str, Any]:
    n = rng.randint(*n_range)
    k = rng.randint(*k_range)
    dim = rng.randint(2, 3)
    vectors = [tuple(rng.randint(0, hi) for _ in range(dim)) for _ in range(n)]
    if rng.random() < 0.5:
        chosen = rng.sample(range(n), k)
        target = tuple(sum(vectors[i][j] for i in chosen) for j in range(dim))
    else:
        target = tuple(rng.randint(0, k * hi) for _ in range(dim))
    inst = ks.instances.VectorSumInstance(k=k, dim=dim, vectors=tuple(vectors), target=target, entry_bounds=(0, hi))
    return inst.to_json_dict()


def oracle_disagreements(cfg: Any, ks: SimpleNamespace) -> list[int]:
    """The checked trials of one config run on whose source the program's
    oracle and source_oracle disagree (or the program's oracle raises)."""
    bad = []
    for trial in range(min(cfg.trials, EXPERIMENT_CHECKED_TRIALS)):
        if cfg.source_instance is not None:
            source = ks.instances.parse_instance_dict(dict(cfg.source_instance))
        else:
            source = ks.cli._gen_source(cfg, random.Random(f"{cfg.seed}:{trial}"))
        try:
            agree = ks.cli.SOLVERS["auto"](source).solvable == source_oracle(source)
        except Exception:
            agree = False
        if not agree:
            bad.append(trial)
    return bad


def experiment_pool(seed: int, ks: SimpleNamespace) -> list[Case]:
    rng = random.Random(f"experiment:{seed}")
    cases = []
    for rnd in range(EXPERIMENT_ROUNDS):
        for chain, source, n_range, k_range, m_range, params, trials, every in EXPERIMENT_CONFIGS:
            if rnd % every:
                continue
            source_instance = None
            if source == "vectorsum":
                source_instance = _vectorsum_source(rng, ks, n_range, k_range, m_range[1])
            cfg = ks.cli.ExperimentConfig(
                trials=trials, seed=rng.getrandbits(31), n_range=n_range, k_range=k_range,
                m_range=m_range, chain=tuple(chain.split(",")), source=source,
                params=dict(params), source_instance=source_instance,
            )
            cases.append(Case(
                label=f"experiment[{len(cases)}] {chain} seed={cfg.seed}", args={"cfg": cfg}, units=trials,
                source={"oracle_disagreements": oracle_disagreements(cfg, ks)},
            ))
    return cases


def experiment_op(case: Case, ks: SimpleNamespace) -> tuple[dict[str, Any]]:
    return (ks.cli.run_equivalence_experiment(case.args["cfg"]),)


def experiment_check(case: Case, report: dict[str, Any]) -> Outcome:
    """Every trial is expected to pass. Harness failures are failed trials;
    those that claim a wrong reduced verdict or a non-lifting witness are
    wrong answers as well. A report that does not account for every trial,
    or a config whose sources the program's oracle misjudged at set-up, is
    wrong as a whole."""
    trials = case.units
    failures = report["failures"]
    if report["trials"] != trials or report["passes"] + len(failures) != trials:
        return Outcome(attempted=trials, verified=0, failed=trials, wrong=trials, error=f"{case.label}: report miscounts trials")
    misjudged = case.source["oracle_disagreements"]
    if misjudged:
        return Outcome(attempted=trials, verified=0, failed=trials, wrong=trials,
                       error=f"{case.label}: the program's oracle misjudged the sources of trials {misjudged}")
    wrong = sum(1 for f in failures if str(f.get("reason", "")).startswith(MISMATCH_REASONS))
    error = None
    if failures:
        reasons = sorted({str(f.get("reason", ""))[:60] for f in failures})
        error = f"{case.label}: {len(failures)}/{trials} trials failed: {'; '.join(reasons)}"
    return Outcome(attempted=trials, verified=report["passes"], failed=len(failures), wrong=wrong, error=error)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    pool: Callable[[int, SimpleNamespace], list[Case]]
    op: Callable[[Case, SimpleNamespace], Any]
    check: Callable[..., Outcome]
    unit: str  # what one attempted unit is


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sum_to_clique", sum_to_clique_pool, sum_to_clique_op, sum_to_clique_check, "instance"),
        Workload("clique_to_sum", clique_to_sum_pool, clique_to_sum_op, clique_to_sum_check, "instance"),
        Workload("nw_triangle", nw_triangle_pool, nw_triangle_op, nw_triangle_check, "instance"),
        Workload("experiment", experiment_pool, experiment_op, experiment_check, "trial"),
    )
}


def run_case(w: Workload, case: Case, ks: SimpleNamespace, clock: Callable[[], float]) -> tuple[float, Outcome]:
    """Run one operation; return its latency and the judged outcome. Only
    the program's calls are inside the timed region, not the check."""
    t0 = clock()
    try:
        result = w.op(case, ks)
    except Exception as exc:  # every failure mode is counted, none stops the loop
        return clock() - t0, raised(case, exc, ks.instances.ResourceBudgetError)
    elapsed = clock() - t0
    return elapsed, w.check(case, *result)


def pool_digest(cases: list[Case]) -> str:
    """Stable fingerprint of a pool's inputs and oracle verdicts."""
    h = hashlib.sha256()
    for c in cases:
        args = {k: (v.to_json_dict() if hasattr(v, "to_json_dict") else v) for k, v in c.args.items()}
        h.update(json.dumps([c.label, args, c.expected], sort_keys=True, default=str).encode())
    return h.hexdigest()
