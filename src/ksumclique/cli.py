"""Command-line frontend: generate, reduce, solve, verify, run equivalence
experiments and the all-subset-sizes loop.

Every run is seeded and byte-reproducible: output files contain no timestamps
or timings, except the wall time that `solve --timing` asks for. Exit codes:
0 solvable/pass, 1 unsolvable, 2 usage error, 3 equivalence failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from . import fieldapps, modprime, reduce_clique_to_sum as bwd, reduce_sum_to_clique as fwd
from .instances import (
    CliqueInstance,
    KSumInstance,
    MalformedWitnessError,
    ParameterError,
    ParseError,
    ReducedCollection,
    ReducedItem,
    ResourceBudgetError,
    ValidationError,
    WeightedGraph,
    _as_int,
    _as_list,
    _as_pair,
    parse_collection,
    parse_instance,
    parse_instance_dict,
    serialize_collection,
    serialize_instance,
    verify_witness,
    witness_tuple,
)
from .solvers import (
    SolverReport,
    detect_triangle,
    solve_kclique_bruteforce,
    solve_ksum_bruteforce,
    solve_ksum_mim,
    solve_nw_kclique,
    solve_nw_triangle,
    solve_vectorsum_bruteforce,
)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _constrained_sum_sample(rng: random.Random, count: int, lo: int, hi: int, total: int) -> list[int]:
    """count values in [lo, hi] summing exactly to total, sampled left to
    right inside the feasible window at each position."""
    if not count * lo <= total <= count * hi:
        raise ParameterError(f"no {count} values in [{lo},{hi}] sum to {total}")
    out = []
    remaining = total
    for left in range(count - 1, -1, -1):
        floor = max(lo, remaining - left * hi)
        ceil = min(hi, remaining - left * lo)
        x = rng.randint(floor, ceil)
        out.append(x)
        remaining -= x
    return out


def gen_random_ksum(
    n: int,
    k: int,
    big_m: int,
    plant: bool = False,
    seed: int = 0,
    target: int | None = None,
) -> KSumInstance:
    """Uniform numbers in [0, M]; plant mode overwrites a random k-subset so
    it hits the target."""
    if n < k:
        raise ParameterError(f"need n >= k, got n={n}, k={k}")
    if big_m < 0:
        raise ParameterError(f"need M >= 0, got {big_m}")
    rng = random.Random(seed)
    numbers = [rng.randint(0, big_m) for _ in range(n)]
    t = rng.randint(0, k * big_m) if target is None else target
    if plant:
        chosen = rng.sample(range(n), k)
        values = _constrained_sum_sample(rng, k, 0, big_m, t)
        for idx, val in zip(chosen, values):
            numbers[idx] = val
    return KSumInstance(k=k, numbers=tuple(numbers), target=t, bounds=(0, big_m))


def gen_random_graph(
    n: int,
    edge_prob: float,
    k: int,
    plant_clique: bool = False,
    weights: str = "none",
    big_m: int = 0,
    seed: int = 0,
    target: int | None = None,
) -> CliqueInstance | WeightedGraph:
    """Independent edges with probability edge_prob, an optional planted
    k-clique, and optional uniform weights: node weights in [0, M], edge
    weights in [-M, M].

    Planted weighted graphs get a target their clique actually hits (node
    mode) or edge weights rigged to sum to the target (edge mode, default 0).
    """
    if not 0 <= edge_prob <= 1:
        raise ParameterError(f"edge probability {edge_prob} outside [0,1]")
    if k > n:
        raise ParameterError(f"need n >= k, got n={n}, k={k}")
    rng = random.Random(seed)
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_prob}
    planted: list[int] = []
    if plant_clique:
        planted = sorted(rng.sample(range(n), k))
        for a in range(k):
            for b in range(a + 1, k):
                edges.add((planted[a], planted[b]))
    edge_list = tuple(sorted(edges))
    if weights == "none":
        return CliqueInstance(n=n, edges=edge_list, k=k)
    if weights == "node":
        node_w = [rng.randint(0, big_m) for _ in range(n)]
        if plant_clique:
            t = rng.randint(0, k * big_m) if target is None else target
            for v, val in zip(planted, _constrained_sum_sample(rng, k, 0, big_m, t)):
                node_w[v] = val
        else:
            t = rng.randint(0, k * big_m) if target is None else target
        return WeightedGraph(
            n=n, edges=edge_list, k=k,
            node_weights=tuple(node_w), edge_weights=None,
            weight_bound=big_m, target=t,
        )
    if weights == "edge":
        t = 0 if target is None else target
        wmap = {e: rng.randint(-big_m, big_m) for e in edge_list}
        if plant_clique:
            clique_edges = [
                (planted[a], planted[b]) for a in range(k) for b in range(a + 1, k)
            ]
            values = _constrained_sum_sample(rng, len(clique_edges), -big_m, big_m, t)
            for e, val in zip(clique_edges, values):
                wmap[e] = val
        return WeightedGraph(
            n=n, edges=edge_list, k=k,
            node_weights=None,
            edge_weights=tuple((u, v, wmap[(u, v)]) for u, v in edge_list),
            weight_bound=big_m, target=t,
        )
    raise ParameterError(f"unknown weight kind {weights!r}")


# ---------------------------------------------------------------------------
# reduction registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionSpec:
    name: str
    source: str  # ksum | vectorsum | clique | graph-node | graph-edge | targetsum | lindep
    target: str
    equivalence: str  # "iff" or "completeness"
    reduce: Callable[[Any, dict[str, Any]], ReducedCollection]


def _single_item_collection(name: str, source: Any, inst: Any, params: dict[str, Any],
                            decode: Callable[[int, tuple[int, ...]], tuple[int, ...]] | None = None) -> ReducedCollection:
    return ReducedCollection(name, params=params, items=(ReducedItem(inst, {}),), source=source, decode=decode)


def _reduce_ksum_to_vectorsum(inst: KSumInstance, params: dict[str, Any]) -> ReducedCollection:
    d = int(params.get("d", 1))
    p = params.get("p")
    p = fwd.choose_radix(inst.k, max(inst.bounds[1], 0), d) if p is None else int(p)
    return fwd.ksum_to_vectorsum(inst, p, d)


def _reduce_nodeweight_to_edgeweight(inst: WeightedGraph, params: dict[str, Any]) -> ReducedCollection:
    p = params.get("p")
    d = int(params.get("d", 1))
    return fwd.nodeweight_to_edgeweight(inst, p=None if p is None else int(p), d=d)


def _reduce_smallksum_to_kclique(inst: KSumInstance, params: dict[str, Any]) -> ReducedCollection:
    f_exp = int(params.get("f_exp", 2))
    result = fwd.smallksum_to_kclique(inst, f_exp, alpha_mode=params.get("alpha_mode", "present"))
    return _single_item_collection("smallksum_to_kclique", inst, result.instance, dict(result.params),
                                   decode=lambda _, w: fwd.lift_pipeline_witness(result, w))


def _reduce_clique_to_vectorsum(inst: CliqueInstance, params: dict[str, Any]) -> ReducedCollection:
    return _single_item_collection("clique_to_vectorsum", inst, bwd.clique_to_vectorsum(inst), {},
                                   decode=lambda _, w: bwd.lift_vectorsum_witness_to_clique(inst, w))


def _reduce_kclique_to_ksum(inst: CliqueInstance, params: dict[str, Any]) -> ReducedCollection:
    mode = params.get("radix_mode", "uniform")
    return _single_item_collection("kclique_to_ksum", inst, bwd.kclique_to_ksum(inst, radix_mode=mode),
                                   {"radix_mode": mode},
                                   decode=lambda _, w: bwd.lift_ksum_witness_to_clique(inst, w, radix_mode=mode))


def _reduce_ksum_to_targetsum(inst: KSumInstance, params: dict[str, Any]) -> ReducedCollection:
    out = fieldapps.ksum_to_targetsum(inst)
    return _single_item_collection("ksum_to_targetsum", inst, out, {"q": str(out.q)})


REDUCTIONS: dict[str, ReductionSpec] = {
    spec.name: spec
    for spec in (
        ReductionSpec("ksum_to_vectorsum", "ksum", "vectorsum", "iff", _reduce_ksum_to_vectorsum),
        ReductionSpec("nodeweight_to_edgeweight", "graph-node", "graph-edge", "iff", _reduce_nodeweight_to_edgeweight),
        ReductionSpec("edgeweight_to_unweighted", "graph-edge", "clique", "iff", lambda inst, params:
                      fwd.edgeweight_to_unweighted(inst, alpha_mode=params.get("alpha_mode", "full"))),
        ReductionSpec("smallksum_to_kclique", "ksum", "clique", "iff", _reduce_smallksum_to_kclique),
        ReductionSpec("clique_to_vectorsum", "clique", "vectorsum", "iff", _reduce_clique_to_vectorsum),
        ReductionSpec("vectorsum_to_ksum", "vectorsum", "ksum", "iff", lambda inst, params:
                      _single_item_collection("vectorsum_to_ksum", inst, bwd.vectorsum_to_ksum(inst), {})),
        ReductionSpec("kclique_to_ksum", "clique", "ksum", "iff", _reduce_kclique_to_ksum),
        ReductionSpec("ksum_mod_reduce", "ksum", "ksum", "completeness", lambda inst, params:
                      modprime.ksum_mod_reduce(inst, int(params.get("confidence", 100)), int(params.get("seed", 0)))),
        ReductionSpec("targetsum_to_ksum", "targetsum", "ksum", "iff", lambda inst, params:
                      fieldapps.targetsum_to_ksum(inst)),
        ReductionSpec("ksum_to_targetsum", "ksum", "targetsum", "iff", _reduce_ksum_to_targetsum),
        ReductionSpec("lindep_to_vectorsum", "lindep", "vectorsum", "iff", lambda inst, params:
                      fieldapps.lindep_to_vectorsum(inst)),
    )
}


def solve_auto(inst: Any) -> SolverReport:
    """Exact oracle for any instance kind: the first solver its kind lists in
    KIND_SOLVERS, a brute-force search throughout."""
    names = KIND_SOLVERS.get(inst.kind)
    if names is None:
        raise ParameterError(f"no oracle for {type(inst).__name__}")
    return SOLVERS[names[0]](inst)


SOLVERS: dict[str, Callable[..., SolverReport]] = {
    "auto": solve_auto,
    "ksum-brute": solve_ksum_bruteforce,
    "ksum-mim": solve_ksum_mim,
    "vectorsum-brute": solve_vectorsum_bruteforce,
    "clique-brute": solve_kclique_bruteforce,
    "triangle-naive-mm": lambda inst: detect_triangle(inst, backend="naive-mm"),
    "triangle-degree-split": lambda inst: detect_triangle(inst, backend="degree-split"),
    "nw-triangle": solve_nw_triangle,
    "nw-clique": solve_nw_kclique,
    "targetsum-brute": fieldapps.solve_targetsum_bruteforce,
    "lindep-brute": fieldapps.solve_lindep_bruteforce,
}

# Each instance kind and the solvers that take it; the first is the kind's
# exact oracle, which "auto" runs. "auto" takes every kind listed here.
KIND_SOLVERS: dict[str, tuple[str, ...]] = {
    "ksum": ("ksum-brute", "ksum-mim"),
    "vectorsum": ("vectorsum-brute",),
    "clique": ("clique-brute", "triangle-naive-mm", "triangle-degree-split"),
    "graph-node": ("clique-brute", "nw-triangle", "nw-clique"),
    "graph-edge": ("clique-brute",),
    "targetsum": ("targetsum-brute",),
    "lindep": ("lindep-brute",),
}


# ---------------------------------------------------------------------------
# experiment harness
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Seeded equivalence experiment over a registered reduction chain."""

    trials: int
    seed: int
    n_range: tuple[int, int]
    k_range: tuple[int, int]
    m_range: tuple[int, int]
    chain: tuple[str, ...]
    oracle: str = "auto"
    source: str = "ksum"
    report: str | None = None
    params: dict[str, Any] = field(default_factory=dict)
    source_instance: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        for what, (lo, hi) in (("n_range", self.n_range), ("k_range", self.k_range), ("m_range", self.m_range)):
            if lo > hi:
                raise ParameterError(f"{what} low {lo} exceeds high {hi}")
        for name in self.chain:
            if not isinstance(name, str) or name not in REDUCTIONS:
                raise ParameterError(f"unknown reduction {name!r} in chain")
        if not isinstance(self.oracle, str) or self.oracle not in SOLVERS:
            raise ParameterError(f"unknown oracle {self.oracle!r}")
        if not isinstance(self.params, dict):
            raise ParameterError("params must be a JSON object")
        if self.source_instance is not None and not isinstance(self.source_instance, dict):
            raise ParameterError("source_instance must be a JSON object")
        if self.report is not None and not isinstance(self.report, str):
            raise ParameterError("report must be a file name")
        if not isinstance(self.source, str):
            raise ParameterError("source must be an instance kind name")
        kind = self.source if self.source_instance is None else parse_instance_dict(dict(self.source_instance)).kind
        if self.oracle != "auto" and self.oracle not in KIND_SOLVERS.get(kind, ()):
            raise ParameterError(f"oracle {self.oracle!r} does not take a {kind} instance")
        for name in self.chain:
            spec = REDUCTIONS[name]
            if spec.source != kind:
                raise ParameterError(f"reduction {name!r} expects a {spec.source} instance, got {kind}")
            kind = spec.target

    @classmethod
    def from_json(cls, obj: Any) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ParameterError(f"a config must be a JSON object, got {type(obj).__name__}")
        return cls(
            trials=_as_int(obj.get("trials", 1), "trials"),
            seed=_as_int(obj.get("seed", 0), "seed"),
            n_range=_as_pair(obj.get("n_range", [4, 8]), "n_range"),
            k_range=_as_pair(obj.get("k_range", [2, 3]), "k_range"),
            m_range=_as_pair(obj.get("m_range", [0, 20]), "m_range"),
            chain=tuple(_as_list(obj.get("chain", []), "chain")),
            oracle=obj.get("oracle", "auto"),
            source=obj.get("source", "ksum"),
            report=obj.get("report"),
            params=obj.get("params", {}),
            source_instance=obj.get("source_instance"),
        )

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "trials": self.trials,
            "seed": self.seed,
            "n_range": list(self.n_range),
            "k_range": list(self.k_range),
            "m_range": list(self.m_range),
            "chain": list(self.chain),
            "oracle": self.oracle,
            "source": self.source,
            "params": self.params,
        }
        if self.report is not None:
            out["report"] = self.report
        if self.source_instance is not None:
            out["source_instance"] = self.source_instance
        return out


def _gen_source(cfg: ExperimentConfig, rng: random.Random) -> Any:
    n = rng.randint(*cfg.n_range)
    k = min(rng.randint(*cfg.k_range), n)
    big_m = rng.randint(*cfg.m_range)
    seed = rng.getrandbits(48)
    plant = rng.random() < 0.5
    if cfg.source == "ksum":
        return gen_random_ksum(n, k, big_m, plant=plant, seed=seed)
    if cfg.source == "clique":
        return gen_random_graph(n, rng.uniform(0.2, 0.9), k, plant_clique=plant, seed=seed)
    if cfg.source == "graph-node":
        return gen_random_graph(
            n, rng.uniform(0.3, 0.9), k, plant_clique=plant,
            weights="node", big_m=big_m, seed=seed,
        )
    if cfg.source == "graph-edge":
        return gen_random_graph(
            n, rng.uniform(0.3, 0.9), k, plant_clique=plant,
            weights="edge", big_m=big_m, seed=seed,
        )
    if cfg.source == "targetsum":
        q = big_m + 2
        elements = tuple(rng.randrange(q) for _ in range(n))
        if plant and n >= k:
            target = sum(rng.sample(list(elements), k)) % q
        else:
            target = rng.randrange(q)
        return fieldapps.TargetSumInstance(q=q, elements=elements, k=k, target=target)
    if cfg.source == "lindep":
        q = rng.choice([2, 3, 5])
        dim = rng.randint(1, 3)
        k = min(k, n)
        vectors = tuple(tuple(rng.randrange(q) for _ in range(dim)) for _ in range(n))
        if plant and n >= k:
            chosen = rng.sample(range(n), k)
            target = [0] * dim
            for i in chosen:
                c = rng.randrange(q)
                for j in range(dim):
                    target[j] = (target[j] + c * vectors[i][j]) % q
            target = tuple(target)
        else:
            target = tuple(rng.randrange(q) for _ in range(dim))
        return fieldapps.LinDepInstance(q=q, n=dim, vectors=vectors, k=k, target=target)
    raise ParameterError(f"unknown source kind {cfg.source!r}")


def _apply_chain(
    source: Any, chain: tuple[str, ...], params: dict[str, Any],
) -> list[tuple[Any, list[tuple[ReducedCollection, int]]]]:
    """Run the chain, fanning out over collection items. Returns leaf
    instances paired with their lift path (collection, item index) bottom-up."""
    frontier: list[tuple[Any, list[tuple[ReducedCollection, int]]]] = [(source, [])]
    for name in chain:
        spec = REDUCTIONS[name]
        next_frontier = []
        for inst, path in frontier:
            if inst.kind != spec.source:
                raise ParameterError(f"reduction {name!r} expects a {spec.source} instance, got {inst.kind}")
            coll = spec.reduce(inst, params)
            for idx, item in enumerate(coll.items):
                next_frontier.append((item.instance, path + [(coll, idx)]))
        frontier = next_frontier
    return frontier


def _lift_through(path: list[tuple[ReducedCollection, int]], witness: tuple[int, ...]) -> tuple[int, ...]:
    """Compose per-step lifts from leaf back to the source."""
    for coll, idx in reversed(path):
        witness = coll.lift(idx, witness)
    return witness


def run_equivalence_experiment(cfg: ExperimentConfig) -> dict[str, Any]:
    """Per trial: generate a source, push it through the chain, compare the
    oracle's verdict on the source against the OR over the leaves, and lift
    one witness per solvable trial. One-sided chains check completeness only.
    """
    oracle = SOLVERS[cfg.oracle]
    one_sided = any(REDUCTIONS[name].equivalence == "completeness" for name in cfg.chain)
    failures: list[dict[str, Any]] = []
    passes = 0
    leaf_counts: list[int] = []
    max_weight = 0
    for trial in range(cfg.trials):
        rng = random.Random(f"{cfg.seed}:{trial}")
        if cfg.source_instance is not None:
            source = parse_instance_dict(dict(cfg.source_instance))
        else:
            source = _gen_source(cfg, rng)
        params = dict(cfg.params)
        if "seed" not in params:
            params["seed"] = rng.getrandbits(32)
        failure: dict[str, Any] | None = None
        leaves = None
        try:
            leaves = _apply_chain(source, cfg.chain, params)
            leaf_counts.append(len(leaves))
            for inst, _ in leaves:
                if isinstance(inst, WeightedGraph):
                    max_weight = max(max_weight, inst.weight_bound)
            src_report = oracle(source)
            reduced_solvable = False
            lifted_ok = True
            for inst, path in leaves:
                rep = solve_auto(inst)
                if rep.solvable:
                    reduced_solvable = True
                    # a one-sided step's witnesses need not lift, so its chains skip the lift
                    if not one_sided and not verify_witness(source, _lift_through(path, rep.witness)):
                        lifted_ok = False
                    break
            if not lifted_ok:
                failure = {"reason": "witness lift failed"}
            elif one_sided:
                if src_report.solvable and not reduced_solvable:
                    failure = {"reason": "completeness violated"}
            elif src_report.solvable != reduced_solvable:
                failure = {
                    "reason": "solvability mismatch",
                    "source_solvable": src_report.solvable,
                    "reduced_solvable": reduced_solvable,
                }
        except (MalformedWitnessError, ParameterError, ResourceBudgetError, ValidationError) as exc:
            if leaves is None and isinstance(exc, ParameterError):
                raise  # a reduction rejects a source the config generates: the config is at fault
            failure = {"reason": f"{type(exc).__name__}: {exc}"}
        if failure is None:
            passes += 1
        else:
            failure["trial"] = trial
            failure["source"] = json.loads(serialize_instance(source))
            failures.append(failure)
    report: dict[str, Any] = {
        "config": cfg.to_json_dict(),
        "trials": cfg.trials,
        "passes": passes,
        "failures": failures,
        "stats": {
            "total_leaf_instances": sum(leaf_counts),
            "max_leaf_instances": max(leaf_counts, default=0),
            "max_weight_bound": str(max_weight),
        },
    }
    return report


def _write_repro_bundle(cfg: ExperimentConfig, failure: dict[str, Any], path: Path) -> None:
    bundle = cfg.to_json_dict()
    bundle["trials"] = 1
    bundle["source_instance"] = failure["source"]
    bundle.pop("report", None)
    path.write_bytes(_json_bytes(bundle))


def _json_bytes(obj: Any) -> bytes:
    return (json.dumps(obj, separators=(",", ":"), ensure_ascii=True) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _read_bytes(path: str | None) -> bytes:
    return sys.stdin.buffer.read() if path in (None, "-") else Path(path).read_bytes()


def _emit(data: bytes, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(out).write_bytes(data)


def cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "ksum":
        inst = gen_random_ksum(
            args.n, args.k, args.M,
            plant=args.plant, seed=args.seed, target=args.target,
        )
    else:
        inst = gen_random_graph(
            args.n, args.edge_prob, args.k,
            plant_clique=args.plant, weights=args.weights,
            big_m=args.M, seed=args.seed, target=args.target,
        )
    _emit(serialize_instance(inst) + b"\n", args.out)
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    inst = parse_instance(_read_bytes(getattr(args, "in")))
    kind = inst.kind
    name = args.via
    if name is None:
        src = getattr(args, "from") or kind
        matches = [
            s.name
            for s in REDUCTIONS.values()
            if s.source == src and (args.to is None or s.target == args.to)
        ]
        if len(matches) != 1:
            print(
                f"ambiguous or missing reduction for {src!r} -> {args.to or '*'!r}; "
                f"use --via with one of: {', '.join(sorted(matches or REDUCTIONS)) }",
                file=sys.stderr,
            )
            return 2
        name = matches[0]
    spec = REDUCTIONS.get(name)
    if spec is None:
        print(f"unknown reduction {name!r}", file=sys.stderr)
        return 2
    if spec.source != kind:
        print(f"reduction {name!r} expects {spec.source}, got {kind}", file=sys.stderr)
        return 2
    if args.to is not None and spec.target != args.to:
        print(f"reduction {name!r} produces {spec.target}, not {args.to}", file=sys.stderr)
        return 2
    params: dict[str, Any] = {}
    for key in ("p", "d", "f_exp", "confidence", "seed"):
        val = getattr(args, key if key != "f_exp" else "f_exponent", None)
        if val is not None:
            params[key] = val
    if args.alpha_mode is not None:
        params["alpha_mode"] = args.alpha_mode
    if args.radix_mode is not None:
        params["radix_mode"] = args.radix_mode
    _emit(serialize_collection(spec.reduce(inst, params)), args.out)
    return 0


def _is_collection(data: bytes) -> bool:
    """Whether the first line is a collection's meta line."""
    try:
        head = json.loads(data.split(b"\n", 1)[0])
    except (json.JSONDecodeError, UnicodeDecodeError):
        return False
    return isinstance(head, dict) and "meta" in head


def cmd_solve(args: argparse.Namespace) -> int:
    """Solve one instance, or the items of a reduced collection in order up
    to the first solvable one, whose index the report adds as "item"."""
    data = _read_bytes(getattr(args, "in"))
    coll = parse_collection(data) if _is_collection(data) else None
    insts = [parse_instance(data)] if coll is None else coll.instances()
    solver = SOLVERS.get(args.solver)
    if solver is None:
        print(f"unknown solver {args.solver!r}", file=sys.stderr)
        return 2
    report, item, wall_time_s = SolverReport(False, None), None, 0.0
    for idx, inst in enumerate(insts):
        if args.solver != "auto" and args.solver not in KIND_SOLVERS.get(inst.kind, ()):
            print(f"solver {args.solver!r} does not take a {inst.kind} instance", file=sys.stderr)
            return 2
        start = time.perf_counter()
        report = solver(inst)
        wall_time_s = time.perf_counter() - start
        if report.solvable:
            item = idx
            break
    out = report.to_json_dict()
    if args.timing:
        out["stats"]["wall_time_s"] = wall_time_s
    if coll is not None:
        out["item"] = item
    _emit(_json_bytes(out), args.out)
    return 0 if report.solvable else 1


def cmd_verify(args: argparse.Namespace) -> int:
    inst = parse_instance(_read_bytes(getattr(args, "in")))
    try:
        witness = witness_tuple(inst, [int(x) for x in args.witness.split(",") if x.strip()])
    except (MalformedWitnessError, ValueError) as exc:
        print(f"malformed witness: {exc}", file=sys.stderr)
        return 2
    ok = verify_witness(inst, witness)
    _emit(_json_bytes({"verified": ok, "witness": list(witness)}), args.out)
    return 0 if ok else 1


def cmd_experiment(args: argparse.Namespace) -> int:
    try:
        cfg = ExperimentConfig.from_json(json.loads(Path(args.config).read_text(encoding="utf-8")))
        if args.seed is not None:
            cfg.seed = args.seed
        report = run_equivalence_experiment(cfg)
    except (OSError, json.JSONDecodeError, ParameterError, ValidationError) as exc:
        print(f"bad experiment config: {exc}", file=sys.stderr)
        return 2
    payload = _json_bytes(report)
    if cfg.report:
        Path(cfg.report).write_bytes(payload)
    _emit(payload, args.out)
    if report["failures"]:
        stem = cfg.report or (args.out if args.out not in (None, "-") else "experiment")
        bundle_path = Path(stem).with_suffix(".repro.json")
        _write_repro_bundle(cfg, report["failures"][0], bundle_path)
        print(f"equivalence failure; repro bundle at {bundle_path}", file=sys.stderr)
        return 3
    return 0


def cmd_subsetsum(args: argparse.Namespace) -> int:
    inst = parse_instance(_read_bytes(getattr(args, "in")))
    if not isinstance(inst, KSumInstance):
        print("subsetsum-mode needs a ksum instance (its k is ignored)", file=sys.stderr)
        return 2
    n = inst.n
    t = inst.target
    bound = max(inst.numbers, default=0)
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    any_solvable = t == 0  # the empty subset, outside the k >= 1 loop
    lines.append({"k": 0, "solvable": t == 0, "note": "empty subset"})
    for k in range(1, n + 1):
        if not 0 <= t <= k * bound:
            lines.append({"k": k, "solvable": False, "note": "target outside range"})
            continue
        sized = KSumInstance(k=k, numbers=inst.numbers, target=t, bounds=inst.bounds)
        if k >= 2:
            d = fwd.pipeline_dimension(n)
            p = fwd.pipeline_radix(n, k, bound, args.f_exponent, d)
            nw = fwd.ksum_as_nodeweight_clique(sized)
            coll = fwd.nodeweight_to_edgeweight(nw, p=p, d=d)
            if out_dir is not None:
                (out_dir / f"edgeweight_k{k}.jsonl").write_bytes(serialize_collection(coll))
            solvable = False
            for item in coll.items:
                if solve_kclique_bruteforce(item.instance).solvable:
                    solvable = True
                    break
            lines.append({"k": k, "solvable": solvable, "instances": len(coll.items)})
        else:
            solvable = solve_ksum_bruteforce(sized).solvable
            lines.append({"k": k, "solvable": solvable})
        any_solvable = any_solvable or solvable
    _emit(b"".join(_json_bytes(ln) for ln in lines), args.report)
    return 0 if any_solvable else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksumclique",
        description="Reductions between k-SUM and exact-weight clique problems, with solvers and experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("kind", choices=["ksum", "graph"])
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--M", type=int, default=10, help="weight/number magnitude bound")
    p_gen.add_argument("--edge-prob", type=float, default=0.5)
    p_gen.add_argument("--plant", action="store_true", help="plant a solution")
    p_gen.add_argument("--weights", choices=["none", "node", "edge"], default="none")
    p_gen.add_argument("--target", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen)

    kinds = sorted({s.source for s in REDUCTIONS.values()} | {s.target for s in REDUCTIONS.values()})
    p_red = sub.add_parser("reduce", help="apply a registered reduction")
    p_red.add_argument("--in", default=None, help="instance file (default stdin)")
    p_red.add_argument("--from", choices=kinds, default=None, help="source instance kind")
    p_red.add_argument("--to", choices=kinds, default=None, help="target instance kind")
    p_red.add_argument("--via", default=None, help="reduction name")
    p_red.add_argument("--p", type=int, default=None)
    p_red.add_argument("--d", type=int, default=None)
    p_red.add_argument("--f-exponent", type=int, default=None)
    p_red.add_argument("--confidence", type=int, default=None)
    p_red.add_argument("--seed", type=int, default=None)
    p_red.add_argument("--alpha-mode", choices=["full", "present"], default=None)
    p_red.add_argument("--radix-mode", choices=["uniform", "mixed"], default=None)
    p_red.add_argument("--out", default=None)
    p_red.set_defaults(func=cmd_reduce)

    p_solve = sub.add_parser("solve", help="run an exact solver")
    p_solve.add_argument("--in", default=None)
    p_solve.add_argument("--solver", default="auto", choices=sorted(SOLVERS))
    p_solve.add_argument("--timing", action="store_true", help="add the wall time of the reported solver call to its stats")
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_ver = sub.add_parser("verify", help="check a witness against an instance")
    p_ver.add_argument("--in", default=None)
    p_ver.add_argument("--witness", required=True, help="comma-separated indices/vertices")
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser("experiment", help="run a seeded equivalence experiment")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(func=cmd_experiment)

    p_sub = sub.add_parser(
        "subsetsum-mode",
        help="loop the clique pipeline over every subset size k = 1..n",
    )
    p_sub.add_argument("--in", default=None)
    p_sub.add_argument("--f-exponent", type=int, default=2)
    p_sub.add_argument("--out", default=None, help="directory for generated edge-weight collections")
    p_sub.add_argument("--report", default=None, help="report file (default stdout)")
    p_sub.set_defaults(func=cmd_subsetsum)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ParameterError, ValidationError, ResourceBudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
