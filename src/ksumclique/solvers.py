"""Exact solvers and oracles for every instance type in the toolkit.

All solvers return a SolverReport with a verifying witness when solvable and
deterministic work counters. Brute-force solvers return the lexicographically
smallest witness; the other exact solvers return a deterministic one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations, compress, count, islice
from typing import Any, Callable, Iterable, Iterator

from .instances import (
    CliqueInstance,
    KSumInstance,
    ParameterError,
    ResourceBudgetError,
    ValidationError,
    VectorSumInstance,
    WeightedGraph,
    verify_witness,
)
from .reduce_sum_to_clique import (
    build_alpha_instance,
    consistent_alpha_tuples,
    nodeweight_to_edgeweight,
    strip_slot_witness,
)

DEFAULT_BUDGET = 20_000_000


@dataclass
class SolverReport:
    """Outcome of one solver run: answer, witness and work counters."""

    solvable: bool
    witness: tuple[int, ...] | None
    stats: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.solvable != (self.witness is not None):
            raise ValidationError("witness must be present exactly when solvable")

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "solvable": self.solvable,
            "witness": list(self.witness) if self.witness is not None else None,
            "stats": dict(self.stats),
        }


def _guard_combinations(n: int, k: int, budget: int) -> None:
    if k <= n and math.comb(n, k) > budget:
        raise ResourceBudgetError(f"C({n},{k}) exceeds the work budget {budget}")


def solve_ksum_bruteforce(inst: KSumInstance, budget: int = DEFAULT_BUDGET) -> SolverReport:
    """Enumerate index k-subsets in lexicographic order; first hit wins."""
    n, k, t = inst.n, inst.k, inst.target
    candidates = 0
    witness = None
    if k <= n:
        _guard_combinations(n, k, budget)
        numbers = inst.numbers
        for combo in combinations(range(n), k):
            candidates += 1
            s = 0
            for i in combo:
                s += numbers[i]
            if s == t:
                witness = combo
                break
    return SolverReport(
        solvable=witness is not None,
        witness=witness,
        stats={"candidates": candidates},
    )


def _colex_sums(numbers: tuple[int, ...], m: int) -> list[int]:
    """Sums of the m-subsets of numbers in colex order (by largest index
    first): those of numbers[:c] are the first C(c, m)."""
    sums = [0]
    for size in range(1, m + 1):
        prev, sums = sums, []
        for j in range(size - 1, len(numbers)):
            sums.extend(map(numbers[j].__add__, prev[:math.comb(j, size - 1)]))
    return sums


def _first_match(flags: Iterable[bool]) -> int | None:
    """Position of the first true flag, scanned at C level."""
    return next(compress(count(), flags), None)


def _first_left(numbers: tuple[int, ...], a: int, need: int, stop: int) -> tuple[int, ...]:
    """First a-subset of range(stop) in (max index, lex) order whose numbers
    sum to need; the caller knows one exists."""
    for c in range(a - 1, stop):
        pos = _first_match(map((need - numbers[c]).__eq__, map(sum, combinations(numbers[:c], a - 1))))
        if pos is not None:
            return next(islice(combinations(range(c), a - 1), pos, None)) + (c,)
    raise ValidationError(f"no left half below index {stop} sums to {need}")


def solve_ksum_mim(inst: KSumInstance, budget: int = DEFAULT_BUDGET) -> SolverReport:
    """Meet in the middle with a table that grows as the probe needs it.

    The k chosen indices split into a left half of ceil(k/2) and a right half
    of floor(k/2) indices, joinable whenever max(left) < min(right). Right
    halves are probed in lexicographic order, grouped by their smallest index
    c0. Just before group c0 the left halves whose largest index is c0-1 add
    their sums to a set, so the set holds exactly the left halves that can
    precede the group and a probe is one membership test. Both blocks are
    slices of subset sums computed once: the (ceil(k/2)-1)-subsets in colex
    order and the (floor(k/2)-1)-subsets in lexicographic order. The witness
    is the first right half that hits, joined to the first left half in
    (max index, lex) order with the missing sum. Exact, deterministic, same
    answers as brute force.

    Stats: `probes` counts the right halves examined up to and including the
    hit (all C(n, floor(k/2)) when unsolvable); `table_size` counts the
    distinct left sums in the set when the search stops. For k = 1 the single
    probe is the empty right half, which every left half can join.
    """
    n, k, t = inst.n, inst.k, inst.target
    numbers = inst.numbers
    a = (k + 1) // 2
    b = k // 2
    if k > n:
        return SolverReport(False, None, {"table_size": 0, "probes": 0})
    _guard_combinations(n, a, budget)
    witness = None
    if b == 0:
        table = set(numbers)
        probes = 1
        if t in table:
            witness = (numbers.index(t),)
    else:
        heads = _colex_sums(numbers, a - 1)
        # lexicographic order is colex order of the reversed indices, reversed:
        # the subsets of numbers[s:] are the last C(n - s, b - 1)
        tails = _colex_sums(numbers[::-1], b - 1)[::-1]
        table = set()
        probes = 0
        for c0 in range(n - b + 1):
            if c0 >= a:
                table.update(map(numbers[c0 - 1].__add__, heads[:math.comb(c0 - 1, a - 1)]))
            group = math.comb(n - c0 - 1, b - 1)
            pos = None
            if table:
                pos = _first_match(map(table.__contains__, map((t - numbers[c0]).__sub__, tails[len(tails) - group:])))
            if pos is None:
                probes += group
                continue
            probes += pos + 1
            right = (c0,) + next(islice(combinations(range(c0 + 1, n), b - 1), pos, None))
            witness = _first_left(numbers, a, t - sum(numbers[i] for i in right), c0) + right
            break
    return SolverReport(
        solvable=witness is not None,
        witness=witness,
        stats={"table_size": len(table), "probes": probes},
    )


def solve_vectorsum_bruteforce(inst: VectorSumInstance, budget: int = DEFAULT_BUDGET) -> SolverReport:
    """Lexicographic subset scan; a target outside the k-fold entry range
    short-circuits to unsolvable with zero candidates examined."""
    n, k, dim = inst.n, inst.k, inst.dim
    candidates = 0
    witness = None
    if not inst.trivially_unsolvable and k <= n:
        _guard_combinations(n, k, budget)
        vectors = inst.vectors
        target = inst.target
        for combo in combinations(range(n), k):
            candidates += 1
            total = [0] * dim
            for i in combo:
                v = vectors[i]
                for j in range(dim):
                    total[j] += v[j]
            if tuple(total) == target:
                witness = combo
                break
    return SolverReport(
        solvable=witness is not None,
        witness=witness,
        stats={"candidates": candidates, "range_pruned": inst.trivially_unsolvable},
    )


def _kcliques(n: int, edges: tuple[tuple[int, int], ...], k: int, counter: list[int]) -> Iterator[tuple[int, ...]]:
    """Every k-clique (sorted vertex tuple) in lexicographic order, given
    normalized edges (sorted, u < v).

    Each top-level vertex v < n - k + 1 descends into its forward list, the
    sorted neighbours above v (Chiba-Nishizeki forward adjacency); deeper
    levels keep the candidates in the chosen vertex's forward set. counter[0]
    counts the nodes of a plain backtrack over all vertices: one per prefix
    vertex, one per clique. Top-level vertices with too few higher neighbours
    are counted in bulk, never visited.
    """
    forward: dict[int, list[int]] = {}
    for u, v in edges:
        forward.setdefault(u, []).append(v)
    fsets = {u: set(ws) for u, ws in forward.items()}

    def extend(partial: tuple[int, ...], cand: list[int]) -> Iterator[tuple[int, ...]]:
        need = k - len(partial)
        if need == 1:
            for w in cand:
                counter[0] += 2
                yield partial + (w,)
            return
        for idx in range(len(cand) - need + 1):
            counter[0] += 1
            fv = fsets.get(cand[idx], ())
            yield from extend(partial + (cand[idx],), [w for w in cand[idx + 1 :] if w in fv])

    if k == 1:
        yield from extend((), list(range(n)))
        return
    top = n - k + 1
    counted = 0
    for v, fwd in forward.items():
        if v >= top:
            break
        if len(fwd) >= k - 1:
            counter[0] += v + 1 - counted
            counted = v + 1
            yield from extend((v,), fwd)
    counter[0] += top - counted


def _guard_clique_search(n: int, k: int, edges: tuple[tuple[int, int], ...], budget: int) -> None:
    """Reject searches whose cheapest work bound exceeds the budget: C(n,k)
    for dense graphs, n * (maxdeg)^(k-1) for sparse ones."""
    maxdeg = max(Counter(chain.from_iterable(edges)).values(), default=0)
    sparse = n * max(1, maxdeg) ** (k - 1)
    if min(math.comb(n, k), sparse) > budget:
        raise ResourceBudgetError(f"k-clique search on n={n}, k={k} exceeds the work budget {budget}")


def solve_kclique_bruteforce(inst: CliqueInstance | WeightedGraph, budget: int = DEFAULT_BUDGET) -> SolverReport:
    """Exact k-clique search honoring the node- or edge-weight target of a
    weighted graph.

    Returns the lexicographically smallest clique that meets the target. The
    forward-adjacency search costs O(n + m) plus the work inside forward
    neighbourhoods, while ``nodes_expanded`` counts the nodes of a plain
    backtrack over all vertices in sorted order, so neither the witness nor
    the counter depends on the search's shortcuts. The guard bounds the work
    by min(C(n,k), n * maxdeg^(k-1)).
    """
    n, k = inst.n, inst.k
    witness = None
    counter = [0]
    if k <= n:
        _guard_clique_search(n, k, inst.edges, budget)
        accept: Callable[[tuple[int, ...]], bool] | None = None
        if isinstance(inst, WeightedGraph):
            goal = inst.target
            if inst.node_weights is not None:
                weights = inst.node_weights

                def accept(chosen: tuple[int, ...]) -> bool:
                    return sum(weights[v] for v in chosen) == goal

            else:
                wmap = inst.edge_weight_map()

                def accept(chosen: tuple[int, ...]) -> bool:
                    total = 0
                    for a in range(len(chosen)):
                        for b in range(a + 1, len(chosen)):
                            total += wmap[(chosen[a], chosen[b])]
                    return total == goal

        cliques = _kcliques(n, inst.edges, k, counter)
        witness = next(cliques if accept is None else filter(accept, cliques), None)
    return SolverReport(
        solvable=witness is not None,
        witness=witness,
        stats={"nodes_expanded": counter[0]},
    )


# ---------------------------------------------------------------------------
# triangle detection
# ---------------------------------------------------------------------------

def _adjacency_masks(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _mask_bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _naive_mm_triangle(masks: list[int], order: Iterable[int], counter: list[int]) -> tuple[int, int, int] | None:
    """Boolean-square scan: common neighborhoods of adjacent pairs, ascending.

    ``order`` lists, ascending, the vertices that have a higher neighbour;
    the others contribute no pair."""
    for u in order:
        above_u = masks[u] >> (u + 1)
        for dv in _mask_bits(above_u):
            v = u + 1 + dv
            counter[0] += 1
            common = masks[u] & masks[v]
            common &= ~((1 << (v + 1)) - 1)
            if common:
                w = (common & -common).bit_length() - 1
                return (u, v, w)
    return None


def detect_triangle(
    inst: CliqueInstance,
    backend: str = "degree-split",
    delta: int | None = None,
) -> SolverReport:
    """Exact triangle detection (k = 3 only) with two cross-checkable backends.

    naive-mm intersects the boolean square of the adjacency structure with the
    adjacency itself. degree-split enumerates neighbor pairs of vertices of
    degree < delta (default ceil(sqrt(m))) and runs naive-mm on the remaining
    high-degree core; the low phase checks at most m*delta pairs and the core
    has at most 2m/delta vertices.

    Both backends visit only vertices that have edges, so on the sparse
    k-partite graphs of alpha stripping the cost follows m, not n. Isolated
    vertices add no pair and never join the core, so witnesses and counters
    are those of a scan over every vertex.
    """
    if inst.k != 3:
        raise ParameterError(f"triangle detection requires k=3, got k={inst.k}")
    n, m = inst.n, inst.m
    masks = _adjacency_masks(n, inst.edges)
    witness: tuple[int, int, int] | None = None
    stats: dict[str, Any] = {"backend": backend}
    if backend == "naive-mm":
        counter = [0]
        witness = _naive_mm_triangle(masks, dict.fromkeys(u for u, _ in inst.edges), counter)
        stats["pairs_checked"] = counter[0]
    elif backend == "degree-split":
        d = delta if delta is not None else max(1, math.isqrt(m) + (0 if math.isqrt(m) ** 2 == m else 1))
        if d < 1:
            raise ParameterError(f"degree threshold must be >= 1, got {d}")
        touched = sorted(set(chain.from_iterable(inst.edges)))
        degrees = {v: masks[v].bit_count() for v in touched}
        low_pairs = 0
        for v in touched:
            if degrees[v] >= d:
                continue
            neigh = list(_mask_bits(masks[v]))
            for i in range(len(neigh)):
                a = neigh[i]
                for j in range(i + 1, len(neigh)):
                    b = neigh[j]
                    low_pairs += 1
                    if masks[a] >> b & 1:
                        witness = tuple(sorted((v, a, b)))
                        break
                if witness is not None:
                    break
            if witness is not None:
                break
        core = [v for v in touched if degrees[v] >= d]
        stats["delta"] = d
        stats["low_pairs"] = low_pairs
        stats["core_size"] = len(core)
        if low_pairs > m * d or d * len(core) > 2 * m:
            raise ValidationError(f"degree split broke its bounds: {low_pairs} pairs, core {len(core)}, m={m}, delta={d}")
        if witness is None and core:
            index = {v: i for i, v in enumerate(core)}
            core_masks = [0] * len(core)
            for i, v in enumerate(core):
                rest = masks[v]
                acc = 0
                for w in _mask_bits(rest):
                    j = index.get(w)
                    if j is not None:
                        acc |= 1 << j
                core_masks[i] = acc
            counter = [0]
            order = [i for i, mask in enumerate(core_masks) if mask >> (i + 1)]
            found = _naive_mm_triangle(core_masks, order, counter)
            stats["core_pairs_checked"] = counter[0]
            if found is not None:
                witness = tuple(sorted(core[i] for i in found))
    else:
        raise ParameterError(f"unknown triangle backend {backend!r}")
    return SolverReport(solvable=witness is not None, witness=witness, stats=stats)


# ---------------------------------------------------------------------------
# node-weight clique via the squaring reduction
# ---------------------------------------------------------------------------

def _nw_pipeline(
    graph: WeightedGraph,
    solve_unweighted: Callable[[CliqueInstance], SolverReport],
    d: int = 1,
) -> SolverReport:
    """Shared engine: shift weights, square-trick edge weights per carry
    (nodeweight_to_edgeweight), strip weights per slot-consistent alpha
    profile, then call the unweighted backend on each alpha graph in turn,
    stop at the first hit and lift it with strip_slot_witness. The shifted
    graph and every carry graph are reweighted copies of the input
    (WeightedGraph._reweighted), so its edges are normalized only once.

    consistent_alpha_tuples skips only alphas whose graphs hold no k-clique
    and keeps present-mode order, so the witness is the one a search over
    every present-mode alpha would find. Stats: `alphas` and
    `instances_generated` count the alpha graphs built and solved;
    `alpha_nodes` counts the search heads tried, summed over carries, which
    ALPHA_BUDGET bounds per carry.
    """
    if graph.node_weights is None:
        raise ParameterError("node-weighted graph required")
    k, n = graph.k, graph.n
    shift = graph.weight_bound if any(w < 0 for w in graph.node_weights) else 0
    stats: dict[str, Any] = {"shift": shift, "instances_generated": 0, "alphas": 0, "alpha_nodes": 0}
    coll = None
    if k <= n:
        shifted = tuple(w + shift for w in graph.node_weights)
        coll = nodeweight_to_edgeweight(
            graph._reweighted(node_weights=shifted, weight_bound=max(shifted, default=0),
                              target=graph.target + k * shift),
            d=d,
        )
    if coll is None or coll.params.get("range_pruned"):
        stats["range_pruned"] = True
        return SolverReport(False, None, stats)
    stats["p"] = coll.params["p"]
    stats["d"] = d
    stats["carries"] = len(coll.items)
    witness = None
    nodes = [0]
    for item in coll.items:
        ew_graph = item.instance
        for alpha in consistent_alpha_tuples(ew_graph, k, counter=nodes):
            stats["alphas"] += 1
            g_alpha = build_alpha_instance(ew_graph, k, alpha)
            if g_alpha.m > k * k * ew_graph.m:
                raise ValidationError(f"alpha instance has {g_alpha.m} edges, above k^2 * {ew_graph.m}")
            stats["instances_generated"] += 1
            report = solve_unweighted(g_alpha)
            if report.witness is not None:
                witness = strip_slot_witness(n, report.witness)
                if not verify_witness(graph, witness):  # pragma: no cover - soundness guard
                    raise ValidationError("pipeline produced a non-verifying witness")
                break
        if witness is not None:
            break
    stats["alpha_nodes"] = nodes[0]
    return SolverReport(solvable=witness is not None, witness=witness, stats=stats)


def solve_nw_triangle(graph: WeightedGraph, backend: str = "degree-split", d: int = 1) -> SolverReport:
    """Exact node-weight triangle via the edge-weight and weight-removal chain,
    running detect_triangle on each slot-consistent alpha graph until one
    holds a triangle."""
    if graph.k != 3:
        raise ParameterError(f"triangle pipeline requires k=3, got k={graph.k}")

    def backend_solve(g_alpha: CliqueInstance) -> SolverReport:
        return detect_triangle(g_alpha, backend=backend)

    report = _nw_pipeline(graph, backend_solve, d=d)
    report.stats["backend"] = backend
    return report


def solve_nw_kclique(graph: WeightedGraph, d: int = 1) -> SolverReport:
    """Exact node-weight k-clique; k = 2 degenerates to an edge scan."""
    k = graph.k
    if graph.node_weights is None:
        raise ParameterError("node-weighted graph required")
    if k < 2:
        raise ParameterError(f"clique pipeline requires k >= 2, got k={k}")
    if k == 2:
        weights = graph.node_weights
        witness = None
        scanned = 0
        for u, v in graph.edges:
            scanned += 1
            if weights[u] + weights[v] == graph.target:
                witness = (u, v)
                break
        return SolverReport(
            solvable=witness is not None,
            witness=witness,
            stats={"edges_scanned": scanned},
        )
    return _nw_pipeline(graph, solve_kclique_bruteforce, d=d)
