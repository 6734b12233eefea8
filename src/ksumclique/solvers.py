"""Exact solvers and oracles for every instance type in the toolkit.

All solvers return a SolverReport with a verifying witness when solvable and
deterministic work counters. Brute-force solvers return the lexicographically
smallest witness; the other exact solvers return a deterministic one.

The ksum, vectorsum and targetsum oracles are one lexicographic subset-sum
search (`_first_sum_subset`), which scans every k-subset when that is cheap
and otherwise meets in the middle, with the witness and the `candidates`
count of the scan either way; the lindep oracle, whose key is a span test and
not a sum, keeps the plain subset scan (`_first_subset`).

Every C-level pipeline passes its fixed operand through itertools.repeat to
an operator function (add, sub, eq, lt, mod, contains), never to a bound
method such as x.__add__, which CPython calls with a new argument tuple per
element.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain, combinations, compress, count, islice, repeat
from operator import add, contains, eq, itemgetter, lt, mod, mul, sub
from typing import Any, Callable, Iterable, Iterator, Sequence

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
    _pow_exceeds,
    _set_bits,
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


def _comb_exceeds(n: int, k: int, bound: int) -> bool:
    """C(n, k) > bound, for 0 <= k <= n. With j = min(k, n - k), C(n, k) >=
    (n/j)^j >= 2^j, so C(n, k) is built only for j below bound's bit length."""
    j = k if 2 * k <= n else n - k
    return j >= bound.bit_length() or math.comb(n, j) > bound


def _guard_combinations(n: int, k: int, budget: int) -> None:
    if k <= n and _comb_exceeds(n, k, budget):
        raise ResourceBudgetError(f"C({n},{k}) exceeds the work budget {budget}")


def _first_match(flags: Iterable[bool]) -> int | None:
    """Position of the first true flag, scanned at C level."""
    return next(compress(count(), flags), None)


def _first_subset(items: Sequence[Any], k: int, key: Callable[[tuple[Any, ...]], Any], goal: Any,
                  budget: int) -> SolverReport:
    """The lindep oracle's brute-force scan: the lexicographically first
    k-subset of items whose key equals goal, as an index tuple, compared at C level.
    `candidates` counts the subsets examined up to the hit, all C(n, k)
    when none hits."""
    n = len(items)
    if k > n:
        return SolverReport(False, None, {"candidates": 0})
    _guard_combinations(n, k, budget)
    pos = _first_match(map(eq, repeat(goal), map(key, combinations(items, k))))
    if pos is None:
        return SolverReport(False, None, {"candidates": math.comb(n, k)})
    return SolverReport(True, next(islice(combinations(range(n), k), pos, None)), {"candidates": pos + 1})


def _scan_is_cheaper(n: int, k: int) -> bool:
    """The cost rule: scan the C(n, k) subsets while that is at most twice
    the C(n, ceil(k/2)) + C(n, floor(k/2)) halves of a meet in the middle,
    as it is for every k below n = 10. C(n, floor(k/2)) <= C(n, ceil(k/2))
    for k <= n, so both halves are built only when they are at most C(n, k),
    which the guard bounded."""
    if n < 10:
        return True
    total, a = math.comb(n, k), (k + 1) // 2
    return _comb_exceeds(n, a, total) or total <= 2 * (math.comb(n, a) + math.comb(n, k // 2))


def _mod_sums(sums: Iterator[int], q: int | None) -> Iterator[int]:
    return sums if q is None else map(mod, sums, repeat(q))


def _scan_sums(values: Sequence[int], k: int, goal: int, q: int | None,
               start: int = 0) -> tuple[int, tuple[int, ...]] | None:
    """The first k-subset, in lex order, of the indices from start whose
    values sum (mod q) to goal, scanned at C level, with its position."""
    pos = _first_match(map(eq, repeat(goal), _mod_sums(map(sum, combinations(values[start:], k)), q)))
    return None if pos is None else (pos, next(islice(combinations(range(start, len(values)), k), pos, None)))


def _meet_sums(values: Sequence[int], k: int, goal: int, q: int | None) -> tuple[int, tuple[int, ...]] | None:
    """The first k-subset, in lex order, whose values sum (mod q) to goal,
    with its position, by a meet in the middle (Horowitz-Sahni 1974) that
    keeps lexicographic order.

    A k-subset splits into its first ceil(k/2) indices, the prefix, and the
    rest, the right half; lex order compares prefixes first. `reach` maps each
    right-half sum to the largest smallest index of a right half with that
    sum, so a prefix extends exactly when reach[goal - its sum] exceeds its
    last index. The first prefix that extends is the witness's, and one scan
    above its last index finds the first right half."""
    n = len(values)
    a, b = (k + 1) // 2, k // 2
    if b:
        # lex order writes the right halves of each sum by ascending smallest
        # index, so the last write is the largest
        sums = _mod_sums(map(sum, combinations(values, b)), q)
        reach = dict(zip(sums, map(itemgetter(0), combinations(range(n), b))))
    else:
        reach = {0: n}  # the empty right half follows every prefix
    needs = _mod_sums(map(sub, repeat(goal), map(sum, combinations(values, a))), q)
    lasts = map(itemgetter(-1), combinations(range(n), a))
    pos = _first_match(map(lt, lasts, map(reach.get, needs, repeat(-1))))
    if pos is None:
        return None
    prefix = next(islice(combinations(range(n), a), pos, None))
    need = goal - sum(values[i] for i in prefix)
    witness = prefix + _scan_sums(values, b, need if q is None else need % q, q, prefix[-1] + 1)[1]
    # its position in combinations(range(n), k)
    rank = math.comb(n, k) - 1 - sum(math.comb(n - 1 - x, k - i) for i, x in enumerate(witness))
    return rank, witness


def _first_sum_subset(values: Sequence[int], k: int, goal: int, q: int | None = None) -> SolverReport:
    """The lexicographically first k-subset of values whose sum, taken mod q
    when q is given (then 0 <= goal < q), equals goal, as an index tuple;
    witness, stats and refusals are those of _first_subset with key sum
    (mod q) and bound DEFAULT_BUDGET. The C(n, k) guard runs first; then
    the cost rule picks a C-level scan or the meet in the middle, and
    `candidates` is the witness's lex position + 1 either way, C(n, k) when
    none hits."""
    n = len(values)
    if k > n:
        return SolverReport(False, None, {"candidates": 0})
    _guard_combinations(n, k, DEFAULT_BUDGET)
    if _scan_is_cheaper(n, k):
        found = _scan_sums(values, k, goal, q)
    else:
        found = _meet_sums(values, k, goal, q)
    if found is None:
        return SolverReport(False, None, {"candidates": math.comb(n, k)})
    return SolverReport(True, found[1], {"candidates": found[0] + 1})


def solve_ksum_bruteforce(inst: KSumInstance) -> SolverReport:
    """The lexicographically first index k-subset that sums to the target."""
    return _first_sum_subset(inst.numbers, inst.k, inst.target)


def _colex_sums(numbers: tuple[int, ...], m: int) -> list[int]:
    """Sums of the m-subsets of numbers in colex order (by largest index
    first): those of numbers[:c] are the first C(c, m)."""
    sums = [0]
    for size in range(1, m + 1):
        prev, sums = sums, []
        for j in range(size - 1, len(numbers)):
            sums.extend(map(add, repeat(numbers[j]), prev[:math.comb(j, size - 1)]))
    return sums


def _first_left(numbers: tuple[int, ...], heads: list[int], a: int, need: int, stop: int) -> tuple[int, ...]:
    """First a-subset of range(stop) in (max index, lex) order whose numbers
    sum to need; the caller knows one exists. heads are the colex sums of the
    (a-1)-subsets, so a membership test in their first C(c, a-1) finds the
    max index c, and only that c is scanned in lexicographic order."""
    for c in range(a - 1, stop):
        rest = need - numbers[c]
        if rest in islice(heads, math.comb(c, a - 1)):
            pos = _first_match(map(eq, repeat(rest), map(sum, combinations(numbers[:c], a - 1))))
            return next(islice(combinations(range(c), a - 1), pos, None)) + (c,)
    raise ValidationError(f"no left half below index {stop} sums to {need}")


def _group_meets_table(table: set[int], sums: Iterable[int]) -> bool:
    """Some x + tail sum of the group is in table."""
    return not table.isdisjoint(sums)


def solve_ksum_mim(inst: KSumInstance) -> SolverReport:
    """Meet in the middle with a table that grows as the search needs it.

    The k chosen indices split into a left half of ceil(k/2) and a right half
    of floor(k/2) indices, joinable whenever max(left) < min(right). Right
    halves are taken in lexicographic order, grouped by their smallest index
    c0: the group is numbers[c0] plus each (floor(k/2)-1)-subset, a tail, of
    the indices above c0. Just before group c0 the left halves whose largest
    index is c0-1 add t - L, for their sum L, to a set, so the set holds the
    complements of exactly the left halves that can precede the group. Both
    blocks are slices of subset sums computed once: the (ceil(k/2)-1)-subsets
    in colex order and the tails in lexicographic order.

    A group whose sums cannot reach the set's range is skipped with neither
    test: its sums lie between numbers[c0] plus floor(k/2)-1 times the least
    and the greatest number above c0, and the set's extremes come from running
    extremes of the left sums. The set still grows at every c0, and a skipped
    group holds no hit, so the witness, `probes` and `table_size` are those
    without the skip. On packed k-Clique instances every group that starts at
    a vertex number overshoots the set and is skipped.

    Every other group is tested once, for disjointness of the set with
    numbers[c0] + each tail sum. Only the first group that hits is scanned
    in order for the first right half that hits. The witness is that right
    half joined to the first left half in (max index, lex) order with the
    missing sum. Exact, deterministic, same answers as brute force.

    Stats: `probes` counts the right halves in lexicographic order up to and
    including the hit (all C(n, floor(k/2)) when unsolvable), although only
    the hit group is looked at one by one; `table_size` counts the distinct
    left sums in the set when the search stops. For k = 1 the single probe
    is the empty right half, which every left half can join.
    """
    n, k, t = inst.n, inst.k, inst.target
    numbers = inst.numbers
    a = (k + 1) // 2
    b = k // 2
    if k > n:
        return SolverReport(False, None, {"table_size": 0, "probes": 0})
    _guard_combinations(n, a, DEFAULT_BUDGET)
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
        # the least and the greatest of numbers[s:], 0 past the end
        lows = [*accumulate(reversed(numbers), min)][::-1] + [0]
        highs = [*accumulate(reversed(numbers), max)][::-1] + [0]
        table = set()
        low_table, high_table = math.inf, -math.inf  # the table's extremes
        low_head = high_head = heads[0]  # the extremes of heads[:done]
        probes, done = 0, 1
        for c0 in range(n - b + 1):
            if c0 >= a:
                size = math.comb(c0 - 1, a - 1)
                if size > done:
                    fresh = heads[done:size]
                    low_head, high_head, done = min(low_head, min(fresh)), max(high_head, max(fresh)), size
                rest = t - numbers[c0 - 1]
                table.update(map(sub, repeat(rest), heads[:size]))
                low_table, high_table = min(low_table, rest - high_head), max(high_table, rest - low_head)
            group = math.comb(n - c0 - 1, b - 1)
            x = numbers[c0]
            if x + (b - 1) * lows[c0 + 1] > high_table or x + (b - 1) * highs[c0 + 1] < low_table:
                probes += group  # no sum of the group reaches the table, empty or not
                continue
            if not _group_meets_table(table, map(add, repeat(x), tails[len(tails) - group:])):
                probes += group
                continue
            pos = _first_match(map(contains, repeat(table), map(add, repeat(x), tails[len(tails) - group:])))
            probes += pos + 1
            right = (c0,) + next(islice(combinations(range(c0 + 1, n), b - 1), pos, None))
            witness = _first_left(numbers, heads, a, t - sum(numbers[i] for i in right), c0) + right
            break
    return SolverReport(
        solvable=witness is not None,
        witness=witness,
        stats={"table_size": len(table), "probes": probes},
    )


def solve_vectorsum_bruteforce(inst: VectorSumInstance) -> SolverReport:
    """The lexicographically first index k-subset whose vectors sum to the
    target; a target outside the k-fold entry range short-circuits to
    unsolvable with zero candidates examined.

    Each vector packs into the int sum(v[i] * r^i) with radix r = k(hi - lo)
    + 1. That is the packing of v - lo plus lo * sum(r^i), the same for every
    vector, and a sum of k shifted entries lies in [0, r), so k packed
    vectors sum to the packed target exactly when the vectors sum to it."""
    if inst.trivially_unsolvable:
        report = SolverReport(False, None, {"candidates": 0})
    else:
        vectors, k = inst.vectors, inst.k
        _guard_combinations(len(vectors), k, DEFAULT_BUDGET)  # before packing n vectors
        lo, hi = inst.entry_bounds
        radix = k * (hi - lo) + 1
        weights = [radix ** i for i in range(inst.dim)]
        packed = [sum(map(mul, v, weights)) for v in vectors]
        report = _first_sum_subset(packed, k, sum(map(mul, inst.target, weights)))
    report.stats["range_pruned"] = inst.trivially_unsolvable
    return report


def _kcliques(n: int, edges: tuple[tuple[int, int], ...], k: int, counter: list[int]) -> Iterator[tuple[int, ...]]:
    """Every k-clique (sorted vertex tuple) in lexicographic order, given
    normalized edges (sorted, u < v).

    Each top-level vertex v < n - k + 1 descends into its forward list, the
    sorted neighbours above v (Chiba-Nishizeki forward adjacency); deeper
    levels keep the candidates in the chosen vertex's forward set. counter[0]
    counts the nodes of a plain backtrack over all vertices: one per prefix
    vertex, one per clique. Top-level vertices with too few higher neighbours
    are counted in bulk, never visited. The search drops the nested
    recursion's reference to itself when it ends or is closed, so reference
    counting frees ``fsets`` at once.
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

    try:
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
    finally:
        del extend  # extend refers to itself; without this the cycle keeps fsets alive until the cyclic GC


def _guard_clique_search(n: int, k: int, edges: tuple[tuple[int, int], ...], budget: int) -> None:
    """Reject searches whose cheapest work bound exceeds the budget: C(v,k)
    for dense graphs, v * (maxdeg)^(k-1) for sparse ones, over the v vertices
    that have an edge (all n for k = 1), since no other vertex is visited."""
    degrees = Counter(chain.from_iterable(edges))
    v = n if k == 1 else len(degrees)
    if k > v:
        return
    maxdeg = max(degrees.values(), default=0)
    # v * x > budget exactly when x > budget // v, for integers x and v >= 1
    if _comb_exceeds(v, k, budget) and _pow_exceeds(max(1, maxdeg), k - 1, budget // v):
        raise ResourceBudgetError(f"k-clique search on n={n}, k={k} exceeds the work budget {budget}")


def solve_kclique_bruteforce(inst: CliqueInstance | WeightedGraph) -> SolverReport:
    """Exact k-clique search honoring the node- or edge-weight target of a
    weighted graph.

    Returns the lexicographically smallest clique that meets the target: the
    weights of its parts, its vertices or its vertex pairs, sum to it. The
    forward-adjacency search costs O(n + m) plus the work inside forward
    neighbourhoods, while ``nodes_expanded`` counts the nodes of a plain
    backtrack over all vertices in sorted order, so neither the witness nor
    the counter depends on the search's shortcuts. The guard bounds the work
    by min(C(v,k), v * maxdeg^(k-1)) over the v vertices that have an edge.
    """
    n, k = inst.n, inst.k
    witness = None
    counter = [0]
    if k <= n:
        _guard_clique_search(n, k, inst.edges, DEFAULT_BUDGET)
        cliques = _kcliques(n, inst.edges, k, counter)
        if isinstance(inst, WeightedGraph):
            if inst.node_weights is not None:
                weight, parts = inst.node_weights.__getitem__, tuple
            else:
                weight, parts = inst.edge_weight_map().__getitem__, lambda c: combinations(c, 2)
            goal = inst.target
            cliques = filter(lambda c: sum(map(weight, parts(c))) == goal, cliques)
        witness = next(cliques, None)
    return SolverReport(
        solvable=witness is not None,
        witness=witness,
        stats={"nodes_expanded": counter[0]},
    )


# ---------------------------------------------------------------------------
# triangle detection
# ---------------------------------------------------------------------------

def _adjacency_masks(edges: Sequence[tuple[int, int]]) -> list[int]:
    """Neighbour bitmasks of the vertices up to the largest endpoint; the
    vertices above it have no edges, and no backend reads their masks."""
    masks = [0] * (max((v for _, v in edges), default=-1) + 1)
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _naive_mm_triangle(masks: list[int], order: Iterable[int], counter: list[int]) -> tuple[int, int, int] | None:
    """Boolean-square scan: common neighborhoods of adjacent pairs, ascending.

    ``order`` lists, ascending, the vertices that have a higher neighbour;
    the others contribute no pair."""
    for u in order:
        above_u = masks[u] >> (u + 1)
        for dv in _set_bits(above_u):
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
    m = inst.m
    masks = _adjacency_masks(inst.edges)
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
        low = ((v, a, b) for v in touched if degrees[v] < d for a, b in combinations(_set_bits(masks[v]), 2))
        for v, a, b in low:
            low_pairs += 1
            if masks[a] >> b & 1:
                witness = tuple(sorted((v, a, b)))
                break
        core = [v for v in touched if degrees[v] >= d]
        stats["delta"] = d
        stats["low_pairs"] = low_pairs
        stats["core_size"] = len(core)
        if low_pairs > m * d or d * len(core) > 2 * m:
            raise ValidationError(f"degree split broke its bounds: {low_pairs} pairs, core {len(core)}, m={m}, delta={d}")
        if witness is None and core:
            # the core rows keep only core neighbours, so naive-mm on them sees
            # the core's induced subgraph under its own vertex ids
            keep = sum(1 << v for v in core)
            for v in core:
                masks[v] &= keep
            counter = [0]
            witness = _naive_mm_triangle(masks, [v for v in core if masks[v] >> (v + 1)], counter)
            stats["core_pairs_checked"] = counter[0]
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
