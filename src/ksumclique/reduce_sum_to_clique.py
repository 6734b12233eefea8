"""Forward reductions: k-SUM to vector form, node weights to edge weights,
edge weights away entirely, and the composed small-number pipeline.

The chain works digit by digit. A target sum over big numbers becomes a small
family of carry-free digit-vector sums (one per guessed carry tuple); a
node-weight clique target becomes per-carry edge weightings via the squaring
trick, nonnegative on every clique and zero exactly on hits; a guessed
per-slot-pair weight profile (alpha) then strips weights, leaving k-partite
unweighted k-Clique. Every stage preserves the OR of solvability and supports
witness lifting back to the source.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import chain, product
from typing import Any, Callable, Iterable, Iterator, Sequence

from .instances import (
    CliqueInstance,
    KSumInstance,
    MalformedWitnessError,
    ParameterError,
    ReducedCollection,
    ReducedItem,
    ResourceBudgetError,
    ValidationError,
    VectorSumInstance,
    WeightedGraph,
    verify_witness,
)

ALPHA_BUDGET = 200_000
VECTOR_BUDGET = 20_000_000  # vertices of alpha graphs here, coordinates in reduce_clique_to_sum


def base_p_digits(x: int, p: int, d: int) -> tuple[int, ...]:
    """Base-p digits of x, least significant first, exactly d of them."""
    if p < 2:
        raise ParameterError(f"radix must be >= 2, got {p}")
    if d < 1:
        raise ParameterError(f"digit count must be >= 1, got {d}")
    if not 0 <= x < p**d:
        raise ValidationError(f"{x} not representable in {d} base-{p} digits")
    out = []
    for _ in range(d):
        x, r = divmod(x, p)
        out.append(r)
    return tuple(out)


def digits_to_int(digits: Iterable[int], p: int) -> int:
    total = 0
    for j, a in enumerate(digits):
        total += a * p**j
    return total


def _pow_exceeds(base: int, exp: int, bound: int) -> bool:
    """base**exp > bound, without building a power far above bound: when
    base >= 2^b >= 2 and b * exp >= bound.bit_length(), base**exp >=
    2^(b*exp) > bound."""
    return base >= 2 and (base.bit_length() - 1) * exp >= bound.bit_length() or base**exp > bound


def choose_radix(k: int, bound: int, d: int = 1, floor: int = 0) -> int:
    """Smallest radix p >= max(k+1, floor) with p^d >= k*bound + 1: k digits
    below p sum without carrying, and d digits hold every k-fold sum of
    numbers up to bound. The d-th root is exact integer Newton iteration."""
    if d < 1:
        raise ParameterError(f"digit count must be >= 1, got {d}")
    v = k * bound
    root = 0  # largest r with r^d <= v
    if v >= 1:
        root = 1 << -(-v.bit_length() // d)  # at least the root
        while (step := ((d - 1) * root + (0 if _pow_exceeds(root, d - 1, v) else v // root ** (d - 1))) // d) < root:
            root = step
    return max(k + 1, floor, root + 1)


@dataclass(frozen=True)
class CarryContext:
    """All carry guesses for one target: gamma tuples and their digit targets.

    Digit j of a k-fold sum equals the target digit once the incoming and
    outgoing carries are fixed, so each gamma in [0,k]^(d-1) induces one
    d-vector target; summing k digit vectors to some feasible target is
    equivalent to the original integer equation.
    """

    t: int
    k: int
    p: int
    d: int
    gammas: tuple[tuple[int, ...], ...]
    targets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.gammas) != len(self.targets):
            raise ValidationError("carry tuples and targets must pair up")
        if len(self.gammas) != self.s:
            raise ValidationError(f"expected {self.s} carry tuples, got {len(self.gammas)}")
        for tg in self.targets:
            if digits_to_int(tg, self.p) != self.t:
                raise ValidationError(f"target {tg} does not recompose to {self.t}")

    @property
    def s(self) -> int:
        return (self.k + 1) ** (self.d - 1)

    def is_feasible(self, index: int) -> bool:
        """A digit target is reachable only with every entry in [0, k(p-1)]."""
        cap = self.k * (self.p - 1)
        return all(0 <= c <= cap for c in self.targets[index])

    def provenance(self, index: int) -> dict[str, list[int]]:
        """The {"gamma", "target"} record of one carry, as items and skip lists hold it."""
        return {"gamma": list(self.gammas[index]), "target": list(self.targets[index])}


def _check_radix(p: int, k: int) -> None:
    """k digits below p sum without carrying only when p > k."""
    if p <= k:
        raise ParameterError(f"radix must exceed the arity, got p={p} <= k={k}")


def carry_targets(t: int, k: int, p: int, d: int) -> CarryContext:
    """Enumerate carry tuples in lexicographic order with their digit targets.

    With v the d-digit expansion of t (the top digit absorbing any overflow
    beyond p^d), carry tuple c yields target entries v[1]+c_1*p at the bottom,
    v[j]-c_{j-1}+c_j*p in the middle and v[d]-c_{d-1} at the top. More than
    ALPHA_BUDGET carry tuples raise ResourceBudgetError before any is built.
    """
    _check_radix(p, k)
    if d < 1:
        raise ParameterError(f"digit count must be >= 1, got {d}")
    # for k >= 1, t <= k(p^d - 1) exactly when p^d > ceil(t/k)
    if t < 0 or not (_pow_exceeds(p, d, -(-t // k)) if k >= 1 else t <= k * (p**d - 1)):
        raise ParameterError(f"target {t} outside [0, k(p^d - 1)]")
    if _pow_exceeds(k + 1, d - 1, ALPHA_BUDGET):
        raise ResourceBudgetError(f"{k + 1}^{d - 1} carry tuples exceed the work budget {ALPHA_BUDGET}")
    top, low = divmod(t, p ** (d - 1))
    v = base_p_digits(low, p, d - 1) + (top,) if d > 1 else (t,)
    gammas = []
    targets = []
    for gamma in product(range(k + 1), repeat=d - 1):
        tg = list(v)
        for j in range(d - 1):
            tg[j] += gamma[j] * p
            tg[j + 1] -= gamma[j]
        gammas.append(gamma)
        targets.append(tuple(tg))
    return CarryContext(t=t, k=k, p=p, d=d, gammas=tuple(gammas), targets=tuple(targets))


def _achieved_bound(inst: KSumInstance) -> int:
    """Largest number present; negative numbers are rejected (shift first)."""
    if inst.numbers and min(inst.numbers) < 0:
        raise ParameterError("numbers must be nonnegative; shift the instance first")
    return max(inst.numbers, default=0)


def _carry_stage(t: int, k: int, bound: int, p: int, d: int) -> tuple[CarryContext, list[int], list[dict]] | None:
    """The front both carry reductions share, for numbers in [0, bound]: the
    checks d >= 1, p^d >= k*bound + 1 and p > k, in that order; then None when
    no k numbers reach t, else the carry context, its feasible carry indices
    and the provenance of each skipped carry, both in carry order."""
    if d < 1:
        raise ParameterError(f"digit count must be >= 1, got {d}")
    if not _pow_exceeds(p, d, k * bound):
        raise ParameterError(f"p^d = {p**d} < k*M+1 = {k * bound + 1}")
    _check_radix(p, k)
    if not 0 <= t <= k * bound:
        return None
    ctx = carry_targets(t, k, p, d)
    feasible = [i for i in range(ctx.s) if ctx.is_feasible(i)]
    return ctx, feasible, [ctx.provenance(i) for i in range(ctx.s) if not ctx.is_feasible(i)]


def ksum_to_vectorsum(inst: KSumInstance, p: int, d: int) -> ReducedCollection:
    """One digit-vector instance per feasible carry target; skipped carries are
    recorded in the collection params. The source is solvable iff some emitted
    instance is; a target no k numbers can reach emits an empty collection."""
    if d < 1:  # reported before negative numbers
        raise ParameterError(f"digit count must be >= 1, got {d}")
    stage = _carry_stage(inst.target, inst.k, _achieved_bound(inst), p, d)
    if stage is None:
        params = {"p": p, "d": d, "s": 0, "skipped": [], "range_pruned": True}
        return ReducedCollection(reduction="ksum_to_vectorsum", source=inst, params=params, items=())
    ctx, feasible, skipped = stage
    vectors = tuple(base_p_digits(x, p, d) for x in inst.numbers)
    items = tuple(
        ReducedItem(VectorSumInstance(k=inst.k, dim=d, vectors=vectors, target=ctx.targets[i], entry_bounds=(0, p - 1)),
                    ctx.provenance(i))
        for i in feasible
    )
    params = {"p": p, "d": d, "s": ctx.s, "skipped": skipped}
    return ReducedCollection(reduction="ksum_to_vectorsum", source=inst, params=params, items=items)


def edge_weight_cap(k: int, d: int, p: int) -> int:
    """Declared magnitude cap 2k^3dp^2 on squaring-trick edge weights."""
    return 2 * k**3 * d * p**2


def nodeweight_to_edgeweight(g: WeightedGraph, p: int | None = None, d: int = 1) -> ReducedCollection:
    """Per feasible carry, reweight edges by the squaring trick on the mapped
    node-weight vectors f_u = k*a_u - T (a_u the d base-p digits of w_u, T the
    carry's digit target): edge (u, v) gets |f_u|^2 + |f_v|^2 + 2(k-1)<f_u, f_v>,
    which on any k vertices sums to (k-1) * |sum of their f|^2. A k-clique of
    node weight g.target in the source exists iff some output graph has a
    zero-edge-weight k-clique.

    Expanded, that weight is 2k^2(k-1)<a_u, a_v> + h(u) + h(v), where the
    vertex term h(u) = k^2|a_u|^2 - 2k^2<a_u, T> + k|T|^2 alone depends on the
    carry. So the digit columns, k^2|a_u|^2 and the edge term are computed
    once per graph, and each carry costs one pass over the vertices (h) and
    one over the edges, with no per-vertex digit tuple. The radix check
    (p^d >= k*M + 1, weights >= 0) makes every weight representable in d
    digits, and a feasible target has entries in [0, k(p-1)], so every entry
    of f lies in [-k(p-1), k(p-1)] and |weight| <= 2k^3d(p-1)^2: the cap
    2k^3dp^2 is checked, with the first offending weight in edge order, but
    cannot be hit.

    Every output shares one declared weight bound (the largest magnitude
    produced across carries) so downstream alpha enumeration ranges agree.
    Each carry's weights are a list aligned with g.edges, and its graph is
    g._reweighted with them, so the source's validated edges are not
    normalized again.
    """
    if g.node_weights is None:
        raise ParameterError("node-weighted graph required")
    arity, goal = g.k, g.target
    if arity < 2:
        raise ParameterError("arity must be >= 2: single vertices carry no edge weight")
    weights = g.node_weights
    bound = max(weights, default=0)
    if min(weights, default=0) < 0:
        raise ParameterError("node weights must be nonnegative; shift the instance first")
    radix = choose_radix(arity, bound, d) if p is None else p  # either checks d >= 1 first
    stage = _carry_stage(goal, arity, bound, radix, d)
    if stage is None:
        # no k node weights can reach the target: empty emission, OR preserved
        params = {"t": str(goal), "p": radix, "d": d, "s": 0, "skipped": [], "range_pruned": True}
        return ReducedCollection(reduction="nodeweight_to_edgeweight", source=g, params=params, items=())
    ctx, feasible, skipped = stage
    cap = edge_weight_cap(arity, d, radix)
    k2, edges = arity * arity, g.edges
    cross = 2 * (arity - 1) * k2
    cols = []  # cols[j][u]: digit j of w_u
    rest = weights
    for _ in range(d):
        cols.append([w % radix for w in rest])
        rest = [w // radix for w in rest]
    norms = [0] * g.n  # k^2 |a_u|^2
    dots = [0] * len(edges)  # 2k^2(k-1) <a_u, a_v>
    for col in cols:
        norms = [s + k2 * a * a for s, a in zip(norms, col)]
        scaled = [cross * a for a in col]
        dots = [s + scaled[u] * col[v] for s, (u, v) in zip(dots, edges)]
    per_carry: list[tuple[int, list[int]]] = []
    achieved = 0
    for i in feasible:
        target = ctx.targets[i]
        half = arity * sum(c * c for c in target)
        node = [s + half for s in norms]  # h(u), once its carry potential is subtracted
        for col, c in zip(cols, target):
            c *= 2 * k2
            node = [s - c * a for s, a in zip(node, col)]
        ew = [s + node[u] + node[v] for s, (u, v) in zip(dots, edges)]
        peak = max(map(abs, ew), default=0)
        if peak > cap:
            bad = next(w for w in ew if abs(w) > cap)
            raise ValidationError(f"edge weight {bad} exceeds the cap {cap}")
        achieved = max(achieved, peak)
        per_carry.append((i, ew))
    items = tuple(
        ReducedItem(g._reweighted(edge_weights=ew, weight_bound=achieved, target=0), ctx.provenance(i))
        for i, ew in per_carry
    )
    params = {"t": str(goal), "p": radix, "d": d, "s": ctx.s, "weight_cap": str(cap), "skipped": skipped}
    return ReducedCollection(reduction="nodeweight_to_edgeweight", source=g, params=params, items=items)


def slot_pairs(k: int) -> list[tuple[int, int]]:
    """Ordered slot pairs (i, j), 1 <= i < j <= k."""
    return [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]


def _check_alpha_args(k: int, g: WeightedGraph | None = None) -> None:
    """The argument checks of every alpha enumeration, in order: an
    edge-weighted graph (when one is given), then k >= 2."""
    if g is not None and g.edge_weights is None:
        raise ParameterError("edge-weighted graph required")
    if k < 2:
        raise ParameterError("alpha enumeration needs k >= 2")


def _check_alpha_coordinates(k: int) -> None:
    """Refuse more than ALPHA_BUDGET alpha coordinates C(k,2), before a
    search lists that many slot pairs; a one-weight support passes every
    power bound at any arity."""
    if math.comb(k, 2) > ALPHA_BUDGET:
        raise ResourceBudgetError(f"{math.comb(k, 2)} alpha coordinates exceed the work budget {ALPHA_BUDGET}")


def _check_alpha_budget(base: int, free: int) -> None:
    """Refuse an enumeration of base^free heads above ALPHA_BUDGET. The count
    is written out up to 1024 bits and as base^free, never built, above."""
    if _pow_exceeds(base, free, ALPHA_BUDGET):
        count = base**free if free * base.bit_length() <= 1024 else f"{base}^{free}"
        raise ResourceBudgetError(f"alpha enumeration would need {count} tuples (budget {ALPHA_BUDGET})")


def alpha_tuples_full(bound: int, k: int) -> Iterator[tuple[int, ...]]:
    """All assignments of C(k,2) integers in [-bound, bound] summing to zero:
    the first C(k,2)-1 coordinates run lexicographically, the last is forced
    and emitted only when in range."""
    _check_alpha_args(k)
    free = math.comb(k, 2) - 1
    _check_alpha_budget(2 * bound + 1, free)
    _check_alpha_coordinates(k)
    for head in product(range(-bound, bound + 1), repeat=free):
        last = -sum(head)
        if -bound <= last <= bound:
            yield head + (last,)


def _set_bits(mask: int) -> list[int]:
    """Positions of the set bits of a nonnegative mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _union(tables: Sequence[int], vertices: int) -> int:
    """OR of tables[v] over the set bits v of a nonnegative vertex mask."""
    out = 0
    while vertices:
        low = vertices & -vertices
        out |= tables[low.bit_length() - 1]
        vertices ^= low
    return out


def _zero_sum_alphas(
    k: int,
    ends: dict[int, tuple[int, int]],
    on_window: Callable[[int], None] | None = None,
    by_vertex: tuple[Sequence[int], Sequence[int]] = ((), ()),
) -> Iterator[tuple[int, ...]]:
    """Zero-sum alphas over the weights of ``ends`` whose every slot can
    still hold a vertex.

    ``ends`` maps each support weight, ascending, to the (first-endpoint,
    second-endpoint) vertex bitmask of its bucket; a mask of -1 cuts nothing.
    A DFS fixes the slot pairs in order. Each coordinate ranges over the
    bisect window of weights that leave the rest of the head plus the forced
    last coordinate a sum in [min, max] of the support, so the alphas come in
    the lexicographic order of product(support, repeat=C(k,2)-1) filtered to
    a present last coordinate. One bitmask per slot is intersected with the
    matching endpoint mask of each chosen weight, and no weight that would
    empty a slot's set is tried (arc consistency, Mackworth 1977).

    ``by_vertex`` holds, per vertex, the support-index bitmask of the buckets
    with an edge that starts (first table) or ends (second table) there. At
    pair (i, j) the window's index bits are ANDed with the OR of the first
    table over slot i and of the second table over slot j, and only the bits
    left are visited, in ascending order. A slot at -1 cuts nothing and reads
    no table, so while both slots are -1 (always, when every mask is -1) the
    window is a plain range.

    The DFS recurses down to the pair (k-2, k-1) (1-based), whose loop runs
    the last free pair (k-2, k) and the forced pair (k-1, k) inline, with no
    generator, slot copy or head tuple per head: each candidate of the last
    free window is tested against its forced partner's bucket on slots k-1
    and k, and the full alpha is yielded there. ``on_window`` is called with
    the full size of each last free window when entered, and with 1 for the
    one empty head of k = 2. The search drops the recursion's reference to
    itself when it ends or is closed, so reference counting frees its tables.
    """
    support = list(ends)
    if not support:
        return
    masks = list(ends.values())
    starts_at, ends_at = by_vertex
    pairs = [(i - 1, j - 1) for i, j in slot_pairs(k)]
    last = len(pairs) - 1
    lo, hi = support[0], support[-1]
    if last == 0:
        if on_window is not None:
            on_window(1)
        if 0 in ends:  # a bucket's endpoint masks are never empty
            yield (0,)
        return

    def extend(idx: int, head: tuple[int, ...], total: int, slots: list[int]) -> Iterator[tuple[int, ...]]:
        i, j = pairs[idx]
        rest = last - idx  # coordinates after this one, the forced one included
        start = bisect.bisect_left(support, -total - rest * hi)
        stop = bisect.bisect_right(support, -total - rest * lo)
        at_i, at_j = slots[i], slots[j]
        picks: Iterable[int]
        if at_i == -1 and at_j == -1:
            picks = range(start, stop)
        else:
            window = (1 << stop) - (1 << start)
            if at_i != -1:
                window &= _union(starts_at, at_i)
            if at_j != -1:
                window &= _union(ends_at, at_j)
            picks = _set_bits(window)
        if rest > 2:
            for r in picks:
                x = support[r]
                first, second = masks[r]
                narrowed = slots.copy()
                narrowed[i] = at_i & first
                narrowed[j] = at_j & second
                yield from extend(idx + 1, head + (x,), total + x, narrowed)
            return
        # (i, j) = (k-2, k-1) 1-based: run the last free pair (i, k) and the
        # forced pair (j, k) inline, with _union and _set_bits unrolled
        at_k = slots[k - 1]
        ends_k = -1 if at_k == -1 else _union(ends_at, at_k)
        for r in picks:
            x = support[r]
            first, second = masks[r]
            sub = total + x
            start = bisect.bisect_left(support, -sub - hi)
            stop = bisect.bisect_right(support, -sub - lo)
            if on_window is not None:
                on_window(stop - start)
            at_first, at_second = at_i & first, at_j & second
            if at_first == -1 and at_k == -1:
                for q in range(start, stop):
                    y = support[q]
                    fit = ends.get(-sub - y)
                    if fit is not None and at_second & fit[0] and at_k & masks[q][1] & fit[1]:
                        yield head + (x, y, -sub - y)
                continue
            window = ((1 << stop) - (1 << start)) & ends_k
            if at_first != -1:
                starts = 0
                while at_first:
                    low = at_first & -at_first
                    starts |= starts_at[low.bit_length() - 1]
                    at_first ^= low
                window &= starts
            while window:
                low = window & -window
                q = low.bit_length() - 1
                window ^= low
                y = support[q]
                fit = ends.get(-sub - y)
                if fit is not None and at_second & fit[0] and at_k & masks[q][1] & fit[1]:
                    yield head + (x, y, -sub - y)

    try:
        yield from extend(0, (), 0, [-1] * k)
    finally:
        del extend  # extend refers to itself; without this the cycle keeps every table alive until the cyclic GC


def present_alpha_tuples(g: WeightedGraph, k: int) -> Iterator[tuple[int, ...]]:
    """Zero-sum alpha tuples drawn only from weights the graph actually has.

    An alpha using an absent weight yields a slot pair with no edges and hence
    no k-clique, so pruning those preserves the OR over outputs. The search
    is _zero_sum_alphas with no slot cut: every head of
    product(support, repeat=C(k,2)-1), in lexicographic order, whose forced
    last coordinate is a present weight. ALPHA_BUDGET bounds
    support^(C(k,2)-1).
    """
    _check_alpha_args(k, g)
    buckets = g.edges_by_weight
    if buckets:
        _check_alpha_budget(len(buckets), math.comb(k, 2) - 1)
    _check_alpha_coordinates(k)
    yield from _zero_sum_alphas(k, dict.fromkeys(buckets, (-1, -1)))


def consistent_alpha_tuples(g: WeightedGraph, k: int, counter: list[int] | None = None) -> Iterator[tuple[int, ...]]:
    """The present-mode alphas whose every slot can still hold a vertex.

    A k-clique of an alpha graph puts in slot i a source vertex that is the
    first endpoint of an edge in bucket alpha_ij for every j > i and the
    second endpoint of one in bucket alpha_hi for every h < i, so
    _zero_sum_alphas runs with each bucket's endpoint sets as its masks. The
    same pass over the buckets builds, per vertex, the support-index masks of
    the buckets it starts and ends an edge in, so each coordinate visits only
    the weights its two slots can still hold. The output is the subsequence
    of present_alpha_tuples that keeps every alpha whose graph has a
    k-clique, in the same order.

    ALPHA_BUDGET bounds the heads met per call: each bisect window at the last
    free coordinate counts in full when entered, and k = 2 has one empty head.
    Each is a present-mode head, so no graph whose support^(C(k,2)-1) fits the
    budget can exceed it. counter[0], when given, accumulates them.
    """
    _check_alpha_args(k, g)
    _check_alpha_coordinates(k)
    ends: dict[int, tuple[int, int]] = {}
    starts_at, ends_at = [0] * g.n, [0] * g.n
    for r, (w, edges) in enumerate(g.edges_by_weight.items()):
        bit = 1 << r
        first = second = 0
        for u, v in edges:
            first |= 1 << u
            second |= 1 << v
            starts_at[u] |= bit
            ends_at[v] |= bit
        ends[w] = (first, second)
    nodes = [0] if counter is None else counter
    base = nodes[0]

    def try_heads(count: int) -> None:
        nodes[0] += count
        if nodes[0] - base > ALPHA_BUDGET:
            raise ResourceBudgetError(f"alpha search needs more than {ALPHA_BUDGET} heads")

    yield from _zero_sum_alphas(k, ends, try_heads, (starts_at, ends_at))


def _check_alpha_vertices(count: int, k: int, n: int) -> None:
    """Refuse count alpha graphs of k*n vertices each, and so k*n partition
    entries each, past VECTOR_BUDGET vertices in all, before they are built."""
    if count * k * n > VECTOR_BUDGET:
        raise ResourceBudgetError(f"{count} x {k * n} alpha-graph vertices exceed the work budget {VECTOR_BUDGET}")


def _alpha_union(k: int, n: int, pieces: Iterable[tuple[WeightedGraph, tuple[int, ...]]]) -> CliqueInstance:
    """Disjoint union of the k-partite graphs of (n-vertex graph, alpha)
    pieces: id c*k*n + i*n + v is source vertex v in slot i+1 of piece c, and
    an edge runs from (u, slot i) to (v, slot j) for each source edge u < v
    whose weight is the piece's alpha entry at pair (i, j).

    A slot pair reads only its weight's bucket (``edges_by_weight``, built
    once per graph), so a piece costs O(k*n + edges out). Pieces are sorted
    one by one in ascending id ranges, so the one CliqueInstance check meets
    every edge once, in order, with no set or final sort.
    """
    offsets = [((i - 1) * n, (j - 1) * n) for i, j in slot_pairs(k)]
    edges: list[tuple[int, int]] = []
    count = 0
    for g, alpha in pieces:
        if len(alpha) != len(offsets):
            raise ValidationError(f"alpha needs {len(offsets)} entries, got {len(alpha)}")
        _check_alpha_vertices(count + 1, k, n)
        buckets = g.edges_by_weight
        base = count * k * n
        piece = [(base + du + u, base + dv + v) for (du, dv), w in zip(offsets, alpha) for u, v in buckets.get(w, ())]
        piece.sort()
        edges += piece
        count += 1
    slots = tuple(chain.from_iterable((i,) * n for i in range(1, k + 1)))
    return CliqueInstance(n=count * k * n, edges=tuple(edges), k=k, partition=slots * count if count else None)


def build_alpha_instance(g: WeightedGraph, k: int, alpha: tuple[int, ...]) -> CliqueInstance:
    """The k-partite graph for one alpha on k*n vertices: vertex i*n+v is
    source vertex v in slot i+1 (see _alpha_union)."""
    return _alpha_union(k, g.n, [(g, alpha)])


def _alpha_enumerator(alpha_mode: str) -> Callable[[WeightedGraph], Iterator[tuple[int, ...]]]:
    """The alphas of one mode as a function of the graph, at its arity: full
    over the declared weight bound, present over the weights the graph has."""
    if alpha_mode == "full":
        return lambda g: alpha_tuples_full(g.weight_bound, g.k)
    if alpha_mode == "present":
        return lambda g: present_alpha_tuples(g, g.k)
    raise ParameterError(f"unknown alpha mode {alpha_mode!r}")


def edgeweight_to_unweighted(g: WeightedGraph, alpha_mode: str = "full") -> ReducedCollection:
    """Strip edge weights by guessing the per-slot-pair weight profile.

    full mode enumerates every zero-sum alpha over [-M, M] with M the declared
    weight bound; present mode restricts coordinates to weights occurring in
    the graph, which prunes only k-clique-free outputs. The source has a
    zero-edge-weight k-clique iff some output has a k-clique.
    """
    arity = g.k
    _check_alpha_args(arity, g)
    alphas = list(_alpha_enumerator(alpha_mode)(g))  # its budget checks run before the C(k,2) slot pairs are built
    _check_alpha_vertices(len(alphas), arity, g.n)
    pairs = slot_pairs(arity)
    items = tuple(
        ReducedItem(build_alpha_instance(g, arity, alpha), {"alpha": [[i, j, w] for (i, j), w in zip(pairs, alpha)]})
        for alpha in alphas
    )
    return ReducedCollection(
        reduction="edgeweight_to_unweighted",
        source=g,
        params={"alpha_mode": alpha_mode, "weight_bound": str(g.weight_bound), "k": arity},
        items=items,
        decode=lambda _, witness: strip_slot_witness(g.n, witness),
    )


def strip_slot_witness(n_source: int, witness: Iterable[int]) -> tuple[int, ...]:
    """Project a k-clique of an alpha graph back to source vertices."""
    lifted = sorted(v % n_source for v in witness)
    if len(set(lifted)) != len(lifted):
        raise ValidationError("alpha-graph witness repeats a source vertex")
    return tuple(lifted)


def merge_clique_instances(coll: ReducedCollection) -> CliqueInstance:
    """Disjoint union of unweighted instances, item after item; a k-clique
    cannot straddle components, so the union is solvable iff some item is."""
    insts = coll.instances()
    if not insts:
        return CliqueInstance(n=0, edges=(), k=2, partition=None)
    arities = {inst.k for inst in insts}
    if len(arities) != 1:
        raise ParameterError(f"cannot merge mixed arities {sorted(arities)}")
    edges: list[tuple[int, int]] = []
    off = 0
    for inst in insts:
        edges.extend((u + off, v + off) for u, v in inst.edges)
        off += inst.n
    parts = [inst.partition for inst in insts]
    partition = None if None in parts else tuple(chain.from_iterable(parts))
    return CliqueInstance(n=off, edges=tuple(edges), k=arities.pop(), partition=partition)


def ksum_as_nodeweight_clique(inst: KSumInstance) -> WeightedGraph:
    """Complete graph on the input positions, node weight = number."""
    bound = _achieved_bound(inst)
    n = inst.n
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n))
    return WeightedGraph(
        n=n,
        edges=edges,
        k=inst.k,
        node_weights=inst.numbers,
        edge_weights=None,
        weight_bound=bound,
        target=inst.target,
    )


def pipeline_dimension(n: int) -> int:
    """ceil(log2 n / log2 log2 n), floored at 1; tiny n defaults to 1."""
    if n < 4:
        return 1
    return max(1, math.ceil(math.log2(n) / math.log2(math.log2(n))))


def pipeline_radix(n: int, k: int, bound: int, f_exp: int, d: int) -> int:
    """The radix choose_radix gives with the pipeline's floor ceil(k * 2^f * log2 n).

    The floor is the float k * log2 n scaled by 2^f, which is exact; an f that
    overflows the float raises ParameterError.
    """
    try:
        floor = math.ceil(math.ldexp(k * math.log2(max(n, 2)), f_exp))
    except OverflowError:
        raise ParameterError(f"f exponent {f_exp} overflows the radix floor k * 2^f * log2 n") from None
    return choose_radix(k, bound, d, floor=floor)


@dataclass(frozen=True)
class PipelineResult:
    """Merged unweighted instance plus the source and parameters needed to
    lift witnesses and to report instance accounting. The merge holds g_nk
    pieces of k*n vertices each, in emission order."""

    instance: CliqueInstance
    source: KSumInstance
    params: dict[str, Any]

    @property
    def g_nk(self) -> int:
        return self.params["g_nk"]


def smallksum_to_kclique(inst: KSumInstance, f_exp: int, alpha_mode: str = "present") -> PipelineResult:
    """Composed pipeline for numbers bounded by n^f_exp: encode the numbers as
    node weights on a complete graph, reduce to per-carry edge weightings,
    strip weights per alpha and merge everything into one unweighted instance.

    The merge is one pass: each feasible carry graph's alphas, in order, go
    straight into _alpha_union as pieces of k*n vertices, and only the merged
    instance is built and validated. A target outside [0, k*max(numbers)]
    short-circuits to an empty (hence unsolvable) merged instance. An
    unknown alpha mode raises ParameterError on every input.
    """
    alphas_of = _alpha_enumerator(alpha_mode)
    n, k = inst.n, inst.k
    if k < 2:
        raise ParameterError("pipeline requires arity k >= 2")
    bound = _achieved_bound(inst)
    if bound > max(n, 1) ** f_exp:
        raise ParameterError(
            f"numbers exceed n^{f_exp} = {max(n, 1) ** f_exp}; apply the modular "
            "weight reduction first"
        )
    d = pipeline_dimension(n)
    p = pipeline_radix(n, k, bound, f_exp, d)
    if not 0 <= inst.target <= k * bound or k > n:
        params = {"p": p, "d": d, "f_exp": f_exp, "alpha_mode": alpha_mode, "g_nk": 0, "range_pruned": True}
        empty = CliqueInstance(n=0, edges=(), k=k)
        return PipelineResult(instance=empty, source=inst, params=params)
    ew_coll = nodeweight_to_edgeweight(ksum_as_nodeweight_clique(inst), p=p, d=d)
    carries = [item.instance for item in ew_coll.items]
    merged = _alpha_union(k, n, ((g, alpha) for g in carries for alpha in alphas_of(g)))
    g_nk = merged.n // (k * n)
    params = {"p": p, "d": d, "s": ew_coll.params["s"], "f_exp": f_exp, "alpha_mode": alpha_mode, "g_nk": g_nk}
    return PipelineResult(instance=merged, source=inst, params=params)


def lift_pipeline_witness(result: PipelineResult, witness: Iterable[int]) -> tuple[int, ...]:
    """Lift a merged-graph k-clique to source indices summing to the target.

    No edge joins two pieces, so a k-clique lies inside one piece, and there
    vertex id mod n is its source index (see _alpha_union).
    """
    if not verify_witness(result.instance, witness):
        raise MalformedWitnessError("witness is not a k-clique of the merged instance")
    lifted = strip_slot_witness(result.source.n, witness)
    if not verify_witness(result.source, lifted):
        raise MalformedWitnessError("lifted witness does not verify in the source")
    return lifted
