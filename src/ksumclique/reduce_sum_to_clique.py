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
from operator import mul
from typing import Any, Callable, Iterable, Iterator

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
        while (step := ((d - 1) * root + v // root ** (d - 1)) // d) < root:
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


def _check_radix(p: int, k: int) -> None:
    """k digits below p sum without carrying only when p > k."""
    if p <= k:
        raise ParameterError(f"radix must exceed the arity, got p={p} <= k={k}")


def carry_targets(t: int, k: int, p: int, d: int) -> CarryContext:
    """Enumerate carry tuples in lexicographic order with their digit targets.

    With v the d-digit expansion of t (the top digit absorbing any overflow
    beyond p^d), carry tuple c yields target entries v[1]+c_1*p at the bottom,
    v[j]-c_{j-1}+c_j*p in the middle and v[d]-c_{d-1} at the top.
    """
    _check_radix(p, k)
    if d < 1:
        raise ParameterError(f"digit count must be >= 1, got {d}")
    if not 0 <= t <= k * (p**d - 1):
        raise ParameterError(f"target {t} outside [0, k(p^d - 1)]")
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


def map_f(x: int, t_gamma: tuple[int, ...], k: int, p: int, d: int) -> tuple[int, ...]:
    """k times the digit vector of x, minus the carry target."""
    if len(t_gamma) != d:
        raise ValidationError(f"carry target has {len(t_gamma)} entries, expected {d}")
    digits = base_p_digits(x, p, d)
    out = tuple(k * a - c for a, c in zip(digits, t_gamma))
    for entry in out:
        if abs(entry) > k * p:
            raise ValidationError(f"mapped entry {entry} outside [-kp, kp]")
    return out


def _achieved_bound(inst: KSumInstance) -> int:
    """Largest number present; negative numbers are rejected (shift first)."""
    if inst.numbers and min(inst.numbers) < 0:
        raise ParameterError("numbers must be nonnegative; shift the instance first")
    return max(inst.numbers, default=0)


def ksum_to_vectorsum(inst: KSumInstance, p: int, d: int) -> ReducedCollection:
    """One digit-vector instance per feasible carry target; skipped carries are
    recorded in the collection params. The source is solvable iff some emitted
    instance is; a target no k numbers can reach emits an empty collection."""
    if d < 1:
        raise ParameterError(f"digit count must be >= 1, got {d}")
    bound = _achieved_bound(inst)
    if p**d < inst.k * bound + 1:
        raise ParameterError(f"p^d = {p**d} < k*M+1 = {inst.k * bound + 1}")
    _check_radix(p, inst.k)
    if not 0 <= inst.target <= inst.k * bound:
        return ReducedCollection(
            reduction="ksum_to_vectorsum",
            source=inst,
            params={"p": p, "d": d, "s": 0, "skipped": [], "range_pruned": True},
            items=(),
        )
    ctx = carry_targets(inst.target, inst.k, p, d)
    vectors = tuple(base_p_digits(x, p, d) for x in inst.numbers)
    items = []
    skipped = []
    for i in range(ctx.s):
        if not ctx.is_feasible(i):
            skipped.append({"gamma": list(ctx.gammas[i]), "target": list(ctx.targets[i])})
            continue
        out = VectorSumInstance(
            k=inst.k,
            dim=d,
            vectors=vectors,
            target=ctx.targets[i],
            entry_bounds=(0, p - 1),
        )
        items.append(ReducedItem(out, {"gamma": list(ctx.gammas[i]), "target": list(ctx.targets[i])}))
    return ReducedCollection(
        reduction="ksum_to_vectorsum",
        source=inst,
        params={"p": p, "d": d, "s": ctx.s, "skipped": skipped},
        items=tuple(items),
    )


def edge_weight_cap(k: int, d: int, p: int) -> int:
    """Declared magnitude cap 2k^3dp^2 on squaring-trick edge weights."""
    return 2 * k**3 * d * p**2


def nodeweight_to_edgeweight(g: WeightedGraph, p: int | None = None, d: int = 1) -> ReducedCollection:
    """Per feasible carry, reweight edges by the squaring trick on the mapped
    node-weight vectors: edge (u, v) gets |f_u|^2 + |f_v|^2 + 2(k-1)<f_u, f_v>,
    which on any k vertices sums to (k-1) * |sum of their f|^2. A k-clique of
    node weight g.target in the source exists iff some output graph has a
    zero-edge-weight k-clique.

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
    if any(w < 0 for w in weights):
        raise ParameterError("node weights must be nonnegative; shift the instance first")
    if d < 1:
        raise ParameterError(f"digit count must be >= 1, got {d}")
    radix = choose_radix(arity, bound, d) if p is None else p
    if radix**d < arity * bound + 1:
        raise ParameterError(f"p^d = {radix**d} < k*M+1 = {arity * bound + 1}")
    _check_radix(radix, arity)
    if not 0 <= goal <= arity * bound:
        # no k node weights can reach the target: empty emission, OR preserved
        return ReducedCollection(
            reduction="nodeweight_to_edgeweight",
            source=g,
            params={"t": str(goal), "p": radix, "d": d, "s": 0, "skipped": [], "range_pruned": True},
            items=(),
        )
    ctx = carry_targets(goal, arity, radix, d)
    cap = edge_weight_cap(arity, d, radix)
    cross = 2 * (arity - 1)
    per_carry: list[tuple[int, list[int]]] = []
    achieved = 0
    skipped = []
    for i in range(ctx.s):
        if not ctx.is_feasible(i):
            skipped.append({"gamma": list(ctx.gammas[i]), "target": list(ctx.targets[i])})
            continue
        fvec = [map_f(w, ctx.targets[i], arity, radix, d) for w in weights]
        sq = [sum(map(mul, f, f)) for f in fvec]
        ew = [sq[u] + sq[v] + cross * sum(map(mul, fvec[u], fvec[v])) for u, v in g.edges]
        peak = max(map(abs, ew), default=0)
        if peak > cap:
            bad = next(w for w in ew if abs(w) > cap)
            raise ValidationError(f"edge weight {bad} exceeds the cap {cap}")
        achieved = max(achieved, peak)
        per_carry.append((i, ew))
    items = tuple(
        ReducedItem(
            g._reweighted(edge_weights=ew, weight_bound=achieved, target=0),
            {"gamma": list(ctx.gammas[i]), "target": list(ctx.targets[i])},
        )
        for i, ew in per_carry
    )
    return ReducedCollection(
        reduction="nodeweight_to_edgeweight",
        source=g,
        params={"t": str(goal), "p": radix, "d": d, "s": ctx.s, "weight_cap": str(cap), "skipped": skipped},
        items=items,
    )


def slot_pairs(k: int) -> list[tuple[int, int]]:
    """Ordered slot pairs (i, j), 1 <= i < j <= k."""
    return [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]


def alpha_tuples_full(bound: int, k: int, budget: int = ALPHA_BUDGET) -> Iterator[tuple[int, ...]]:
    """All assignments of C(k,2) integers in [-bound, bound] summing to zero:
    the first C(k,2)-1 coordinates run lexicographically, the last is forced
    and emitted only when in range."""
    pairs = math.comb(k, 2)
    if pairs == 0:
        raise ParameterError("alpha enumeration needs k >= 2")
    free = pairs - 1
    if (2 * bound + 1) ** free > budget:
        raise ResourceBudgetError(
            f"alpha enumeration would need {(2 * bound + 1) ** free} tuples (budget {budget})"
        )
    for head in product(range(-bound, bound + 1), repeat=free):
        last = -sum(head)
        if -bound <= last <= bound:
            yield head + (last,)


def _zero_sum_alphas(
    k: int,
    ends: dict[int, tuple[int, int]],
    on_window: Callable[[int], None] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Zero-sum alphas over the weights of ``ends`` whose every slot can
    still hold a vertex.

    ``ends`` maps each support weight, ascending, to the (first-endpoint,
    second-endpoint) vertex bitmask of its bucket; a mask of -1 cuts nothing.
    A DFS fixes the slot pairs in order. Each coordinate is drawn from the
    bisect window of weights that leave the rest of the head plus the forced
    last coordinate a sum in [min, max] of the support, so the alphas come in
    the lexicographic order of product(support, repeat=C(k,2)-1) filtered to
    a present last coordinate. One bitmask per slot is intersected with the
    matching endpoint mask of each chosen weight, and a branch where some
    slot's set is empty is cut (arc consistency, Mackworth 1977).

    At the last free coordinate each weight in the window is tested together
    with its forced partner in the same loop, and the full alpha is yielded
    there: the forced pair (k-1, k) shares slot k with the pair (k-2, k)
    before it, so both tests read the slot sets the DFS holds at that point.
    ``on_window`` is called with the size of each window at the last free
    coordinate when entered, and with 1 for the one empty head of k = 2.
    """
    support = list(ends)
    if not support:
        return
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
        if rest == 1:
            if on_window is not None:
                on_window(stop - start)
            forced_first = slots[k - 2]
            for x in support[start:stop]:
                fit = ends.get(-total - x)
                if fit is None:
                    continue  # the forced last coordinate is no present weight
                first, second = ends[x]
                if slots[i] & first and forced_first & fit[0] and slots[j] & second & fit[1]:
                    yield head + (x, -total - x)
            return
        for x in support[start:stop]:
            first, second = ends[x]
            a = slots[i] & first
            b = slots[j] & second
            if a and b:
                narrowed = slots.copy()
                narrowed[i] = a
                narrowed[j] = b
                yield from extend(idx + 1, head + (x,), total + x, narrowed)

    yield from extend(0, (), 0, [-1] * k)


def present_alpha_tuples(g: WeightedGraph, k: int, budget: int = ALPHA_BUDGET) -> Iterator[tuple[int, ...]]:
    """Zero-sum alpha tuples drawn only from weights the graph actually has.

    An alpha using an absent weight yields a slot pair with no edges and hence
    no k-clique, so pruning those preserves the OR over outputs. The search
    is _zero_sum_alphas with no slot cut: every head of
    product(support, repeat=C(k,2)-1), in lexicographic order, whose forced
    last coordinate is a present weight. The budget bounds
    support^(C(k,2)-1).
    """
    if g.edge_weights is None:
        raise ParameterError("edge-weighted graph required")
    if k < 2:
        raise ParameterError("alpha enumeration needs k >= 2")
    buckets = g.edges_by_weight
    if not buckets:
        return
    free = math.comb(k, 2) - 1
    if len(buckets) ** free > budget:
        raise ResourceBudgetError(
            f"alpha enumeration would need {len(buckets) ** free} tuples (budget {budget})"
        )
    yield from _zero_sum_alphas(k, dict.fromkeys(buckets, (-1, -1)))


def consistent_alpha_tuples(
    g: WeightedGraph,
    k: int,
    budget: int = ALPHA_BUDGET,
    counter: list[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """The present-mode alphas whose every slot can still hold a vertex.

    A k-clique of an alpha graph puts in slot i a source vertex that is the
    first endpoint of an edge in bucket alpha_ij for every j > i and the
    second endpoint of one in bucket alpha_hi for every h < i, so
    _zero_sum_alphas runs with each bucket's endpoint sets as its masks. The
    output is the subsequence of present_alpha_tuples that keeps every alpha
    whose graph has a k-clique, in the same order.

    The budget bounds the heads met per call: each bisect window at the last
    free coordinate counts in full when entered, and k = 2 has one empty
    head. Each is a present-mode head, so no graph whose support^(C(k,2)-1)
    fits the budget can exceed it. counter[0], when given, accumulates them.
    """
    if g.edge_weights is None:
        raise ParameterError("edge-weighted graph required")
    if k < 2:
        raise ParameterError("alpha enumeration needs k >= 2")
    ends: dict[int, tuple[int, int]] = {}
    for w, edges in g.edges_by_weight.items():
        first = second = 0
        for u, v in edges:
            first |= 1 << u
            second |= 1 << v
        ends[w] = (first, second)
    nodes = [0] if counter is None else counter
    base = nodes[0]

    def try_heads(count: int) -> None:
        nodes[0] += count
        if nodes[0] - base > budget:
            raise ResourceBudgetError(f"alpha search needs more than {budget} heads")

    yield from _zero_sum_alphas(k, ends, try_heads)


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
    pairs = slot_pairs(k)
    edges: list[tuple[int, int]] = []
    count = 0
    for g, alpha in pieces:
        if len(alpha) != len(pairs):
            raise ValidationError(f"alpha needs {len(pairs)} entries, got {len(alpha)}")
        buckets = g.edges_by_weight
        base = count * k * n
        piece: list[tuple[int, int]] = []
        for (i, j), w in zip(pairs, alpha):
            du, dv = base + (i - 1) * n, base + (j - 1) * n
            piece.extend((du + u, dv + v) for u, v in buckets.get(w, ()))
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
    """The alphas of one mode as a function of the graph, at its arity and
    under ALPHA_BUDGET as read at call time: full over the declared weight
    bound, present over the weights the graph has."""
    if alpha_mode == "full":
        return lambda g: alpha_tuples_full(g.weight_bound, g.k, budget=ALPHA_BUDGET)
    if alpha_mode == "present":
        return lambda g: present_alpha_tuples(g, g.k, budget=ALPHA_BUDGET)
    raise ParameterError(f"unknown alpha mode {alpha_mode!r}")


def edgeweight_to_unweighted(g: WeightedGraph, alpha_mode: str = "full") -> ReducedCollection:
    """Strip edge weights by guessing the per-slot-pair weight profile.

    full mode enumerates every zero-sum alpha over [-M, M] with M the declared
    weight bound; present mode restricts coordinates to weights occurring in
    the graph, which prunes only k-clique-free outputs. The source has a
    zero-edge-weight k-clique iff some output has a k-clique.
    """
    if g.edge_weights is None:
        raise ParameterError("edge-weighted graph required")
    arity = g.k
    if arity < 2:
        raise ParameterError("alpha enumeration needs k >= 2")
    pairs = slot_pairs(arity)
    items = tuple(
        ReducedItem(build_alpha_instance(g, arity, alpha), {"alpha": [[i, j, w] for (i, j), w in zip(pairs, alpha)]})
        for alpha in _alpha_enumerator(alpha_mode)(g)
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
    """The radix choose_radix gives with the pipeline's floor ceil(k * 2^f * log2 n)."""
    return choose_radix(k, bound, d, floor=math.ceil(k * 2**f_exp * math.log2(max(n, 2))))


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
