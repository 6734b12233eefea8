"""Shared independent oracles and fixture builders.

Everything here is deliberately naive: plain enumeration, no reuse of the
package's own search or algebra paths. Frozen expected values in the test
modules were produced by these oracles.
"""

import bisect
import tracemalloc
from itertools import combinations, product
from math import isqrt
from operator import sub

from ksumclique import CliqueInstance, KSumInstance, ValidationError, VectorSumInstance, WeightedGraph


def oracle_ksum(numbers, k, target):
    """Lex-smallest index tuple whose values sum to target, else None."""
    for combo in combinations(range(len(numbers)), k):
        if sum(numbers[i] for i in combo) == target:
            return combo
    return None


def oracle_vectorsum(vectors, k, target):
    dim = len(target)
    for combo in combinations(range(len(vectors)), k):
        if all(sum(vectors[i][j] for i in combo) == target[j] for j in range(dim)):
            return combo
    return None


def oracle_kclique(n, edges, k):
    edge_set = {frozenset(e) for e in edges}
    for combo in combinations(range(n), k):
        if all(frozenset(p) in edge_set for p in combinations(combo, 2)):
            return combo
    return None


def oracle_nw_kclique(n, edges, k, weights, target):
    edge_set = {frozenset(e) for e in edges}
    for combo in combinations(range(n), k):
        if not all(frozenset(p) in edge_set for p in combinations(combo, 2)):
            continue
        if sum(weights[v] for v in combo) == target:
            return combo
    return None


def oracle_ew_kclique(n, edges, k, edge_weights, target):
    """Edge-weighted clique with total edge weight == target."""
    wmap = {frozenset(e): w for e, w in zip(edges, edge_weights)}
    for combo in combinations(range(n), k):
        keys = [frozenset(p) for p in combinations(combo, 2)]
        if all(key in wmap for key in keys):
            if sum(wmap[key] for key in keys) == target:
                return combo
    return None


def oracle_span(q, vectors, target):
    """Exhaustive coefficient sweep, no elimination."""
    n = len(target)
    for coeffs in product(range(q), repeat=len(vectors)):
        if all(
            sum(c * v[j] for c, v in zip(coeffs, vectors)) % q == target[j] % q
            for j in range(n)
        ):
            return coeffs
    return None


def oracle_lindep(q, vectors, k, target):
    """Does some k-subset admit coefficients combining to target mod q?"""
    for combo in combinations(range(len(vectors)), k):
        if oracle_span(q, [vectors[i] for i in combo], target) is not None:
            return combo
    return None


def map_f(x, t_gamma, k, p, d):
    """k times the d base-p digits of x (least significant first), minus the
    carry target, with every range check spelled out."""
    if len(t_gamma) != d:
        raise ValueError(f"carry target has {len(t_gamma)} entries, expected {d}")
    if not 0 <= x < p**d:
        raise ValueError(f"{x} not representable in {d} base-{p} digits")
    out = tuple(k * (x // p**j % p) - c for j, c in enumerate(t_gamma))
    if any(abs(entry) > k * p for entry in out):
        raise ValueError(f"mapped vector {out} outside [-kp, kp]")
    return out


def zero_sum_alphas(k, ends, on_window=None, by_vertex=((), ())):
    """The slot-consistent alpha DFS as one recursive generator per
    coordinate, the last free one included: each head enters its own
    generator, which reports its bisect window to on_window and tests each
    candidate with its forced partner. Same arguments and outputs as the
    package's _zero_sum_alphas."""
    def bits_of(mask):
        return [b for b in range(mask.bit_length()) if mask >> b & 1]

    def union(tables, vertices):
        out = 0
        for v in bits_of(vertices):
            out |= tables[v]
        return out

    support = list(ends)
    if not support:
        return
    masks = list(ends.values())
    starts_at, ends_at = by_vertex
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    last = len(pairs) - 1
    lo, hi = support[0], support[-1]
    if last == 0:
        if on_window is not None:
            on_window(1)
        if 0 in ends:
            yield (0,)
        return

    def extend(idx, head, total, slots):
        i, j = pairs[idx]
        rest = last - idx
        start = bisect.bisect_left(support, -total - rest * hi)
        stop = bisect.bisect_right(support, -total - rest * lo)
        at_i, at_j = slots[i], slots[j]
        if at_i == -1 and at_j == -1:
            picks = range(start, stop)
        else:
            window = (1 << stop) - (1 << start)
            if at_i != -1:
                window &= union(starts_at, at_i)
            if at_j != -1:
                window &= union(ends_at, at_j)
            picks = bits_of(window)
        if rest == 1:
            if on_window is not None:
                on_window(stop - start)
            forced_first = slots[k - 2]
            for r in picks:
                x = support[r]
                fit = ends.get(-total - x)
                if fit is not None and forced_first & fit[0] and at_j & masks[r][1] & fit[1]:
                    yield head + (x, -total - x)
            return
        for r in picks:
            x = support[r]
            first, second = masks[r]
            narrowed = slots.copy()
            narrowed[i] = at_i & first
            narrowed[j] = at_j & second
            yield from extend(idx + 1, head + (x,), total + x, narrowed)

    yield from extend(0, (), 0, [-1] * k)


def degree_split_triangle(n, edges, delta=None):
    """The degree-split triangle scan as it first was, on adjacency bitmasks:
    each vertex below the threshold runs a triple loop over its neighbour
    pairs, then the core rows, masked to the core, run the boolean-square
    scan. Returns the witness and the counters detect_triangle reports."""
    def bits_of(mask):
        return [b for b in range(mask.bit_length()) if mask >> b & 1]

    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    m = len(edges)
    d = delta if delta is not None else max(1, isqrt(m) + (0 if isqrt(m) ** 2 == m else 1))
    touched = sorted({v for e in edges for v in e})
    degrees = {v: bin(masks[v]).count("1") for v in touched}
    witness, low_pairs = None, 0
    for v in touched:
        if degrees[v] >= d:
            continue
        neigh = bits_of(masks[v])
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
    stats = {"delta": d, "low_pairs": low_pairs, "core_size": len(core)}
    if witness is None and core:
        keep = sum(1 << v for v in core)
        for v in core:
            masks[v] &= keep
        checked = 0
        for u in (v for v in core if masks[v] >> (v + 1)):
            for v in (w for w in bits_of(masks[u]) if w > u):
                checked += 1
                common = masks[u] & masks[v] & ~((1 << (v + 1)) - 1)
                if common:
                    witness = (u, v, bits_of(common)[0])
                    break
            if witness is not None:
                break
        stats["core_pairs_checked"] = checked
    return witness, stats


def lindep_decode(inst, item, witness):
    """The LinDep decoder as it first was: verify the expanded witness in
    its item, decode each expanded index e to (scalar e // r, source e % r),
    check that the combination hits the target mod q, then pad the source
    indices used with the lowest unused ones up to k."""
    ws = sorted(witness)
    if len(set(ws)) != item.k or not all(0 <= e < len(item.vectors) for e in ws):
        raise ValueError("malformed item witness")
    if tuple(map(sum, zip(*(item.vectors[e] for e in ws)))) != item.target:
        raise ValueError("witness does not verify in the item")
    pairs = [divmod(e, inst.r) for e in ws]
    combo = [sum(c * inst.vectors[i][j] for c, i in pairs) % inst.q for j in range(inst.n)]
    if tuple(combo) != inst.target:
        raise ValueError("combination misses the target mod q")
    used = sorted({i for _, i in pairs})
    return used + [i for i in range(inst.r) if i not in used][: inst.k - len(used)]


def decode_vector_witness_reference(g, codes, witness):
    """The structural decoder of clique_to_vectorsum witnesses as it was:
    each index decoded to its origin under the emission order (vertex v in
    slot s at v*k + s-1, then per edge, per slot pair, both orientations),
    then exactly one vertex vector per slot, one edge vector per slot pair,
    and edge codes equal to the codes of the slot vertices."""
    k, n = g.k, g.n
    pairs = list(combinations(range(1, k + 1), 2))
    slot_vertex, pair_edges = {}, {}
    for idx in sorted(witness):
        if idx < k * n:
            v, slot = idx // k, idx % k + 1
            if slot in slot_vertex:
                raise ValueError(f"two vertex vectors claim slot {slot}")
            slot_vertex[slot] = v
            continue
        e, rest = divmod(idx - k * n, 2 * len(pairs))
        (i, j), orient = pairs[rest // 2], rest % 2
        u, v = g.edges[e]
        if (i, j) in pair_edges:
            raise ValueError(f"two edge vectors claim slot pair ({i},{j})")
        pair_edges[(i, j)] = (u, v) if orient == 0 else (v, u)
    if len(slot_vertex) != k or len(pair_edges) != len(pairs):
        raise ValueError("witness is not k vertex vectors plus one edge vector per pair")
    for (i, j), (first, second) in pair_edges.items():
        if codes[first] != codes[slot_vertex[i]] or codes[second] != codes[slot_vertex[j]]:
            raise ValueError(f"edge codes at pair ({i},{j}) do not match the slot vertices")
    return tuple(sorted(slot_vertex.values()))


def all_sum_witnesses(values, k, target):
    """Every k-subset of values, ints or int vectors, whose sum is target, as
    sorted index tuples, met in the middle: the first k // 2 indices (k >= 2),
    then the rest, all above them."""
    vecs = [v if isinstance(v, tuple) else (v,) for v in values]
    goal = target if isinstance(target, tuple) else (target,)

    def total(idxs):
        return tuple(map(sum, zip(*(vecs[i] for i in idxs))))

    tails = {}
    for idxs in combinations(range(len(vecs)), k - k // 2):
        tails.setdefault(total(idxs), []).append(idxs)
    found = []
    for head in combinations(range(len(vecs)), k // 2):
        rest = tuple(map(sub, goal, total(head)))
        found += [head + tail for tail in tails.get(rest, ()) if tail[0] > head[-1]]
    return sorted(found)


def normalize_edges_reference(n, edges):
    """normalize_edges as it was before its canonical-tuple fast path: every
    edge converted with int() and checked in input order, a set from the
    first edge out of order, then one final sort."""
    out = []
    seen = None
    for raw in edges:
        u, v = int(raw[0]), int(raw[1])
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if seen is None:
            if not out or out[-1] < e:
                out.append(e)
                continue
            seen = set(out)
        if e in seen:
            raise ValidationError(f"duplicate edge {e}")
        seen.add(e)
    return tuple(out) if seen is None else tuple(sorted(seen))


def partition_reference(n, k, edges, partition):
    """CliqueInstance's partition check as it was: every entry converted with
    int(), then the length, min and max over all k*n entries, and each
    (normalized) edge's two slots."""
    part = tuple(map(int, partition))
    if len(part) != n:
        raise ValidationError("partition length differs from n")
    if part and not 1 <= min(part) <= max(part) <= k:
        bad = next(s for s in part if not 1 <= s <= k)
        raise ValidationError(f"slot {bad} outside [1,{k}]")
    for u, v in edges:
        if part[u] == part[v]:
            raise ValidationError(f"edge ({u},{v}) joins two slot-{part[u]} vertices")
    return part


def is_clique_reference(edges, ws):
    """The clique test as it was: one set of the edges per call."""
    edge_set = set(edges)
    return all((ws[a], ws[b]) in edge_set for a in range(len(ws)) for b in range(a + 1, len(ws)))


def pack_mixed_reference(vec, radices):
    """pack_mixed's per-coordinate loop, kept here as a fixed reference: each
    range check before its digit, then zip's strict length check."""
    total = 0
    scale = 1
    for c, r in zip(vec, radices, strict=True):
        if not 0 <= c < r:
            raise ValidationError(f"coordinate {c} outside its radix [0,{r})")
        total += c * scale
        scale *= r
    return total


def peak_traced_bytes(call):
    """Peak bytes Python allocated while call() ran, by tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def squaring_edge_weight(u_vec, v_vec, k):
    """Per-coordinate u^2 + v^2 + 2(k-1)uv, summed; on any k vertices the
    pairwise total telescopes to (k-1) * sum of squared coordinate sums."""
    total = 0
    for a, b in zip(u_vec, v_vec):
        total += a * a + b * b + 2 * (k - 1) * a * b
    return total


def complete_edges(n):
    return tuple(combinations(range(n), 2))


def cycle_edges(n):
    return tuple((i, (i + 1) % n) for i in range(n))


def make_ksum(numbers, k, target, lo=None, hi=None):
    nums = tuple(int(x) for x in numbers)
    lo = min(nums, default=0) if lo is None else lo
    hi = max(nums, default=0) if hi is None else hi
    return KSumInstance(k=k, numbers=nums, target=target, bounds=(min(lo, 0), max(hi, 0)))


def make_clique(n, edges, k):
    return CliqueInstance(n=n, edges=tuple(edges), k=k)


def make_nw_graph(n, edges, k, weights, target):
    return WeightedGraph(
        n=n,
        edges=tuple(edges),
        k=k,
        node_weights=tuple(weights),
        edge_weights=None,
        weight_bound=max((abs(w) for w in weights), default=0),
        target=target,
    )


def make_ew_graph(n, edges, k, weights, target=0):
    """weights runs parallel to edges; stored as (u, v, w) triples."""
    triples = tuple((u, v, w) for (u, v), w in zip(edges, weights, strict=True))
    return WeightedGraph(
        n=n,
        edges=tuple(edges),
        k=k,
        node_weights=None,
        edge_weights=triples,
        weight_bound=max((abs(w) for w in weights), default=0),
        target=target,
    )


def make_vectorsum(vectors, k, target, lo=None, hi=None):
    vecs = tuple(tuple(int(x) for x in v) for v in vectors)
    flat = [x for v in vecs for x in v] or [0]
    lo = min(flat) if lo is None else lo
    hi = max(flat) if hi is None else hi
    return VectorSumInstance(
        k=k,
        dim=len(vecs[0]) if vecs else len(target),
        vectors=vecs,
        target=tuple(target),
        entry_bounds=(min(lo, 0), max(hi, 0)),
    )
