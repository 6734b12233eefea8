"""Backward reductions: unweighted k-Clique down to k'-Vector-SUM and on to
plain k'-SUM, with witness decoding back to vertex sets.

Vertices and edges become vectors over k'' = k^2+k+1 coordinates: one
coordinate per clique slot, one per slot pair, and a final count coordinate.
Vertex codes are drawn from a k-sum-free set, so a slot coordinate can only
reach its target when the k-1 edge vectors meeting that slot all carry the
code of the vertex standing there. Packing the coordinates into one radix
turns the vector instance into an ordinary k'-SUM instance carry-free.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import lt, mul
from typing import Iterable, Sequence

from . import reduce_sum_to_clique as fwd
from .instances import (
    CliqueInstance,
    KSumInstance,
    MalformedWitnessError,
    ParameterError,
    ResourceBudgetError,
    ValidationError,
    VectorSumInstance,
    verify_witness,
)
from .sumfree import behrend_sumfree, greedy_sumfree_elements

GREEDY_CODE_LIMIT = 64


def encode_vertices(n: int, k: int) -> tuple[int, ...]:
    """n distinct nonnegative k-sum-free vertex codes: at desk scale the
    integers whose base-k digits are 0 or 1 (`greedy_sumfree_elements`, the
    smaller max element), beyond it the digit-norm `behrend_sumfree` set."""
    if n == 0:
        return ()
    if n <= GREEDY_CODE_LIMIT and k <= 4:
        return greedy_sumfree_elements(n, k)
    return behrend_sumfree(n, k).elements


def _pair_coord(i: int, j: int, k: int) -> int:
    # 1-indexed coordinate k*i+j of the paper's layout, shifted to 0-indexed
    return k * i + j - 1


def vector_count(n: int, m: int, k: int) -> int:
    return k * n + 2 * math.comb(k, 2) * m


def _check_vector_budget(g: CliqueInstance) -> None:
    """Refuse a vector instance of more than VECTOR_BUDGET coordinates in
    all (vector_count vectors of k^2+k+1 each), before any vertex is encoded
    or slot pair built."""
    k = g.k
    count, dim = vector_count(g.n, g.m, k), k * k + k + 1
    if count * dim > fwd.VECTOR_BUDGET:
        raise ResourceBudgetError(f"{count} vectors of {dim} coordinates exceed the work budget {fwd.VECTOR_BUDGET}")


def clique_to_vectorsum(g: CliqueInstance) -> VectorSumInstance:
    """Arity k+C(k,2) vector instance solvable iff g has a k-clique.

    The slot threshold T = (k-1)*Q + 1, Q the largest vertex code, is one
    more than k-1 codes can ever sum to, so a slot coordinate hitting it
    pins down the slot's vertex.

    Emission order: vertex vectors grouped by vertex with slots inner, then
    per edge, per slot pair, both orientations. Both orientations are needed:
    a single fixed orientation can wire a clique's slot assignment into a
    cycle with no consistent placement.
    """
    k, n = g.k, g.n
    if k < 2:
        raise ParameterError(f"arity must be >= 2, got {k}")
    _check_vector_budget(g)
    codes = encode_vertices(n, k)
    dim = k * k + k + 1
    t_thresh = (k - 1) * max(codes, default=0) + 1
    pairs = fwd.slot_pairs(k)
    vectors: list[tuple[int, ...]] = []
    for v in range(n):
        for slot in range(1, k + 1):
            vec = [0] * dim
            vec[slot - 1] = t_thresh - (k - 1) * codes[v]
            vec[dim - 1] = 1
            vectors.append(tuple(vec))
    for u, v in g.edges:
        for i, j in pairs:
            for first, second in ((u, v), (v, u)):
                vec = [0] * dim
                vec[i - 1] += codes[first]
                vec[j - 1] += codes[second]
                vec[_pair_coord(i, j, k)] += 1
                vectors.append(tuple(vec))
    target = [0] * dim
    for slot in range(1, k + 1):
        target[slot - 1] = t_thresh
    for i, j in pairs:
        target[_pair_coord(i, j, k)] = 1
    target[dim - 1] = k
    arity = k + len(pairs)
    return VectorSumInstance(
        k=arity,
        dim=dim,
        vectors=tuple(vectors),
        target=tuple(target),
        entry_bounds=(0, max(t_thresh, k)),
    )


def pack_uniform(vec: Iterable[int], p: int) -> int:
    """pack_mixed with radix p on every coordinate."""
    coords = tuple(vec)
    return pack_mixed(coords, (p,) * len(coords))


def pack_mixed(vec: Iterable[int], radices: Iterable[int]) -> int:
    """Coordinate i of vec, in [0, radices[i]), as digit i of a mixed-radix int."""
    total = 0
    scale = 1
    for c, r in zip(vec, radices, strict=True):
        if not 0 <= c < r:
            raise ValidationError(f"coordinate {c} outside its radix [0,{r})")
        total += c * scale
        scale *= r
    return total


def _pack_vectors(vectors: Sequence[Sequence[int]], radices: tuple[int, ...]) -> tuple[int, ...]:
    """pack_mixed of each vector. The whole list is checked at C level: every
    length, then each coordinate's largest and smallest entry, over the columns
    of the transpose. If that passes, each vector packs as one dot product with
    place values computed once; otherwise every vector goes through pack_mixed
    in order, so the first bad one raises pack_mixed's error."""
    columns = list(zip(*vectors))
    if (set(map(len, vectors)) <= {len(radices)} and all(map(lt, map(max, columns), radices))
            and (not columns or min(map(min, columns)) >= 0)):
        places = list(accumulate(radices[:-1], mul, initial=1))
        return tuple([sum(map(mul, vec, places)) for vec in vectors])
    return tuple([pack_mixed(vec, radices) for vec in vectors])


def vectorsum_to_ksum(inst: VectorSumInstance) -> KSumInstance:
    """Pack coordinates in radix kM+1; per-coordinate sums of k entries stay
    below the radix, so solvability and witnesses transfer exactly.

    A target entry outside [0, kM] cannot be hit by any k entries in [0, M];
    such instances pack to the sentinel target -1 (numbers are nonnegative,
    so the output is unsolvable too)."""
    lo, hi = inst.entry_bounds
    if lo < 0:
        raise ParameterError("entries must be nonnegative; shift the instance first")
    p = inst.k * hi + 1
    numbers = _pack_vectors(inst.vectors, (p,) * inst.dim)
    if inst.trivially_unsolvable:
        target = -1
    else:
        target = pack_uniform(inst.target, p)
    return KSumInstance(
        k=inst.k,
        numbers=numbers,
        target=target,
        bounds=(0, pack_uniform([hi] * inst.dim, p)),
    )


def mixed_radices(k: int, t_thresh: int) -> tuple[int, ...]:
    """Per-coordinate radices: k'T+1 on the k slot coordinates, k'k+1 on the
    k^2+1 remaining coordinates, whose entries never exceed k."""
    arity = k + math.comb(k, 2)
    return (arity * t_thresh + 1,) * k + (arity * k + 1,) * (k * k + 1)


def kclique_to_ksum(g: CliqueInstance, radix_mode: str = "uniform") -> KSumInstance:
    """k-Clique to plain k'-SUM, k' = k + C(k,2), via the vector encoding.

    uniform packs every coordinate in radix k'T+1; mixed packs the small-entry
    coordinates in the tighter radix k'k+1, shrinking the numbers.
    """
    if radix_mode not in ("uniform", "mixed"):
        raise ParameterError(f"unknown radix mode {radix_mode!r}")
    vs = clique_to_vectorsum(g)
    if radix_mode == "uniform":
        return vectorsum_to_ksum(vs)
    k, t_thresh = g.k, vs.target[0]  # slot 1's target is the threshold T
    radices = mixed_radices(k, t_thresh)
    numbers = _pack_vectors(vs.vectors, radices)
    target = pack_mixed(vs.target, radices)
    top = pack_mixed([t_thresh] * k + [k] * (k * k + 1), radices)
    return KSumInstance(k=vs.k, numbers=numbers, target=target, bounds=(0, top))


def _clique_vertices(g: CliqueInstance, witness: Iterable[int]) -> tuple[int, ...]:
    """The sorted vertices of the vertex vectors in a witness of g's vector
    or packed instance: index i < k*n is vertex i // k, and packing keeps
    index sets.

    If the witness holds, they are a k-clique of g. Only vertex vectors
    touch the count coordinate, so there are k of them. A slot coordinate
    without one sums at most k-1 edge codes, below the threshold T, so
    each slot has exactly one. The pair coordinates take one edge vector
    per slot pair. With code c in slot s, the slot sums T - (k-1)c plus
    k-1 edge codes, which must then sum to (k-1)c; the codes are
    k-sum-free and injective, so each edge vector joins the vertices of
    its two slots, and these differ because g has no loops.
    """
    kn = g.k * g.n
    return tuple(sorted(i // g.k for i in witness if i < kn))


def _lift_to_clique(g: CliqueInstance, inst: VectorSumInstance | KSumInstance, kind: str,
                    witness: Iterable[int]) -> tuple[int, ...]:
    """Check a witness of g's vector or packed instance inst, project it
    with _clique_vertices and check the result in g."""
    idxs = tuple(sorted(witness))
    if not verify_witness(inst, idxs):
        raise MalformedWitnessError(f"witness does not verify in the {kind} instance")
    verts = _clique_vertices(g, idxs)
    if not verify_witness(g, verts):
        raise MalformedWitnessError("decoded vertices are not a k-clique")
    return verts


def lift_vectorsum_witness_to_clique(g: CliqueInstance, witness: Iterable[int]) -> tuple[int, ...]:
    """The k-clique of g that a witness of its vector instance encodes."""
    return _lift_to_clique(g, clique_to_vectorsum(g), "vector", witness)


def lift_ksum_witness_to_clique(g: CliqueInstance, witness: Iterable[int], radix_mode: str = "uniform") -> tuple[int, ...]:
    """The k-clique of g that a witness of its packed k'-SUM instance encodes."""
    return _lift_to_clique(g, kclique_to_ksum(g, radix_mode), "packed", witness)
