"""Clique-to-sum direction: sum-free vertex codes, slot/pair vectors,
radix packing, and witness decoding."""

import random
from dataclasses import replace
from itertools import combinations
from math import comb

import pytest

from ksumclique import (
    CliqueInstance,
    MalformedWitnessError,
    ParameterError,
    ResourceBudgetError,
    ValidationError,
    behrend_sumfree,
    greedy_sumfree_elements,
    solve_ksum_mim,
    solve_vectorsum_bruteforce,
    verify_sumfree,
)
from ksumclique import reduce_clique_to_sum as bwd
from ksumclique import reduce_sum_to_clique as fwd
from ksumclique import solvers
from ksumclique.cli import REDUCTIONS

from util import (
    all_sum_witnesses,
    complete_edges,
    cycle_edges,
    decode_vector_witness_reference,
    oracle_kclique,
    oracle_ksum,
    oracle_vectorsum,
    pack_mixed_reference,
)


def test_encoding_properties():
    """On both code sources, greedy at n <= 64 and k <= 4 and digit-norm
    beyond, the codes are n distinct nonnegative k-sum-free ints, and the
    vector instance has k^2+k+1 coordinates and slot targets (k-1)*max + 1,
    one more than k-1 codes can sum to."""
    for n, k in [(1, 2), (9, 2), (64, 2), (12, 3), (64, 3), (30, 4), (64, 4),  # greedy
                 (7, 5), (6, 6), (65, 2), (65, 3), (100, 3), (70, 4)]:  # digit-norm
        codes = bwd.encode_vertices(n, k)
        assert type(codes) is tuple and len(set(codes)) == len(codes) == n and min(codes) >= 0
        assert verify_sumfree(codes, k)
        greedy = n <= bwd.GREEDY_CODE_LIMIT and k <= 4
        assert codes == (greedy_sumfree_elements(n, k) if greedy else behrend_sumfree(n, k).elements)
        vs = bwd.clique_to_vectorsum(CliqueInstance(n=n, edges=((0, n - 1),) if n > 1 else (), k=k))
        assert vs.dim == k * k + k + 1
        assert vs.target[:k] == ((k - 1) * max(codes) + 1,) * k


def test_encoding_rejects_duplicate_or_negative_codes():
    """`verify_sumfree`, with which the tests certify the base-k 0/1 codes,
    refuses duplicate codes, and the digit-norm `SumFreeSet` refuses a
    duplicate and a negative one."""
    with pytest.raises(ValidationError, match="distinct"):
        verify_sumfree((1, 1), 2)
    built = behrend_sumfree(5, 3)
    x = built.elements[0]
    with pytest.raises(ValidationError, match="distinct"):
        replace(built, elements=(x, x) + built.elements[1:])
    with pytest.raises(ValidationError, match="outside"):
        replace(built, elements=(-1,) + built.elements[1:])


def test_encode_vertices_small_uses_greedy():
    codes = bwd.encode_vertices(5, 3)
    assert codes == (0, 1, 3, 4, 9)
    assert verify_sumfree(codes, 3)


def test_encode_vertices_large_certifies():
    codes = bwd.encode_vertices(80, 3)
    assert len(codes) == 80
    assert verify_sumfree(codes, 3)


def test_single_edge_worked_example():
    assert bwd.encode_vertices(2, 2) == (0, 1)
    g = CliqueInstance(n=2, edges=((0, 1),), k=2)
    vs = bwd.clique_to_vectorsum(g)
    assert vs.dim == 7
    assert vs.k == 3  # k + C(k,2) selections
    # T = (k-1)*1 + 1 = 2; vertex vectors by vertex, slots inner, then the
    # edge in pair (1,2), both orientations
    assert vs.vectors == (
        (2, 0, 0, 0, 0, 0, 1),  # v1 in slot 1
        (0, 2, 0, 0, 0, 0, 1),  # v1 in slot 2
        (1, 0, 0, 0, 0, 0, 1),  # v2 in slot 1
        (0, 1, 0, 0, 0, 0, 1),  # v2 in slot 2
        (0, 1, 0, 1, 0, 0, 0),  # edge (v1,v2)
        (1, 0, 0, 1, 0, 0, 0),  # edge (v2,v1)
    )
    assert vs.target == (2, 2, 0, 1, 0, 0, 2)
    assert tuple(
        sum(col) for col in zip(vs.vectors[0], vs.vectors[3], vs.vectors[4])
    ) == vs.target


def test_single_edge_witness_lifts():
    g = CliqueInstance(n=2, edges=((0, 1),), k=2)
    vs = bwd.clique_to_vectorsum(g)
    w = oracle_vectorsum(vs.vectors, vs.k, vs.target)
    assert w == (0, 3, 4)
    assert bwd.lift_vectorsum_witness_to_clique(g, w) == (0, 1)


def test_edgeless_graph_is_unsolvable():
    g = CliqueInstance(n=3, edges=(), k=2)
    vs = bwd.clique_to_vectorsum(g)
    assert oracle_vectorsum(vs.vectors, vs.k, vs.target) is None


def test_vector_count_formula():
    for n, edges, k in [
        (3, complete_edges(3), 3),
        (5, cycle_edges(5), 3),
        (4, ((0, 1), (2, 3)), 2),
    ]:
        g = CliqueInstance(n=n, edges=tuple(edges), k=k)
        vs = bwd.clique_to_vectorsum(g)
        assert len(vs.vectors) == bwd.vector_count(n, len(g.edges), k)
        assert bwd.vector_count(n, len(g.edges), k) == k * n + 2 * comb(k, 2) * len(g.edges)


def test_vectors_are_emitted_vertex_major_then_edge_blocks():
    # _clique_vertices reads vertex i // k off index i < k*n
    g = CliqueInstance(n=3, edges=((0, 1), (1, 2)), k=3)
    codes = bwd.encode_vertices(3, 3)
    vs = bwd.clique_to_vectorsum(g)
    k = 3
    dim, t = k * k + k + 1, (k - 1) * max(codes) + 1
    for v in range(g.n):
        for slot in range(k):
            want = [0] * dim
            want[slot], want[-1] = t - (k - 1) * codes[v], 1
            assert vs.vectors[k * v + slot] == tuple(want)
    pairs = list(combinations(range(1, k + 1), 2))
    edge_vectors = iter(vs.vectors[k * g.n:])
    for u, v in g.edges:
        for i, j in pairs:
            for first, second in ((u, v), (v, u)):
                want = [0] * dim
                want[i - 1], want[j - 1], want[k * i + j - 1] = codes[first], codes[second], 1
                assert next(edge_vectors) == tuple(want)
    assert next(edge_vectors, None) is None
    assert bwd._clique_vertices(g, range(len(vs.vectors))) == (0, 0, 0, 1, 1, 1, 2, 2, 2)


def test_pack_uniform_frozen():
    assert bwd.pack_uniform((0, 0, 0), 3) == 0
    assert bwd.pack_uniform((1, 0, 1), 3) == 10


def test_pack_uniform_injective_random():
    rng = random.Random(13)
    for _ in range(100):
        dim = rng.randint(1, 5)
        hi = rng.randint(1, 6)
        p = 2 * hi + 1
        a = tuple(rng.randint(0, hi) for _ in range(dim))
        b = tuple(rng.randint(0, hi) for _ in range(dim))
        if a != b:
            assert bwd.pack_uniform(a, p) != bwd.pack_uniform(b, p)


def test_vectorsum_to_ksum_worked_example():
    from util import make_vectorsum

    vs = make_vectorsum([(1, 1), (1, 0)], 2, (2, 1), lo=0, hi=1)
    ks = bwd.vectorsum_to_ksum(vs)
    assert ks.numbers == (4, 1)
    assert ks.target == 5
    assert oracle_ksum(ks.numbers, 2, ks.target) == (0, 1) == oracle_vectorsum(vs.vectors, 2, vs.target)


def test_vectorsum_to_ksum_flags_unreachable_target():
    from util import make_vectorsum

    vs = make_vectorsum([(1,), (1,)], 2, (9,), lo=0, hi=1)
    ks = bwd.vectorsum_to_ksum(vs)
    assert ks.target == -1  # sentinel below the nonnegative packing range
    assert oracle_ksum(ks.numbers, 2, ks.target) is None


def test_pack_mixed_respects_per_coordinate_radices():
    radices = (5, 3, 7)
    seen = set()
    for vec in [(0, 0, 0), (4, 2, 6), (1, 2, 3), (4, 0, 1)]:
        packed = bwd.pack_mixed(vec, radices)
        assert packed not in seen
        seen.add(packed)
    with pytest.raises(ValidationError):
        bwd.pack_mixed((5, 0, 0), radices)


def _pack_outcome(pack, *args):
    """("packed", the result) or ("raised", the exception type, its message)."""
    try:
        return "packed", pack(*args)
    except ValueError as exc:  # ValidationError, or zip's length mismatch
        return "raised", type(exc), str(exc)


def _reference_pack_all(vectors, radices):
    """The reference packer over a list: the packed ints, or the first error."""
    packed = []
    for vec in vectors:
        outcome = _pack_outcome(pack_mixed_reference, vec, radices)
        if outcome[0] == "raised":
            return outcome
        packed.append(outcome[1])
    return "packed", tuple(packed)


def _random_radices(rng, dim):
    if rng.random() < 0.5:
        return (rng.choice((2, 3, 19, 2**61 + 1)),) * dim
    return tuple(rng.choice((2, 7, 10**12, 2**90 + 3)) for _ in range(dim))


def _faulty(rng, vec, radices):
    """vec with one fault: a coordinate at, above or below its radix range,
    or one coordinate too many or too few, possibly after a bad one."""
    vec = list(vec)
    fault = rng.choice(("high", "negative", "long", "short", "long and high"))
    if vec and fault in ("high", "negative", "long and high"):
        j = rng.randrange(len(vec))
        vec[j] = radices[j] + rng.choice((0, 0, 1, 10**30)) if fault != "negative" else -rng.choice((1, 2**70))
    if fault.startswith("long"):
        vec.append(rng.choice((0, 1)))
    elif fault == "short" and vec:
        vec.pop()
    return tuple(vec)


def test_list_packer_matches_the_coordinate_loop(monkeypatch):
    """The list packer gives the per-coordinate loop's ints, or its first
    error with the same type and message, on seeded vectors of dims 0-13 in
    uniform and mixed radices, big entries and one fault per bad vector; a
    list of good vectors never runs the loop."""
    rng = random.Random(71)
    loops = []
    real = bwd.pack_mixed
    monkeypatch.setattr(bwd, "pack_mixed", lambda *args: loops.append(args) or real(*args))
    faulty_seen = set()
    for _ in range(1500):
        dim = rng.randint(0, 13)
        radices = _random_radices(rng, dim)
        vectors = [tuple(rng.choice((0, r - 1, rng.randrange(r))) for r in radices) for _ in range(rng.randint(0, 6))]
        del loops[:]
        assert _pack_outcome(bwd._pack_vectors, vectors, radices) == _reference_pack_all(vectors, radices)
        assert not loops
        if rng.random() < 0.6:
            at = rng.randint(0, len(vectors))
            vectors.insert(at, _faulty(rng, vectors[at - 1] if vectors else (0,) * dim, radices))
        expected = _reference_pack_all(vectors, radices)
        assert _pack_outcome(bwd._pack_vectors, vectors, radices) == expected, (vectors, radices)
        if expected[0] == "raised":
            faulty_seen.add(expected[1])
    assert faulty_seen == {ValidationError, ValueError}
    for j in range(5):
        radices = (5, 3, 7, 2, 11)
        for bad in (radices[j], radices[j] + 1, -1):
            vec = tuple(bad if i == j else radices[i] - 1 for i in range(5))
            assert _pack_outcome(bwd._pack_vectors, [(0,) * 5, vec], radices) == (
                "raised", ValidationError, f"coordinate {bad} outside its radix [0,{radices[j]})")
            assert _pack_outcome(bwd._pack_vectors, [vec + (0,)], radices)[1] is ValidationError
    assert _pack_outcome(bwd._pack_vectors, [(1, 2)], (5, 3, 7)) == _pack_outcome(
        pack_mixed_reference, (1, 2), (5, 3, 7))


def test_kclique_to_ksum_triangle_both_modes():
    k3 = CliqueInstance(n=3, edges=complete_edges(3), k=3)
    for mode in ("uniform", "mixed"):
        ks = bwd.kclique_to_ksum(k3, radix_mode=mode)
        assert ks.k == 3 + comb(3, 2)
        rep = solve_ksum_mim(ks)
        assert rep.solvable
        lifted = bwd.lift_ksum_witness_to_clique(k3, rep.witness, radix_mode=mode)
        assert lifted == (0, 1, 2)


def test_kclique_to_ksum_five_cycle_unsolvable():
    c5 = CliqueInstance(n=5, edges=cycle_edges(5), k=3)
    for mode in ("uniform", "mixed"):
        assert not solve_ksum_mim(bwd.kclique_to_ksum(c5, radix_mode=mode)).solvable


def test_mixed_numbers_smaller_than_uniform():
    rng = random.Random(14)
    for _ in range(10):
        n = rng.randint(3, 6)
        edges = tuple(e for e in complete_edges(n) if rng.random() < 0.7)
        g = CliqueInstance(n=n, edges=edges, k=3)
        uni = bwd.kclique_to_ksum(g, radix_mode="uniform")
        mix = bwd.kclique_to_ksum(g, radix_mode="mixed")
        assert max(mix.numbers, default=0) < max(uni.numbers, default=1)


# (n, k, edges) -> witness and probes of solve_ksum_mim on the packed
# instance, identical in both radix modes; recorded from the whole-table
# meet in the middle
PACKED_MIM_FROZEN = [
    (3, 3, ((0, 1), (0, 2), (1, 2)), (0, 4, 8, 9, 17, 25), 2208),
    (5, 3, ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4)), None, 14190),
    (5, 3, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)), (0, 4, 8, 15, 23, 37), 10319),
    (6, 3, ((0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)), (9, 13, 17, 36, 44, 52), 24087),
    (6, 3, ((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)), None, 59640),
    (8, 3, ((0, 5), (0, 6), (1, 2), (1, 4), (2, 4), (3, 7), (5, 6), (6, 7)), (0, 16, 20, 24, 32, 64), 42677),
    (9, 3, ((0, 2), (1, 8), (2, 5), (3, 4), (3, 6), (4, 8), (5, 7), (6, 7), (6, 8), (7, 8)),
     (18, 22, 26, 69, 77, 85), 105278),
    (4, 2, ((1, 3),), (2, 7, 8), 9),
    (3, 2, (), None, 6),
]


def test_packed_mim_frozen():
    for n, k, edges, witness, probes in PACKED_MIM_FROZEN:
        g = CliqueInstance(n=n, edges=edges, k=k)
        for mode in ("uniform", "mixed"):
            rep = solve_ksum_mim(bwd.kclique_to_ksum(g, radix_mode=mode))
            assert (rep.witness, rep.stats["probes"]) == (witness, probes), (n, edges, mode)
            if witness is not None:
                lifted = bwd.lift_ksum_witness_to_clique(g, witness, radix_mode=mode)
                assert lifted == oracle_kclique(n, edges, k)


@pytest.mark.parametrize("reduce", [bwd.clique_to_vectorsum, bwd.kclique_to_ksum], ids=["vectors", "packed"])
def test_backward_reductions_refuse_arity_one_alike(reduce):
    with pytest.raises(ParameterError, match=r"^arity must be >= 2, got 1$"):
        reduce(CliqueInstance(n=4, edges=((0, 1),), k=1))


def test_no_vertices_encode_to_no_codes():
    # k >= 5 would take the digit-norm construction, which needs n >= 1
    for k in range(2, 7):
        assert bwd.encode_vertices(0, k) == ()


def test_packed_mim_budget_guard(monkeypatch):
    k4 = CliqueInstance(n=4, edges=complete_edges(4), k=4)
    ks = bwd.kclique_to_ksum(k4)
    assert ks.n == 88 and comb(88, 5) > 20_000_000
    with pytest.raises(ResourceBudgetError):
        solve_ksum_mim(ks)
    tri = bwd.kclique_to_ksum(CliqueInstance(n=3, edges=complete_edges(3), k=3))
    monkeypatch.setattr(solvers, "DEFAULT_BUDGET", comb(tri.n, 3) - 1)
    with pytest.raises(ResourceBudgetError):
        solve_ksum_mim(tri)
    monkeypatch.setattr(solvers, "DEFAULT_BUDGET", comb(tri.n, 3))
    assert solve_ksum_mim(tri).solvable


def test_lift_builds_the_vector_instance_once(monkeypatch):
    calls = []
    build = bwd.clique_to_vectorsum

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(bwd, "clique_to_vectorsum", counted)
    k3 = CliqueInstance(n=3, edges=complete_edges(3), k=3)
    for mode in ("uniform", "mixed"):
        witness = solve_ksum_mim(bwd.kclique_to_ksum(k3, radix_mode=mode)).witness
        calls.clear()
        assert bwd.lift_ksum_witness_to_clique(k3, witness, radix_mode=mode) == (0, 1, 2)
        assert len(calls) == 1
        calls.clear()
        with pytest.raises(MalformedWitnessError, match="^witness does not verify in the packed instance$"):
            bwd.lift_ksum_witness_to_clique(k3, witness[:-1] + (witness[-1] + 1,), radix_mode=mode)
        assert len(calls) == 1
    vs = bwd.clique_to_vectorsum(k3)
    witness = solve_vectorsum_bruteforce(vs).witness
    calls.clear()
    with pytest.raises(MalformedWitnessError, match="^witness does not verify in the vector instance$"):
        bwd.lift_vectorsum_witness_to_clique(k3, witness[:-1] + (witness[-1] + 1,))
    assert len(calls) == 1


@pytest.mark.parametrize("witness, want", [
    ((0, 3, 8, 9, 11, 13), (0, 1, 2)),
    ((0, 4, 8, 9, 15, 13), (0, 1, 2)),
    ((0, 1, 9, 11, 13), None),
    ((0, 4, 8, 9, 11, 13), (0, 1, 2)),
], ids=["slot-1-twice", "pair-12-twice", "vertex-0-twice", "codes-off-slots"])
def test_unchecked_witness_lifts_to_a_clique_or_is_refused(monkeypatch, witness, want):
    # with the sum checks waved through, the end check still refuses
    # whatever does not project to a k-clique of g
    real_verify = bwd.verify_witness

    def sums_pass(inst, w):
        return real_verify(inst, w) if isinstance(inst, CliqueInstance) else True

    monkeypatch.setattr(bwd, "verify_witness", sums_pass)
    k3 = CliqueInstance(n=3, edges=complete_edges(3), k=3)
    for lift in (lambda: bwd.lift_ksum_witness_to_clique(k3, witness, radix_mode="mixed"),
                 lambda: bwd.lift_vectorsum_witness_to_clique(k3, witness)):
        if want is None:
            with pytest.raises(MalformedWitnessError):
                lift()
        else:
            assert lift() == want


def test_projection_matches_the_structural_decoder():
    """On every witness of the vector and both packed instances of seeded
    graphs at k = 2 and 3, the projection, the public lifts and the CLI
    lift all give what the structural decoder gives."""
    rng = random.Random(2707)
    checked = {2: 0, 3: 0}
    for k, n_hi, count in ((2, 6, 30), (3, 4, 20)):
        for _ in range(count):
            n = rng.randint(k, n_hi)
            g = CliqueInstance(n=n, edges=tuple(e for e in complete_edges(n) if rng.random() < 0.6), k=k)
            codes = bwd.encode_vertices(n, k)
            vs = bwd.clique_to_vectorsum(g)
            witnesses = all_sum_witnesses(vs.vectors, vs.k, vs.target)
            wants = [decode_vector_witness_reference(g, codes, w) for w in witnesses]
            coll = REDUCTIONS["clique_to_vectorsum"].reduce(g, {})
            for w, want in zip(witnesses, wants):
                assert bwd._clique_vertices(g, w) == bwd.lift_vectorsum_witness_to_clique(g, w) == coll.lift(0, w) == want
            for mode in ("uniform", "mixed"):
                ks = bwd.kclique_to_ksum(g, mode)
                assert all_sum_witnesses(ks.numbers, ks.k, ks.target) == witnesses
                coll = REDUCTIONS["kclique_to_ksum"].reduce(g, {"radix_mode": mode})
                for w, want in zip(witnesses, wants):
                    assert bwd.lift_ksum_witness_to_clique(g, w, mode) == coll.lift(0, w) == want
            checked[k] += len(witnesses)
    assert checked[2] > 200 and checked[3] > 50


def test_lift_rejects_wrong_shape_witness():
    k3 = CliqueInstance(n=3, edges=complete_edges(3), k=3)
    vs = bwd.clique_to_vectorsum(k3)
    # six vertex vectors never sum to the target's pair coordinates
    with pytest.raises(MalformedWitnessError):
        bwd.lift_vectorsum_witness_to_clique(k3, tuple(range(vs.k)))


def test_backward_equivalence_random_graphs():
    rng = random.Random(15)
    for _ in range(25):
        k = rng.choice([2, 3])
        n = rng.randint(k, 6)
        edges = tuple(e for e in complete_edges(n) if rng.random() < 0.5)
        g = CliqueInstance(n=n, edges=edges, k=k)
        want = oracle_kclique(n, edges, k) is not None
        mode = rng.choice(["uniform", "mixed"])
        ks = bwd.kclique_to_ksum(g, radix_mode=mode)
        rep = solve_ksum_mim(ks)
        assert rep.solvable == want
        if rep.solvable:
            lifted = bwd.lift_ksum_witness_to_clique(g, rep.witness, radix_mode=mode)
            assert oracle_kclique(n, tuple(set(edges) & set(combinations(lifted, 2))), k) is not None


def test_vectorsum_route_matches_clique_oracle():
    # k=2 keeps the 3-of-n enumeration small; one fixed k=3 case rides along
    rng = random.Random(16)
    for _ in range(15):
        n = rng.randint(2, 6)
        edges = tuple(e for e in complete_edges(n) if rng.random() < 0.5)
        g = CliqueInstance(n=n, edges=edges, k=2)
        vs = bwd.clique_to_vectorsum(g)
        rep = solve_vectorsum_bruteforce(vs)
        assert rep.solvable == (oracle_kclique(n, edges, 2) is not None)
        if rep.solvable:
            lifted = bwd.lift_vectorsum_witness_to_clique(g, rep.witness)
            assert all(tuple(sorted(e)) in g.edges for e in combinations(lifted, 2))
    k3 = CliqueInstance(n=3, edges=complete_edges(3), k=3)
    vs = bwd.clique_to_vectorsum(k3)
    rep = solve_vectorsum_bruteforce(vs)
    assert rep.solvable
    assert bwd.lift_vectorsum_witness_to_clique(k3, rep.witness) == (0, 1, 2)


def test_vector_budget_refuses_before_encoding(monkeypatch):
    g = CliqueInstance(n=5, edges=complete_edges(5), k=3)
    entries = bwd.vector_count(5, 10, 3) * 13  # (3*5 + 2*3*10) vectors of 3^2+3+1 coordinates
    monkeypatch.setattr(fwd, "VECTOR_BUDGET", entries)
    want_vs, want_ks = bwd.clique_to_vectorsum(g), bwd.kclique_to_ksum(g)
    monkeypatch.setattr(fwd, "VECTOR_BUDGET", entries - 1)

    def no_encoding(n, k):
        raise AssertionError("vertices encoded before the budget check")

    monkeypatch.setattr(bwd, "encode_vertices", no_encoding)
    for reduce in (bwd.clique_to_vectorsum, bwd.kclique_to_ksum):
        with pytest.raises(ResourceBudgetError, match=rf"^75 vectors of 13 coordinates exceed the work budget {entries - 1}$"):
            reduce(g)
    monkeypatch.undo()
    assert (bwd.clique_to_vectorsum(g), bwd.kclique_to_ksum(g)) == (want_vs, want_ks)


def test_unknown_radix_mode_is_refused_before_anything_is_built(monkeypatch):
    def no_encoding(n, k):
        raise AssertionError("vertices encoded before the radix mode check")

    monkeypatch.setattr(bwd, "encode_vertices", no_encoding)
    huge = CliqueInstance(n=10**6, edges=((0, 1),), k=3)  # past VECTOR_BUDGET
    k3 = CliqueInstance(n=3, edges=complete_edges(3), k=3)
    for call in (lambda: bwd.kclique_to_ksum(huge, "bogus"),
                 lambda: bwd.lift_ksum_witness_to_clique(k3, (0, 4, 8, 9, 11, 13), "bogus")):
        with pytest.raises(ParameterError, match=r"^unknown radix mode 'bogus'$"):
            call()
