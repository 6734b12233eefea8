"""Sum-to-clique direction: digit split, carry guesses, squaring weights,
zero-sum edge-weight guesses, merging, and the small-number pipeline."""

import random
from itertools import combinations, product
from math import comb, isqrt
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksumclique import (
    CliqueInstance,
    KSumInstance,
    ParameterError,
    ReducedCollection,
    ReducedItem,
    ResourceBudgetError,
    ValidationError,
    VectorSumInstance,
    WeightedGraph,
    serialize_collection,
    solve_kclique_bruteforce,
    solve_ksum_bruteforce,
    verify_witness,
)
from ksumclique import reduce_sum_to_clique as fwd

from util import (
    complete_edges,
    make_ew_graph,
    make_ksum,
    make_nw_graph,
    map_f,
    oracle_kclique,
    oracle_ksum,
    oracle_vectorsum,
    peak_traced_bytes,
    squaring_edge_weight,
    zero_sum_alphas,
)


# --- digit decomposition ---

def test_base_p_digits_frozen():
    assert fwd.base_p_digits(0, 3, 2) == (0, 0)
    assert fwd.base_p_digits(5, 3, 2) == (2, 1)
    assert fwd.base_p_digits(8, 3, 2) == (2, 2)


def test_base_p_digits_recompose_random():
    rng = random.Random(2)
    for _ in range(200):
        p = rng.randint(2, 17)
        d = rng.randint(1, 5)
        x = rng.randint(0, p**d - 1)
        assert fwd.digits_to_int(fwd.base_p_digits(x, p, d), p) == x


def test_base_p_digits_rejects_out_of_range():
    with pytest.raises(ValidationError):
        fwd.base_p_digits(9, 3, 2)
    with pytest.raises(ValidationError):
        fwd.base_p_digits(-1, 3, 2)


# --- carry guesses ---

def test_carry_targets_worked_example():
    ctx = fwd.carry_targets(4, 2, 3, 2)
    assert ctx.s == 3 == (2 + 1) ** (2 - 1)
    assert ctx.gammas == ((0,), (1,), (2,))
    assert ctx.targets == ((1, 1), (4, 0), (7, -1))
    # every target recomposes to t
    for tg in ctx.targets:
        assert fwd.digits_to_int(tg, 3) == 4
    assert [ctx.is_feasible(i) for i in range(ctx.s)] == [True, True, False]  # (7,-1) has an entry above k(p-1)=4


def test_carry_targets_d1_has_single_bare_target():
    ctx = fwd.carry_targets(0, 2, 3, 1)
    assert ctx.s == 1
    assert ctx.gammas == ((),)
    assert ctx.targets == ((0,),)


def test_carry_count_matches_formula():
    for k, d in [(2, 1), (2, 3), (3, 2), (4, 2)]:
        ctx = fwd.carry_targets(7, k, 5, d)
        assert ctx.s == (k + 1) ** (d - 1)
        assert len(ctx.targets) == ctx.s


def test_carry_targets_recompose_random():
    rng = random.Random(3)
    for _ in range(60):
        k = rng.randint(2, 4)
        p = rng.randint(k + 1, 19)
        d = rng.randint(1, 3)
        t = rng.randint(0, p**d - 1)
        ctx = fwd.carry_targets(t, k, p, d)
        for tg in ctx.targets:
            assert fwd.digits_to_int(tg, p) == t


# --- per-number digit vectors ---

def test_map_f_worked_pair():
    a = map_f(1, (1, 1), 2, 3, 2)
    b = map_f(3, (1, 1), 2, 3, 2)
    assert a == (1, -1)
    assert b == (-1, 1)
    assert tuple(x + y for x, y in zip(a, b)) == (0, 0)  # matches 1+3=4


def test_map_f_zero_fixed_point():
    assert map_f(0, (0, 0, 0), 4, 5, 3) == (0, 0, 0)


def test_map_f_cancellation_iff_sum_hits_target():
    # k vectors cancel in some carry guess exactly when the numbers sum to t
    rng = random.Random(4)
    for _ in range(80):
        k = rng.randint(2, 3)
        p = rng.randint(k + 1, 7)
        d = rng.randint(1, 3)
        nums = [rng.randint(0, p**d // k) for _ in range(k)]
        t = rng.choice([sum(nums), rng.randint(0, k * max(nums + [1]))])
        if not 0 <= t <= p**d - 1:
            continue
        ctx = fwd.carry_targets(t, k, p, d)
        cancels = False
        for gi in filter(ctx.is_feasible, range(ctx.s)):
            vecs = [map_f(x, ctx.targets[gi], k, p, d) for x in nums]
            if all(sum(col) == 0 for col in zip(*vecs)):
                cancels = True
        assert cancels == (sum(nums) == t)


# --- k-SUM to k-Vector-SUM ---

def test_ksum_to_vectorsum_worked_example():
    inst = make_ksum([1, 3, 2, 2], 2, 4)
    coll = fwd.ksum_to_vectorsum(inst, 3, 2)
    assert len(coll.items) == 2
    targets = [it.instance.target for it in coll.items]
    assert targets == [(1, 1), (4, 0)]
    assert [g["gamma"] for g in coll.params["skipped"]] == [[2]]
    assert oracle_vectorsum(coll.items[0].instance.vectors, 2, (1, 1)) == (0, 1)
    assert oracle_vectorsum(coll.items[1].instance.vectors, 2, (4, 0)) == (2, 3)


def test_ksum_to_vectorsum_zero_instance():
    coll = fwd.ksum_to_vectorsum(make_ksum([0, 0], 2, 0), 3, 1)
    assert len(coll.items) == 1
    assert coll.items[0].instance.target == (0,)
    assert oracle_vectorsum(coll.items[0].instance.vectors, 2, (0,)) is not None


def test_ksum_to_vectorsum_emitted_count_bound():
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randint(2, 4)
        d = rng.randint(1, 3)
        nums = [rng.randint(0, 20) for _ in range(rng.randint(k, 7))]
        t = rng.randint(0, k * 20)
        p = k * 20 + 1 if d == 1 else max(k + 1, 6)
        while p**d < k * max(nums) + 1:
            p += 1
        coll = fwd.ksum_to_vectorsum(make_ksum(nums, k, t), p, d)
        assert len(coll.items) <= (k + 1) ** (d - 1)


def test_ksum_to_vectorsum_or_equivalence_random():
    rng = random.Random(6)
    for _ in range(120):
        k = rng.randint(2, 3)
        nums = [rng.randint(0, 30) for _ in range(rng.randint(k, 8))]
        t = rng.randint(0, k * 30)
        d = rng.randint(1, 2)
        p = max(k + 1, 5)
        while p**d < k * max(nums) + 1:
            p += 1
        coll = fwd.ksum_to_vectorsum(make_ksum(nums, k, t), p, d)
        reduced = any(
            oracle_vectorsum(it.instance.vectors, k, it.instance.target) is not None
            for it in coll.items
        )
        assert reduced == (oracle_ksum(nums, k, t) is not None)


def test_ksum_to_vectorsum_out_of_range_target_prunes():
    coll = fwd.ksum_to_vectorsum(make_ksum([1, 1, 1, 1], 2, 9), 3, 2)
    assert coll.items == ()
    assert coll.params["range_pruned"] is True


def test_ksum_to_vectorsum_rejects_small_radix():
    with pytest.raises(ParameterError):
        fwd.ksum_to_vectorsum(make_ksum([1, 3, 2, 2], 2, 4), 2, 1)


def test_negative_numbers_are_rejected_with_guidance():
    inst = KSumInstance(k=2, numbers=(-1, 5), target=4, bounds=(-1, 5))
    with pytest.raises(ParameterError):
        fwd.ksum_to_vectorsum(inst, 11, 1)


# --- squaring edge weights ---

def test_squaring_single_edge_worked_example():
    g = make_nw_graph(2, [(0, 1)], 2, [1, 3], target=4)
    coll = fwd.nodeweight_to_edgeweight(g, p=3, d=2)
    assert len(coll.items) == 2
    first = coll.items[0].instance
    assert first.edge_weight_map()[(0, 1)] == 0  # (1+1-2)+(1+1-2)
    assert first.target == 0
    assert verify_witness(first, (0, 1))


def test_squaring_zero_vectors_give_zero_weights():
    assert squaring_edge_weight((0, 0), (0, 0), 3) == 0


def test_squaring_pairwise_identity_random():
    # sum over pairs of w(u_a, u_b) == (k-1) * sum_j (column sum)^2
    rng = random.Random(8)
    for _ in range(100):
        k = rng.randint(2, 5)
        d = rng.randint(1, 4)
        vecs = [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(k)]
        total = sum(
            squaring_edge_weight(vecs[a], vecs[b], k)
            for a, b in combinations(range(k), 2)
        )
        assert total == (k - 1) * sum(sum(col) ** 2 for col in zip(*vecs))


def test_edge_weight_cap_formula_and_bound():
    assert fwd.edge_weight_cap(2, 2, 3) == 2 * 8 * 2 * 9
    rng = random.Random(9)
    for _ in range(60):
        k = rng.randint(2, 4)
        p = rng.randint(k + 1, 9)
        d = rng.randint(1, 3)
        cap = fwd.edge_weight_cap(k, d, p)
        u = tuple(rng.randint(-k * p, k * p) for _ in range(d))
        v = tuple(rng.randint(-k * p, k * p) for _ in range(d))
        assert abs(squaring_edge_weight(u, v, k)) <= cap


def test_nodeweight_to_edgeweight_matches_per_edge_squaring_random():
    rng = random.Random(31)
    shapes = {"edgeless": 0, "empty": 0, "pruned": 0}
    for trial in range(400):
        k = rng.randint(2, 4)
        d = rng.randint(1, 3)
        n = 0 if trial % 25 == 0 else rng.randint(1, 7)
        edges = [e for e in combinations(range(n), 2) if rng.random() < (0 if trial % 5 == 0 else 0.5)]
        weights = [rng.randint(0, 30) for _ in range(n)]
        t = rng.randint(0, k * max(weights, default=0) + 2)
        if trial < 2:  # no vertices, d >= 2 and k = 2, with carries to emit
            n, k, d, edges, weights, t = 0, 2, 2 + trial, [], [], 0
        g = make_nw_graph(n, edges, k, weights, target=t)
        coll = fwd.nodeweight_to_edgeweight(g, d=d)
        shapes["edgeless"] += not edges
        shapes["empty"] += n == 0
        if coll.params.get("range_pruned"):
            shapes["pruned"] += 1
            assert coll.items == ()
            continue
        p = coll.params["p"]
        ctx = fwd.carry_targets(t, k, p, d)
        want = []
        for i in range(ctx.s):
            if ctx.is_feasible(i):
                f = [map_f(w, ctx.targets[i], k, p, d) for w in weights]
                want.append(tuple((u, v, squaring_edge_weight(f[u], f[v], k)) for u, v in g.edges))
        assert [item.instance.edge_weights for item in coll.items] == want
        bound = max((abs(w) for ew in want for _, _, w in ew), default=0)
        assert all(item.instance.weight_bound == bound for item in coll.items)
    assert all(shapes.values()), shapes


def test_nodeweight_to_edgeweight_uniform_bound_and_params():
    g = make_nw_graph(2, [(0, 1)], 2, [1, 3], target=4)
    coll = fwd.nodeweight_to_edgeweight(g, p=3, d=2)
    bounds = {it.instance.weight_bound for it in coll.items}
    assert len(bounds) == 1  # carries share one declared bound
    assert coll.params["s"] == 3
    assert coll.params["d"] == 2


def _squaring_reference(g, p, d):
    """nodeweight_to_edgeweight spelled out: the same input checks, one map_f
    per vertex and carry, one squaring sum per edge and carry, and graphs
    built by the validating constructor."""
    k, t, weights = g.k, g.target, g.node_weights
    if k < 2:
        raise ParameterError("arity must be >= 2: single vertices carry no edge weight")
    bound = max(weights, default=0)
    if min(weights, default=0) < 0:
        raise ParameterError("node weights must be nonnegative; shift the instance first")
    if d < 1:
        raise ParameterError(f"digit count must be >= 1, got {d}")
    p = fwd.choose_radix(k, bound, d) if p is None else p
    if p**d < k * bound + 1:
        raise ParameterError(f"p^d = {p**d} < k*M+1 = {k * bound + 1}")
    if p <= k:
        raise ParameterError(f"radix must exceed the arity, got p={p} <= k={k}")
    params = {"t": str(t), "p": p, "d": d}
    if not 0 <= t <= k * bound:
        params.update(s=0, skipped=[], range_pruned=True)
        return ReducedCollection("nodeweight_to_edgeweight", params=params, source=g)
    ctx = fwd.carry_targets(t, k, p, d)
    kept, skipped = [], []
    for gamma, target in zip(ctx.gammas, ctx.targets):
        provenance = {"gamma": list(gamma), "target": list(target)}
        if not all(0 <= c <= k * (p - 1) for c in target):
            skipped.append(provenance)
            continue
        f = [map_f(w, target, k, p, d) for w in weights]
        kept.append((provenance, [(u, v, squaring_edge_weight(f[u], f[v], k)) for u, v in g.edges]))
    achieved = max((abs(w) for _, ew in kept for _, _, w in ew), default=0)
    items = tuple(
        ReducedItem(WeightedGraph(n=g.n, edges=g.edges, k=k, node_weights=None, edge_weights=tuple(ew),
                                  weight_bound=achieved, target=0), provenance)
        for provenance, ew in kept
    )
    params.update(s=ctx.s, weight_cap=str(fwd.edge_weight_cap(k, d, p)), skipped=skipped)
    return ReducedCollection("nodeweight_to_edgeweight", params=params, items=items, source=g)


def _outcome(reduce, g, p, d):
    """The collection, or the type and message of the error raised."""
    try:
        return reduce(g, p, d)
    except (ParameterError, ResourceBudgetError, ValidationError) as exc:
        return type(exc), str(exc)


@st.composite
def _squaring_case(draw):
    """A node-weighted graph (n 0-7, any edge set, k 2-5, target in range or
    just outside it), a digit count 1-3 and no radix, a fitting one, or any
    small one."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(0, 7))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True)) if n > 1 else []
    weights = draw(st.lists(st.integers(0, draw(st.sampled_from([0, 3, 30, 300]))), min_size=n, max_size=n))
    target = draw(st.integers(-1, k * max(weights, default=0) + 1))
    d = draw(st.integers(1, 3))
    p = draw(st.sampled_from(["none", "fitting", "any"]))
    if p == "none":
        p = None
    elif p == "fitting":
        p = fwd.choose_radix(k, max(weights, default=0), d) + draw(st.integers(0, 3))
    else:
        p = draw(st.integers(2, 40))
    return make_nw_graph(n, sorted(edges), k, weights, target), p, d


@settings(max_examples=300, derandomize=True, database=None)
@given(_squaring_case())
@example((make_nw_graph(0, [], 3, [], target=0), None, 2))  # no vertices
@example((make_nw_graph(4, [], 3, [5, 1, 7, 2], target=10), None, 2))  # no edges
@example((make_nw_graph(3, [(0, 1), (1, 2)], 2, [4, 9, 2], target=19), None, 1))  # range-pruned
@example((make_nw_graph(2, [(0, 1)], 2, [1, 3], target=4), 3, 2))  # one skipped carry
@example((make_nw_graph(2, [(0, 1)], 3, [0, 2], target=3), None, 1))  # the bound is a negative weight
@example((make_nw_graph(3, complete_edges(3), 3, [1, 2, 3], target=6), 3, 2))  # radix at most k
@example((make_nw_graph(3, complete_edges(3), 3, [1, 2, 30], target=6), 5, 2))  # p^d < kM + 1
def test_nodeweight_to_edgeweight_matches_the_squaring_reference_property(case):
    g, p, d = case
    want = _outcome(_squaring_reference, g, p, d)
    got = _outcome(fwd.nodeweight_to_edgeweight, g, p, d)
    assert got == want
    if isinstance(got, ReducedCollection):
        assert serialize_collection(got) == serialize_collection(want)
        radix = got.params["p"]
        assert all(it.instance.weight_bound <= 2 * g.k**3 * d * (radix - 1) ** 2 for it in got.items)


def _vectorsum_reference(inst, p, d):
    """ksum_to_vectorsum spelled out: the same input checks in the same order,
    digits by repeated division, and every carry of carry_targets kept when
    its target entries lie in [0, k(p-1)], skipped otherwise."""
    k, t, numbers = inst.k, inst.target, inst.numbers
    if d < 1:
        raise ParameterError(f"digit count must be >= 1, got {d}")
    if min(numbers, default=0) < 0:
        raise ParameterError("numbers must be nonnegative; shift the instance first")
    bound = max(numbers, default=0)
    if p**d < k * bound + 1:
        raise ParameterError(f"p^d = {p**d} < k*M+1 = {k * bound + 1}")
    if p <= k:
        raise ParameterError(f"radix must exceed the arity, got p={p} <= k={k}")
    params = {"p": p, "d": d}
    if not 0 <= t <= k * bound:
        params.update(s=0, skipped=[], range_pruned=True)
        return ReducedCollection("ksum_to_vectorsum", params=params, source=inst)
    ctx = fwd.carry_targets(t, k, p, d)
    vectors = tuple(tuple(x // p**j % p for j in range(d)) for x in numbers)
    kept, skipped = [], []
    for gamma, target in zip(ctx.gammas, ctx.targets):
        provenance = {"gamma": list(gamma), "target": list(target)}
        if all(0 <= c <= k * (p - 1) for c in target):
            out = VectorSumInstance(k=k, dim=d, vectors=vectors, target=target, entry_bounds=(0, p - 1))
            kept.append(ReducedItem(out, provenance))
        else:
            skipped.append(provenance)
    params.update(s=ctx.s, skipped=skipped)
    return ReducedCollection("ksum_to_vectorsum", params=params, items=tuple(kept), source=inst)


@st.composite
def _vectorsum_case(draw):
    """A k-SUM instance (k 1-5, 0-6 numbers, some negative on request, target
    in range or just outside it), a digit count -1..3 and a fitting radix or
    any small one."""
    k = draw(st.integers(1, 5))
    hi = draw(st.sampled_from([0, 3, 30, 300]))
    numbers = draw(st.lists(st.integers(draw(st.sampled_from([0, -2])), hi), max_size=6))
    bound = max([0, *numbers])
    target = draw(st.integers(-1, k * bound + 1))
    d = draw(st.integers(-1, 3))
    if d >= 1 and draw(st.booleans()):
        p = fwd.choose_radix(k, bound, d) + draw(st.integers(0, 3))
    else:
        p = draw(st.integers(0, 40))
    return make_ksum(numbers, k, target), p, d


@settings(max_examples=300, derandomize=True, database=None)
@given(_vectorsum_case())
@example((make_ksum([], 3, 0), 4, 2))  # no numbers
@example((make_ksum([4, 9, 2], 2, 19), 10, 2))  # range-pruned
@example((make_ksum([1, 3, 2, 2], 2, 4), 3, 2))  # one skipped carry
@example((make_ksum([-1, 5], 2, 4), 11, 0))  # d < 1 is reported before negative numbers
@example((make_ksum([-1, 5], 2, 4), 11, 1))  # negative numbers
@example((make_ksum([1, 2, 3], 3, 6), 3, 2))  # radix at most k
@example((make_ksum([1, 2, 30], 3, 6), 5, 2))  # p^d < kM + 1
def test_ksum_to_vectorsum_matches_the_carry_reference_property(case):
    inst, p, d = case
    want = _outcome(_vectorsum_reference, inst, p, d)
    got = _outcome(fwd.ksum_to_vectorsum, inst, p, d)
    assert got == want
    if isinstance(got, ReducedCollection):
        assert serialize_collection(got) == serialize_collection(want)


def test_carry_targets_over_the_budget_raise_before_enumerating(monkeypatch):
    monkeypatch.setattr(fwd, "ALPHA_BUDGET", 16)
    assert fwd.carry_targets(7, 3, 5, 3).s == 16  # (k+1)^(d-1) = 16 carries fit
    inst = make_ksum([1, 2, 3, 4, 5], 3, 9)
    g = fwd.ksum_as_nodeweight_clique(inst)
    for reduce in (lambda: fwd.carry_targets(7, 3, 5, 4), lambda: fwd.ksum_to_vectorsum(inst, 5, 4),
                   lambda: fwd.nodeweight_to_edgeweight(g, p=5, d=4)):
        with pytest.raises(ResourceBudgetError, match=r"4\^3 carry tuples exceed the work budget 16"):
            reduce()


def test_nodeweight_to_edgeweight_or_equivalence_random():
    rng = random.Random(10)
    for _ in range(60):
        k = rng.randint(2, 3)
        n = rng.randint(k, 6)
        edges = [e for e in complete_edges(n) if rng.random() < 0.8]
        weights = [rng.randint(0, 12) for _ in range(n)]
        t = rng.randint(0, k * 12)
        g = make_nw_graph(n, edges, k, weights, target=t)
        coll = fwd.nodeweight_to_edgeweight(g, d=rng.randint(1, 2))
        got = False
        for it in coll.items:
            out = it.instance
            wmap = out.edge_weight_map()
            for combo in combinations(range(n), k):
                keys = [tuple(sorted(e)) for e in combinations(combo, 2)]
                if all(key in wmap for key in keys) and sum(wmap[key] for key in keys) == 0:
                    got = True
        src = any(
            all(tuple(sorted(e)) in {tuple(sorted(x)) for x in edges} for e in combinations(c, 2))
            and sum(weights[v] for v in c) == t
            for c in combinations(range(n), k)
        )
        assert got == src


# --- zero-sum weight guesses ---

def test_alpha_tuples_full_frozen():
    tuples = list(fwd.alpha_tuples_full(1, 3))
    assert len(tuples) == 7
    assert (0, 0, 0) in tuples
    assert sorted(tuples) == sorted(
        [(0, 0, 0), (1, -1, 0), (1, 0, -1), (0, 1, -1), (-1, 1, 0), (-1, 0, 1), (0, -1, 1)]
    )
    assert all(sum(a) == 0 for a in tuples)


def test_alpha_budget_guard(monkeypatch):
    from ksumclique import ResourceBudgetError

    monkeypatch.setattr(fwd, "ALPHA_BUDGET", 100)
    with pytest.raises(ResourceBudgetError):
        list(fwd.alpha_tuples_full(1000, 4))


def test_edgeless_graph_produces_no_cliques():
    g = make_ew_graph(4, [], 3, [], target=0)
    coll = fwd.edgeweight_to_unweighted(g)
    for it in coll.items:
        assert it.instance.edges == ()
        assert oracle_kclique(it.instance.n, it.instance.edges, 3) is None


def test_triangle_alpha_lift_worked_example():
    g = make_ew_graph(3, [(0, 1), (0, 2), (1, 2)], 3, [1, -1, 0], target=0)
    coll = fwd.edgeweight_to_unweighted(g)
    hits = []
    for idx, it in enumerate(coll.items):
        w = oracle_kclique(it.instance.n, it.instance.edges, 3)
        if w is not None:
            hits.append((idx, w))
    assert hits, "some guess must contain the zero-sum triangle"
    idx, w = hits[0]
    assert coll.items[idx].provenance["alpha"] is not None
    lifted = fwd.strip_slot_witness(g.n, w)
    assert lifted == (0, 1, 2)


def test_g_alpha_is_slot_partite():
    g = make_ew_graph(3, [(0, 1), (0, 2), (1, 2)], 3, [1, -1, 0], target=0)
    inst = fwd.build_alpha_instance(g, 3, (1, -1, 0))
    assert inst.n == 3 * g.n
    assert inst.partition == tuple(1 + v // g.n for v in range(inst.n))
    for u, v in inst.edges:
        assert inst.partition[u] != inst.partition[v]
    assert len(inst.edges) <= g.m * 3


def _random_ew_graph(rng, lo, hi):
    n = rng.randint(0, 7)
    edges = [e for e in complete_edges(n) if rng.random() < rng.random()]
    return make_ew_graph(n, edges, 3, [rng.randint(lo, hi) for _ in edges], target=0)


def test_present_alpha_tuples_matches_product_filter_random(monkeypatch):
    """The windowed enumeration yields exactly the filtered product, in order."""
    rng = random.Random(23)
    seen = {"empty": 0, "single": 0, "budget": 0}
    for trial in range(300):
        lo = rng.randint(-6, 2)
        g = _random_ew_graph(rng, lo, lo + rng.choice([0, 1, 4, 9]))
        k = 2 + trial % 3
        budget = rng.choice([30, 200_000])
        monkeypatch.setattr(fwd, "ALPHA_BUDGET", budget)
        support = sorted({w for _, _, w in g.edge_weights})
        free = comb(k, 2) - 1
        seen["empty"] += not support
        seen["single"] += len(support) == 1
        if support and len(support) ** free > budget:
            seen["budget"] += 1
            with pytest.raises(ResourceBudgetError):
                list(fwd.present_alpha_tuples(g, k))
            continue
        expected = [h + (-sum(h),) for h in product(support, repeat=free) if -sum(h) in support]
        assert list(fwd.present_alpha_tuples(g, k)) == expected
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("k", [1, 0, -1])
def test_present_alpha_tuples_rejects_small_arity(k):
    g = make_ew_graph(3, [(0, 1), (1, 2)], 2, [1, -1])
    with pytest.raises(ParameterError):
        list(fwd.present_alpha_tuples(g, k))
    with pytest.raises(ParameterError):
        list(fwd.consistent_alpha_tuples(g, k))
    with pytest.raises(ParameterError, match="alpha enumeration needs k >= 2"):
        list(fwd.alpha_tuples_full(3, k))


def test_pow_exceeds_matches_the_power():
    from ksumclique.reduce_sum_to_clique import _pow_exceeds

    for base in range(-3, 40):
        for exp in range(0, 12):
            power = base**exp
            for bound in {-5, -1, 0, 1, 2, power - 1, power, power + 1, 2 * power, 10**9}:
                assert _pow_exceeds(base, exp, bound) == (power > bound), (base, exp, bound)
    assert _pow_exceeds(11, 10**12, 200_000) and not _pow_exceeds(1, 10**12, 1)


def _k4_edge_graph(k):
    return make_ew_graph(4, complete_edges(4), k, [5, 1, -2, -4, 2, -5])


@pytest.mark.parametrize("call", [
    lambda: fwd.carry_targets(32, 3, 11, 10**6),
    lambda: fwd.ksum_to_vectorsum(make_ksum([4, 18, 27, 25, 24, 2], 3, 32, hi=30), 11, 10**6),
    lambda: fwd.nodeweight_to_edgeweight(make_nw_graph(4, complete_edges(4), 3, [5, 3, 1, 0], 15), p=11, d=10**6),
    lambda: fwd.nodeweight_to_edgeweight(make_nw_graph(4, complete_edges(4), 3, [5, 3, 1, 0], 15), d=10**6),
    lambda: list(fwd.alpha_tuples_full(5, 1000)),
    lambda: list(fwd.present_alpha_tuples(_k4_edge_graph(3), 1000)),
    lambda: fwd.edgeweight_to_unweighted(_k4_edge_graph(1000), "full"),
    lambda: fwd.edgeweight_to_unweighted(_k4_edge_graph(1000), "present"),
], ids=["carry_targets", "ksum_to_vectorsum", "nodeweight_p11", "nodeweight_auto_radix", "alpha_full",
        "alpha_present", "edgeweight_full", "edgeweight_present"])
def test_work_guards_refuse_without_building_their_bound(call):
    """11^(10^6) alone is 432 KB and C(1000, 2) slot pairs are 500,000
    tuples; each guard refuses its call in far less."""
    def refused():
        with pytest.raises(ResourceBudgetError):
            call()

    assert peak_traced_bytes(refused) < 64 * 1024


def test_choose_radix_at_a_huge_digit_count_builds_no_power():
    assert fwd.choose_radix(3, 30, 10**6) == 4
    assert peak_traced_bytes(lambda: fwd.choose_radix(3, 30, 10**6)) < 64 * 1024


def test_alpha_budget_count_is_written_out_up_to_1024_bits(monkeypatch):
    # 11^5 has 18 bits and 11^779 (k = 40) about 2,700
    with monkeypatch.context() as m:
        m.setattr(fwd, "ALPHA_BUDGET", 100)
        with pytest.raises(ResourceBudgetError, match=r"would need 161051 tuples \(budget 100\)"):
            list(fwd.alpha_tuples_full(5, 4))
    with pytest.raises(ResourceBudgetError, match=r"would need 11\^779 tuples \(budget 200000\)"):
        list(fwd.alpha_tuples_full(5, 40))


def test_alpha_enumerators_refuse_more_coordinates_than_the_budget(monkeypatch):
    # one weight passes every power bound at any arity, so only the count
    # of coordinates C(k,2) stops a search from listing its slot pairs
    monkeypatch.setattr(fwd, "ALPHA_BUDGET", 5)
    one_weight = make_ew_graph(4, list(complete_edges(4)), 4, [0] * 6)
    no_edges = make_ew_graph(4, [], 4, [])
    searches = {
        "full": lambda g, k: fwd.alpha_tuples_full(g.weight_bound, k),
        "present": fwd.present_alpha_tuples,
        "consistent": fwd.consistent_alpha_tuples,
    }
    for name, search in searches.items():
        for g in (one_weight, no_edges):
            with pytest.raises(ResourceBudgetError, match=r"^6 alpha coordinates exceed the work budget 5$"):
                list(search(g, 4))
            assert list(search(g, 3)) == ([(0, 0, 0)] if g.m or name == "full" else [])
    with pytest.raises(ResourceBudgetError, match=r"^6 alpha coordinates exceed the work budget 5$"):
        fwd.edgeweight_to_unweighted(one_weight, alpha_mode="present")


def test_alpha_graphs_refuse_more_vertices_than_the_budget(monkeypatch):
    """Each alpha graph has k*n vertices and as many partition entries. The
    merged union and the per-alpha collection refuse more than VECTOR_BUDGET
    vertices in all before they build the alpha graph that passes it."""
    inst = make_ksum([1, 3, 2, 2], 2, 4)
    merged = fwd.smallksum_to_kclique(inst, 2).instance
    g = make_ew_graph(4, list(complete_edges(4)), 3, [0, 1, -1, 1, 0, -1])
    coll = fwd.edgeweight_to_unweighted(g, alpha_mode="present")
    assert merged.n % 8 == 0
    cases = [
        (lambda: fwd.smallksum_to_kclique(inst, 2).instance, merged.n // 8, 8),
        (lambda: fwd.edgeweight_to_unweighted(g, alpha_mode="present"), len(coll.items), 12),
        (lambda: fwd.build_alpha_instance(g, 3, (0, 0, 0)), 1, 12),
    ]
    for build, count, size in cases:
        assert count >= 1
        want = build()
        monkeypatch.setattr(fwd, "VECTOR_BUDGET", count * size)
        assert build() == want
        monkeypatch.setattr(fwd, "VECTOR_BUDGET", count * size - 1)
        with pytest.raises(ResourceBudgetError,
                           match=rf"^{count} x {size} alpha-graph vertices exceed the work budget {count * size - 1}$"):
            build()
        monkeypatch.undo()


def test_consistent_alpha_tuples_drops_only_clique_free_alphas_random(monkeypatch):
    """The slot-consistent alphas are present-mode alphas in the same order,
    every dropped alpha's graph has no k-clique (so every alpha with one is
    kept), and a budget present mode accepts is never exceeded. ALPHA_BUDGET
    also bounds the C(k,2) coordinates, so it is patched no lower than that."""
    rng = random.Random(29)
    seen = {"empty": 0, "single": 0, "negative": 0, "dropped": 0, "kept_clique": 0}
    for trial in range(300):
        lo = rng.randint(-6, 2)
        g = _random_ew_graph(rng, lo, lo + rng.choice([0, 1, 4, 9]))
        k = 2 + trial % 3
        support = sorted({w for _, _, w in g.edge_weights})
        seen["empty"] += not support
        seen["single"] += len(support) == 1
        seen["negative"] += bool(support) and support[0] < 0
        heads = len(support) ** (comb(k, 2) - 1)
        monkeypatch.setattr(fwd, "ALPHA_BUDGET", max(heads, comb(k, 2)))
        present = list(fwd.present_alpha_tuples(g, k))
        counter = [0]
        kept = list(fwd.consistent_alpha_tuples(g, k, counter=counter))
        assert counter[0] <= heads
        pos = 0
        for alpha in present:
            has_clique = solve_kclique_bruteforce(fwd.build_alpha_instance(g, k, alpha)).solvable
            if pos < len(kept) and kept[pos] == alpha:
                pos += 1
                seen["kept_clique"] += has_clique
            else:
                assert not has_clique, (trial, alpha)
                seen["dropped"] += 1
        assert pos == len(kept), "kept alphas must be a subsequence of present mode"
    assert min(seen.values()) > 0, seen


def _slot_consistent_reference(g, k):
    """Brute force over product(support, repeat=C(k,2)-1): the alphas with a
    present forced coordinate where, for each of the k slots, the first
    endpoints of the buckets of its pairs to higher slots and the second
    endpoints of the buckets of its pairs from lower slots share a vertex;
    the heads the search must count (for each prefix before the last free
    coordinate whose every coordinate lies in its bisect window and whose slot
    sets stay nonempty, the size of the last free coordinate's window; 1 for
    the one empty head of k = 2); and the last prefix whose window is not
    empty."""
    support = sorted({w for _, _, w in g.edge_weights})
    if not support:
        return [], 0, None
    buckets = {w: [(u, v) for u, v, x in g.edge_weights if x == w] for w in support}
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    free = len(pairs) - 1
    lo, hi = support[0], support[-1]

    def slots_nonempty(coords):
        slots = [set(range(g.n)) for _ in range(k)]
        for (i, j), w in zip(pairs, coords):
            slots[i] &= {u for u, _ in buckets[w]}
            slots[j] &= {v for _, v in buckets[w]}
        return all(slots)

    alphas = [h + (-sum(h),) for h in product(support, repeat=free)
              if -sum(h) in buckets and slots_nonempty(h + (-sum(h),))]
    if free == 0:
        return alphas, 1, ()
    heads, last_prefix = 0, None
    for prefix in product(support, repeat=free - 1):
        total = 0
        for idx, x in enumerate(prefix):
            rest = free - idx  # coordinates after this one, the forced one included
            if not -total - rest * hi <= x <= -total - rest * lo:
                break
            total += x
        else:
            if slots_nonempty(prefix):
                window = sum(-total - hi <= x <= -total - lo for x in support)
                heads += window
                if window:
                    last_prefix = prefix
    return alphas, heads, last_prefix


def _check_against_slot_consistent_reference(g, k):
    """The search yields the reference alphas in order and counts exactly the
    reference heads; a budget of one head fewer raises only after yielding
    every alpha of the prefixes before the last counted window. The budget
    also bounds the C(k,2) coordinates: below them it raises before any head."""
    expected, heads, last_prefix = _slot_consistent_reference(g, k)
    counter = [3]
    with patch.object(fwd, "ALPHA_BUDGET", max(heads, comb(k, 2))):
        assert list(fwd.consistent_alpha_tuples(g, k, counter=counter)) == expected
    assert counter == [3 + heads]
    got: list[tuple[int, ...]] = []
    if heads > comb(k, 2):
        with patch.object(fwd, "ALPHA_BUDGET", heads - 1), pytest.raises(ResourceBudgetError, match="heads$"):
            for alpha in fwd.consistent_alpha_tuples(g, k):
                got.append(alpha)
        width = len(last_prefix)
        assert got == [alpha for alpha in expected if alpha[:width] < last_prefix]
    elif heads:
        with patch.object(fwd, "ALPHA_BUDGET", heads - 1), pytest.raises(ResourceBudgetError, match="coordinates"):
            next(fwd.consistent_alpha_tuples(g, k))
    return expected, got


def test_consistent_alpha_tuples_matches_slot_intersection_filter_random():
    """Alphas, head count and budget edge against the brute-force reference,
    k = 2-5; fewer distinct weights at k = 5 keep the reference's product small."""
    rng = random.Random(31)
    seen = {"empty": 0, "dropped": 0, "yielded_before_raise": 0, **{f"kept_k{k}": 0 for k in range(2, 6)}}
    for trial in range(400):
        k = 2 + trial % 4
        spread = rng.choice([0, 1, 2] if k == 5 else [0, 1, 4, 9])
        lo = rng.randint(-spread - 1, 1)
        g = _random_ew_graph(rng, lo, lo + spread)
        support = sorted({w for _, _, w in g.edge_weights})
        present = [h for h in product(support, repeat=comb(k, 2) - 1) if -sum(h) in support]
        expected, before_raise = _check_against_slot_consistent_reference(g, k)
        seen["empty"] += not support
        seen["dropped"] += len(present) - len(expected)
        seen[f"kept_k{k}"] += len(expected)
        seen["yielded_before_raise"] += len(before_raise)
    assert min(seen.values()) > 0, seen


@st.composite
def _alpha_search_case(draw):
    """An edge-weighted graph on up to 6 vertices, negative weights allowed,
    and k in 2-5; at k = 5 at most three distinct weights."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(0, 6))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True)) if n > 1 else []
    lo = draw(st.integers(-5, 3))
    weight = st.integers(lo, lo + (2 if k == 5 else 6))
    return make_ew_graph(n, edges, 3, draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))), k


@settings(max_examples=200, derandomize=True, database=None)
@given(_alpha_search_case())
def test_consistent_alpha_tuples_matches_the_reference_property(case):
    _check_against_slot_consistent_reference(*case)


def test_consistent_alpha_tuples_budget_counts_heads(monkeypatch):
    # a path 0-1-2 with two weights: 2 heads at the last free coordinate for
    # k = 3; the budget also bounds the 3 coordinates, so 3 is the least it runs at
    g = make_ew_graph(3, [(0, 1), (1, 2)], 3, [1, -1])
    counter = [5]
    monkeypatch.setattr(fwd, "ALPHA_BUDGET", 3)
    assert list(fwd.consistent_alpha_tuples(g, 3, counter=counter)) == []
    assert counter == [7]
    monkeypatch.setattr(fwd, "ALPHA_BUDGET", 1)
    with pytest.raises(ResourceBudgetError):
        list(fwd.consistent_alpha_tuples(g, 3))
    monkeypatch.undo()
    tri = make_ew_graph(3, complete_edges(3), 3, [1, -1, 0])
    assert list(fwd.consistent_alpha_tuples(tri, 3)) == [(1, -1, 0)]


@st.composite
def _zero_sum_search_case(draw):
    """k in 2-5 and up to six support weights (three at k = 5), each bucket
    one to four edges on up to six vertices. The masks are all -1, as present
    mode passes them, or the buckets' endpoint sets with their per-vertex
    tables, as consistent mode builds them. The head budget may be none."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(1, 6))
    support = sorted(draw(st.sets(st.integers(-6, 6), max_size=3 if k == 5 else 6)))
    plain = draw(st.booleans())
    ends, starts_at, ends_at = {}, [0] * n, [0] * n
    vertex = st.integers(0, n - 1)
    for r, w in enumerate(support):
        first = second = 0
        for u, v in draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=4)):
            first, second = first | 1 << u, second | 1 << v
            starts_at[u] |= 1 << r
            ends_at[v] |= 1 << r
        ends[w] = (-1, -1) if plain else (first, second)
    return k, ends, ((), ()) if plain else (starts_at, ends_at), draw(st.none() | st.integers(0, 40))


def _run_alpha_search(search, k, ends, by_vertex, budget):
    """The alphas a search yields, its on_window sizes in order, and whether
    it raised once the sizes passed the budget."""
    alphas, windows = [], []

    def on_window(size):
        windows.append(size)
        if budget is not None and sum(windows) > budget:
            raise ResourceBudgetError("over budget")

    try:
        for alpha in search(k, ends, on_window, by_vertex):
            alphas.append(alpha)
    except ResourceBudgetError:
        return alphas, windows, True
    return alphas, windows, False


@settings(max_examples=400, derandomize=True, database=None)
@given(_zero_sum_search_case())
def test_zero_sum_alphas_matches_the_recursive_reference_property(case):
    """Running the last free coordinate inline keeps the alphas, their order,
    every on_window call and the raise point of the one-generator-per-head
    search."""
    k, ends, by_vertex, _ = case
    got = _run_alpha_search(fwd._zero_sum_alphas, *case)
    assert got == _run_alpha_search(zero_sum_alphas, *case)
    assert list(fwd._zero_sum_alphas(k, ends, by_vertex=by_vertex)) == list(zero_sum_alphas(k, ends, None, by_vertex))


def _rescan_alpha_instance(g, k, alpha):
    """Reference builder: every source edge against every slot pair."""
    n = g.n
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges = [
        (i * n + u, j * n + v)
        for u, v, w in g.edge_weights
        for (i, j), a in zip(pairs, alpha)
        if a == w
    ]
    partition = tuple(1 + v // n for v in range(k * n))
    return CliqueInstance(n=k * n, edges=tuple(edges), k=k, partition=partition)


def test_build_alpha_instance_matches_full_rescan_random():
    rng = random.Random(29)
    for trial in range(300):
        g = _random_ew_graph(rng, -3, 3)
        k = 2 + trial % 3
        for _ in range(4):
            alpha = tuple(rng.randint(-4, 4) for _ in range(comb(k, 2)))
            assert fwd.build_alpha_instance(g, k, alpha) == _rescan_alpha_instance(g, k, alpha)
    with pytest.raises(ValidationError):
        fwd.build_alpha_instance(g, 3, (0, 0))


def test_present_mode_matches_full_mode_or():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(3, 5)
        k = 3
        edges = [e for e in complete_edges(n) if rng.random() < 0.8]
        weights = [rng.randint(-2, 2) for _ in edges]
        g = make_ew_graph(n, edges, k, weights, target=0)
        full = fwd.edgeweight_to_unweighted(g, alpha_mode="full")
        present = fwd.edgeweight_to_unweighted(g, alpha_mode="present")
        assert len(present.items) <= len(full.items)

        def solvable(coll):
            return any(
                oracle_kclique(it.instance.n, it.instance.edges, k) is not None
                for it in coll.items
            )

        assert solvable(full) == solvable(present)


# --- merging ---

def test_merge_single_instance_is_copy():
    tri = fwd.build_alpha_instance(
        make_ew_graph(3, [(0, 1), (0, 2), (1, 2)], 3, [0, 0, 0], target=0), 3, (0, 0, 0)
    )
    from ksumclique import ReducedCollection, ReducedItem, instance_digest

    coll = ReducedCollection("x", instance_digest(tri), {}, (ReducedItem(tri, {}),))
    merged = fwd.merge_clique_instances(coll)
    assert merged.n == tri.n and len(merged.edges) == len(tri.edges)


def test_merge_triangle_free_components_stay_triangle_free():
    from ksumclique import CliqueInstance, ReducedCollection, ReducedItem, instance_digest

    path = CliqueInstance(n=3, edges=((0, 1), (1, 2)), k=3)
    coll = ReducedCollection("x", instance_digest(path), {}, (ReducedItem(path, {}), ReducedItem(path, {})))
    merged = fwd.merge_clique_instances(coll)
    assert merged.n == 6
    assert oracle_kclique(merged.n, merged.edges, 3) is None


def test_merge_locates_the_solvable_component():
    from ksumclique import CliqueInstance, ReducedCollection, ReducedItem, instance_digest

    path = CliqueInstance(n=3, edges=((0, 1), (1, 2)), k=3)
    tri = CliqueInstance(n=3, edges=((0, 1), (0, 2), (1, 2)), k=3)
    coll = ReducedCollection("x", instance_digest(path), {}, (ReducedItem(path, {}), ReducedItem(tri, {})))
    merged = fwd.merge_clique_instances(coll)
    w = oracle_kclique(merged.n, merged.edges, 3)
    assert w == (3, 4, 5)
    # both items have 3 vertices, so the piece is w[0] // 3
    idx = w[0] // 3
    local = tuple(v - 3 * idx for v in w)
    assert idx == 1 and local == (0, 1, 2)


# --- pipeline ---

def test_pipeline_dimension_values():
    assert fwd.pipeline_dimension(1) == 1
    assert fwd.pipeline_dimension(3) == 1
    assert fwd.pipeline_dimension(4) == 2
    assert fwd.pipeline_dimension(8) == 2
    assert fwd.pipeline_dimension(100) == 3


def test_pipeline_radix_frozen_point():
    assert fwd.pipeline_dimension(8) == 2
    assert fwd.pipeline_radix(8, 2, 50, 2, 2) == 24
    assert 24**2 >= 2 * 50 + 1


def test_pipeline_radix_bumps_until_capacity():
    p = fwd.pipeline_radix(4, 2, 10**6, 1, 1)
    assert p >= 2 * 10**6 + 1


def test_choose_radix_matches_smallest_p_search():
    # the smallest p only grows with M, so one upward scan per (k, d, floor)
    # visits every candidate the brute-force search would
    for k in range(1, 9):
        for d in range(1, 6):
            for floor in (0, 40):
                p = max(k + 1, floor)
                for big_m in range(3001):
                    while p**d < k * big_m + 1:
                        p += 1
                    assert fwd.choose_radix(k, big_m, d, floor=floor) == p, (k, d, floor, big_m)


def test_choose_radix_exact_on_huge_bounds():
    assert fwd.choose_radix(2, 10**30, 2) == isqrt(2 * 10**30) + 1
    big_m = 7 * 10**399 + 3  # 400 digits, beyond float range
    assert fwd.choose_radix(1, big_m, 2) == isqrt(big_m) + 1
    for k, d in ((3, 3), (5, 7), (8, 50)):
        p = fwd.choose_radix(k, big_m, d)
        assert (p - 1) ** d < k * big_m + 1 <= p**d
    with pytest.raises(ParameterError):
        fwd.choose_radix(2, 5, 0)


def test_nodeweight_default_radix_is_minimal():
    g = make_nw_graph(3, complete_edges(3), 2, [50, 7, 0], target=57)
    assert fwd.nodeweight_to_edgeweight(g, d=1).params["p"] == 101
    assert fwd.nodeweight_to_edgeweight(g, d=2).params["p"] == 11  # 10^2 < 2*50+1 <= 11^2


def test_pipeline_rejects_numbers_beyond_small_regime():
    inst = make_ksum([1, 300], 2, 301)
    with pytest.raises(ParameterError):
        fwd.smallksum_to_kclique(inst, 2)  # 300 > 4^2


def test_pipeline_solvable_worked_example():
    inst = make_ksum([1, 3, 2, 2], 2, 4)
    res = fwd.smallksum_to_kclique(inst, 2)
    merged = res.instance
    assert res.params["p"] == 16 and res.params["d"] == 2 and res.params["s"] == 3
    assert res.instance.n == res.g_nk * inst.k * inst.n
    w = solve_kclique_bruteforce(merged).witness
    assert w is not None
    lifted = fwd.lift_pipeline_witness(res, w)
    assert sum(inst.numbers[i] for i in lifted) == 4


def test_pipeline_unsolvable_out_of_range_example():
    inst = make_ksum([1, 1, 1, 1], 2, 9)
    res = fwd.smallksum_to_kclique(inst, 2)
    assert res.params.get("range_pruned") is True
    assert solve_kclique_bruteforce(res.instance).solvable is False


def test_pipeline_unsolvable_in_range():
    inst = make_ksum([1, 1, 1, 1, 5], 3, 10)
    res = fwd.smallksum_to_kclique(inst, 2)
    assert solve_kclique_bruteforce(res.instance).solvable is False
    assert solve_ksum_bruteforce(inst).solvable is False


def test_pipeline_or_equivalence_random():
    rng = random.Random(12)
    for _ in range(30):
        k = rng.randint(2, 3)
        n = rng.randint(k, 6)
        cap = n * n  # f-exponent 2
        nums = [rng.randint(0, cap) for _ in range(n)]
        t = rng.randint(0, k * cap)
        inst = make_ksum(nums, k, t)
        res = fwd.smallksum_to_kclique(inst, 2)
        got = solve_kclique_bruteforce(res.instance).solvable
        want = oracle_ksum(nums, k, t) is not None
        assert got == want
        if got:
            w = solve_kclique_bruteforce(res.instance).witness
            lifted = fwd.lift_pipeline_witness(res, w)
            assert sum(nums[i] for i in lifted) == t


def _reference_pipeline(inst, f_exp, alpha_mode):
    """smallksum_to_kclique as a composition of public stages: one
    edgeweight_to_unweighted collection per carry graph, then
    merge_clique_instances over every alpha graph in order. Returns
    (instance, params, offsets, sizes)."""
    from ksumclique import ReducedCollection

    n, k = inst.n, inst.k
    if k < 2:
        raise ParameterError("pipeline requires arity k >= 2")
    bound = max(inst.numbers, default=0)
    if bound > max(n, 1) ** f_exp:
        raise ParameterError("numbers exceed n^f")
    d = fwd.pipeline_dimension(n)
    p = fwd.pipeline_radix(n, k, bound, f_exp, d)
    if not 0 <= inst.target <= k * bound or k > n:
        params = {"p": p, "d": d, "f_exp": f_exp, "alpha_mode": alpha_mode, "g_nk": 0, "range_pruned": True}
        return CliqueInstance(n=0, edges=(), k=k), params, (), ()
    ew = fwd.nodeweight_to_edgeweight(fwd.ksum_as_nodeweight_clique(inst), p=p, d=d)
    items = tuple(
        item
        for carry in ew.items
        for item in fwd.edgeweight_to_unweighted(carry.instance, alpha_mode=alpha_mode).items
    )
    merged = fwd.merge_clique_instances(ReducedCollection("ref", "-", {}, items))
    sizes = tuple(item.instance.n for item in items)
    offsets = tuple(sum(sizes[:i]) for i in range(len(sizes)))
    params = {"p": p, "d": d, "s": ew.params["s"], "f_exp": f_exp, "alpha_mode": alpha_mode, "g_nk": len(items)}
    return (merged if items else CliqueInstance(n=0, edges=(), k=k)), params, offsets, sizes


def test_pipeline_matches_stage_composition_random(monkeypatch):
    from ksumclique import serialize_instance

    # a smaller alpha budget (both sides read ALPHA_BUDGET per call) keeps
    # each trial fast and makes budget errors common
    monkeypatch.setattr(fwd, "ALPHA_BUDGET", 3000)
    rng = random.Random(81)
    outcomes = {"range_pruned": 0, "budget": 0, "parameter": 0, "solvable": 0, "unsolvable": 0}
    for trial in range(1000):
        k = rng.choice((1, 2, 2, 3, 3, 3, 4, 4, 4))
        f_exp = rng.randint(1, 2)
        mode = rng.choice(("full", "present"))
        n = rng.randint(max(k - 1, 0), 6)
        cap = max(n, 1) ** f_exp
        nums = [rng.randint(0, cap + (trial % 17 == 0)) for _ in range(n)]
        if nums and rng.random() < 0.5:
            t = sum(rng.sample(nums, min(k, n)))
        else:
            t = rng.randint(0, k * max(nums, default=0) + 3)
        inst = make_ksum(nums, k, t)
        try:
            want = _reference_pipeline(inst, f_exp, mode)
        except (ParameterError, ResourceBudgetError) as exc:
            outcomes["budget" if isinstance(exc, ResourceBudgetError) else "parameter"] += 1
            with pytest.raises(type(exc)):
                fwd.smallksum_to_kclique(inst, f_exp, alpha_mode=mode)
            continue
        res = fwd.smallksum_to_kclique(inst, f_exp, alpha_mode=mode)
        assert serialize_instance(res.instance) == serialize_instance(want[0])
        assert (res.instance, res.params) == want[:2]
        # every piece of the merge has k*n vertices, in emission order
        assert want[2:] == (tuple(i * k * n for i in range(res.g_nk)), (k * n,) * res.g_nk)
        if res.params.get("range_pruned"):
            outcomes["range_pruned"] += 1
            continue
        try:
            report = solve_kclique_bruteforce(res.instance)
        except ResourceBudgetError:
            continue  # a k = 4 union beyond the clique search's budget
        outcomes["solvable" if report.solvable else "unsolvable"] += 1
        if report.solvable:
            ref = fwd.PipelineResult(instance=want[0], source=inst, params=want[1])
            assert fwd.lift_pipeline_witness(res, report.witness) == fwd.lift_pipeline_witness(ref, report.witness)
    assert all(outcomes.values()), outcomes


@pytest.mark.parametrize("nums,t", [([1, 1, 1, 1], 9), ([1, 3, 2, 2], 4), ([0, 0], 0)])
def test_pipeline_rejects_unknown_alpha_mode_on_every_input(nums, t):
    # the first input is range-pruned: the mode is checked before that short cut
    with pytest.raises(ParameterError, match="unknown alpha mode"):
        fwd.smallksum_to_kclique(make_ksum(nums, 2, t), 2, alpha_mode="bogus")


def test_lift_rejects_nonsense_witness():
    from ksumclique import MalformedWitnessError

    inst = make_ksum([1, 3, 2, 2], 2, 4)
    res = fwd.smallksum_to_kclique(inst, 2)
    with pytest.raises(MalformedWitnessError):
        fwd.lift_pipeline_witness(res, (0, 10**9))


def test_pipeline_lift_rejects_an_in_piece_non_clique():
    from ksumclique import MalformedWitnessError

    inst = make_ksum([1, 3, 2, 2, 0], 3, 4)
    res = fwd.smallksum_to_kclique(inst, 2)
    n, kn = inst.n, inst.k * inst.n
    # source indices 0, 1, 4 hit the target, but in some piece their slot
    # copies do not form a triangle (k = 2 would not do: its one alpha is 0)
    bogus = next(
        w for c in range(res.g_nk)
        if not verify_witness(res.instance, w := (c * kn, c * kn + n + 1, c * kn + 2 * n + 4))
    )
    assert verify_witness(inst, fwd.strip_slot_witness(n, bogus))
    with pytest.raises(MalformedWitnessError):
        fwd.lift_pipeline_witness(res, bogus)


def test_ksum_as_nodeweight_clique_shape():
    inst = make_ksum([1, 3, 2, 2], 2, 4)
    g = fwd.ksum_as_nodeweight_clique(inst)
    assert g.n == 4 and g.m == 6  # complete graph
    assert g.node_weights == (1, 3, 2, 2)
    assert g.target == 4
