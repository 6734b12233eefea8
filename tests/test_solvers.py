"""Exact solvers: brute force, meet in the middle, triangle backends, and the
node-weight clique pipeline."""

import random
from itertools import combinations
from math import comb, isqrt

import pytest

from ksumclique import (
    CliqueInstance,
    KSumInstance,
    ParameterError,
    ResourceBudgetError,
    SolverReport,
    ValidationError,
    detect_triangle,
    solve_kclique_bruteforce,
    solve_ksum_bruteforce,
    solve_ksum_mim,
    solve_nw_kclique,
    solve_nw_triangle,
    solve_vectorsum_bruteforce,
    verify_witness,
)
from ksumclique import reduce_sum_to_clique as fwd
from ksumclique.solvers import _kcliques

from util import (
    complete_edges,
    cycle_edges,
    make_ew_graph,
    make_ksum,
    make_nw_graph,
    make_vectorsum,
    oracle_ew_kclique,
    oracle_kclique,
    oracle_ksum,
    oracle_nw_kclique,
)


def test_report_invariant():
    with pytest.raises(ValidationError):
        SolverReport(solvable=True, witness=None)
    with pytest.raises(ValidationError):
        SolverReport(solvable=False, witness=(0,))


def test_brute_frozen_cases():
    assert solve_ksum_bruteforce(make_ksum([1, 2, 3, 4, 5], 3, 12)).witness == (2, 3, 4)
    assert solve_ksum_bruteforce(make_ksum([7], 1, 7)).solvable
    assert not solve_ksum_bruteforce(make_ksum([1, 1], 2, 3)).solvable


def test_brute_returns_lex_smallest():
    rep = solve_ksum_bruteforce(make_ksum([2, 2, 2, 2], 2, 4))
    assert rep.witness == (0, 1)


def test_mim_frozen_cases():
    assert solve_ksum_mim(make_ksum([0, 0, 0, 0], 4, 0)).solvable
    assert solve_ksum_mim(KSumInstance(k=2, numbers=(5, -5), target=0, bounds=(-5, 5))).witness == (0, 1)
    assert solve_ksum_mim(make_ksum([7], 1, 7)).solvable
    assert not solve_ksum_mim(make_ksum([1, 1], 2, 3)).solvable


def test_mim_matches_brute_random():
    rng = random.Random(40)
    for _ in range(300):
        k = rng.randint(1, 5)
        n = rng.randint(k, 11)
        nums = [rng.randint(-15, 15) for _ in range(n)]
        t = rng.randint(-20, 20)
        inst = KSumInstance(k=k, numbers=tuple(nums), target=t, bounds=(-15, 15))
        a = solve_ksum_bruteforce(inst)
        b = solve_ksum_mim(inst)
        assert a.solvable == b.solvable
        if b.solvable:
            w = b.witness
            assert len(set(w)) == k and sum(nums[i] for i in w) == t
            assert solve_ksum_mim(inst).witness == w  # canonical per input


def _mim_full_table_reference(numbers, k, t):
    """The whole-table meet in the middle: every left half tabled first, per
    sum the one minimizing (max index, subset), then right halves probed in
    lexicographic order. Returns (witness, probes, table_size)."""
    n, a, b = len(numbers), (k + 1) // 2, k // 2
    if k > n:
        return None, 0, 0
    table = {}
    for combo in combinations(range(n), a):
        s = sum(numbers[i] for i in combo)
        prev = table.get(s)
        if prev is None or (prev[-1], prev) > (combo[-1], combo):
            table[s] = combo
    if b == 0:
        return table.get(t), 1, len(table)
    probes = 0
    for combo in combinations(range(n), b):
        probes += 1
        left = table.get(t - sum(numbers[i] for i in combo))
        if left is not None and left[-1] < combo[0]:
            return left + combo, probes, len(table)
    return None, probes, len(table)


def test_mim_matches_full_table_reference_random():
    rng = random.Random(44)
    cases = [
        ((), 1, 0),
        ((), 3, -1),
        ((4, 4), 3, 8),  # k > n
        ((0, 0, 0, 0, 0), 3, 0),
        ((7, 1, 7, 1, 7), 1, 7),
        ((2, 5, 9, 1), 4, -1),  # the packed sentinel target
    ]
    for _ in range(1500):
        k = rng.randint(1, 6)
        n = rng.randint(0, 12)
        palette = rng.choice([(-10, 10), (0, 3), (-10**6, 10**6)])
        nums = tuple(rng.randint(*palette) for _ in range(n))
        if nums and rng.random() < 0.6:
            t = sum(rng.sample(nums, min(k, n)))
        else:
            t = rng.choice([-1, rng.randint(-20, 20)])
        cases.append((nums, k, t))
    for nums, k, t in cases:
        rep = solve_ksum_mim(make_ksum(nums, k, t))
        witness, probes, table_size = _mim_full_table_reference(nums, k, t)
        assert rep.solvable == (witness is not None)
        assert rep.witness == witness
        assert rep.stats["probes"] == probes
        assert rep.stats["table_size"] <= table_size


def test_vectorsum_frozen_cases():
    inst = make_vectorsum([(1, 1), (1, 0)], 2, (2, 1), lo=0, hi=1)
    assert solve_vectorsum_bruteforce(inst).witness == (0, 1)
    zero = make_vectorsum([(0, 0), (0, 0)], 2, (0, 0), lo=0, hi=0)
    assert solve_vectorsum_bruteforce(zero).solvable


def test_vectorsum_range_prune_short_circuits():
    inst = make_vectorsum([(1,), (2,)], 2, (9,), lo=0, hi=2)
    rep = solve_vectorsum_bruteforce(inst)
    assert not rep.solvable
    assert rep.stats["range_pruned"] is True
    assert rep.stats["candidates"] == 0


def test_clique_brute_frozen_cases():
    k4 = CliqueInstance(n=4, edges=complete_edges(4), k=3)
    assert solve_kclique_bruteforce(k4).witness == (0, 1, 2)
    c5 = CliqueInstance(n=5, edges=cycle_edges(5), k=3)
    assert not solve_kclique_bruteforce(c5).solvable


def test_clique_brute_weighted_target():
    g6 = make_nw_graph(3, complete_edges(3), 3, [1, 2, 3], target=6)
    assert solve_kclique_bruteforce(g6).solvable
    g5 = make_nw_graph(3, complete_edges(3), 3, [1, 2, 3], target=5)
    assert not solve_kclique_bruteforce(g5).solvable


def test_clique_brute_edge_weighted_target():
    g = make_ew_graph(3, complete_edges(3), 3, [4, -4, 0], target=0)
    assert solve_kclique_bruteforce(g).solvable
    g1 = make_ew_graph(3, complete_edges(3), 3, [4, -4, 1], target=0)
    assert not solve_kclique_bruteforce(g1).solvable


def test_clique_brute_nodes_expanded_frozen():
    # search-tree sizes of the plain backtrack over all vertices; the forward
    # adjacency search must count the same nodes
    petersen = cycle_edges(5) + tuple((i, i + 5) for i in range(5)) + tuple((5 + i, 5 + (i + 2) % 5) for i in range(5))
    mod3 = tuple((i, j) for i, j in combinations(range(12), 2) if (i * j + i + j) % 3 != 1)
    ew_weights = [(u * 7 + v) % 5 - 2 for u, v in mod3]
    rng = random.Random(2024)
    rand16 = tuple(e for e in complete_edges(16) if rng.random() < 0.45)
    cases = [
        (CliqueInstance(n=4, edges=complete_edges(4), k=3), (0, 1, 2), 4),
        (CliqueInstance(n=5, edges=cycle_edges(5), k=3), None, 4),
        (CliqueInstance(n=10, edges=petersen, k=2), (0, 1), 3),
        (CliqueInstance(n=10, edges=petersen, k=3), None, 15),
        (CliqueInstance(n=400, edges=tuple((i, i + 1) for i in range(399)), k=3), None, 398),
        (CliqueInstance(n=12, edges=mod3, k=1), (0,), 2),
        (CliqueInstance(n=12, edges=mod3, k=7), (0, 2, 3, 5, 6, 8, 9), 8),
        (CliqueInstance(n=30, edges=((20, 25), (20, 27), (25, 27), (3, 9)), k=3), (20, 25, 27), 24),
        (CliqueInstance(n=16, edges=rand16, k=5), (2, 3, 7, 10, 11), 21),
        (CliqueInstance(n=16, edges=rand16, k=6), None, 39),
        (make_nw_graph(5, complete_edges(5), 3, [3, 1, 4, 1, 5], target=12), (0, 2, 4), 13),
        (make_ew_graph(12, mod3, 3, ew_weights, target=5), (2, 5, 9), 130),
        (make_ew_graph(12, mod3, 3, ew_weights, target=99), None, 265),
    ]
    for g, witness, nodes in cases:
        rep = solve_kclique_bruteforce(g)
        assert (rep.witness, rep.stats["nodes_expanded"]) == (witness, nodes)


def _cliques_by_combinations(n, edges, k):
    edge_set = set(edges)
    return [c for c in combinations(range(n), k) if all(p in edge_set for p in combinations(c, 2))]


def test_kclique_search_matches_combinations_random():
    rng = random.Random(44)
    for _ in range(400):
        n = rng.randint(0, 11)
        k = rng.randint(1, 5)
        prob = rng.random()
        edges = tuple(e for e in complete_edges(n) if rng.random() < prob)
        kind = rng.choice(["plain", "node", "edge"])
        if kind == "plain":
            g = CliqueInstance(n=n, edges=edges, k=k)
            want = oracle_kclique(n, edges, k)
        elif kind == "node":
            weights = [rng.randint(-4, 4) for _ in range(n)]
            t = rng.randint(-6, 6)
            g = make_nw_graph(n, edges, k, weights, target=t)
            want = oracle_nw_kclique(n, edges, k, weights, t)
        else:
            weights = [rng.randint(-3, 3) for _ in edges]
            t = rng.randint(-4, 4)
            g = make_ew_graph(n, edges, k, weights, target=t)
            want = oracle_ew_kclique(n, edges, k, weights, t)
        assert solve_kclique_bruteforce(g).witness == want
        assert list(_kcliques(g.n, g.edges, k, [0])) == _cliques_by_combinations(n, edges, k)


def test_kcliques_enumerates_all():
    g = CliqueInstance(n=5, edges=complete_edges(5), k=3)
    assert sum(1 for _ in _kcliques(g.n, g.edges, g.k, [0])) == comb(5, 3)
    got = set(_kcliques(g.n, g.edges, g.k, [0]))
    assert got == set(combinations(range(5), 3))
    assert list(_kcliques(2, ((0, 1),), 3, [0])) == []


def test_clique_budget_guard():
    big = CliqueInstance(n=600, edges=complete_edges(120), k=5)
    with pytest.raises(ResourceBudgetError):
        solve_kclique_bruteforce(big, budget=1000)


def test_sparse_graph_beats_naive_combination_count():
    # budget below C(n,k) but the degree-aware guard admits the sparse graph
    n = 400
    edges = [(i, i + 1) for i in range(n - 1)]
    g = CliqueInstance(n=n, edges=tuple(edges), k=3)
    rep = solve_kclique_bruteforce(g, budget=200_000)
    assert not rep.solvable
    # a long sparse graph whose only triangle sits at the end
    n = 6000
    edges = tuple((i, i + 1) for i in range(n - 1)) + ((n - 3, n - 1),)
    g = CliqueInstance(n=n, edges=edges, k=3)
    rep = solve_kclique_bruteforce(g, budget=200_000)
    assert rep.witness == (n - 3, n - 2, n - 1)
    assert rep.stats["nodes_expanded"] == (n - 2) + 1 + 2  # top level, vertex n - 2, vertex n - 1 and the clique
    assert list(_kcliques(g.n, g.edges, g.k, [0])) == [(n - 3, n - 2, n - 1)]


def test_detect_triangle_frozen_cases():
    k3 = CliqueInstance(n=3, edges=complete_edges(3), k=3)
    c5 = CliqueInstance(n=5, edges=cycle_edges(5), k=3)
    for backend in ("naive-mm", "degree-split"):
        assert detect_triangle(k3, backend=backend).witness == (0, 1, 2)
        assert not detect_triangle(c5, backend=backend).solvable


def _sparse_partite(seed):
    """Three slots of n vertices, few cross-slot edges, a hub on some seeds
    and a planted triangle on odd ones; most vertices are isolated."""
    rng = random.Random(seed)
    n = rng.randint(8, 30)
    edges = set()
    for _ in range(rng.randint(n // 2, 2 * n)):
        i, j = sorted(rng.sample(range(3), 2))
        edges.add((i * n + rng.randrange(n), j * n + rng.randrange(n)))
    hub = rng.randrange(n)
    for v in rng.sample(range(n, 3 * n), seed % 4 * 4):
        edges.add((hub, v))
    if seed % 2:
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        edges |= {(a, n + b), (a, 2 * n + c), (n + b, 2 * n + c)}
    partition = tuple(s for s in (1, 2, 3) for _ in range(n))
    return CliqueInstance(n=3 * n, edges=tuple(edges), k=3, partition=partition)


# (seed, n, m, then witness and stats of naive-mm, degree-split and
# degree-split with delta=2), recorded from the scan over every vertex
SPARSE_PARTITE_TRIANGLES = [
    (0, 60, 34, (None, {"pairs_checked": 34}), (None, {"delta": 6, "low_pairs": 34, "core_size": 0}),
     (None, {"delta": 2, "low_pairs": 0, "core_size": 17, "core_pairs_checked": 13})),
    (1, 36, 28, ((8, 20, 27), {"pairs_checked": 14}), ((8, 20, 27), {"delta": 6, "low_pairs": 4, "core_size": 1}),
     ((8, 20, 27), {"delta": 2, "low_pairs": 0, "core_size": 19, "core_pairs_checked": 9})),
    (2, 27, 13, ((5, 17, 22), {"pairs_checked": 7}), ((5, 17, 22), {"delta": 4, "low_pairs": 2, "core_size": 1}),
     ((5, 17, 22), {"delta": 2, "low_pairs": 0, "core_size": 4, "core_pairs_checked": 2})),
    (3, 45, 39, ((6, 26, 39), {"pairs_checked": 20}), ((6, 26, 39), {"delta": 7, "low_pairs": 5, "core_size": 1}),
     ((6, 26, 39), {"delta": 2, "low_pairs": 0, "core_size": 20, "core_pairs_checked": 12})),
    (4, 45, 16, (None, {"pairs_checked": 16}), (None, {"delta": 4, "low_pairs": 7, "core_size": 0}),
     (None, {"delta": 2, "low_pairs": 0, "core_size": 5, "core_pairs_checked": 2})),
    (5, 81, 35, ((22, 44, 56), {"pairs_checked": 23}), ((22, 44, 56), {"delta": 6, "low_pairs": 7, "core_size": 1}),
     ((22, 44, 56), {"delta": 2, "low_pairs": 0, "core_size": 16, "core_pairs_checked": 9})),
    (6, 78, 24, (None, {"pairs_checked": 24}),
     (None, {"delta": 5, "low_pairs": 5, "core_size": 1, "core_pairs_checked": 0}),
     (None, {"delta": 2, "low_pairs": 0, "core_size": 6, "core_pairs_checked": 5})),
    (7, 54, 27, ((3, 34, 49), {"pairs_checked": 5}), ((3, 34, 49), {"delta": 6, "low_pairs": 3, "core_size": 1}),
     ((3, 34, 49), {"delta": 2, "low_pairs": 0, "core_size": 13, "core_pairs_checked": 3})),
    (8, 45, 18, (None, {"pairs_checked": 18}), (None, {"delta": 5, "low_pairs": 13, "core_size": 0}),
     (None, {"delta": 2, "low_pairs": 0, "core_size": 9, "core_pairs_checked": 5})),
    (9, 66, 41, ((17, 33, 48), {"pairs_checked": 27}), ((17, 33, 48), {"delta": 7, "low_pairs": 26, "core_size": 0}),
     ((17, 33, 48), {"delta": 2, "low_pairs": 0, "core_size": 23, "core_pairs_checked": 13})),
]


@pytest.mark.parametrize("row", SPARSE_PARTITE_TRIANGLES, ids=lambda row: f"seed{row[0]}")
def test_detect_triangle_sparse_partite_frozen(row):
    seed, n, m, *expected = row
    g = _sparse_partite(seed)
    assert (g.n, g.m) == (n, m)
    reports = [
        detect_triangle(g, backend="naive-mm"),
        detect_triangle(g, backend="degree-split"),
        detect_triangle(g, backend="degree-split", delta=2),
    ]
    got = [(rep.witness, {k: v for k, v in rep.stats.items() if k != "backend"}) for rep in reports]
    assert got == expected


def test_detect_triangle_backends_agree_random():
    rng = random.Random(41)
    for _ in range(120):
        n = rng.randint(3, 24)
        prob = rng.random() * 0.5
        edges = tuple(e for e in complete_edges(n) if rng.random() < prob)
        g = CliqueInstance(n=n, edges=edges, k=3)
        a = detect_triangle(g, backend="naive-mm")
        b = detect_triangle(g, backend="degree-split")
        assert a.solvable == b.solvable
        for rep in (a, b):
            if rep.solvable:
                u, v, w = rep.witness
                assert {(u, v), (u, w), (v, w)} <= set(edges)


def test_degree_split_counters_respect_bounds():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(4, 30)
        edges = tuple(e for e in complete_edges(n) if rng.random() < 0.4)
        if not edges:
            continue
        g = CliqueInstance(n=n, edges=edges, k=3)
        rep = detect_triangle(g, backend="degree-split")
        m = len(edges)
        delta = rep.stats["delta"]
        assert delta == isqrt(m) + (isqrt(m) ** 2 < m)
        assert rep.stats["low_pairs"] <= m * delta
        assert delta * rep.stats["core_size"] <= 2 * m


def test_detect_triangle_rejects_unknown_backend():
    k3 = CliqueInstance(n=3, edges=complete_edges(3), k=3)
    with pytest.raises(ParameterError):
        detect_triangle(k3, backend="fft")


def test_nw_triangle_frozen_cases():
    g = make_nw_graph(3, complete_edges(3), 3, [1, 2, 3], target=6)
    assert solve_nw_triangle(g).witness == (0, 1, 2)
    g7 = make_nw_graph(3, complete_edges(3), 3, [1, 2, 3], target=7)
    assert not solve_nw_triangle(g7).solvable


def test_nw_triangle_requires_arity_three():
    g = make_nw_graph(3, complete_edges(3), 2, [1, 2, 3], target=3)
    with pytest.raises(ParameterError):
        solve_nw_triangle(g)


def test_nw_kclique_frozen_cases():
    w = [3, 1, 4, 1]
    g = make_nw_graph(4, complete_edges(4), 4, w, target=sum(w))
    assert solve_nw_kclique(g).witness == (0, 1, 2, 3)
    star = make_nw_graph(4, [(0, 1), (0, 2), (0, 3)], 4, w, target=sum(w))
    assert not solve_nw_kclique(star).solvable


def test_nw_kclique_pair_arity_scans_edges():
    g = make_nw_graph(3, [(0, 1), (1, 2)], 2, [5, 7, 2], target=9)
    assert solve_nw_kclique(g).witness == (1, 2)


def test_nw_pipeline_matches_brute_random():
    rng = random.Random(43)
    for _ in range(60):
        k = rng.choice([3, 4])
        n = rng.randint(k, 9)
        edges = tuple(e for e in complete_edges(n) if rng.random() < 0.7)
        if k == 4:
            # a narrow weight palette keeps the zero-sum guess space small
            palette = [rng.randint(0, 8) for _ in range(3)]
            weights = [rng.choice(palette) for _ in range(n)]
        else:
            weights = [rng.randint(0, 8) for _ in range(n)]
        t = rng.randint(0, k * 8)
        g = make_nw_graph(n, edges, k, weights, target=t)
        want = oracle_nw_kclique(n, edges, k, weights, t)
        rep = solve_nw_kclique(g) if k != 3 else solve_nw_triangle(g)
        assert rep.solvable == (want is not None)
        if rep.solvable:
            assert sum(weights[v] for v in rep.witness) == t
            assert all(tuple(sorted(e)) in g.edges for e in combinations(rep.witness, 2))


def test_nw_pipeline_handles_negative_weights():
    g = make_nw_graph(3, complete_edges(3), 3, [-2, 5, -3], target=0)
    rep = solve_nw_triangle(g)
    assert rep.witness == (0, 1, 2)


def test_nw_pipeline_higher_dimension_agrees():
    g = make_nw_graph(4, complete_edges(4), 3, [9, 14, 3, 7], target=26)
    one = solve_nw_triangle(g, d=1)
    two = solve_nw_triangle(g, d=2)
    assert one.solvable == two.solvable == True  # noqa: E712  (9+14+3)
    assert one.witness == two.witness


def _frozen_nw_graph(i):
    """Graphs 0-29 are triangles, 30-41 are k = 4 graphs on a narrow palette."""
    rng = random.Random(f"frozen-nw:{i}")
    k = 3 if i < 30 else 4
    n = rng.randint(8, 18) if k == 3 else rng.randint(6, 10)
    density = rng.uniform(0.3, 0.7) if k == 3 else rng.uniform(0.5, 0.9)
    edges = tuple(e for e in combinations(range(n), 2) if rng.random() < density)
    if k == 3:
        weights = [rng.randint(-5, 30) for _ in range(n)]
    else:
        palette = [rng.randint(0, 8) for _ in range(3)]
        weights = [rng.choice(palette) for _ in range(n)]
    if i % 2 == 0 or k == 4:
        target = sum(rng.sample(weights, k))
    else:
        target = rng.randint(-5, 30 * k)
    return make_nw_graph(n, edges, k, weights, target=target)


# Witnesses and alpha counts of the present-mode pipeline, which built every
# alpha graph the graph's weights allow: (witness, alphas) at d = 1 then d = 2
# for the triangles (both backends gave the same), (witness, alphas) for k = 4.
FROZEN_NW = (
    ((9, 11, 13), 40, (9, 11, 13), 20),
    (None, 0, None, 18),
    ((1, 9, 11), 69, (4, 6, 7), 106),
    ((5, 7, 11), 2, (5, 7, 11), 47),
    ((5, 6, 15), 31, (5, 6, 15), 149),
    ((4, 9, 10), 20, (4, 9, 10), 45),
    ((0, 3, 4), 7, (3, 4, 6), 55),
    (None, 0, None, 24),
    ((1, 13, 16), 9, (1, 13, 16), 114),
    (None, 12, None, 93),
    ((2, 3, 7), 7, (2, 3, 7), 62),
    ((2, 3, 9), 21, (5, 6, 9), 50),
    (None, 3, None, 18),
    ((2, 5, 13), 18, (2, 11, 14), 76),
    ((1, 8, 15), 1, (3, 11, 12), 119),
    ((0, 6, 10), 4, (0, 6, 10), 9),
    (None, 0, None, 48),
    (None, 18, None, 69),
    (None, 3, None, 6),
    ((5, 6, 7), 19, (5, 6, 7), 23),
    ((5, 9, 11), 3, (5, 9, 11), 501),
    ((3, 7, 8), 13, (0, 8, 12), 13),
    ((10, 11, 12), 33, (10, 11, 12), 213),
    ((1, 3, 4), 1, (1, 3, 4), 55),
    (None, 9, None, 138),
    ((5, 11, 15), 19, (5, 11, 15), 288),
    (None, 0, None, 36),
    (None, 6, None, 276),
    ((3, 5, 16), 30, (3, 5, 16), 166),
    (None, 99, None, 189),
    ((1, 3, 5, 8), 6),
    ((1, 2, 6, 7), 30),
    ((2, 4, 5, 6), 28),
    ((0, 1, 2, 5), 6),
    ((0, 2, 3, 5), 1),
    ((0, 1, 3, 5), 1),
    (None, 15),
    ((1, 2, 4, 9), 8),
    ((0, 7, 8, 9), 6),
    ((0, 1, 2, 3), 38),
    ((1, 3, 4, 5), 27),
    (None, 180),
)


# (alphas, alpha_nodes) of the slot-consistent pipeline at d = 1 then d = 2,
# for the same graphs, recorded before the forced last coordinate was tested
# inside the window loop of the last free coordinate.
FROZEN_NW_COUNTS = (
    (1, 483, 1, 52),
    (0, 95, 0, 101),
    (1, 1099, 1, 578),
    (1, 68, 1, 180),
    (1, 520, 2, 381),
    (1, 325, 1, 275),
    (1, 40, 1, 188),
    (0, 55, 0, 196),
    (1, 501, 2, 461),
    (0, 522, 1, 282),
    (1, 207, 1, 450),
    (1, 293, 1, 147),
    (0, 47, 0, 167),
    (1, 446, 2, 161),
    (1, 92, 1, 238),
    (1, 257, 1, 22),
    (0, 359, 0, 350),
    (0, 318, 0, 437),
    (0, 16, 0, 35),
    (1, 92, 1, 133),
    (1, 35, 1, 1432),
    (1, 105, 1, 98),
    (1, 312, 2, 686),
    (1, 46, 2, 347),
    (2, 96, 0, 561),
    (1, 367, 2, 1169),
    (0, 170, 0, 306),
    (0, 46, 0, 1005),
    (1, 1046, 1, 591),
    (2, 912, 1, 464),
    (6, 7, 6, 21),
    (2, 54, 4, 31),
    (8, 27, 2, 145),
    (6, 7, 6, 27),
    (1, 4, 1, 4),
    (1, 1, 1, 1),
    (15, 15, 15, 15),
    (8, 14, 14, 20),
    (6, 6, 6, 6),
    (1, 86, 4, 193),
    (1, 24, 1, 24),
    (1, 140, 2, 193),
)


def test_nw_pipeline_frozen_witnesses():
    """Pruning alphas whose graphs hold no clique keeps the first alpha that
    holds one, so witnesses stay frozen and alpha counts never grow past the
    present-mode ones; the slot-consistent counts themselves are frozen."""
    for i, (frozen, counts) in enumerate(zip(FROZEN_NW, FROZEN_NW_COUNTS, strict=True)):
        g = _frozen_nw_graph(i)
        for d in (1, 2):
            if g.k == 3:
                reps = [solve_nw_triangle(g, backend=backend, d=d) for backend in ("naive-mm", "degree-split")]
            else:
                reps = [solve_nw_kclique(g, d=d)]
            for rep in reps:
                assert (rep.stats["alphas"], rep.stats["alpha_nodes"]) == counts[2 * d - 2:2 * d], (i, d)
                if g.k == 3 or d == 1:
                    witness, alphas = frozen[2 * d - 2:2 * d]
                    assert rep.witness == witness, (i, d)
                    assert rep.stats["alphas"] <= alphas, (i, d)
                else:  # no present-mode run was frozen for k = 4 at d = 2
                    assert rep.solvable == (frozen[0] is not None), i
                    assert rep.witness is None or verify_witness(g, rep.witness), i


def _capacity_graph(seed, n, k, big_m, density):
    rng = random.Random(f"capacity:{seed}")
    edges = tuple(e for e in combinations(range(n), 2) if rng.random() < density)
    weights = [rng.randint(0, big_m) for _ in range(n)]
    target = rng.randint(0, k * big_m) if seed % 2 else sum(rng.sample(weights, k))
    return make_nw_graph(n, edges, k, weights, target=target)


@pytest.mark.parametrize(
    "seed, n, k, big_m, density",
    [(seed, 150, 3, 200, 0.3) for seed in range(4)]
    + [(seed, 100, 3, 200, 0.1) for seed in (0, 2, 3)]
    + [(seed, 12, 4, 20, 0.6) for seed in range(6)],
)
def test_nw_pipeline_beyond_the_present_mode_bound(seed, n, k, big_m, density):
    g = _capacity_graph(seed, n, k, big_m, density)
    # support^(C(k,2)-1) of the carry graph exceeds ALPHA_BUDGET: present mode
    # refuses this input before trying any alpha
    carry = fwd.nodeweight_to_edgeweight(g).items[0].instance
    with pytest.raises(ResourceBudgetError):
        next(fwd.present_alpha_tuples(carry, k))
    rep = solve_nw_triangle(g) if k == 3 else solve_nw_kclique(g)
    assert rep.solvable == solve_kclique_bruteforce(g).solvable
    assert rep.witness is None or verify_witness(g, rep.witness)
    assert 0 < rep.stats["alpha_nodes"] <= fwd.ALPHA_BUDGET
