"""Whole-toolkit acceptance suite: one test per shipped guarantee.

Every test exercises its guarantee end to end at full sample size and prints
a single PASS/FAIL summary line (visible under pytest -s or on failure).
Source-side verdicts come from the naive oracles in util.py wherever a second
independent route exists; the one deliberate exception is the backward chain,
where the reduced instances are too large for the direct k'-SUM scan and the
meet-in-the-middle solver stands in, itself cross-validated below.
"""

import json
import math
import random
import time
from itertools import combinations, product

from ksumclique import (
    CliqueInstance,
    KSumInstance,
    LinDepInstance,
    TargetSumInstance,
    behrend_sumfree,
    detect_triangle,
    digits_of,
    edgeweight_to_unweighted,
    kclique_to_ksum,
    ksum_mod_reduce,
    ksum_to_vectorsum,
    lift_ksum_witness_to_clique,
    lift_pipeline_witness,
    lindep_to_vectorsum,
    nodeweight_to_edgeweight,
    norm_counts,
    smallksum_to_kclique,
    solve_kclique_bruteforce,
    solve_ksum_bruteforce,
    solve_ksum_mim,
    solve_lindep_bruteforce,
    solve_nw_kclique,
    solve_targetsum_bruteforce,
    solve_vectorsum_bruteforce,
    targetsum_to_ksum,
    verify_sumfree,
    verify_witness,
)
from ksumclique.cli import main
from ksumclique.reduce_sum_to_clique import (
    ksum_as_nodeweight_clique,
    present_alpha_tuples,
)
from util import (
    complete_edges,
    make_clique,
    make_ew_graph,
    make_ksum,
    make_nw_graph,
    oracle_ew_kclique,
    oracle_ksum,
    oracle_kclique,
    oracle_lindep,
    oracle_nw_kclique,
)

# lifted-witness bookkeeping shared by the equivalence sweeps and checked as
# its own guarantee afterwards
LIFTS = {"attempted": 0, "verified": 0}


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _count_lift(source, lifted) -> None:
    LIFTS["attempted"] += 1
    if verify_witness(source, lifted):
        LIFTS["verified"] += 1


def _pick_radix(k: int, bound: int, d: int) -> int:
    p = k + 1
    while p**d < k * bound + 1:
        p += 1
    return p


def _random_target(rng, numbers, k):
    """Planted half the time, sometimes deliberately unreachable."""
    mx = max(numbers)
    roll = rng.random()
    if roll < 0.5:
        return sum(rng.sample(numbers, k))
    if roll < 0.6:
        return k * mx + 1 + rng.randint(0, 8)
    return rng.randint(0, k * mx) if mx else 0


# --- 01: forward-stage equivalence -----------------------------------------

def _stage_digit_vectors(rng):
    mism = 0
    for _ in range(1000):
        k = rng.randint(2, 4)
        n = rng.randint(6, 12)
        big_m = rng.randint(0, 500)
        numbers = tuple(rng.randint(0, big_m) for _ in range(n))
        t = _random_target(rng, numbers, k)
        inst = make_ksum(numbers, k, t)
        d = rng.randint(1, 3)
        coll = ksum_to_vectorsum(inst, _pick_radix(k, max(numbers), d), d)
        want = oracle_ksum(numbers, k, t) is not None
        got = False
        for idx, item in enumerate(coll.items):
            rep = solve_vectorsum_bruteforce(item.instance)
            if rep.solvable:
                got = True
                _count_lift(inst, coll.lift(idx, rep.witness))
                break
        mism += want != got
    return mism


def _random_nw_graph(rng, n, k, big_m, prob=None):
    weights = [rng.randint(0, big_m) for _ in range(n)]
    if prob is None:
        prob = rng.uniform(0.3, 0.9)
    edges = {e for e in complete_edges(n) if rng.random() < prob}
    if rng.random() < 0.5:
        verts = rng.sample(range(n), k)
        edges.update(tuple(sorted(pair)) for pair in combinations(verts, 2))
        t = sum(weights[v] for v in verts)
    else:
        t = rng.randint(0, k * max(weights)) if max(weights) else 0
    return tuple(sorted(edges)), weights, t


def _stage_squared_edges(rng):
    mism = 0
    for _ in range(1000):
        k = rng.randint(2, 4)
        n = rng.randint(6, 12)
        edges, weights, t = _random_nw_graph(rng, n, k, rng.randint(0, 500))
        g = make_nw_graph(n, edges, k, weights, t)
        d = rng.randint(1, 2)
        coll = nodeweight_to_edgeweight(g, p=_pick_radix(k, max(weights), d), d=d)
        want = oracle_nw_kclique(n, edges, k, weights, t) is not None
        got = False
        for idx, item in enumerate(coll.items):
            rep = solve_kclique_bruteforce(item.instance)
            if rep.solvable:
                got = True
                _count_lift(g, coll.lift(idx, rep.witness))
                break
        mism += want != got
    return mism


def _random_ew_graph(rng, n, k, big_m, prob):
    edges = sorted(e for e in complete_edges(n) if rng.random() < prob)
    weights = [rng.randint(-big_m, big_m) for _ in edges]
    if rng.random() < 0.5 and n >= k:
        # plant a zero-weight clique, rejection-sampling the last edge weight
        verts = rng.sample(range(n), k)
        pairs = [tuple(sorted(pair)) for pair in combinations(verts, 2)]
        index = {e: i for i, e in enumerate(edges)}
        for e in pairs:
            if e not in index:
                index[e] = len(edges)
                edges.append(e)
                weights.append(0)
        for _ in range(60):
            head = [rng.randint(-big_m, big_m) for _ in pairs[:-1]]
            if abs(sum(head)) <= big_m:
                for e, w in zip(pairs, head + [-sum(head)]):
                    weights[index[e]] = w
                break
        else:
            for e in pairs:
                weights[index[e]] = 0
        order = sorted(range(len(edges)), key=lambda i: edges[i])
        edges = [edges[i] for i in order]
        weights = [weights[i] for i in order]
    return tuple(edges), weights


def _stage_alpha(rng):
    mism = 0
    plan = [2] * 600 + [3] * 330 + [4] * 70
    rng.shuffle(plan)
    for k in plan:
        n = rng.randint(6, 12) if k < 4 else rng.randint(6, 10)
        if k == 2:
            big_m, prob = rng.randint(0, 500), rng.uniform(0.3, 0.8)
        elif k == 3:
            big_m, prob = rng.randint(0, 6), rng.uniform(0.3, 0.8)
        else:
            big_m, prob = 1, rng.uniform(0.25, 0.45)
        edges, weights = _random_ew_graph(rng, n, k, big_m, prob)
        g = make_ew_graph(n, edges, k, weights, target=0)
        mode = "full" if rng.random() < 0.5 else "present"
        coll = edgeweight_to_unweighted(g, alpha_mode=mode)
        want = oracle_ew_kclique(n, edges, k, weights, 0) is not None
        got = False
        for idx, item in enumerate(coll.items):
            rep = solve_kclique_bruteforce(item.instance)
            if rep.solvable:
                got = True
                _count_lift(g, coll.lift(idx, rep.witness))
                break
        mism += want != got
    return mism


def _piece_size(result):
    """Every piece of the merged pipeline graph has k*n vertices."""
    return result.source.k * result.source.n


def _component_instances(result):
    size = _piece_size(result)
    buckets = [[] for _ in range(result.g_nk)]
    for u, v in result.instance.edges:
        i = u // size
        buckets[i].append((u - i * size, v - i * size))
    k = result.source.k
    return [CliqueInstance(n=size, edges=tuple(b), k=k) for b in buckets]


def _stage_pipeline(rng):
    mism = 0
    plan = [2] * 700 + [3] * 250 + [4] * 50
    rng.shuffle(plan)
    for k in plan:
        n = rng.randint(6, 12) if k < 4 else rng.randint(6, 9)
        cap = n * n
        if k == 2:
            numbers = tuple(rng.randint(0, cap) for _ in range(n))
        else:
            # few distinct values keeps the per-carry weight support small
            vals = [rng.randint(0, cap) for _ in range(5 - k)]
            numbers = tuple(rng.choice(vals) for _ in range(n))
        t = _random_target(rng, numbers, k)
        inst = make_ksum(numbers, k, t)
        result = smallksum_to_kclique(inst, f_exp=2)
        want = oracle_ksum(numbers, k, t) is not None
        got = False
        for comp_idx, comp in enumerate(_component_instances(result)):
            rep = solve_kclique_bruteforce(comp)
            if rep.solvable:
                got = True
                merged = tuple(v + comp_idx * _piece_size(result) for v in rep.witness)
                _count_lift(inst, lift_pipeline_witness(result, merged))
                break
        mism += want != got
    return mism


def test_01_forward_stage_equivalence():
    start = time.perf_counter()
    rng = random.Random(0xF0)
    mism = {
        "digit-carry": _stage_digit_vectors(rng),
        "squared-edges": _stage_squared_edges(rng),
        "alpha-strip": _stage_alpha(rng),
        "pipeline": _stage_pipeline(rng),
    }
    elapsed = time.perf_counter() - start
    ok = all(v == 0 for v in mism.values()) and elapsed < 300
    _verdict(1, "forward-stage equivalence", ok,
             f"4x1000 trials, mismatches {mism}, {elapsed:.1f}s (limit 300s)")


# --- 02: backward-chain equivalence -----------------------------------------

def _check_backward(g, mode):
    ks = kclique_to_ksum(g, radix_mode=mode)
    rep = solve_ksum_mim(ks)
    want = oracle_kclique(g.n, g.edges, g.k) is not None
    if rep.solvable and want:
        _count_lift(g, lift_ksum_witness_to_clique(g, rep.witness, radix_mode=mode))
    return rep.solvable != want


def test_02_backward_chain_equivalence():
    start = time.perf_counter()
    mism = 0
    checked = 0
    for n in (3, 4, 5):
        all_pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(all_pairs)):
            edges = tuple(e for i, e in enumerate(all_pairs) if bits >> i & 1)
            g = make_clique(n, edges, 3)
            for mode in ("uniform", "mixed"):
                mism += _check_backward(g, mode)
                checked += 1
    rng = random.Random(0xB2)
    for trial in range(500):
        n = rng.randint(4, 9)
        prob = rng.uniform(0.1, 0.5)
        edges = {e for e in combinations(range(n), 2) if rng.random() < prob}
        if rng.random() < 0.3:
            verts = rng.sample(range(n), 3)
            edges.update(tuple(sorted(pair)) for pair in combinations(verts, 2))
        g = make_clique(n, tuple(sorted(edges)), 3)
        mism += _check_backward(g, ("uniform", "mixed")[trial % 2])
        checked += 1
    elapsed = time.perf_counter() - start
    ok = mism == 0 and elapsed < 600
    _verdict(2, "backward-chain equivalence", ok,
             f"{checked} graph/packing checks (1096 exhaustive graphs x2 + 500 random), "
             f"{mism} mismatches, {elapsed:.1f}s (limit 600s)")


# --- 03: witness lifting ----------------------------------------------------

def test_03_witness_lifting():
    if LIFTS["attempted"] == 0:
        # standalone fallback: a small planted sample through both chains
        rng = random.Random(0x11F7)
        for _ in range(60):
            k = rng.randint(2, 3)
            n = rng.randint(6, 10)
            numbers = tuple(rng.randint(0, n * n) for _ in range(n))
            inst = make_ksum(numbers, k, sum(rng.sample(numbers, k)))
            result = smallksum_to_kclique(inst, f_exp=2)
            for comp_idx, comp in enumerate(_component_instances(result)):
                rep = solve_kclique_bruteforce(comp)
                if rep.solvable:
                    merged = tuple(v + comp_idx * _piece_size(result) for v in rep.witness)
                    _count_lift(inst, lift_pipeline_witness(result, merged))
                    break
        for _ in range(60):
            n = rng.randint(4, 6)
            edges = {e for e in combinations(range(n), 2) if rng.random() < 0.4}
            edges.update(tuple(sorted(p)) for p in combinations(rng.sample(range(n), 3), 2))
            g = make_clique(n, tuple(sorted(edges)), 3)
            rep = solve_ksum_mim(kclique_to_ksum(g))
            _count_lift(g, lift_ksum_witness_to_clique(g, rep.witness))
    ok = LIFTS["attempted"] > 0 and LIFTS["verified"] == LIFTS["attempted"]
    _verdict(3, "witness lifting", ok,
             f"{LIFTS['verified']}/{LIFTS['attempted']} lifted witnesses verified at the source")


# --- 04: nonnegative squared edge weights -----------------------------------

def test_04_squared_weights_nonnegative():
    rng = random.Random(0x5E)
    negatives = 0
    zero_set_errors = 0
    outputs = 0
    for _ in range(200):
        k = rng.choice((2, 3, 4))
        n = rng.randint(5, 10)
        edges, weights, t = _random_nw_graph(rng, n, k, rng.randint(0, 60))
        g = make_nw_graph(n, edges, k, weights, t)
        d = rng.randint(1, 2)
        coll = nodeweight_to_edgeweight(g, p=_pick_radix(k, max(weights), d), d=d)
        edge_set = set(edges)
        cliques = [
            c for c in combinations(range(n), k)
            if all(pair in edge_set for pair in combinations(c, 2))
        ]
        hits_zero = dict.fromkeys(cliques, False)
        for item in coll.items:
            outputs += 1
            wmap = item.instance.edge_weight_map()
            for c in cliques:
                w = sum(wmap[pair] for pair in combinations(c, 2))
                if w < 0:
                    negatives += 1
                elif w == 0:
                    hits_zero[c] = True
        for c, hit in hits_zero.items():
            if hit != (sum(weights[v] for v in c) == t):
                zero_set_errors += 1
    ok = negatives == 0 and zero_set_errors == 0
    _verdict(4, "nonnegative clique weights", ok,
             f"200 graphs / {outputs} outputs: {negatives} negative cliques, "
             f"{zero_set_errors} zero-set mismatches")


# --- 05: weight and count accounting ----------------------------------------

def test_05_weight_and_count_accounting():
    rng = random.Random(0xAC)
    bad = []

    # composed run, k = 2, full alpha mode: the only zero-sum assignment for
    # the single slot pair is 0, so components == feasible carries exactly
    for _ in range(40):
        n = rng.randint(6, 12)
        numbers = tuple(rng.randint(0, n * n) for _ in range(n))
        t = sum(rng.sample(numbers, 2)) if rng.random() < 0.7 else rng.randint(0, 2 * max(numbers))
        inst = make_ksum(numbers, 2, t)
        res = smallksum_to_kclique(inst, f_exp=2, alpha_mode="full")
        ew = nodeweight_to_edgeweight(
            ksum_as_nodeweight_clique(inst), p=res.params["p"], d=res.params["d"])
        if res.params["s"] != 3 ** (res.params["d"] - 1):
            bad.append("carry count is not (k+1)^(d-1)")
        if res.g_nk != len(ew.items):
            bad.append(f"{res.g_nk} components from {len(ew.items)} feasible carries (k=2)")
        if res.instance.n != res.g_nk * 2 * n:
            bad.append("component vertex count differs from k*n")

    # alpha stage alone, k = 3, full mode: emitted count must equal the number
    # of zero-sum weight triples, counted here by direct enumeration
    for _ in range(40):
        n = rng.randint(6, 10)
        big_m = rng.randint(0, 6)
        edges, weights = _random_ew_graph(rng, n, 3, big_m, rng.uniform(0.3, 0.8))
        g = make_ew_graph(n, edges, 3, weights, target=0)
        coll = edgeweight_to_unweighted(g, alpha_mode="full")
        bound = g.weight_bound
        expected = sum(
            1 for a in product(range(-bound, bound + 1), repeat=2)
            if abs(a[0] + a[1]) <= bound
        )
        if len(coll.items) != expected:
            bad.append(f"emitted {len(coll.items)} alpha graphs, expected {expected}")
        if len(coll.items) > (2 * bound + 1) ** 2:
            bad.append("alpha count above (2M+1)^(C(k,2)-1)")
        for item in coll.items:
            out = item.instance
            if out.n != 3 * n:
                bad.append("alpha graph is not on k*n vertices")
            if out.partition != tuple(i for i in range(1, 4) for _ in range(n)):
                bad.append("alpha graph partition is not slot-major")
            if any(u // n == v // n for u, v in out.edges):
                bad.append("alpha graph edge inside one slot class")

    # squared-weight cap, recomputed from scratch as 2 k^3 d p^2
    for _ in range(40):
        k = rng.choice((2, 3, 4))
        n = rng.randint(5, 10)
        edges, weights, t = _random_nw_graph(rng, n, k, rng.randint(0, 500))
        d = rng.randint(1, 2)
        p = _pick_radix(k, max(weights), d)
        coll = nodeweight_to_edgeweight(make_nw_graph(n, edges, k, weights, t), p=p, d=d)
        cap = 2 * k**3 * d * p**2
        for item in coll.items:
            if any(abs(w) > cap for _, _, w in item.instance.edge_weights):
                bad.append(f"edge weight above 2k^3dp^2 = {cap}")

    # composed present-mode run, k = 3: component count equals the sum of
    # per-carry alpha counts, each within the full-mode ceiling
    for _ in range(20):
        n = rng.randint(6, 10)
        vals = [rng.randint(0, n * n) for _ in range(3)]
        numbers = tuple(rng.choice(vals) for _ in range(n))
        t = sum(rng.sample(numbers, 3))
        inst = make_ksum(numbers, 3, t)
        res = smallksum_to_kclique(inst, f_exp=2)
        ew = nodeweight_to_edgeweight(
            ksum_as_nodeweight_clique(inst), p=res.params["p"], d=res.params["d"])
        total = 0
        for item in ew.items:
            alphas = list(present_alpha_tuples(item.instance, 3))
            total += len(alphas)
            if len(alphas) > (2 * item.instance.weight_bound + 1) ** 2:
                bad.append("present-mode alpha count above the full-mode ceiling")
        if res.g_nk != total:
            bad.append(f"{res.g_nk} components vs {total} carry/alpha pairs")
        if res.instance.n != res.g_nk * 3 * n:
            bad.append("component vertex count differs from k*n")

    _verdict(5, "weight and count accounting", ok := not bad,
             "140 accounting trials clean" if ok else "; ".join(bad[:4]))


# --- 06: progression-free suite ----------------------------------------------

def test_06_progression_free_suite():
    failures = []
    for n in range(1, 201):
        s = behrend_sumfree(n, 3)
        p = s.params
        if len(s.elements) != n:
            failures.append(f"n={n}: size {len(s.elements)}")
        if not verify_sumfree(s.elements, 3):
            failures.append(f"n={n}: not 3-sum-free")
        if any(not 0 <= x < p.base**p.m for x in s.elements):
            failures.append(f"n={n}: element outside [0, base^m)")
        for x in s.elements:
            digs = digits_of(x, p.base, p.m)
            if max(digs, default=0) > p.b - 1:
                failures.append(f"n={n}: digit above b-1")
                break
            if sum(dig * dig for dig in digs) != p.r:
                failures.append(f"n={n}: norm differs from r={p.r}")
                break
        floor = p.b**p.m // (p.m * (p.b - 1) ** 2 + 1)
        if norm_counts(p.m, p.b)[p.r] < floor:
            failures.append(f"n={n}: densest class below the pigeonhole floor")
    _verdict(6, "progression-free suite", ok := not failures,
             "all n <= 200 single-norm, in range, above the pigeonhole floor"
             if ok else "; ".join(failures[:3]))


# --- 07: modular weight reduction ---------------------------------------------

def test_07_modular_weight_reduction():
    misses = 0
    for seed in range(200):
        rng = random.Random(f"mp:{seed}")
        n = rng.randint(5, 10)
        k = rng.randint(2, 4)
        numbers = tuple(rng.randint(0, 10 ** rng.randint(1, 9)) for _ in range(n))
        inst = make_ksum(numbers, k, sum(rng.sample(numbers, k)))
        coll = ksum_mod_reduce(inst, confidence=rng.randint(1, 3), seed=seed)
        if not any(solve_ksum_bruteforce(item.instance).solvable for item in coll.items):
            misses += 1
    false_positives = 0
    for seed in range(500):
        rng = random.Random(f"fp:{seed}")
        numbers = tuple(rng.randint(0, 10**9) for _ in range(10))
        sums = {sum(c) for c in combinations(numbers, 3)}
        t = rng.randint(0, 3 * max(numbers))
        while t in sums:
            t = rng.randint(0, 3 * max(numbers))
        coll = ksum_mod_reduce(make_ksum(numbers, 3, t), confidence=100, seed=seed)
        if any(solve_ksum_bruteforce(item.instance).solvable for item in coll.items):
            false_positives += 1
    rate = false_positives / 500
    ok = misses == 0 and rate <= 0.05
    _verdict(7, "modular weight reduction", ok,
             f"completeness {200 - misses}/200, false-positive rate "
             f"{rate:.2%} over 500 seeds (limit 5%)")


# --- 08: solver cross-validation ----------------------------------------------

def _suite_mim_vs_brute(rng):
    mism = 0
    for _ in range(1000):
        n = rng.randint(2, 14)
        k = rng.randint(2, min(5, n))
        big_m = rng.choice((5, 50, 10**6))
        lo = -big_m if rng.random() < 0.3 else 0
        numbers = tuple(rng.randint(lo, big_m) for _ in range(n))
        if rng.random() < 0.5:
            t = sum(rng.sample(numbers, k))
        else:
            t = rng.randint(k * min(numbers), k * max(numbers))
        inst = make_ksum(numbers, k, t)
        mim = solve_ksum_mim(inst)
        brute = solve_ksum_bruteforce(inst)
        if mim.solvable != brute.solvable:
            mism += 1
        elif mim.solvable and not verify_witness(inst, mim.witness):
            mism += 1
    return mism


def _suite_triangle_backends(rng):
    mism = 0
    for _ in range(500):
        n = rng.randint(3, 128)
        prob = rng.uniform(0.2, 1.2) / math.sqrt(n)
        edges = {e for e in combinations(range(n), 2) if rng.random() < prob}
        if rng.random() < 0.3:
            edges.update(tuple(sorted(p)) for p in combinations(rng.sample(range(n), 3), 2))
        g = make_clique(n, tuple(sorted(edges)), 3)
        reports = [detect_triangle(g, backend=b) for b in ("naive-mm", "degree-split")]
        if reports[0].solvable != reports[1].solvable:
            mism += 1
            continue
        for rep in reports:
            if rep.solvable and not verify_witness(g, rep.witness):
                mism += 1
    return mism


def _suite_nw_pipeline_vs_brute(rng):
    mism = 0
    for _ in range(300):
        roll = rng.random()
        if roll < 0.15:
            k, big_m = 2, rng.randint(0, 100)
        elif roll < 0.9:
            k, big_m = 3, rng.randint(0, 4)
        else:
            k, big_m = 4, 1
        n = rng.randint(4, 40) if k != 4 else rng.randint(4, 12)
        prob = rng.uniform(0.1, min(0.5, 12.0 / n))
        edges, weights, t = _random_nw_graph(rng, n, k, big_m, prob=prob)
        g = make_nw_graph(n, edges, k, weights, t)
        pipe = solve_nw_kclique(g, d=rng.randint(1, 2))
        brute = solve_kclique_bruteforce(g)
        if pipe.solvable != brute.solvable:
            mism += 1
        elif pipe.solvable and not verify_witness(g, pipe.witness):
            mism += 1
    return mism


def test_08_solver_cross_validation():
    rng = random.Random(0x50)
    results = {}
    times = {}
    for name, suite in (
        ("mim-vs-brute", _suite_mim_vs_brute),
        ("triangle-backends", _suite_triangle_backends),
        ("nw-pipeline-vs-brute", _suite_nw_pipeline_vs_brute),
    ):
        t0 = time.perf_counter()
        results[name] = suite(rng)
        times[name] = time.perf_counter() - t0
    ok = all(v == 0 for v in results.values()) and all(t < 120 for t in times.values())
    timing = ", ".join(f"{k} {t:.1f}s" for k, t in times.items())
    _verdict(8, "solver cross-validation", ok,
             f"mismatches {results}; {timing} (limit 120s each)")


# --- 09: finite-field reductions ------------------------------------------------

def test_09_field_reductions():
    rng = random.Random(0x9F)
    mism = 0
    cells = 0
    for q in (2, 3, 5, 7, 11, 13, 17):
        for r in range(1, 13):
            for k in range(1, 5):
                cells += 1
                for _ in range(2):
                    elements = tuple(rng.randrange(q) for _ in range(r))
                    z = rng.randrange(q)
                    inst = TargetSumInstance(q=q, elements=elements, k=k, target=z)
                    direct = any(
                        sum(elements[i] for i in c) % q == z
                        for c in combinations(range(r), k)
                    )
                    brute = solve_targetsum_bruteforce(inst).solvable
                    coll = targetsum_to_ksum(inst)
                    reduced = any(
                        solve_ksum_bruteforce(item.instance).solvable for item in coll.items
                    )
                    if not (direct == brute == reduced):
                        mism += 1
    for q in (2, 3, 5):
        for r in range(1, 9):
            for dim in range(1, 4):
                for k in range(1, min(3, r) + 1):
                    cells += 1
                    for _ in range(2):
                        vectors = tuple(
                            tuple(rng.randrange(q) for _ in range(dim)) for _ in range(r)
                        )
                        target = tuple(rng.randrange(q) for _ in range(dim))
                        inst = LinDepInstance(q=q, n=dim, vectors=vectors, k=k, target=target)
                        sweep = oracle_lindep(q, vectors, k, target) is not None
                        gauss = solve_lindep_bruteforce(inst).solvable
                        coll = lindep_to_vectorsum(inst)
                        reduced = any(
                            solve_vectorsum_bruteforce(item.instance).solvable
                            for item in coll.items
                        )
                        if not (sweep == gauss == reduced):
                            mism += 1
    _verdict(9, "finite-field reductions", mism == 0,
             f"{cells} parameter cells x2 instances, {mism} mismatches")


# --- 10: CLI determinism ---------------------------------------------------------

def _cli_case_artifacts(case, root):
    root.mkdir(parents=True, exist_ok=True)
    src = root / "src.json"
    graph_src = root / "graph.json"
    assert main(["gen", "ksum", "--n", "8", "--k", "3", "--M", "40", "--plant",
                 "--seed", "11", "--out", str(src)]) == 0
    assert main(["gen", "graph", "--n", "6", "--k", "3", "--edge-prob", "0.6",
                 "--plant", "--seed", "5", "--out", str(graph_src)]) == 0
    name, argv_tail = case
    produced = []
    if name == "gen-ksum":
        produced = [src]
    elif name == "gen-graph-edge":
        out = root / "g.json"
        assert main(["gen", "graph", "--n", "9", "--k", "3", "--weights", "edge",
                     "--M", "7", "--edge-prob", "0.4", "--seed", "9", "--out", str(out)]) == 0
        produced = [out]
    elif name == "reduce":
        out = root / "red.jsonl"
        assert main(["reduce", "--in", str(src if argv_tail[0] != "graph" else graph_src),
                     *argv_tail[1:], "--out", str(out)]) == 0
        produced = [out]
    elif name == "solve":
        out = root / "solved.json"
        assert main(["solve", "--in", str(src), "--out", str(out)]) == 0
        produced = [out]
    elif name == "verify":
        out = root / "verified.json"
        assert main(["verify", "--in", str(src), "--witness", "0,1,2",
                     "--out", str(out)]) in (0, 1)
        produced = [out]
    elif name == "experiment":
        cfg = root / "cfg.json"
        out = root / "report.json"
        cfg.write_text(json.dumps({
            "trials": 10, "seed": 4, "n_range": [4, 8], "k_range": [2, 3],
            "m_range": [0, 25], "chain": ["ksum_to_vectorsum"],
        }))
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        produced = [out]
    elif name == "subsetsum-mode":
        out_dir = root / "pieces"
        report = root / "modes.jsonl"
        assert main(["subsetsum-mode", "--in", str(src), "--f-exponent", "2",
                     "--out", str(out_dir), "--report", str(report)]) in (0, 1)
        produced = [report] + sorted(out_dir.glob("*.jsonl"))
    return [(p.name, p.read_bytes()) for p in produced]


def test_10_cli_determinism(tmp_path):
    cases = [
        ("gen-ksum", ()),
        ("gen-graph-edge", ()),
        ("reduce", ("ksum", "--via", "ksum_to_vectorsum")),
        ("reduce", ("ksum", "--via", "smallksum_to_kclique", "--f-exponent", "2")),
        ("reduce", ("ksum", "--via", "ksum_mod_reduce", "--confidence", "2", "--seed", "9")),
        ("reduce", ("graph", "--via", "kclique_to_ksum", "--radix-mode", "mixed")),
        ("reduce", ("graph", "--via", "clique_to_vectorsum")),
        ("solve", ()),
        ("verify", ()),
        ("experiment", ()),
        ("subsetsum-mode", ()),
    ]
    unstable = []
    for i, case in enumerate(cases):
        first = _cli_case_artifacts(case, tmp_path / f"{i}a")
        second = _cli_case_artifacts(case, tmp_path / f"{i}b")
        if first != second:
            unstable.append(case[0] if not case[1] else f"{case[0]}:{case[1][2]}")
    _verdict(10, "CLI determinism", ok := not unstable,
             f"{len(cases)} invocation shapes byte-identical on repeat"
             if ok else f"unstable: {unstable}")
