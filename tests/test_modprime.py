"""Primality, seeded prime draws, and the modular shrink of k-SUM."""

import hashlib
import random

import pytest

from ksumclique import (
    KSumInstance,
    ParameterError,
    is_prime,
    ksum_mod_reduce,
    prime_range_bound,
    random_prime_in,
    serialize_collection,
    solve_ksum_bruteforce,
)

from util import make_ksum, oracle_ksum


def trial_division(x):
    if x < 2:
        return False
    f = 2
    while f * f <= x:
        if x % f == 0:
            return False
        f += 1
    return True


def test_is_prime_frozen_values():
    assert is_prime(2)
    assert is_prime(7919)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_is_prime_matches_trial_division():
    for x in range(2, 2000):
        assert is_prime(x) == trial_division(x)


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**19 - 1))


def test_random_prime_in_singleton():
    assert random_prime_in(2, 2, random.Random(0)) == 2


def test_random_prime_in_is_seeded_and_in_range():
    a = random_prime_in(100, 10_000, random.Random(99))
    b = random_prime_in(100, 10_000, random.Random(99))
    assert a == b
    assert 100 <= a <= 10_000 and is_prime(a)


def test_random_prime_in_exhausts_budget_on_primefree_range():
    from ksumclique import ResourceBudgetError
    import ksumclique.modprime as mp

    old = mp.PRIME_DRAW_BUDGET
    mp.PRIME_DRAW_BUDGET = 50  # keep the rejection loop short
    try:
        with pytest.raises(ResourceBudgetError):
            random_prime_in(24, 28, random.Random(0))  # no primes in [24,28]
    finally:
        mp.PRIME_DRAW_BUDGET = old


def test_random_prime_in_rejects_bad_range():
    with pytest.raises(ParameterError):
        random_prime_in(1, 5, random.Random(0))
    with pytest.raises(ParameterError):
        random_prime_in(10, 5, random.Random(0))


def test_prime_range_bound_monotone_in_confidence():
    bounds = [prime_range_bound(10, 3, 10**9, c) for c in (1, 10, 100)]
    assert bounds == sorted(bounds)
    assert bounds[0] >= 2


@pytest.mark.parametrize("confidence", [0, -1])
def test_mod_reduce_rejects_confidence_below_one(confidence):
    with pytest.raises(ParameterError, match=rf"^confidence must be >= 1, got {confidence}$"):
        ksum_mod_reduce(make_ksum([3, 8, 5], 2, 11), confidence=confidence, seed=0)
    # too few numbers is reported first
    with pytest.raises(ParameterError, match=r"^need n >= k, got n=1, k=2$"):
        ksum_mod_reduce(make_ksum([3], 2, 6), confidence=confidence, seed=0)


def test_mod_reduce_frozen_completeness_example():
    inst = make_ksum([2, 9], 2, 11)
    coll = ksum_mod_reduce(inst, confidence=1, seed=18)
    assert int(coll.params["prime"]) == 7
    assert [it.instance.numbers for it in coll.items] == [(2, 2), (2, 2)]
    assert [it.instance.target for it in coll.items] == [4, 11]
    # 2+9=11 survives as 2+2=4 in the i=0 instance
    assert oracle_ksum((2, 2), 2, 4) == (0, 1)


def test_mod_reduce_frozen_false_positive_example():
    inst = make_ksum([3, 8], 2, 4)
    coll = ksum_mod_reduce(inst, confidence=1, seed=7)
    assert int(coll.params["prime"]) == 7
    assert [it.instance.numbers for it in coll.items] == [(3, 1), (3, 1)]
    assert [it.instance.target for it in coll.items] == [4, 11]
    # 3+1=4 hits the residue target although 3+8 misses 4: one-sided by design
    assert oracle_ksum(inst.numbers, 2, 4) is None
    assert oracle_ksum((3, 1), 2, 4) is not None


def test_mod_reduce_large_prime_is_identity_in_effect():
    inst = make_ksum([3, 8], 2, 4)
    coll = ksum_mod_reduce(inst, confidence=2, seed=0)
    p = int(coll.params["prime"])
    assert p == 29 > 2 * 8
    assert coll.items[0].instance.numbers == (3, 8)
    assert coll.items[0].instance.target == 4
    assert all(not solve_ksum_bruteforce(it.instance).solvable for it in coll.items)


def test_mod_reduce_target_shape():
    rng = random.Random(20)
    for _ in range(30):
        k = rng.randint(2, 4)
        nums = [rng.randint(0, 10**6) for _ in range(rng.randint(k, 9))]
        t = rng.randint(0, k * 10**6)
        inst = make_ksum(nums, k, t)
        coll = ksum_mod_reduce(inst, confidence=3, seed=rng.randint(0, 999))
        p = int(coll.params["prime"])
        assert len(coll.items) == k
        for i, it in enumerate(coll.items):
            assert it.instance.target == t % p + i * p
            assert it.instance.numbers == tuple(x % p for x in nums)


def test_mod_reduce_is_deterministic_per_seed():
    inst = make_ksum(list(range(1, 9)), 3, 12)
    a = ksum_mod_reduce(inst, confidence=5, seed=1234)
    b = ksum_mod_reduce(inst, confidence=5, seed=1234)
    c = ksum_mod_reduce(inst, confidence=5, seed=1235)
    assert a.params == b.params
    assert a.items == b.items
    assert a.params != c.params or a.items != c.items


def test_mod_reduce_completeness_random():
    # a solvable source always stays solvable in some residue instance
    rng = random.Random(21)
    for _ in range(40):
        k = rng.randint(2, 3)
        nums = [rng.randint(0, 10**9) for _ in range(8)]
        picks = rng.sample(range(8), k)
        t = sum(nums[i] for i in picks)
        inst = make_ksum(nums, k, t)
        coll = ksum_mod_reduce(inst, confidence=2, seed=rng.randint(0, 10**6))
        assert any(solve_ksum_bruteforce(it.instance).solvable for it in coll.items)


def test_mod_reduce_needs_enough_numbers():
    with pytest.raises(ParameterError):
        ksum_mod_reduce(KSumInstance(k=3, numbers=(1, 2), target=3, bounds=(0, 2)), 1, 0)


MOD_REDUCE_DIGEST = "28dbad132387924d79dbaf93f4fd2396a3fee4328380403deb1669890a02b338"


def _mod_reduce_sources():
    """300 seeded k-SUM sources, negative numbers and 40-bit ones included,
    each with its confidence and seed."""
    rng = random.Random(1901)
    for _ in range(300):
        n = rng.randint(1, 9)
        k = rng.randint(1, n)
        hi = rng.choice([0, 1, 10, 1000, 2**40])
        lo = rng.choice([0, 0, -hi])
        nums = [rng.randint(lo, hi) for _ in range(n)]
        t = rng.randint(k * lo, k * hi) if rng.random() < 0.5 else sum(rng.sample(nums, k))
        yield KSumInstance(k=k, numbers=tuple(nums), target=t, bounds=(lo, hi)), rng.randint(1, 200), rng.getrandbits(32)


def test_mod_reduce_collections_are_pinned():
    # sha256 of the 300 serialized collections, recorded before the offset
    # items of ksum_mod_reduce and targetsum_to_ksum were built by one helper
    digest = hashlib.sha256()
    for inst, confidence, seed in _mod_reduce_sources():
        digest.update(serialize_collection(ksum_mod_reduce(inst, confidence, seed)))
    assert digest.hexdigest() == MOD_REDUCE_DIGEST
