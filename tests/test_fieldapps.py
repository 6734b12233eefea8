"""Mod-q target sums and linear dependence, bridged to integer instances."""

import hashlib
import random
from itertools import product

import pytest

from ksumclique import (
    LinDepInstance,
    ParameterError,
    ResourceBudgetError,
    TargetSumInstance,
    ValidationError,
    lift_lindep_witness,
    lindep_to_vectorsum,
    parse_instance,
    serialize_collection,
    serialize_instance,
    solve_ksum_bruteforce,
    solve_lindep_bruteforce,
    solve_targetsum_bruteforce,
    solve_vectorsum_bruteforce,
    span_contains,
    targetsum_to_ksum,
)
from ksumclique import fieldapps
from ksumclique.fieldapps import decode_expanded_index, ksum_to_targetsum

from util import lindep_decode, make_ksum, oracle_ksum, oracle_lindep, oracle_span


def test_targetsum_validates_fields():
    with pytest.raises(ValidationError):
        TargetSumInstance(q=1, elements=(0,), k=1, target=0)
    with pytest.raises(ValidationError):
        TargetSumInstance(q=5, elements=(5,), k=1, target=0)
    with pytest.raises(ValidationError):
        TargetSumInstance(q=5, elements=(1,), k=1, target=7)


@pytest.mark.parametrize("made, canonical", [
    (lambda: TargetSumInstance(q=7, elements=(1, 2), k=1, target="1"),
     TargetSumInstance(q=7, elements=(1, 2), k=1, target=1)),
    (lambda: TargetSumInstance(q=7.0, elements=(1, 2), k=1, target=1),
     TargetSumInstance(q=7, elements=(1, 2), k=1, target=1)),
    (lambda: LinDepInstance(q="3", n=1, vectors=((1,), (2,)), k=1, target=(2,)),
     LinDepInstance(q=3, n=1, vectors=((1,), (2,)), k=1, target=(2,))),
    (lambda: LinDepInstance(q=3.0, n=1, vectors=((1,), (2,)), k=1, target=(2,)),
     LinDepInstance(q=3, n=1, vectors=((1,), (2,)), k=1, target=(2,))),
], ids=["targetsum-str-target", "targetsum-float-q", "lindep-str-q", "lindep-float-q"])
def test_field_instances_convert_q_and_target_like_ksum(made, canonical):
    # the modulus and the TargetSum target go through int(), as KSumInstance's
    # numbers do, so the instance serializes canonically and parses back
    inst = made()
    assert inst == canonical and type(inst.q) is int
    assert parse_instance(serialize_instance(inst)) == canonical


def test_targetsum_to_ksum_worked_example():
    inst = TargetSumInstance(q=7, elements=(5, 6, 3), k=3, target=0)
    coll = targetsum_to_ksum(inst)
    assert len(coll.items) == 3
    assert [it.instance.target for it in coll.items] == [0, 7, 14]
    # 5+6+3 = 14 = 0 + 2*7 lands in the i=2 instance
    assert oracle_ksum((5, 6, 3), 3, 14) == (0, 1, 2)


def test_targetsum_to_ksum_arity_one():
    inst = TargetSumInstance(q=5, elements=(2, 3), k=1, target=3)
    coll = targetsum_to_ksum(inst)
    assert len(coll.items) == 1
    assert coll.items[0].instance.target == 3


def test_targetsum_round_trip_equivalence_random():
    rng = random.Random(30)
    for _ in range(60):
        q = rng.choice([2, 3, 5, 7, 11])
        k = rng.randint(1, 3)
        r = rng.randint(k, 6)
        elements = tuple(rng.randrange(q) for _ in range(r))
        z = rng.randrange(q)
        inst = TargetSumInstance(q=q, elements=elements, k=k, target=z)
        want = solve_targetsum_bruteforce(inst).solvable
        coll = targetsum_to_ksum(inst)
        got = any(solve_ksum_bruteforce(it.instance).solvable for it in coll.items)
        assert got == want


def test_ksum_to_targetsum_worked_example():
    out = ksum_to_targetsum(make_ksum([1, 3], 2, 4))
    assert out.q == 7 and out.target == 4
    assert solve_targetsum_bruteforce(out).solvable


def test_ksum_to_targetsum_zero_instance():
    out = ksum_to_targetsum(make_ksum([0, 0], 2, 0))
    assert out.target == 0
    assert solve_targetsum_bruteforce(out).solvable


def test_ksum_to_targetsum_rejects_unrepresentable_targets():
    with pytest.raises(ParameterError):
        ksum_to_targetsum(make_ksum([1, 3], 2, 9))
    with pytest.raises(ParameterError):
        ksum_to_targetsum(make_ksum([-1, 3], 2, 2))


def test_ksum_to_targetsum_equivalence_random():
    rng = random.Random(31)
    for _ in range(60):
        k = rng.randint(1, 3)
        nums = [rng.randint(0, 9) for _ in range(rng.randint(k, 6))]
        t = rng.randint(0, k * 9)
        inst = make_ksum(nums, k, t, lo=0, hi=9)
        out = ksum_to_targetsum(inst)
        assert solve_targetsum_bruteforce(out).solvable == (oracle_ksum(nums, k, t) is not None)


def test_span_contains_matches_exhaustive_coefficients():
    rng = random.Random(32)
    for _ in range(80):
        q = rng.choice([2, 3, 5])
        n = rng.randint(1, 3)
        r = rng.randint(0, 3)
        vecs = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(r)]
        z = tuple(rng.randrange(q) for _ in range(n))
        assert span_contains(q, vecs, z) == (oracle_span(q, vecs, z) is not None)


def test_lindep_requires_prime_modulus():
    with pytest.raises(ValidationError):
        LinDepInstance(q=4, n=1, vectors=((1,),), k=1, target=(0,))


def test_lindep_brute_matches_oracle():
    rng = random.Random(33)
    for _ in range(40):
        q = rng.choice([2, 3])
        n = rng.randint(1, 2)
        r = rng.randint(1, 4)
        k = rng.randint(1, min(2, r))
        vecs = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(r))
        z = tuple(rng.randrange(q) for _ in range(n))
        inst = LinDepInstance(q=q, n=n, vectors=vecs, k=k, target=z)
        got = solve_lindep_bruteforce(inst).solvable
        assert got == (oracle_lindep(q, vecs, k, z) is not None)


def test_lindep_to_vectorsum_worked_example():
    inst = LinDepInstance(q=2, n=2, vectors=((1, 0), (0, 1), (1, 1)), k=2, target=(1, 1))
    coll = lindep_to_vectorsum(inst)
    assert len(coll.items) == 4  # k^n
    overshoots = [tuple(it.provenance["overshoot"]) for it in coll.items]
    assert overshoots == sorted(product(range(2), repeat=2))
    targets = [it.instance.target for it in coll.items]
    assert targets == [(1, 1), (1, 3), (3, 1), (3, 3)]
    v00 = coll.items[0].instance
    rep = solve_vectorsum_bruteforce(v00)
    assert rep.solvable
    pairs = lift_lindep_witness(inst, coll, 0, rep.witness)
    combo = [0, 0]
    for c, i in pairs:
        combo[0] += c * inst.vectors[i][0]
        combo[1] += c * inst.vectors[i][1]
    assert (combo[0] % 2, combo[1] % 2) == (1, 1)


def test_lindep_zero_target_solvable_by_zero_scalings():
    inst = LinDepInstance(q=3, n=1, vectors=((1,), (2,)), k=2, target=(0,))
    coll = lindep_to_vectorsum(inst)
    assert solve_vectorsum_bruteforce(coll.items[0].instance).solvable


def test_lindep_expansion_and_decode():
    inst = LinDepInstance(q=3, n=1, vectors=((1,), (2,)), k=2, target=(0,))
    coll = lindep_to_vectorsum(inst)
    expanded = coll.items[0].instance.vectors
    assert len(expanded) == 3 * 2  # q * r scaled copies
    for e, vec in enumerate(expanded):
        c, i = decode_expanded_index(inst, e)
        assert vec == (c * inst.vectors[i][0] % 3,)


def test_lindep_equivalence_random():
    rng = random.Random(34)
    for _ in range(30):
        q = rng.choice([2, 3])
        n = rng.randint(1, 2)
        r = rng.randint(2, 4)
        k = 2
        vecs = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(r))
        z = tuple(rng.randrange(q) for _ in range(n))
        inst = LinDepInstance(q=q, n=n, vectors=vecs, k=k, target=z)
        coll = lindep_to_vectorsum(inst)
        got = any(solve_vectorsum_bruteforce(it.instance).solvable for it in coll.items)
        assert got == (oracle_lindep(q, vecs, k, z) is not None)


def test_lindep_arity_needs_enough_vectors():
    inst = LinDepInstance(q=2, n=1, vectors=((1,),), k=2, target=(0,))
    with pytest.raises(ParameterError):
        lindep_to_vectorsum(inst)


def test_lindep_budget_guard(monkeypatch):
    vecs = tuple((i % 2, (i // 2) % 2, 1, 0, 1) for i in range(8))
    inst = LinDepInstance(q=2, n=5, vectors=vecs, k=3, target=(1, 1, 1, 1, 1))
    monkeypatch.setattr(fieldapps, "LINDEP_BUDGET", 50)
    with pytest.raises(ResourceBudgetError):
        lindep_to_vectorsum(inst)


TARGETSUM_DIGEST = "990f6bed2661a7f28f18fee64995962f9071ad5787c1bcaac5b99a7ddae04356"


def _targetsum_sources():
    """300 seeded mod-q target sums, moduli from 2 to 40 bits."""
    rng = random.Random(1902)
    for _ in range(300):
        q = rng.randint(2, rng.choice([3, 10, 1000, 2**40]))
        r = rng.randint(1, 8)
        yield TargetSumInstance(q=q, elements=tuple(rng.randrange(q) for _ in range(r)), k=rng.randint(1, r),
                                target=rng.randrange(q))


def test_targetsum_to_ksum_collections_are_pinned():
    # sha256 of the 300 serialized collections, recorded before the offset
    # items of ksum_mod_reduce and targetsum_to_ksum were built by one helper
    digest = hashlib.sha256()
    for inst in _targetsum_sources():
        digest.update(serialize_collection(targetsum_to_ksum(inst)))
    assert digest.hexdigest() == TARGETSUM_DIGEST


def test_lindep_lift_matches_the_verifying_decoder_reference():
    """coll.lift on every solvable item of 300 seeded LinDep instances gives
    the index set of the decoder that re-verified and re-decoded each
    witness (tests/util.lindep_decode)."""
    rng = random.Random(1903)
    lifted = 0
    for _ in range(300):
        q = rng.choice([2, 3, 5])
        n = rng.randint(1, 2)
        r = rng.randint(1, 5)
        k = rng.randint(1, min(3, r))
        vecs = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(r))
        inst = LinDepInstance(q=q, n=n, vectors=vecs, k=k, target=tuple(rng.randrange(q) for _ in range(n)))
        coll = lindep_to_vectorsum(inst)
        for idx, item in enumerate(coll.items):
            rep = solve_vectorsum_bruteforce(item.instance)
            if rep.solvable:
                assert coll.lift(idx, rep.witness) == tuple(sorted(lindep_decode(inst, item.instance, rep.witness)))
                lifted += 1
    assert lifted > 300
