"""k-sum-free sets: norm-class construction, greedy variant, verification."""

import random
from dataclasses import replace
from itertools import product

import pytest

from ksumclique import (
    SumFreeParams,
    ValidationError,
    behrend_sumfree,
    digits_of,
    greedy_sumfree_elements,
    norm_counts,
    s_r_elements,
    verify_sumfree,
)


def brute_norm_class(m, b, base, r):
    """Independent enumeration of S_r: all digit vectors, grouped by norm."""
    out = []
    for digits in product(range(b), repeat=m):
        if sum(d * d for d in digits) == r:
            out.append(sum(d * base**i for i, d in enumerate(digits)))
    return sorted(out)


def test_norm_class_worked_example():
    # m=2 digits below b=3 in radix 5, squared norm 4: vectors (2,0) and (0,2)
    assert brute_norm_class(2, 3, 5, 4) == [2, 10]
    assert s_r_elements(2, 3, 5, 4) == [2, 10]


def test_norm_counts_match_enumeration():
    for m, b in [(1, 2), (2, 3), (3, 3), (2, 5)]:
        counts = norm_counts(m, b)
        base = 2 * b - 1
        for r, c in enumerate(counts):
            assert c == len(brute_norm_class(m, b, base, r))
        assert sum(counts) == b**m


def test_digits_of_round_trip():
    for x, base, m in [(0, 3, 2), (10, 5, 2), (123, 7, 4)]:
        ds = digits_of(x, base, m)
        assert len(ds) == m
        assert sum(d * base**i for i, d in enumerate(ds)) == x


def test_digits_of_truncates_to_m_digits():
    assert digits_of(25, 5, 2) == (0, 0)  # leading digit beyond m is dropped


def test_verify_sumfree_frozen_cases():
    assert verify_sumfree([1, 2, 4], 3)
    assert not verify_sumfree([1, 2, 3], 3)  # 1+3 = 2*2
    assert verify_sumfree([3, 17, 40], 2)  # arity 2 never constrains
    assert verify_sumfree([0], 5)
    assert verify_sumfree([42], 3)


def test_verify_sumfree_rejects_duplicates():
    with pytest.raises(ValidationError):
        verify_sumfree([1, 1, 2], 3)


def test_fractional_elements_are_refused_not_truncated():
    """A fractional element is refused, where int() would certify (0, 1, 3)
    for (0.5, 1, 3) and build (13, 31, 37) from (13.5, 31, 37); integral
    floats and decimal strings still convert."""
    with pytest.raises(ValidationError, match="element must be an integer"):
        verify_sumfree((0.5, 1, 3), 3)
    s = behrend_sumfree(3, 3)
    with pytest.raises(ValidationError, match="element must be an integer"):
        replace(s, elements=(s.elements[0] + 0.5,) + s.elements[1:])
    assert replace(s, elements=tuple(map(float, s.elements))).elements == s.elements
    assert verify_sumfree(("1", 2.0, 4), 3)


def test_params_reject_wrong_radix():
    with pytest.raises(ValidationError):
        SumFreeParams(k=3, m=2, b=3, base=4, r=1)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 40])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_behrend_sets_certify(n, k):
    s = behrend_sumfree(n, k)
    assert len(s.elements) == n
    assert verify_sumfree(s.elements, k)


def test_behrend_single_norm_and_range():
    s = behrend_sumfree(25, 3)
    p = s.params
    for x in s.elements:
        ds = digits_of(x, p.base, p.m)
        assert all(d < p.b for d in ds)
        assert sum(d * d for d in ds) == p.r
        assert x < p.base**p.m


def test_behrend_pigeonhole_floor():
    for n in [5, 30, 120]:
        s = behrend_sumfree(n, 3)
        p = s.params
        full_class = norm_counts(p.m, p.b)[p.r]
        assert full_class >= p.b**p.m // (p.m * (p.b - 1) ** 2 + 1)
        assert full_class >= n


def test_behrend_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        behrend_sumfree(0, 3)
    with pytest.raises(ValidationError):
        behrend_sumfree(4, 1)


def test_greedy_matches_no_two_in_ternary():
    # greedy 3-sum-free from zero is the digits-{0,1}-in-base-3 sequence
    want = [x for x in range(50) if all(c != "2" for c in _ternary(x))][:8]
    assert list(greedy_sumfree_elements(8, 3)) == want == [0, 1, 3, 4, 9, 10, 12, 13]


def _ternary(x):
    if x == 0:
        return "0"
    out = ""
    while x:
        out = str(x % 3) + out
        x //= 3
    return out


def test_greedy_certifies_for_all_supported_arities():
    for k in (2, 3, 4):
        elems = greedy_sumfree_elements(12, k)
        assert len(elems) == 12
        assert verify_sumfree(elems, k)
    assert greedy_sumfree_elements(5, 2) == (0, 1, 2, 3, 4)


def _greedy_reference(n, k):
    """Smallest-first greedy that certifies every candidate set in full."""
    chosen, x = [], 0
    while len(chosen) < n:
        if verify_sumfree(chosen + [x], k):
            chosen.append(x)
        x += 1
    return tuple(chosen)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_greedy_matches_the_full_certification_reference(k):
    """Every output is a prefix of the n = 64 codes, whose first 24 the
    reference finds. test_backward.test_encoding_properties certifies the
    n = 64 codes, and subsets of a k-sum-free set stay k-sum-free, so the
    whole domain is certified."""
    full = greedy_sumfree_elements(64, k)
    assert full[:24] == _greedy_reference(24, k)
    assert [greedy_sumfree_elements(n, k) for n in range(1, 65)] == [full[:n] for n in range(1, 65)]


def test_greedy_rejects_unsupported_arity():
    with pytest.raises(ValidationError):
        greedy_sumfree_elements(4, 5)


def test_random_subsets_of_behrend_sets_stay_sumfree():
    rng = random.Random(7)
    s = behrend_sumfree(60, 3)
    for _ in range(20):
        sub = sorted(rng.sample(s.elements, 12))
        assert verify_sumfree(sub, 3)
