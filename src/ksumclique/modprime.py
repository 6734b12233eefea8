"""Randomized weight reduction: huge k-SUM numbers shrink to residues mod a
random prime.

Taking everything mod p keeps every true witness (completeness is
unconditional: a sum hitting t still hits t mod p, up to one of k possible
integer offsets i*p). A false witness needs p to divide a specific nonzero
difference, which a random prime from a wide enough range rarely does, so
soundness holds with high probability and improves with the confidence
parameter.
"""

from __future__ import annotations

import math
import random

from .instances import (
    KSumInstance,
    ParameterError,
    ReducedCollection,
    ReducedItem,
    ResourceBudgetError,
)

PRIME_DRAW_BUDGET = 1_000_000

# deterministic Miller-Rabin witness set, exact below 3.317e24
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(x: int, rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality: deterministic witnesses below the published
    threshold, 64 random rounds above."""
    if x < 2:
        return False
    for q in _SMALL_PRIMES:
        if x % q == 0:
            return x == q
    d = x - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if x < _DETERMINISTIC_LIMIT:
        bases = _SMALL_PRIMES
    else:
        rng = rng or random.Random(0x5EED)
        bases = tuple(rng.randrange(2, x - 1) for _ in range(64))
    for a in bases:
        a %= x
        if a < 2:
            continue
        y = pow(a, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(r - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def random_prime_in(lo: int, hi: int, rng: random.Random) -> int:
    """Rejection-sample integers in [lo, hi] until one certifies prime."""
    if lo < 2 or hi < lo:
        raise ParameterError(f"invalid prime range [{lo},{hi}]")
    for _ in range(PRIME_DRAW_BUDGET):
        x = rng.randint(lo, hi)
        if is_prime(x, rng):
            return x
    raise ResourceBudgetError(
        f"no prime found in [{lo},{hi}] within {PRIME_DRAW_BUDGET} draws"
    )


def prime_range_bound(n: int, k: int, big_m: int, confidence: int) -> int:
    """Upper end of the prime range: confidence * n^k * ceil(log2 n) *
    ceil(log2 kM), floored at 2 so tiny instances stay drawable."""
    log_n = max(1, math.ceil(math.log2(max(n, 2))))
    log_km = max(1, math.ceil(math.log2(max(k * big_m, 2))))
    return max(2, confidence * n**k * log_n * log_km)


def _offset_items(k: int, residues: tuple[int, ...], target: int, q: int) -> tuple[ReducedItem, ...]:
    """k k-SUM items over residues in [0, q-1] with targets target + i*q,
    i in [0, k-1]: every value a sum of k residues can take while staying
    congruent to target mod q."""
    return tuple(
        ReducedItem(KSumInstance(k=k, numbers=residues, target=target + i * q, bounds=(0, q - 1)),
                    {"offset": i, "target": str(target + i * q)})
        for i in range(k)
    )


def ksum_mod_reduce(inst: KSumInstance, confidence: int, seed: int) -> ReducedCollection:
    """Map numbers to residues mod a random prime p and emit k instances with
    integer targets (t mod p) + i*p, i in [0, k-1], covering every value a sum
    of k residues can take while staying congruent to t.

    Solvable sources always stay solvable; unsolvable ones stay unsolvable
    with probability at least 1 - 1/(c*confidence) over the prime draw.
    """
    if inst.n < inst.k:
        raise ParameterError(f"need n >= k, got n={inst.n}, k={inst.k}")
    if confidence < 1:
        raise ParameterError(f"confidence must be >= 1, got {confidence}")
    lo, hi = inst.bounds
    big_m = max(abs(lo), abs(hi), 1)
    bound = prime_range_bound(inst.n, inst.k, big_m, confidence)
    rng = random.Random(seed)
    p = random_prime_in(2, bound, rng)
    return ReducedCollection(
        reduction="ksum_mod_reduce",
        source=inst,
        params={"prime": str(p), "bound": str(bound), "confidence": confidence, "seed": seed, "algorithm": "mt19937"},
        items=_offset_items(inst.k, tuple(x % p for x in inst.numbers), inst.target % p, p),
    )
