"""Construction and verification of k-sum-free sets.

A set D is k-sum-free when x_1 + ... + x_{k-1} = (k-1) * x_k with all x_i in D
forces x_1 = ... = x_k. Two constructions give vertex codes: for k <= 4 and
small n, the integers whose base-k digits are 0 or 1; for any k, the digit-norm
set, which embeds m digits below b in radix (k-1)*b - 1 so digitwise sums of
k-1 digits never carry, and keeps only digit vectors of one squared norm r:
equal norms plus the Cauchy-Schwarz equality case force all summands equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterable

from .instances import ValidationError, _integrals


@dataclass(frozen=True)
class SumFreeParams:
    """Construction parameters: arity, digit count m, digit bound b, radix, norm."""

    k: int
    m: int
    b: int
    base: int
    r: int

    def __post_init__(self) -> None:
        if self.k < 3:
            raise ValidationError(f"construction arity must be >= 3, got {self.k}")
        if self.m < 1 or self.b < 1:
            raise ValidationError("need m >= 1 digits and digit bound b >= 1")
        if self.base != (self.k - 1) * self.b - 1:
            raise ValidationError(f"base must be (k-1)*b-1 = {(self.k - 1) * self.b - 1}, got {self.base}")
        if self.base <= (self.k - 1) * (self.b - 1):
            raise ValidationError("radix too small: digitwise sums of k-1 digits would carry")
        if not 0 <= self.r <= self.m * (self.b - 1) ** 2:
            raise ValidationError(f"norm {self.r} outside [0,{self.m * (self.b - 1) ** 2}]")


@dataclass(frozen=True)
class SumFreeSet:
    """Sorted distinct elements certified k-sum-free, with their construction params.

    The certified arity k may be smaller than params.k: every set is trivially
    2-sum-free, so k = 2 sets reuse the arity-3 construction.
    """

    k: int
    elements: tuple[int, ...]
    params: SumFreeParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", _integrals(self.elements, "element"))
        if self.k < 2:
            raise ValidationError(f"certified arity must be >= 2, got {self.k}")
        if list(self.elements) != sorted(set(self.elements)):
            raise ValidationError("elements must be sorted and distinct")
        p = self.params
        limit = p.base ** p.m
        for x in self.elements:
            if not 0 <= x < limit:
                raise ValidationError(f"element {x} outside [0, base^m)")
            if sum(d * d for d in digits_of(x, p.base, p.m)) != p.r:
                raise ValidationError(f"element {x} is not in the norm-{p.r} class")


def digits_of(x: int, base: int, m: int) -> tuple[int, ...]:
    """m least-significant base-`base` digits of x, least significant first."""
    out = []
    for _ in range(m):
        if base > 1:
            x, rem = divmod(x, base)
        else:
            rem, x = x, 0
        out.append(rem)
    return tuple(out)


def norm_counts(m: int, b: int) -> list[int]:
    """counts[r] = number of digit vectors in [0,b-1]^m with squared norm r.

    Computed by convolving the per-digit square histogram m times; exact for
    any size without materializing the b^m vectors.
    """
    top = m * (b - 1) ** 2
    counts = [0] * (top + 1)
    counts[0] = 1
    for _ in range(m):
        nxt = [0] * (top + 1)
        for r, c in enumerate(counts):
            if c:
                for d in range(b):
                    nxt[r + d * d] += c
        counts = nxt
    return counts


def s_r_elements(m: int, b: int, base: int, r: int, limit: int | None = None) -> list[int]:
    """Members of the norm class S_r(m,b) in increasing order, first `limit` only.

    Increasing integer order equals lexicographic order on digit vectors read
    most significant digit first, so a norm-budget DFS emits them in order.
    """
    out: list[int] = []
    cap = (b - 1) ** 2

    def walk(pos: int, value: int, left: int) -> bool:
        if pos < 0:
            if left == 0:
                out.append(value)
                return limit is not None and len(out) >= limit
            return False
        for d in range(b):
            dd = d * d
            if dd > left:
                break
            if left - dd > pos * cap:
                continue
            if walk(pos - 1, value * base + d, left - dd):
                return True
        return False

    walk(m - 1, 0, r)
    return out


def behrend_sumfree(n: int, k: int) -> SumFreeSet:
    """Build a k-sum-free set of exactly n elements.

    The digit bound b is the smallest whose pigeonhole floor
    b^m / (m*(b-1)^2 + 1) reaches n, which guarantees the densest norm
    class is large enough. The digit count is m = 6, the paper's
    ceil(2/eps) + 2 at eps = 1/2: b then grows like n^(1/4), so the
    elements stay below base^6, about (k-1)^6 * n^(1+eps). r maximizes the
    exact norm count with ties broken toward smaller r, and the n smallest
    members of S_r are kept.
    For k = 2 the arity-3 construction is reused (every set is 2-sum-free).
    """
    if n < 1:
        raise ValidationError(f"need n >= 1 elements, got {n}")
    if k < 2:
        raise ValidationError(f"arity must be >= 2, got {k}")
    build_k = max(k, 3)
    m = 6
    b = 1
    while b ** m // (m * (b - 1) ** 2 + 1) < n:
        b += 1
    while True:
        counts = norm_counts(m, b)
        best_r = max(range(len(counts)), key=lambda r: (counts[r], -r))
        if counts[best_r] >= n:
            break
        b += 1  # defensive; the pigeonhole floor already guarantees the break
    base = (build_k - 1) * b - 1
    elements = s_r_elements(m, b, base, best_r, limit=n)
    params = SumFreeParams(k=build_k, m=m, b=b, base=base, r=best_r)
    return SumFreeSet(k=k, elements=tuple(elements), params=params)


def verify_sumfree(elements: Iterable[int], k: int) -> bool:
    """Exhaustively check the defining property over all (k-1)-multisets; the
    x_k side is solved by lookup, so the cost is O(|elements|^{k-1}).
    Duplicate elements are a validation error, not a False."""
    elems = _integrals(elements, "element")
    if len(set(elems)) != len(elems):
        raise ValidationError("elements must be distinct")
    if k < 2:
        raise ValidationError(f"arity must be >= 2, got {k}")
    elem_set = set(elems)
    for combo in combinations_with_replacement(elems, k - 1):
        q, rem = divmod(sum(combo), k - 1)
        if rem == 0 and q in elem_set and any(x != q for x in combo):
            return False
    return True


def greedy_sumfree_elements(n: int, k: int) -> tuple[int, ...]:
    """The n smallest integers whose base-k digits are 0 or 1, for k <= 4: what
    smallest-first greedy search finds, with a far smaller maximum at small n
    than the digit-norm set. They are k-sum-free: k-1 of them add digitwise to
    at most k-1 < k with no carry, and (k-1) * x_k has digits 0 or k-1, also
    with no carry, so digitwise equality forces every x_i to equal x_k."""
    if n < 1:
        raise ValidationError(f"need n >= 1 elements, got {n}")
    if not 2 <= k <= 4:
        raise ValidationError("greedy construction supports 2 <= k <= 4")
    return tuple(int(format(i, "b"), k) for i in range(n))
