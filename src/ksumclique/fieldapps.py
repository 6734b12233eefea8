"""Finite-field cousins of k-SUM: target sums over F_q in both directions and
linear dependence over F_q down to k-Vector-SUM.

A mod-q target sum lifts to the integers by guessing which multiple of q the
true integer sum overshoots by (k choices). Linear dependence reduces by
expanding every vector by every scalar; guessing the per-coordinate overshoot
vector v then leaves plain integer vector sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Iterable, Sequence

from . import solvers
from .instances import (
    Instance,
    KSumInstance,
    MalformedWitnessError,
    ParameterError,
    ReducedCollection,
    ReducedItem,
    ResourceBudgetError,
    ValidationError,
    VectorSumInstance,
    _as_int,
    _as_int_list,
    _as_list,
    _integral,
    _integrals,
    verify_witness,
)
from .modprime import _offset_items, is_prime

LINDEP_BUDGET = 2_000_000


@dataclass(frozen=True)
class TargetSumInstance(Instance):
    """Do some k distinct indices sum to the target in Z_q?"""

    q: int
    elements: tuple[int, ...]
    k: int
    target: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _integral(self.q, "q"))
        object.__setattr__(self, "elements", _integrals(self.elements, "element"))
        object.__setattr__(self, "k", _integral(self.k, "k"))
        object.__setattr__(self, "target", _integral(self.target, "target"))
        if self.q < 2:
            raise ValidationError(f"modulus must be >= 2, got {self.q}")
        if self.k < 1:
            raise ValidationError(f"arity k must be >= 1, got {self.k}")
        for x in self.elements:
            if not 0 <= x < self.q:
                raise ValidationError(f"element {x} not reduced mod {self.q}")
        if not 0 <= self.target < self.q:
            raise ValidationError(f"target {self.target} not reduced mod {self.q}")

    kind = "targetsum"

    @property
    def r(self) -> int:
        return len(self.elements)

    size = r

    def holds(self, ws: tuple[int, ...]) -> bool:
        return sum(self.elements[i] for i in ws) % self.q == self.target

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "type": "targetsum",
            "q": str(self.q),
            "k": self.k,
            "elements": [str(x) for x in self.elements],
            "target": str(self.target),
        }


def parse_targetsum_dict(obj: dict[str, Any]) -> TargetSumInstance:
    return TargetSumInstance(
        q=_as_int(obj["q"], "q"),
        elements=_as_int_list(obj["elements"], "elements", "element"),
        k=_as_int(obj["k"], "k"),
        target=_as_int(obj["target"], "target"),
    )


@dataclass(frozen=True)
class LinDepInstance(Instance):
    """Is the target in the F_q-span of the vectors at some k distinct indices?"""

    q: int
    n: int
    vectors: tuple[tuple[int, ...], ...]
    k: int
    target: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _integral(self.q, "q"))
        object.__setattr__(self, "n", _integral(self.n, "n"))
        object.__setattr__(self, "vectors", tuple(_integrals(v, "vector entry") for v in self.vectors))
        object.__setattr__(self, "target", _integrals(self.target, "target entry"))
        if not is_prime(self.q):
            raise ValidationError(f"modulus {self.q} must be prime")
        if self.n < 1:
            raise ValidationError(f"vector length must be >= 1, got {self.n}")
        if self.k < 1:
            raise ValidationError(f"arity k must be >= 1, got {self.k}")
        if len(self.target) != self.n:
            raise ValidationError("target length differs from n")
        for v in self.vectors:
            if len(v) != self.n:
                raise ValidationError("vector length differs from n")
        for c in self.target + tuple(c for v in self.vectors for c in v):
            if not 0 <= c < self.q:
                raise ValidationError(f"entry {c} not reduced mod {self.q}")

    kind = "lindep"

    @property
    def r(self) -> int:
        return len(self.vectors)

    size = r

    def holds(self, ws: tuple[int, ...]) -> bool:
        return span_contains(self.q, [self.vectors[i] for i in ws], self.target)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "type": "lindep",
            "q": str(self.q),
            "n": self.n,
            "k": self.k,
            "vectors": [[str(c) for c in v] for v in self.vectors],
            "target": [str(c) for c in self.target],
        }


def parse_lindep_dict(obj: dict[str, Any]) -> LinDepInstance:
    return LinDepInstance(
        q=_as_int(obj["q"], "q"),
        n=_as_int(obj["n"], "n"),
        vectors=tuple(_as_int_list(v, "vector", "entry") for v in _as_list(obj["vectors"], "vectors")),
        k=_as_int(obj["k"], "k"),
        target=_as_int_list(obj["target"], "target", "target entry"),
    )


def targetsum_to_ksum(inst: TargetSumInstance) -> ReducedCollection:
    """Lift to the integers: k instances with targets z + i*q cover every value
    a sum of k residues can reach while staying congruent to z mod q."""
    return ReducedCollection(
        reduction="targetsum_to_ksum",
        source=inst,
        params={"q": str(inst.q)},
        items=_offset_items(inst.k, inst.elements, inst.target, inst.q),
    )


def ksum_to_targetsum(inst: KSumInstance) -> TargetSumInstance:
    """Read a k-SUM instance mod q = kM+1: the modulus exceeds every k-fold
    sum, so nothing wraps and solvability coincides exactly."""
    lo, hi = inst.bounds
    if lo < 0:
        raise ParameterError("numbers must be nonnegative; shift the instance first")
    q = max(inst.k * hi + 1, 2)  # all-zero instances still need a modulus
    if not 0 <= inst.target <= inst.k * hi:
        raise ParameterError(f"target {inst.target} outside [0, {inst.k}*{hi}]; no faithful residue exists")
    return TargetSumInstance(q=q, elements=inst.numbers, k=inst.k, target=inst.target)


def lindep_to_vectorsum(inst: LinDepInstance) -> ReducedCollection:
    """Expand every vector by every scalar, then guess the per-coordinate
    overshoot v in [0, k-1]^n: integer target z + q*v. The target lies in the
    span of some k distinct vectors iff some output instance is solvable.

    Requires r >= k: expanded selections may reuse one source index under
    different scalars, which is only covered by span monotonicity when k
    distinct indices exist at all.
    """
    q, r, n, k = inst.q, inst.r, inst.n, inst.k
    if r < k:
        raise ParameterError(f"need r >= k, got r={r}, k={k}")
    if k**n * q * r > LINDEP_BUDGET:
        raise ResourceBudgetError(f"expansion would cost {k ** n * q * r} units (budget {LINDEP_BUDGET})")
    expanded = []
    for c in range(q):
        for i in range(r):
            expanded.append(tuple((c * x) % q for x in inst.vectors[i]))
    items = []
    for v in product(range(k), repeat=n):
        target = tuple(z + q * off for z, off in zip(inst.target, v))
        out = VectorSumInstance(
            k=k,
            dim=n,
            vectors=tuple(expanded),
            target=target,
            entry_bounds=(0, q - 1),
        )
        items.append(ReducedItem(out, {"overshoot": list(v)}))

    def decode(index: int, witness: tuple[int, ...]) -> list[int]:
        used = {e % r for e in witness}  # expanded index e is source index e % r
        # one source vector may appear under two scalars; the span only grows
        # with more vectors, so the lowest unused indices pad the set to k
        # (hence r >= k above)
        return sorted(used) + [i for i in range(r) if i not in used][: k - len(used)]

    return ReducedCollection(
        reduction="lindep_to_vectorsum",
        source=inst,
        params={"q": str(q), "r": r, "expansion": "scalar-times-vector"},
        items=tuple(items),
        decode=decode,
    )


def decode_expanded_index(inst: LinDepInstance, e: int) -> tuple[int, int]:
    """Expanded index e encodes scalar c = e // r and source index i = e % r."""
    if not 0 <= e < inst.q * inst.r:
        raise ValidationError(f"expanded index {e} out of range")
    return divmod(e, inst.r)


def _reduce_against(vec: list[int], basis: list[tuple[int, list[int]]], q: int) -> list[int]:
    for col, row in basis:
        c = vec[col] % q
        if c:
            vec = [(a - c * b) % q for a, b in zip(vec, row)]
    return vec


def span_contains(q: int, vectors: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    """Is target an F_q-linear combination of the vectors? Gaussian
    elimination with pivots normalized to 1; q must be prime."""
    basis: list[tuple[int, list[int]]] = []
    for v in vectors:
        red = _reduce_against([c % q for c in v], basis, q)
        piv = next((i for i, a in enumerate(red) if a), None)
        if piv is None:
            continue
        inv = pow(red[piv], q - 2, q)
        basis.append((piv, [(a * inv) % q for a in red]))
    return not any(_reduce_against([c % q for c in target], basis, q))


def solve_targetsum_bruteforce(inst: TargetSumInstance) -> solvers.SolverReport:
    """Exact mod-q oracle: lexicographically first k distinct indices whose
    sum hits the target."""
    return solvers._first_sum_subset(inst.elements, inst.k, inst.target, q=inst.q)


def solve_lindep_bruteforce(inst: LinDepInstance) -> solvers.SolverReport:
    """Exact span oracle: first k distinct indices whose vectors span the
    target over F_q, by Gaussian elimination per subset."""
    return solvers._first_subset(inst.vectors, inst.k, lambda vs: span_contains(inst.q, vs, inst.target), True,
                                 LINDEP_BUDGET)


def lift_lindep_witness(
    inst: LinDepInstance,
    coll: ReducedCollection,
    item_index: int,
    witness: Iterable[int],
) -> tuple[tuple[int, int], ...]:
    """Decode a verified reduced witness to k (scalar, index) pairs whose F_q
    combination equals the target."""
    idxs = tuple(sorted(witness))
    if not verify_witness(coll.items[item_index].instance, idxs):
        raise MalformedWitnessError("witness does not verify in the reduced instance")
    pairs = tuple(decode_expanded_index(inst, e) for e in idxs)
    combo = [0] * inst.n
    for c, i in pairs:
        for j in range(inst.n):
            combo[j] = (combo[j] + c * inst.vectors[i][j]) % inst.q
    if tuple(combo) != inst.target:
        raise MalformedWitnessError("decoded combination misses the target mod q")
    return pairs
