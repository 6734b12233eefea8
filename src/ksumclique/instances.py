"""Core data model: problem instances, witnesses and the JSON interchange format.

Every integer is arbitrary precision and crosses the file boundary as a decimal
string; vertex ids, arities and dimensions stay native. Instances are immutable
values, so reductions always build new objects and witness checks never mutate.
Serialization is canonical: parse followed by serialize is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from typing import Any, Callable, Iterable, Sequence


class ValidationError(ValueError):
    """An instance violates one of its structural invariants."""


class ParseError(ValueError):
    """Malformed instance text; carries a 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class MalformedWitnessError(ValueError):
    """A witness has the wrong shape for the instance it is checked against."""


class ParameterError(ValueError):
    """Reduction or solver parameters violate a precondition."""


class ResourceBudgetError(RuntimeError):
    """An operation would exceed its configured work or memory budget."""


def _as_int(value: Any, what: str) -> int:
    if isinstance(value, bool):
        raise ValidationError(f"{what} must be an integer, got bool")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise ValidationError(f"{what} is not a decimal integer: {value!r}") from None
    raise ValidationError(f"{what} must be an integer or decimal string, got {type(value).__name__}")


def _as_list(value: Any, what: str) -> list[Any]:
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a JSON list, got {type(value).__name__}")
    return value


def _as_pair(value: Any, what: str) -> tuple[int, int]:
    pair = _as_list(value, what)
    if len(pair) != 2:
        raise ValidationError(f"{what} must be a list of two values, got {len(pair)}")
    return _as_int(pair[0], f"{what} low"), _as_int(pair[1], f"{what} high")


def _as_int_list(value: Any, what: str, item: str) -> tuple[int, ...]:
    values = _as_list(value, what)
    if set(map(type, values)) <= {int}:  # the common case, checked at C level
        return tuple(values)
    return tuple(_as_int(x, item) for x in values)


def _as_endpoints(e: Any, size: int, shape: str) -> tuple[int, int]:
    if type(e) is not list or len(e) != size or type(e[0]) is not int or type(e[1]) is not int:
        raise ValidationError(f"{shape}, got {e!r}")
    return e[0], e[1]


def _as_edges(value: Any) -> list[tuple[int, int]]:
    edges = _as_list(value, "edges")
    if (set(map(type, edges)) <= {list} and set(map(len, edges)) <= {2}
            and set(map(type, chain.from_iterable(edges))) <= {int}):
        return list(map(tuple, edges))  # the common case, checked at C level
    return [_as_endpoints(e, 2, "an edge must be a list of two integers") for e in edges]


def _as_weighted_edges(value: Any) -> list[tuple[int, int, int]]:
    shape = "an edge weight must be a list of two integers and a weight"
    return [(*_as_endpoints(e, 3, shape), _as_int(e[2], "edge weight")) for e in _as_list(value, "edge_weights")]


def _canonical_edges(n: int, edges: object) -> bool:
    """Whether ``edges`` is already what normalize_edges returns: a tuple of
    strictly increasing (u, v) tuples of exact ints with 0 <= u < v < n."""
    if type(edges) is not tuple:
        return False
    prev: tuple[int, ...] = ()
    for e in edges:
        if type(e) is tuple and len(e) == 2:
            u, v = e
            if type(u) is int and type(v) is int and prev < e and 0 <= u < v < n:
                prev = e
                continue
        return False
    return True


def normalize_edges(n: int, edges: Iterable[Sequence[int]]) -> tuple[tuple[int, int], ...]:
    """Sort endpoints and the edge list; reject loops, duplicates and bad ids.

    An edge tuple that is already canonical is returned as it is. Otherwise
    each edge is checked in input order, so the first offending edge names
    the error. While the edges arrive strictly increasing with u < v they are
    distinct and already sorted, so no set is built; the first edge out of
    order switches to a set and a final sort.
    """
    if _canonical_edges(n, edges):
        return edges  # type: ignore[return-value]
    out: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] | None = None
    for raw in edges:
        u, v = int(raw[0]), int(raw[1])
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if seen is None:
            if not out or out[-1] < e:
                out.append(e)
                continue
            seen = set(out)
        if e in seen:
            raise ValidationError(f"duplicate edge {e}")
        seen.add(e)
    return tuple(out) if seen is None else tuple(sorted(seen))


def _is_clique(edges: tuple[tuple[int, int], ...], ws: tuple[int, ...]) -> bool:
    """Whether every pair of ``ws`` is an edge, each looked up by binary
    search in the sorted edge tuple."""
    for e in combinations(ws, 2):
        at = bisect_left(edges, e)
        if at == len(edges) or edges[at] != e:
            return False
    return True


class Instance:
    """Base of every instance type.

    ``kind`` names the type in the solver and reduction registries. A witness
    is k distinct ids in range(``size``), vertices for graphs and indices
    otherwise, and ``holds`` is the defining predicate on such a witness,
    sorted. All of them live on the class, so equality, hashing and
    serialization ignore them.
    """

    kind: str
    holds: Callable[[tuple[int, ...]], bool]
    id_name = "index"

    @property
    def size(self) -> int:
        return self.n


@dataclass(frozen=True)
class KSumInstance(Instance):
    """k-SUM: does some set of k distinct indices have numbers summing to target?

    ``bounds`` is the declared inclusive range of the numbers and serializes
    under the key ``range``. Fewer than k numbers is allowed and simply makes
    the instance unsolvable.
    """

    k: int
    numbers: tuple[int, ...]
    target: int
    bounds: tuple[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "numbers", tuple(int(x) for x in self.numbers))
        object.__setattr__(self, "target", int(self.target))
        object.__setattr__(self, "bounds", (int(self.bounds[0]), int(self.bounds[1])))
        if self.k < 1:
            raise ValidationError(f"arity k must be >= 1, got {self.k}")
        lo, hi = self.bounds
        if lo > hi:
            raise ValidationError(f"empty declared range [{lo},{hi}]")
        for x in self.numbers:
            if not lo <= x <= hi:
                raise ValidationError(f"number {x} outside declared range [{lo},{hi}]")

    kind = "ksum"

    @property
    def n(self) -> int:
        return len(self.numbers)

    def holds(self, ws: tuple[int, ...]) -> bool:
        return sum(self.numbers[i] for i in ws) == self.target

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "type": "ksum",
            "k": self.k,
            "numbers": [str(x) for x in self.numbers],
            "target": str(self.target),
            "range": [str(self.bounds[0]), str(self.bounds[1])],
        }


@dataclass(frozen=True)
class VectorSumInstance(Instance):
    """k-Vector-SUM over integer vectors with a shared per-entry range.

    A target entry outside the k-fold Minkowski range of ``entry_bounds``
    makes the instance trivially unsolvable; it is flagged, never dropped.
    """

    k: int
    dim: int
    vectors: tuple[tuple[int, ...], ...]
    target: tuple[int, ...]
    entry_bounds: tuple[int, int]

    def __post_init__(self) -> None:
        vectors, target = tuple(map(tuple, self.vectors)), tuple(self.target)
        entries = [*chain.from_iterable(vectors)]
        exact = set(map(type, chain(entries, target))) <= {int}  # the common case, checked at C level
        if not exact:
            vectors = tuple(tuple(int(c) for c in v) for v in vectors)
            target = tuple(int(c) for c in target)
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "entry_bounds", (int(self.entry_bounds[0]), int(self.entry_bounds[1])))
        if self.k < 1:
            raise ValidationError(f"arity k must be >= 1, got {self.k}")
        if self.dim < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.dim}")
        lo, hi = self.entry_bounds
        if lo > hi:
            raise ValidationError(f"empty entry range [{lo},{hi}]")
        if len(self.target) != self.dim:
            raise ValidationError("target length differs from dim")
        if (exact and set(map(len, vectors)) <= {self.dim}
                and lo <= min(entries, default=lo) and max(entries, default=hi) <= hi):
            return
        for v in self.vectors:  # names the first bad vector or entry
            if len(v) != self.dim:
                raise ValidationError("vector length differs from dim")
            for c in v:
                if not lo <= c <= hi:
                    raise ValidationError(f"entry {c} outside declared range [{lo},{hi}]")

    kind = "vectorsum"

    @property
    def n(self) -> int:
        return len(self.vectors)

    @property
    def trivially_unsolvable(self) -> bool:
        lo, hi = self.entry_bounds
        return any(not (self.k * lo <= t <= self.k * hi) for t in self.target)

    def holds(self, ws: tuple[int, ...]) -> bool:
        total = [0] * self.dim
        for i in ws:
            for j, c in enumerate(self.vectors[i]):
                total[j] += c
        return tuple(total) == self.target

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "type": "vectorsum",
            "k": self.k,
            "dim": self.dim,
            "vectors": [[str(c) for c in v] for v in self.vectors],
            "target": [str(c) for c in self.target],
            "entry_range": [str(self.entry_bounds[0]), str(self.entry_bounds[1])],
        }


@dataclass(frozen=True)
class CliqueInstance(Instance):
    """Unweighted k-Clique, optionally k-partite with 1-based slot labels."""

    n: int
    edges: tuple[tuple[int, int], ...]
    k: int
    partition: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "k", int(self.k))
        if self.n < 0:
            raise ValidationError(f"vertex count must be >= 0, got {self.n}")
        if self.k < 1:
            raise ValidationError(f"arity k must be >= 1, got {self.k}")
        object.__setattr__(self, "edges", normalize_edges(self.n, self.edges))
        part = self.partition
        if part is not None:
            if type(part) is not tuple or not set(map(type, part)) <= {int}:
                object.__setattr__(self, "partition", tuple(map(int, part)))
            self._check_partition()

    @classmethod
    def _with_int_partition(cls, n: int, edges: tuple[tuple[int, int], ...], k: int,
                            partition: tuple[int, ...]) -> CliqueInstance:
        """The instance for a partition already known to be a tuple of exact
        ints, as the parser builds it: its k*n entries get no second type pass."""
        inst = cls(n=n, edges=edges, k=k)
        object.__setattr__(inst, "partition", partition)
        inst._check_partition()
        return inst

    def _check_partition(self) -> None:
        part = self.partition
        if len(part) != self.n:
            raise ValidationError("partition length differs from n")
        slots = set(part)  # k*n entries, but at most k distinct slots
        if slots and not 1 <= min(slots) <= max(slots) <= self.k:
            bad = next(s for s in part if not 1 <= s <= self.k)
            raise ValidationError(f"slot {bad} outside [1,{self.k}]")
        for u, v in self.edges:
            if part[u] == part[v]:
                raise ValidationError(f"edge ({u},{v}) joins two slot-{part[u]} vertices")

    kind = "clique"
    id_name = "vertex"

    @property
    def m(self) -> int:
        return len(self.edges)

    def holds(self, ws: tuple[int, ...]) -> bool:
        return _is_clique(self.edges, ws)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "type": "graph",
            "k": self.k,
            "n": self.n,
            "edges": [[u, v] for u, v in self.edges],
            "node_weights": None,
            "edge_weights": None,
            "weight_bound": None,
            "target": None,
            "partition": list(self.partition) if self.partition is not None else None,
        }


def _check_weight_kinds(node_weights: object, edge_weights: object, bound: int) -> None:
    if bound < 0:
        raise ValidationError(f"weight bound must be >= 0, got {bound}")
    if (node_weights is None) == (edge_weights is None):
        raise ValidationError("exactly one of node_weights/edge_weights must be present")


def _check_bound(kind: str, weights: Sequence[int], bound: int) -> None:
    if max(map(abs, weights), default=0) > bound:
        bad = next(x for x in weights if abs(x) > bound)
        raise ValidationError(f"{kind} weight {bad} exceeds declared bound {bound}")


@dataclass(frozen=True)
class WeightedGraph(Instance):
    """A graph with exactly one weight kind plus the clique arity and target.

    Node weights answer Exact Node-Weight k-Clique (clique node weights sum to
    target); edge weights answer Exact Edge-Weight k-Clique (clique edge
    weights sum to target, normally zero). ``weight_bound`` is the declared M
    with every weight within [-M, M].
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    k: int
    node_weights: tuple[int, ...] | None
    edge_weights: tuple[tuple[int, int, int], ...] | None
    weight_bound: int
    target: int

    def __post_init__(self) -> None:
        for name in ("n", "k", "weight_bound", "target"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.n < 0:
            raise ValidationError(f"vertex count must be >= 0, got {self.n}")
        if self.k < 1:
            raise ValidationError(f"arity k must be >= 1, got {self.k}")
        object.__setattr__(self, "edges", normalize_edges(self.n, self.edges))
        node_w, edge_w = self.node_weights, self.edge_weights
        _check_weight_kinds(node_w, edge_w, self.weight_bound)
        if node_w is not None:
            w = tuple(int(x) for x in node_w)
            object.__setattr__(self, "node_weights", w)
            if len(w) != self.n:
                raise ValidationError("node weight list length differs from n")
            _check_bound("node", w, self.weight_bound)
        elif edge_w is not None:
            ew = tuple(sorted(((u, v, int(w)) if u < v else (v, u, int(w))) for u, v, w in edge_w))
            object.__setattr__(self, "edge_weights", ew)
            if [(u, v) for u, v, _ in ew] != list(self.edges):
                raise ValidationError("edge weights must cover exactly the edge set")
            _check_bound("edge", [x for _, _, x in ew], self.weight_bound)

    def _reweighted(self, *, node_weights: Sequence[int] | None = None, edge_weights: Sequence[int] | None = None,
                    weight_bound: int, target: int) -> WeightedGraph:
        """This graph's n, edges and k with new int weights and target.

        ``edge_weights`` holds one weight per edge of ``self.edges``, in that
        order, so the triples come out sorted and cover the edge set by
        construction, and the edges, normalized when this graph was built,
        are not checked again. Only what new weights can break is checked:
        the bound, one weight kind, the count and each magnitude. The result
        equals, field for field, what the constructor builds from the same
        values, and computes its own ``edges_by_weight``.
        """
        _check_weight_kinds(node_weights, edge_weights, weight_bound)
        nw = ew = None
        if node_weights is not None:
            nw = tuple(node_weights)
            if len(nw) != self.n:
                raise ValidationError("node weight list length differs from n")
            _check_bound("node", nw, weight_bound)
        elif edge_weights is not None:
            if len(edge_weights) != len(self.edges):
                raise ValidationError("edge weight list length differs from the edge count")
            _check_bound("edge", edge_weights, weight_bound)
            ew = tuple(map(tuple.__add__, self.edges, zip(edge_weights)))
        graph = object.__new__(WeightedGraph)
        graph.__dict__.update(n=self.n, edges=self.edges, k=self.k, node_weights=nw, edge_weights=ew,
                              weight_bound=weight_bound, target=target)
        return graph

    id_name = "vertex"

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def kind(self) -> str:
        return "graph-node" if self.node_weights is not None else "graph-edge"

    def holds(self, ws: tuple[int, ...]) -> bool:
        if not _is_clique(self.edges, ws):
            return False
        if self.node_weights is not None:
            return sum(self.node_weights[v] for v in ws) == self.target
        wmap = self.edge_weight_map()
        return sum(wmap[(ws[a], ws[b])] for a in range(len(ws)) for b in range(a + 1, len(ws))) == self.target

    def edge_weight_map(self) -> dict[tuple[int, int], int]:
        if self.edge_weights is None:
            raise ValidationError("graph is not edge-weighted")
        return {(u, v): w for u, v, w in self.edge_weights}

    @cached_property
    def edges_by_weight(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Each edge weight, ascending, mapped to its edges in sorted order.

        Computed once per graph and kept outside the dataclass fields, so
        equality, hashing and serialization ignore it.
        """
        if self.edge_weights is None:
            raise ValidationError("graph is not edge-weighted")
        buckets: dict[int, list[tuple[int, int]]] = {}
        for u, v, w in self.edge_weights:
            buckets.setdefault(w, []).append((u, v))
        return {w: tuple(buckets[w]) for w in sorted(buckets)}

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "type": "graph",
            "k": self.k,
            "n": self.n,
            "edges": [[u, v] for u, v in self.edges],
            "node_weights": [str(x) for x in self.node_weights] if self.node_weights is not None else None,
            "edge_weights": [[u, v, str(w)] for u, v, w in self.edge_weights]
            if self.edge_weights is not None
            else None,
            "weight_bound": str(self.weight_bound),
            "target": str(self.target),
            "partition": None,
        }


@dataclass(frozen=True)
class ReducedItem:
    instance: Instance
    provenance: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True, init=False, eq=False)
class ReducedCollection:
    """Ordered output of a reduction that lifts witnesses back to its source.

    Reductions pass their ``source`` instance, and ``source_digest``, its
    instance_digest, is computed on first read (only serialize_collection
    reads it); a parsed collection passes the digest text instead and cannot
    lift. ``decode`` maps (item index, sorted item witness) to source ids
    and need check neither: ``lift`` checks the witness in the item before
    it decodes and the result at the source after. Without a decoder, ids
    carry over unchanged. Neither is a field, so equality and serialization
    ignore them.
    """

    reduction: str
    params: dict[str, Any]
    items: tuple[ReducedItem, ...]

    def __init__(self, reduction: str, source_digest: str | None = None, params: dict[str, Any] | None = None,
                 items: tuple[ReducedItem, ...] = (), source: Instance | None = None,
                 decode: Callable[[int, tuple[int, ...]], Iterable[int]] | None = None) -> None:
        if (source_digest is None) == (source is None):
            raise ParameterError("a collection takes exactly one of source_digest and source")
        self.__dict__.update(reduction=reduction, params={} if params is None else params, items=items,
                             _source=source, _decode=decode)
        if source is None:
            self.__dict__["source_digest"] = source_digest

    @cached_property
    def source_digest(self) -> str:
        return instance_digest(self._source)

    def __eq__(self, other: object) -> bool:
        fields = ("reduction", "source_digest", "params", "items")
        return isinstance(other, ReducedCollection) and all(getattr(self, f) == getattr(other, f) for f in fields)

    def instances(self) -> list[Instance]:
        return [it.instance for it in self.items]

    def lift(self, index: int, witness: Iterable[int]) -> tuple[int, ...]:
        """Check a witness of item ``index``, decode it and check the result
        at the source; any failed check raises MalformedWitnessError."""
        if self._source is None:
            raise ParameterError("a parsed collection has no source to lift to")
        item = self.items[index].instance
        ws = witness_tuple(item, witness)
        if not item.holds(ws):
            raise MalformedWitnessError("witness does not verify in the reduced instance")
        lifted = ws if self._decode is None else tuple(sorted(self._decode(index, ws)))
        if not verify_witness(self._source, lifted):
            raise MalformedWitnessError("lifted witness does not verify in the source")
        return lifted


def witness_tuple(inst: Instance, witness: Iterable[int]) -> tuple[int, ...]:
    """Validate witness shape (cardinality k, distinct, in range) and sort it."""
    ws = [int(x) for x in witness]
    if len(set(ws)) != len(ws):
        raise MalformedWitnessError(f"witness has repeated elements: {sorted(ws)}")
    k = inst.k
    if len(ws) != k:
        raise MalformedWitnessError(f"witness has {len(ws)} elements, expected k={k}")
    limit = inst.size
    for x in ws:
        if not 0 <= x < limit:
            raise MalformedWitnessError(f"{inst.id_name} {x} out of range [0,{limit})")
    return tuple(sorted(ws))


def verify_witness(inst: Instance, witness: Iterable[int]) -> bool:
    """Check a witness against the instance's defining predicate.

    Shape violations (wrong cardinality, repeats, out-of-range ids) raise
    MalformedWitnessError; a well-formed but non-satisfying witness returns
    False.
    """
    return inst.holds(witness_tuple(inst, witness))


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=True)  # json.dumps would build one per call


def _dumps(obj: Any) -> str:
    return _ENCODER.encode(obj)


def serialize_instance(inst: Instance) -> bytes:
    """Canonical single-line JSON encoding of any instance type."""
    return _dumps(inst.to_json_dict()).encode("utf-8")


def instance_digest(inst: Instance) -> str:
    return hashlib.sha256(serialize_instance(inst)).hexdigest()


def _parse_ksum(obj: dict[str, Any]) -> KSumInstance:
    return KSumInstance(
        k=_as_int(obj["k"], "k"),
        numbers=_as_int_list(obj["numbers"], "numbers", "number"),
        target=_as_int(obj["target"], "target"),
        bounds=_as_pair(obj["range"], "range"),
    )


def _parse_vectorsum(obj: dict[str, Any]) -> VectorSumInstance:
    return VectorSumInstance(
        k=_as_int(obj["k"], "k"),
        dim=_as_int(obj["dim"], "dim"),
        vectors=tuple(_as_int_list(v, "vector", "entry") for v in _as_list(obj["vectors"], "vectors")),
        target=_as_int_list(obj["target"], "target", "target entry"),
        entry_bounds=_as_pair(obj["entry_range"], "entry range"),
    )


def _parse_graph(obj: dict[str, Any]) -> CliqueInstance | WeightedGraph:
    n = _as_int(obj["n"], "n")
    k = _as_int(obj["k"], "k")
    edges = _as_edges(obj["edges"])
    node_w = obj.get("node_weights")
    edge_w = obj.get("edge_weights")
    if node_w is None and edge_w is None:
        part = obj.get("partition")
        if part is None:
            return CliqueInstance(n=n, edges=tuple(edges), k=k)
        return CliqueInstance._with_int_partition(n, tuple(edges), k, _as_int_list(part, "partition", "slot"))
    if obj.get("partition") is not None:
        raise ValidationError("weighted graphs do not carry a partition")
    if node_w is not None:
        weights = _as_int_list(node_w, "node_weights", "node weight")
        ew = None
    else:
        weights = None
        ew = tuple(_as_weighted_edges(edge_w))
    bound_raw = obj.get("weight_bound")
    if bound_raw is not None:
        bound = _as_int(bound_raw, "weight_bound")
    elif weights is not None:
        bound = max((abs(x) for x in weights), default=0)
    else:
        bound = max((abs(w) for _, _, w in ew), default=0)
    return WeightedGraph(
        n=n,
        edges=tuple(edges),
        k=k,
        node_weights=weights,
        edge_weights=ew,
        weight_bound=bound,
        target=_as_int(obj["target"], "target"),
    )


def _parsers() -> dict[str, Callable[[dict[str, Any]], Instance]]:
    from . import fieldapps  # local import to avoid a cycle

    return {
        "ksum": _parse_ksum,
        "vectorsum": _parse_vectorsum,
        "graph": _parse_graph,
        "targetsum": fieldapps.parse_targetsum_dict,
        "lindep": fieldapps.parse_lindep_dict,
    }


def parse_instance_dict(obj: dict[str, Any]) -> Instance:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValidationError("instance object must be a JSON object with a 'type' field")
    typ = obj["type"]
    parser = _parsers().get(typ)
    if parser is None:
        raise ValidationError(f"unknown instance type {typ!r}")
    try:
        return parser(obj)
    except KeyError as exc:
        raise ValidationError(f"missing field {exc.args[0]!r} in {typ} instance") from None


def parse_instance(data: bytes | str) -> Instance:
    """Parse one canonical JSON instance; report line/column on malformed text."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    return parse_instance_dict(obj)


def serialize_collection(coll: ReducedCollection) -> bytes:
    """JSON-lines encoding: a meta line, then one instance+provenance line each."""
    lines = [
        _dumps({"meta": {"reduction": coll.reduction, "source_digest": coll.source_digest, "params": coll.params}})
    ]
    for item in coll.items:
        obj = item.instance.to_json_dict()
        obj["provenance"] = item.provenance
        lines.append(_dumps(obj))
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_collection(data: bytes | str) -> ReducedCollection:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    lines = [ln for ln in data.split("\n") if ln.strip()]
    if not lines:
        raise ParseError("empty collection")
    try:
        head = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=1, column=exc.colno) from None
    meta = head.get("meta") if isinstance(head, dict) else None
    if not isinstance(meta, dict):
        raise ValidationError("first collection line must carry a 'meta' object")
    reduction, digest, params = meta.get("reduction"), meta.get("source_digest"), meta.get("params", {})
    if not (isinstance(reduction, str) and isinstance(digest, str) and isinstance(params, dict)):
        raise ValidationError("collection meta needs string 'reduction' and 'source_digest' and object 'params'")
    items = []
    for lineno, ln in enumerate(lines[1:], start=2):
        try:
            obj = json.loads(ln)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, line=lineno, column=exc.colno) from None
        if not isinstance(obj, dict):
            raise ValidationError(f"collection line {lineno} must be a JSON object")
        prov = obj.pop("provenance", {})
        if not isinstance(prov, dict):
            raise ValidationError(f"provenance on collection line {lineno} must be a JSON object")
        items.append(ReducedItem(instance=parse_instance_dict(obj), provenance=prov))
    return ReducedCollection(reduction=reduction, source_digest=digest, params=params, items=tuple(items))
