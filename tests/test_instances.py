"""Instance types, witness checking, normalization, and the wire format."""

import json
import re
from itertools import chain, combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksumclique import (
    CliqueInstance,
    KSumInstance,
    LinDepInstance,
    MalformedWitnessError,
    ParseError,
    ReducedCollection,
    ReducedItem,
    TargetSumInstance,
    ValidationError,
    VectorSumInstance,
    WeightedGraph,
    instance_digest,
    parse_collection,
    parse_instance,
    serialize_collection,
    serialize_instance,
    solve_ksum_bruteforce,
    verify_witness,
)
from ksumclique.instances import _as_int_list, _is_clique, normalize_edges

from util import (
    is_clique_reference,
    make_ew_graph,
    make_ksum,
    make_nw_graph,
    normalize_edges_reference,
    partition_reference,
)


def test_ksum_rejects_bad_arity():
    with pytest.raises(ValidationError):
        KSumInstance(k=0, numbers=(1,), target=1, bounds=(0, 1))


def test_ksum_allows_fewer_numbers_than_k():
    inst = KSumInstance(k=2, numbers=(5,), target=10, bounds=(0, 5))
    assert inst.n == 1


def test_ksum_rejects_numbers_outside_declared_bounds():
    with pytest.raises(ValidationError):
        KSumInstance(k=2, numbers=(7,), target=1, bounds=(0, 5))


def test_ksum_target_converted_like_the_numbers():
    """A non-int target is converted with int(), so an oracle never compares
    a foreign type with the sums."""
    inst = KSumInstance(k=1, numbers=(1, 2), target="2", bounds=(0, 9))
    assert inst.target == 2 and type(inst.target) is int
    assert solve_ksum_bruteforce(inst).witness == (1,)
    far = KSumInstance(k=1, numbers=(1, 2), target="9", bounds=(0, 9))
    assert not solve_ksum_bruteforce(far).solvable and not verify_witness(far, (0,))
    with pytest.raises(ValueError):
        KSumInstance(k=1, numbers=(1, 2), target="x", bounds=(0, 9))


def test_vectorsum_dim_mismatch():
    with pytest.raises(ValidationError):
        VectorSumInstance(k=2, dim=2, vectors=((1,),), target=(1, 1), entry_bounds=(0, 1))


@pytest.mark.parametrize("vectors, error", [
    (((1, 5), (0, 0)), "entry 5 outside declared range [0,4]"),
    (((1,), (1, 2)), "vector length differs from dim"),
    (((0, 9), (1,)), "entry 9 outside declared range [0,4]"),  # the first bad vector is named
    (((0, 1), (-1, 2, 3)), "vector length differs from dim"),
    ([[True, 2], ["3", 4], (1.0, 0)], None),
])
def test_vectorsum_entries_converted_and_checked_in_order(vectors, error):
    """Exact ints pass as they are; anything else is converted with int()
    first, and the first bad vector or entry is named, as the loop did."""
    if error is not None:
        with pytest.raises(ValidationError, match=re.escape(error)):
            VectorSumInstance(k=2, dim=2, vectors=vectors, target=(1, 1), entry_bounds=(0, 4))
        return
    inst = VectorSumInstance(k=2, dim=2, vectors=vectors, target=["1", True], entry_bounds=(0, 4))
    assert inst.vectors == ((1, 2), (3, 4), (1, 0)) and inst.target == (1, 1)
    assert {type(c) for v in inst.vectors for c in chain(v, inst.target)} == {int}
    exact = ((1, 2), (3, 4))
    assert all(a is b for a, b in zip(VectorSumInstance(k=2, dim=2, vectors=exact, target=(1, 1),
                                                        entry_bounds=(0, 4)).vectors, exact))


def test_vectorsum_trivially_unsolvable_flag():
    inst = VectorSumInstance(k=2, dim=1, vectors=((1,), (2,)), target=(9,), entry_bounds=(0, 2))
    assert inst.trivially_unsolvable
    ok = VectorSumInstance(k=2, dim=1, vectors=((1,), (2,)), target=(3,), entry_bounds=(0, 2))
    assert not ok.trivially_unsolvable


def test_clique_normalizes_edges():
    inst = CliqueInstance(n=3, edges=((2, 0), (0, 1)), k=2)
    assert inst.edges == ((0, 1), (0, 2))


def test_clique_rejects_loops_and_range():
    with pytest.raises(ValidationError):
        CliqueInstance(n=3, edges=((1, 1),), k=2)
    with pytest.raises(ValidationError):
        CliqueInstance(n=3, edges=((0, 3),), k=2)


def test_normalize_edges_checks_in_input_order():
    assert normalize_edges(4, ((0, 1), (0, 3), (2, 3))) == ((0, 1), (0, 3), (2, 3))
    assert normalize_edges(4, [[3, 2], [1, 0]]) == ((0, 1), (2, 3))
    cases = [
        ([(0, 1), (0, 1)], "duplicate edge (0, 1)"),
        ([(0, 2), (1, 2), (2, 0)], "duplicate edge (0, 2)"),
        ([(0, 1), (0, 1), (0, 9)], "duplicate edge (0, 1)"),
        ([(0, 1), (0, 9), (0, 1)], "edge (0,9) out of range for n=4"),
        ([(1, 2), (0, 1), (3, 3)], "self-loop at vertex 3"),
        ([(2, 3), (1, 0), (3, 2)], "duplicate edge (2, 3)"),
    ]
    for edges, message in cases:
        with pytest.raises(ValidationError) as exc:
            normalize_edges(4, edges)
        assert str(exc.value) == message


def _outcome(call):
    """repr of the result (so a bool or str id never passes for an int), or
    the error's type and message."""
    try:
        return "ok", repr(call())
    except Exception as exc:  # every error is compared, type and message
        return "error", type(exc), str(exc)


# Each mutation turns one entry into something the fast paths must not take
# on trust; the old code converts it with int() or rejects it.
_MUTATIONS = {
    "flip": lambda e, n: (e[1], e[0]),
    "loop": lambda e, n: (e[0], e[0]),
    "high": lambda e, n: (e[0], n),
    "huge": lambda e, n: (e[0], 10**30),
    "negative": lambda e, n: (-1, e[1]),
    "bool": lambda e, n: (e[0] == 1, e[1]),
    "str": lambda e, n: (str(e[0]), e[1]),
    "bad-str": lambda e, n: (e[0], "x"),
    "float": lambda e, n: (e[0], float(e[1])),
    "list": lambda e, n: [e[0], e[1]],
    "triple": lambda e, n: (e[0], e[1], 7),
}
_CONTAINERS = {"tuple": tuple, "list": list, "generator": lambda xs: (x for x in xs)}


@st.composite
def _edge_input(draw):
    """n and an edge list, sorted or not, with duplicates and up to three
    mutated edges, in a tuple, a list or a generator."""
    n = draw(st.integers(0, 8))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if draw(st.booleans()):
        edges.sort()
    if edges and draw(st.integers(0, 4)) == 0:
        edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from(edges)))
    if edges and draw(st.booleans()):
        for at in draw(st.lists(st.integers(0, len(edges) - 1), unique=True, max_size=3)):
            edges[at] = _MUTATIONS[draw(st.sampled_from(sorted(_MUTATIONS)))](edges[at], n)
    return n, edges, draw(st.sampled_from(["tuple", "tuple", "list", "generator"]))


@settings(max_examples=600, derandomize=True, database=None)
@given(_edge_input())
@example((4, [(0, 1), (2, 4)], "tuple"))  # sorted, but the last endpoint is n
@example((4, [(0, 1), (2, 10**30)], "tuple"))
@example((4, [(-1, 2), (0, 1)], "tuple"))
@example((4, [(0, 2), (0, 2)], "tuple"))
def test_normalize_edges_matches_the_reference(case):
    n, edges, container = case
    wrap = _CONTAINERS[container]
    assert _outcome(lambda: normalize_edges(n, wrap(edges))) == _outcome(
        lambda: normalize_edges_reference(n, wrap(edges)))


def test_normalize_edges_returns_a_canonical_tuple_as_it_is():
    edges = ((0, 1), (0, 3), (2, 3))
    assert normalize_edges(4, edges) is edges
    for other in (((0, 1), (True, 3)), ((0, 1), [0, 3]), ((0, 3), (0, 1)), ((1, 0),), ((0, 1, 5),)):
        assert normalize_edges(5, other) is not other


@st.composite
def _partition_input(draw):
    """A k-partite graph (k up to 10^6) and its partition with up to two
    mutated slots (0, k+1, huge, negative, bool, str, float), a wrong length,
    an edge inside one slot, or a list or generator container."""
    n = draw(st.integers(0, 8))
    k = draw(st.sampled_from([1, 2, 3, 4, 10**6]))
    slots = [draw(st.integers(1, k)) for _ in range(n)]
    pairs = [(u, v) for u, v in combinations(range(n), 2) if slots[u] != slots[v]]
    edges = sorted(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
    if n >= 2 and draw(st.integers(0, 5)) == 0:
        edges = sorted(set(edges) | {(0, 1)})  # may join two vertices of one slot
    part = list(slots)
    bad = [0, k + 1, 10**40, -3, True, "1", str(k), 1.0]
    if part and draw(st.booleans()):
        for at in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=2)):
            part[at] = draw(st.sampled_from(bad))
    change = draw(st.sampled_from(["none", "none", "none", "shorter", "longer"]))
    if change == "shorter" and part:
        part.pop()
    elif change == "longer":
        part.append(1)
    return n, k, tuple(edges), part, draw(st.sampled_from(sorted(_CONTAINERS)))


@settings(max_examples=600, derandomize=True, database=None)
@given(_partition_input())
def test_partition_check_matches_the_reference(case):
    n, k, edges, part, container = case
    wrap = _CONTAINERS[container]

    def built():
        inst = CliqueInstance(n=n, edges=edges, k=k, partition=wrap(part))
        return inst.edges, inst.partition

    def reference():
        normalized = normalize_edges_reference(n, edges)
        return normalized, partition_reference(n, k, normalized, wrap(part))

    assert _outcome(built) == _outcome(reference)


def test_partition_of_a_huge_arity_is_checked_over_its_slots_only():
    part = (1, 10**9, 2)
    assert CliqueInstance(n=3, edges=((0, 1),), k=10**9, partition=part).partition is part
    with pytest.raises(ValidationError, match=r"^slot 1000000001 outside \[1,1000000000\]$"):
        CliqueInstance(n=3, edges=(), k=10**9, partition=(1, 10**9 + 1, 1))


@settings(max_examples=400, derandomize=True, database=None)
@given(_partition_input())
def test_parsed_partition_matches_the_two_pass_reference(case):
    """The parser type-checks the partition once; its result and errors are
    those of the old parse, `_as_int_list` and then the constructor."""
    n, k, edges, part, _ = case
    obj = {"type": "graph", "k": k, "n": n, "edges": [list(e) for e in edges], "partition": part}

    def reference():
        return CliqueInstance(n=n, edges=edges, k=k, partition=_as_int_list(part, "partition", "slot"))

    assert _outcome(lambda: parse_instance(json.dumps(obj))) == _outcome(reference)


@settings(max_examples=400, derandomize=True, database=None)
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True) if n > 1 else st.just([]),
    st.lists(st.integers(-1, n), max_size=5))))
def test_clique_test_matches_the_set_reference(case):
    n, edges, ws = case
    edges = tuple(sorted(edges))
    assert _is_clique(edges, tuple(ws)) == is_clique_reference(edges, tuple(ws))
    assert _is_clique(edges, tuple(sorted(ws))) == is_clique_reference(edges, tuple(sorted(ws)))


def test_edges_by_weight_leaves_identity_unchanged():
    g = make_ew_graph(4, [(2, 3), (0, 1), (1, 2), (0, 3)], 3, [5, -1, 5, 0])
    twin = make_ew_graph(4, [(2, 3), (0, 1), (1, 2), (0, 3)], 3, [5, -1, 5, 0])
    before = (serialize_instance(g), instance_digest(g), hash(g))
    assert g.edges_by_weight == {-1: ((0, 1),), 0: ((0, 3),), 5: ((1, 2), (2, 3))}
    assert list(g.edges_by_weight) == [-1, 0, 5]
    assert g == twin
    assert (serialize_instance(g), instance_digest(g), hash(g)) == before
    assert parse_instance(serialize_instance(g)) == g
    with pytest.raises(ValidationError):
        make_nw_graph(2, [(0, 1)], 2, [1, 2], target=3).edges_by_weight


def test_weighted_graph_requires_exactly_one_weight_kind():
    with pytest.raises(ValidationError):
        WeightedGraph(n=1, edges=(), k=1, node_weights=None, edge_weights=None,
                      weight_bound=0, target=0)
    with pytest.raises(ValidationError):
        WeightedGraph(n=1, edges=(), k=1, node_weights=(0,), edge_weights=(),
                      weight_bound=0, target=0)


def test_weighted_graph_edge_weights_must_cover_edges():
    with pytest.raises(ValidationError):
        WeightedGraph(n=3, edges=((0, 1), (1, 2)), k=2, node_weights=None,
                      edge_weights=((0, 1, 5),), weight_bound=5, target=0)


@st.composite
def _reweighting(draw):
    """A validated graph of either weight kind, and new weights of either
    kind for it, negative ones included, with a bound that holds them."""
    n = draw(st.integers(0, 7))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True)) if n > 1 else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    weight = st.integers(-40, 40)
    if draw(st.booleans()):
        g = make_nw_graph(n, edges, draw(st.integers(1, 4)), draw(st.lists(weight, min_size=n, max_size=n)),
                          target=draw(weight))
    else:
        g = make_ew_graph(n, edges, draw(st.integers(1, 4)),
                          draw(st.lists(weight, min_size=len(edges), max_size=len(edges))), target=draw(weight))
    kind = draw(st.sampled_from(["node_weights", "edge_weights"]))
    count = n if kind == "node_weights" else len(edges)
    weights = draw(st.lists(weight, min_size=count, max_size=count))
    bound = max(map(abs, weights), default=0) + draw(st.integers(0, 3))
    return g, kind, weights, bound, draw(weight)


@settings(max_examples=300, derandomize=True, database=None)
@given(_reweighting())
def test_reweighted_equals_the_validating_constructor(case):
    g, kind, weights, bound, target = case
    if g.edge_weights is not None:
        g.edges_by_weight  # a cache on the source must not leak into the copy
    new = tuple(weights) if kind == "node_weights" else tuple((u, v, w) for (u, v), w in zip(g.edges, weights))
    ref = WeightedGraph(n=g.n, edges=g.edges, k=g.k, **{"node_weights": None, "edge_weights": None, kind: new},
                        weight_bound=bound, target=target)
    got = g._reweighted(**{kind: weights}, weight_bound=bound, target=target)
    assert got == ref and hash(got) == hash(ref)
    assert serialize_instance(got) == serialize_instance(ref)
    assert instance_digest(got) == instance_digest(ref)
    if kind == "edge_weights":
        assert got.edges_by_weight == ref.edges_by_weight

    def reweight(**kwargs):
        return g._reweighted(**{"weight_bound": bound, "target": target, **kwargs})

    bad = [{kind: weights + [0]}, {"node_weights": [0] * g.n, "edge_weights": [0] * g.m}, {},
           {kind: weights, "weight_bound": -1}]
    if weights:
        over = weights.copy()
        over[len(over) // 2] = -bound - 1
        bad += [{kind: weights[:-1]}, {kind: over}]
    for kwargs in bad:
        with pytest.raises(ValidationError):
            reweight(**kwargs)


def test_verify_witness_ksum_true_and_false():
    inst = make_ksum([1, 3, 2, 2], 2, 4)
    assert verify_witness(inst, (0, 1))
    assert not verify_witness(inst, (0, 2))


def test_verify_witness_rejects_cardinality_and_range():
    inst = make_ksum([1, 3, 2, 2], 2, 4)
    with pytest.raises(MalformedWitnessError):
        verify_witness(inst, (0,))
    with pytest.raises(MalformedWitnessError):
        verify_witness(inst, (0, 9))
    with pytest.raises(MalformedWitnessError):
        verify_witness(inst, (1, 1))


def test_verify_witness_edge_weighted_triangle():
    g = make_ew_graph(3, [(0, 1), (0, 2), (1, 2)], 3, [1, -1, 0], target=0)
    assert verify_witness(g, (0, 1, 2))


def test_verify_witness_node_weighted():
    g = make_nw_graph(3, [(0, 1), (0, 2), (1, 2)], 3, [1, 2, 3], target=6)
    assert verify_witness(g, (0, 1, 2))
    g5 = make_nw_graph(3, [(0, 1), (0, 2), (1, 2)], 3, [1, 2, 3], target=5)
    assert not verify_witness(g5, (0, 1, 2))


def test_verify_witness_clique_needs_all_edges():
    path = CliqueInstance(n=3, edges=((0, 1), (1, 2)), k=3)
    assert not verify_witness(path, (0, 1, 2))
    tri = CliqueInstance(n=3, edges=((0, 1), (1, 2), (0, 2)), k=3)
    assert verify_witness(tri, (0, 1, 2))


def test_parse_literal_ksum():
    inst = parse_instance(b'{"type":"ksum","k":2,"numbers":["1","3"],"target":"4","range":["0","3"]}')
    assert isinstance(inst, KSumInstance)
    assert inst.k == 2 and inst.numbers == (1, 3) and inst.target == 4


def test_parse_rejects_bad_arity():
    with pytest.raises((ParseError, ValidationError)):
        parse_instance(b'{"type":"ksum","k":0,"numbers":[],"target":"0","range":["0","0"]}')


def test_parse_error_carries_position():
    try:
        parse_instance(b'{"type":"ksum",')
    except ParseError as exc:
        assert exc.line == 1 and exc.column is not None
    else:
        pytest.fail("expected ParseError")


def test_parse_unknown_type():
    with pytest.raises(ValidationError):
        parse_instance(b'{"type":"mystery"}')


def test_parse_all_int_lists_equal_mixed_ones():
    """Plain-int lists parse to the same instance as decimal strings do."""
    clique = {"type": "graph", "k": 2, "n": 4, "edges": [[0, 2], [1, 3]], "partition": [1, 1, 2, 2],
              "node_weights": None, "edge_weights": None}
    weighted = {**clique, "partition": None, "node_weights": [5, 0, 7, 2], "weight_bound": "7", "target": "9"}
    empty = {**clique, "n": 0, "k": 1, "edges": [], "partition": []}
    for plain, mixed in [(clique, {**clique, "partition": [1, "1", 2, "2"]}),
                         (weighted, {**weighted, "node_weights": ["5", 0, 7, "2"]})]:
        assert parse_instance(json.dumps(plain)) == parse_instance(json.dumps(mixed))
    assert parse_instance(json.dumps(clique)) == CliqueInstance(n=4, edges=((0, 2), (1, 3)), k=2, partition=(1, 1, 2, 2))
    assert parse_instance(json.dumps(empty)) == CliqueInstance(n=0, edges=(), k=1, partition=())


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("edges", [[0, 1], [1, True]], "an edge must be a list of two integers, got [1, True]"),
        ("edges", [[0, 1], [1, 2, 3]], "an edge must be a list of two integers, got [1, 2, 3]"),
        ("edges", [[0, 1], [1, "2"]], "an edge must be a list of two integers, got [1, '2']"),
        ("edges", [[0, 1], 3], "an edge must be a list of two integers, got 3"),
        ("node_weights", [1, 2, True], "node weight must be an integer, got bool"),
        ("node_weights", [1, 2, 2.5], "node weight must be an integer or decimal string, got float"),
        ("node_weights", [1, "x", 3], "node weight is not a decimal integer: 'x'"),
    ],
)
def test_parse_rejects_one_bad_list_entry(field, value, message):
    obj = {"type": "graph", "k": 2, "n": 3, "edges": [[0, 1], [1, 2]], "node_weights": [1, 2, 3],
           "edge_weights": None, "weight_bound": "3", "target": "3", field: value}
    with pytest.raises(ValidationError) as exc:
        parse_instance(json.dumps(obj))
    assert str(exc.value) == message


ROUND_TRIP_FIXTURES = [
    make_ksum([1, 3, 2, 2], 2, 4),
    KSumInstance(k=3, numbers=(-5, 0, 5), target=0, bounds=(-5, 5)),
    VectorSumInstance(k=2, dim=2, vectors=((1, 1), (1, 0)), target=(2, 1), entry_bounds=(0, 1)),
    CliqueInstance(n=4, edges=((0, 1), (2, 3)), k=2),
    CliqueInstance(n=4, edges=((0, 2), (1, 3)), k=2, partition=(1, 1, 2, 2)),
    make_nw_graph(3, [(0, 1), (1, 2)], 2, [4, 5, 6], target=9),
    make_ew_graph(3, [(0, 1), (1, 2)], 2, [-7, 7], target=0),
]


@pytest.mark.parametrize("inst", ROUND_TRIP_FIXTURES, ids=lambda i: type(i).__name__)
def test_serialize_parse_round_trip(inst):
    assert parse_instance(serialize_instance(inst)) == inst


SCALAR_TWINS = [
    (KSumInstance, dict(k=3, numbers=(1, 2, 3), target=6, bounds=(0, 5)), ("k",)),
    (VectorSumInstance, dict(k=2, dim=2, vectors=((1, 2), (3, 4)), target=(4, 6), entry_bounds=(0, 5)), ("k", "dim")),
    (CliqueInstance, dict(n=3, edges=((0, 1),), k=2), ("n", "k")),
    (WeightedGraph, dict(n=3, edges=((0, 1),), k=2, node_weights=(1, 2, 3), edge_weights=None, weight_bound=3, target=3),
     ("n", "k", "weight_bound", "target")),
    (TargetSumInstance, dict(q=7, elements=(1, 2), k=2, target=3), ("k",)),
    (LinDepInstance, dict(q=5, n=2, vectors=((1, 0), (0, 1)), k=2, target=(1, 1)), ("n",)),
]


@pytest.mark.parametrize("cls, fields, scalars", SCALAR_TWINS, ids=[cls.__name__ for cls, _, _ in SCALAR_TWINS])
def test_float_or_str_scalars_serialize_like_ints(cls, fields, scalars):
    """Sizes, arities, bounds and targets given as floats or decimal strings
    are stored as ints, so the instance serializes to its int-built twin's
    bytes and parses back equal to it."""
    twin = cls(**fields)
    for convert in (float, str):
        inst = cls(**{**fields, **{name: convert(fields[name]) for name in scalars}})
        assert serialize_instance(inst) == serialize_instance(twin)
        assert parse_instance(serialize_instance(inst)) == inst == twin


def test_fractional_values_are_refused_not_truncated():
    """A value that int() would change is refused, in every constructor and
    in a witness, where it was truncated (k = 3.7 built k = 3, and the
    witness (0.9, 1.5) verified as (0, 1))."""
    for build in [
        lambda: KSumInstance(k=3.7, numbers=(1, 2, 3), target=6, bounds=(0, 5)),
        lambda: KSumInstance(k=3, numbers=(1.9, 2, 3), target=6, bounds=(0, 5)),
        lambda: KSumInstance(k=3, numbers=(1, 2, 3), target=6.5, bounds=(0, 5)),
        lambda: KSumInstance(k=3, numbers=(1, 2, 3), target=6, bounds=(0, 5.5)),
        lambda: VectorSumInstance(k=2, dim=2, vectors=((1, 2.5), (3, 4)), target=(4, 6), entry_bounds=(0, 5)),
        lambda: CliqueInstance(n=3, edges=((0, 1.7),), k=2),
        lambda: WeightedGraph(n=3, edges=((0, 1),), k=2, node_weights=(1, 2.5, 3), edge_weights=None,
                              weight_bound=3, target=3),
        lambda: WeightedGraph(n=3, edges=((0, 1),), k=2, node_weights=None, edge_weights=((0, 1, 0.5),),
                              weight_bound=3, target=0),
        lambda: TargetSumInstance(q=7, elements=(1, 2.5), k=2, target=3),
        lambda: LinDepInstance(q=5, n=2, vectors=((1, 0), (0, 1.5)), k=2, target=(1, 1)),
    ]:
        with pytest.raises(ValidationError, match="must be an integer"):
            build()
    inst = KSumInstance(k=2, numbers=(1, 2, 3), target=3, bounds=(0, 5))
    with pytest.raises(MalformedWitnessError, match="must be an integer"):
        verify_witness(inst, (0.9, 1.5))
    assert verify_witness(inst, (0.0, "1"))  # integral floats and decimal strings still pass


def test_serialize_is_canonical_and_parse_order_insensitive():
    inst = make_ksum([1, 3], 2, 4)
    blob = serialize_instance(inst)
    obj = json.loads(blob)
    shuffled = json.dumps(dict(reversed(list(obj.items())))).encode()
    assert parse_instance(shuffled) == inst
    assert serialize_instance(parse_instance(blob)) == blob


def test_big_integers_survive_the_wire():
    big = 10**40
    inst = KSumInstance(k=2, numbers=(big, big - 1), target=2 * big - 1, bounds=(0, big))
    assert parse_instance(serialize_instance(inst)) == inst


def test_instance_digest_stable_and_distinct():
    a = make_ksum([1, 3], 2, 4)
    b = make_ksum([1, 3], 2, 5)
    assert instance_digest(a) == instance_digest(a)
    assert instance_digest(a) != instance_digest(b)


def test_collection_round_trip():
    src = make_ksum([1, 3], 2, 4)
    coll = ReducedCollection(
        reduction="demo",
        source_digest=instance_digest(src),
        params={"p": 3, "d": 1},
        items=(
            ReducedItem(make_ksum([1, 3], 2, 4), {"gamma": [0]}),
            ReducedItem(CliqueInstance(n=2, edges=((0, 1),), k=2), {"gamma": [1]}),
        ),
    )
    again = parse_collection(serialize_collection(coll))
    assert again == coll
    assert serialize_collection(again) == serialize_collection(coll)


def test_collection_digests_its_source_only_when_serialized(monkeypatch):
    from ksumclique import ParameterError, instances
    from ksumclique import reduce_sum_to_clique as fwd

    src = make_ksum([1, 3, 2, 2], 2, 4)
    given = ReducedCollection("ksum_to_vectorsum", instance_digest(src), {}, ())
    hashed = []
    monkeypatch.setattr(instances, "instance_digest", lambda inst: hashed.append(inst) or instance_digest(inst))
    coll = fwd.ksum_to_vectorsum(src, 3, 2)
    assert hashed == []
    blob = serialize_collection(coll)
    serialize_collection(coll)
    assert hashed == [src]  # computed once, on first read
    assert parse_collection(blob) == coll
    assert json.loads(blob.split(b"\n")[0])["meta"]["source_digest"] == given.source_digest
    for bad in ({}, {"source_digest": "x", "source": src}):
        with pytest.raises(ParameterError):
            ReducedCollection(reduction="demo", params={}, items=(), **bad)
