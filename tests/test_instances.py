"""Instance types, witness checking, normalization, and the wire format."""

import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksumclique import (
    CliqueInstance,
    KSumInstance,
    MalformedWitnessError,
    ParseError,
    ReducedCollection,
    ReducedItem,
    ValidationError,
    VectorSumInstance,
    WeightedGraph,
    instance_digest,
    parse_collection,
    parse_instance,
    serialize_collection,
    serialize_instance,
    verify_witness,
)
from ksumclique.instances import normalize_edges

from util import make_ew_graph, make_ksum, make_nw_graph


def test_ksum_rejects_bad_arity():
    with pytest.raises(ValidationError):
        KSumInstance(k=0, numbers=(1,), target=1, bounds=(0, 1))


def test_ksum_allows_fewer_numbers_than_k():
    inst = KSumInstance(k=2, numbers=(5,), target=10, bounds=(0, 5))
    assert inst.n == 1


def test_ksum_rejects_numbers_outside_declared_bounds():
    with pytest.raises(ValidationError):
        KSumInstance(k=2, numbers=(7,), target=1, bounds=(0, 5))


def test_vectorsum_dim_mismatch():
    with pytest.raises(ValidationError):
        VectorSumInstance(k=2, dim=2, vectors=((1,),), target=(1, 1), entry_bounds=(0, 1))


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
