import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricgraph import (
    Edge,
    EdgePoint,
    EdgeSegment,
    MetricGraph,
    VertexPoint,
    ball_volume,
    connected_components,
    distance_pieces,
    distance,
    graph_from_dict,
    point_on_edge,
    validate,
    vertex_distances,
)

from conftest import interval_graph, loop_edge_graph, star_graph


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_well_formed():
    assert validate(interval_graph(math.pi)) == []


def test_validate_length_below_bound():
    g = MetricGraph(("v", "w"), (Edge("e", 0.5, "v", "w"),), 1.0)
    out = validate(g)
    assert len(out) == 1 and out[0].code == "lb" and out[0].subject == "e"


def test_validate_missing_endpoint():
    g = MetricGraph(("v", "w"), (Edge("e", 2.0, "v", None),), 1.0)
    assert any(v.code == "endpoint" for v in validate(g))


def test_validate_unknown_endpoint_and_duplicates():
    g = MetricGraph(("v", "v"), (Edge("e", 2.0, "v", "z"), Edge("e", 2.0, "v", "v")), 1.0)
    codes = {v.code for v in validate(g)}
    assert {"vertex-dup", "edge-dup", "endpoint"} <= codes


def test_validate_infinite_edge_shape():
    ok = MetricGraph(("v",), (Edge("e", math.inf, "v", None),), 1.0)
    assert validate(ok) == []
    bad = MetricGraph(("v", "w"), (Edge("e", math.inf, "v", "w"),), 1.0)
    assert any(v.code == "endpoint" for v in validate(bad))


def test_validate_isolated_vertex():
    g = MetricGraph(("v", "w", "z"), (Edge("e", 2.0, "v", "w"),), 1.0)
    assert any(v.code == "isolated" and v.subject == "z" for v in validate(g))


def test_loop_counts_twice_in_degree():
    g = loop_edge_graph()
    assert g.degree("a") == 3
    assert g.degree("b") == 1
    assert [s for s in g.star("a").slots] == [("bridge", "init"), ("loop", "init"), ("loop", "term")]


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def test_distance_along_single_edge():
    g = interval_graph(3.0)
    assert distance(g, EdgePoint("e", 0.5), EdgePoint("e", 2.5)) == pytest.approx(2.0)


def test_distance_parallel_edges():
    # two parallel edges of lengths 1 and 5; hand enumeration of the chains:
    # v->w direct via short edge = 1, via long edge = 5
    g = MetricGraph(("v", "w"), (Edge("a", 1.0, "v", "w"), Edge("b", 5.0, "v", "w")), 1.0)
    assert distance(g, VertexPoint("v"), VertexPoint("w")) == pytest.approx(1.0)
    # interior of the long edge at t=2.5: direct remainder 2.5 beats 2.5 + 1
    assert distance(g, EdgePoint("b", 2.5), VertexPoint("w")) == pytest.approx(2.5)
    # and near the v end the detour through v and the short edge wins
    assert distance(g, EdgePoint("b", 0.5), VertexPoint("w")) == pytest.approx(1.5)


def test_distance_disconnected_is_infinite():
    g = MetricGraph(
        ("v", "w", "p", "q"),
        (Edge("e1", 1.0, "v", "w"), Edge("e2", 1.0, "p", "q")),
        1.0,
    )
    assert distance(g, VertexPoint("v"), VertexPoint("q")) == math.inf
    assert len(connected_components(g)) == 2


def test_distance_unknown_point_rejected():
    g = interval_graph(1.0)
    with pytest.raises(ValueError):
        distance(g, VertexPoint("nope"), VertexPoint("v"))
    with pytest.raises(ValueError):
        distance(g, VertexPoint("v"), EdgePoint("e", 7.0))


def _floyd_warshall(g: MetricGraph) -> dict:
    # independent oracle: min parallel-edge weight per pair, then FW closure
    verts = list(g.vertices)
    d = {(a, b): (0.0 if a == b else math.inf) for a in verts for b in verts}
    for e in g.edges:
        if e.end is None:
            continue
        key = (e.init, e.end)
        d[key] = min(d[key], e.length)
        d[(e.end, e.init)] = min(d[(e.end, e.init)], e.length)
    for k in verts:
        for a in verts:
            for b in verts:
                if d[(a, k)] + d[(k, b)] < d[(a, b)]:
                    d[(a, b)] = d[(a, k)] + d[(k, b)]
    return d


@st.composite
def small_graphs(draw):
    n_v = draw(st.integers(2, 5))
    n_e = draw(st.integers(1, 7))
    verts = tuple(range(n_v))
    edges = []
    for i in range(n_e):
        a = draw(st.integers(0, n_v - 1))
        b = draw(st.integers(0, n_v - 1))
        length = draw(st.floats(1.0, 4.0, allow_nan=False))
        edges.append(Edge(i, length, a, b))
    return MetricGraph(verts, tuple(edges), 1.0)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.data())
def test_vertex_distance_matches_floyd_warshall(g, data):
    used = {v for e in g.edges for v in (e.init, e.end)}
    oracle = _floyd_warshall(g)
    a = data.draw(st.sampled_from(sorted(used)))
    dv = vertex_distances(g, VertexPoint(a))
    for b in g.vertices:
        expected = oracle[(a, b)] if b in used else math.inf
        if math.isinf(expected):
            assert math.isinf(dv[b])
        else:
            assert dv[b] == pytest.approx(expected, abs=1e-12)


@st.composite
def graph_points(draw, g):
    e = draw(st.sampled_from(list(g.edges)))
    t = draw(st.floats(0.05, 0.95)) * e.length
    return EdgePoint(e.id, t)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.data())
def test_metric_axioms(g, data):
    x = data.draw(graph_points(g))
    y = data.draw(graph_points(g))
    z = data.draw(graph_points(g))
    dxy = distance(g, x, y)
    assert distance(g, y, x) == pytest.approx(dxy, abs=1e-12) or (
        math.isinf(dxy) and math.isinf(distance(g, y, x))
    )
    assert distance(g, x, x) == 0.0
    dxz, dyz = distance(g, x, z), distance(g, y, z)
    if all(map(math.isfinite, (dxy, dxz, dyz))):
        assert dxz <= dxy + dyz + 1e-9


# ---------------------------------------------------------------------------
# ball volume
# ---------------------------------------------------------------------------


def test_ball_volume_interval_midpoint():
    g = interval_graph(2.0)
    assert ball_volume(g, EdgePoint("e", 1.0), 0.5) == pytest.approx(1.0)


def test_ball_volume_star():
    g = star_graph(3)
    assert ball_volume(g, VertexPoint("c"), 0.5) == pytest.approx(1.5)
    assert ball_volume(g, VertexPoint("c"), 2.0) == pytest.approx(3.0)


def _ball_volume_sampled(g, x0, r, n=4000):
    # independent oracle: dense arc-length sampling of the distance sublevel set
    total = 0.0
    for e in g.edges:
        ts = (np.arange(n) + 0.5) * (e.length / n)
        inside = sum(
            1 for t in ts if distance(g, x0, point_on_edge(g, e.id, float(t))) <= r
        )
        total += inside * (e.length / n)
    return total


@pytest.mark.parametrize("r", [0.3, 0.9, 1.4, 2.2])
def test_ball_volume_matches_sampling_on_loop_edge(r):
    g = loop_edge_graph()
    x0 = EdgePoint("loop", 0.7)
    assert ball_volume(g, x0, r) == pytest.approx(_ball_volume_sampled(g, x0, r), abs=5e-3)


def test_ball_volume_monotone_and_lower_bound():
    g = star_graph(4, length=1.5)
    x0 = EdgePoint("e2", 0.4)
    rs = np.linspace(0.0, 7.0, 141)
    vols = [ball_volume(g, x0, float(r)) for r in rs]
    assert all(b >= a - 1e-12 for a, b in zip(vols, vols[1:]))
    for r, v in zip(rs, vols):
        assert v >= min(r, g.total_length) - 1e-12
    # continuity in r: increments vanish with the step
    steps = np.diff(vols)
    assert np.max(steps) <= 8 * (rs[1] - rs[0]) + 1e-12


def _ball_volume_by_intervals(g, x0, r):
    # reference: on each edge the ball is a union of at most three intervals,
    # one per local minimum of the distance; their union length, summed
    dv = vertex_distances(g, x0)
    total = 0.0
    for e in g.edges:
        ivs = []
        if r > dv[e.init]:
            ivs.append((0.0, min(e.length, r - dv[e.init])))
        if e.end is not None and r > dv[e.end]:
            ivs.append((max(0.0, e.length - (r - dv[e.end])), e.length))
        if isinstance(x0, EdgePoint) and x0.edge == e.id and r > 0:
            ivs.append((max(0.0, x0.t - r), min(e.length, x0.t + r)))
        cur_a = cur_b = None
        for a, b in sorted(iv for iv in ivs if iv[1] > iv[0]):
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    total += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            total += cur_b - cur_a
    return total


@st.composite
def _graph_and_base(draw):
    """Random multigraph: loops, parallel edges, maybe a second component and
    an infinite edge; the base is a vertex or an interior edge point."""
    n = draw(st.integers(1, 5))
    length = st.floats(1.0, 3.0)
    edges = [Edge(f"t{i}", draw(length), draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    for k in range(draw(st.integers(0, 4))):  # extra edges: loops and parallels included
        edges.append(Edge(f"x{k}", draw(length), draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))))
    if not edges:
        edges.append(Edge("loop", draw(length), 0, 0))
    verts = list(range(n))
    if draw(st.booleans()):
        verts += ["p", "q"]
        edges.append(Edge("far", draw(length), "p", "q"))
    if draw(st.booleans()):
        edges.append(Edge("ray", math.inf, draw(st.integers(0, n - 1)), None))
    g = MetricGraph(tuple(verts), tuple(edges), 1.0)
    e = draw(st.sampled_from(edges))
    if draw(st.booleans()):
        x0 = VertexPoint(e.init)
    else:
        x0 = EdgePoint(e.id, draw(st.floats(0.01, 0.99)) * min(e.length, 3.0))
    return g, x0


@settings(max_examples=150, deadline=None)
@given(_graph_and_base(), st.lists(st.floats(0.0, 12.0), max_size=5))
def test_ball_volume_matches_interval_union(gx, extra_radii):
    g, x0 = gx
    starts, lengths = distance_pieces(g, x0)
    ends = starts + lengths
    knots = np.concatenate([starts, ends[np.isfinite(ends)]])
    finite = sum(e.length for e in g.edges if e.is_finite)
    for r in [*knots, *(knots + 0.5), *extra_radii]:
        tol = 1e-12 * max(1.0, finite + r)
        assert ball_volume(g, x0, float(r)) == pytest.approx(_ball_volume_by_intervals(g, x0, float(r)), abs=tol)


# ---------------------------------------------------------------------------
# edge segments
# ---------------------------------------------------------------------------


def test_edge_segment_needs_positive_length():
    with pytest.raises(ValueError):
        EdgeSegment("e", 1.0, 1.0)


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------


def test_graph_json_roundtrip(tmp_path):
    doc = {
        "u": 0.5,
        "vertices": ["v", "w"],
        "edges": [
            {"id": "e1", "length": 2.0, "from": "v", "to": "w"},
            {"id": "ray", "length": "inf", "from": "w"},
        ],
    }
    g = graph_from_dict(doc)
    assert not g.is_compact and g.edge("ray").end is None
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    from metricgraph import graph_to_dict, load_graph

    assert graph_to_dict(load_graph(path)) == graph_to_dict(g)


@pytest.mark.parametrize(
    "doc",
    [
        {"u": 1, "vertices": [], "edges": [], "extra": 1},
        {"u": 1, "vertices": []},
        {"u": 1, "vertices": ["v"], "edges": [{"id": "e", "length": 1.0, "from": "v", "to": "v", "color": "red"}]},
        {"u": 1, "vertices": ["v"], "edges": [{"id": "e", "length": 1.0, "from": "v"}]},
        {"u": 1, "vertices": ["v"], "edges": [{"id": "e", "length": "inf", "from": "v", "to": "v"}]},
    ],
)
def test_graph_json_rejects_malformed(doc):
    with pytest.raises(ValueError):
        graph_from_dict(doc)


def test_point_normalization():
    g = interval_graph(2.0)
    assert point_on_edge(g, "e", 0.0) == VertexPoint("v")
    assert point_on_edge(g, "e", 2.0) == VertexPoint("w")
    assert point_on_edge(g, "e", 0.5) == EdgePoint("e", 0.5)
    with pytest.raises(ValueError):
        point_on_edge(g, "e", 2.5)
