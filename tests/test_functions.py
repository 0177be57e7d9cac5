import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricgraph import (
    BoundaryCondition,
    Edge,
    EdgePoint,
    GridFunction,
    MetricGraph,
    VertexPoint,
    cutoff,
    distance,
    inner,
    load_function_csv,
    norms,
    save_function_csv,
    sobolev_check,
)

from metricgraph.graph import INIT

from conftest import interval_graph, path_graph, star_graph


def linear_f(g, h=0.02):
    return GridFunction.from_callable(g, h, lambda eid, ts: ts.astype(complex))


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def slot_traces(f):
    """Per-vertex (values, inward derivatives) of the slot arrays of ``Mesh.traces``."""
    vals, ders = f.grid.traces(f.data)
    return {v: vals[sl] for v, sl in f.graph.slots.items()}, {v: ders[sl] for v, sl in f.graph.slots.items()}


def test_traces_linear_function_sign_convention():
    g = interval_graph(2.0)
    vals, ders = slot_traces(linear_f(g))
    assert vals["v"][0] == pytest.approx(0.0)
    assert ders["v"][0] == pytest.approx(1.0, abs=1e-10)
    assert vals["w"][0] == pytest.approx(2.0)
    assert ders["w"][0] == pytest.approx(-1.0, abs=1e-10)


def test_traces_constant():
    g = star_graph(3)
    f = GridFunction.from_callable(g, 0.05, lambda eid, ts: np.full_like(ts, 2.5, dtype=complex))
    vals, ders = slot_traces(f)
    for v in g.vertices:
        assert np.allclose(vals[v], 2.5)
        assert np.allclose(ders[v], 0.0, atol=1e-10)


def test_traces_sine_with_sign_flip():
    g = interval_graph(math.pi)
    f = GridFunction.from_callable(g, 0.005, lambda eid, ts: np.sin(ts).astype(complex))
    vals, ders = slot_traces(f)
    assert vals["v"][0] == pytest.approx(0.0, abs=1e-8)
    assert ders["v"][0] == pytest.approx(1.0, abs=1e-4)
    assert vals["w"][0] == pytest.approx(0.0, abs=1e-8)
    # -cos(pi) = +1 after the orientation flip
    assert ders["w"][0] == pytest.approx(1.0, abs=1e-4)


def test_trace_convergence_second_order():
    g = interval_graph(2.0)
    errs = []
    for h in (0.1, 0.05, 0.025):
        f = GridFunction.from_callable(g, h, lambda eid, ts: np.exp(ts).astype(complex))
        _, ders = slot_traces(f)
        errs.append(abs(ders["v"][0] - 1.0))
    order = math.log2(errs[0] / errs[2]) / 2
    assert 1.6 < order < 2.4


def reference_traces(grid, y):
    """Per-vertex traces of 1-D nodal data ``y``, one vertex at a time (the stencil of ``Mesh.traces``)."""
    g = grid.graph
    vals, ders = {}, {}
    for v in g.vertices:
        slots = g.star(v).slots
        k = [grid.index[eid] for eid, _ in slots]
        i = np.array([grid.offsets[j] if end == INIT else grid.offsets[j + 1] - 1 for j, (_, end) in zip(k, slots)])
        step = np.array([1 if end == INIT else -1 for _, end in slots], dtype=int)  # inward
        h = grid.widths[k]
        vals[v] = y[i]
        ders[v] = (-3.0 * y[i] + 4.0 * y[i + step] - y[i + 2 * step]) / (2.0 * h)
    return vals, ders


def _random_lp(rng, d):
    """Self-adjoint L and an orthogonal projection P of random rank, complex."""
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    ran = Q[:, : rng.integers(0, d + 1)]
    H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (H + H.conj().T), ran @ ran.conj().T


@st.composite
def multigraphs(draw):
    """A path through 2-4 vertices, a loop at the first and two parallel edges, plus random edges."""
    n_v = draw(st.integers(2, 4))
    pairs = [(0, 0), (0, 1), (0, 1)] + [(k, k + 1) for k in range(1, n_v - 1)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n_v - 1), st.integers(0, n_v - 1)), max_size=3))
    lengths = draw(st.lists(st.floats(1.0, 3.0), min_size=len(pairs), max_size=len(pairs)))
    edges = tuple(Edge(f"e{k}", length, a, b) for k, ((a, b), length) in enumerate(zip(pairs, lengths)))
    return MetricGraph(tuple(range(n_v)), edges, 1.0)


@settings(max_examples=40, deadline=None)
@given(multigraphs(), st.sampled_from([1, 3]), st.floats(0.1, 0.6), st.integers(0, 10_000))
def test_slot_traces_match_the_per_vertex_loop(g, m, h_max, seed):
    rng = np.random.default_rng(seed)
    grid = GridFunction.zeros(g, h_max).grid
    y = rng.standard_normal((grid.n_nodes, m)) + 1j * rng.standard_normal((grid.n_nodes, m))
    y = y[:, 0] if m == 1 else y
    vals, ders = grid.traces(y)
    bc = BoundaryCondition({v: _random_lp(rng, g.degree(v)) for v in g.vertices})
    worst = np.atleast_1d(bc.worst_residual(g, vals, ders))
    assert worst.shape == (m,)
    for j, col in enumerate(y.reshape(grid.n_nodes, m).T):
        ref_vals, ref_ders = reference_traces(grid, col)
        got_vals, got_ders = (a.reshape(-1, m)[:, j] for a in (vals, ders))
        for v, sl in g.slots.items():
            assert np.array_equal(got_vals[sl], ref_vals[v]) and np.array_equal(got_ders[sl], ref_ders[v])
        want = max(bc.vertex_residual(v, ref_vals[v], ref_ders[v]) for v in g.vertices)
        assert abs(worst[j] - want) <= 1e-14 * want


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_norms_constant_on_edge():
    g = interval_graph(2.0)
    f = GridFunction.from_callable(g, 0.02, lambda eid, ts: np.ones_like(ts, dtype=complex))
    n = norms(f)
    assert n.l2 == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert n.deriv_l2 == pytest.approx(0.0, abs=1e-10)
    assert n.linf == pytest.approx(1.0)


def test_norms_sine():
    g = interval_graph(math.pi)
    f = GridFunction.from_callable(g, 0.01, lambda eid, ts: np.sin(ts).astype(complex))
    n = norms(f)
    assert n.l2**2 == pytest.approx(math.pi / 2, rel=1e-4)
    assert n.w12**2 == pytest.approx(math.pi, rel=1e-4)


def test_norms_zero():
    g = star_graph(3)
    n = norms(GridFunction.zeros(g, 0.1))
    assert n.l2 == n.deriv_l2 == n.w12 == n.linf == 0.0


def test_norms_convergence_second_order():
    g = interval_graph(1.0)
    exact = math.sqrt((math.e**2 - 1) / 2)
    errs = []
    for h in (0.1, 0.05, 0.025):
        f = GridFunction.from_callable(g, h, lambda eid, ts: np.exp(ts).astype(complex))
        errs.append(abs(norms(f).l2 - exact))
    order = math.log2(errs[0] / errs[2]) / 2
    assert 1.6 < order < 2.4


def test_grid_function_validation():
    g = interval_graph(1.0)
    with pytest.raises(ValueError):
        GridFunction(g, 0.1, {"e": np.array([1.0, 2.0])})  # wrong node count
    with pytest.raises(ValueError):
        GridFunction(g, 0.1, {"e": np.full(11, np.nan)})
    with pytest.raises(ValueError):
        GridFunction(g, 0.1, {})


def test_mesh_mismatch_rejected():
    g = interval_graph(1.0)
    f1 = GridFunction.ones(g, 0.1)
    f2 = GridFunction.ones(g, 0.05)
    with pytest.raises(ValueError):
        inner(f1, f2)
    with pytest.raises(ValueError):
        f1 + f2


# ---------------------------------------------------------------------------
# trace inequality
# ---------------------------------------------------------------------------


def test_sobolev_constant_function_sharpness():
    g = interval_graph(2.0)
    f = GridFunction.from_callable(g, 0.01, lambda eid, ts: np.full_like(ts, 3.0, dtype=complex))
    for a in (0.5, 1.0, 2.0):
        chk = sobolev_check(f, "e", a)
        assert chk.holds
        assert chk.rhs / chk.lhs == pytest.approx(2.0, abs=1e-12)


def test_sobolev_zero_trace():
    g = interval_graph(1.0)
    chk = sobolev_check(linear_f(g, 0.01), "e", 1.0)
    assert chk.lhs == 0.0 and chk.holds


def test_sobolev_cosine_exact_integrals():
    g = interval_graph(math.pi)
    f = GridFunction.from_callable(g, 0.002, lambda eid, ts: np.cos(ts).astype(complex))
    chk = sobolev_check(f, "e", math.pi)
    assert chk.lhs == pytest.approx(1.0)
    # integrals of cos^2 and sin^2 over (0, pi) are both pi/2
    assert chk.rhs == pytest.approx(2 / math.pi * (math.pi / 2) + math.pi * (math.pi / 2), rel=1e-4)
    assert chk.holds


def test_sobolev_window_exceeding_edge_rejected():
    g = interval_graph(1.0)
    with pytest.raises(ValueError):
        sobolev_check(linear_f(g), "e", 1.5)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.5, 1.0, 2.0]))
def test_sobolev_random_smooth_functions(seed, a):
    g = interval_graph(2.0)
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(8)

    def fn(eid, ts):
        out = coef[0] + coef[1] * ts
        for k in range(1, 4):
            out = out + coef[2 * k] * np.cos(k * math.pi * ts / 2) + coef[2 * k + 1] * np.sin(
                k * math.pi * ts / 2
            )
        return out.astype(complex)

    chk = sobolev_check(GridFunction.from_callable(g, 0.02, fn), "e", a)
    assert chk.holds


# ---------------------------------------------------------------------------
# cutoff functions
# ---------------------------------------------------------------------------


def test_cutoff_levels_inside_outside():
    g = path_graph(6)
    psi = cutoff(g, VertexPoint(0), 2.5)
    ts = np.linspace(0.0, 1.0, 11)
    assert np.allclose(psi.value(0, ts), 1.0)  # both ends within 2.5
    assert np.allclose(psi.value(1, ts), 1.0)
    assert np.allclose(psi.value(5, ts), 0.0)  # both ends outside
    mid = psi.value(2, ts)  # straddling edge carries the ramp
    assert mid[0] == pytest.approx(1.0) and mid[-1] == pytest.approx(0.0)
    assert np.all(np.diff(mid) <= 1e-12)


def test_cutoff_derivative_bound():
    g = path_graph(6)
    psi = cutoff(g, VertexPoint(0), 2.5)
    bound = (1 + 4 / g.u) ** 2
    ts = np.linspace(0.0, 1.0, 301)
    for e in g.edges:
        assert np.max(np.abs(psi.value(e.id, ts))) <= 1.0 + 1e-12
        assert np.max(np.abs(psi.derivative(e.id, ts, order=1))) <= bound
        assert np.max(np.abs(psi.derivative(e.id, ts, order=2))) <= bound
    assert psi.derivative_bound() <= bound


def test_cutoff_ball_support_properties():
    g = path_graph(10)
    x = VertexPoint(2)
    n = 4.0
    psi = cutoff(g, x, n)
    for e in g.edges:
        ts = np.linspace(0.01, 0.99, 33)
        vals = psi.value(e.id, ts)
        for t, val in zip(ts, vals):
            d = distance(g, x, EdgePoint(e.id, float(t)))
            if d <= n - 2 * g.u:
                assert val == pytest.approx(1.0, abs=1e-12)
            if d > n + 2 * g.u:
                assert val == pytest.approx(0.0, abs=1e-12)


def test_cutoff_edgepoint_center_plateau():
    g = interval_graph(8.0)
    x = EdgePoint("e", 4.0)
    psi = cutoff(g, x, 1.5)  # both vertices outside the ball
    assert psi.value("e", np.array([4.0]))[0] == pytest.approx(1.0)
    assert psi.value("e", np.array([0.3]))[0] == pytest.approx(0.0)
    assert psi.value("e", np.array([7.7]))[0] == pytest.approx(0.0)


def test_cutoff_smoothness_c2():
    # second difference of the profile stays bounded through window joints
    g = path_graph(6)
    psi = cutoff(g, VertexPoint(0), 2.5)
    h = 1e-4
    ts = np.arange(h, 1.0 - h, h)
    vals = psi.value(2, np.concatenate([ts - h, ts, ts + h]))
    n = ts.size
    second = (vals[:n] - 2 * vals[n : 2 * n] + vals[2 * n :]) / h**2
    assert np.max(np.abs(second)) <= (1 + 4 / g.u) ** 2 + 1.0


@pytest.mark.parametrize(
    "base, n",
    [("a", 3.2), ("a", 0.5), ("d", 3.2), (("e2", 1.0), 1.7), (("e2", 1.0), 2.6)],
    ids=["a-3.2", "a-0.5", "d-3.2", "e2-1.7", "e2-2.6"],
)
def test_cutoff_mirrors_when_every_edge_is_reversed(base, n):
    # reversing an edge swaps which end is initial, so the ramp-down and
    # ramp-up placements must give the same profile read from the other end
    lengths = {"e1": 2.0, "e2": 3.0, "e3": 2.5}
    ends = {"e1": ("a", "b"), "e2": ("b", "c"), "e3": ("c", "d")}
    verts = ("a", "b", "c", "d")
    fwd = MetricGraph(verts, tuple(Edge(e, l, *ends[e]) for e, l in lengths.items()), 1.0)
    rev = MetricGraph(verts, tuple(Edge(e, l, *ends[e][::-1]) for e, l in lengths.items()), 1.0)
    if isinstance(base, tuple):
        eid, t = base
        x_fwd, x_rev = EdgePoint(eid, t), EdgePoint(eid, lengths[eid] - t)
    else:
        x_fwd = x_rev = VertexPoint(base)
    psi, psi_rev = cutoff(fwd, x_fwd, n), cutoff(rev, x_rev, n)
    for eid, l in lengths.items():
        ts = np.linspace(0.0, l, 401)
        assert np.max(np.abs(psi_rev.value(eid, l - ts) - psi.value(eid, ts))) <= 1e-12, eid


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def test_function_csv_roundtrip(tmp_path):
    g = star_graph(3)
    f = GridFunction.from_callable(
        g, 0.05, lambda eid, ts: (np.sin(ts) + 1j * np.cos(ts)).astype(complex)
    )
    path = tmp_path / "f.csv"
    save_function_csv(f, path)
    f2 = load_function_csv(path, g, 0.05)
    for e in g.edges:
        assert np.allclose(f.values[e.id], f2.values[e.id])


def test_function_csv_mesh_mismatch(tmp_path):
    g = interval_graph(1.0)
    f = GridFunction.ones(g, 0.1)
    path = tmp_path / "f.csv"
    save_function_csv(f, path)
    with pytest.raises(ValueError):
        load_function_csv(path, g, 0.05)
