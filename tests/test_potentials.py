import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricgraph import (
    Edge,
    MetricGraph,
    Potential,
    assemble,
    assemble_perturbed,
    check_relative_bound,
    coercivity_constant,
    edge_grid,
    eigensystem,
    load_potential_csv,
    parse_potential_expr,
    perturbed_eigen_report,
    save_potential_csv,
    uniform_bc,
    uniform_l2_norm,
)

from conftest import interval_graph, star_graph


H = 0.02


def test_mv_zero():
    g = interval_graph(math.pi)
    assert uniform_l2_norm(g, Potential.constant(g, H, 0.0)).M == 0.0


def test_mv_constant_closed_form():
    # a constant c over a maximal window of length 2u has norm |c| sqrt(2u)
    g = interval_graph(math.pi)
    out = uniform_l2_norm(g, Potential.constant(g, H, 3.0))
    assert out.M == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-12)
    assert out.segment.length == pytest.approx(2.0)


def test_mv_short_edge_window_clipped():
    g = star_graph(3, length=1.5)
    out = uniform_l2_norm(g, Potential.constant(g, 0.05, 2.0))
    assert out.M == pytest.approx(2.0 * math.sqrt(1.5), rel=1e-12)


def test_mv_spike_window_contains_spike():
    g = interval_graph(math.pi)
    V = Potential.from_callable(g, H, lambda eid, ts: np.where(np.abs(ts - 2.0) < 0.08, 40.0, 0.0))
    out = uniform_l2_norm(g, V)
    assert out.segment.t0 <= 2.0 <= out.segment.t1
    # compare against a dense brute-force window sweep
    ts = np.linspace(0, math.pi, 20001)
    vv = np.where(np.abs(ts - 2.0) < 0.08, 40.0, 0.0)
    best = 0.0
    w = 2.0
    for a in np.linspace(0, math.pi - w, 4001):
        mask = (ts >= a) & (ts <= a + w)
        best = max(best, float(np.trapezoid(vv[mask] ** 2, ts[mask])))
    assert out.M == pytest.approx(math.sqrt(best), rel=5e-3)


def _long_grid3():
    """3x3 lattice with edges in [2.4, 3]: longer than 2u, so windows slide."""
    rng = np.random.default_rng(4)
    vid = [[f"v{r}{c}" for c in range(3)] for r in range(3)]
    pairs = [(vid[r][c], vid[r][c + 1]) for r in range(3) for c in range(2)]
    pairs += [(vid[r][c], vid[r + 1][c]) for r in range(2) for c in range(3)]
    lengths = rng.uniform(2.4, 3.0, len(pairs))
    edges = tuple(Edge(f"e{k}", float(lengths[k]), a, b) for k, (a, b) in enumerate(pairs))
    return MetricGraph(tuple(v for row in vid for v in row), edges, 1.0)


def _window_integral(ts, v2, t0, t1):
    """V^2 over [t0, t1], summed cell by cell as (trapezoid cell integral) x (share of the cell covered)."""
    h = ts[1] - ts[0]
    covered = np.clip(np.minimum(t1, ts[1:]) - np.maximum(t0, ts[:-1]), 0.0, None)
    return float(np.sum(0.5 * h * (v2[1:] + v2[:-1]) * covered / h))


@pytest.mark.parametrize("name", ["star", "grid"])
def test_mv_is_the_max_over_graph_segments(name):
    # brute force: 2,001 window starts of maximal length on every edge.  A
    # plateau of width 2u from t = 0.3 on the first edge sits whole in one
    # window only, and the rough part makes its neighbours differ.
    g = star_graph(5, length=2.7) if name == "star" else _long_grid3()
    rng = np.random.default_rng(8)
    first = g.edges[0].id

    def rough(eid, ts):
        return rng.uniform(-1.0, 1.0, ts.shape) + np.where((eid == first) & (ts >= 0.3) & (ts <= 2.3), 6.0, 0.0)

    V = Potential.from_callable(g, H, rough)
    out = uniform_l2_norm(g, V)
    for e in g.edges:
        ts, v2 = edge_grid(g, e.id, H), np.asarray(V.values[e.id]) ** 2
        w = min(2.0 * g.u, e.length)
        for t0 in np.linspace(0.0, e.length - w, 2001):
            assert out.M**2 >= _window_integral(ts, v2, t0, t0 + w) * (1.0 - 1e-12)
    seg = out.segment
    assert seg.length == pytest.approx(2.0 * g.u, rel=1e-12)
    v2 = np.asarray(V.values[seg.edge]) ** 2
    assert out.M**2 == pytest.approx(_window_integral(edge_grid(g, seg.edge, H), v2, seg.t0, seg.t1), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_mv_monotone_in_pointwise_domination(seed):
    g = interval_graph(2.0)
    rng = np.random.default_rng(seed)
    base = rng.uniform(-2, 2, 101)
    V1 = Potential(g, H, {"e": base})
    V2 = Potential(g, H, {"e": base * rng.uniform(1.0, 3.0)})
    assert uniform_l2_norm(g, V1).M <= uniform_l2_norm(g, V2).M + 1e-12


def test_potential_must_be_real_and_finite():
    g = interval_graph(1.0)
    with pytest.raises(ValueError):
        Potential(g, 0.1, {"e": np.full(11, np.inf)})
    with pytest.raises(ValueError):
        Potential(g, 0.1, {"e": np.full(11, 1.0 + 1j)})


# ---------------------------------------------------------------------------
# perturbed assembly
# ---------------------------------------------------------------------------


def test_zero_potential_identical_spectrum():
    g = interval_graph(math.pi)
    bc = uniform_bc(g, "dirichlet")
    fa = assemble(g, bc, H)
    es0 = eigensystem(fa, 5)
    es1 = eigensystem(assemble_perturbed(fa, Potential.constant(g, H, 0.0)), 5)
    assert np.allclose(es0.eigenvalues, es1.eigenvalues, atol=1e-13)


def test_constant_potential_exact_shift():
    g = star_graph(3)
    bc = uniform_bc(g, "kirchhoff")
    fa = assemble(g, bc, H)
    es0 = eigensystem(fa, 6)
    es1 = eigensystem(assemble_perturbed(fa, Potential.constant(g, H, 2.5)), 6)
    assert np.max(np.abs(es1.eigenvalues - (es0.eigenvalues + 2.5))) < 1e-8


def test_nonnegative_potential_raises_eigenvalues():
    g = interval_graph(math.pi)
    bc = uniform_bc(g, "dirichlet")
    fa = assemble(g, bc, H)
    V = Potential.from_callable(g, H, lambda eid, ts: 1.0 + np.sin(3 * ts) ** 2)
    es0 = eigensystem(fa, 5)
    es1 = eigensystem(assemble_perturbed(fa, V), 5)
    assert np.all(es1.eigenvalues >= es0.eigenvalues + 1.0 - 1e-9)


def test_mesh_mismatch_rejected():
    g = interval_graph(math.pi)
    fa = assemble(g, uniform_bc(g, "dirichlet"), H)
    with pytest.raises(ValueError):
        assemble_perturbed(fa, Potential.constant(g, 2 * H, 1.0))


def test_potential_on_another_graph_rejected():
    # the relative bound reads V against g's edges; a V on another graph with the same edge id would give
    # the M_V and W of that graph
    g = interval_graph(math.pi)
    V = Potential.constant(interval_graph(1.5), H, 1.0)
    with pytest.raises(ValueError, match="another graph"):
        check_relative_bound(g, uniform_bc(g, "dirichlet"), V, [0.5], 0.5)


# ---------------------------------------------------------------------------
# relative bound
# ---------------------------------------------------------------------------


def test_relative_bound_zero_potential():
    g = interval_graph(math.pi)
    [rb] = check_relative_bound(g, uniform_bc(g, "dirichlet"), Potential.constant(g, H, 0.0), [1.0], 0.5)
    assert rb.M == 0.0 and rb.C_a == 0.0
    assert rb.worst_margin >= -1e-12  # inequality degenerates to 0 <= 0


@pytest.mark.parametrize("frac", [0.25, 0.5, 1.0])
def test_relative_bound_unit_potential(frac):
    g = interval_graph(math.pi)
    bc = uniform_bc(g, "dirichlet")
    const = coercivity_constant(0.0, g.u)
    [rb] = check_relative_bound(g, bc, Potential.constant(g, H, 1.0), [frac * g.u], const.C)
    assert rb.worst_margin >= -1e-8
    assert rb.worst_window_margin >= -1e-8


def test_relative_bound_rough_potential():
    g = star_graph(3)
    bc = uniform_bc(g, "kirchhoff")
    rng = np.random.default_rng(11)
    V = Potential.from_callable(g, H, lambda eid, ts: rng.uniform(-4, 4, ts.shape))
    const = coercivity_constant(0.0, g.u)
    [rb] = check_relative_bound(g, bc, V, [g.u], const.C)
    assert rb.M <= 5.0
    assert rb.worst_margin >= -1e-8
    assert rb.worst_window_margin >= -1e-8


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.001, 1.0),
    st.lists(st.tuples(st.integers(2, 150), st.floats(1.0, 4.0)), min_size=1, max_size=8),
)
def test_window_margin_closed_form_bounds_the_p1_minimum(a, windows):
    # P1 functions lie in H^1, so a window's exact P1 margin 1 - max_i (K_w^-1)_ii is at
    # least the sharp H^1 margin 1 - coth(sqrt(8) l / a) / sqrt(2), and exceeds it by O((h/a)^2)
    for k, r in windows:
        w = r * a / (k - 1)
        d = a / (2.0 * w) + 4.0 * w / (3.0 * a)
        off = 2.0 * w / (3.0 * a) - a / (2.0 * w)
        K_w = np.diag(np.r_[d, np.full(k - 2, 2.0 * d), d]) + off * (np.eye(k, k=1) + np.eye(k, k=-1))
        p1 = 1.0 - float(np.max(np.diag(np.linalg.inv(K_w))))
        sharp = 1.0 - 1.0 / (math.sqrt(2.0) * math.tanh(math.sqrt(8.0) * r))
        assert sharp - 1e-14 <= p1 <= sharp + 0.3 * (w / a) ** 2, (k, r, a)


def test_relative_bound_ground_state_with_spike():
    g = interval_graph(math.pi)
    bc = uniform_bc(g, "dirichlet")
    fa = assemble(g, bc, H)
    V = Potential.from_callable(g, H, lambda eid, ts: np.where(np.abs(ts - 1.0) < 0.1, 20.0, 0.0))
    es = eigensystem(fa, 1)
    x = es.vectors[:, 0].astype(complex)
    const = coercivity_constant(0.0, g.u)
    M = uniform_l2_norm(g, V).M
    q = float(np.real(x.conj() @ (fa.stiffness - fa.boundary) @ x))
    mass = float(np.real(x.conj() @ fa.mass @ x))
    full = fa.constraint @ x
    vf_sq = 0.0
    from metricgraph.functions import edge_grid

    ts = edge_grid(g, "e", H)
    h = ts[1] - ts[0]
    w = np.full(ts.size, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    vf_sq = float(np.sum(w * np.asarray(V.values["e"]) ** 2 * np.abs(full) ** 2))
    a = g.u
    margin = M**2 * a * q + M**2 * (const.C + 4 / a) * mass - vf_sq
    assert margin > 0


@pytest.mark.parametrize("c", [0.5, -2.0, 7.0])
def test_constant_margin_is_the_closed_form(c):
    # V = c shifts H by the constant (C + 4/a - c^2 / M^2) / a, so the margin is M^2 a lambda_1(H) + C_a - c^2:
    # lambda_1 = 0 on a Kirchhoff star, 1 on the Dirichlet pi-interval
    for g, bc, lam_1 in (
        (star_graph(3), uniform_bc(star_graph(3), "kirchhoff"), 0.0),
        (interval_graph(math.pi), uniform_bc(interval_graph(math.pi), "dirichlet"), 1.0),
    ):
        C = coercivity_constant(0.0, g.u).C
        for rb in check_relative_bound(g, bc, Potential.constant(g, H, c), [g.u / 4, g.u / 2, g.u], C):
            want = rb.M**2 * rb.a * lam_1 + rb.C_a - c * c
            assert rb.worst_margin == pytest.approx(want, rel=1e-11, abs=1e-11 * rb.C_a), (rb, want)


def test_nodal_squares_bound_v_squared():
    # for nodal data W is the largest nodal V^2 on runs of whole cells about a run length long: it bounds
    # the piecewise-linear V's square everywhere (a rising V puts each run's maximum at its right end), which
    # makes the margin a lower bound of the one with V^2
    g = star_graph(3, length=1.3)
    for fn in (lambda eid, ts: np.random.default_rng(5).uniform(-4.0, 4.0, ts.shape), lambda eid, ts: 3.0 * ts):
        V = Potential.from_callable(g, H, fn)
        for e, run in zip(g.edges, (g.u / 4, g.u / 2, g.u)):
            s, w = V.squares(run)[e.id]
            ts = np.linspace(0.0, e.length, 20001)
            assert np.isin(s, V.nodes(e.id)).all() and s[0] == 0.0 and s[-1] == e.length
            assert np.min(np.diff(s)) >= run - V.mesh(e.id) and s.size - 1 == int(e.length / run)
            assert np.all(w[np.searchsorted(s, ts, side="right").clip(1, w.size) - 1] >= V.evaluate(e.id, ts) ** 2)


def _transfer_ground_state(pieces, lo, hi):
    """The lowest lambda with f(l) = 0 for -f'' + c f = lambda f, f(0) = 0, f'(0) = 1, through the (length, c)
    pieces by their transfer matrices: the first sign change of f(l) on a grid, then bisection."""

    def end_value(lam):
        y = np.array([0.0, 1.0])
        for length, c in pieces:
            mu = lam - c
            k = math.sqrt(abs(mu))
            if mu > 0:
                cs, sn = math.cos(k * length), math.sin(k * length)
                T = [[cs, sn / k], [-k * sn, cs]]
            elif mu < 0:
                cs, sn = math.cosh(k * length), math.sinh(k * length)
                T = [[cs, sn / k], [k * sn, cs]]
            else:
                T = [[1.0, length], [0.0, 1.0]]
            y = np.array(T) @ y
        return y[0]

    grid = np.linspace(lo, hi, 4001)
    vals = np.array([end_value(x) for x in grid])
    i = int(np.flatnonzero(np.sign(vals[1:]) != np.sign(vals[:-1]))[0])
    a, b = grid[i], grid[i + 1]
    for _ in range(200):
        m = 0.5 * (a + b)
        a, b = (m, b) if np.sign(end_value(m)) == np.sign(vals[i]) else (a, m)
    return 0.5 * (a + b)


@pytest.mark.parametrize("expr", ["well:e,0.4,1.9,3.0", "well:e,0.0,0.8,6.0", "well:e,1.2,2.5,1.5"])
def test_well_margin_matches_a_transfer_matrix_root(expr):
    # the margin of a well on a Dirichlet interval is M^2 a lambda_1 for three constant pieces: an
    # independent root of the transfer-matrix end value, with no secular system
    g = interval_graph(2.5)
    V = parse_potential_expr(expr, g, H)
    t0, t1, depth = (float(x) for x in expr.split(",")[1:])
    assert uniform_l2_norm(g, V).M == pytest.approx(depth * math.sqrt(min(t1 - t0, 2.0 * g.u)), rel=1e-14)
    C = coercivity_constant(0.0, g.u).C
    for rb in check_relative_bound(g, uniform_bc(g, "dirichlet"), V, [g.u / 4, g.u / 2, g.u], C):
        outside, inside = (C + 4.0 / rb.a) / rb.a, (C + 4.0 / rb.a - depth**2 / rb.M**2) / rb.a
        pieces = [(l, c) for l, c in ((t0, outside), (t1 - t0, inside), (2.5 - t1, outside)) if l > 0]
        lam_1 = _transfer_ground_state(pieces, min(outside, inside) - 1.0, outside + (math.pi / 2.5) ** 2 + 1.0)
        assert rb.worst_margin == pytest.approx(rb.M**2 * rb.a * lam_1, rel=1e-10), (rb, lam_1)


def test_relative_bound_invalid_a():
    g = interval_graph(math.pi)
    with pytest.raises(ValueError):
        check_relative_bound(g, uniform_bc(g, "dirichlet"), Potential.constant(g, H, 1.0), [2.0], 0.5)


# ---------------------------------------------------------------------------
# perturbed eigenpairs
# ---------------------------------------------------------------------------


def test_perturbed_report_reduces_to_unperturbed():
    g = interval_graph(math.pi)
    bc = uniform_bc(g, "dirichlet")
    fa = assemble(g, bc, H)
    V0 = Potential.constant(g, H, 0.0)
    es = eigensystem(assemble_perturbed(fa, V0), 3)
    rep = perturbed_eigen_report(g, bc, V0, es)
    # discrete eigenvectors carry O(h^2) weak residuals; V = 0 must give the
    # same numbers as running the unperturbed residual check directly
    from metricgraph.expansion import compile_battery

    assert rep.worst_vertex < 10 * H**2 * 30
    assert all(m.trace_defect < 1e-12 for m in rep.modes)
    battery = compile_battery(g, bc)
    bumps = [i for i, label in enumerate(battery.labels) if label.startswith("bump")]
    plain = battery.residual_matrix(es.grid_functions(), [float(lam) for lam in es.eigenvalues])[bumps]
    for k, m in enumerate(rep.modes):
        assert m.interior_residual == pytest.approx(np.max(plain[:, k]), abs=1e-12)


def test_deep_potential_keeps_lowest_modes():
    # V = -50 puts the ground state near -49, far below 1/2 - C - 1 = -1; the
    # solver's shift must follow min V or it returns the modes nearest -1
    g = interval_graph(math.pi)
    fa = assemble(g, uniform_bc(g, "dirichlet"), H)
    es0 = eigensystem(fa, 3)
    es1 = eigensystem(assemble_perturbed(fa, Potential.constant(g, H, -50.0)), 3)
    assert np.max(np.abs(es1.eigenvalues - (es0.eigenvalues - 50.0))) < 1e-8


def test_perturbed_constant_exact_relation():
    # V = c leaves the discrete eigenvectors untouched; residuals against H
    # match the unperturbed ones identically
    g = interval_graph(math.pi)
    bc = uniform_bc(g, "dirichlet")
    fa = assemble(g, bc, H)
    c = 1.0
    es0 = eigensystem(fa, 4)
    es1 = eigensystem(assemble_perturbed(fa, Potential.constant(g, H, c)), 4)
    assert np.max(np.abs(es1.eigenvalues - (es0.eigenvalues + c))) < 1e-8
    rep0 = perturbed_eigen_report(g, bc, Potential.constant(g, H, 0.0), es0)
    rep1 = perturbed_eigen_report(g, bc, Potential.constant(g, H, c), es1)
    for m0, m1 in zip(rep0.modes, rep1.modes):
        assert m1.interior_residual == pytest.approx(m0.interior_residual, abs=1e-9)
        assert m1.star_residual == pytest.approx(m0.star_residual, abs=1e-9)


def test_perturbed_rough_potential_residuals_shrink_with_mesh():
    g = interval_graph(math.pi)
    bc = uniform_bc(g, "dirichlet")
    rng = np.random.default_rng(21)
    noise = rng.uniform(-2, 2, 4096)

    def vfun(eid, ts):
        idx = np.minimum((ts / math.pi * 4096).astype(int), 4095)
        return noise[idx]

    resids = []
    for h in (0.05, 0.025):
        fa = assemble(g, bc, h)
        V = Potential.from_callable(g, h, vfun)
        es = eigensystem(assemble_perturbed(fa, V), 3)
        rep = perturbed_eigen_report(g, bc, V, es)
        resids.append(rep.worst_interior)
        assert all(m.trace_defect < 1e-10 for m in rep.modes)
    assert resids[1] < 0.5 * resids[0]  # second-order trend
    assert resids[1] < 1e-2


def test_perturbed_eigenfunctions_keep_vertex_conditions():
    g = star_graph(3)
    bc = uniform_bc(g, "kirchhoff")
    fa = assemble(g, bc, 0.01)
    rng = np.random.default_rng(2)
    V = Potential.from_callable(g, 0.01, lambda eid, ts: rng.uniform(-3, 3, ts.shape))
    es = eigensystem(assemble_perturbed(fa, V), 4)
    rep = perturbed_eigen_report(g, bc, V, es)
    # value part of the condition is enforced exactly by the dof map; the
    # derivative part is a natural condition with O(h^2)-ish recovery
    for m in rep.modes:
        assert m.trace_defect < 5e-2


# ---------------------------------------------------------------------------
# files and expressions
# ---------------------------------------------------------------------------


def test_potential_csv_roundtrip(tmp_path):
    g = star_graph(3)
    V = Potential.from_callable(g, 0.05, lambda eid, ts: np.cos(ts))
    path = tmp_path / "V.csv"
    save_potential_csv(V, path)
    V2 = load_potential_csv(path, g, 0.05)
    for e in g.edges:
        assert np.allclose(V.values[e.id], V2.values[e.id])


def test_potential_expressions():
    g = interval_graph(math.pi)
    Vc = parse_potential_expr("const:2.5", g, H)
    assert np.allclose(Vc.values["e"], 2.5)
    Vw = parse_potential_expr("well:e,1.0,2.0,3.0", g, H)
    ts = np.linspace(0, math.pi, 158)
    vals = Vw.evaluate("e", ts)
    assert vals.min() == pytest.approx(-3.0)
    assert np.allclose(vals[(ts < 0.9) | (ts > 2.1)], 0.0)
    with pytest.raises(ValueError):
        parse_potential_expr("well:e,1.0,9.0,3.0", g, H)
    with pytest.raises(ValueError):
        parse_potential_expr("plateau:1", g, H)
