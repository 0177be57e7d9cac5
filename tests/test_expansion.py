import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate

from metricgraph import (
    DiscreteSpectralRep,
    Edge,
    EdgePoint,
    GridFunction,
    MetricGraph,
    SecularSolution,
    VertexPoint,
    assemble,
    build_weight,
    eigensystem,
    eigenvalue_scan,
    fourier_coefficients,
    generalized_eigenfunction_residual,
    hs_norm_sq,
    parseval,
    reconstruct,
    standard_test_battery,
    uniform_bc,
)
from metricgraph.expansion import BumpTest, compile_battery, hs_kernel_cross_check, intertwining_gap
from metricgraph.secular import RankAnomaly

from conftest import interval_graph, loop_edge_graph, path_graph, spectral_fixture_list, star_graph


def interval_rep(length=math.pi, n_modes=12, h_max=math.pi / 300):
    g = interval_graph(length)
    bc = uniform_bc(g, "dirichlet")
    lam_max = ((n_modes + 0.7) * math.pi / length) ** 2
    hits = eigenvalue_scan(g, bc, 0.5, lam_max, num=60 * n_modes)
    return g, bc, DiscreteSpectralRep.from_secular(g, bc, hits[:n_modes], h_max)


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------


def test_weight_midpoint_value():
    g = interval_graph(2.0)
    wf = build_weight(g, EdgePoint("e", 1.0), 1.0)
    # ball of radius 1 around the midpoint covers the whole edge: m = 2
    assert wf.value(EdgePoint("e", 1.0)) == pytest.approx(4.0)
    assert wf.value(VertexPoint("v")) == pytest.approx(4.0)  # m(B_2) = 2 still


def test_weight_is_at_least_one_and_continuous():
    g = star_graph(3, length=1.0)
    wf = build_weight(g, VertexPoint("t1"), 0.5)
    for e in g.edges:
        ts = np.linspace(0.001, 0.999, 200)
        vals = wf.value_edge(e.id, ts)
        assert np.all(vals >= 1.0 - 1e-12)
        assert np.max(np.abs(np.diff(vals))) < 0.2  # no jumps on a fine grid


def test_weight_requires_connected_graph():
    from metricgraph import Edge, MetricGraph

    g = MetricGraph(
        ("v", "w", "p", "q"),
        (Edge("e1", 1.0, "v", "w"), Edge("e2", 1.0, "p", "q")),
        1.0,
    )
    with pytest.raises(ValueError):
        build_weight(g, VertexPoint("v"), 1.0)


def test_weight_inverse_square_integrable_and_exact():
    for n, eps, base in ((12, 0.5, 0), (7, 1.0, 3)):
        g = path_graph(n)
        wf = build_weight(g, VertexPoint(base), eps)
        exact = wf.integral_inverse_square()
        brute = sum(
            scipy.integrate.quad(
                lambda t, eid=e.id: float(wf.value_edge(eid, np.array([t]))[0]) ** -2,
                0.0,
                e.length,
                limit=200,
                epsabs=1e-13,
                epsrel=1e-13,
            )[0]
            for e in g.edges
        )
        assert exact == pytest.approx(brute, abs=1e-9)
        assert math.isfinite(exact)


def test_weight_dominates_distance_power():
    g = path_graph(15)
    wf = build_weight(g, VertexPoint(0), 0.5)
    for e in g.edges:
        ts = np.linspace(0.05, 0.95, 7)
        d = wf.distance_edge(e.id, ts)
        assert np.all(wf.value_edge(e.id, ts) >= d ** 1.5 - 1e-9)


def test_weight_on_edgepoint_base_with_loop():
    g = loop_edge_graph()
    wf = build_weight(g, EdgePoint("loop", 0.5), 1.0)
    exact = wf.integral_inverse_square()
    brute = sum(
        scipy.integrate.quad(
            lambda t, eid=e.id: float(wf.value_edge(eid, np.array([t]))[0]) ** -2,
            0.0,
            e.length,
            limit=300,
            epsabs=1e-13,
        )[0]
        for e in g.edges
    )
    assert exact == pytest.approx(brute, abs=1e-9)


def _grid_graph(n):
    """n x n lattice, edge lengths 1.0 to 1.4."""
    verts = tuple(f"{i},{j}" for i in range(n) for j in range(n))
    pairs = [((i, j), (i + di, j + dj)) for i in range(n) for j in range(n) for di, dj in ((1, 0), (0, 1))]
    pairs = [(a, b) for a, b in pairs if b[0] < n and b[1] < n]
    edges = tuple(
        Edge(k, 1.0 + 0.4 * ((3 * k) % 7) / 6, "%d,%d" % a, "%d,%d" % b) for k, (a, b) in enumerate(pairs)
    )
    return MetricGraph(verts, edges, 1.0)


@pytest.mark.parametrize(
    "g, base",
    [
        (
            MetricGraph(
                ("c", *(f"t{i}" for i in range(5))),
                tuple(Edge(f"e{i}", 1.0 + 0.2 * i, "c", f"t{i}") for i in range(5)),
                1.0,
            ),
            EdgePoint("e3", 0.35),
        ),
        (_grid_graph(4), EdgePoint(7, 0.6)),
        (MetricGraph(("v", "w"), (Edge("p", 1.0, "v", "w"), Edge("q", 1.7, "v", "w")), 1.0), EdgePoint("q", 0.5)),
    ],
    ids=["5-star", "grid4", "parallel"],
)
@pytest.mark.parametrize("eps", [0.5, 1.0])
def test_coarea_integral_matches_quadrature_at_edge_bases(g, base, eps):
    wf = build_weight(g, base, eps)
    brute = 0.0
    for e in g.edges:
        # break points for quad: the kinks of vol(d + 1), piecewise linear along the edge
        ts = np.linspace(0.0, e.length, 4001)
        kinks = ts[1:-1][np.abs(np.diff(wf.ball_volume(wf.distance_edge(e.id, ts) + 1.0), 2)) > 1e-9]
        brute += scipy.integrate.quad(
            lambda t, eid=e.id: float(wf.value_edge(eid, np.array([t]))[0]) ** -2,
            0.0,
            e.length,
            points=kinks,
            limit=500,
            epsabs=1e-13,
        )[0]
    assert wf.integral_inverse_square() == pytest.approx(brute, abs=1e-9)


# ---------------------------------------------------------------------------
# spectral representation
# ---------------------------------------------------------------------------


def test_level_sets_are_nested():
    g, bc, rep = star_rep()
    levels = rep.level_sets()
    for j in range(1, rep.n_layers):
        assert set(levels[j + 1]) <= set(levels[j])


def star_rep():
    g = star_graph(3)
    bc = uniform_bc(g, "kirchhoff")
    hits = eigenvalue_scan(g, bc, -0.5, 25.0, num=400)
    return g, bc, DiscreteSpectralRep.from_secular(g, bc, hits, 0.01)


@pytest.mark.parametrize("index,multiplicity", [(2, 2)])
def test_from_secular_rejects_a_wrong_multiplicity(index, multiplicity):
    # the star's third level is simple: a count of 2 there finds a null space
    # of dimension 1.  An under-count is not an error: the count sizes the
    # eigenspace, and D cannot tell it from a neighbouring root within
    # SINGULAR_RTOL
    g = star_graph(3)
    bc = uniform_bc(g, "kirchhoff")
    hits = eigenvalue_scan(g, bc, -0.5, 25.0, num=400)
    hits[index] = dataclasses.replace(hits[index], multiplicity=multiplicity)
    with pytest.raises(RankAnomaly, match=f"multiplicity {multiplicity}"):
        DiscreteSpectralRep.from_secular(g, bc, hits, 0.05)


def test_mode_orthonormality_across_layers():
    _, _, rep = star_rep()
    from metricgraph import inner

    n = len(rep.modes)
    gram = np.array([[inner(rep.modes[i].phi, rep.modes[j].phi) for j in range(n)] for i in range(n)])
    assert np.allclose(gram, np.eye(n), atol=1e-4)  # trapezoid-level accuracy


def test_fourier_of_eigenmode_is_delta():
    g, bc, rep = interval_rep(n_modes=8)
    coeffs = fourier_coefficients(rep, rep.modes[2].phi)
    expected = np.zeros(8)
    expected[2] = 1.0
    assert np.allclose(coeffs, expected, atol=1e-6)


def test_fourier_of_zero():
    g, bc, rep = interval_rep(n_modes=4)
    assert np.allclose(fourier_coefficients(rep, GridFunction.zeros(g, rep.h_max)), 0.0)


def test_fourier_sine_series_closed_form():
    g, bc, rep = interval_rep(n_modes=12, h_max=math.pi / 400)
    f = GridFunction.from_callable(g, rep.h_max, lambda eid, ts: (ts * (math.pi - ts)).astype(complex))
    coeffs = fourier_coefficients(rep, f)
    # hand-computed: int t (pi - t) sin(n t) dt = 2 (1 - (-1)^n) / n^3
    exact = np.array([math.sqrt(2 / math.pi) * 2 * (1 - (-1) ** n) / n**3 for n in range(1, 13)])
    assert np.allclose(coeffs.real, exact, atol=5e-7)
    assert np.allclose(coeffs.imag, 0.0, atol=1e-12)


def test_reconstruct_in_span():
    g, bc, rep = interval_rep(n_modes=6)
    rng = np.random.default_rng(7)
    c = (rng.standard_normal(6) + 1j * rng.standard_normal(6)).astype(complex)
    f = reconstruct(rep, c)
    back = fourier_coefficients(rep, f)
    assert np.allclose(back, c, atol=1e-6)
    from metricgraph import norms

    assert norms(reconstruct(rep, back - c)).l2 < 1e-6


def test_parseval_in_span_gap_vanishes():
    g, bc, rep = interval_rep(n_modes=5)
    f = rep.modes[0].phi + rep.modes[1].phi
    pr = parseval(rep, f)
    assert pr.norm_sq == pytest.approx(2.0, abs=1e-6)
    assert pr.gap < 1e-6


def test_parseval_polynomial_tail():
    g, bc, rep = interval_rep(n_modes=20, h_max=math.pi / 400)
    f = GridFunction.from_callable(g, rep.h_max, lambda eid, ts: (ts * (math.pi - ts)).astype(complex))
    pr = parseval(rep, f)
    assert pr.norm_sq == pytest.approx(math.pi**5 / 30, rel=1e-6)
    assert pr.relative_gap < 1e-4


def test_intertwining_on_span():
    g, bc, rep = interval_rep(n_modes=8)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(8).astype(complex)
    assert intertwining_gap(rep, c) < 1e-5


def test_from_fem_groups_multiplicities():
    g = star_graph(3)
    bc = uniform_bc(g, "kirchhoff")
    es = eigensystem(assemble(g, bc, 0.01), 6)
    rep = DiscreteSpectralRep.from_fem(es, mult_tol=1e-3)
    mults = [m for _, m in rep.eigenvalues]
    assert mults == [1, 2, 1, 2]


# ---------------------------------------------------------------------------
# Hilbert-Schmidt norm
# ---------------------------------------------------------------------------


def test_hs_interval_series():
    g, bc, rep = interval_rep(n_modes=20, h_max=math.pi / 400)
    w = GridFunction.ones(g, rep.h_max)
    hs = hs_norm_sq(rep, w, 1.0)
    target = (math.pi / math.tanh(math.pi) - 1.0) / 2.0
    assert target <= hs.total <= target + 1e-2  # the tail is a bound, not an estimate
    # partial sums alone match the truncated series tightly
    partial_exact = sum(1.0 / (1 + n * n) for n in range(1, 21))
    assert hs.partial == pytest.approx(partial_exact, abs=1e-6)


@pytest.mark.parametrize("n_modes", [1, 5, 20])
def test_hs_total_bounds_the_neumann_interval(n_modes):
    # sum_{n >= 0} 1/(1 + n^2) = (pi coth pi + 1)/2; the count exceeds L sqrt(lambda)/pi by one here
    g = interval_graph(math.pi)
    bc = uniform_bc(g, "neumann")
    hits = eigenvalue_scan(g, bc, -0.5, (n_modes - 0.5) ** 2, num=60 * n_modes)
    assert [h.multiplicity for h in hits] == [1] * n_modes
    rep = DiscreteSpectralRep.from_secular(g, bc, hits, 0.005)
    hs = hs_norm_sq(rep, GridFunction.ones(g, rep.h_max), 1.0)
    assert hs.total >= (math.pi / math.tanh(math.pi) + 1.0) / 2.0


@pytest.mark.parametrize("n_modes,total", [(1, 1.464), (20, 1.0780)])
def test_hs_tail_counts_the_free_vertex_values(n_modes, total):
    # sum_{n >= 1} 1/(1 + n^2) = (pi coth pi - 1)/2.  No vertex value is free on the Dirichlet interval, so
    # the count is at most L sqrt(lambda)/pi, and the tail is far smaller than with d = 2|E| (2.285 and
    # 1.0829); on the Neumann interval d = 2 = 2|E|
    g = interval_graph(math.pi)
    hits = eigenvalue_scan(g, uniform_bc(g, "dirichlet"), 0.5, n_modes**2 + 0.5, num=60 * n_modes)
    assert [h.multiplicity for h in hits] == [1] * n_modes
    rep = DiscreteSpectralRep.from_secular(g, uniform_bc(g, "dirichlet"), hits, 0.005)
    hs = hs_norm_sq(rep, GridFunction.ones(g, rep.h_max), 1.0)
    assert rep.codim == 0
    assert hs.total >= (math.pi / math.tanh(math.pi) - 1.0) / 2.0
    assert hs.total == pytest.approx(total, abs=5e-4)
    neumann = uniform_bc(g, "neumann")
    assert DiscreteSpectralRep.from_secular(g, neumann, eigenvalue_scan(g, neumann, -0.5, 0.5), 0.005).codim == 2


def test_hs_scaling_in_weight():
    g, bc, rep = interval_rep(n_modes=6)
    w = GridFunction.ones(g, rep.h_max)
    w2 = 2.0 * w
    a = hs_norm_sq(rep, w, 1.0, inverse_sup=1.0)
    b = hs_norm_sq(rep, w2, 1.0, inverse_sup=0.5)
    assert b.partial == pytest.approx(a.partial / 4.0, rel=1e-12)
    assert b.tail == pytest.approx(a.tail / 4.0, rel=1e-12)


def test_hs_monotone_in_shift():
    g, bc, rep = interval_rep(n_modes=6)
    w = GridFunction.ones(g, rep.h_max)
    totals = [hs_norm_sq(rep, w, C).total for C in (0.5, 1.0, 2.0, 5.0)]
    assert all(b < a for a, b in zip(totals, totals[1:]))


def test_hs_kernel_quadrature_cross_check():
    g, bc, rep = interval_rep(n_modes=6, h_max=math.pi / 150)
    w = GridFunction.ones(g, rep.h_max)
    hs = hs_norm_sq(rep, w, 1.0)
    assert hs_kernel_cross_check(rep, w, 1.0) == pytest.approx(hs.partial, abs=1e-6)


def test_hs_rejects_bad_shift():
    g, bc, rep = interval_rep(n_modes=3)
    w = GridFunction.ones(g, rep.h_max)
    with pytest.raises(ValueError):
        hs_norm_sq(rep, w, -2.0)


# ---------------------------------------------------------------------------
# generalized eigenfunction residuals
# ---------------------------------------------------------------------------


def test_residual_small_for_exact_eigenfunctions():
    g, bc, rep = interval_rep(n_modes=4)
    for m in rep.modes:
        rr = generalized_eigenfunction_residual(g, bc, m.exact, m.lam)
        assert rr.max_residual < 1e-10


def test_residual_detects_wrong_lambda():
    g, bc, rep = interval_rep(n_modes=2)
    m = rep.modes[0]
    rr = generalized_eigenfunction_residual(g, bc, m.phi, m.lam + 1.0)
    assert rr.max_residual > 1e-2
    with pytest.raises(ValueError, match="at their own energies"):
        generalized_eigenfunction_residual(g, bc, m.exact, m.lam + 1.0)


def test_residual_flags_kinked_function():
    g, bc, rep = star_rep()
    lam = rep.eigenvalues[2][0]  # the simple level at pi^2
    base = [m.exact for m in rep.modes if m.lam == lam][0]
    broken = base.x.copy()
    broken[g.slot_ends[0][g.edge_index["e1"]]] += 0.5  # e1's value jumps at the center vertex
    kinked = SecularSolution(g, lam, broken)
    rr = generalized_eigenfunction_residual(g, bc, kinked, lam)
    per = dict(rr.per_test)
    interior = max(v for k, v in per.items() if k.startswith("bump"))
    star = max(v for k, v in per.items() if k.startswith("star"))
    assert interior < 1e-10  # still solves the equation inside edges
    assert star > 1e-2  # the vertex battery sees the broken condition


def test_residual_works_on_grid_functions():
    g, bc, rep = interval_rep(n_modes=3, h_max=math.pi / 800)
    m = rep.modes[0]
    rr = generalized_eigenfunction_residual(g, bc, m.phi, m.lam)
    assert rr.max_residual < 5e-5  # linear interpolation noise only


def test_battery_rejects_condition_violations():
    g = interval_graph(math.pi)
    bc_d = uniform_bc(g, "dirichlet")
    bc_n = uniform_bc(g, "neumann")
    tests_n = standard_test_battery(g, bc_n)
    phi = GridFunction.ones(g, 0.05)
    with pytest.raises(ValueError):
        generalized_eigenfunction_residual(g, bc_d, phi, 1.0, tests=tests_n)


def test_battery_rejects_tests_that_leave_their_edges():
    g = interval_graph(math.pi)
    bc = uniform_bc(g, "dirichlet")
    phi = GridFunction.ones(g, 0.05)
    outside = [
        BumpTest("past-the-start", "e", 0.2, 0.5),
        BumpTest("centred-off-the-edge", "e", -1.0, 0.5),
        BumpTest("no-radius", "e", 1.0, 0.0),
    ]
    for test in outside:
        with pytest.raises(ValueError, match="leaves its edges"):
            compile_battery(g, bc, tests=[test])
        with pytest.raises(ValueError, match="leaves its edges"):
            generalized_eigenfunction_residual(g, bc, phi, 1.0, tests=[test])
    # rho = 0.45 u <= 0.45 l_e: the standard battery stays on every fixture
    for _, g, bc in spectral_fixture_list():
        assert compile_battery(g, bc).tests


def test_battery_spans_trace_space():
    g = star_graph(3)
    bc = uniform_bc(g, "kirchhoff")
    battery = standard_test_battery(g, bc)
    star_tests = [t for t in battery if t.label.startswith("star:c")]
    assert len(star_tests) == 3  # one continuity datum + two flux-free data
    for t in star_tests:
        assert t.condition_residual(g, bc) < 1e-12


# ---------------------------------------------------------------------------
# the matrix-product forms against per-mode reference loops
# ---------------------------------------------------------------------------


def _edge_trapz(f_vals, g_vals, rep):
    """<f, g> edge by edge with the trapezoid rule: the per-mode reference."""
    return sum(
        np.trapezoid(np.asarray(f_vals[e.id]) * np.conj(g_vals[e.id]), dx=rep.modes[0].phi.mesh(e.id))
        for e in rep.graph.edges
    )


def _oracle_lp_star():
    """5-ray star: complex rank-2 P and L on ker P at the centre; mixed tips."""
    from metricgraph import BoundaryCondition, Edge, MetricGraph, preset

    rng = np.random.default_rng(7)
    edges = tuple(Edge(f"e{i}", float(rng.uniform(1.0, 2.0)), "c", f"t{i}") for i in range(1, 6))
    g = MetricGraph(("c",) + tuple(f"t{i}" for i in range(1, 6)), edges, 1.0)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    P = Q[:, :2] @ Q[:, :2].conj().T
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    L = Q[:, 2:] @ (0.25 * (G + G.conj().T)) @ Q[:, 2:].conj().T
    conds = {"c": (L, P)}
    for i, kind in enumerate(("dirichlet", "neumann", "delta", "dirichlet", "delta"), start=1):
        conds[f"t{i}"] = preset(kind, g.star(f"t{i}"), -0.6 if kind == "delta" else None)
    return g, BoundaryCondition(conds)


def _oracle_grid4():
    """4x4 Kirchhoff lattice, lengths in [1, 1.4]."""
    from metricgraph import Edge, MetricGraph

    rng = np.random.default_rng(11)
    vid = [[f"v{r}{c}" for c in range(4)] for r in range(4)]
    pairs = [(vid[r][c], vid[r][c + 1]) for r in range(4) for c in range(3)]
    pairs += [(vid[r][c], vid[r + 1][c]) for r in range(3) for c in range(4)]
    lengths = rng.uniform(1.0, 1.4, len(pairs))
    edges = tuple(Edge(f"e{k:02d}", float(lengths[k]), a, b) for k, (a, b) in enumerate(pairs))
    g = MetricGraph(tuple(v for row in vid for v in row), edges, 1.0)
    return g, uniform_bc(g, "kirchhoff")


def _oracle_reps():
    out = []
    # the last entry is sum_v dim ker P_v, by hand: no vertex value is free on the Dirichlet interval; the
    # star's centre keeps 5 - 2 of its values and its Neumann and delta tips one each; a Kirchhoff vertex one
    g, bc, rep = interval_rep(n_modes=8, h_max=math.pi / 200)
    out.append(("dirichlet-interval", rep, 1.0, 0))
    g, bc = _oracle_lp_star()
    hits = eigenvalue_scan(g, bc, -3.0, 30.0, num=600)
    out.append(("general-lp-star", DiscreteSpectralRep.from_secular(g, bc, hits, 0.01), 3.5, 6))
    g, bc = _oracle_grid4()
    out.append(("grid4-kirchhoff", DiscreteSpectralRep.from_fem(eigensystem(assemble(g, bc, 0.05), 8)), 1.0, 16))
    return out


ORACLE_REPS = _oracle_reps()


@pytest.mark.parametrize("name,rep,C,d", ORACLE_REPS, ids=[c[0] for c in ORACLE_REPS])
def test_matrix_products_match_per_mode_loops(name, rep, C, d):
    g = rep.graph
    weight = build_weight(g, VertexPoint(g.vertices[0]), 1.0).sample(rep.h_max)
    f = GridFunction.from_callable(
        g, rep.h_max, lambda eid, ts: ts * (g.edge(eid).length - ts) + 0.3j * np.cos(2.0 * ts)
    )
    n = len(rep.modes)
    assert n >= 6

    coeffs = fourier_coefficients(rep, f)
    ref = np.array([_edge_trapz(f.values, m.phi.values, rep) for m in rep.modes])
    assert np.linalg.norm(coeffs - ref) <= 1e-12 * np.linalg.norm(ref)

    c = np.random.default_rng(2).standard_normal(n) + 1j * np.random.default_rng(3).standard_normal(n)
    got = reconstruct(rep, c)
    for e in g.edges:
        want = sum(ck * np.asarray(m.phi.values[e.id]) for ck, m in zip(c, rep.modes))
        assert np.max(np.abs(got.values[e.id] - want)) <= 1e-12 * np.max(np.abs(want))

    pr = parseval(rep, f)
    norm_sq = float(np.real(_edge_trapz(f.values, f.values, rep)))
    coeff_sq = float(np.sum(np.abs(ref) ** 2))
    assert pr.norm_sq == pytest.approx(norm_sq, rel=1e-12)
    assert pr.coeff_sq == pytest.approx(coeff_sq, rel=1e-12)
    assert abs(pr.gap - abs(norm_sq - coeff_sq)) <= 1e-12 * norm_sq

    hs = hs_norm_sq(rep, weight, C)
    terms = []
    for m in rep.modes:
        ratio = {e.id: np.asarray(m.phi.values[e.id]) / np.asarray(weight.values[e.id]).real for e in g.edges}
        terms.append(float(np.real(_edge_trapz(ratio, ratio, rep))) / (C + m.lam))
    assert np.allclose(hs.per_mode, terms, rtol=1e-12, atol=0.0)
    assert hs.partial == pytest.approx(sum(terms), rel=1e-12)
    inv_sup = max(float(np.max(1.0 / np.abs(np.asarray(weight.values[e.id])))) for e in g.edges)
    assert rep.codim == d
    L, lam_n = g.total_length, max(m.lam for m in rep.modes)
    x0 = max(d + L * math.sqrt(max(lam_n, 0.0)) / math.pi, n + 1)
    beyond = L / (math.pi * math.sqrt(C)) * (math.pi / 2.0 - math.atan((x0 - d) * math.pi / (L * math.sqrt(C))))
    tail = inv_sup**2 * ((x0 - n) / (C + lam_n) + beyond)
    assert hs.tail == pytest.approx(tail, rel=1e-12)

    kernel = 0.0
    gammas = np.array([1.0 / math.sqrt(C + m.lam) for m in rep.modes])
    for ex in g.edges:
        wx = np.full(rep.modes[0].phi.nodes(ex.id).size, rep.modes[0].phi.mesh(ex.id))
        wx[[0, -1]] *= 0.5
        phi_x = np.array([m.phi.values[ex.id] for m in rep.modes]) / np.asarray(weight.values[ex.id]).real
        for ey in g.edges:
            wy = np.full(rep.modes[0].phi.nodes(ey.id).size, rep.modes[0].phi.mesh(ey.id))
            wy[[0, -1]] *= 0.5
            K = (gammas[:, None] * phi_x).T @ np.conj(np.array([m.phi.values[ey.id] for m in rep.modes]))
            kernel += float(np.real(np.einsum("i,ij,j->", wx, np.abs(K) ** 2, wy)))
    assert hs_kernel_cross_check(rep, weight, C) == pytest.approx(kernel, rel=1e-12)
