import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from metricgraph import (
    BoundaryCondition,
    DiscreteSpectralRep,
    Edge,
    MetricGraph,
    SecularSolution,
    assemble,
    basis_gram,
    basis_values,
    eigenfunction,
    eigensystem,
    eigenvalue_scan,
    preset,
    secular_matrix,
    smallest_singular_value,
    uniform_bc,
    weyl_count_estimate,
)
from metricgraph import boundary, secular
from metricgraph.secular import SecularSystem

from conftest import interval_graph, loop_edge_graph, lp_mixing_star, spectral_fixture_list, star_graph


# ---------------------------------------------------------------------------
# fundamental basis
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam", [-10.0, -1.0, -1e-5, -1e-8, 0.0, 1e-8, 1e-5, 1.0, 42.0, 100.0])
@pytest.mark.parametrize("t", [0.0, 0.3, 1.7, 3.1])
def test_wronskian_identity(lam, t):
    c, s = (float(a[0]) for a in basis_values(lam, np.array([t])))
    dc, ds = -lam * s, c
    scale = max(1.0, abs(c * ds), abs(dc * s))
    assert abs(c * ds - dc * s - 1.0) <= 1e-12 * scale


def test_basis_continuity_through_zero():
    # the series branch must join the trig/hyperbolic branches seamlessly
    ts = np.linspace(0.0, 3.0, 7)
    for lam in np.concatenate([np.linspace(-2e-6, 2e-6, 41), [1e-6 - 1e-12, -1e-6 + 1e-12]]):
        c, s = basis_values(float(lam), ts)
        c_ref = np.cosh(np.sqrt(-lam) * ts) if lam < 0 else np.cos(np.sqrt(lam) * ts)
        assert np.allclose(c, c_ref, rtol=1e-10, atol=1e-13)


def test_basis_solves_the_ode():
    # second difference of c, s reproduces -lam * value
    for lam in (-4.0, 0.5, 9.0):
        h = 1e-4
        t = np.array([1.0 - h, 1.0, 1.0 + h])
        for idx in (0, 1):
            y = basis_values(lam, t)[idx]
            second = (y[0] - 2 * y[1] + y[2]) / h**2
            assert second == pytest.approx(-lam * y[1], rel=1e-5, abs=1e-7)


def test_gram_matches_quadrature():
    for lam in (-3.0, -1e-7, 0.0, 1e-7, 2.0, 50.0):
        G = basis_gram(lam, 1.7)
        ts = np.linspace(0, 1.7, 20001)
        c, s = basis_values(lam, ts)
        ref = np.array(
            [
                [np.trapezoid(c * c, ts), np.trapezoid(c * s, ts)],
                [np.trapezoid(c * s, ts), np.trapezoid(s * s, ts)],
            ]
        )
        assert np.allclose(G, ref, rtol=1e-6, atol=1e-9)


# ---------------------------------------------------------------------------
# condition matrix structure
# ---------------------------------------------------------------------------


def test_secular_matrix_interval_dirichlet_closed_form():
    g = interval_graph(math.pi)
    bc = uniform_bc(g, "dirichlet")
    for lam in (0.7, 2.0, 9.0):
        sm = secular_matrix(g, bc, lam)
        assert sm.shape == (2, 2)
        # rows: f(0) = alpha, f(pi) = alpha c + beta s; singular iff s(pi) = 0
        s = float(basis_values(lam, math.pi)[1])
        det = np.linalg.det(sm)
        assert abs(det) == pytest.approx(abs(s), rel=1e-10, abs=1e-12)


def test_secular_matrix_neumann_singular_at_zero():
    g = interval_graph(1.0)
    bc = uniform_bc(g, "neumann")
    assert smallest_singular_value(g, bc, 0.0) < 1e-14
    sols = eigenfunction(g, bc, 0.0)
    assert len(sols) == 1
    vals = sols[0].evaluate("e", np.linspace(0, 1, 5))
    assert np.allclose(vals, vals[0])  # constant
    assert sols[0].l2_norm_sq() == pytest.approx(1.0)


def test_secular_matrix_robin_row():
    g = interval_graph(1.0)
    bc = BoundaryCondition(
        {"v": preset("delta", g.star("v"), 2.5), "w": preset("dirichlet", g.star("w"))}
    )
    sm = secular_matrix(g, bc, 3.0)
    # the Robin row reads [-alpha, 1] in the (alpha_e, beta_e) coordinates
    robin_rows = [r for r in sm if abs(r[1]) > 0.5]
    assert any(np.allclose(r, [-2.5, 1.0]) for r in robin_rows)


def test_secular_matrix_square_order():
    g = loop_edge_graph()
    bc = uniform_bc(g, "kirchhoff")
    sm = secular_matrix(g, bc, 1.0)
    assert sm.shape == (4, 4)  # sum of degrees = 2 |E|


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def test_scan_interval_dirichlet():
    g = interval_graph(math.pi)
    hits = eigenvalue_scan(g, uniform_bc(g, "dirichlet"), 0.5, 20.0, num=200)
    assert [h.multiplicity for h in hits] == [1, 1, 1, 1]
    assert np.allclose([h.lam for h in hits], [1.0, 4.0, 9.0, 16.0], atol=1e-9)


def test_scan_interval_neumann_includes_zero():
    g = interval_graph(1.0)
    hits = eigenvalue_scan(g, uniform_bc(g, "neumann"), -0.5, 50.0, num=400)
    assert np.allclose(
        [h.lam for h in hits], [0.0, math.pi**2, 4 * math.pi**2], atol=1e-8
    )


def test_scan_star_multiplicities():
    g = star_graph(3)
    hits = eigenvalue_scan(g, uniform_bc(g, "kirchhoff"), -0.5, 25.0, num=400)
    expected = [
        (0.0, 1),
        ((math.pi / 2) ** 2, 2),
        (math.pi**2, 1),
        ((3 * math.pi / 2) ** 2, 2),
    ]
    assert len(hits) == len(expected)
    for hit, (lam, mult) in zip(hits, expected):
        assert hit.lam == pytest.approx(lam, abs=1e-8)
        assert hit.multiplicity == mult


def test_scan_robin_against_transcendental_roots():
    # independent oracle: Robin condition f'(0) = 2 f(0), Dirichlet at pi
    # forces tan(omega pi) = -omega / 2; roots found by bracketed bisection
    g = interval_graph(math.pi)
    bc = BoundaryCondition(
        {"v": preset("delta", g.star("v"), 2.0), "w": preset("dirichlet", g.star("w"))}
    )

    def eq(w):
        return math.tan(w * math.pi) + w / 2.0

    roots = []
    for n in range(1, 5):
        lo, hi = n - 0.5 + 1e-9, n - 1e-9
        roots.append(brentq(eq, lo, hi, xtol=1e-13))
    expected = [w * w for w in roots]
    hits = eigenvalue_scan(g, bc, 0.1, expected[-1] + 1.0, num=400)
    assert np.allclose([h.lam for h in hits], expected, atol=1e-8)


def test_scan_finds_negative_eigenvalue():
    # attractive Robin end: f'(0) = -3 f(0) with a Dirichlet far end has a
    # bound state below zero; oracle from the hyperbolic secular equation
    # tanh(k) = k / 3 for f = sinh(k (1 - t)) on the unit interval
    g = interval_graph(1.0)
    bc = BoundaryCondition(
        {"v": preset("delta", g.star("v"), -3.0), "w": preset("dirichlet", g.star("w"))}
    )

    def eq(k):
        return math.tanh(k) - k / 3.0

    k0 = brentq(eq, 1.0, 2.9999, xtol=1e-13)
    expected = -k0 * k0
    hits = eigenvalue_scan(g, bc, -12.0, 0.5, num=300)
    negative = [h for h in hits if h.lam < -1e-6]
    assert len(negative) == 1
    assert negative[0].lam == pytest.approx(expected, abs=1e-8)


def test_scan_rejects_bad_range():
    g = interval_graph(1.0)
    with pytest.raises(ValueError):
        eigenvalue_scan(g, uniform_bc(g, "neumann"), 2.0, 1.0)


@pytest.mark.parametrize("num", [0, 1])
def test_scan_needs_two_points(num):
    g = interval_graph(1.0)
    with pytest.raises(ValueError, match="at least 2 points"):
        eigenvalue_scan(g, uniform_bc(g, "neumann"), 0.5, 10.0, num=num)


def test_count_matches_closed_form_spectra():
    # unit 3-star, Kirchhoff: 0, (pi/2)^2 twice, pi^2, (3 pi/2)^2 twice;
    # Dirichlet interval of length pi: n^2 (D(lambda) has order 0)
    g = star_graph(3)
    star = SecularSystem(g, uniform_bc(g, "kirchhoff"))
    levels = [0.0] + [(math.pi / 2) ** 2] * 2 + [math.pi**2] + [(3 * math.pi / 2) ** 2] * 2
    for lam in (-1.0, 0.5, 3.0, 9.0, 10.0, 21.0, 23.0):
        D = star.vertex_matrix(lam)
        assert np.allclose(D, D.conj().T, atol=1e-12)
        assert star.count(lam) == sum(1 for x in levels if x < lam), lam
    g = interval_graph(math.pi)
    interval = SecularSystem(g, uniform_bc(g, "dirichlet"))
    assert [interval.count(lam) for lam in (0.5, 1.5, 8.9, 9.1)] == [0, 1, 2, 3]


def test_count_raises_where_the_basis_would_overflow():
    # cosh(sqrt(-lambda) l) overflows on a Neumann interval of length 800 at
    # lambda = -1, which leaves D(lambda) all NaN: no count may come from it
    g = interval_graph(800.0)
    system = SecularSystem(g, uniform_bc(g, "neumann"))
    with pytest.raises(secular.RankAnomaly, match=r"lambda=-1.0: sqrt\(-lambda\)\*l = 800 on edge 'e'"):
        system.count(-1.0)
    assert system.count(-0.01) == 0


def test_rank_drop_disagreeing_with_the_count_is_an_anomaly(monkeypatch):
    g = interval_graph(math.pi)
    monkeypatch.setattr(secular, "_null_space", lambda M: np.zeros((M.shape[1], 0)))
    with pytest.raises(secular.RankAnomaly, match="count rises by 1"):
        eigenvalue_scan(g, uniform_bc(g, "dirichlet"), 0.5, 2.0, num=10)


def dirichlet_tip_star(*rays):
    """Star with a Kirchhoff centre and Dirichlet tips, one ray per length."""
    tips = tuple(f"t{i}" for i in range(1, len(rays) + 1))
    g = MetricGraph(("c",) + tips, tuple(Edge(f"e{t[1:]}", l, "c", t) for t, l in zip(tips, rays)), 1.0)
    conds = {"c": preset("kirchhoff", g.star("c"))}
    conds.update({t: preset("dirichlet", g.star(t)) for t in tips})
    return g, BoundaryCondition(conds)


def close_pair_star():
    """Rays 1.0, 1.0005 and 1.001; Kirchhoff centre, Dirichlet tips: two close pairs below 50."""
    return dirichlet_tip_star(1.0, 1.0005, 1.001)


@pytest.mark.parametrize("num", [600, 2])
def test_scan_separates_close_pairs_at_any_grid(num):
    # FEM at h = 0.005 has these 6 eigenvalues below 50; the pairs are 0.011
    # and 0.046 apart, closer than the 0.085 step of a 600-point grid
    g, bc = close_pair_star()
    hits = eigenvalue_scan(g, bc, -1.0, 50.0, num=num)
    assert sum(h.multiplicity for h in hits) == 6
    lams = [h.lam for h in hits]
    assert lams == pytest.approx([2.4649, 9.8541, 9.8654, 22.1844, 39.4162, 39.4617], abs=1e-4)
    for h in hits:
        assert h.sigma_min < 1e-10 and len(eigenfunction(g, bc, h.lam)) == h.multiplicity


def test_scan_keeps_neumann_zero_on_a_coarse_grid():
    # step 9.6: sigma_min is already small at the first grid point, so the
    # zero mode is no local minimum of the grid
    g = interval_graph(1.0)
    hits = eigenvalue_scan(g, uniform_bc(g, "neumann"), -0.5, (39.5 * math.pi) ** 2, num=1600)
    assert [h.multiplicity for h in hits] == [1] * 40
    assert np.allclose([h.lam for h in hits], [(n * math.pi) ** 2 for n in range(40)], rtol=1e-12, atol=1e-10)


def test_scan_grid_on_decoupled_energies():
    # grid points land exactly on the poles 1, 4 and 9 of D(lambda)
    g = interval_graph(math.pi)
    hits = eigenvalue_scan(g, uniform_bc(g, "dirichlet"), 0.5, 10.0, num=20)
    assert [h.multiplicity for h in hits] == [1, 1, 1]
    assert [h.lam for h in hits] == pytest.approx([1.0, 4.0, 9.0], rel=1e-14)


def test_pole_band_merges_energies_that_differ_by_rounding():
    # (pi/1.1)^2 and (3 pi/3.3)^2 are one energy, computed as two floats
    g, bc = dirichlet_tip_star(1.1, 3.3, 1.7)
    p = SecularSystem(g, bc).decoupled_energies(8.0, 8.3)
    assert p.size == 2 and p[1] - p[0] <= 1e-12 * p[0]
    hits = eigenvalue_scan(g, bc, -1.0, 20.0)
    [root] = [h for h in hits if abs(h.lam - (math.pi / 1.1) ** 2) <= 1e-9]
    assert root.multiplicity == 1


def _random_graph(rng, family):
    """A 3-6-ray star or an n x n lattice, lengths U[1, 1.4], Kirchhoff or delta vertices."""
    if family == "star":
        n = int(rng.integers(3, 7))
        pairs = [("c", f"t{i}") for i in range(n)]
    else:
        n = int(family[-1])
        vid = [[f"v{r}{c}" for c in range(n)] for r in range(n)]
        pairs = [(vid[r][c], vid[r][c + 1]) for r in range(n) for c in range(n - 1)]
        pairs += [(vid[r][c], vid[r + 1][c]) for r in range(n - 1) for c in range(n)]
    lengths = rng.uniform(1.0, 1.4, len(pairs))
    g = MetricGraph(
        tuple(dict.fromkeys(v for pair in pairs for v in pair)),
        tuple(Edge(f"e{k}", float(l), a, b) for k, ((a, b), l) in enumerate(zip(pairs, lengths))),
        1.0,
    )
    conds = {}
    for v in g.vertices:
        if rng.random() < 0.5:
            conds[v] = preset("kirchhoff", g.star(v))
        else:
            conds[v] = preset("delta", g.star(v), float(rng.uniform(-1.0, 1.0)))
    return g, BoundaryCondition(conds)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["star", "grid2", "grid3"]))
def test_scan_count_matches_dense_p1(seed, family):
    # P1 eigenvalues lie within 10 h^2 max(1, lambda) above the exact ones,
    # so in a P1 gap wider than 4 budgets both counts below its midpoint agree
    g, bc = _random_graph(np.random.default_rng(seed), family)
    lam_max, h = 30.0, 0.01
    C = boundary.coercivity_constant(boundary.require_valid_bc(g, bc), g.u).C
    hits = eigenvalue_scan(g, bc, 0.5 - C - 1.0, lam_max, num=100)
    fa = assemble(g, bc, h)
    p1 = scipy.linalg.eigh(fa.operator_matrix.toarray().real, fa.mass.toarray().real, eigvals_only=True)
    p1 = p1[p1 < lam_max + 1.0]
    checked = 0
    for lo, hi in zip(p1, p1[1:]):
        mid = 0.5 * (lo + hi)
        if hi - lo > 4 * 10 * h**2 * max(1.0, abs(mid)) and mid < lam_max:
            n_exact = sum(hit.multiplicity for hit in hits if hit.lam < mid)
            assert n_exact == int(np.sum(p1 < mid)), (mid, [hit.lam for hit in hits])
            checked += 1
    assert checked >= 3


def _long_ray_star(rng, n_rays, centre):
    """A star with rays U[1, 3] and one ray U[50, 800]; a random delta or (L, P) at the centre.

    Every positive part of L is at most 0.1, so even the long ray keeps the
    bound states above the start of the basis overflow, (MAX_KL / 800)^2 / 4.
    """
    lengths = rng.uniform(1.0, 3.0, n_rays)
    lengths[0] = rng.uniform(50.0, 800.0)
    g = MetricGraph(
        ("c",) + tuple(f"t{i}" for i in range(n_rays)),
        tuple(Edge(f"e{i}", float(l), "c", f"t{i}") for i, l in enumerate(lengths)),
        1.0,
    )
    if centre == "delta":
        conds = {"c": preset("delta", g.star("c"), float(rng.uniform(-0.1, 10.0)))}
    else:
        _, P = _random_lp(rng, n_rays, int(rng.integers(0, n_rays)), False)
        U, _ = np.linalg.qr(rng.standard_normal((n_rays, n_rays)))
        K = np.eye(n_rays) - P
        conds = {"c": (K @ U @ np.diag(rng.uniform(-10.0, 0.1, n_rays)) @ U.T @ K, P)}
    for i in range(n_rays):
        kind = ["dirichlet", "neumann", "delta"][int(rng.integers(0, 3))]
        alpha = float(rng.uniform(-0.1, 5.0)) if kind == "delta" else None
        conds[f"t{i}"] = preset(kind, g.star(f"t{i}"), alpha)
    return g, BoundaryCondition(conds)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6), st.sampled_from(["delta", "lp"]), st.integers(1, 12))
def test_scan_window_is_certified(seed, n_rays, centre, modes):
    # N(lo) = 0 and N(hi) >= N_D(hi) >= modes: a window twice as wide holds
    # the same lowest modes
    g, bc = _long_ray_star(np.random.default_rng(seed), n_rays, centre)
    lo, hi = secular.scan_window(g, bc, modes)
    system = SecularSystem(g, bc)
    assert system.count(lo) == 0 and system.count(hi) >= modes

    def lowest(a, b):
        return [h.lam for h in eigenvalue_scan(g, bc, a, b) for _ in range(h.multiplicity)][:modes]

    got, wide = lowest(lo, hi), lowest(2.0 * lo, 2.0 * hi)
    assert len(got) == modes
    assert np.allclose(got, wide, rtol=secular.CLUSTER_RTOL, atol=secular.CLUSTER_RTOL), (got, wide)


# ---------------------------------------------------------------------------
# eigenfunctions
# ---------------------------------------------------------------------------


def test_interval_ground_state_is_normalized_sine():
    g = interval_graph(math.pi)
    bc = uniform_bc(g, "dirichlet")
    sols = eigenfunction(g, bc, 1.0)
    assert len(sols) == 1
    ts = np.linspace(0, math.pi, 9)
    assert np.allclose(
        np.abs(sols[0].evaluate("e", ts)), math.sqrt(2 / math.pi) * np.abs(np.sin(ts)), atol=1e-10
    )


def test_star_degenerate_level_orthonormal_basis():
    g = star_graph(3)
    bc = uniform_bc(g, "kirchhoff")
    lam = (math.pi / 2) ** 2
    sols = eigenfunction(g, bc, lam)
    assert len(sols) == 2
    for s in sols:
        assert s.l2_norm_sq() == pytest.approx(1.0, abs=1e-10)
        assert s.vertex_residual(bc) < 1e-10
        # these modes vanish at the center
        assert abs(s.evaluate("e1", np.array([0.0]))[0]) < 1e-10
    # cross inner product vanishes (exact per-edge Gram blocks)
    cross = 0.0
    for e in g.edges:
        k = g.edge_index[e.id]
        u, v = sols[0].x[2 * k : 2 * k + 2], sols[1].x[2 * k : 2 * k + 2]
        cross += np.conj(v) @ basis_gram(lam, e.length) @ u
    assert abs(cross) < 1e-10


def test_eigenfunction_rejects_non_eigenvalue():
    g = interval_graph(math.pi)
    with pytest.raises(ValueError):
        eigenfunction(g, uniform_bc(g, "dirichlet"), 2.0)


def test_lp_mixing_null_vectors_meet_the_full_conditions_or_raise():
    # the rows of M(lambda) leave out P L f(v); at lambda = 0 the constant
    # solves them but has P L f(c) != 0, while the pair at (pi/2)^2 vanishes
    # at the centre and meets every condition
    g, bc = lp_mixing_star(0.3)
    with pytest.raises(secular.RankAnomaly, match=r"at vertices \('c',\)"):
        eigenfunction(g, bc, 0.0)
    [hit] = eigenvalue_scan(g, bc, 2.0, 3.0)
    assert hit.lam == pytest.approx((math.pi / 2) ** 2, rel=1e-12) and hit.multiplicity == 2
    sols = eigenfunction(g, bc, hit.lam)
    assert len(sols) == 2
    for s in sols:
        assert s.l2_norm_sq() == pytest.approx(1.0, abs=1e-10)
        assert s.vertex_residual(bc) < 1e-12


def _strong_tip(g, bc):
    """The same conditions with a Robin end ``{"delta": 1e8}`` at one tip."""
    return g, BoundaryCondition({**bc.conditions, "t1": preset("delta", g.star("t1"), 1e8)})


@pytest.mark.parametrize(
    "g, bc",
    [lp_mixing_star(1e8), _strong_tip(*lp_mixing_star(0.3))],
    ids=["strong-mixing", "strong-tip"],
)
def test_lp_mixing_raises_at_any_scale_of_L(g, bc):
    # the vertex gate is relative to each vertex's max(1, ||L_v||), and so is
    # P L f(c); a strong condition at another vertex does not widen it at c
    lowest = eigenvalue_scan(g, bc, -1.0, 1.0)[0].lam
    with pytest.raises(secular.RankAnomaly, match=r"at vertices \('c',\)"):
        eigenfunction(g, bc, lowest)


def test_all_fixture_eigenfunctions_satisfy_conditions():
    for name, g, bc in spectral_fixture_list():
        hits = eigenvalue_scan(g, bc, -1.0, 30.0, num=300)
        for hit in hits:
            for sol in eigenfunction(g, bc, hit.lam):
                assert sol.vertex_residual(bc) < 1e-8, (name, hit.lam)


# ---------------------------------------------------------------------------
# cross-checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,g,bc", spectral_fixture_list())
def test_secular_matches_fem(name, g, bc):
    hits = eigenvalue_scan(g, bc, -1.0, 40.0, num=400)
    exact = [h.lam for h in hits for _ in range(h.multiplicity)][:6]
    h_max = 0.01
    es = eigensystem(assemble(g, bc, h_max), 6)
    for lam_exact, lam_fem in zip(exact, es.eigenvalues):
        budget = 10 * h_max**2 * max(1.0, abs(lam_exact))
        assert abs(lam_exact - lam_fem) <= budget, (name, lam_exact, lam_fem)


def test_weyl_count_on_fixtures():
    for name, g, bc in spectral_fixture_list():
        lam_max = 60.0
        hits = eigenvalue_scan(g, bc, -1.0, lam_max, num=500)
        count = sum(h.multiplicity for h in hits)
        slack = len(g.vertices) + 2 * len(g.edges)
        assert abs(count - weyl_count_estimate(g, lam_max)) <= slack, name


# ---------------------------------------------------------------------------
# compiled system against a per-vertex builder
# ---------------------------------------------------------------------------


def _per_vertex_secular(g, bc, lam):
    """Independent builder: per-vertex trace maps and an eigh split of each P.

    Returns M(lambda) and, per vertex, the trace maps (F, Fp) from the
    coefficients to the star-ordered values and inward derivatives.
    """
    col = {e.id: 2 * i for i, e in enumerate(g.edges)}
    n = 2 * len(g.edges)
    rows, maps = [], {}
    for v in g.vertices:
        star = g.star(v)
        F = np.zeros((star.degree, n), dtype=complex)
        Fp = np.zeros((star.degree, n), dtype=complex)
        for k, (eid, end) in enumerate(star.slots):
            j = col[eid]
            if end == "init":
                F[k, j] = 1.0
                Fp[k, j + 1] = 1.0
            else:
                c, s = (float(a) for a in basis_values(lam, g.edge(eid).length))
                dc, ds = -lam * s, c
                F[k, j], F[k, j + 1] = c, s
                Fp[k, j], Fp[k, j + 1] = -dc, -ds
        maps[v] = (F, Fp)
        L, P = bc.L(v), bc.P(v)
        w, vecs = np.linalg.eigh(P)
        ker, ran = vecs[:, w < 0.5], vecs[:, w >= 0.5]
        rows += list(ran.conj().T @ F) + list(ker.conj().T @ (L @ F + Fp))
    return np.array(rows), maps


def _random_lp(rng, d, rank, mixing):
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    ran = Q[:, :rank]
    P = ran @ ran.conj().T
    H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    L = 0.5 * (H + H.conj().T)
    if not mixing:
        K = np.eye(d) - P
        L = K @ L @ K
    return L, P


def _general_lp_cases():
    rng = np.random.default_rng(7)
    star = star_graph(4, length=1.3)
    loop = loop_edge_graph(loop_len=1.5, edge_len=2.0)
    tips = {f"t{i}": preset("delta", star.star(f"t{i}"), 0.7) for i in range(1, 5)}
    return [
        ("general-star", star, BoundaryCondition({"c": _random_lp(rng, 4, 2, False), **tips})),
        ("self-loop", loop, BoundaryCondition(
            {"a": _random_lp(rng, 3, 1, False), "b": preset("neumann", loop.star("b"))}
        )),
        ("lp-mixing", star, BoundaryCondition({"c": _random_lp(rng, 4, 2, True), **tips})),
    ]


def _row_normalize(M):
    return M / np.linalg.norm(M, axis=1)[:, None]


@pytest.mark.parametrize("name,g,bc", _general_lp_cases())
def test_compiled_system_matches_per_vertex_builder(name, g, bc):
    rng = np.random.default_rng(3)
    for lam in (-9.0, -1e-7, 0.0, 1e-7, 2.5, 40.0):
        sm = secular_matrix(g, bc, lam)
        M_ref, maps = _per_vertex_secular(g, bc, lam)
        scale = max(1.0, float(np.max(np.abs(M_ref))))
        assert np.allclose(sm, M_ref, rtol=0, atol=1e-13 * scale), (name, lam)
        sv = np.linalg.svd(_row_normalize(sm), compute_uv=False)
        sv_ref = np.linalg.svd(_row_normalize(M_ref), compute_uv=False)
        assert np.max(np.abs(sv - sv_ref)) <= 1e-13, (name, lam)
        assert smallest_singular_value(g, bc, lam) == pytest.approx(sv_ref[-1], rel=0, abs=1e-13)
        # edge-end traces of random coefficients x against F x and Fp x
        x = rng.standard_normal(M_ref.shape[1]) + 1j * rng.standard_normal(M_ref.shape[1])
        sol = SecularSolution(g, lam, x)
        for got, k in zip(sol.trace_values(), (0, 1)):
            want = np.concatenate([maps[v][k] @ x for v in g.vertices])
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), (name, lam, k)
    assert SecularSystem(g, bc).anomaly_vertices == (("c",) if name == "lp-mixing" else ())


def test_scan_validates_once(monkeypatch):
    import metricgraph.boundary as boundary_mod

    calls = []
    original = boundary_mod.validate_bc

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(boundary_mod, "validate_bc", counting)
    name, g, bc = _general_lp_cases()[0]
    hits = eigenvalue_scan(g, bc, -5.0, 30.0, num=200)
    assert hits and len(calls) == 1


def test_spectral_rep_validates_once(monkeypatch):
    import metricgraph.boundary as boundary_mod

    name, g, bc = _general_lp_cases()[0]
    hits = eigenvalue_scan(g, bc, -5.0, 30.0, num=200)
    fresh = [eigenfunction(g, bc, h.lam) for h in hits]
    calls = []
    original = boundary_mod.validate_bc

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(boundary_mod, "validate_bc", counting)
    rep = DiscreteSpectralRep.from_secular(g, bc, hits, 0.05)
    assert len(hits) > 1 and len(calls) == 1
    # the shared compiled system gives the same eigenfunctions, bit for bit
    flat = [s for sols in fresh for s in sols]
    assert len(rep.modes) == len(flat) and all(np.array_equal(m.exact.x, s.x) for m, s in zip(rep.modes, flat))
