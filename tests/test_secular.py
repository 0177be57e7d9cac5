import math

import numpy as np
import pytest
from scipy.optimize import brentq

from metricgraph import (
    BoundaryCondition,
    DiscreteSpectralRep,
    SecularSolution,
    assemble,
    basis_at,
    basis_gram,
    basis_values,
    eigenfunction,
    eigensystem,
    eigenvalue_scan,
    preset,
    secular_matrix,
    smallest_singular_value,
    solve_at_energy,
    uniform_bc,
    weyl_count_estimate,
)

from conftest import interval_graph, loop_edge_graph, spectral_fixture_list, star_graph


# ---------------------------------------------------------------------------
# fundamental basis
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam", [-10.0, -1.0, -1e-5, -1e-8, 0.0, 1e-8, 1e-5, 1.0, 42.0, 100.0])
@pytest.mark.parametrize("t", [0.0, 0.3, 1.7, 3.1])
def test_wronskian_identity(lam, t):
    c, s, dc, ds = basis_at(lam, t)
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
        assert sm.matrix.shape == (2, 2)
        # rows: f(0) = alpha, f(pi) = alpha c + beta s; singular iff s(pi) = 0
        c, s, _, _ = basis_at(lam, math.pi)
        det = np.linalg.det(sm.matrix)
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
    robin_rows = [r for r in sm.matrix if abs(r[1]) > 0.5]
    assert any(np.allclose(r, [-2.5, 1.0]) for r in robin_rows)


def test_secular_matrix_square_order():
    g = loop_edge_graph()
    bc = uniform_bc(g, "kirchhoff")
    sm = secular_matrix(g, bc, 1.0)
    assert sm.matrix.shape == (4, 4)  # sum of degrees = 2 |E|
    assert sm.anomaly.shape[0] == 0


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
        u = np.array(sols[0].coefficients[e.id])
        v = np.array(sols[1].coefficients[e.id])
        cross += np.conj(v) @ basis_gram(lam, e.length) @ u
    assert abs(cross) < 1e-10


def test_eigenfunction_rejects_non_eigenvalue():
    g = interval_graph(math.pi)
    with pytest.raises(ValueError):
        eigenfunction(g, uniform_bc(g, "dirichlet"), 2.0)


def test_all_fixture_eigenfunctions_satisfy_conditions():
    for name, g, bc in spectral_fixture_list():
        hits = eigenvalue_scan(g, bc, -1.0, 30.0, num=300)
        for hit in hits:
            for sol in eigenfunction(g, bc, hit.lam):
                assert sol.vertex_residual(bc) < 1e-8, (name, hit.lam)


# ---------------------------------------------------------------------------
# relaxed solves
# ---------------------------------------------------------------------------


def test_solve_at_energy_one_free_end():
    g = interval_graph(math.pi)
    bc = uniform_bc(g, "dirichlet")
    for lam in (0.7, 2.0, 13.0):
        sols = solve_at_energy(g, bc, lam, free_ends=[("e", "term")])
        assert len(sols) == 1
        # Dirichlet still pinned at the initial vertex
        assert abs(sols[0].evaluate("e", np.array([0.0]))[0]) < 1e-10


def test_solve_at_energy_all_free():
    g = interval_graph(math.pi)
    sols = solve_at_energy(g, uniform_bc(g, "dirichlet"), 2.0, free_ends=[("e", "init"), ("e", "term")])
    assert len(sols) == 2


def test_solve_at_energy_no_solution_off_spectrum():
    g = interval_graph(math.pi)
    assert solve_at_energy(g, uniform_bc(g, "dirichlet"), 2.0) == []


def test_solve_at_energy_unknown_end():
    g = interval_graph(math.pi)
    with pytest.raises(ValueError):
        solve_at_energy(g, uniform_bc(g, "dirichlet"), 2.0, free_ends=[("zz", "init")])


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

    Returns M(lambda), the anomaly rows and, per vertex, the trace maps
    (F, Fp) from the coefficients to the star-ordered values and inward
    derivatives.
    """
    col = {e.id: 2 * i for i, e in enumerate(g.edges)}
    n = 2 * len(g.edges)
    rows, anom_rows, maps = [], [], {}
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
                c, s, dc, ds = basis_at(lam, g.edge(eid).length)
                F[k, j], F[k, j + 1] = c, s
                Fp[k, j], Fp[k, j + 1] = -dc, -ds
        maps[v] = (F, Fp)
        L, P = bc.L(v), bc.P(v)
        w, vecs = np.linalg.eigh(P)
        ker, ran = vecs[:, w < 0.5], vecs[:, w >= 0.5]
        rows += list(ran.conj().T @ F) + list(ker.conj().T @ (L @ F + Fp))
        mix = P @ L @ (np.eye(star.degree) - P)
        if np.linalg.norm(mix) > 1e-12 * max(1.0, float(np.linalg.norm(L))):
            anom_rows += list(ran.conj().T @ (L @ F))
    return np.array(rows), np.array(anom_rows).reshape(-1, n), maps


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
        M_ref, A_ref, maps = _per_vertex_secular(g, bc, lam)
        scale = max(1.0, float(np.max(np.abs(M_ref))))
        assert np.allclose(sm.matrix, M_ref, rtol=0, atol=1e-13 * scale), (name, lam)
        sv = np.linalg.svd(_row_normalize(sm.matrix), compute_uv=False)
        sv_ref = np.linalg.svd(_row_normalize(M_ref), compute_uv=False)
        assert np.max(np.abs(sv - sv_ref)) <= 1e-13, (name, lam)
        assert smallest_singular_value(g, bc, lam) == pytest.approx(sv_ref[-1], rel=0, abs=1e-13)
        assert sm.anomaly.shape == A_ref.shape
        a_scale = max(1.0, float(np.max(np.abs(A_ref), initial=0.0)))
        assert np.allclose(sm.anomaly, A_ref, rtol=0, atol=1e-13 * a_scale), (name, lam)
        # edge-end traces of random coefficients x against F x and Fp x
        x = rng.standard_normal(M_ref.shape[1]) + 1j * rng.standard_normal(M_ref.shape[1])
        sol = SecularSolution(g, lam, {e.id: (x[2 * i], x[2 * i + 1]) for i, e in enumerate(g.edges)})
        for got, k in zip(sol.trace_values(), (0, 1)):
            want = np.concatenate([maps[v][k] @ x for v in g.vertices])
            err = np.linalg.norm(np.concatenate([got[v] for v in g.vertices]) - want)
            assert err <= 1e-13 * np.linalg.norm(want), (name, lam, k)
    assert (sm.anomaly.shape[0] > 0) == (name == "lp-mixing")
    assert sm.anomaly_vertices == (("c",) if name == "lp-mixing" else ())


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
    assert [m.exact.coefficients for m in rep.modes] == [s.coefficients for sols in fresh for s in sols]
