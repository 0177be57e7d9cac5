import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse

from metricgraph import (
    BoundaryCondition,
    Edge,
    MetricGraph,
    Potential,
    assemble,
    check_boundary_bound,
    check_coercivity,
    check_relative_bound,
    coercivity_constant,
    edge_grid,
    eigensystem,
    fem,
    preset,
    secular,
    uniform_bc,
    uniform_l2_norm,
    validate_bc,
)

from conftest import interval_graph, star_graph


def test_dirichlet_interval_dofs_are_interior_nodes():
    g = interval_graph(math.pi)
    fa = assemble(g, uniform_bc(g, "dirichlet"), math.pi / 50)
    # 51 nodes, the two end values are pinned to zero
    assert fa.dim == 49


def test_neumann_interval_keeps_end_values():
    g = interval_graph(1.0)
    fa = assemble(g, uniform_bc(g, "neumann"), 1 / 50)
    assert fa.dim == 51
    assert np.allclose(fa.boundary.toarray(), 0.0)


def test_star_kirchhoff_shares_one_center_value():
    g = star_graph(3)
    fa = assemble(g, uniform_bc(g, "kirchhoff"), 1 / 20)
    # 3 edges x 19 interior + 1 shared center value + 3 free tips
    assert fa.dim == 3 * 19 + 1 + 3
    assert np.allclose(fa.boundary.toarray(), 0.0)


def test_form_is_hermitian():
    g = star_graph(3)
    bc = BoundaryCondition(
        {
            "c": preset("delta", g.star("c"), -2.0),
            **{f"t{i}": preset("delta", g.star(f"t{i}"), 1.0) for i in (1, 2, 3)},
        }
    )
    fa = assemble(g, bc, 0.05)
    M = (fa.stiffness - fa.boundary).toarray()
    assert np.allclose(M, M.conj().T)
    assert np.allclose(fa.mass.toarray(), fa.mass.toarray().conj().T)
    w = np.linalg.eigvalsh(fa.mass.toarray())
    assert w[0] > 0


def test_interval_dirichlet_eigenvalues_converge():
    g = interval_graph(math.pi)
    fa = assemble(g, uniform_bc(g, "dirichlet"), math.pi / 200)
    es = eigensystem(fa, 4)
    for n in range(1, 5):
        budget = 10 * (math.pi / 200) ** 2 * max(1, n**2)
        assert abs(es.eigenvalues[n - 1] - n**2) < budget


def test_neumann_zero_mode_exact():
    g = interval_graph(1.0)
    es = eigensystem(assemble(g, uniform_bc(g, "neumann"), 0.01), 3)
    assert abs(es.eigenvalues[0]) < 1e-9
    vec = es.vectors[:, 0]
    nodal = es.assembly.nodal_vector(vec)
    assert np.max(np.abs(nodal - nodal[0])) < 1e-7  # constant eigenvector


def test_b_orthonormal_vectors():
    g = star_graph(3)
    es = eigensystem(assemble(g, uniform_bc(g, "kirchhoff"), 0.02), 5)
    gram = es.vectors.conj().T @ es.assembly.mass @ es.vectors
    assert np.allclose(gram, np.eye(5), atol=1e-10)


def test_delta_coupling_shifts_spectrum_up():
    g = interval_graph(1.0)
    bc0 = BoundaryCondition(
        {"v": preset("delta", g.star("v"), 0.0), "w": preset("dirichlet", g.star("w"))}
    )
    bc1 = BoundaryCondition(
        {"v": preset("delta", g.star("v"), 1.0), "w": preset("dirichlet", g.star("w"))}
    )
    e0 = eigensystem(assemble(g, bc0, 0.01), 4).eigenvalues
    e1 = eigensystem(assemble(g, bc1, 0.01), 4).eigenvalues
    assert np.all(e1 > e0 + 1e-6)


def test_requesting_too_many_modes_fails():
    g = interval_graph(1.0)
    fa = assemble(g, uniform_bc(g, "dirichlet"), 0.25)
    with pytest.raises(ValueError):
        eigensystem(fa, fa.dim + 1)


def test_dirichlet_kirchhoff_neumann_ordering():
    g = star_graph(3)
    eD = eigensystem(assemble(g, uniform_bc(g, "dirichlet"), 0.02), 6).eigenvalues
    eK = eigensystem(assemble(g, uniform_bc(g, "kirchhoff"), 0.02), 6).eigenvalues
    eN = eigensystem(assemble(g, uniform_bc(g, "neumann"), 0.02), 6).eigenvalues
    assert np.all(eD >= eK - 1e-9)
    assert np.all(eK >= eN - 1e-9)


def _general_lp_star():
    """4-ray star; complex (L, P) at the centre with rank-2 P, deltas at the tips."""
    rng = np.random.default_rng(3)
    g = star_graph(4, length=1.3)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    P = Q[:, :2] @ Q[:, :2].conj().T
    H = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    L = (np.eye(4) - P) @ (0.5 * (H + H.conj().T)) @ (np.eye(4) - P)
    tips = {f"t{i}": preset("delta", g.star(f"t{i}"), 0.7) for i in range(1, 5)}
    return g, BoundaryCondition({"c": (L, P), **tips})


def _grid4_delta():
    """4x4 lattice, lengths in [1, 1.4], Kirchhoff or delta(U[-1, 1]) at each vertex."""
    rng = np.random.default_rng(5)
    vid = [[f"v{r}{c}" for c in range(4)] for r in range(4)]
    pairs = [(vid[r][c], vid[r][c + 1]) for r in range(4) for c in range(3)]
    pairs += [(vid[r][c], vid[r + 1][c]) for r in range(3) for c in range(4)]
    lengths = rng.uniform(1.0, 1.4, len(pairs))
    edges = tuple(Edge(f"e{k:02d}", float(lengths[k]), a, b) for k, (a, b) in enumerate(pairs))
    g = MetricGraph(tuple(v for row in vid for v in row), edges, 1.0)
    conds = {}
    for v in g.vertices:
        delta = rng.random() < 0.5
        conds[v] = preset("delta", g.star(v), float(rng.uniform(-1.0, 1.0))) if delta else preset("kirchhoff", g.star(v))
    return g, BoundaryCondition(conds)


def _oracle_cases():
    cases = []
    for n in (3, 5, 8):  # equal rays: eigenspaces of multiplicity up to n
        for kind in ("kirchhoff", "dirichlet", "neumann"):
            g = star_graph(n)
            cases.append((f"star{n}-{kind}", g, uniform_bc(g, kind), 0.05, 12))
    cases.append(("general-lp-star", *_general_lp_star(), 0.05, 10))
    cases.append(("grid4-delta", *_grid4_delta(), 0.05, 12))
    g = interval_graph(1.0)
    cases.append(("dense-fallback", g, uniform_bc(g, "dirichlet"), 0.25, 2))  # dim 3, k = dim - 1
    return cases


@pytest.mark.parametrize("name,g,bc,h,k", _oracle_cases(), ids=[c[0] for c in _oracle_cases()])
def test_sparse_eigensystem_matches_dense_eigh(name, g, bc, h, k):
    fa = assemble(g, bc, h)
    es = eigensystem(fa, k)
    ref = scipy.linalg.eigh(
        fa.operator_matrix.toarray(), fa.mass.toarray(), eigvals_only=True, subset_by_index=[0, k - 1]
    )
    assert np.all(np.abs(es.eigenvalues - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))
    gram = es.vectors.conj().T @ (fa.mass @ es.vectors)
    assert np.allclose(gram, np.eye(k), rtol=0, atol=1e-10)
    assert np.array_equal(eigensystem(fa, k).eigenvalues, es.eigenvalues)
    assert fa.stiffness.nnz <= 5 * fa.dim


def _per_vertex_constraint(fa):
    """Dense (C, R) built vertex by vertex from ``bc.ker_ran``: kernel coordinates after the interior nodes, and
    one symmetrized ``K^H L_v K`` block per vertex."""
    g, bc, grid = fa.graph, fa.bc, fa.grid
    interior = np.delete(np.arange(grid.n_nodes), np.concatenate([grid.offsets[:-1], grid.offsets[1:] - 1]))
    C, R = np.zeros((grid.n_nodes, fa.dim), dtype=complex), np.zeros((fa.dim, fa.dim), dtype=complex)
    C[interior, np.arange(interior.size)] = 1.0
    col = interior.size
    for v in g.vertices:
        K = bc.ker_ran(v)[0]
        idx = np.arange(col, col + K.shape[1])
        C[np.ix_(grid.slot_stencil[0][g.slots[v]], idx)] = K
        R[np.ix_(idx, idx)] = K.conj().T @ bc.L(v) @ K
        col += K.shape[1]
    assert col == fa.dim
    return C, 0.5 * (R + R.conj().T)


@pytest.mark.parametrize("name,g,bc,h,k", _oracle_cases(), ids=[c[0] for c in _oracle_cases()])
def test_constraint_map_matches_the_per_vertex_construction(name, g, bc, h, k):
    # the assembly reads the secular system's K and K^H L K; the reference splits each P_v itself
    fa = assemble(g, bc, h)
    C, R = _per_vertex_constraint(fa)
    for got, want in ((fa.constraint, C), (fa.boundary, R)):
        got, want = got.copy(), scipy.sparse.csr_matrix(want)
        got.eliminate_zeros(), want.eliminate_zeros()
        assert (got != want).nnz == 0 and got.nnz == want.nnz


def _p1_count(fa, tau):
    """Constrained P1 eigenvalues below tau for V = 0, by Haynsworth's inertia formula.

    Each edge's interior block T_e(tau) (stiffness - tau mass) has the Toeplitz eigenvalues
    (2 - 2 cos t)/h - tau h (2 + cos t)/3, t = j pi / n; its 2x2 Schur complement onto the edge
    ends, by a banded solve, sits at the edge's slots, and the vertex term is
    n_-(K^H S K - K^H L K) with K and K^H L K from a fresh secular system, not from the assembly's matrices.
    """
    system = secular.SecularSystem(fa.graph, fa.bc)
    init, term = fa.graph.slot_ends
    S = np.zeros((2 * len(fa.graph.edges),) * 2)
    count = 0
    for k, (h, n) in enumerate(zip(fa.grid.widths, np.diff(fa.grid.offsets) - 1)):
        c = np.cos(np.arange(1, n) * math.pi / n)
        count += int(np.sum((2.0 - 2.0 * c) / h - tau * h * (2.0 + c) / 3.0 < 0))
        end, off = 1.0 / h - tau * h / 3.0, -1.0 / h - tau * h / 6.0
        block = np.array([[end, off], [off, end]])
        if n > 1:
            band = np.zeros((3, n - 1))
            band[0], band[1], band[2] = off, 2.0 * end, off
            x = scipy.linalg.solve_banded((1, 1), band, np.eye(n - 1)[:, [0, -1]])
            block = end * np.eye(2) - off**2 * x[[0, -1]]
        S[np.ix_([init[k], term[k]], [init[k], term[k]])] = block
    D = system.K.conj().T @ S @ system.K - system.kLk
    return count + int(np.sum(np.linalg.eigvalsh(D) < 0))


def _assert_complete(fa, lams):
    """N_h is 0 below the lowest eigenvalue and equals the index between distinct ones."""
    lams = np.sort(lams)
    distinct = np.flatnonzero(np.diff(lams) > 1e-8 * np.maximum(1.0, np.abs(lams[1:])))
    taus = [lams[0] - 0.5 * (lams[distinct[0] + 1] - lams[0])] + [0.5 * (lams[i] + lams[i + 1]) for i in distinct]
    assert [_p1_count(fa, tau) for tau in taus] == [0] + [i + 1 for i in distinct]


@pytest.mark.parametrize("name,g,bc,h,k", _oracle_cases(), ids=[c[0] for c in _oracle_cases()])
def test_p1_count_finds_every_eigenvalue(name, g, bc, h, k):
    fa = assemble(g, bc, h)
    _assert_complete(fa, eigensystem(fa, k).eigenvalues)


def test_p1_count_finds_every_eigenvalue_on_a_fine_grid():
    fa = assemble(*_grid4_delta(), 0.002)
    assert fa.dim > 14_000
    _assert_complete(fa, eigensystem(fa, 20).eigenvalues)


# ---------------------------------------------------------------------------
# the two form inequalities
# ---------------------------------------------------------------------------


def test_coercivity_margin_s_zero():
    g = star_graph(3)
    const = coercivity_constant(0.0, g.u)
    assert check_coercivity(g, uniform_bc(g, "kirchhoff"), const) >= -1e-10


def test_coercivity_margin_attractive_delta():
    g = star_graph(3)
    bc = BoundaryCondition(
        {
            "c": preset("delta", g.star("c"), -5.0),
            **{f"t{i}": preset("kirchhoff", g.star(f"t{i}")) for i in (1, 2, 3)},
        }
    )
    S = validate_bc(g, bc)[1]
    assert S == pytest.approx(5.0 / 3.0)
    const = coercivity_constant(S, g.u)
    assert check_coercivity(g, bc, const) >= -1e-10


def test_coercivity_margin_ground_state():
    g = interval_graph(math.pi)
    fa = assemble(g, uniform_bc(g, "dirichlet"), 0.02)
    es = eigensystem(fa, 1)
    x = es.vectors[:, 0].astype(complex)
    const = coercivity_constant(0.0, g.u)
    stiff = float(np.real(x.conj() @ fa.stiffness @ x))
    mass = float(np.real(x.conj() @ fa.mass @ x))
    form = float(np.real(x.conj() @ (fa.stiffness - fa.boundary) @ x))
    margin = form + const.C * mass - 0.5 * (mass + stiff)
    assert margin >= -1e-10


@pytest.mark.parametrize("drop", [0.01, 10.0])
def test_coercivity_check_sees_a_lowered_c(drop):
    # on a Kirchhoff star C = 1/2 is tight at the constants, so C - drop puts
    # the exact minimum at -drop
    g = star_graph(3)
    const = coercivity_constant(0.0, g.u)
    margin = check_coercivity(g, uniform_bc(g, "kirchhoff"), replace(const, C=const.C - drop))
    assert margin < 0
    assert margin == pytest.approx(-drop, rel=1e-9)


def _delta_star():
    g = star_graph(3, length=1.2)
    tips = {f"t{i}": preset("kirchhoff", g.star(f"t{i}")) for i in (1, 2, 3)}
    return g, BoundaryCondition({"c": preset("delta", g.star("c"), -5.0), **tips})


def _weighted_mass(g, h, squares):
    """Nodal P1 matrix of ``int W f conj(g)`` for W constant on each piece of ``squares``: Simpson's rule, exact
    for the product of two hats, on each overlap of a cell and a piece."""
    grids = [edge_grid(g, e.id, h) for e in g.edges]
    out, start = np.zeros((sum(ts.size for ts in grids),) * 2), 0
    for e, ts in zip(g.edges, grids):
        s, w = squares[e.id]
        for i, (x0, x1) in enumerate(zip(ts, ts[1:])):
            for lo, hi, value in zip(np.maximum(s[:-1], x0), np.minimum(s[1:], x1), w):
                for x, weight in ((lo, 1.0), (0.5 * (lo + hi), 4.0), (hi, 1.0)):
                    hat = np.array([x1 - x, x - x0]) / (x1 - x0)
                    cell = slice(start + i, start + i + 2)
                    out[cell, cell] += value * weight * max(hi - lo, 0.0) / 6.0 * np.outer(hat, hat)
        start += ts.size
    return out


def _minimum_cases():
    g = interval_graph(math.pi)
    return [
        ("delta-star", *_delta_star(), 0.1),
        ("general-lp-star", *_general_lp_star(), 0.1),
        ("dim-1", g, uniform_bc(g, "dirichlet"), 2.0),  # three nodes, one free
    ]


@pytest.mark.parametrize("name,g,bc,h", _minimum_cases(), ids=[c[0] for c in _minimum_cases()])
def test_inequality_checks_are_dense_minima(name, g, bc, h):
    fms = [assemble(g, bc, mesh) for mesh in (h, h / 2)]
    const = coercivity_constant(fms[0].S_bound, g.u)
    S = fms[0].S_bound
    # the exact lower ends lie below the dense P1 minima of their margin forms (P1 lies in the form
    # domain), by O(h^2)
    for got, margin in (
        (check_coercivity(g, bc, const), lambda A, R, B: (A - R) + const.C * B - 0.5 * (A + B)),
        (check_boundary_bound(g, bc, g.u), lambda A, R, B: (4.0 * S / g.u) * B + 2.0 * S * g.u * A - R),
    ):
        gaps = []
        for fm in fms:
            A, R, B = (m.toarray() for m in (fm.stiffness, fm.boundary, fm.mass))
            ref = scipy.linalg.eigh(margin(A, R, B), B, eigvals_only=True)[0]
            assert got <= ref + 1e-9 * abs(ref), (got, ref)
            gaps.append(ref - got)
        assert gaps[0] >= 3.5 * gaps[1], gaps

    rng = np.random.default_rng(7)
    V = Potential.from_callable(g, h, lambda eid, ts: rng.uniform(-3.0, 3.0, ts.shape))
    M = uniform_l2_norm(g, V).M
    for a in (g.u / 4, g.u / 2, g.u):
        [rb] = check_relative_bound(g, bc, V, [a], const.C)
        C_a = M**2 * (const.C + 4.0 / a)
        assert (rb.M, rb.C_a) == (M, C_a)
        # the continuum minimum of M^2 a q + C_a ||f||^2 - int W |f|^2 (W on runs as long as a, its
        # integral exact on every cell) lies below its P1 minimum, by O(h^2)
        gaps = []
        for fm in fms:
            K, Bm, C_m = (fm.stiffness - fm.boundary).toarray(), fm.mass.toarray(), fm.constraint.toarray()
            Wm = C_m.conj().T @ _weighted_mass(g, fm.grid.h_max, V.squares(a)) @ C_m
            ref = scipy.linalg.eigh(M**2 * a * K + C_a * Bm - Wm, Bm, eigvals_only=True)[0]
            assert rb.worst_margin <= ref + 1e-9 * max(1.0, abs(ref)), (rb.worst_margin, ref)
            gaps.append(ref - rb.worst_margin)
        assert gaps[0] >= 3.5 * gaps[1], gaps
        # the shortest window of ceil(l / 2a) equal pieces per edge, at the sharp H^1 constant
        shortest = min(e.length / math.ceil(e.length / (2.0 * a)) for e in g.edges)
        k = math.sqrt(8.0) / a
        want = 1.0 - math.cosh(k * shortest) / (math.sqrt(2.0) * math.sinh(k * shortest))
        assert abs(rb.worst_window_margin - want) <= 1e-14 * want, (rb.worst_window_margin, want)


def test_lowest_lowers_past_a_singular_shift():
    # at the first shift, -1, K - sigma B is exactly zero: SuperLU's
    # singular factor must lower the shift, not escape
    g = interval_graph(2.0)
    B = assemble(g, uniform_bc(g, "neumann"), 0.1).mass
    assert fem._lowest(-B, B, 1, -1.0)[0][0] == pytest.approx(-1.0, rel=1e-12)


def test_lowest_lowers_a_start_inside_the_spectrum():
    # a start above the two lowest eigenvalues fails the pivot certificate and is lowered, so the
    # lowest pairs still come back, not the ones nearest the start
    fa = assemble(*_delta_star(), 0.05)
    M, B = fa.operator_matrix, fa.mass
    want = scipy.linalg.eigh(M.toarray(), B.toarray(), eigvals_only=True)[:2]
    assert want[0] < want[1] < 10.0
    got, _ = fem._lowest(M, B, 2, 10.0)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-10), (got, want)


def _robin_interval(length, alpha):
    """Interval of the given length with f'(0) = alpha f(0) (L = [-alpha] at v) and Dirichlet at w."""
    g = interval_graph(length)
    return g, BoundaryCondition({"v": preset("delta", g.star("v"), alpha), "w": preset("dirichlet", g.star("w"))})


def _robin_ground_state(length, beta):
    """lambda_1 of -f'' with f'(0) = -beta f(0), f(l) = 0: -k^2 with k coth(k l) = beta when beta l > 1,
    else w^2 with w cot(w l) = beta, w in (0, pi/l); the root of an increasing f by brentq to 4 eps."""
    if beta * length > 1:
        f, b, sign = (lambda k: k / math.tanh(k * length) - beta), beta + 1.0, -1.0
    else:
        f, b, sign = (lambda w: beta - w / math.tan(w * length)), math.pi / length, 1.0
    return sign * scipy.optimize.brentq(f, 1e-8, b, xtol=1e-300, rtol=4 * np.finfo(float).eps) ** 2


@pytest.mark.parametrize(
    "length,alpha,coth",
    [(2.0, -3.0, [True] * 3), (1.5, -0.7, [True, True, False]), (1.0, -0.2, [False, True, False])],
    ids=["l2-a-3", "l1.5-a-0.7", "l1-a-0.2"],
)
def test_form_checks_match_robin_closed_forms(length, alpha, coth):
    # L = -alpha > 0 at v, so S = -alpha, and H_sL is the Robin interval with beta = s S: coercivity reads
    # s = 2, the boundary bound s = 1 / (2 S eps) at eps = 0.4 and 0.9, on the k coth branch where beta l > 1
    # (``coth``) and on the w cot branch elsewhere.  Each check is a lower end within its bracket's tolerance,
    # CLUSTER_RTOL max(1, |lo|, |hi|) times the factor of lambda_1, and never above the closed form
    g, bc = _robin_interval(length, alpha)
    S, hi = -alpha, (math.pi / length) ** 2 * (1.0 + 4.0 * secular.POLE_RTOL)
    const = coercivity_constant(S, g.u)
    cases = [(2.0, 0.5, const.C - 0.5, check_coercivity(g, bc, const))] + [
        (1.0 / (2.0 * S * eps), 2.0 * S * eps, 4.0 * S / eps, check_boundary_bound(g, bc, eps)) for eps in (0.4, 0.9)
    ]
    assert [s * S * length > 1.0 for s, _, _, _ in cases] == coth
    for s, factor, offset, got in cases:
        want = factor * _robin_ground_state(length, s * S) + offset
        lo = 0.5 - coercivity_constant(s * S, g.u).C - 1.0  # the start of lowest_eigenvalue
        tol = 2.0 * secular.CLUSTER_RTOL * max(1.0, abs(lo), hi) * factor
        slack = 16 * np.finfo(float).eps * max(1.0, abs(want), abs(offset))  # a few ulps of the float64 root
        assert want - tol - slack <= got <= want + slack, (s, got, want, tol)


def test_boundary_bound_zero_l():
    g = interval_graph(2.0)
    assert check_boundary_bound(g, uniform_bc(g, "neumann"), 1.0) == 0.0


def test_boundary_bound_robin_nonpositive_term():
    # L = [-alpha] with alpha > 0 keeps the boundary term nonpositive, S = 0
    g = interval_graph(2.0)
    bc = BoundaryCondition(
        {"v": preset("delta", g.star("v"), 2.0), "w": preset("dirichlet", g.star("w"))}
    )
    assert assemble(g, bc, 0.05).S_bound == 0.0
    assert check_boundary_bound(g, bc, 1.0) == 0.0


def test_boundary_bound_positive_l():
    g = interval_graph(2.0)
    bc = BoundaryCondition(
        {"v": (np.array([[3.0]], dtype=complex), np.zeros((1, 1), dtype=complex)),
         "w": preset("dirichlet", g.star("w"))}
    )
    assert assemble(g, bc, 0.02).S_bound == pytest.approx(3.0)
    for eps in (0.25, 0.5, 1.0):
        assert check_boundary_bound(g, bc, eps) >= -1e-10


def test_boundary_bound_eps_above_u_rejected():
    g = interval_graph(2.0)
    with pytest.raises(ValueError):
        check_boundary_bound(g, uniform_bc(g, "neumann"), 1.5)


def test_assemble_rejects_infinite_edges():
    from metricgraph import Edge, MetricGraph

    g = MetricGraph(("v",), (Edge("e", math.inf, "v", None),), 1.0)
    bc = BoundaryCondition({"v": preset("neumann", g.star("v"))})
    with pytest.raises(ValueError):
        assemble(g, bc, 0.1)


def test_gate_scale_is_a_loose_lower_estimate_of_the_norm(monkeypatch):
    # one Lanczos run gives the eigenpairs; the residual gate's scale is the
    # largest column norm of M, which lies in [||M||_2 / sqrt(r), ||M||_2]
    # for r nonzeros per row: never above ||M||_2, so the gate never loosens
    import scipy.sparse.linalg

    fa = assemble(*_grid4_delta(), 0.05)
    eigsh = scipy.sparse.linalg.eigsh
    calls = []

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recording)
    es = eigensystem(fa, 6)
    assert len(calls) == 1 and "sigma" in calls[0]
    M = fa.operator_matrix
    norm = float(np.linalg.norm(M.toarray(), 2))
    r = int(np.max(np.diff(M.indptr)))
    ratio = es.residual / norm
    assert ratio > 0
    # RESIDUAL_RTOL * scale < residual whenever RESIDUAL_RTOL < ratio
    monkeypatch.setattr(fem, "RESIDUAL_RTOL", ratio * (1 - 1e-6))
    with pytest.raises(fem.ResidualCheckFailed):
        eigensystem(fa, 6)
    # RESIDUAL_RTOL * scale > residual whenever RESIDUAL_RTOL > sqrt(r) * ratio
    monkeypatch.setattr(fem, "RESIDUAL_RTOL", math.sqrt(r) * ratio * (1 + 1e-6))
    assert np.array_equal(eigensystem(fa, 6).eigenvalues, es.eigenvalues)


def test_eigensystem_lowers_a_shift_inside_the_spectrum(monkeypatch):
    # a floor above the lowest eigenvalues puts the first shift among them;
    # the inertia certificate must lower it, so the k lowest still come back
    g = interval_graph(math.pi)
    fa = assemble(g, uniform_bc(g, "dirichlet"), math.pi / 100)
    monkeypatch.setattr(fem.FormAssembly, "spectrum_floor", property(lambda self: 30.0))
    es = eigensystem(fa, 4)
    ref = scipy.linalg.eigh(
        fa.operator_matrix.toarray(), fa.mass.toarray(), eigvals_only=True, subset_by_index=[0, 3]
    )
    assert np.allclose(es.eigenvalues, ref, rtol=1e-10, atol=0)
    assert np.allclose(es.eigenvalues, [1.0, 4.0, 9.0, 16.0], rtol=1e-2)
