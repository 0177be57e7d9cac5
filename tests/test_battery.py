"""The compiled weak-residual battery against a per-test reference loop."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricgraph import (
    BoundaryCondition,
    DiscreteSpectralRep,
    Edge,
    GridFunction,
    MetricGraph,
    assemble,
    assemble_perturbed,
    bc_from_mapping,
    check_relative_bound,
    edge_grid,
    eigensystem,
    eigenfunction,
    eigenvalue_scan,
    generalized_eigenfunction_residual,
    graph_from_dict,
    parse_potential_expr,
    perturbed_eigen_report,
    preset,
    standard_test_battery,
    uniform_bc,
)
from metricgraph import SecularSolution, boundary, expansion, potentials
from metricgraph.expansion import BumpTest, compile_battery
from metricgraph.functions import Mesh
from metricgraph.graph import INIT

from conftest import interval_graph, loop_edge_graph

_GL24 = np.polynomial.legendre.leggauss(24)
_GL8 = np.polynomial.legendre.leggauss(8)


# ---------------------------------------------------------------------------
# reference: one test at a time, closures per smooth piece
# ---------------------------------------------------------------------------


def _gauss(a, b, rule):
    x, w = rule
    return 0.5 * (a + b) + 0.5 * (b - a) * x, 0.5 * (b - a) * w


def _panels(a, b, cuts):
    if cuts is None:
        return _gauss(a, b, _GL24)
    inner = cuts[(cuts > a + 1e-14) & (cuts < b - 1e-14)]
    if inner.size == 0:
        return _gauss(a, b, _GL24)
    bounds = np.concatenate([[a], inner, [b]])
    parts = [_gauss(lo, hi, _GL8) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _ramp(a, b):
    """C^2 quintic 1 -> 0 on [a, b] and its first two derivatives."""
    w = b - a

    def parts(t):
        s = (t - a) / w
        inside = (s > 0) & (s < 1)
        s = np.clip(s, 0.0, 1.0)
        chi = 1.0 - (10.0 * s**3 - 15.0 * s**4 + 6.0 * s**5)
        d1 = np.where(inside, -(30.0 * s**2 - 60.0 * s**3 + 30.0 * s**4) / w, 0.0)
        d2 = np.where(inside, -(60.0 * s - 180.0 * s**2 + 120.0 * s**3) / w**2, 0.0)
        return chi, d1, d2

    return parts


def _reference_pieces(g, test):
    """(edge, t0, t1, f, f'') per smooth piece, as closures."""
    if isinstance(test, BumpTest):
        c, r = test.center, test.radius

        def f(t):
            s = (t - c) / r
            return np.where(np.abs(s) < 1.0, (1.0 - s**2) ** 3, 0.0).astype(complex)

        def d2(t):
            s = (t - c) / r
            return np.where(np.abs(s) < 1.0, (1.0 - s**2) * (30.0 * s**2 - 6.0) / r**2, 0.0).astype(complex)

        return [(test.edge, c - r, c + r, f, d2)]
    rho = expansion.STAR_RHO * g.u
    ramp = _ramp(rho / 2.0, rho)
    out = []
    for k, (eid, end) in enumerate(g.star(test.vertex).slots):
        a, b = complex(test.value[k]), complex(test.deriv[k])
        if abs(a) < 1e-15 and abs(b) < 1e-15:
            continue
        length = g.edge(eid).length
        sign, origin = (1.0, 0.0) if end == INIT else (-1.0, length)

        def f(t, a=a, b=b, sign=sign, origin=origin):
            tau = origin + sign * t
            return (a + b * tau) * ramp(tau)[0]

        def d2(t, a=a, b=b, sign=sign, origin=origin):
            tau = origin + sign * t
            _, c1, c2 = ramp(tau)
            return 2.0 * b * c1 + (a + b * tau) * c2

        if end == INIT:
            out += [(eid, 0.0, rho / 2.0, f, d2), (eid, rho / 2.0, rho, f, d2)]
        else:
            out += [(eid, length - rho, length - rho / 2.0, f, d2), (eid, length - rho / 2.0, length, f, d2)]
    return out


def reference_residuals(g, bc, tests, phi, lam, potential=None, cut_meshes=()):
    """Per test: (residual, sum of |terms| / ||f||, node count), one piece at a time."""
    out = []
    for test in tests:
        assert test.condition_residual(g, bc) <= 1e-8
        acc, size, norm_sq, nodes = 0.0j, 0.0, 0.0, 0
        for eid, t0, t1, f, d2 in _reference_pieces(g, test):
            cuts = None
            if cut_meshes:
                cuts = np.unique(np.concatenate([edge_grid(g, eid, h) for h in cut_meshes]))
            ts, ws = _panels(t0, t1, cuts)
            hf = -d2(ts)
            if potential is not None:
                hf = hf + potential.evaluate(eid, ts) * f(ts)
            terms = ws * (hf - lam * f(ts)) * np.conj(phi.evaluate(eid, ts))
            acc += np.sum(terms)
            size += float(np.sum(np.abs(terms)))
            nodes += ts.size
            tn, wn = _gauss(t0, t1, _GL24)
            norm_sq += float(np.sum(wn * np.abs(f(tn)) ** 2))
        out.append((abs(acc) / math.sqrt(norm_sq), size / math.sqrt(norm_sq), nodes))
    return out


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def _general_lp_star():
    """5-ray star: complex rank-2 P and L on ker P at the centre; mixed tips."""
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


def _grid4():
    """4x4 Kirchhoff lattice, lengths in [1, 1.4]."""
    rng = np.random.default_rng(11)
    vid = [[f"v{r}{c}" for c in range(4)] for r in range(4)]
    pairs = [(vid[r][c], vid[r][c + 1]) for r in range(4) for c in range(3)]
    pairs += [(vid[r][c], vid[r + 1][c]) for r in range(3) for c in range(4)]
    lengths = rng.uniform(1.0, 1.4, len(pairs))
    edges = tuple(Edge(f"e{k:02d}", float(lengths[k]), a, b) for k, (a, b) in enumerate(pairs))
    g = MetricGraph(tuple(v for row in vid for v in row), edges, 1.0)
    return g, uniform_bc(g, "kirchhoff")


def _cases():
    """(name, g, bc, exact modes, grid modes, potential, mesh)."""
    out = []
    g = interval_graph(math.pi)
    bc = uniform_bc(g, "dirichlet")
    rep = DiscreteSpectralRep.from_secular(g, bc, eigenvalue_scan(g, bc, 0.5, 30.0, num=300), 0.02)
    out.append(("dirichlet-interval", g, bc, rep, None, None, 0.02))
    g, bc = _general_lp_star()
    C = boundary.coercivity_constant(boundary.require_valid_bc(g, bc), g.u).C
    rep = DiscreteSpectralRep.from_secular(g, bc, eigenvalue_scan(g, bc, 0.5 - C - 1.0, 25.0, num=600), 0.01)
    out.append(("general-lp-star", g, bc, rep, None, None, 0.01))
    g, bc = _grid4()
    V = parse_potential_expr("well:e05,0.2,0.8,3.0", g, 0.05)
    es = eigensystem(assemble_perturbed(assemble(g, bc, 0.05), V), 6)
    rep = DiscreteSpectralRep.from_secular(g, bc, eigenvalue_scan(g, bc, -0.25, 4.0, num=200), 0.05)
    out.append(("grid4-well", g, bc, rep, es, V, 0.05))
    return out


CASES = _cases()


@pytest.mark.parametrize("name,g,bc,rep,es,V,h", CASES, ids=[c[0] for c in CASES])
def test_compiled_battery_matches_reference_loop(name, g, bc, rep, es, V, h):
    tests = standard_test_battery(g, bc)
    exact = [m.exact for m in rep.modes]
    lams = [m.lam for m in rep.modes]
    pot_mesh = (V.h_max,) if V is not None else ()
    runs = [([m.phi for m in rep.modes], lams, (h,))]
    if V is None:
        # exact modes (Green's identity) score rounding noise, so random
        # solutions at shifted energies, which break the vertex conditions,
        # also meet the reference loop on residuals of order 1
        rng = np.random.default_rng(5)
        shifted = [lam + 0.75 for lam in lams]
        x = rng.standard_normal((len(lams), 2 * len(g.edges))) + 1j * rng.standard_normal((len(lams), 2 * len(g.edges)))
        runs += [(exact, lams, ()), ([SecularSolution(g, lam, xk) for lam, xk in zip(shifted, x)], shifted, ())]
    if es is not None:
        runs.append((es.grid_functions(), list(es.eigenvalues), (h,)))
    assert all(len(phis) >= 3 for phis, _, _ in runs)
    for phis, energies, cuts in runs:
        got = compile_battery(g, bc, potential=V).residual_matrix(phis, energies)
        assert got.shape == (len(tests), len(phis))
        for m, (phi, lam) in enumerate(zip(phis, energies)):
            ref = reference_residuals(g, bc, tests, phi, lam, V, cuts + pot_mesh)
            for i, (r, size, n) in enumerate(ref):
                # Both sides sum the same n terms x_j = w (Hf - lambda f) conj(phi),
                # in different orders.  Any order of summation is off the exact
                # sum by at most gamma_n sum |x_j|, gamma_n = n u / (1 - n u),
                # u = 2^-53 (Higham, Accuracy and Stability, sec. 4.2; for
                # complex terms apply it to the real and imaginary parts and
                # join them by Minkowski's inequality), so the two sums differ
                # by 2 gamma_n sum |x_j|.  Each x_j is also a product of four
                # factors (w, f'' or lambda f, conj phi) that the two sides form
                # in different orders and from different formulas for f, about
                # 4u per side.  Divided by ||f||: (2 gamma_n + 8u) size.
                # Dividing by the two computed ||f|| is inside 1e-9 r.
                u = 2.0**-53
                gamma_n = n * u / (1.0 - n * u)
                assert abs(got[i, m] - r) <= 1e-9 * r + (2.0 * gamma_n + 8.0 * u) * size, (tests[i].label, m)


def test_perturbed_report_checks_battery_once(monkeypatch):
    g, bc = _grid4()
    V = parse_potential_expr("well:e05,0.2,0.8,3.0", g, 0.05)
    es = eigensystem(assemble_perturbed(assemble(g, bc, 0.05), V), 4)
    n_tests = len(standard_test_battery(g, bc))
    builds, checks, evals = [], [], []
    build = expansion.standard_test_battery
    monkeypatch.setattr(expansion, "standard_test_battery", lambda *a: builds.append(1) or build(*a))
    for cls in (expansion.BumpTest, expansion.StarTest):
        check = cls.condition_residual
        monkeypatch.setattr(cls, "condition_residual", lambda t, *a, check=check: checks.append(t.label) or check(t, *a))
    evaluate = GridFunction.evaluate
    monkeypatch.setattr(GridFunction, "evaluate", lambda f, *a: evals.append(1) or evaluate(f, *a))
    rep = perturbed_eigen_report(g, bc, V, es)
    assert len(rep.modes) == 4
    assert len(builds) == 1
    assert len(checks) == n_tests and len(set(checks)) == n_tests
    assert evals == []  # nodal modes enter only through their data


def _refusal_case(kind):
    """(battery, modes, energies) of one mode list that residual_matrix refuses."""
    [(_, g, bc, rep, _, _, h)] = [c for c in CASES if c[0] == "general-lp-star"]
    modes = rep.modes[:3]
    exact, nodal, lams = [m.exact for m in modes], [m.phi for m in modes], [m.lam for m in modes]
    if kind == "exact-away-from-its-energy":
        return compile_battery(g, bc), exact, [lam + 0.75 for lam in lams]
    if kind == "exact-against-a-potential":
        V = parse_potential_expr("const:1.0", g, h)
        return compile_battery(g, bc, potential=V), exact, lams
    if kind == "mixed":
        return compile_battery(g, bc), nodal + exact, lams + lams
    coarse = [GridFunction.from_callable(g, 2.0 * h, m.exact.evaluate) for m in modes]
    return compile_battery(g, bc), nodal + coarse, lams + lams


@pytest.mark.parametrize("kind", ["exact-away-from-its-energy", "exact-against-a-potential", "mixed", "two-meshes"])
def test_residual_matrix_refuses_other_mode_lists(kind):
    battery, phis, lams = _refusal_case(kind)
    with pytest.raises(ValueError, match="own energies"):
        battery.residual_matrix(phis, lams)


def _summed_norm(g, test):
    """||f|| by a 24-point Gauss rule on the sum of a test's pieces, split at every kink of every edge."""
    pieces = _reference_pieces(g, test)
    norm_sq = 0.0
    for e in g.edges:
        mine = [p for p in pieces if p[0] == e.id]
        kinks = np.unique([0.0, e.length] + [t for p in mine for t in p[1:3]])
        for lo, hi in zip(kinks[:-1], kinks[1:]):
            t, w = _gauss(lo, hi, _GL24)
            f = sum(np.where((t > t0) & (t < t1), fn(t), 0.0) for _, t0, t1, fn, _ in mine)
            norm_sq += float(np.sum(w * np.abs(f) ** 2))
    return math.sqrt(norm_sq)


def _norm_cases():
    out = [(name, g, bc) for name, g, bc, *_ in CASES]
    for loop_len, edge_len in ((2.0, 2.0), (1.0, 3.0)):
        g = loop_edge_graph(loop_len, edge_len)
        out += [(f"loop-{loop_len:g}-{edge_len:g}-{kind}", g, uniform_bc(g, kind, alpha)) for kind, alpha in
                (("kirchhoff", None), ("delta", -1.5))]
    return out


NORM_CASES = _norm_cases()


@pytest.mark.parametrize("name,g,bc", NORM_CASES, ids=[c[0] for c in NORM_CASES])
def test_battery_norms_are_those_of_the_summed_tests(name, g, bc):
    # on a loop both ramps of a star test lie on one edge: the norm is that of their sum
    battery = compile_battery(g, bc)
    summed = np.array([_summed_norm(g, test) for test in battery.tests])
    assert np.all(np.abs(battery.norms - summed) <= 1e-13 * summed)


def test_exact_modes_need_no_gauss_node(monkeypatch):
    [(_, g, bc, rep, _, _, _)] = [c for c in CASES if c[0] == "general-lp-star"]

    def no_panels(*args):
        raise AssertionError("Gauss panels built")

    monkeypatch.setattr(expansion, "_gl_panels", no_panels)
    battery = compile_battery(g, bc)
    reports = battery.residuals([m.exact for m in rep.modes], [m.lam for m in rep.modes])
    assert max(r.max_residual for r in reports) < 1e-10
    m = rep.modes[0]
    assert generalized_eigenfunction_residual(g, bc, m.exact, m.lam).max_residual < 1e-10
    with pytest.raises(AssertionError, match="Gauss panels built"):  # the nodal path does build them
        battery.residuals([m.phi], [m.lam])


def _within_reference_bound(got, r, size, n):
    """The bound of test_compiled_battery_matches_reference_loop, which derives it."""
    u = 2.0**-53
    return abs(got - r) <= 1e-9 * r + (2.0 * n * u / (1.0 - n * u) + 8.0 * u) * size


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10_000), st.booleans())
def test_random_stars_meet_the_reference_loop(rays, seed, with_potential):
    # rays in [u, 2u], a random rank-r P and Hermitian L on ker P up to norm 100,
    # mixed tips; random nodal modes on one mesh, a potential on another
    rng = np.random.default_rng(seed)
    tips = tuple(f"t{i}" for i in range(rays))
    edges = tuple(Edge(f"e{i}", float(rng.uniform(1.0, 2.0)), "c", tip) for i, tip in enumerate(tips))
    g = MetricGraph(("c",) + tips, edges, 1.0)
    Q, _ = np.linalg.qr(rng.standard_normal((rays, rays)) + 1j * rng.standard_normal((rays, rays)))
    r = int(rng.integers(0, rays + 1))
    G = rng.standard_normal((rays - r, rays - r)) + 1j * rng.standard_normal((rays - r, rays - r))
    G = (G + G.conj().T) * rng.uniform(0.0, 100.0) / max(np.linalg.norm(G + G.conj().T, 2), 1e-300)
    conds = {"c": (Q[:, r:] @ G @ Q[:, r:].conj().T, Q[:, :r] @ Q[:, :r].conj().T)}
    for tip in tips:
        kind = ("dirichlet", "neumann", "delta")[int(rng.integers(0, 3))]
        conds[tip] = preset(kind, g.star(tip), float(rng.uniform(-1.0, 1.0)) if kind == "delta" else None)
    bc = BoundaryCondition(conds)
    h = float(rng.uniform(0.05, 0.3))
    mesh = Mesh(g, h)
    phis = [GridFunction.on(mesh, rng.standard_normal(mesh.n_nodes) + 1j * rng.standard_normal(mesh.n_nodes))
            for _ in range(3)]
    lams = rng.uniform(-5.0, 50.0, 3).tolist()
    V, cuts = None, (h,)
    if with_potential:
        h_v = h * float(rng.uniform(0.4, 0.9))
        pot_mesh = Mesh(g, h_v)
        V, cuts = potentials.Potential.on(pot_mesh, rng.uniform(-10.0, 10.0, pot_mesh.n_nodes)), (h, h_v)
    battery = compile_battery(g, bc, potential=V)
    got = battery.residual_matrix(phis, lams)
    for m, (phi, lam) in enumerate(zip(phis, lams)):
        ref = reference_residuals(g, bc, battery.tests, phi, lam, V, cuts)
        for i, (res, size, n) in enumerate(ref):
            assert _within_reference_bound(got[i, m], res, size, n), (battery.tests[i].label, m)


def test_relative_bound_samples_once_for_many_a():
    g, bc = _grid4()
    fa = assemble(g, bc, 0.05)
    V = parse_potential_expr("well:e05,0.2,0.8,3.0", g, 0.05)
    C = boundary.coercivity_constant(boundary.require_valid_bc(g, bc), g.u).C
    a_values = [frac * g.u for frac in (0.25, 0.5, 1.0)]
    single = [rb for a in a_values for rb in check_relative_bound(fa, V, [a], C)]
    many = check_relative_bound(fa, V, a_values, C)
    assert many == single  # the same floats, not merely close ones
    with pytest.raises(ValueError):
        check_relative_bound(fa, V, [0.5, 2.0], C)


def test_window_margin_does_not_depend_on_the_mesh():
    g, bc = _grid4()
    C = boundary.coercivity_constant(boundary.require_valid_bc(g, bc), g.u).C
    a_values = [frac * g.u for frac in (0.25, 0.5, 1.0)]
    margins = []
    for h in (0.05, 0.02):
        V = parse_potential_expr("well:e05,0.2,0.8,3.0", g, h)
        margins.append([rb.worst_window_margin for rb in check_relative_bound(assemble(g, bc, h), V, a_values, C)])
    assert margins[0] == margins[1]  # the same floats, not merely close ones


def test_one_mode_residuals_equal_the_battery_bit_for_bit():
    # a one-mode call reuses the pair's cached standard battery, which scores
    # each mode bit for bit as a fresh compile does; a batch of modes goes
    # through one matrix product instead of one per mode, so it agrees to rounding
    case = json.loads((Path(__file__).resolve().parent / "data" / "star_expansion_seed1.json").read_text())["op2"]
    g = graph_from_dict(case["graph"])
    bc = bc_from_mapping(g, case["bc"])
    modes = [sol for hit in eigenvalue_scan(g, bc, -5.0, 40.0) for sol in eigenfunction(g, bc, hit.lam)]
    cached, fresh = compile_battery(g, bc), compile_battery(g, bc, standard_test_battery(g, bc))
    assert len(modes) > 3 and compile_battery(g, bc) is cached is not fresh
    one = [generalized_eigenfunction_residual(g, bc, sol, sol.lam) for sol in modes]
    assert one == [cached.residuals([sol], [sol.lam])[0] for sol in modes]
    assert one == [fresh.residuals([sol], [sol.lam])[0] for sol in modes]
    batch = cached.residual_matrix(modes, [sol.lam for sol in modes])
    assert np.max(np.abs(batch - np.array([[r for _, r in rr.per_test] for rr in one]).T)) <= 4e-15


def _grid4_well_modes(h, k):
    g, bc = _grid4()
    V = parse_potential_expr("well:e05,0.2,0.8,3.0", g, h)
    es = eigensystem(assemble_perturbed(assemble(g, bc, h), V), k)
    return compile_battery(g, bc, potential=V), es.grid_functions(), [float(lam) for lam in es.eigenvalues]


def test_nodal_residuals_are_per_mode():
    # the nodal path contracts the loads with one mode at a time, so no
    # column depends on the other modes, not even by rounding
    battery, phis, lams = _grid4_well_modes(0.05, 6)
    res = battery.residual_matrix(phis, lams)
    assert res.shape == (len(battery.tests), 6) and np.all(res > 0)
    for m, (phi, lam) in enumerate(zip(phis, lams)):
        assert np.array_equal(res[:, m], battery.residual_matrix([phi], [lam])[:, 0]), m


def test_nodal_residual_memory_is_bounded():
    # the Gauss nodes of chi and tau chi are laid out once and no array holds
    # runs x modes: 3.9 MB here, against 12.9 MB for a layout that
    # duplicated the slot nodes and formed every mode's terms at once
    battery, phis, lams = _grid4_well_modes(0.01, 20)
    battery.residual_matrix(phis, lams)
    tracemalloc.start()
    try:
        battery.residual_matrix(phis, lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6, peak
