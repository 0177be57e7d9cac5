"""The compiled weak-residual battery against a per-test reference loop."""

import math

import numpy as np
import pytest

from metricgraph import (
    BoundaryCondition,
    DiscreteSpectralRep,
    Edge,
    GridFunction,
    MetricGraph,
    assemble,
    assemble_perturbed,
    check_relative_bound,
    edge_grid,
    eigensystem,
    eigenvalue_scan,
    parse_potential_expr,
    perturbed_eigen_report,
    preset,
    standard_test_battery,
    uniform_bc,
)
from metricgraph import boundary, expansion, potentials
from metricgraph.expansion import BumpTest, compile_battery
from metricgraph.graph import INIT

from conftest import interval_graph

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
    rho = test.rho
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
    # exact modes score rounding noise, so they also run at a shifted energy
    runs = [(exact, lams, ()), (exact, [lam + 0.75 for lam in lams], ()), ([m.phi for m in rep.modes], lams, (h,))]
    if es is not None:
        runs.append((es.grid_functions(), list(es.eigenvalues), (h,)))
    assert all(len(phis) >= 3 for phis, _, _ in runs)
    for phis, energies, cuts in runs:
        got = compile_battery(g, bc, potential=V, cut_meshes=cuts + pot_mesh).residual_matrix(phis, energies)
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
    assert len(evals) == 4 * len(g.edges)  # one phi evaluation per edge per mode


def test_relative_bound_samples_once_for_many_a():
    g, bc = _grid4()
    fa = assemble(g, bc, 0.05)
    V = parse_potential_expr("well:e05,0.2,0.8,3.0", g, 0.05)
    C = boundary.coercivity_constant(boundary.require_valid_bc(g, bc), g.u).C
    a_values = [frac * g.u for frac in (0.25, 0.5, 1.0)]
    single = [check_relative_bound(fa, V, a, C) for a in a_values]
    many = check_relative_bound(fa, V, a_values, C)
    assert many == single  # the same floats, not merely close ones
    with pytest.raises(ValueError):
        check_relative_bound(fa, V, [0.5, 2.0], C)


def test_relative_bound_partitions_once_per_edge_and_a(monkeypatch):
    g, bc = _grid4()
    fa = assemble(g, bc, 0.05)
    V = parse_potential_expr("well:e05,0.2,0.8,3.0", g, 0.05)
    C = boundary.coercivity_constant(boundary.require_valid_bc(g, bc), g.u).C
    a_values = [frac * g.u for frac in (0.25, 0.5, 1.0)]
    builds = []
    partition = potentials._edge_partition
    monkeypatch.setattr(potentials, "_edge_partition", lambda *a: builds.append(a) or partition(*a))
    check_relative_bound(fa, V, a_values, C)
    assert 0 < len(builds) <= len(g.edges) * len(a_values)
