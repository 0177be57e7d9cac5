"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
come; tolerances are fixed here, not tuned elsewhere.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.integrate

from metricgraph import (
    BoundaryCondition,
    DiscreteSpectralRep,
    GridFunction,
    Potential,
    SecularSolution,
    VertexPoint,
    assemble,
    assemble_perturbed,
    build_weight,
    check_coercivity,
    check_relative_bound,
    coercivity_constant,
    cutoff,
    eigenfunction,
    eigensystem,
    eigenvalue_scan,
    generalized_eigenfunction_residual,
    hs_norm_sq,
    norms,
    parseval,
    preset,
    sobolev_check,
    uniform_bc,
    uniform_l2_norm,
    validate_bc,
)
from metricgraph.cli import main
from metricgraph.functions import edge_grid, trapezoid

from conftest import interval_graph, path_graph, spectral_fixture_list, star_graph


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}  {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc} {tail}"


# ---------------------------------------------------------------------------


def test_criterion_01_interval_spectrum():
    t0 = time.time()
    g = interval_graph(math.pi)
    bc = uniform_bc(g, "dirichlet")
    hits = eigenvalue_scan(g, bc, 0.5, 40.0, num=300)
    secular_err = max(abs(h.lam - n**2) for h, n in zip(hits, range(1, 7)))
    h_max = math.pi / 200
    es = eigensystem(assemble(g, bc, h_max), 6)
    fem_ok = all(
        abs(es.eigenvalues[n - 1] - n**2) <= 10 * h_max**2 * max(1, n**2) for n in range(1, 7)
    )
    elapsed = time.time() - t0
    ok = secular_err <= 1e-8 and fem_ok and elapsed < 5.0
    report(
        1,
        "interval spectrum: secular n^2 to 1e-8, FEM within 10 h^2 budget, < 5 s",
        ok,
        f"secular err {secular_err:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_oracle_equivalence_and_order():
    worst_detail = []
    ok = True
    for name, g, bc in spectral_fixture_list():
        hits = eigenvalue_scan(g, bc, -1.0, 110.0, num=800)
        exact = [h.lam for h in hits for _ in range(h.multiplicity)][:10]
        errs = {}
        hs = {}
        for level, h_req in enumerate((1 / 64, 1 / 128)):
            es = eigensystem(assemble(g, bc, h_req), 10)
            h_actual = max(
                float(np.diff(edge_grid(g, e.id, h_req))[0]) for e in g.edges
            )
            hs[level] = h_actual
            errs[level] = np.abs(np.array(exact) - es.eigenvalues)
            for lam, err in zip(exact, errs[level]):
                budget = 10 * h_actual**2 * max(1.0, abs(lam))
                if err > budget:
                    ok = False
                    worst_detail.append(f"{name}: err {err:.2e} > budget {budget:.2e}")
        mask = errs[1] > 1e-11
        orders = np.log(errs[0][mask] / errs[1][mask]) / np.log(hs[0] / hs[1])
        order = float(np.median(orders))
        if not (1.7 <= order <= 2.3):
            ok = False
            worst_detail.append(f"{name}: order {order:.2f}")
        else:
            worst_detail.append(f"{name}: order {order:.2f}")
    report(2, "FEM/secular agree on 5 fixtures, convergence order 2.0 +- 0.3", ok, "; ".join(worst_detail))


def test_criterion_03_sobolev_inequality():
    g = interval_graph(2.0)
    rng = np.random.default_rng(0)
    ts = np.linspace(0, 2, 101)
    basis = np.vstack(
        [np.ones_like(ts), ts]
        + [f(k * math.pi * ts / 2) for k in range(1, 4) for f in (np.cos, np.sin)]
    )
    coef = rng.standard_normal((10_000, basis.shape[0]))
    vals = coef @ basis
    all_hold = True
    for i in range(vals.shape[0]):
        f = GridFunction(g, 0.02, {"e": vals[i].astype(complex)})
        for a in (0.5, 1.0):
            if not sobolev_check(f, "e", a).holds:
                all_hold = False
    const = GridFunction(g, 0.02, {"e": np.full(101, 3.0, dtype=complex)})
    ratios = [sobolev_check(const, "e", a).rhs / sobolev_check(const, "e", a).lhs for a in (0.5, 1.0)]
    sharp = all(abs(r - 2.0) < 1e-12 for r in ratios)
    report(
        3,
        "trace inequality holds for 10^4 random samples; constant attains rhs/lhs = 2",
        all_hold and sharp,
        f"ratios {ratios[0]:.12f}, {ratios[1]:.12f}",
    )


def test_criterion_04_form_lower_bound():
    fixtures = spectral_fixture_list()
    g_delta = star_graph(3)
    bc_delta = BoundaryCondition(
        {
            "c": preset("delta", g_delta.star("c"), -30.0),
            **{f"t{i}": preset("kirchhoff", g_delta.star(f"t{i}")) for i in (1, 2, 3)},
        }
    )
    fixtures = fixtures + [("star3-delta-S10", g_delta, bc_delta)]
    worst = math.inf
    details = []
    for name, g, bc in fixtures:
        S = validate_bc(g, bc)[1]
        const = coercivity_constant(S, g.u)
        margin = check_coercivity(g, bc, const)
        worst = min(worst, margin)
        details.append(f"{name}: S={S:.3g} margin {margin:.2e}")
    report(4, "form + C||f||^2 dominates half the Sobolev norm on all fixtures", worst >= -1e-8, "; ".join(details))


def test_criterion_05_expansion_numbers():
    g = interval_graph(math.pi)
    bc = uniform_bc(g, "dirichlet")
    hits = eigenvalue_scan(g, bc, 0.5, 425.0, num=1200)[:20]
    h_max = math.pi / 400
    rep = DiscreteSpectralRep.from_secular(g, bc, hits, h_max)
    w = GridFunction.ones(g, h_max)
    hs = hs_norm_sq(rep, w, 1.0, inverse_sup=1.0)
    target = (math.pi / math.tanh(math.pi) - 1.0) / 2.0
    hs_ok = target <= hs.total <= target + 1e-2  # the tail is a bound, not an estimate

    f = GridFunction.from_callable(g, h_max, lambda eid, ts: (ts * (math.pi - ts)).astype(complex))
    pr = parseval(rep, f)
    parseval_ok = pr.relative_gap < 1e-4

    worst_resid = max(
        generalized_eigenfunction_residual(g, bc, m.exact, m.lam).max_residual for m in rep.modes
    )
    resid_ok = worst_resid <= 1e-6
    report(
        5,
        "hs_norm^2 bounds (pi coth pi - 1)/2 from above within 1e-2; Parseval gap < 1e-4; residuals <= 1e-6",
        hs_ok and parseval_ok and resid_ok,
        f"hs {hs.total:.6f} vs {target:.6f}, gap {pr.relative_gap:.2e}, resid {worst_resid:.2e}",
    )


def test_criterion_06_vertex_conditions():
    worst = 0.0
    for name, g, bc in spectral_fixture_list():
        for hit in eigenvalue_scan(g, bc, -1.0, 30.0, num=300):
            for sol in eigenfunction(g, bc, hit.lam):
                worst = max(worst, sol.vertex_residual(bc))
    clean_ok = worst <= 1e-8

    g = star_graph(3)
    bc = uniform_bc(g, "kirchhoff")
    lam = math.pi**2
    base = eigenfunction(g, bc, lam)[0]
    broken = base.x.copy()
    broken[g.slot_ends[0][g.edge_index["e1"]]] += 0.5  # e1's value jumps at the center vertex
    kink_resid = generalized_eigenfunction_residual(
        g, bc, SecularSolution(g, lam, broken), lam
    ).max_residual
    kink_ok = kink_resid > 1e-2
    report(
        6,
        "eigenfunction trace residuals <= 1e-8; manufactured kink rejected",
        clean_ok and kink_ok,
        f"worst {worst:.2e}, kink {kink_resid:.2e}",
    )


def test_criterion_07_weight_function():
    g = path_graph(100)
    wf = build_weight(g, VertexPoint(0), 0.5)
    exact = wf.integral_inverse_square()
    brute = sum(
        scipy.integrate.quad(
            lambda t, eid=e.id: float(wf.value_edge(eid, np.array([t]))[0]) ** -2,
            0.0,
            e.length,
            limit=200,
            epsabs=1e-12,
            epsrel=1e-12,
        )[0]
        for e in g.edges
    )
    integral_ok = abs(exact - brute) <= 1e-8
    points_ok = True
    for e in g.edges:
        ts = np.linspace(0.1, 0.9, 5)
        d = wf.distance_edge(e.id, ts)
        if not np.all(wf.value_edge(e.id, ts) >= d**1.5 - 1e-9):
            points_ok = False
    report(
        7,
        "weight: exact integral of w^-2 matches quadrature to 1e-8; w >= d^(1+eps)",
        integral_ok and points_ok,
        f"int {exact:.10f} vs {brute:.10f}",
    )


def test_criterion_08_relative_bound():
    g = interval_graph(math.pi)
    bc = uniform_bc(g, "dirichlet")
    h_max = 0.02
    fa = assemble(g, bc, h_max)
    const = coercivity_constant(0.0, g.u)
    rng = np.random.default_rng(12)
    potentials = {
        "V=1": Potential.constant(g, h_max, 1.0),
        "rough": Potential.from_callable(g, h_max, lambda eid, ts: rng.uniform(-3, 3, ts.shape)),
    }
    worst = math.inf
    details = []
    for name, V in potentials.items():
        M = uniform_l2_norm(g, V).M
        assert M <= 5.0
        for frac in (0.25, 0.5, 1.0):
            [rb] = check_relative_bound(g, bc, V, [frac * g.u], const.C)
            worst = min(worst, rb.worst_margin, rb.worst_window_margin)
        details.append(f"{name}: M={M:.3f}")
    es0 = eigensystem(fa, 6)
    es1 = eigensystem(assemble_perturbed(fa, potentials["V=1"]), 6)
    shift = float(np.max(np.abs(es1.eigenvalues - (es0.eigenvalues + 1.0))))
    report(
        8,
        "relative bound margins >= -1e-8 for a in {u/4, u/2, u}; constant shift exact",
        worst >= -1e-8 and shift <= 1e-8,
        f"{'; '.join(details)}; worst margin {worst:.2e}; shift err {shift:.2e}",
    )


def test_criterion_09_cutoff_core():
    n_edges = 20
    g = path_graph(n_edges)
    x = VertexPoint(0)
    h = 0.02
    s0, r = 3.35, 2.85  # support of f: arc length in [0.5, 6.2]

    def f_fn(eid, ts):
        z = (eid + ts - s0) / r
        return np.where(np.abs(z) < 1, (1 - z**2) ** 3, 0.0).astype(complex)

    f = GridFunction.from_callable(g, h, f_fn)

    def second_diff(gf):
        return {
            e.id: (
                np.asarray(gf.values[e.id])[:-2]
                - 2 * np.asarray(gf.values[e.id])[1:-1]
                + np.asarray(gf.values[e.id])[2:]
            )
            / gf.mesh(e.id) ** 2
            for e in gf.graph.edges
        }

    h0f = second_diff(f)
    seq_f, seq_h = [], []
    sup_d2 = 0.0
    for n in range(1, 11):
        psi = cutoff(g, x, float(n))
        pf = psi.to_grid(h).pointwise(f)
        seq_f.append(norms(pf - f).l2)
        h0pf = second_diff(pf)
        seq_h.append(
            math.sqrt(
                sum(float(trapezoid(np.abs(h0pf[k] - h0f[k]) ** 2, dx=h)) for k in h0f)
            )
        )
        ts = np.linspace(0, 1, 201)
        sup_d2 = max(
            sup_d2,
            max(float(np.max(np.abs(psi.derivative(e.id, ts, order=2)))) for e in g.edges),
        )
    # support radius 6.2: monotone decrease beyond it, and below 1e-6 there
    beyond = list(range(6, 10))  # n = 7..10
    mono = all(seq_f[i] <= seq_f[i - 1] + 1e-12 and seq_h[i] <= seq_h[i - 1] + 1e-12 for i in beyond)
    small = seq_f[6] < 1e-6 and seq_h[6] < 1e-6
    bound = (1 + 4 / g.u) ** 2
    report(
        9,
        "cutoff: products converge once the ball covers the support; |psi''| <= (1+4/u)^2",
        mono and small and sup_d2 <= bound,
        f"final {seq_f[-1]:.1e}/{seq_h[-1]:.1e}, sup|psi''| {sup_d2:.2f} <= {bound:.0f}",
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    bpath = tmp_path / "bc.json"
    gpath.write_text(
        json.dumps(
            {
                "u": 1.0,
                "vertices": ["v", "w"],
                "edges": [{"id": "e", "length": math.pi, "from": "v", "to": "w"}],
            }
        )
    )
    bpath.write_text(json.dumps({"v": "dirichlet", "w": "dirichlet"}))
    commands = {
        "validate": [],
        "spectrum": ["--mesh", "0.05", "--modes", "4"],
        "expansion": ["--mesh", "0.05", "--modes", "4", "--seed", "11", "--weight-base", "v"],
        "potential": ["--potential", "const:0.5", "--mesh", "0.05", "--modes", "4"],
    }
    ok = True
    for cmd, tail in commands.items():
        blobs = []
        for run in (1, 2):
            outdir = tmp_path / f"{cmd}{run}"
            code = main([cmd, "--graph", str(gpath), "--bc", str(bpath), *tail, "--out", str(outdir)])
            capsys.readouterr()
            ok = ok and code == 0
            blobs.append((outdir / f"{cmd}.json").read_bytes())
        ok = ok and blobs[0] == blobs[1]
    report(10, "CLI reports are byte-identical across runs with the same seed", ok)
