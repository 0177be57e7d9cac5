"""One benchmark operation per workload, with its output gate.

Each op calls the program the way a one-command user would: from parsed
input documents through the public module functions (or ``cli.main`` for
``grid-potential``).  Calls go through module attributes, so the traced run
sees them.  The gate checks outputs against references computed beforehand;
a reference eigenvalue no root matched is not a failure but a missed root.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from metricgraph import boundary, cli, expansion, functions, graph, secular

import gate
import gen

SCAN_POINTS = 600  # the CLI default --scan-points
MESH_EXPANSION = 0.005
RESIDUAL_TOL = 1e-6  # the CLI default --tol
MARGIN_TOL = -1e-8  # cmd_potential's margin threshold
EIGEN_RTOL = 1e-8


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    roots: int = 0  # distinct roots returned by eigenvalue_scan
    missed: int = 0  # reference eigenvalues in the window no root matched


def _gate_roots(out: Outcome, hits, ref: dict) -> None:
    roots = [h.lam for h in hits for _ in range(h.multiplicity)]
    out.roots = len(hits)
    out.missed, spurious = gate.match_roots(roots, ref["refs"], ref["h_ref"])
    if spurious:
        out.problems.append(f"roots matching no reference eigenvalue: {spurious}")


def star_expansion(case: dict, ref: dict) -> Outcome:
    """The public calls cmd_expansion makes, on the benchmark's scan window."""
    out = Outcome()
    g = graph.graph_from_dict(case["graph"])
    bc = boundary.bc_from_mapping(g, case["bc"])
    g.require_compact("the expansion report")
    const = boundary.coercivity_constant(boundary.require_valid_bc(g, bc), g.u)
    hits = secular.eigenvalue_scan(g, bc, ref["lam_min"], ref["lam_max"], num=SCAN_POINTS)
    _gate_roots(out, hits, ref)
    rep = expansion.DiscreteSpectralRep.from_secular(g, bc, hits, MESH_EXPANSION)
    wf = expansion.build_weight(g, graph.VertexPoint(g.vertices[0]), 1.0)
    C = const.C + 1.0
    expansion.hs_norm_sq(rep, wf.sample(MESH_EXPANSION), C, inverse_sup=wf.inverse_sup)
    coeffs = np.random.default_rng(0).standard_normal(len(rep.modes))
    expansion.parseval(rep, expansion.reconstruct(rep, coeffs.astype(complex)))
    bump = functions.GridFunction.from_callable(
        g, MESH_EXPANSION, lambda eid, ts: (ts * (g.edge(eid).length - ts)).astype(complex)
    )
    expansion.parseval(rep, bump)
    worst = max(
        (expansion.generalized_eigenfunction_residual(g, bc, m.exact, m.lam).max_residual for m in rep.modes),
        default=0.0,
    )
    if not worst <= RESIDUAL_TOL:
        out.problems.append(f"worst eigenfunction residual {worst:.3e} above {RESIDUAL_TOL:.0e}")
    return out


def grid_scan(case: dict, ref: dict) -> Outcome:
    out = Outcome()
    g = graph.graph_from_dict(case["graph"])
    bc = boundary.bc_from_mapping(g, case["bc"])
    hits = secular.eigenvalue_scan(g, bc, ref["lam_min"], ref["lam_max"], num=SCAN_POINTS)
    _gate_roots(out, hits, ref)
    for h in hits:
        secular.eigenfunction(g, bc, h.lam)
    return out


def _compare(out: Outcome, name: str, got: list[float], want: list[float]) -> None:
    bad = [
        (a, b) for a, b in zip(got, want) if not abs(a - b) <= EIGEN_RTOL * max(1.0, abs(b))
    ]
    if len(got) != len(want) or bad:
        out.problems.append(f"{name} eigenvalues differ from the same-mesh reference: {bad or got}")


def grid_potential(case: dict, ref: dict, graph_path: str, bc_path: str) -> Outcome:
    out = Outcome()
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = [
        "potential", "--graph", graph_path, "--bc", bc_path, "--potential", case["potential"],
        "--mesh", str(gen.MESH_POTENTIAL), "--modes", str(gen.MODES_POTENTIAL),
    ]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    if code != 0:
        out.problems.append(f"potential exited {code}: {stderr.getvalue().strip()[-300:]}")
        return out
    report = json.loads(stdout.getvalue())
    margin = min(
        min(rb["worst_margin"], rb["worst_window_margin"]) for rb in report["relative_bound"]
    )
    if not margin >= MARGIN_TOL or not math.isfinite(margin):
        out.problems.append(f"relative-bound margin {margin:.3e} below {MARGIN_TOL:.0e}")
    _compare(out, "unperturbed", report["spectrum"]["unperturbed"], ref["unperturbed"])
    _compare(out, "perturbed", report["spectrum"]["perturbed"], ref["perturbed"])
    return out
