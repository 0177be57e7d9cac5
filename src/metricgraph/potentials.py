"""Potential perturbations: H = H0 + V with V uniformly locally square integrable.

The class of admissible potentials carries the seminorm

    M_V = sup { ||V||_{L2(I)} : I an edge segment with length in [u, 2u] },

approximated by sliding maximal windows along every edge.  For such V the
operator inequality

    ||V f||^2  <=  M^2 a q(f, f) + C(a) ||f||^2,      C(a) = M^2 (C + 4/a),

holds for 0 < a <= u with C the coercivity shift, which makes V an
infinitesimally small perturbation: the coefficient of the form can be made
arbitrarily small at the price of a large constant.  The checks in this
module evaluate both the final inequality and the window-wise sup bound it
rests on, with quadrature chosen so the discrete chain of estimates is exact
for nodal data.

A :class:`Potential` is a real :class:`GridFunction`: its samples share the
flat :class:`Mesh` layout of the finite-element nodal vectors, so the
checks read V, f and the trapezoid weights node by node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .boundary import BoundaryCondition
from .expansion import BumpTest, compile_battery
from .fem import COLUMN_BLOCK, DiscreteEigensystem, FormAssembly, SparseMatrix, column_forms, element_matrix
from .functions import GridFunction, read_edge_csv, traces, write_edge_csv
from .graph import EdgeId, EdgeSegment, MetricGraph, segments


class Potential(GridFunction):
    """A real :class:`GridFunction`: nodal samples of V on its mesh."""

    @staticmethod
    def _cast(data) -> np.ndarray:
        data = np.asarray(data)
        if np.iscomplexobj(data) and np.any(data.imag != 0):
            raise ValueError("potentials must be real-valued")
        return np.asarray(data.real, dtype=float)

    @classmethod
    def constant(cls, g: MetricGraph, h_max: float, c: float) -> "Potential":
        return cls.from_callable(g, h_max, lambda eid, ts: np.full_like(ts, c))


# ---------------------------------------------------------------------------
# the uniform local L2 seminorm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformL2Norm:
    M: float
    segment: EdgeSegment


def _cumulative_sq(v: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid cumulative integral of v^2 at the nodes."""
    y = np.asarray(v, dtype=float) ** 2
    inc = 0.5 * h * (y[1:] + y[:-1])
    return np.concatenate([[0.0], np.cumsum(inc)])


def uniform_l2_norm(g: MetricGraph, V: Potential, step: float | None = None) -> UniformL2Norm:
    """Sliding-window sup of ||V||_{L2} over maximal windows min(2u, l(e)).

    The L2 norm grows with the window, so windows of maximal admissible
    length dominate all shorter ones; sliding them at a step <= u/10 (the
    windows of :func:`graph.segments`) makes the discrete sup a tight lower
    bound for the true one.
    """
    if step is None:
        step = g.u / 10.0
    if step > g.u / 10.0 + 1e-12:
        raise ValueError(f"step={step} too coarse; need step <= u/10 = {g.u / 10.0}")
    cums = {e.id: _cumulative_sq(V.values[e.id], V.mesh(e.id)) for e in g.edges}
    best = -1.0
    best_seg: EdgeSegment | None = None
    for seg in segments(g, 2.0 * g.u, step):
        ts, cum = V.nodes(seg.edge), cums[seg.edge]
        val = float(np.interp(seg.t1, ts, cum) - np.interp(seg.t0, ts, cum))
        if val > best:
            best, best_seg = val, seg
    assert best_seg is not None
    return UniformL2Norm(math.sqrt(max(best, 0.0)), best_seg)


# ---------------------------------------------------------------------------
# perturbed assembly
# ---------------------------------------------------------------------------


def potential_matrix(fa: FormAssembly, V: Potential) -> SparseMatrix:
    """Constrained matrix of the form integral(V f conj(g)).

    Element contributions use the nodal-linear interpolant of V, which keeps
    the matrix Hermitian, reproduces constant shifts exactly and bounds the
    form below by ``min V ||f||^2``.
    """
    if V.grid != fa.grid:
        raise ValueError("potential sampled on a different mesh than the assembly")
    left, h = fa.grid.cells()
    v0, v1 = V.data[left], V.data[left + 1]
    Q_full = element_matrix(
        V.data.size, left, h * (3.0 * v0 + v1) / 12.0, h * (v0 + v1) / 12.0, h * (v0 + 3.0 * v1) / 12.0
    )
    return fa.constrain(Q_full)


def assemble_perturbed(fa: FormAssembly, V: Potential) -> FormAssembly:
    return fa.with_potential(potential_matrix(fa, V), float(np.min(V.data)))


# ---------------------------------------------------------------------------
# relative-bound verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelativeBoundReport:
    a: float
    M: float
    C_a: float
    worst_margin: float
    worst_window_margin: float


def _edge_partition(length: float, a: float, h: float, n: int) -> list[tuple[int, int]]:
    """Split [0, length] into pieces of length in [a, 2a] (possible as length >= a).

    Each piece comes back as the node index bounds (i0, i1) on the edge's
    grid of width h and n nodes, snapped outward so its length stays >= a,
    which the window estimate needs.
    """
    k = max(1, math.ceil(length / (2.0 * a)))
    cuts = np.linspace(0.0, length, k + 1)
    out = []
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        i0 = int(math.floor(t0 / h + 1e-9))
        out.append((i0, max(min(int(math.ceil(t1 / h - 1e-9)), n - 1), i0 + 1)))
    return out


def check_relative_bound(
    fa: FormAssembly,
    V: Potential,
    a: float | Sequence[float],
    coercivity_C: float,
    n_samples: int = 1000,
    seed: int = 0,
    n_window_samples: int = 10,
) -> RelativeBoundReport | list[RelativeBoundReport]:
    """Margins of the relative bound over random admissible functions.

    worst_margin = min over samples of
        M^2 a q(f,f) + C(a)||f||^2 - ||V f||^2,        C(a) = M^2 (C + 4/a)

    with ||V f||^2 by nodal trapezoid quadrature (the same quadrature that
    defines M), so the chain sup-bound -> window decomposition -> coercivity
    holds exactly for the sampled piecewise-linear functions.  Also reports
    the worst margin of the window inequality
        max_I |f|^2  <=  (a/2)||f'||^2_I + (4/a)||f||^2_I
    over a subset of samples and all partition windows.

    ``a`` may be a sequence: the samples and everything that does not depend
    on a are then computed once, and one report per value comes back, in
    order, each equal to the report of a separate call with that value.
    """
    a_values = list(a) if np.ndim(a) else [a]
    for a_k in a_values:
        if not (0 < a_k <= fa.graph.u):
            raise ValueError(f"a={a_k} must lie in (0, u={fa.graph.u}]")
    if V.grid != fa.grid:
        raise ValueError("potential sampled on a different mesh than the assembly")
    M = uniform_l2_norm(fa.graph, V).M
    rng = np.random.default_rng(seed)
    X = fa.sample_constrained(rng, n_samples)
    q_vals = column_forms(fa.stiffness - fa.boundary, X)
    mass = column_forms(fa.mass, X)

    grid = fa.grid
    edges = [(e, grid.edge(e.id), grid.widths[k]) for k, e in enumerate(fa.graph.edges)]
    wv2 = grid.weights * V.data**2
    # nodal values a block of samples at a time, never all of them at once;
    # ||V f||^2 summed edge by edge
    vf_sq = np.zeros(n_samples)
    for j in range(0, n_samples, COLUMN_BLOCK):
        full = fa.constraint @ X[:, j : j + COLUMN_BLOCK]
        for _, rows, _ in edges:
            vf_sq[j : j + COLUMN_BLOCK] += np.einsum("i,ij->j", wv2[rows], np.abs(full[rows]) ** 2)

    # window inequality on a handful of samples, over partitions built once
    windows = [
        [_edge_partition(e.length, a_k, h, rows.stop - rows.start) for a_k in a_values] for e, rows, h in edges
    ]
    worst_window = [math.inf] * len(a_values)
    head = fa.constraint @ X[:, :n_window_samples]
    for x in head.T:
        for (_, rows, h), edge_windows in zip(edges, windows):
            y = x[rows]
            dsq_cells = np.abs(np.diff(y) / h) ** 2 * h  # exact per-cell integral of |f'|^2
            ysq = np.abs(y) ** 2
            mass_cells = h * (ysq[:-1] + ysq[1:] + np.real(y[:-1] * np.conj(y[1:]))) / 3.0
            for k, a_k in enumerate(a_values):
                for i0, i1 in edge_windows[k]:
                    sup_sq = float(np.max(ysq[i0 : i1 + 1]))
                    d_int = float(np.sum(dsq_cells[i0:i1]))
                    m_int = float(np.sum(mass_cells[i0:i1]))
                    margin = (a_k / 2.0) * d_int + (4.0 / a_k) * m_int - sup_sq
                    worst_window[k] = min(worst_window[k], margin)

    reports = []
    for a_k, window in zip(a_values, worst_window):
        C_a = M**2 * (coercivity_C + 4.0 / a_k)
        margins = M**2 * a_k * q_vals + C_a * mass - vf_sq
        reports.append(RelativeBoundReport(a_k, M, C_a, float(np.min(margins)), float(window)))
    return reports if np.ndim(a) else reports[0]


# ---------------------------------------------------------------------------
# perturbed eigenpairs and their residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbedModeReport:
    lam: float
    interior_residual: float
    star_residual: float
    trace_defect: float
    weighted_norm: float | None

    @property
    def vertex_residual(self) -> float:
        return max(self.star_residual, self.trace_defect)


@dataclass(frozen=True)
class PerturbedReport:
    modes: tuple[PerturbedModeReport, ...]

    @property
    def worst_interior(self) -> float:
        return max((m.interior_residual for m in self.modes), default=0.0)

    @property
    def worst_vertex(self) -> float:
        return max((m.vertex_residual for m in self.modes), default=0.0)


def perturbed_eigen_report(
    g: MetricGraph,
    bc: BoundaryCondition,
    V: Potential,
    es: DiscreteEigensystem,
    weight: GridFunction | None = None,
) -> PerturbedReport:
    """Weak residuals of computed eigenpairs of H = H0 + V.

    Interior residual: ``|<f, -phi'' + V phi - lambda phi>| / ||f||`` against
    interior bump tests (weak form, phi and V evaluated by interpolation).
    Vertex residual: trace-condition defect ``||P phi(v)|| + ||L phi(v) +
    (1-P) phi'(v)||`` from grid traces; the conditions of H are those of H0,
    independent of V.  When a weight grid is given, ||phi / w|| is reported
    per mode.
    """
    phis = es.grid_functions()
    lams = [float(lam) for lam in es.eigenvalues]
    battery = compile_battery(g, bc, potential=V, cut_meshes=(es.assembly.h_max, V.h_max))
    res = battery.residual_matrix(phis, lams)
    is_bump = np.array([isinstance(t, BumpTest) for t in battery.tests], dtype=bool)
    interior = np.max(res[is_bump], axis=0, initial=0.0)
    star = np.max(res[~is_bump], axis=0, initial=0.0)
    out = []
    for k, (phi, lam) in enumerate(zip(phis, lams)):
        tr = traces(phi)
        vres = max((bc.vertex_residual(v, tr.values[v], tr.derivatives[v]) for v in g.vertices), default=0.0)
        wn = None
        if weight is not None:
            wn = math.sqrt(float(phi.grid.weights @ (np.abs(phi.data) ** 2 / weight.data.real**2)))
        out.append(PerturbedModeReport(lam, float(interior[k]), float(star[k]), vres, wn))
    return PerturbedReport(tuple(out))


# ---------------------------------------------------------------------------
# file formats and preset expressions
# ---------------------------------------------------------------------------


def save_potential_csv(V: Potential, path: str | Path) -> None:
    write_edge_csv(path, V.grid, {"value": V.data})


def load_potential_csv(path: str | Path, g: MetricGraph, h_max: float) -> Potential:
    grid, cols = read_edge_csv(path, g, h_max, ["value"], "potential")
    return Potential.on(grid, cols[:, 0])


def parse_potential_expr(expr: str, g: MetricGraph, h_max: float) -> Potential:
    """Presets: ``const:c`` everywhere, or ``well:edge,t0,t1,depth`` (value
    -depth on [t0, t1] of one edge, zero elsewhere)."""
    kind, _, rest = expr.partition(":")
    if kind == "const":
        return Potential.constant(g, h_max, float(rest))
    if kind == "well":
        parts = rest.split(",")
        if len(parts) != 4:
            raise ValueError("well potential needs edge,t0,t1,depth")
        eid_raw, t0s, t1s, ds = parts
        t0, t1, depth = float(t0s), float(t1s), float(ds)
        eid = _match_edge_id(g, eid_raw)
        e = g.edge(eid)
        if not (0 <= t0 < t1 <= e.length):
            raise ValueError(f"well window [{t0}, {t1}] outside edge of length {e.length}")

        def fn(edge_id, ts):
            if edge_id != eid:
                return np.zeros_like(ts)
            return np.where((ts >= t0) & (ts <= t1), -depth, 0.0)

        return Potential.from_callable(g, h_max, fn)
    raise ValueError(f"unknown potential expression {expr!r}")


def _match_edge_id(g: MetricGraph, raw: str) -> EdgeId:
    for e in g.edges:
        if str(e.id) == raw:
            return e.id
    raise ValueError(f"unknown edge {raw!r} in potential expression")
