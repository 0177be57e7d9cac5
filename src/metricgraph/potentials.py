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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .boundary import BoundaryCondition
from .expansion import generalized_eigenfunction_residual, standard_test_battery
from .fem import DiscreteEigensystem, FormAssembly, SparseMatrix, element_matrix
from .functions import GridFunction, edge_grid, traces, trapezoid
from .graph import EdgeId, EdgeSegment, MetricGraph


@dataclass(frozen=True)
class Potential:
    """Real nodal samples on the same per-edge grids as :class:`GridFunction`."""

    graph: MetricGraph
    h_max: float
    values: Mapping[EdgeId, np.ndarray]

    def __post_init__(self) -> None:
        for e in self.graph.edges:
            v = np.asarray(self.values[e.id])
            n = edge_grid(self.graph, e.id, self.h_max).size
            if v.shape != (n,):
                raise ValueError(f"edge {e.id!r}: expected {n} samples, got {v.shape}")
            if np.iscomplexobj(v) and np.any(np.abs(v.imag) > 0):
                raise ValueError("potentials must be real-valued")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"edge {e.id!r}: non-finite potential values")

    @classmethod
    def from_callable(cls, g: MetricGraph, h_max: float, fn: Callable[[EdgeId, np.ndarray], np.ndarray]) -> "Potential":
        return cls(g, h_max, {e.id: np.asarray(fn(e.id, edge_grid(g, e.id, h_max)), dtype=float) for e in g.edges})

    @classmethod
    def constant(cls, g: MetricGraph, h_max: float, c: float) -> "Potential":
        return cls.from_callable(g, h_max, lambda eid, ts: np.full_like(ts, c))

    def evaluate(self, edge_id: EdgeId, t: np.ndarray) -> np.ndarray:
        ts = edge_grid(self.graph, edge_id, self.h_max)
        return np.interp(np.asarray(t, dtype=float), ts, np.asarray(self.values[edge_id], dtype=float))


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
    length dominate all shorter ones; sliding them at a step <= u/10 makes
    the discrete sup a tight lower bound for the true one.
    """
    if step is None:
        step = g.u / 10.0
    if step > g.u / 10.0 + 1e-12:
        raise ValueError(f"step={step} too coarse; need step <= u/10 = {g.u / 10.0}")
    best = -1.0
    best_seg: EdgeSegment | None = None
    for e in g.edges:
        ts = edge_grid(g, e.id, V.h_max)
        h = ts[1] - ts[0]
        cum = _cumulative_sq(np.asarray(V.values[e.id]), h)

        def window_norm_sq(a: float, b: float) -> float:
            fa = np.interp(a, ts, cum)
            fb = np.interp(b, ts, cum)
            return float(fb - fa)

        w = min(2.0 * g.u, e.length)
        starts = []
        k = 0
        while k * step <= e.length - w + 1e-12:
            starts.append(k * step)
            k += 1
        if not starts or abs(starts[-1] - (e.length - w)) > 1e-12:
            starts.append(e.length - w)
        for a in starts:
            val = window_norm_sq(a, a + w)
            if val > best:
                best = val
                best_seg = EdgeSegment(e.id, a, a + w)
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
    if V.graph != fa.graph or V.h_max != fa.h_max:
        raise ValueError("potential sampled on a different mesh than the assembly")
    left, h = fa.cells()
    vv = np.concatenate([np.asarray(V.values[e.id], dtype=float) for e in fa.graph.edges])
    v0, v1 = vv[left], vv[left + 1]
    Q_full = element_matrix(
        vv.size, left, h * (3.0 * v0 + v1) / 12.0, h * (v0 + v1) / 12.0, h * (v0 + 3.0 * v1) / 12.0
    )
    return fa.constrain(Q_full)


def assemble_perturbed(fa: FormAssembly, V: Potential) -> FormAssembly:
    vmin = min(float(np.min(v)) for v in V.values.values())
    return fa.with_potential(potential_matrix(fa, V), vmin)


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


def _edge_partition(length: float, a: float) -> list[tuple[float, float]]:
    """Split [0, length] into pieces of length in [a, 2a] (possible as length >= a)."""
    k = max(1, math.ceil(length / (2.0 * a)))
    cuts = np.linspace(0.0, length, k + 1)
    return list(zip(cuts[:-1], cuts[1:]))


def check_relative_bound(
    fa: FormAssembly,
    V: Potential,
    a: float,
    coercivity_C: float,
    n_samples: int = 1000,
    seed: int = 0,
    n_window_samples: int = 10,
) -> RelativeBoundReport:
    """Margins of the relative bound over random admissible functions.

    worst_margin = min over samples of
        M^2 a q(f,f) + C(a)||f||^2 - ||V f||^2,        C(a) = M^2 (C + 4/a)

    with ||V f||^2 by nodal trapezoid quadrature (the same quadrature that
    defines M), so the chain sup-bound -> window decomposition -> coercivity
    holds exactly for the sampled piecewise-linear functions.  Also reports
    the worst margin of the window inequality
        max_I |f|^2  <=  (a/2)||f'||^2_I + (4/a)||f||^2_I
    over a subset of samples and all partition windows.
    """
    if not (0 < a <= fa.graph.u):
        raise ValueError(f"a={a} must lie in (0, u={fa.graph.u}]")
    if V.graph != fa.graph or V.h_max != fa.h_max:
        raise ValueError("potential sampled on a different mesh than the assembly")
    M = uniform_l2_norm(fa.graph, V).M
    C_a = M**2 * (coercivity_C + 4.0 / a)
    rng = np.random.default_rng(seed)
    X = fa.sample_constrained(rng, n_samples)
    q_vals = np.real(np.einsum("ij,ij->j", X.conj(), (fa.stiffness - fa.boundary) @ X))
    mass = np.real(np.einsum("ij,ij->j", X.conj(), fa.mass @ X))
    full = fa.constraint @ X  # nodal values, all samples at once

    vf_sq = np.zeros(n_samples)
    for e in fa.graph.edges:
        ts = edge_grid(fa.graph, e.id, fa.h_max)
        h = ts[1] - ts[0]
        off = fa.edge_offsets[e.id]
        w = np.full(ts.size, h)
        w[0] *= 0.5
        w[-1] *= 0.5
        seg = full[off : off + ts.size, :]
        vv = np.asarray(V.values[e.id], dtype=float)
        vf_sq += np.einsum("i,ij->j", w * vv**2, np.abs(seg) ** 2)

    margins = M**2 * a * q_vals + C_a * mass - vf_sq
    worst = float(np.min(margins))

    # window inequality on a handful of samples; windows snap outward to grid
    # nodes so their length stays >= a, which the estimate needs
    worst_window = math.inf
    for s_idx in range(min(n_window_samples, n_samples)):
        x = full[:, s_idx]
        for e in fa.graph.edges:
            ts = edge_grid(fa.graph, e.id, fa.h_max)
            h = ts[1] - ts[0]
            off = fa.edge_offsets[e.id]
            y = x[off : off + ts.size]
            dsq_cells = np.abs(np.diff(y) / h) ** 2 * h  # exact per-cell integral of |f'|^2
            ysq = np.abs(y) ** 2
            mass_cells = h * (ysq[:-1] + ysq[1:] + np.real(y[:-1] * np.conj(y[1:]))) / 3.0
            for (t0, t1) in _edge_partition(e.length, a):
                i0 = int(math.floor(t0 / h + 1e-9))
                i1 = min(int(math.ceil(t1 / h - 1e-9)), ts.size - 1)
                i1 = max(i1, i0 + 1)
                sup_sq = float(np.max(ysq[i0 : i1 + 1]))
                d_int = float(np.sum(dsq_cells[i0:i1]))
                m_int = float(np.sum(mass_cells[i0:i1]))
                margin = (a / 2.0) * d_int + (4.0 / a) * m_int - sup_sq
                worst_window = min(worst_window, margin)
    return RelativeBoundReport(a, M, C_a, worst, float(worst_window))


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
    battery = standard_test_battery(g, bc)
    interior = [t for t in battery if t.label.startswith("bump")]
    stars = [t for t in battery if t.label.startswith("star")]
    phis = es.grid_functions()
    out = []
    for k, phi in enumerate(phis):
        lam = float(es.eigenvalues[k])
        rep_int = generalized_eigenfunction_residual(g, bc, phi, lam, tests=interior, potential=V)
        rep_star = generalized_eigenfunction_residual(g, bc, phi, lam, tests=stars, potential=V)
        tr = traces(phi)
        vres = 0.0
        for v in g.vertices:
            L, P = bc.L(v), bc.P(v)
            eye = np.eye(P.shape[0])
            vres = max(
                vres,
                float(
                    np.linalg.norm(P @ tr.values[v])
                    + np.linalg.norm(L @ tr.values[v] + (eye - P) @ tr.derivatives[v])
                ),
            )
        wn = None
        if weight is not None:
            num = 0.0
            for e in g.edges:
                h = phi.mesh(e.id)
                ratio = np.abs(np.asarray(phi.values[e.id])) ** 2 / np.asarray(weight.values[e.id]).real ** 2
                num += float(trapezoid(ratio, dx=h))
            wn = math.sqrt(num)
        out.append(
            PerturbedModeReport(lam, rep_int.max_residual, rep_star.max_residual, vres, wn)
        )
    return PerturbedReport(tuple(out))


# ---------------------------------------------------------------------------
# file formats and preset expressions
# ---------------------------------------------------------------------------


def save_potential_csv(V: Potential, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["edge_id", "t", "value"])
        for e in V.graph.edges:
            ts = edge_grid(V.graph, e.id, V.h_max)
            for t, val in zip(ts, np.asarray(V.values[e.id], dtype=float)):
                writer.writerow([e.id, repr(float(t)), repr(float(val))])


def load_potential_csv(path: str | Path, g: MetricGraph, h_max: float) -> Potential:
    rows: dict[str, list[tuple[float, float]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["edge_id", "t", "value"]:
            raise ValueError("potential CSV must start with header edge_id,t,value")
        for rec in reader:
            rows.setdefault(rec[0], []).append((float(rec[1]), float(rec[2])))
    vals = {}
    for e in g.edges:
        got = rows.get(str(e.id))
        if got is None:
            raise ValueError(f"potential CSV has no rows for edge {e.id!r}")
        got.sort(key=lambda p: p[0])
        ts = edge_grid(g, e.id, h_max)
        if len(got) != ts.size or max(abs(t - s) for (t, _), s in zip(got, ts)) > 1e-9:
            raise ValueError(f"potential nodes on edge {e.id!r} do not match the mesh h_max={h_max}")
        vals[e.id] = np.array([v for _, v in got], dtype=float)
    return Potential(g, h_max, vals)


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
