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
for nodal data.  Each reports the exact minimum of its margin over the
piecewise-linear functions, not a minimum over samples.

A :class:`Potential` is a real :class:`GridFunction`: its samples share the
flat :class:`Mesh` layout of the finite-element nodal vectors, so the
checks read V and the trapezoid weights node by node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse

from .boundary import BoundaryCondition
from .expansion import BumpTest, compile_battery
from .fem import DiscreteEigensystem, FormAssembly, SparseMatrix, _min_eigenvalue, element_matrix
from .functions import GridFunction, read_edge_csv, traces, write_edge_csv
from .graph import EdgeSegment, MetricGraph, ids_from_text, segments


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


def uniform_l2_norm(g: MetricGraph, V: Potential) -> UniformL2Norm:
    """Sliding-window sup of ||V||_{L2} over maximal windows min(2u, l(e)).

    The L2 norm grows with the window, so windows of maximal admissible
    length dominate all shorter ones; sliding them at the step u/10 (the
    windows of :func:`graph.segments`) makes the discrete sup a tight lower
    bound for the true one.
    """
    cums = {e.id: _cumulative_sq(V.values[e.id], V.mesh(e.id)) for e in g.edges}
    if not all(math.isfinite(cum[-1]) for cum in cums.values()):
        raise ValueError("the potential's uniform local L2 norm M_V is not finite: V^2 overflows")
    best = -1.0
    best_seg: EdgeSegment | None = None
    for seg in segments(g, 2.0 * g.u, g.u / 10.0):
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


def _window_margin(n: int, h: float, a: float) -> float:
    """Exact ``min (1 - max_i |f_i|^2)`` over P1 f on n nodes of spacing h with
    ``(a/2)||f'||^2 + (4/a)||f||^2 = 1``.

    For the window's tridiagonal form K_w, the largest ``|f_i|^2 / f* K_w f``
    over f is ``(K_w^-1)_ii``, so the value is ``1 - max_i (K_w^-1)_ii``.
    """
    # each cell adds (a/2) [1 -1; -1 1] / h + (4/a) h [2 1; 1 2] / 6
    d = a / (2.0 * h) + 4.0 * h / (3.0 * a)
    off = 2.0 * h / (3.0 * a) - a / (2.0 * h)
    K_w = np.diag(np.r_[d, np.full(n - 2, 2.0 * d), d]) + off * (np.eye(n, k=1) + np.eye(n, k=-1))
    return 1.0 - float(np.max(np.diag(np.linalg.inv(K_w))))


def check_relative_bound(
    fa: FormAssembly,
    V: Potential,
    a: float | Sequence[float],
    coercivity_C: float,
) -> RelativeBoundReport | list[RelativeBoundReport]:
    """Exact minima of the relative bound over the constrained P1 space.

    worst_margin = min over f with ||f|| = 1 of
        M^2 a q(f,f) + C(a)||f||^2 - ||V f||^2,        C(a) = M^2 (C + 4/a)

    with ||V f||^2 by nodal trapezoid quadrature (the same quadrature that
    defines M), so the chain sup-bound -> window decomposition -> coercivity
    holds exactly for piecewise-linear functions.  The minimum is the lowest
    eigenvalue of ``M^2 a (A - R) + C(a) B - W`` against B, with the
    assembly's stiffness A, boundary R, mass B and constraint map C, and
    ``W = C* diag(w V^2) C`` for the trapezoid weights w.
    Also reports the worst margin of the window inequality
        max_I |f|^2  <=  (a/2)||f'||^2_I + (4/a)||f||^2_I
    over all partition windows I, exactly (see :func:`_window_margin`).

    ``a`` may be a sequence: one report per value comes back, in order, each
    equal to the report of a separate call with that value.
    """
    a_values = list(a) if np.ndim(a) else [a]
    for a_k in a_values:
        if not (0 < a_k <= fa.graph.u):
            raise ValueError(f"a={a_k} must lie in (0, u={fa.graph.u}]")
    if V.grid != fa.grid:
        raise ValueError("potential sampled on a different mesh than the assembly")
    M = uniform_l2_norm(fa.graph, V).M
    W = fa.constrain(scipy.sparse.diags(fa.grid.weights * V.data**2))
    reports = []
    for a_k in a_values:
        C_a = M**2 * (coercivity_C + 4.0 / a_k)
        margin = _min_eigenvalue(M**2 * a_k * (fa.stiffness - fa.boundary) + C_a * fa.mass - W, fa.mass)
        window = min(
            _window_margin(i1 - i0 + 1, h, a_k)
            for e, h, n in zip(fa.graph.edges, fa.grid.widths, np.diff(fa.grid.offsets))
            for i0, i1 in _edge_partition(e.length, a_k, h, n)
        )
        reports.append(RelativeBoundReport(a_k, M, C_a, margin, window))
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
) -> PerturbedReport:
    """Weak residuals of computed eigenpairs of H = H0 + V.

    Interior residual: ``|<f, -phi'' + V phi - lambda phi>| / ||f||`` against
    interior bump tests (weak form, phi and V evaluated by interpolation).
    Vertex residual: trace-condition defect ``||P phi(v)|| + ||L phi(v) +
    (1-P) phi'(v)||`` from grid traces; the conditions of H are those of H0,
    independent of V.
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
        out.append(PerturbedModeReport(lam, float(interior[k]), float(star[k]), vres))
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
        [eid] = ids_from_text((e.id for e in g.edges), [eid_raw], "unknown edge {!r} in potential expression")
        e = g.edge(eid)
        if not (0 <= t0 < t1 <= e.length):
            raise ValueError(f"well window [{t0}, {t1}] outside edge of length {e.length}")

        def fn(edge_id, ts):
            if edge_id != eid:
                return np.zeros_like(ts)
            return np.where((ts >= t0) & (ts <= t1), -depth, 0.0)

        return Potential.from_callable(g, h_max, fn)
    raise ValueError(f"unknown potential expression {expr!r}")
