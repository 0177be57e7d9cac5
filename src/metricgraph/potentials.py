"""Potential perturbations: H = H0 + V with V uniformly locally square integrable.

The class of admissible potentials carries the seminorm

    M_V = sup { ||V||_{L2(I)} : I an edge segment with length in [u, 2u] },

the exact maximum over the window positions on every edge.  For such V the
operator inequality

    ||V f||^2  <=  M^2 a q(f, f) + C(a) ||f||^2,      C(a) = M^2 (C + 4/a),

holds for 0 < a <= u with C the coercivity shift, which makes V an
infinitesimally small perturbation: the coefficient of the form can be made
arbitrarily small at the price of a large constant.  The inequality is
checked on the continuum form with V^2 raised to a piecewise-constant W, as
the lowest eigenvalue of H plus a constant on each piece of W (a shifted
:class:`~metricgraph.secular.SecularSystem`), and the window lemma it rests
on, ``sup_I |f|^2 <= (a/2)||f'||^2_I + (4/a)||f||^2_I`` for |I| in [a, 2a],
by its sharp margin over all of H^1(I), in closed form.

A :class:`Potential` is a real :class:`GridFunction`: its samples share the
flat :class:`Mesh` layout of the finite-element nodal vectors.  The presets
also carry V^2 exactly, which makes M_V and the margins exact for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .boundary import BoundaryCondition
from .expansion import BumpTest, compile_battery
from .fem import DiscreteEigensystem, FormAssembly, SparseMatrix, element_matrix
from .functions import GridFunction, read_edge_csv, write_edge_csv
from .graph import EdgeId, EdgeSegment, MetricGraph, ids_from_text
from .secular import compiled, lowest_eigenvalue


class Potential(GridFunction):
    """A real :class:`GridFunction`: nodal samples of V on its mesh.  A piecewise-constant V also has ``steps``:
    per edge, its breakpoints 0 = s_0 < ... < s_m = l and V^2 on each piece."""

    steps: Mapping[EdgeId, tuple[np.ndarray, np.ndarray]] | None = None

    @staticmethod
    def _cast(data) -> np.ndarray:
        data = np.asarray(data)
        if np.iscomplexobj(data) and np.any(data.imag != 0):
            raise ValueError("potentials must be real-valued")
        return np.asarray(data.real, dtype=float)

    @classmethod
    def constant(cls, g: MetricGraph, h_max: float, c: float) -> "Potential":
        return cls.stepwise(g, h_max, lambda eid, ts: np.full_like(ts, c), {})

    @classmethod
    def stepwise(cls, g: MetricGraph, h_max: float, fn: Callable, breaks: Mapping[EdgeId, list]) -> "Potential":
        """The samples of ``fn``, constant between the ``breaks`` of each edge (default: its ends), and its steps."""
        V, cuts = cls.from_callable(g, h_max, fn), {e.id: np.array(breaks.get(e.id, [0.0, e.length])) for e in g.edges}
        with np.errstate(over="ignore"):  # an overflow makes M_V infinite, an input error
            V.steps = {eid: (s, fn(eid, 0.5 * (s[1:] + s[:-1])) ** 2) for eid, s in cuts.items()}
        return V

    def squares(self, run: float) -> Mapping[EdgeId, tuple[np.ndarray, np.ndarray]]:
        """A piecewise-constant W >= V^2 as ``steps``: these, or the largest nodal V^2 (V^2 is convex on a cell) on
        each of floor(l / run) runs of cells, about ``run`` or more long, which bound D's order."""
        if self.steps is not None:
            return self.steps
        out = {}
        for e in self.graph.edges:
            ts, v2 = self.nodes(e.id), self.values[e.id] ** 2
            ends = np.unique(np.linspace(0, ts.size - 1, max(1, int(e.length / run)) + 1).astype(int))
            out[e.id] = ts[ends], np.maximum(np.maximum.reduceat(v2[:-1], ends[:-1]), v2[ends[1:]])
        return out


# ---------------------------------------------------------------------------
# the uniform local L2 seminorm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformL2Norm:
    M: float
    segment: EdgeSegment


def uniform_l2_norm(g: MetricGraph, V: Potential) -> UniformL2Norm:
    """Exact max of ||V||_{L2} over the windows of length w = min(2u, l(e)).

    Windows of maximal admissible length dominate all shorter ones, as V^2 >= 0.
    With ``cum`` the cumulative integral of V^2 (exact for ``steps``, else by
    the trapezoid rule), linear between breakpoints or nodes t_i,
    ``cum(t0 + w) - cum(t0)`` is piecewise linear in t0 with kinks only where
    t0 or t0 + w meets a t_i, so its max over [0, l - w] is at one of the
    starts ``t_i`` or ``t_i - w``, clipped to that range.
    """
    best = -1.0
    best_seg: EdgeSegment | None = None
    for e in g.edges:
        ts, v2 = (V.nodes(e.id), V.values[e.id]) if V.steps is None else V.steps[e.id]
        if V.steps is None:  # the trapezoid rule: on each cell, the mean of V^2 at its ends
            with np.errstate(over="ignore"):  # reported below as an input error
                v2 = 0.5 * (v2[1:] ** 2 + v2[:-1] ** 2)
        cum = np.concatenate([[0.0], np.cumsum(v2 * np.diff(ts))])
        if not math.isfinite(cum[-1]):
            raise ValueError("the potential's uniform local L2 norm M_V is not finite: V^2 overflows")
        w = min(2.0 * g.u, e.length)
        starts = np.clip(np.concatenate([ts, ts - w]), 0.0, e.length - w)
        vals = np.interp(starts + w, ts, cum) - np.interp(starts, ts, cum)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, best_seg = float(vals[i]), EdgeSegment(e.id, float(starts[i]), float(starts[i] + w))
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


def check_relative_bound(
    fa: FormAssembly,
    V: Potential,
    a_values: Sequence[float],
    coercivity_C: float,
) -> list[RelativeBoundReport]:
    """One report per a in ``a_values``, in order.

    worst_margin = min over f in the form domain with ||f|| = 1 of
        M^2 a q(f,f) + C(a)||f||^2 - int W |f|^2,        C(a) = M^2 (C + 4/a),

    for the W >= V^2 of :meth:`Potential.squares`, so a margin >= 0 proves
    the bound: the continuum minimum for the presets (W = V^2), a lower bound
    of it for nodal data.  For M > 0 it is M^2 a lambda_1(H + c), c = (C +
    4/a - W / M^2) / a on each piece of W, lambda_1 read from below by
    :func:`lowest_eigenvalue` on the system of W's pieces (compiled once; c
    changes with a) from ``1/2 - C + min c - 1``, below it by coercivity; M = 0 gives 0.

    worst_window_margin is the window lemma's sharp margin over H^1 of the
    shortest window, ``1 - coth(k l) / sqrt(2)`` with k = sqrt(8)/a: at unit
    form value the largest |f(x)|^2 is the diagonal of the form's Neumann
    Green's function, ``cosh(k x) cosh(k (l - x)) / (sqrt(2) sinh(k l))``,
    largest at an end, and the margin grows with l.  Edge e splits into
    ceil(l_e / 2a) equal windows, of length in [a, 2a] as l_e >= u >= a,
    each inside a window of length min(2u, l_e) that M covers.
    """
    if bad := [a for a in a_values if not 0 < a <= fa.graph.u]:
        raise ValueError(f"a={bad[0]} must lie in (0, u={fa.graph.u}]")
    if V.grid != fa.grid:
        raise ValueError("potential sampled on a different mesh than the assembly")
    g, M = fa.graph, uniform_l2_norm(fa.graph, V).M
    by_edge = V.squares(min(a_values, default=g.u))  # runs as long as the smallest a
    squares = [by_edge[e.id] for e in g.edges]
    W, system = np.concatenate([w2 for _, w2 in squares]), compiled(g, fa.bc)
    pieces = system.cut(tuple(tuple((s[1:-1] / e.length).tolist()) for e, (s, _) in zip(g.edges, squares)))
    reports = []
    for a in a_values:
        C_a, margin = M**2 * (coercivity_C + 4.0 / a), 0.0
        if M > 0:
            c = (coercivity_C + 4.0 / a - W / M**2) / a
            margin = M**2 * a * lowest_eigenvalue(pieces.shifted(c), 0.5 - coercivity_C + float(np.min(c)) - 1.0)
        shortest = float(np.min(system.lengths / np.ceil(system.lengths / (2.0 * a))))
        window = 1.0 - 1.0 / (math.sqrt(2.0) * math.tanh(math.sqrt(8.0) * shortest / a))
        reports.append(RelativeBoundReport(a, M, C_a, margin, window))
    return reports


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
    interior bump tests (weak form: V interpolated at the Gauss nodes, the
    P1 modes paired with the tests through their load vectors one mode at a
    time, see :meth:`CompiledBattery.residual_matrix`).
    Vertex residual: trace-condition defect ``||P phi(v)|| + ||L phi(v) +
    (1-P) phi'(v)||``, the worst over the vertices, from the grid traces of
    all modes at once (:meth:`Mesh.traces`, :meth:`BoundaryCondition.worst_residual`);
    the conditions of H are those of H0, independent of V.  The modes are
    stacked once, for the traces; the residuals read each mode's own data.
    """
    phis = es.grid_functions()
    lams = [float(lam) for lam in es.eigenvalues]
    battery = compile_battery(g, bc, potential=V)
    res = battery.residual_matrix(phis, lams)
    is_bump = np.array([isinstance(t, BumpTest) for t in battery.tests], dtype=bool)
    interior = np.max(res[is_bump], axis=0, initial=0.0)
    star = np.max(res[~is_bump], axis=0, initial=0.0)
    Phi = np.stack([phi.data for phi in phis], axis=1)
    defect = bc.worst_residual(g, *es.assembly.grid.traces(Phi))
    return PerturbedReport(tuple(map(PerturbedModeReport, lams, interior.tolist(), star.tolist(), defect.tolist())))


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

        return Potential.stepwise(g, h_max, fn, {eid: sorted({0.0, t0, t1, e.length})})
    raise ValueError(f"unknown potential expression {expr!r}")
