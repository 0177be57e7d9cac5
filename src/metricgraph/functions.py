"""Functions on a metric graph, sampled on per-edge uniform grids.

One :class:`Mesh` per (graph, h_max) lays the per-edge grids of width at
most ``h_max`` end to end in one flat node array, with the cell widths and
trapezoid weights.  A :class:`GridFunction` is a mesh plus one flat array of
complex nodal values; the finite-element nodal vectors, the spectral modes
and the potentials (real grid functions) share this layout.
:meth:`Mesh.traces` gives vertex traces in the graph's slot layout: values
and inward derivatives, so the derivative at the far end of an edge carries
a minus sign and the trace does not depend on the orientation.

Also here: the one-dimensional boundary trace inequality

    |h(0)|^2 <= (2/a) ||h||^2_{L2(0,a)} + a ||h'||^2_{L2(0,a)}

evaluated on grid data, and smooth cutoff functions supported on metric balls
whose first two derivatives stay below ``(1 + 4/u)^2``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .graph import (
    INIT,
    EdgeId,
    EdgePoint,
    MetricGraph,
    Point,
    vertex_distances,
)


def edge_grid(g: MetricGraph, edge_id: EdgeId, h_max: float) -> np.ndarray:
    """Uniform nodes 0 = t_0 < ... < t_n = l with h = l/n <= h_max, n >= 2."""
    e = g.edge(edge_id)
    if not e.is_finite:
        raise ValueError(f"edge {edge_id!r} has infinite length; grid functions need finite edges")
    if not (h_max > 0):
        raise ValueError("h_max must be positive")
    n = max(2, int(math.ceil(e.length / h_max - 1e-12)))
    return np.linspace(0.0, e.length, n + 1)


class Mesh:
    """The per-edge grids of one (graph, h_max), laid out as one flat node array.

    Edge k of ``graph.edges`` owns the nodes ``offsets[k]:offsets[k + 1]``,
    in grid order, with width ``widths[k]``; ``weights`` are the trapezoid
    weights of every node.  The finite-element nodal vectors, the data of
    every :class:`GridFunction` and the potentials use this layout.  Two
    meshes of the same graph and ``h_max`` are equal.
    """

    def __init__(self, graph: MetricGraph, h_max: float) -> None:
        grids = [edge_grid(graph, e.id, h_max) for e in graph.edges]
        sizes = np.array([ts.size for ts in grids])
        self.graph, self.h_max = graph, h_max
        self.index = graph.edge_index
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.widths = np.array([ts[1] - ts[0] for ts in grids])
        self.nodes = np.concatenate(grids)
        self.n_nodes = self.nodes.size
        self.weights = np.repeat(self.widths, sizes)
        self.weights[self.offsets[:-1]] *= 0.5
        self.weights[self.offsets[1:] - 1] *= 0.5
        for a in (self.offsets, self.widths, self.nodes, self.weights):
            a.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Mesh) and self.graph == other.graph and self.h_max == other.h_max

    def edge(self, edge_id: EdgeId) -> slice:
        k = self.index[edge_id]
        return slice(self.offsets[k], self.offsets[k + 1])

    @cached_property
    def slot_stencil(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """End node, inward step (+1 or -1) and cell width of every slot (:attr:`MetricGraph.slots`)."""
        ends = [end for v in self.graph.vertices for end in self.graph.star(v).slots]
        k = np.array([self.index[eid] for eid, _ in ends], dtype=int)
        init = np.array([end == INIT for _, end in ends], dtype=bool)
        return np.where(init, self.offsets[k], self.offsets[k + 1] - 1), np.where(init, 1, -1), self.widths[k]

    def traces(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slot arrays of the values and inward derivatives of nodal data ``y``, (nodes,) or (nodes, m).

        The derivative is ``(-3 y_i + 4 y_(i+s) - y_(i+2s)) / (2h)`` from the end node i, s the inward step.
        """
        i, s, h = self.slot_stencil
        h = h.reshape(h.shape + (1,) * (np.ndim(y) - 1))
        return y[i], (-3.0 * y[i] + 4.0 * y[i + s] - y[i + 2 * s]) / (2.0 * h)

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Left node and width of every cell, edge by edge."""
        sizes = np.diff(self.offsets)
        return np.delete(np.arange(self.n_nodes), self.offsets[1:] - 1), np.repeat(self.widths, sizes - 1)

    def interpolate(self, y: np.ndarray, edge_id: EdgeId, t: np.ndarray) -> np.ndarray:
        """Linear interpolation of the flat nodal data ``y`` along one edge."""
        sl = self.edge(edge_id)
        ts, y, t = self.nodes[sl], y[sl], np.asarray(t, dtype=float)
        if np.iscomplexobj(y):
            return np.interp(t, ts, y.real) + 1j * np.interp(t, ts, y.imag)
        return np.interp(t, ts, y)

    def sample(self, fn: Callable[[EdgeId, np.ndarray], np.ndarray]) -> np.ndarray:
        """Flat values of ``fn(edge_id, nodes)``, edge by edge."""
        return np.concatenate([np.asarray(fn(e.id, self.nodes[self.edge(e.id)])) for e in self.graph.edges])


class GridFunction:
    """Complex nodal values on a :class:`Mesh`: the mesh plus one flat array.

    ``GridFunction(graph, h_max, {edge_id: values})`` builds one from per-edge
    arrays, :meth:`on` from flat data.  Sums, multiples and products share
    the mesh of their operands.
    """

    def __init__(self, graph: MetricGraph, h_max: float, values: Mapping[EdgeId, np.ndarray]) -> None:
        grid = Mesh(graph, h_max)
        shapes = [np.shape(values.get(e.id)) for e in graph.edges]
        if shapes != [(n,) for n in np.diff(grid.offsets)]:
            raise ValueError(f"per-edge value shapes {shapes} do not match the mesh's node counts")
        self._set(grid, np.concatenate([values[e.id] for e in graph.edges]))

    def _set(self, grid: Mesh, data: np.ndarray) -> None:
        data = self._cast(data)
        if data.shape != (grid.n_nodes,):
            raise ValueError(f"expected {grid.n_nodes} nodal values, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("non-finite nodal values")
        self.grid, self.data = grid, data
        self.graph, self.h_max = grid.graph, grid.h_max

    @staticmethod
    def _cast(data) -> np.ndarray:
        return np.asarray(data, dtype=complex)

    # -- constructors --------------------------------------------------

    @classmethod
    def on(cls, grid: Mesh, data: np.ndarray) -> "GridFunction":
        """The function with flat nodal data ``data`` on ``grid``."""
        f = cls.__new__(cls)
        f._set(grid, data)
        return f

    @classmethod
    def from_callable(
        cls, g: MetricGraph, h_max: float, fn: Callable[[EdgeId, np.ndarray], np.ndarray]
    ) -> "GridFunction":
        grid = Mesh(g, h_max)
        return cls.on(grid, grid.sample(fn))

    @classmethod
    def zeros(cls, g: MetricGraph, h_max: float) -> "GridFunction":
        return cls.from_callable(g, h_max, lambda eid, ts: np.zeros_like(ts))

    @classmethod
    def ones(cls, g: MetricGraph, h_max: float) -> "GridFunction":
        return cls.from_callable(g, h_max, lambda eid, ts: np.ones_like(ts))

    # -- access ----------------------------------------------------------

    @cached_property
    def values(self) -> Mapping[EdgeId, np.ndarray]:
        """Per-edge views of the flat data."""
        return {e.id: self.data[self.grid.edge(e.id)] for e in self.graph.edges}

    def nodes(self, edge_id: EdgeId) -> np.ndarray:
        return self.grid.nodes[self.grid.edge(edge_id)]

    def mesh(self, edge_id: EdgeId) -> float:
        return float(self.grid.widths[self.grid.index[edge_id]])

    def evaluate(self, edge_id: EdgeId, t: np.ndarray) -> np.ndarray:
        """Linear interpolation between nodes."""
        return self.grid.interpolate(self.data, edge_id, t)

    # -- arithmetic (same mesh only) --------------------------------------

    def _binary(self, other: "GridFunction", op) -> "GridFunction":
        if self.grid != other.grid:
            raise ValueError("grid functions live on different meshes")
        return GridFunction.on(self.grid, op(self.data, other.data))

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return self._binary(other, np.add)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return self._binary(other, np.subtract)

    def __mul__(self, scalar: complex) -> "GridFunction":
        return GridFunction.on(self.grid, scalar * self.data)

    __rmul__ = __mul__

    def pointwise(self, other: "GridFunction") -> "GridFunction":
        return self._binary(other, np.multiply)


# ---------------------------------------------------------------------------
# norms and quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Norms:
    l2: float
    deriv_l2: float
    w12: float
    linf: float


# np.trapz is deprecated in favor of np.trapezoid on numpy >= 2
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def norms(f: GridFunction) -> Norms:
    """Trapezoid L2 norm, centered-difference derivative norm, sup of nodes."""
    dy = np.concatenate([np.gradient(f.values[e.id], f.mesh(e.id), edge_order=2) for e in f.graph.edges])
    l2sq = float(f.grid.weights @ np.abs(f.data) ** 2)
    dsq = float(f.grid.weights @ np.abs(dy) ** 2)
    return Norms(math.sqrt(l2sq), math.sqrt(dsq), math.sqrt(l2sq + dsq), float(np.max(np.abs(f.data))))


def inner(f: GridFunction, g: GridFunction) -> complex:
    """L2 pairing <f, g> = integral of f * conj(g), by the trapezoid rule."""
    if f.grid != g.grid:
        raise ValueError("grid functions live on different meshes")
    return complex(np.vdot(g.data, f.grid.weights * f.data))


def _prefix_integral(y: np.ndarray, h: float, a: float) -> float:
    """Trapezoid integral of y over [0, a]; a need not hit a node."""
    k = int(math.floor(a / h + 1e-12))
    k = min(k, y.size - 1)
    total = float(trapezoid(y[: k + 1], dx=h)) if k >= 1 else 0.0
    frac = a - k * h
    if frac > 1e-14 and k + 1 < y.size:
        ya = y[k] + (y[k + 1] - y[k]) * frac / h
        total += 0.5 * frac * float(y[k] + ya)
    return total


@dataclass(frozen=True)
class SobolevCheck:
    lhs: float
    rhs: float
    slack: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + self.slack


def sobolev_check(f: GridFunction, edge_id: EdgeId, a: float) -> SobolevCheck:
    """Evaluate |h(0)|^2 <= (2/a)||h||^2 + a||h'||^2 on the initial piece (0, a)."""
    e = f.graph.edge(edge_id)
    if not (0 < a <= e.length + 1e-12):
        raise ValueError(f"window a={a} exceeds edge length {e.length}")
    a = min(a, e.length)
    y = np.asarray(f.values[edge_id])
    h = f.mesh(edge_id)
    dy = np.gradient(y, h, edge_order=2)
    i0 = _prefix_integral(np.abs(y) ** 2, h, a)
    i1 = _prefix_integral(np.abs(dy) ** 2, h, a)
    lhs = float(np.abs(y[0]) ** 2)
    rhs = (2.0 / a) * i0 + a * i1
    slack = 1e-12 + 10.0 * h * h * max(1.0, rhs)
    return SobolevCheck(lhs, rhs, slack)


# ---------------------------------------------------------------------------
# cutoff functions
# ---------------------------------------------------------------------------


def _smoothstep(s: np.ndarray) -> np.ndarray:
    # C^2 quintic ramp 0 -> 1 on [0, 1]
    s = np.clip(s, 0.0, 1.0)
    return 10.0 * s**3 - 15.0 * s**4 + 6.0 * s**5


def _smoothstep_d1(s: np.ndarray, w: float) -> np.ndarray:
    inside = (s > 0) & (s < 1)
    s = np.clip(s, 0.0, 1.0)
    return np.where(inside, (30.0 * s**2 - 60.0 * s**3 + 30.0 * s**4) / w, 0.0)


def _smoothstep_d2(s: np.ndarray, w: float) -> np.ndarray:
    inside = (s > 0) & (s < 1)
    s = np.clip(s, 0.0, 1.0)
    return np.where(inside, (60.0 * s - 180.0 * s**2 + 120.0 * s**3) / w**2, 0.0)


@dataclass(frozen=True)
class CutoffFunction:
    """Smooth indicator of a metric ball, constant near every vertex.

    Per edge the profile is either constant (0 or 1) or a quintic ramp over a
    window of width min(l(e), u) placed where the edge crosses the ball
    boundary.  ``windows[e]`` holds (t_lo, t_hi, ramp_up) transitions; the
    value is 1 on the side of a window facing the inside of the ball.
    """

    graph: MetricGraph
    center: Point
    radius: float
    levels: Mapping[EdgeId, float]
    windows: Mapping[EdgeId, tuple[tuple[float, float, bool], ...]]

    def value(self, edge_id: EdgeId, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        wins = self.windows.get(edge_id, ())
        if not wins:
            return np.full_like(t, self.levels[edge_id])
        # windows are disjoint and sorted; before the first one the level is
        # where its ramp starts, and a clipped ramp extends constantly past
        # its window, so painting left to right settles every region
        out = np.full_like(t, 0.0 if wins[0][2] else 1.0)
        for (lo, hi, up) in wins:
            s = np.clip((t - lo) / (hi - lo), 0.0, 1.0)
            ramp = _smoothstep(s) if up else 1.0 - _smoothstep(s)
            out = np.where(t >= lo, ramp, out)
        return out

    def derivative(self, edge_id: EdgeId, t: np.ndarray, order: int = 1) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for (lo, hi, up) in self.windows.get(edge_id, ()):
            w = hi - lo
            s = (t - lo) / w
            d = _smoothstep_d1(s, w) if order == 1 else _smoothstep_d2(s, w)
            out = out + (d if up else -d)
        return out

    def to_grid(self, h_max: float) -> GridFunction:
        return GridFunction.from_callable(self.graph, h_max, self.value)

    def derivative_bound(self) -> float:
        """Analytic sup of |psi|, |psi'|, |psi''| over the whole graph."""
        sup = 1.0
        for wins in self.windows.values():
            for (lo, hi, _) in wins:
                w = hi - lo
                sup = max(sup, 1.875 / w, (10.0 / math.sqrt(3.0)) / w**2)
        return sup


def cutoff(g: MetricGraph, x: Point, n: float) -> CutoffFunction:
    """Smooth cutoff for the ball B(x, n), built edge by edge.

    Edges with both ends inside the ball carry the constant 1, edges with
    both ends outside carry 0, and an edge crossing the boundary gets a ramp
    of width w = min(l(e), u) centered where the distance from ``x`` through
    the inside end reaches ``n`` (clipped into the edge).  That placement
    keeps psi = 1 on B(x, n - 2u) and supp psi' inside B(x, n + 2u) \\
    B(x, n - 2u), and the ramp obeys sup(|psi|, |psi'|, |psi''|) <=
    (1 + 4/u)^2.

    If ``x`` sits on an edge whose far ends are both outside the ball, the
    profile there is a plateau around ``x`` with a ramp on each side.
    """
    g.require_valid()
    dv = vertex_distances(g, x)
    levels: dict[EdgeId, float] = {}
    windows: dict[EdgeId, tuple[tuple[float, float, bool], ...]] = {}
    for e in g.edges:
        di = dv[e.init]
        dj = dv[e.end] if e.end is not None else math.inf
        inside_i, inside_j = di <= n, dj <= n
        on_edge = isinstance(x, EdgePoint) and x.edge == e.id
        w = min(e.length, g.u)
        if inside_i and inside_j:
            levels[e.id] = 1.0
        elif not inside_i and not inside_j:
            levels[e.id] = 0.0
            if on_edge and n > 0:
                # plateau around x with a ramp on each side
                lo_c = x.t - n
                hi_c = x.t + n
                lo = _clip_window(lo_c, w, e.length)
                hi = _clip_window(hi_c, w, e.length)
                if lo[1] <= hi[0]:
                    windows[e.id] = ((lo[0], lo[1], True), (hi[0], hi[1], False))
                    levels[e.id] = 0.0
        else:
            # one end inside: ramp down moving away from it
            if inside_i:
                crossing = n - di
                if on_edge:
                    crossing = max(crossing, x.t + n)
                lo, hi = _clip_window(crossing, w, e.length)
                levels[e.id] = 0.0
                windows[e.id] = ((lo, hi, False),)
            else:
                crossing_from_j = n - dj
                if on_edge:
                    crossing_from_j = max(crossing_from_j, (e.length - x.t) + n)
                crossing = e.length - crossing_from_j
                lo, hi = _clip_window(crossing, w, e.length)
                levels[e.id] = 0.0
                windows[e.id] = ((lo, hi, True),)
    return CutoffFunction(g, x, n, levels, windows)


def _clip_window(center: float, w: float, length: float) -> tuple[float, float]:
    lo = min(max(center - w / 2.0, 0.0), length - w)
    return lo, lo + w


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def write_edge_csv(path: str | Path, grid: Mesh, columns: Mapping[str, np.ndarray]) -> None:
    """Rows (edge_id, t, *columns) of flat nodal columns, nodes in grid order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["edge_id", "t", *columns])
        for e in grid.graph.edges:
            sl = grid.edge(e.id)
            for row in zip(grid.nodes[sl], *(col[sl] for col in columns.values())):
                writer.writerow([e.id, *(repr(float(x)) for x in row)])


def read_edge_csv(
    path: str | Path, g: MetricGraph, h_max: float, names: list[str], kind: str
) -> tuple[Mesh, np.ndarray]:
    """The mesh of ``h_max`` and the (nodes x names) columns of a file of :func:`write_edge_csv`.

    Node coordinates must match the mesh to 1e-9.  Every defect of the file
    is a ``ValueError`` whose text starts with ``kind``.
    """
    header = ["edge_id", "t", *names]
    rows: dict[str, list[list[float]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or first[: len(header)] != header:
            raise ValueError(f"{kind} CSV must start with header {','.join(header)}")
        for rec in reader:
            if len(rec) < len(header):
                raise ValueError(
                    f"{kind} CSV line {reader.line_num}: expected {len(header)} fields, got {len(rec)}"
                )
            rows.setdefault(rec[0], []).append([float(x) for x in rec[1 : len(header)]])
    unknown = sorted(set(rows) - {str(e.id) for e in g.edges})
    if unknown:
        raise ValueError(f"{kind} CSV has rows for unknown edge {unknown[0]!r}")
    grid = Mesh(g, h_max)
    out: list[list[float]] = []
    for e in g.edges:
        got = rows.get(str(e.id))
        if got is None:
            raise ValueError(f"{kind} CSV has no rows for edge {e.id!r}")
        got.sort(key=lambda r: r[0])
        ts = grid.nodes[grid.edge(e.id)]
        if len(got) != ts.size or max(abs(r[0] - t) for r, t in zip(got, ts)) > 1e-9:
            raise ValueError(f"{kind} nodes on edge {e.id!r} do not match the mesh h_max={h_max}")
        out += got
    return grid, np.array(out)[:, 1:]


def save_function_csv(f: GridFunction, path: str | Path) -> None:
    """Rows (edge_id, t, re, im), nodes in grid order."""
    write_edge_csv(path, f.grid, {"re": f.data.real, "im": f.data.imag})


def load_function_csv(path: str | Path, g: MetricGraph, h_max: float) -> GridFunction:
    """Read the CSV format written by :func:`save_function_csv`.

    Node coordinates must match the grid implied by ``h_max`` to 1e-9.
    """
    grid, cols = read_edge_csv(path, g, h_max, ["re", "im"], "function")
    return GridFunction.on(grid, cols[:, 0] + 1j * cols[:, 1])
