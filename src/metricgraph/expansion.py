"""Eigenfunction expansion machinery for discrete spectra on compact graphs.

Three ingredients:

* a weight built from ball volumes, ``w(x) = m(B(x0, d(x, x0) + 1))^(1+eps)``
  clamped below by 1, whose inverse is square integrable;
* the spectral representation of the operator as a list of modes
  ``(j, lambda, phi)`` with multiplicity level sets ``M_j`` and counting
  spectral measure, supporting Fourier coefficients, reconstruction and
  Parseval bookkeeping with explicit truncation tails;
* weak-form residual checks certifying that a candidate function is a
  generalized eigenfunction: ``<H f, phi> = lambda <f, phi>`` against a
  battery of compactly supported test functions that satisfy the vertex
  conditions by construction.

Every truncated sum reports its tail estimate; nothing is dropped silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .boundary import BoundaryCondition, lp_mixing
from .functions import GridFunction, Mesh, _smoothstep, _smoothstep_d1, _smoothstep_d2, edge_grid, inner
from .graph import (
    INIT,
    EdgeId,
    MetricGraph,
    Point,
    VertexId,
    VertexPoint,
    distance_pieces,
    edge_distance,
    is_connected,
    vertex_distances,
)
from .secular import RankAnomaly, SecularEigenvalue, SecularSolution, SecularSystem, eigenfunction

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)
CONDITION_TOL = 1e-8  # vertex-condition residual of a test, relative to max(1, ||L_v||)


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightFunction:
    """Ball-volume weight around a base point, continuous and >= 1.

    ``value = max(1, vol(d + 1))^(1+eps)`` where ``d`` is the distance to the
    base point and ``vol`` the ball-volume profile.  The profile is the sum
    of the ramps ``clip(r - start, 0, length)`` over the distance pieces
    (:func:`graph.distance_pieces`), so it is piecewise linear with knots at
    the piece ends; it is stored at those knots and interpolated.  On a
    connected graph ``vol(r) >= min(r, total length)``, which makes
    ``w(x) >= d(x,x0)^(1+eps)`` pointwise and ``1/w^2`` integrable.
    """

    graph: MetricGraph
    base: Point
    eps: float
    _vdist: Mapping[VertexId, float]
    _starts: np.ndarray
    _lengths: np.ndarray
    _radii: np.ndarray
    _volumes: np.ndarray

    # -- evaluation -------------------------------------------------------

    def ball_volume(self, r) -> np.ndarray:
        return np.interp(np.asarray(r, dtype=float), self._radii, self._volumes)

    def distance_edge(self, edge_id: EdgeId, t: np.ndarray) -> np.ndarray:
        return edge_distance(self.graph.edge(edge_id), self._vdist, self.base, np.asarray(t, dtype=float))

    def value_edge(self, edge_id: EdgeId, t: np.ndarray) -> np.ndarray:
        vol = self.ball_volume(self.distance_edge(edge_id, t) + 1.0)
        return np.maximum(vol, 1.0) ** (1.0 + self.eps)

    def value(self, x: Point) -> float:
        if isinstance(x, VertexPoint):
            d = self._vdist[x.vertex]
            return float(np.maximum(self.ball_volume(d + 1.0), 1.0) ** (1.0 + self.eps))
        return float(self.value_edge(x.edge, np.array([x.t]))[0])

    def sample(self, h_max: float) -> GridFunction:
        return GridFunction.from_callable(self.graph, h_max, self.value_edge)

    @property
    def inverse_sup(self) -> float:
        """sup of 1/w; the weight is smallest at the base point."""
        return 1.0 / self.value(self.base)

    # -- exact integration of w^p ----------------------------------------

    def integral_inverse_square(self) -> float:
        """integral of w^-2 over the graph, by the coarea formula.

        The distance pieces push Lebesgue measure forward to d vol, so the
        integral is ``int f(r) dvol(r)`` with ``f(r) = max(1, vol(r + 1))^(-2-2eps)``.
        Between consecutive points of K and K - 1, K the knots of vol, both
        vol(r) and vol(r + 1) are affine and dvol/dr is the number of pieces
        covering r, so each interval contributes that count times a closed
        form.  The clamp at 1 never switches: on a connected graph
        ``vol(r + 1) >= min(1, total length)`` for r >= 0.
        """
        K = self._radii
        rs = np.unique(np.concatenate([K, K[K > 1.0] - 1.0]))
        lo, hi = rs[:-1], rs[1:]
        mid, ends = 0.5 * (lo + hi), np.sort(self._starts + self._lengths)
        slope = np.searchsorted(np.sort(self._starts), mid) - np.searchsorted(ends, mid)
        vlo, vhi = (np.maximum(self.ball_volume(r + 1.0), 1.0) for r in (lo, hi))
        p = 2.0 + 2.0 * self.eps
        terms = (c * _integrate_affine_power(a, b, h, p) for c, a, b, h in zip(slope, vlo, vhi, hi - lo) if c)
        return float(sum(terms))


def _integrate_affine_power(vlo: float, vhi: float, length: float, p: float) -> float:
    """integral over [0, length] of (vlo + (vhi - vlo) * t/length)^-p."""
    B = (vhi - vlo) / length
    if abs(B) * length < 1e-12 * vlo:
        vm = 0.5 * (vlo + vhi)
        return length * vm ** (-p)
    return (vhi ** (1.0 - p) - vlo ** (1.0 - p)) / (B * (1.0 - p))


def build_weight(g: MetricGraph, x0: Point, eps: float) -> WeightFunction:
    """Weight around x0; requires a connected compact graph."""
    g.require_valid()
    g.require_compact("the ball-volume weight")
    if not is_connected(g):
        raise ValueError("the weight construction assumes a connected graph")
    if eps <= 0:
        raise ValueError("eps must be positive")
    starts, lengths = distance_pieces(g, x0)
    knots = np.unique(np.concatenate([starts, starts + lengths]))
    vols = np.clip(knots[:, None] - starts, 0.0, lengths).sum(axis=1)
    return WeightFunction(g, x0, eps, vertex_distances(g, x0), starts, lengths, knots, vols)


# ---------------------------------------------------------------------------
# discrete spectral representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralMode:
    j: int  # multiplicity layer, 1-based
    lam: float
    phi: GridFunction
    exact: SecularSolution | None = None


@dataclass(frozen=True)
class DiscreteSpectralRep:
    """Ordered spectral data: eigenvalues with multiplicities and modes.

    The spectral measure is counting measure on the eigenvalue list; layer
    sets ``M_j = {lambda : mult(lambda) >= j}`` are nested by construction.
    The nodal values of the modes are the rows of ``Phi`` (modes x nodes) on
    ``grid``; the ``phi`` of each mode is a view of its row.
    """

    grid: Mesh
    eigenvalues: tuple[tuple[float, int], ...]  # (lambda, multiplicity)
    modes: tuple[SpectralMode, ...]
    Phi: np.ndarray

    @property
    def graph(self) -> MetricGraph:
        return self.grid.graph

    @property
    def h_max(self) -> float:
        return self.grid.h_max

    @property
    def n_layers(self) -> int:
        return max((m for _, m in self.eigenvalues), default=0)

    def level_sets(self) -> dict[int, list[float]]:
        return {
            j: [lam for lam, m in self.eigenvalues if m >= j]
            for j in range(1, self.n_layers + 1)
        }

    @classmethod
    def _on(cls, grid: Mesh, eigenvalues, rows, layers) -> "DiscreteSpectralRep":
        """From the nodal rows of the modes (any iterable) and their (j, lambda, exact)."""
        Phi = np.empty((len(layers), grid.n_nodes), dtype=complex)
        for k, row in enumerate(rows):
            Phi[k] = row
        modes = tuple(
            SpectralMode(j, lam, GridFunction.on(grid, row), exact) for (j, lam, exact), row in zip(layers, Phi)
        )
        return cls(grid, tuple(eigenvalues), modes, Phi)

    @classmethod
    def from_secular(
        cls,
        g: MetricGraph,
        bc: BoundaryCondition,
        hits: Sequence[SecularEigenvalue],
        h_max: float,
    ) -> "DiscreteSpectralRep":
        """Modes of the scan hits; an eigenspace whose dimension is not the hit's multiplicity is a RankAnomaly."""
        grid = Mesh(g, h_max)
        system = SecularSystem(g, bc)
        found = []
        for hit in hits:
            sols = eigenfunction(g, bc, hit.lam, system=system)
            if len(sols) != hit.multiplicity:
                raise RankAnomaly(
                    f"M(lambda) has a {len(sols)}-dimensional null space at lambda={hit.lam}, "
                    f"but the eigenvalue count gives multiplicity {hit.multiplicity}"
                )
            found.append((hit.lam, sols))
        layers = [(j, lam, sol) for lam, sols in found for j, sol in enumerate(sols, start=1)]
        rows = (grid.sample(sol.evaluate) for _, _, sol in layers)
        return cls._on(grid, [(lam, len(sols)) for lam, sols in found], rows, layers)

    @classmethod
    def from_fem(cls, es, mult_tol: float = 1e-6) -> "DiscreteSpectralRep":
        """Group a discrete eigensystem into multiplicity clusters."""
        lams = np.asarray(es.eigenvalues, dtype=float)
        eigenvalues: list[tuple[float, int]] = []
        layers = []
        i = 0
        while i < lams.size:
            jmax = i
            while jmax + 1 < lams.size and abs(lams[jmax + 1] - lams[i]) <= mult_tol * max(1.0, abs(lams[i])):
                jmax += 1
            mult = jmax - i + 1
            lam = float(np.mean(lams[i : jmax + 1]))
            eigenvalues.append((lam, mult))
            layers += [(j + 1, lam, None) for j in range(mult)]
            i = jmax + 1
        return cls._on(es.assembly.grid, eigenvalues, es.assembly.nodal_vector(es.vectors).T, layers)


def fourier_coefficients(rep: DiscreteSpectralRep, f: GridFunction) -> np.ndarray:
    """<f, phi_m> for every mode: conj(Phi) (w f), trapezoid weights w of the shared mesh."""
    if f.grid != rep.grid:
        raise ValueError("function mesh does not match the spectral representation")
    return np.conj(rep.Phi @ np.conj(rep.grid.weights * f.data))


def reconstruct(rep: DiscreteSpectralRep, coeffs: np.ndarray) -> GridFunction:
    """sum_m c_m phi_m, as one product Phi^T c."""
    return GridFunction.on(rep.grid, np.asarray(coeffs) @ rep.Phi)


@dataclass(frozen=True)
class ParsevalReport:
    norm_sq: float
    coeff_sq: float

    @property
    def gap(self) -> float:
        return abs(self.norm_sq - self.coeff_sq)

    @property
    def relative_gap(self) -> float:
        return self.gap / self.norm_sq if self.norm_sq > 0 else 0.0


def parseval(rep: DiscreteSpectralRep, f: GridFunction) -> ParsevalReport:
    coeffs = fourier_coefficients(rep, f)
    nsq = float(np.real(inner(f, f)))
    return ParsevalReport(nsq, float(np.sum(np.abs(coeffs) ** 2)))


# ---------------------------------------------------------------------------
# Hilbert-Schmidt bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HilbertSchmidtReport:
    partial: float
    tail: float
    per_mode: tuple[float, ...]

    @property
    def total(self) -> float:
        return self.partial + self.tail


def hs_norm_sq(
    rep: DiscreteSpectralRep,
    weight: GridFunction,
    C: float,
    inverse_sup: float | None = None,
) -> HilbertSchmidtReport:
    """Squared Hilbert-Schmidt norm of (weight multiplication)^-1 (C + H)^-1/2.

    Computed as ``sum_m (C + lambda_m)^-1 ||phi_m / w||^2`` over the modes at
    hand, plus a tail estimate for everything above the highest computed
    energy: each missing mode contributes at most
    ``(C + lambda)^-1 sup(1/w)^2``, and the leading eigenvalue count
    ``N(lambda) ~ total_length sqrt(lambda)/pi`` turns the sum over missing
    modes into an explicit arctangent integral, finite only for C > 0.
    """
    if not rep.modes:
        raise ValueError("spectral representation has no modes")
    if not C > 0:
        raise ValueError(f"the tail bound needs C > 0, got C={C}")
    lam_min = min(lam for lam, _ in rep.eigenvalues)
    if C + lam_min <= 0:
        raise ValueError(f"need C + lambda_min > 0, got C={C}, lambda_min={lam_min}")
    if weight.grid != rep.grid:
        raise ValueError("weight mesh does not match the spectral representation")
    lams = np.array([m.lam for m in rep.modes])
    terms = (np.abs(rep.Phi) ** 2 @ (rep.grid.weights / weight.data.real**2)) / (C + lams)
    if inverse_sup is None:
        inverse_sup = float(np.max(1.0 / np.abs(weight.data)))
    n_modes = len(rep.modes)
    L = rep.graph.total_length
    lam_cut = ((n_modes + 0.5) * math.pi / L) ** 2
    tail = inverse_sup**2 * (L / (math.pi * math.sqrt(C))) * (math.pi / 2.0 - math.atan(math.sqrt(lam_cut / C)))
    return HilbertSchmidtReport(float(np.sum(terms)), float(tail), tuple(terms.tolist()))


def hs_kernel_cross_check(rep: DiscreteSpectralRep, weight: GridFunction, C: float) -> float:
    """Double quadrature of |K|^2 for the integral kernel
    ``K(x, y) = sum_m (C + lambda_m)^-1/2 phi_m(x) / w(x) conj(phi_m(y))`` of
    (1/w) (C + H)^-1/2 truncated to the computed modes; agrees with the mode
    sum when the phi are orthonormal.  The double sum over nodes factors into
    the two weighted Gram matrices of the modes, so no nodes x nodes array is
    formed.
    """
    gammas = np.array([1.0 / math.sqrt(C + m.lam) for m in rep.modes])
    A = gammas[:, None] * rep.Phi / weight.data.real
    w = rep.grid.weights
    return float(np.real(np.sum(((A * w) @ A.conj().T) * np.conj((rep.Phi * w) @ rep.Phi.conj().T))))


# ---------------------------------------------------------------------------
# compactly supported test functions in the operator domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BumpTest:
    """Interior bump ``(1 - s^2)^3`` with ``s = (t - center) / radius`` on one edge.

    It vanishes to second order at ``center +- radius``, inside the edge, so
    it meets every vertex condition trivially.
    """

    label: str
    edge: EdgeId
    center: float
    radius: float

    def condition_residual(self, g: MetricGraph, bc: BoundaryCondition) -> float:
        return 0.0


@dataclass(frozen=True, eq=False)
class StarTest:
    """Star-supported test with trace datum ``(f(v), f'(v)) = (value, deriv)``.

    On slot k of the vertex star it is ``(a_k + b_k tau) chi(tau)`` in the
    inward coordinate tau, with ``a = value``, ``b = deriv`` and chi a C^2
    quintic ramp from 1 to 0 over ``[rho/2, rho]``.  Slots where both
    coefficients vanish carry nothing.
    """

    label: str
    vertex: VertexId
    value: np.ndarray
    deriv: np.ndarray
    rho: float

    def condition_residual(self, g: MetricGraph, bc: BoundaryCondition) -> float:
        return bc.vertex_residual(self.vertex, self.value, self.deriv)

    def active_slots(self) -> np.ndarray:
        return np.flatnonzero((np.abs(self.value) >= 1e-15) | (np.abs(self.deriv) >= 1e-15))


TestFunction = BumpTest | StarTest


def _gl_nodes(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * _GL_NODES, half * _GL_WEIGHTS


def _gl_panels(a: float, b: float, cuts: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes on [a, b], split at any interior cuts (grid kinks)."""
    if cuts is None:
        return _gl_nodes(a, b)
    inner_cuts = cuts[(cuts > a + 1e-14) & (cuts < b - 1e-14)]
    if inner_cuts.size == 0:
        return _gl_nodes(a, b)
    bounds = np.concatenate([[a], inner_cuts, [b]])
    mids = 0.5 * (bounds[1:] + bounds[:-1])
    halves = 0.5 * (bounds[1:] - bounds[:-1])
    ts = (mids[:, None] + halves[:, None] * _GL8_NODES[None, :]).ravel()
    ws = (halves[:, None] * _GL8_WEIGHTS[None, :]).ravel()
    return ts, ws


def _bump_values(t: np.ndarray, center: float, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """(f, f'') of the bump at the nodes t."""
    s = (t - center) / radius
    inside = np.abs(s) < 1.0
    f = np.where(inside, (1.0 - s**2) ** 3, 0.0)
    d2 = np.where(inside, (1.0 - s**2) * (30.0 * s**2 - 6.0) / radius**2, 0.0)
    return f, d2


def _star_values(tau: np.ndarray, a: complex, b: complex, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """(f, f'') of ``(a + b tau) chi(tau)`` at inward coordinates tau."""
    w = rho - rho / 2.0
    s = (tau - rho / 2.0) / w
    chi = 1.0 - _smoothstep(s)
    lin = a + b * tau
    return lin * chi, -2.0 * b * _smoothstep_d1(s, w) - lin * _smoothstep_d2(s, w)


def standard_test_battery(g: MetricGraph, bc: BoundaryCondition) -> list[TestFunction]:
    """One interior bump per edge plus d_v star-supported tests per vertex.

    The star tests realize every admissible trace datum: for each kernel
    basis vector q of P_v the pair ``(f(v), f'(v)) = (q, -(1-P) L q)`` and for
    each range basis vector p the pair ``(0, p)``; both satisfy
    ``P f(v) = 0`` and ``L f(v) + (1-P) f'(v) = 0`` identically.  Where L
    maps ker P into ran P (:func:`boundary.lp_mixing`) the kernel data leave
    the residual ``P L q`` and are dropped.
    """
    tests: list[TestFunction] = []
    for e in g.edges:
        tests.append(BumpTest(f"bump:{e.id}", e.id, 0.5 * e.length, 0.4 * min(e.length, 2.0 * g.u)))
    for v in g.vertices:
        L, P = bc.L(v), bc.P(v)
        d = g.degree(v)
        K, Rb = bc.ker_ran(v)
        data = [] if lp_mixing(L, P) else [(q, P @ (L @ q) - L @ q) for q in K.T]
        data += [(np.zeros(d, dtype=complex), p) for p in Rb.T]
        for idx, (a_vec, b_vec) in enumerate(data):
            test = StarTest(
                f"star:{v}:{idx}", v, np.asarray(a_vec, dtype=complex), np.asarray(b_vec, dtype=complex), 0.45 * g.u
            )
            if test.active_slots().size:
                tests.append(test)
    return tests


# ---------------------------------------------------------------------------
# generalized eigenfunction residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    per_test: tuple[tuple[str, float], ...]


@dataclass(frozen=True, eq=False)
class CompiledBattery:
    """A checked test battery as quadrature data, independent of the mode.

    The Gauss nodes of every test piece: per node its coordinate ``t`` on
    the edge ``edge_of`` (an index into ``graph.edges``), ``hf`` =
    ``w (-f'' + V f)``, ``wf`` = ``w f`` and, in ``owner``, the index of the
    test it belongs to; edge by edge, the nodes of one piece in increasing
    t.  ``value`` and ``deriv`` (tests x slots, :attr:`MetricGraph.slots`)
    hold each test's trace datum (f(v), f'(v)), zero rows for bumps.
    """

    graph: MetricGraph
    tests: tuple[TestFunction, ...]
    potential: GridFunction | None
    t: np.ndarray
    edge_of: np.ndarray
    hf: np.ndarray
    wf: np.ndarray
    owner: np.ndarray
    norms: np.ndarray
    value: np.ndarray
    deriv: np.ndarray

    def with_cuts(self, cut_meshes: Sequence[float]) -> "CompiledBattery":
        """The same checked tests, with panels split at the nodes of other grids."""
        return _quadrature(self.graph, self.tests, self.potential, cut_meshes)

    def residual_matrix(self, phis: Sequence, lams: Sequence[float]) -> np.ndarray:
        """|<H f, phi> - lambda <f, phi>| / ||f||, tests x modes; no mode is evaluated at a Gauss node.

        Exact modes (:class:`SecularSolution`), each at its own energy and
        without potential, solve ``-phi'' = lambda phi`` on every edge, so
        Green's identity leaves only boundary terms: per slot, a test with
        trace datum (a, b) = (f(v), f'(v)) contributes ``b conj(phi(v)) - a
        conj(phi'(v))`` (inward derivatives), and a bump gives 0.  Caveat:
        this path tests the vertex conditions of the modes, not their edge
        functions; those rest on the Wronskian identity of
        :func:`secular.basis_values` and on ``spectrum``'s two-solver check.
        Nodal modes on one mesh meet each test through its P1 load vectors
        (:meth:`_load_sums`).  Any other list raises a ``ValueError``.
        """
        lams = np.asarray(lams, dtype=float)
        own = all(isinstance(phi, SecularSolution) and phi.lam == lam for phi, lam in zip(phis, lams))
        exact = own and self.potential is None
        nodal = all(isinstance(phi, GridFunction) for phi in phis) and all(phi.grid == phis[0].grid for phi in phis)
        if not (exact or nodal) or any(phi.graph != self.graph for phi in phis):
            raise ValueError("modes must be exact at their own energies without potential, or nodal data on one mesh")
        if exact and len(phis):
            value, deriv = (np.conj(np.stack(col, axis=1)) for col in zip(*(phi.trace_values() for phi in phis)))
            sums = self.deriv @ value - self.value @ deriv
        elif self.t.size and len(phis):
            sums = self._load_sums(phis[0].grid, np.stack([phi.data for phi in phis], axis=1), lams)
        else:
            sums = np.zeros((len(self.tests), len(phis)), dtype=complex)
        positive = self.norms > 0
        res = np.zeros(sums.shape)
        res[positive] = np.abs(sums[positive]) / self.norms[positive, None]
        return res

    def _load_sums(self, mesh: Mesh, Phi: np.ndarray, lams: np.ndarray) -> np.ndarray:
        """``(H - lambda F) conj(Phi)`` for the nodal values ``Phi`` (mesh nodes x modes).

        Each Gauss node splits its ``hf`` and ``wf`` onto the two hat
        functions of its mesh cell with the weights ``1 - theta`` and
        ``theta`` of linear interpolation.  The nodes of one test piece run
        along the edge, so the shares of one (test, cell) pair are
        consecutive and merge into one entry of the load matrices H and F.
        """
        t, k = self.t, self.edge_of
        cell = np.clip(np.floor(t / mesh.widths[k]).astype(int), 0, np.diff(mesh.offsets)[k] - 2)
        theta = t / mesh.widths[k] - cell
        left = mesh.offsets[k] + cell
        runs = np.flatnonzero(np.r_[True, (left[1:] != left[:-1]) | (self.owner[1:] != self.owner[:-1])])
        H0, H1, F0, F1 = (np.add.reduceat(x * w, runs) for x in (self.hf, self.wf) for w in (1.0 - theta, theta))
        conj_phi, left = np.conj(Phi), left[runs]
        terms = (H0[:, None] - F0[:, None] * lams) * conj_phi[left]
        terms += (H1[:, None] - F1[:, None] * lams) * conj_phi[left + 1]
        return _sum_by(self.owner[runs], terms, len(self.tests))

    def residuals(self, phis: Sequence, lams: Sequence[float]) -> list[ResidualReport]:
        """One :class:`ResidualReport` per mode (phi, lambda)."""
        labels = [t.label for t in self.tests]
        return [
            ResidualReport(float(np.max(col, initial=0.0)), tuple(zip(labels, col.tolist())))
            for col in self.residual_matrix(phis, lams).T
        ]


def _sum_by(index: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    """Complex column sums of ``terms`` (rows x columns) grouped by the row ``index``, in row order."""
    sums = np.zeros((n, terms.shape[1]), dtype=complex)
    for m, col in enumerate(terms.T):
        sums.real[:, m] = np.bincount(index, col.real, n)
        sums.imag[:, m] = np.bincount(index, col.imag, n)
    return sums


def _pieces(g: MetricGraph, test: TestFunction):
    """(edge, t0, t1, shape) per smooth piece of a test.

    ``shape`` is ``(center, radius)`` for a bump and ``(origin, sign, rho, a,
    b)`` for a star slot, whose inward coordinate is ``tau = origin + sign t``.
    """
    if isinstance(test, BumpTest):
        yield test.edge, test.center - test.radius, test.center + test.radius, (test.center, test.radius)
        return
    rho = test.rho
    slots = g.star(test.vertex).slots
    for k in test.active_slots():
        eid, end = slots[k]
        a, b = test.value[k], test.deriv[k]
        if end == INIT:
            yield eid, 0.0, rho / 2.0, (0.0, 1.0, rho, a, b)
            yield eid, rho / 2.0, rho, (0.0, 1.0, rho, a, b)
        else:
            length = g.edge(eid).length
            yield eid, length - rho, length - rho / 2.0, (length, -1.0, rho, a, b)
            yield eid, length - rho / 2.0, length, (length, -1.0, rho, a, b)


def _quadrature(
    g: MetricGraph, tests: tuple[TestFunction, ...], potential: GridFunction | None, cut_meshes: Sequence[float]
) -> CompiledBattery:
    """Gauss nodes of every piece, values of all pieces of one kind at once."""
    cuts: dict[EdgeId, np.ndarray | None] = {}
    # per (edge, t0, t1): the star tests at a vertex share the pieces of each slot
    panels: dict[tuple[EdgeId, float, float], tuple[np.ndarray, np.ndarray]] = {}
    pieces: dict[bool, list] = {True: [], False: []}  # keyed by "is a bump"
    for i, test in enumerate(tests):
        for eid, t0, t1, shape in _pieces(g, test):
            if eid not in cuts:
                cuts[eid] = (
                    np.unique(np.concatenate([edge_grid(g, eid, hm) for hm in dict.fromkeys(cut_meshes)]))
                    if cut_meshes
                    else None
                )
            if (eid, t0, t1) not in panels:
                panels[eid, t0, t1] = _gl_panels(t0, t1, cuts[eid])
            ts, ws = panels[eid, t0, t1]
            pieces[isinstance(test, BumpTest)].append((g.edge_index[eid], i, ts, ws, shape))
    parts = []  # per kind of test, over all its nodes: edge index, owner, t, w, f, f''
    for is_bump, group in pieces.items():
        if not group:
            continue
        sizes = [p[2].size for p in group]
        t = np.concatenate([p[2] for p in group])
        shape = [np.repeat(np.array(col), sizes) for col in zip(*(p[4] for p in group))]
        if is_bump:
            f, d2 = _bump_values(t, *shape)
        else:
            origin, sign, rho, a, b = shape
            f, d2 = _star_values(origin + sign * t, a, b, rho)
        owners = [np.repeat([p[k] for p in group], sizes) for k in (0, 1)]
        parts.append((*owners, t, np.concatenate([p[3] for p in group]), f, d2))
    empty = (np.zeros(0, dtype=int),) * 2 + (np.zeros(0),) * 2 + (np.zeros(0, dtype=complex),) * 2
    edge_of, owner_idx, t, w, f, d2 = (np.concatenate(col) for col in zip(empty, *parts))
    order = np.argsort(edge_of, kind="stable")  # edge-major, so each edge owns one run of nodes
    edge_of, owner_idx, t, w, f, d2 = (x[order] for x in (edge_of, owner_idx, t, w, f, d2))
    hf = -d2
    if potential is not None:  # nodal data, interpolated on its own mesh
        bounds = np.searchsorted(edge_of, np.arange(len(g.edges) + 1))
        for j, e in enumerate(g.edges):
            sl = slice(bounds[j], bounds[j + 1])
            hf[sl] += potential.grid.interpolate(potential.data, e.id, t[sl]) * f[sl]
    norms = np.sqrt(np.bincount(owner_idx, weights=w * np.abs(f) ** 2, minlength=len(tests)))
    value, deriv = np.zeros((2, len(tests), sum(g.degree(v) for v in g.vertices)), dtype=complex)
    for i, test in enumerate(tests):
        if isinstance(test, StarTest):  # the slots that carry the test, as in _pieces
            k = test.active_slots()
            value[i, g.slots[test.vertex].start + k] = test.value[k]
            deriv[i, g.slots[test.vertex].start + k] = test.deriv[k]
    return CompiledBattery(g, tests, potential, t, edge_of, w * hf, w * f, owner_idx, norms, value, deriv)


def _on_its_edges(g: MetricGraph, test: TestFunction) -> bool:
    """Whether a bump lies inside its edge, and a star ramp is no longer than any edge it covers."""
    if isinstance(test, BumpTest):
        return 0.0 < test.radius <= test.center <= g.edge(test.edge).length - test.radius
    slots = g.star(test.vertex).slots
    return all(0.0 < test.rho <= g.edge(slots[k][0]).length for k in test.active_slots())


def compile_battery(
    g: MetricGraph,
    bc: BoundaryCondition,
    tests: Sequence[TestFunction] | None = None,
    potential: GridFunction | None = None,
    cut_meshes: Sequence[float] = (),
) -> CompiledBattery:
    """Check a test battery once and lay out its quadrature for many modes.

    ``tests`` defaults to :func:`standard_test_battery`.  Tests outside the
    operator domain are rejected with a ``ValueError``: a support that leaves
    its edges, and a star test at v whose residual exceeds
    ``CONDITION_TOL max(1, ||L_v||)``, the scale at which
    :func:`boundary.lp_mixing` accepts kernel data.
    Panels split at the nodes of every grid in ``cut_meshes`` (the meshes of
    nodal phi and potential data).
    """
    tests = tuple(standard_test_battery(g, bc) if tests is None else tests)
    for test in tests:
        if not _on_its_edges(g, test):
            raise ValueError(f"test {test.label!r} leaves its edges, so it is not in the operator domain")
        bad = test.condition_residual(g, bc)
        scale = max(1.0, float(np.linalg.norm(bc.L(test.vertex)))) if isinstance(test, StarTest) else 1.0
        if bad > CONDITION_TOL * scale:
            raise ValueError(
                f"test {test.label!r} violates the vertex conditions (residual {bad:.3e})"
            )
    return _quadrature(g, tests, potential, cut_meshes)


def generalized_eigenfunction_residual(
    g: MetricGraph,
    bc: BoundaryCondition,
    phi,
    lam: float,
    tests: Sequence[TestFunction] | None = None,
) -> ResidualReport:
    """max over tests of |<H f, phi> - lambda <f, phi>| / ||f||.

    ``phi`` is an exact :class:`SecularSolution` at its own energy, scored
    by Green's identity from its vertex traces, or nodal data, paired with
    ``H f = -f''`` on Gauss-Legendre panels aligned with the smooth pieces of
    each test and the grid cells of phi (:meth:`CompiledBattery.residual_matrix`).
    Star tests probe the vertex conditions, and for nodal data interior
    bumps probe the differential equation.  Tests outside the operator
    domain are rejected.

    A one-mode call of :func:`compile_battery`; to check many modes, compile
    once and call :meth:`CompiledBattery.residuals`.
    """
    cut_meshes = [phi.h_max] if isinstance(phi, GridFunction) else []
    battery = compile_battery(g, bc, tests, None, cut_meshes)
    return battery.residuals([phi], [lam])[0]


def intertwining_gap(rep: DiscreteSpectralRep, coeffs: np.ndarray) -> float:
    """Check U H = M_lambda U on the span of the computed modes.

    For f with the given mode coefficients, H f has coefficients
    lambda_m c_m; the gap is measured by synthesizing H f exactly from the
    modes and re-expanding it.
    """
    hf = reconstruct(rep, coeffs * np.array([m.lam for m in rep.modes]))
    back = fourier_coefficients(rep, hf)
    return float(np.max(np.abs(back - coeffs * np.array([m.lam for m in rep.modes]))))
