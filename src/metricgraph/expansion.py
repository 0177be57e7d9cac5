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

Every truncated sum reports its tail; nothing is dropped silently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .boundary import BoundaryCondition
from .functions import GridFunction, Mesh, _smoothstep, _smoothstep_d1, _smoothstep_d2, inner
from .graph import (
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
from .secular import COMPILED_PAIRS, SecularEigenvalue, SecularSolution, compiled, eigenfunction

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
    codim: int  # sum_v dim ker P_v: the codimension of the edgewise H^1_0 in the form domain

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
    def _on(cls, grid: Mesh, eigenvalues, rows, layers, codim: int) -> "DiscreteSpectralRep":
        """From the nodal rows of the modes (any iterable) and their (j, lambda, exact)."""
        Phi = np.empty((len(layers), grid.n_nodes), dtype=complex)
        for k, row in enumerate(rows):
            Phi[k] = row
        modes = tuple(
            SpectralMode(j, lam, GridFunction.on(grid, row), exact) for (j, lam, exact), row in zip(layers, Phi)
        )
        return cls(grid, tuple(eigenvalues), modes, Phi, codim)

    @classmethod
    def from_secular(
        cls,
        g: MetricGraph,
        bc: BoundaryCondition,
        hits: Sequence[SecularEigenvalue],
        h_max: float,
    ) -> "DiscreteSpectralRep":
        """Modes of the scan hits, each eigenspace sized by the hit's multiplicity (:func:`eigenfunction`)."""
        grid = Mesh(g, h_max)
        system = compiled(g, bc)  # validates (g, bc) with no hits too; the eigenfunctions share this system
        found = [(hit.lam, eigenfunction(g, bc, hit.lam, hit.multiplicity)) for hit in hits]
        layers = [(j, lam, sol) for lam, sols in found for j, sol in enumerate(sols, start=1)]
        rows = (grid.sample(sol.evaluate) for _, _, sol in layers)
        return cls._on(grid, [(lam, len(sols)) for lam, sols in found], rows, layers, system.K.shape[1])

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
        fa = es.assembly  # its coordinates: the interior nodes, then the sum_v dim ker P_v vertex coordinates
        codim = fa.dim - fa.grid.n_nodes + 2 * len(fa.graph.edges)
        return cls._on(fa.grid, eigenvalues, fa.nodal_vector(es.vectors).T, layers, codim)


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
    hand, plus a bound on the rest, which assumes the modes are the N lowest.
    Each missing mode contributes at most ``s^2 / (C + lambda_n)``, s =
    sup(1/w).  The form is the Dirichlet form on the edgewise H^1_0, of
    codimension d = ``rep.codim`` in the form domain, so min-max (Berkolaiko &
    Kuchment, *Introduction to Quantum Graphs*, ch. 3) gives ``N(lambda) <= L
    sqrt(lambda)/pi + d`` and ``lambda_n >= max(lambda_N, ((n - d) pi / L)^2)`` for n > N.
    Bounding the nonincreasing sum by its terms up to ``x0 = max(x*, N + 1)``,
    ``x* = d + L sqrt(max(lambda_N, 0))/pi``, plus an integral beyond gives

        s^2 [(x0 - N)/(C + lambda_N) + L/(pi sqrt C) (pi/2 - atan((x0 - d) pi / (L sqrt C)))],

    finite only for C > 0.
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
    n, d, L, lam_n = len(rep.modes), rep.codim, rep.graph.total_length, float(np.max(lams))
    x0 = max(d + L * math.sqrt(max(lam_n, 0.0)) / math.pi, n + 1)
    integral = L / (math.pi * math.sqrt(C)) * (math.pi / 2.0 - math.atan((x0 - d) * math.pi / (L * math.sqrt(C))))
    tail = inverse_sup**2 * ((x0 - n) / (C + lam_n) + integral)
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

STAR_RHO = 0.45  # star ramps end at rho = STAR_RHO u <= 0.45 l_e: inside their edge, a loop's two apart
_BUMP_NORM_SQ = 2048.0 / 3003.0  # int (1 - s^2)^6 ds over [-1, 1]: a bump's ||f||^2 per unit radius
_CHI_MOMENTS = (643.0 / 924.0, 151.0 / 616.0, 8399.0 / 72072.0)  # int_0^1 x^j chi(x)^2 dx, chi ramping over [1/2, 1]


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
    quintic ramp from 1 to 0 over ``[rho/2, rho]``, ``rho = STAR_RHO u``.
    So the test is linear in its datum: per slot, ``a_k`` times the shape
    chi plus ``b_k`` times the shape tau chi.
    """

    label: str
    vertex: VertexId
    value: np.ndarray
    deriv: np.ndarray

    def condition_residual(self, g: MetricGraph, bc: BoundaryCondition) -> float:
        return bc.vertex_residual(self.vertex, self.value, self.deriv)


TestFunction = BumpTest | StarTest


def _gl_panels(a: float, b: float, cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """8-point Gauss panels on [a, b], split at any interior cuts (grid kinks).

    Exact: on a panel every integrand is a polynomial of degree at most 8.
    """
    inner_cuts = cuts[(cuts > a + 1e-14) & (cuts < b - 1e-14)]
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


def _slot_shapes(tau: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(chi, chi'', tau chi, (tau chi)'') at inward coordinates tau."""
    w = rho / 2.0
    s = (tau - w) / w
    chi, d1, d2 = 1.0 - _smoothstep(s), -_smoothstep_d1(s, w), -_smoothstep_d2(s, w)
    return chi, d2, tau * chi, 2.0 * d1 + tau * d2


def standard_test_battery(g: MetricGraph, bc: BoundaryCondition) -> list[TestFunction]:
    """One interior bump per edge plus d_v star-supported tests per vertex.

    The star tests realize every admissible trace datum: for each kernel
    basis vector q of P_v the pair ``(f(v), f'(v)) = (q, -(1-P) L q)`` and for
    each range basis vector p the pair ``(0, p)``; both satisfy
    ``P f(v) = 0`` and ``L f(v) + (1-P) f'(v) = 0`` identically, with the
    bases of the :func:`secular.compiled` ``stars``.  At its ``anomaly_vertices``
    L maps ker P into ran P: the kernel data leave ``P L q`` and are dropped.
    """
    tests: list[TestFunction] = []
    for e in g.edges:
        tests.append(BumpTest(f"bump:{e.id}", e.id, 0.5 * e.length, 0.4 * min(e.length, 2.0 * g.u)))
    system = compiled(g, bc)
    for v, (K, Rb, L) in zip(g.vertices, system.stars):
        P, d = bc.P(v), g.degree(v)
        data = [] if v in system.anomaly_vertices else [(q, P @ (L @ q) - L @ q) for q in K.T]
        data += [(np.zeros(d, dtype=complex), p) for p in Rb.T]
        for idx, (a_vec, b_vec) in enumerate(data):
            a_vec, b_vec = np.asarray(a_vec, dtype=complex), np.asarray(b_vec, dtype=complex)
            tests.append(StarTest(f"star:{v}:{idx}", v, a_vec, b_vec))
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
    """A checked test battery as slot data, independent of the mode.

    ``value`` and ``deriv`` (tests x slots, :attr:`MetricGraph.slots`) hold
    each star test's trace datum (f(v), f'(v)), which are also its
    coefficients on the slot shapes chi and tau chi; bumps have zero rows.
    ``norms`` holds every ||f||, in closed form.  No Gauss node is laid out
    here: only nodal modes need them (:meth:`_load_sums`).
    """

    graph: MetricGraph
    tests: tuple[TestFunction, ...]
    potential: GridFunction | None
    norms: np.ndarray
    value: np.ndarray
    deriv: np.ndarray

    def residual_matrix(self, phis: Sequence, lams: Sequence[float]) -> np.ndarray:
        """|<H f, phi> - lambda <f, phi>| / ||f||, tests x modes; no mode is evaluated at a Gauss node.

        Exact modes (:class:`SecularSolution`), each at its own energy and
        without potential, solve ``-phi'' = lambda phi`` on every edge, so
        Green's identity leaves only boundary terms: per slot, a test with
        trace datum (a, b) = (f(v), f'(v)) contributes ``b conj(phi(v)) - a
        conj(phi'(v))`` (inward derivatives), and a bump gives 0.  Caveat:
        this path tests the vertex conditions of the modes, not their edge
        functions; those rest on the closed-form end shapes of
        :class:`secular.SecularSolution` and on ``spectrum``'s two-solver check.
        Nodal modes on one mesh meet the slot shapes and the bumps through
        their P1 load vectors (:meth:`_load_sums`): the Gauss nodes are laid
        out once per call, and each mode is contracted with the loads alone,
        so column m equals a one-mode call on mode m bit for bit.  Any other
        list raises a ``ValueError``.
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
        elif len(phis):
            sums = self._load_sums(phis[0].grid, phis, lams)
        else:
            sums = np.zeros((len(self.tests), 0), dtype=complex)
        positive = self.norms > 0
        res = np.zeros(sums.shape)
        res[positive] = np.abs(sums[positive]) / self.norms[positive, None]
        return res

    def _load_sums(self, mesh: Mesh, phis: Sequence[GridFunction], lams: np.ndarray) -> np.ndarray:
        """``(H - lambda F) conj(phi)`` for nodal modes phi on ``mesh``, tests x modes.

        The atoms are the shapes chi and tau chi of every slot and every
        bump.  Gauss panels are laid out once per shape family: over the
        slot pieces ``[0, rho/2]`` and ``[rho/2, rho]`` in the inward
        coordinate, which chi and tau chi share, and over the bumps.  They
        split at the nodes of ``mesh`` and of the potential's mesh, where phi
        and V have kinks.  Each Gauss node splits its ``w (-f'' + V f)`` and
        ``w f`` onto the two hat functions of its mesh cell with the weights
        ``w (1 - theta)`` and ``w theta`` of linear interpolation.  The nodes
        of one atom run along the edge, so the shares of one (atom, cell)
        pair are consecutive and merge into one entry of the load vectors H
        and F; chi and tau chi share their nodes, cells, weights and runs.
        The modes then meet the loads one at a time, summed per atom by
        ``np.bincount``, and a star test sums ``value @ chi + deriv @ tau chi``
        over the slot atoms.  No array grows with nodes or runs times modes,
        and a mode's column does not depend on the other modes.
        """
        g, n_slots, rho, V = self.graph, self.value.shape[1], STAR_RHO * self.graph.u, self.potential
        meshes = [mesh] if V is None else [mesh, V.grid]
        cuts = [np.unique(np.concatenate([m.nodes[m.edge(e.id)] for m in meshes])) for e in g.edges]
        init, term = g.slot_ends
        lengths = np.array([e.length for e in g.edges])
        slot_pieces = []  # edge index, t0, t1, slot
        for k, (s0, s1) in enumerate(zip(init, term)):
            lo, mid, hi = lengths[k] - rho, lengths[k] - rho / 2.0, lengths[k]
            slot_pieces += [(k, 0.0, rho / 2.0, s0), (k, rho / 2.0, rho, s0), (k, lo, mid, s1), (k, mid, hi, s1)]
        bumps = [i for i, test in enumerate(self.tests) if isinstance(test, BumpTest)]
        centers, radii = np.array([(self.tests[i].center, self.tests[i].radius) for i in bumps]).reshape(-1, 2).T
        bump_pieces = [  # edge index, t0, t1, bump
            (g.edge_index[self.tests[i].edge], c - r, c + r, b) for b, (i, c, r) in enumerate(zip(bumps, centers, radii))
        ]
        # atoms: chi on slot s is atom s, tau chi atom n_slots + s, bump b atom 2 n_slots + b
        left, atom, loads = [], [], []
        for pieces, base in ((slot_pieces, 0), (bump_pieces, 2 * n_slots)):
            if not pieces:  # a custom battery without bumps
                continue
            panels = [_gl_panels(t0, t1, cuts[k]) for k, t0, t1, _ in pieces]
            sizes = [ts.size for ts, _ in panels]
            k, a = (np.repeat([p[j] for p in pieces], sizes) for j in (0, 3))
            t, w = (np.concatenate(col) for col in zip(*panels))
            if base:
                shapes = [_bump_values(t, centers[a], radii[a])]
            else:
                chi, chi2, tchi, tchi2 = _slot_shapes(np.where(init[k] == a, t, lengths[k] - t), rho)
                shapes = [(chi, chi2), (tchi, tchi2)]
            cell, theta = _cells(mesh, k, t)
            if V is not None:  # nodal data, interpolated on its own mesh
                v_cell, v_theta = (cell, theta) if V.grid == mesh else _cells(V.grid, k, t)
                v = (1.0 - v_theta) * V.data[v_cell] + v_theta * V.data[v_cell + 1]
            runs = np.flatnonzero(np.r_[True, (cell[1:] != cell[:-1]) | (a[1:] != a[:-1])])
            w0, w1 = w * (1.0 - theta), w * theta
            for j, (f, d2) in enumerate(shapes):
                hf = -d2 if V is None else -d2 + v * f
                left.append(cell[runs])
                atom.append(base + j * n_slots + a[runs])
                loads.append([np.add.reduceat(c * x, runs) for x in (hf, f) for c in (w0, w1)])
        left, atom = np.concatenate(left), np.concatenate(atom)
        H0, H1, F0, F1 = (np.concatenate(col) for col in zip(*loads))
        n_atoms = 2 * n_slots + len(bumps)
        sums = np.zeros((len(self.tests), len(phis)), dtype=complex)
        for m, (phi, lam) in enumerate(zip(phis, lams)):
            conj_phi = np.conj(phi.data)
            terms = (H0 - F0 * lam) * conj_phi[left] + (H1 - F1 * lam) * conj_phi[left + 1]
            by_atom = np.bincount(atom, terms.real, n_atoms) + 1j * np.bincount(atom, terms.imag, n_atoms)
            sums[:, m] = self.value @ by_atom[:n_slots] + self.deriv @ by_atom[n_slots : 2 * n_slots]
            sums[bumps, m] += by_atom[2 * n_slots :]
        return sums

    def residuals(self, phis: Sequence, lams: Sequence[float]) -> list[ResidualReport]:
        """One :class:`ResidualReport` per mode (phi, lambda)."""
        labels = [t.label for t in self.tests]
        return [
            ResidualReport(float(np.max(col, initial=0.0)), tuple(zip(labels, col.tolist())))
            for col in self.residual_matrix(phis, lams).T
        ]


def _cells(mesh: Mesh, k: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left node and linear-interpolation weight theta of the points t on the edges k (indices)."""
    cell = np.clip(np.floor(t / mesh.widths[k]).astype(int), 0, np.diff(mesh.offsets)[k] - 2)
    return mesh.offsets[k] + cell, t / mesh.widths[k] - cell


def compile_battery(
    g: MetricGraph,
    bc: BoundaryCondition,
    tests: Sequence[TestFunction] | None = None,
    potential: GridFunction | None = None,
) -> CompiledBattery:
    """Check a test battery once and lay out its slot data and norms for many modes.

    ``tests`` defaults to :func:`standard_test_battery`.  Tests outside the
    operator domain are rejected with a ``ValueError``: a bump that leaves
    its edge, and a star test at v whose residual exceeds
    ``CONDITION_TOL max(1, ||L_v||)``, the scale of the ``lp-mixing`` check
    of :func:`boundary.validate_bc`.  A star ramp ends at
    ``STAR_RHO u``, at most ``0.45 l_e`` on a valid graph, so it fits.
    Every ||f||^2 is in closed form: ``r 2048/3003`` for a bump of radius
    r, and ``sum_k m_0 |a_k|^2 + 2 m_1 Re(conj(a_k) b_k) + m_2 |b_k|^2``
    for a star test, with ``m_j = int_0^rho tau^j chi^2 dtau``.

    The standard battery without potential is cached per (g, bc), as :func:`secular.compiled` is.
    """
    if tests is None and potential is None:
        return _standard_battery(g, bc)
    tests = tuple(standard_test_battery(g, bc) if tests is None else tests)
    value, deriv = np.zeros((2, len(tests), sum(g.degree(v) for v in g.vertices)), dtype=complex)
    norm_sq = np.zeros(len(tests))
    for i, test in enumerate(tests):
        if isinstance(test, BumpTest):
            if not 0.0 < test.radius <= test.center <= g.edge(test.edge).length - test.radius:
                raise ValueError(f"test {test.label!r} leaves its edges, so it is not in the operator domain")
            norm_sq[i] = _BUMP_NORM_SQ * test.radius
        else:
            value[i, g.slots[test.vertex]], deriv[i, g.slots[test.vertex]] = test.value, test.deriv
        bad = test.condition_residual(g, bc)
        scale = bc.residual_scale(test.vertex) if isinstance(test, StarTest) else 1.0
        if bad > CONDITION_TOL * scale:
            raise ValueError(
                f"test {test.label!r} violates the vertex conditions (residual {bad:.3e})"
            )
    m0, m1, m2 = (c * (STAR_RHO * g.u) ** (j + 1) for j, c in enumerate(_CHI_MOMENTS))
    norm_sq += m0 * np.sum(np.abs(value) ** 2, axis=1) + m2 * np.sum(np.abs(deriv) ** 2, axis=1)
    norm_sq += 2.0 * m1 * np.sum((np.conj(value) * deriv).real, axis=1)
    return CompiledBattery(g, tests, potential, np.sqrt(norm_sq), value, deriv)


@functools.lru_cache(maxsize=COMPILED_PAIRS)
def _standard_battery(g: MetricGraph, bc: BoundaryCondition) -> CompiledBattery:
    return compile_battery(g, bc, standard_test_battery(g, bc))


def generalized_eigenfunction_residual(
    g: MetricGraph,
    bc: BoundaryCondition,
    phi,
    lam: float,
    tests: Sequence[TestFunction] | None = None,
) -> ResidualReport:
    """max over tests of |<H f, phi> - lambda <f, phi>| / ||f||.

    ``phi`` is an exact :class:`SecularSolution` at its own energy, scored
    by Green's identity from its vertex traces with no Gauss node, or nodal
    data, paired with ``H f = -f''`` through its P1 load vectors on
    Gauss-Legendre panels split at its mesh nodes
    (:meth:`CompiledBattery.residual_matrix`).  Star tests probe the vertex
    conditions, and for nodal data interior bumps probe the differential
    equation.  Tests outside the operator domain are rejected.

    A one-mode call of :func:`compile_battery`: with the default ``tests``
    every mode of one (g, bc) pair shares the pair's cached battery.
    """
    return compile_battery(g, bc, tests).residuals([phi], [lam])[0]


def intertwining_gap(rep: DiscreteSpectralRep, coeffs: np.ndarray) -> float:
    """Check U H = M_lambda U on the span of the computed modes.

    For f with the given mode coefficients, H f has coefficients
    lambda_m c_m; the gap is measured by synthesizing H f exactly from the
    modes and re-expanding it.
    """
    hf = reconstruct(rep, coeffs * np.array([m.lam for m in rep.modes]))
    back = fourier_coefficients(rep, hf)
    return float(np.max(np.abs(back - coeffs * np.array([m.lam for m in rep.modes]))))
