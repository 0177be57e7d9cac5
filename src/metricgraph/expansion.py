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
from typing import Callable, Mapping, Sequence

import numpy as np

from .boundary import BoundaryCondition
from .functions import GridFunction, edge_grid, inner
from .graph import (
    INIT,
    EdgeId,
    EdgePoint,
    MetricGraph,
    Point,
    VertexId,
    VertexPoint,
    ball_volume,
    is_connected,
    vertex_distances,
)
from .secular import SecularEigenvalue, SecularSolution, eigenfunction

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightFunction:
    """Ball-volume weight around a base point, continuous and >= 1.

    ``value = max(1, vol(d + 1))^(1+eps)`` where ``d`` is the distance to the
    base point and ``vol`` the ball-volume profile, precomputed as a
    piecewise-linear function of the radius.  On a connected graph
    ``vol(r) >= min(r, total length)``, which makes ``w(x) >= d(x,x0)^(1+eps)``
    pointwise and ``1/w^2`` integrable.
    """

    graph: MetricGraph
    base: Point
    eps: float
    _vdist: Mapping[VertexId, float]
    _radii: np.ndarray
    _volumes: np.ndarray

    # -- evaluation -------------------------------------------------------

    def ball_volume(self, r) -> np.ndarray:
        return np.interp(np.asarray(r, dtype=float), self._radii, self._volumes)

    def distance_edge(self, edge_id: EdgeId, t: np.ndarray) -> np.ndarray:
        e = self.graph.edge(edge_id)
        t = np.asarray(t, dtype=float)
        d = self._vdist[e.init] + t
        if e.end is not None:
            d = np.minimum(d, self._vdist[e.end] + (e.length - t))
        if isinstance(self.base, EdgePoint) and self.base.edge == edge_id:
            d = np.minimum(d, np.abs(t - self.base.t))
        return d

    def value_edge(self, edge_id: EdgeId, t: np.ndarray) -> np.ndarray:
        vol = self.ball_volume(self.distance_edge(edge_id, t) + 1.0)
        return np.maximum(vol, 1.0) ** (1.0 + self.eps)

    def value(self, x: Point) -> float:
        if isinstance(x, VertexPoint):
            d = self._vdist[x.vertex]
            return float(np.maximum(self.ball_volume(d + 1.0), 1.0) ** (1.0 + self.eps))
        return float(self.value_edge(x.edge, np.array([x.t]))[0])

    def sample(self, h_max: float) -> GridFunction:
        return GridFunction.from_callable(
            self.graph, h_max, lambda eid, ts: self.value_edge(eid, ts).astype(complex)
        )

    @property
    def inverse_sup(self) -> float:
        """sup of 1/w; the weight is smallest at the base point."""
        return 1.0 / self.value(self.base)

    # -- exact integration of w^p ----------------------------------------

    def integral_inverse_square(self) -> float:
        """integral of w^-2 over the graph, by exact piecewise closed forms.

        Along each edge the distance to the base point is piecewise affine
        with slopes +-1 and the volume profile is piecewise linear in the
        radius, so between breakpoints w^-2 = (A + B t)^(-2-2eps) integrates
        in closed form.
        """
        return sum(self._integral_edge(e.id) for e in self.graph.edges)

    def _integral_edge(self, edge_id: EdgeId) -> float:
        e = self.graph.edge(edge_id)
        cuts = {0.0, e.length}
        # distance kinks: intersections of the competing affine routes
        routes: list[tuple[float, float]] = [(self._vdist[e.init], +1.0)]
        if e.end is not None:
            routes.append((self._vdist[e.end] + e.length, -1.0))
        if isinstance(self.base, EdgePoint) and self.base.edge == edge_id:
            routes.append((-self.base.t, +1.0))
            routes.append((self.base.t, -1.0))
            cuts.add(self.base.t)
        for i in range(len(routes)):
            for j in range(i + 1, len(routes)):
                (a1, b1), (a2, b2) = routes[i], routes[j]
                if b1 != b2 and math.isfinite(a1) and math.isfinite(a2):
                    t = (a2 - a1) / (b1 - b2)
                    if 0.0 < t < e.length:
                        cuts.add(t)
        # volume-profile kinks pulled back through d(t) + 1
        base_cuts = sorted(cuts)
        for lo, hi in zip(base_cuts[:-1], base_cuts[1:]):
            dlo = float(self.distance_edge(edge_id, np.array([lo]))[0])
            dhi = float(self.distance_edge(edge_id, np.array([hi]))[0])
            slope = (dhi - dlo) / (hi - lo)
            for r in self._radii:
                if abs(slope) > 0.5:  # slopes are +-1 up to arithmetic noise
                    t = lo + ((r - 1.0) - dlo) / slope
                    if lo < t < hi:
                        cuts.add(float(t))
        ts = sorted(cuts)
        p = 2.0 + 2.0 * self.eps
        total = 0.0
        for lo, hi in zip(ts[:-1], ts[1:]):
            if hi - lo < 1e-15:
                continue
            # the clamp at 1 never switches inside an edge: on a connected
            # graph vol(d + 1) >= min(1, total length) uniformly, so each
            # piece is exactly affine
            vlo = float(np.maximum(self.ball_volume(self._distance_at(edge_id, lo) + 1.0), 1.0))
            vhi = float(np.maximum(self.ball_volume(self._distance_at(edge_id, hi) + 1.0), 1.0))
            total += _integrate_affine_power(vlo, vhi, hi - lo, p)
        return total

    def _distance_at(self, edge_id: EdgeId, t: float) -> float:
        return float(self.distance_edge(edge_id, np.array([t]))[0])


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
    dv = vertex_distances(g, x0)
    radii = {0.0}
    for e in g.edges:
        di, dj = dv[e.init], dv[e.end]
        radii.update({di, dj, di + e.length, dj + e.length, 0.5 * (di + dj + e.length)})
        if isinstance(x0, EdgePoint) and x0.edge == e.id:
            radii.update(
                {x0.t, e.length - x0.t, 0.5 * (x0.t + di), 0.5 * ((e.length - x0.t) + dj)}
            )
    rs = np.array(sorted(radii))
    vols = np.array([ball_volume(g, x0, float(r)) for r in rs])
    return WeightFunction(g, x0, eps, dv, rs, vols)


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
    """

    graph: MetricGraph
    h_max: float
    eigenvalues: tuple[tuple[float, int], ...]  # (lambda, multiplicity)
    modes: tuple[SpectralMode, ...]

    @property
    def n_layers(self) -> int:
        return max((m for _, m in self.eigenvalues), default=0)

    def level_sets(self) -> dict[int, list[float]]:
        return {
            j: [lam for lam, m in self.eigenvalues if m >= j]
            for j in range(1, self.n_layers + 1)
        }

    @classmethod
    def from_secular(
        cls,
        g: MetricGraph,
        bc: BoundaryCondition,
        hits: Sequence[SecularEigenvalue],
        h_max: float,
    ) -> "DiscreteSpectralRep":
        eigenvalues = []
        modes: list[SpectralMode] = []
        for hit in hits:
            sols = eigenfunction(g, bc, hit.lam)
            eigenvalues.append((hit.lam, len(sols)))
            for j, sol in enumerate(sols, start=1):
                modes.append(SpectralMode(j, hit.lam, sol.to_grid(h_max), sol))
        return cls(g, h_max, tuple(eigenvalues), tuple(modes))

    @classmethod
    def from_fem(cls, es, mult_tol: float = 1e-6) -> "DiscreteSpectralRep":
        """Group a discrete eigensystem into multiplicity clusters."""
        lams = np.asarray(es.eigenvalues, dtype=float)
        phis = es.grid_functions()
        eigenvalues: list[tuple[float, int]] = []
        modes: list[SpectralMode] = []
        i = 0
        while i < lams.size:
            jmax = i
            while jmax + 1 < lams.size and abs(lams[jmax + 1] - lams[i]) <= mult_tol * max(1.0, abs(lams[i])):
                jmax += 1
            mult = jmax - i + 1
            lam = float(np.mean(lams[i : jmax + 1]))
            eigenvalues.append((lam, mult))
            for j in range(mult):
                modes.append(SpectralMode(j + 1, lam, phis[i + j]))
            i = jmax + 1
        return cls(es.assembly.graph, es.assembly.h_max, tuple(eigenvalues), tuple(modes))


def fourier_coefficients(rep: DiscreteSpectralRep, f: GridFunction) -> np.ndarray:
    """<f, phi_m> for every mode, by trapezoid quadrature on the shared mesh."""
    if f.graph != rep.graph or f.h_max != rep.h_max:
        raise ValueError("function mesh does not match the spectral representation")
    return np.array([inner(f, m.phi) for m in rep.modes])


def reconstruct(rep: DiscreteSpectralRep, coeffs: np.ndarray) -> GridFunction:
    out = GridFunction.zeros(rep.graph, rep.h_max)
    for c, m in zip(coeffs, rep.modes):
        out = out + complex(c) * m.phi
    return out


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
    modes into an explicit arctangent integral.
    """
    if not rep.modes:
        raise ValueError("spectral representation has no modes")
    lam_min = min(lam for lam, _ in rep.eigenvalues)
    if C + lam_min <= 0:
        raise ValueError(f"need C + lambda_min > 0, got C={C}, lambda_min={lam_min}")
    if weight.graph != rep.graph or weight.h_max != rep.h_max:
        raise ValueError("weight mesh does not match the spectral representation")
    terms = []
    for m in rep.modes:
        ratio = GridFunction(
            rep.graph,
            rep.h_max,
            {
                eid: np.asarray(m.phi.values[eid]) / np.asarray(weight.values[eid]).real
                for eid in (e.id for e in rep.graph.edges)
            },
        )
        wnorm_sq = float(np.real(inner(ratio, ratio)))
        terms.append(wnorm_sq / (C + m.lam))
    if inverse_sup is None:
        inverse_sup = max(
            float(np.max(1.0 / np.abs(np.asarray(weight.values[e.id])))) for e in rep.graph.edges
        )
    n_modes = len(rep.modes)
    L = rep.graph.total_length
    lam_cut = ((n_modes + 0.5) * math.pi / L) ** 2
    tail = (
        inverse_sup**2
        * (L / (math.pi * math.sqrt(C)))
        * (math.pi / 2.0 - math.atan(math.sqrt(max(lam_cut, 0.0) / C)))
        if C > 0
        else float("inf")
    )
    return HilbertSchmidtReport(float(sum(terms)), float(tail), tuple(terms))


def hs_kernel_cross_check(rep: DiscreteSpectralRep, weight: GridFunction, C: float) -> float:
    """Double-quadrature of the integral kernel of (1/w) (C + H)^-1/2 truncated
    to the computed modes; agrees with the mode sum when the phi are
    orthonormal.  Quadratic in the grid size; intended for small fixtures.
    """
    g = rep.graph
    gammas = np.array([1.0 / math.sqrt(C + m.lam) for m in rep.modes])
    total = 0.0
    edges = [e.id for e in g.edges]
    for ex in edges:
        hx = rep.modes[0].phi.mesh(ex)
        tx = rep.modes[0].phi.nodes(ex)
        wx = np.full(tx.size, hx)
        wx[0] *= 0.5
        wx[-1] *= 0.5
        winv_x = 1.0 / np.asarray(weight.values[ex]).real
        Phi_x = np.array([np.asarray(m.phi.values[ex]) for m in rep.modes])
        for ey in edges:
            hy = rep.modes[0].phi.mesh(ey)
            ty = rep.modes[0].phi.nodes(ey)
            wy = np.full(ty.size, hy)
            wy[0] *= 0.5
            wy[-1] *= 0.5
            Phi_y = np.array([np.asarray(m.phi.values[ey]) for m in rep.modes])
            K = (gammas[:, None] * Phi_x * winv_x[None, :]).T @ np.conj(Phi_y)
            total += float(np.real(np.einsum("i,ij,j->", wx, np.abs(K) ** 2, wy)))
    return total


# ---------------------------------------------------------------------------
# compactly supported test functions in the operator domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestPiece:
    t0: float
    t1: float
    f: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LocalTestFunction:
    """Compactly supported, piecewise-smooth C^2 test function in the domain.

    ``pieces`` lists smooth pieces per edge; outside them the function is 0.
    Vertex traces are recorded so condition membership can be verified.
    """

    label: str
    pieces: Mapping[EdgeId, tuple[TestPiece, ...]]
    trace_values: Mapping[VertexId, np.ndarray]
    trace_derivs: Mapping[VertexId, np.ndarray]

    def condition_residual(self, g: MetricGraph, bc: BoundaryCondition) -> float:
        worst = 0.0
        for v, a in self.trace_values.items():
            L, P = bc.L(v), bc.P(v)
            b = self.trace_derivs[v]
            eye = np.eye(P.shape[0])
            worst = max(
                worst,
                float(np.linalg.norm(P @ a) + np.linalg.norm(L @ a + (eye - P) @ b)),
            )
        return worst

    def l2_norm(self) -> float:
        total = 0.0
        for pieces in self.pieces.values():
            for p in pieces:
                ts, ws = _gl_nodes(p.t0, p.t1)
                total += float(np.sum(ws * np.abs(p.f(ts)) ** 2))
        return math.sqrt(total)


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


def _bump(center: float, radius: float):
    def f(t: np.ndarray) -> np.ndarray:
        s = (np.asarray(t, dtype=float) - center) / radius
        out = np.where(np.abs(s) < 1.0, (1.0 - s**2) ** 3, 0.0)
        return out.astype(complex)

    def d2(t: np.ndarray) -> np.ndarray:
        s = (np.asarray(t, dtype=float) - center) / radius
        inside = np.abs(s) < 1.0
        val = (1.0 - s**2) * (30.0 * s**2 - 6.0) / radius**2
        return np.where(inside, val, 0.0).astype(complex)

    return f, d2


def _ramp_down(a: float, b: float):
    """C^2 quintic 1 -> 0 on [a, b] with value/derivative evaluators."""
    w = b - a

    def chi(t):
        s = np.clip((np.asarray(t, dtype=float) - a) / w, 0.0, 1.0)
        return 1.0 - (10.0 * s**3 - 15.0 * s**4 + 6.0 * s**5)

    def chi_d1(t):
        t = np.asarray(t, dtype=float)
        s = (t - a) / w
        inside = (s > 0) & (s < 1)
        s = np.clip(s, 0.0, 1.0)
        return np.where(inside, -(30.0 * s**2 - 60.0 * s**3 + 30.0 * s**4) / w, 0.0)

    def chi_d2(t):
        t = np.asarray(t, dtype=float)
        s = (t - a) / w
        inside = (s > 0) & (s < 1)
        s = np.clip(s, 0.0, 1.0)
        return np.where(inside, -(60.0 * s - 180.0 * s**2 + 120.0 * s**3) / w**2, 0.0)

    return chi, chi_d1, chi_d2


def standard_test_battery(g: MetricGraph, bc: BoundaryCondition) -> list[LocalTestFunction]:
    """One interior bump per edge plus d_v star-supported tests per vertex.

    The star tests realize every admissible trace datum: for each kernel
    basis vector q of P_v the pair ``(f(v), f'(v)) = (q, -(1-P) L q)`` and for
    each range basis vector p the pair ``(0, p)``; both satisfy
    ``P f(v) = 0`` and ``L f(v) + (1-P) f'(v) = 0`` identically.  Each slot
    carries ``(a_k + b_k tau) chi(tau)`` in the inward coordinate tau with a
    C^2 ramp chi vanishing before the opposite end.
    """
    tests: list[LocalTestFunction] = []
    zero_traces = {
        v: np.zeros(g.degree(v), dtype=complex) for v in g.vertices
    }
    for e in g.edges:
        radius = 0.4 * min(e.length, 2.0 * g.u)
        center = 0.5 * e.length
        f, d2 = _bump(center, radius)
        tests.append(
            LocalTestFunction(
                f"bump:{e.id}",
                {e.id: (TestPiece(center - radius, center + radius, f, d2),)},
                zero_traces,
                zero_traces,
            )
        )
    for v in g.vertices:
        L, P = bc.L(v), bc.P(v)
        d = g.degree(v)
        eye = np.eye(d)
        data: list[tuple[np.ndarray, np.ndarray]] = []
        K, Rb = bc.ker_ran(v)
        for jcol in range(K.shape[1]):
            q = K[:, jcol]
            if np.linalg.norm(P @ (L @ q)) > 1e-10 * max(1.0, float(np.linalg.norm(L))):
                continue  # rank anomaly: this trace datum is not admissible
            data.append((q, -(eye - P) @ (L @ q)))
        for jcol in range(Rb.shape[1]):
            data.append((np.zeros(d, dtype=complex), Rb[:, jcol]))
        rho = 0.45 * g.u
        for idx, (a_vec, b_vec) in enumerate(data):
            pieces: dict[EdgeId, list[TestPiece]] = {}
            star = g.star(v)
            for k, (eid, end) in enumerate(star.slots):
                a_k, b_k = complex(a_vec[k]), complex(b_vec[k])
                if abs(a_k) < 1e-15 and abs(b_k) < 1e-15:
                    continue
                e = g.edge(eid)
                chi, chi_d1, chi_d2 = _ramp_down(rho / 2.0, rho)
                if end == INIT:
                    def f(t, a=a_k, b=b_k, chi=chi):
                        t = np.asarray(t, dtype=float)
                        return (a + b * t) * chi(t)

                    def d2f(t, a=a_k, b=b_k, chi=chi, c1=chi_d1, c2=chi_d2):
                        t = np.asarray(t, dtype=float)
                        return 2.0 * b * c1(t) + (a + b * t) * c2(t)

                    segs = [TestPiece(0.0, rho / 2.0, f, d2f), TestPiece(rho / 2.0, rho, f, d2f)]
                else:
                    length = e.length

                    def f(t, a=a_k, b=b_k, chi=chi, length=length):
                        tau = length - np.asarray(t, dtype=float)
                        return (a + b * tau) * chi(tau)

                    def d2f(t, a=a_k, b=b_k, c1=chi_d1, c2=chi_d2, length=length):
                        tau = length - np.asarray(t, dtype=float)
                        return 2.0 * b * c1(tau) + (a + b * tau) * c2(tau)

                    segs = [
                        TestPiece(length - rho, length - rho / 2.0, f, d2f),
                        TestPiece(length - rho / 2.0, length, f, d2f),
                    ]
                pieces.setdefault(eid, []).extend(segs)
            if not pieces:
                continue
            tvals = dict(zero_traces)
            tders = dict(zero_traces)
            tvals[v] = np.asarray(a_vec, dtype=complex)
            tders[v] = np.asarray(b_vec, dtype=complex)
            tests.append(
                LocalTestFunction(
                    f"star:{v}:{idx}",
                    {eid: tuple(ps) for eid, ps in pieces.items()},
                    tvals,
                    tders,
                )
            )
    return tests


# ---------------------------------------------------------------------------
# generalized eigenfunction residuals
# ---------------------------------------------------------------------------


def _phi_evaluator(phi) -> Callable[[EdgeId, np.ndarray], np.ndarray]:
    if isinstance(phi, SecularSolution):
        return phi.evaluate
    if isinstance(phi, GridFunction):
        return phi.evaluate
    raise TypeError("phi must be a SecularSolution or GridFunction")


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    per_test: tuple[tuple[str, float], ...]


def generalized_eigenfunction_residual(
    g: MetricGraph,
    bc: BoundaryCondition,
    phi,
    lam: float,
    tests: Sequence[LocalTestFunction] | None = None,
    potential=None,
    condition_tol: float = 1e-8,
) -> ResidualReport:
    """max over tests of |<H f, phi> - lambda <f, phi>| / ||f||.

    ``H f`` is ``-f''`` (plus ``V f`` when a potential is given) with the
    test's analytic second derivative.  Integrals use Gauss-Legendre panels
    aligned with the smooth pieces of each test AND with the grid cells of
    phi and the potential when those are nodal data, so exact eigenfunctions
    score residuals at quadrature noise level and rough potentials are
    integrated consistently with their interpolants.  Interior bumps probe
    the differential equation; star tests probe the vertex conditions
    through the boundary terms of integration by parts.  Tests that do not
    satisfy the vertex conditions are rejected.

    ``potential`` may be anything with an ``evaluate(edge_id, ts)`` method
    (its mesh is respected) or a bare callable ``(edge_id, ts) -> values``.
    """
    if tests is None:
        tests = standard_test_battery(g, bc)
    phi_eval = _phi_evaluator(phi)
    pot_eval = None
    if potential is not None:
        pot_eval = potential.evaluate if hasattr(potential, "evaluate") else potential

    cut_meshes = []
    if isinstance(phi, GridFunction):
        cut_meshes.append(phi.h_max)
    if potential is not None and hasattr(potential, "h_max"):
        cut_meshes.append(potential.h_max)

    def cuts_for(eid: EdgeId) -> np.ndarray | None:
        if not cut_meshes:
            return None
        nodes = [edge_grid(g, eid, hm) for hm in cut_meshes]
        return np.unique(np.concatenate(nodes))

    results = []
    for test in tests:
        bad = test.condition_residual(g, bc)
        if bad > condition_tol:
            raise ValueError(
                f"test {test.label!r} violates the vertex conditions (residual {bad:.3e})"
            )
        acc = 0.0 + 0.0j
        for eid, pieces in test.pieces.items():
            cuts = cuts_for(eid)
            for p in pieces:
                ts, ws = _gl_panels(p.t0, p.t1, cuts)
                pv = np.conj(phi_eval(eid, ts))
                hf = -p.d2(ts)
                if pot_eval is not None:
                    hf = hf + pot_eval(eid, ts) * p.f(ts)
                acc += np.sum(ws * (hf - lam * p.f(ts)) * pv)
        nrm = test.l2_norm()
        results.append((test.label, abs(acc) / nrm if nrm > 0 else 0.0))
    worst = max((r for _, r in results), default=0.0)
    return ResidualReport(worst, tuple(results))


def intertwining_gap(rep: DiscreteSpectralRep, coeffs: np.ndarray) -> float:
    """Check U H = M_lambda U on the span of the computed modes.

    For f with the given mode coefficients, H f has coefficients
    lambda_m c_m; the gap is measured by synthesizing H f exactly from the
    modes and re-expanding it.
    """
    hf = reconstruct(rep, coeffs * np.array([m.lam for m in rep.modes]))
    back = fourier_coefficients(rep, hf)
    return float(np.max(np.abs(back - coeffs * np.array([m.lam for m in rep.modes]))))
