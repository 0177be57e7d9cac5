"""Exact spectra on compact graphs via per-edge fundamental solutions.

Any solution of ``-f'' = lambda f`` on an edge is ``alpha c(t) + beta s(t)``
in the basis with c(0) = 1, c'(0) = 0, s(0) = 0, s'(0) = 1:

    lambda > 0:  c = cos(w t),  s = sin(w t)/w,   w = sqrt(lambda)
    lambda < 0:  c = cosh(k t), s = sinh(k t)/k,  k = sqrt(-lambda)
    lambda = 0:  c = 1,         s = t

Both are entire in lambda (c' = -lambda s and s' = c for every lambda), so
the basis passes through lambda = 0 without branching; a short power series
is used near zero to avoid cancellation.

Stacking the vertex conditions over all per-edge coefficient pairs yields a
square matrix M(lambda) of order 2|E|; eigenvalues are exactly the energies
where M drops rank, detected by scanning its smallest singular value.  Only
the per-edge (c, s) depend on lambda: :class:`SecularSystem` validates the
input and builds the constant condition rows once, and every evaluation
writes (c, s) into their columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
import scipy.linalg

from .boundary import BoundaryCondition, lp_mixing, require_valid_bc
from .graph import INIT, TERM, EdgeId, MetricGraph, VertexId

SERIES_THRESHOLD = 1e-6  # |lambda| below which the power series is used
SINGULAR_RTOL = 1e-8


# ---------------------------------------------------------------------------
# fundamental basis
# ---------------------------------------------------------------------------


def basis_values(lam: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, s) at the given arc lengths; derivatives follow as (-lam*s, c)."""
    t = np.asarray(t, dtype=float)
    if abs(lam) < SERIES_THRESHOLD:
        # four series terms leave a relative error below (|lam| t^2)^4 / 8!
        t2 = t * t
        c = np.ones_like(t)
        s = t.copy()
        term_c = np.ones_like(t)
        term_s = t.copy()
        for k in range(1, 5):
            term_c = term_c * (-lam) * t2 / ((2 * k - 1) * (2 * k))
            term_s = term_s * (-lam) * t2 / ((2 * k) * (2 * k + 1))
            c = c + term_c
            s = s + term_s
        return c, s
    if lam > 0:
        w = math.sqrt(lam)
        return np.cos(w * t), np.sin(w * t) / w
    k = math.sqrt(-lam)
    return np.cosh(k * t), np.sinh(k * t) / k


def basis_at(lam: float, t: float) -> tuple[float, float, float, float]:
    """(c, s, c', s') at a single arc length."""
    c, s = basis_values(lam, np.array([t]))
    return float(c[0]), float(s[0]), float(-lam * s[0]), float(c[0])


def basis_gram(lam: float, length: float) -> np.ndarray:
    """Exact 2x2 Gram matrix of (c, s) on (0, length)."""
    l = float(length)
    if abs(lam) < SERIES_THRESHOLD:
        # Gauss-Legendre on the series evaluator; the integrands are nearly
        # polynomial there, so 32 nodes are exact to machine precision
        x, w = np.polynomial.legendre.leggauss(32)
        ts = 0.5 * l * (x + 1.0)
        ws = 0.5 * l * w
        c, s = basis_values(lam, ts)
        return np.array(
            [
                [np.sum(ws * c * c), np.sum(ws * c * s)],
                [np.sum(ws * c * s), np.sum(ws * s * s)],
            ]
        )
    if lam > 0:
        w = math.sqrt(lam)
        cc = l / 2.0 + math.sin(2 * w * l) / (4 * w)
        cs = math.sin(w * l) ** 2 / (2 * w * w)
        ss = (l / 2.0 - math.sin(2 * w * l) / (4 * w)) / (w * w)
    else:
        k = math.sqrt(-lam)
        cc = l / 2.0 + math.sinh(2 * k * l) / (4 * k)
        cs = math.sinh(k * l) ** 2 / (2 * k * k)
        ss = (math.sinh(2 * k * l) / (4 * k) - l / 2.0) / (k * k)
    return np.array([[cc, cs], [cs, ss]])


# ---------------------------------------------------------------------------
# the condition matrix
# ---------------------------------------------------------------------------


def _edge_ends(g: MetricGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge lengths and the slot index of each edge's initial and terminal end.

    Slots number the edge ends vertex by vertex, in vertex-star order.
    """
    slot = {}
    for v in g.vertices:
        for end in g.star(v).slots:
            slot[end] = len(slot)
    lengths = np.array([e.length for e in g.edges], dtype=float)
    init = np.array([slot[(e.id, INIT)] for e in g.edges], dtype=int)
    term = np.array([slot[(e.id, TERM)] for e in g.edges], dtype=int)
    return lengths, init, term


def _edge_columns(a: np.ndarray, b: np.ndarray, init: np.ndarray, term: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rows ``a f + b f'`` over the slot traces, regrouped by edge and end."""
    return a[:, init], b[:, init], a[:, term], b[:, term]


def _fill(cols: tuple[np.ndarray, ...], lam: float, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Evaluate compiled rows on the coefficients (alpha_e, beta_e) at lambda.

    The initial end of edge e has traces (alpha, beta) = (f(0), f'(0)); the
    terminal end has value ``c alpha + s beta`` and inward derivative
    ``lam s alpha - c beta``, with (c, s) at the edge length.
    """
    ia, ib, ta, tb = cols
    out = np.empty((ia.shape[0], 2 * c.size), dtype=complex)
    out[:, 0::2] = ia + ta * c + tb * (lam * s)
    out[:, 1::2] = ib + ta * s - tb * c
    return out


@dataclass(frozen=True)
class SecularMatrix:
    """Square vertex-condition matrix at energy lambda.

    Per vertex the rows are: the value conditions ``<p, f(v)> = 0`` over an
    orthonormal basis p of ran P_v, then ``<q, L_v f(v) + f'(v)> = 0`` over a
    basis q of ker P_v; together d_v rows, summing to 2|E| over the graph.
    ``anomaly`` stacks the leftover components ``P_v L_v f(v)`` for vertices
    where L couples ker P into ran P (:func:`boundary.lp_mixing`); those rows
    are not part of the square system and are reported rather than silently
    imposed.
    """

    lam: float
    matrix: np.ndarray
    anomaly: np.ndarray
    anomaly_vertices: tuple[VertexId, ...]
    row_vertices: tuple[VertexId, ...]


class SecularSystem:
    """The vertex-condition system of (g, bc), compiled once for every lambda.

    Building it validates the graph and the (L, P) data, splits each P_v into
    ker/ran bases and stores the constant row blocks ``[ran^H ; ker^H L]``
    (on the slot values) and ``[0 ; ker^H]`` (on the inward derivatives),
    regrouped by edge end.  M(lambda) is then those blocks combined with the
    per-edge (c, s) at lambda, from one vectorized :func:`basis_values` call.
    """

    def __init__(self, g: MetricGraph, bc: BoundaryCondition) -> None:
        g.require_valid()
        g.require_compact("the secular system")
        require_valid_bc(g, bc)
        self.lengths, init, term = _edge_ends(g)
        val: list[np.ndarray] = []
        der: list[np.ndarray] = []
        anom: list[np.ndarray] = []
        row_vs: list[VertexId] = []
        anom_vs: list[VertexId] = []
        for v in g.vertices:
            L, P = bc.L(v), bc.P(v)
            d = g.degree(v)
            ker, ran = bc.ker_ran(v)
            val.append(np.vstack([ran.conj().T, ker.conj().T @ L]))
            der.append(np.vstack([np.zeros((ran.shape[1], d)), ker.conj().T]))
            row_vs += [v] * d
            if lp_mixing(L, P):
                anom.append(ran.conj().T @ L)
                anom_vs += [v] * ran.shape[1]
            else:
                anom.append(np.zeros((0, d)))
        blocks = scipy.linalg.block_diag
        self._rows = _edge_columns(blocks(*val), blocks(*der), init, term)
        A = blocks(*anom)
        self._anomaly = _edge_columns(A, np.zeros_like(A), init, term)
        self.row_vertices = tuple(row_vs)
        self.anomaly_vertices = tuple(dict.fromkeys(anom_vs))

    def matrix(self, lam: float) -> np.ndarray:
        """The square matrix M(lambda)."""
        return _fill(self._rows, lam, *basis_values(lam, self.lengths))

    def at(self, lam: float) -> SecularMatrix:
        c, s = basis_values(lam, self.lengths)
        return SecularMatrix(
            lam, _fill(self._rows, lam, c, s), _fill(self._anomaly, lam, c, s),
            self.anomaly_vertices, self.row_vertices,
        )

    def singular_values(self, lam: float) -> np.ndarray:
        """Singular values of the row-normalized M(lambda), descending."""
        return np.linalg.svd(_row_normalized(self.matrix(lam)), compute_uv=False)


def secular_matrix(g: MetricGraph, bc: BoundaryCondition, lam: float) -> SecularMatrix:
    return SecularSystem(g, bc).at(lam)


def _row_normalized(M: np.ndarray) -> np.ndarray:
    # row scaling does not move the null space but evens out the mix of
    # value rows (O(1)) and derivative rows (O(sqrt(|lambda|)))
    norms = np.linalg.norm(M, axis=1)
    norms = np.where(norms > 0, norms, 1.0)
    return M / norms[:, None]


def smallest_singular_value(
    g: MetricGraph, bc: BoundaryCondition, lam: float, system: SecularSystem | None = None
) -> float:
    """sigma_min of the row-normalized M(lambda); ``system`` is (g, bc) compiled."""
    return float((system or SecularSystem(g, bc)).singular_values(lam)[-1])


# ---------------------------------------------------------------------------
# eigenvalue scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecularEigenvalue:
    lam: float
    multiplicity: int
    sigma_min: float


def _golden_minimize(fn, a: float, b: float, xtol: float, max_iter: int = 120) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(max_iter):
        if b - a < xtol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fn(x2)
    xm = 0.5 * (a + b)
    return xm, fn(xm)


def eigenvalue_scan(
    g: MetricGraph,
    bc: BoundaryCondition,
    lam_min: float,
    lam_max: float,
    num: int = 400,
    tol: float = SINGULAR_RTOL,
) -> list[SecularEigenvalue]:
    """Eigenvalues in [lam_min, lam_max] from the rank drops of M(lambda).

    The system is compiled once (:class:`SecularSystem`), so each evaluation
    only writes the per-edge (c, s) at lambda into M and takes one SVD.  The
    scan samples sigma_min on a uniform grid, one lambda at a time, refines
    every local minimum by golden-section search, and accepts energies where
    sigma_min falls below ``tol * sigma_max``.  Roots separated by more than
    two grid steps are guaranteed to show up as distinct local minima; choose
    ``num`` accordingly.  Multiplicity is the number of singular values under
    the same threshold.
    """
    if not (lam_max > lam_min):
        raise ValueError("empty scan range")
    system = SecularSystem(g, bc)

    def sv(lam: float) -> float:
        return smallest_singular_value(g, bc, lam, system)

    grid = np.linspace(lam_min, lam_max, num)
    vals = np.array([sv(x) for x in grid])
    step = grid[1] - grid[0]
    hits: list[SecularEigenvalue] = []
    for i in range(num):
        left = vals[i - 1] if i > 0 else math.inf
        right = vals[i + 1] if i < num - 1 else math.inf
        if not (vals[i] <= left and vals[i] <= right):
            continue
        a = grid[max(i - 1, 0)]
        b = grid[min(i + 1, num - 1)]
        xtol = 1e-12 * max(1.0, abs(a), abs(b))
        lam_star, s_star = _golden_minimize(sv, a, b, xtol)
        svs = system.singular_values(lam_star)
        smax = float(svs[0]) if svs.size else 0.0
        threshold = tol * max(smax, 1e-300)
        if s_star >= threshold:
            continue
        mult = int(np.sum(svs < threshold))
        hits.append(SecularEigenvalue(float(lam_star), mult, float(s_star)))
    # deduplicate within the grid resolution, keep the sharper minimum
    hits.sort(key=lambda h: h.lam)
    merged: list[SecularEigenvalue] = []
    for h in hits:
        if merged and abs(h.lam - merged[-1].lam) < 0.5 * step:
            if h.sigma_min < merged[-1].sigma_min:
                merged[-1] = h
        else:
            merged.append(h)
    return merged


# ---------------------------------------------------------------------------
# eigenfunctions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecularSolution:
    """Exact solution ``f_e = alpha_e c + beta_e s`` at a fixed energy."""

    graph: MetricGraph
    lam: float
    coefficients: Mapping[EdgeId, tuple[complex, complex]]

    def evaluate(self, edge_id: EdgeId, t: np.ndarray) -> np.ndarray:
        a, b = self.coefficients[edge_id]
        c, s = basis_values(self.lam, t)
        return a * c + b * s

    def derivative(self, edge_id: EdgeId, t: np.ndarray) -> np.ndarray:
        a, b = self.coefficients[edge_id]
        c, s = basis_values(self.lam, t)
        return a * (-self.lam) * s + b * c

    def trace_values(self) -> tuple[dict[VertexId, np.ndarray], dict[VertexId, np.ndarray]]:
        """Exact star-ordered boundary vectors (values, inward derivatives).

        The slot map of M(lambda), :func:`_fill`, applied to identity rows.
        """
        g = self.graph
        lengths, init, term = _edge_ends(g)
        x = np.array([ab for e in g.edges for ab in self.coefficients[e.id]], dtype=complex)
        eye, zero = np.eye(x.size), np.zeros((x.size, x.size))
        c, s = basis_values(self.lam, lengths)
        vals, ders = (_fill(_edge_columns(a, b, init, term), self.lam, c, s) @ x for a, b in ((eye, zero), (zero, eye)))
        split = np.cumsum([g.degree(v) for v in g.vertices])[:-1]
        return dict(zip(g.vertices, np.split(vals, split))), dict(zip(g.vertices, np.split(ders, split)))

    def vertex_residual(self, bc: BoundaryCondition) -> float:
        """max_v ||P f(v)|| + ||L f(v) + (1 - P) f'(v)|| for this solution."""
        vals, ders = self.trace_values()
        return max((bc.vertex_residual(v, vals[v], ders[v]) for v in self.graph.vertices), default=0.0)

    def l2_norm_sq(self) -> float:
        total = 0.0
        for e in self.graph.edges:
            a, b = self.coefficients[e.id]
            u = np.array([a, b])
            G = basis_gram(self.lam, e.length)
            total += float(np.real(u.conj() @ G @ u))
        return total


def _coeff_columns_to_solutions(g: MetricGraph, lam: float, X: np.ndarray) -> list[SecularSolution]:
    sols = []
    for j in range(X.shape[1]):
        coeffs = {}
        for i, e in enumerate(g.edges):
            coeffs[e.id] = (complex(X[2 * i, j]), complex(X[2 * i + 1, j]))
        sols.append(SecularSolution(g, lam, coeffs))
    return sols


def _orthonormalize(g: MetricGraph, lam: float, X: np.ndarray) -> np.ndarray:
    blocks = [basis_gram(lam, e.length) for e in g.edges]
    Gm = np.zeros((X.shape[0], X.shape[0]))
    for i, Gb in enumerate(blocks):
        Gm[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = Gb
    gram = X.conj().T @ Gm @ X
    gram = 0.5 * (gram + gram.conj().T)
    w, U = np.linalg.eigh(gram)
    keep = w > 1e-12 * max(w[-1], 1e-300)
    Y = X @ U[:, keep] / np.sqrt(w[keep])
    # canonical phase: the largest coefficient of each column is real positive
    for j in range(Y.shape[1]):
        i = int(np.argmax(np.abs(Y[:, j])))
        z = Y[i, j]
        if abs(z) > 0:
            Y[:, j] *= np.conj(z) / abs(z)
    return Y


class RankAnomaly(ValueError):
    """Null vectors of M(lambda) violate the full vertex conditions.

    A failed check on valid input, not unusable input: the command line
    maps it to exit 1.  It stays a ``ValueError`` for library callers.
    """


def eigenfunction(
    g: MetricGraph,
    bc: BoundaryCondition,
    lam: float,
    tol: float = SINGULAR_RTOL,
    system: SecularSystem | None = None,
) -> list[SecularSolution]:
    """L2-orthonormal basis of exact eigenfunctions at an accepted energy.

    Raises if M(lambda) is not numerically rank deficient there.  Null
    vectors that fail the verbatim vertex conditions (possible when L maps
    ker P into ran P) are discarded with a rank-anomaly error rather than
    projected away.  ``system`` is (g, bc) compiled, to share across roots.
    """
    system = system or SecularSystem(g, bc)
    _, svs, Vh = np.linalg.svd(_row_normalized(system.matrix(lam)))
    smax = float(svs[0]) if svs.size else 0.0
    threshold = tol * max(smax, 1e-300)
    null = Vh[svs < threshold].conj().T
    if null.shape[1] == 0:
        raise ValueError(f"lambda={lam} is not an eigenvalue (sigma_min={svs[-1]:.3e})")
    X = _orthonormalize(g, lam, null)
    sols = _coeff_columns_to_solutions(g, lam, X)
    kept = [s for s in sols if s.vertex_residual(bc) <= 100 * tol]
    if len(kept) < len(sols):
        raise RankAnomaly(
            f"rank anomaly at lambda={lam}: {len(sols) - len(kept)} null vector(s) violate the "
            f"full vertex conditions at vertices {system.anomaly_vertices!r}"
        )
    return kept


def solve_at_energy(
    g: MetricGraph,
    bc: BoundaryCondition,
    lam: float,
    free_ends: Iterable[tuple[EdgeId, str]] = (),
) -> list[SecularSolution]:
    """Solution space at an arbitrary energy with conditions relaxed at ends.

    The condition system is written in coordinate rows, two per edge-end (a
    value row of ``P_v f(v)`` and a derivative row of
    ``L_v f(v) + (1-P_v) f'(v)``); rows belonging to ``free_ends`` are
    dropped.  Useful to produce candidate generalized eigenfunctions on a
    compact piece whose free ends stand in for a truncated continuation.
    Returns an L2-orthonormal basis of the resulting null space (possibly
    empty).
    """
    g.require_valid()
    g.require_compact("energy-wise solves")
    require_valid_bc(g, bc)
    free = set(free_ends)
    known = {(e.id, end) for e in g.edges for end in ((INIT, TERM) if e.is_finite else (INIT,))}
    unknown = free - known
    if unknown:
        raise ValueError(f"free ends {sorted(map(str, unknown))} are not edge-ends of the graph")
    lengths, init, term = _edge_ends(g)
    val: list[np.ndarray] = []
    der: list[np.ndarray] = []
    kept: list[bool] = []
    for v in g.vertices:
        L, P = bc.L(v), bc.P(v)
        d = P.shape[0]
        # per slot, a value row of P and a derivative row of (L, 1 - P)
        val.append(np.stack([P, L], axis=1).reshape(2 * d, d))
        der.append(np.stack([np.zeros((d, d)), np.eye(d) - P], axis=1).reshape(2 * d, d))
        kept += [slot not in free for slot in g.star(v).slots for _ in range(2)]
    keep = np.array(kept, dtype=bool)
    val_all, der_all = scipy.linalg.block_diag(*val)[keep], scipy.linalg.block_diag(*der)[keep]
    M = _fill(_edge_columns(val_all, der_all, init, term), lam, *basis_values(lam, lengths))
    n = M.shape[1]
    if M.shape[0] == 0:
        null = np.eye(n, dtype=complex)
    else:
        M = _row_normalized(M)
        _, svs, Vh = np.linalg.svd(M)
        smax = max(float(svs[0]), 1e-300)
        cutoff_count = int(np.sum(svs < SINGULAR_RTOL * smax))
        rank = min(M.shape) - cutoff_count
        null = Vh[rank:].conj().T  # includes the dimension gap when M is wide
    if null.shape[1] == 0:
        return []
    X = _orthonormalize(g, lam, null)
    return _coeff_columns_to_solutions(g, lam, X)


def weyl_count_estimate(g: MetricGraph, lam: float) -> float:
    """Leading-order eigenvalue count below lam: total length * sqrt(lam)/pi."""
    if lam <= 0:
        return 0.0
    return g.total_length * math.sqrt(lam) / math.pi
