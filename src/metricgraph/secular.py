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
square matrix M(lambda) of order 2|E| that drops rank exactly at the
spectrum; its null space gives the eigenfunctions.  The eigenvalues
themselves are counted, not searched for.  Decouple the graph by Dirichlet
conditions at every edge end.  Off the decoupled spectrum, the energies
(n pi / l_e)^2, the form q - lambda ||.||^2 on the solutions of
``-f'' = lambda f`` is the Hermitian vertex matrix

    D(lambda) = K^H (Lambda(lambda) - L) K,

where K stacks the ker P_v bases, L the L_v, and Lambda is the
Dirichlet-to-Neumann map, a 2x2 block ``[[c/s, -1/s], [-1/s, c/s]]`` per
edge with (c, s) at the edge length.  By Sylvester's law of inertia the
number of eigenvalues below lambda is ``N_D(lambda) + n_-(D(lambda))``,
with N_D the decoupled count (Berkolaiko & Kuchment, *Introduction to
Quantum Graphs*, ch. 3).  :class:`SecularSystem` validates the input and
builds the constant parts of M and D once; every evaluation writes the
per-edge (c, s) at lambda into them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .boundary import BoundaryCondition, lp_mixing, require_valid_bc
from .graph import EdgeId, MetricGraph

SERIES_THRESHOLD = 1e-6  # |lambda| below which the power series is used
SINGULAR_RTOL = 1e-8  # numerical rank of M(lambda), relative to its largest singular value
SCAN_POINTS = 600  # default sigma_min grid of eigenvalue_scan; it places cuts, not roots
POLE_RTOL = 1e-6  # half-width of the band around a decoupled energy, relative to the energy
CLUSTER_RTOL = 1e-12  # roots closer than this, relative to max(1, |lambda|), form one cluster
MAX_KL = 300.0  # largest sqrt(-lambda) * l: e^600 ~ 4e260 leaves the squares in row norms and Gram matrices finite


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


def _edge_columns(a: np.ndarray, b: np.ndarray, init: np.ndarray, term: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rows ``a f + b f'`` over the slot traces, regrouped by edge and end."""
    return a[:, init], b[:, init], a[:, term], b[:, term]


def _fill(cols: tuple[np.ndarray, ...], lam: float, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Evaluate compiled rows on the column layout (alpha_e, beta_e) at lambda, by the end map of ``trace_values``."""
    ia, ib, ta, tb = cols
    out = np.empty((ia.shape[0], 2 * c.size), dtype=np.result_type(ia, ib, ta, tb, c))
    out[:, 0::2] = ia + ta * c + tb * (lam * s)
    out[:, 1::2] = ib + ta * s - tb * c
    return out


def _blocks(arrays: Iterable[np.ndarray]) -> np.ndarray:
    """Block-diagonal matrix of 2-d blocks, real when no entry has an imaginary part.

    Real (L, P) data then gives real M and D, whose SVD and eigvalsh take
    about half the time of their complex forms.  (``scipy.linalg.block_diag``
    takes about 1 ms a call in scipy 1.17, as long as the rest of a compile.)
    """
    arrays = list(arrays)
    B = np.zeros((sum(a.shape[0] for a in arrays), sum(a.shape[1] for a in arrays)), dtype=np.result_type(*arrays))
    r = c = 0
    for a in arrays:
        B[r : r + a.shape[0], c : c + a.shape[1]] = a
        r, c = r + a.shape[0], c + a.shape[1]
    return B.real.copy() if np.iscomplexobj(B) and not np.any(B.imag) else B


class SecularSystem:
    """The vertex-condition system of (g, bc), compiled once for every lambda.

    The one place where ``P f = 0, L f + (1 - P) f' = 0`` become rows: it
    validates (g, bc), splits each P_v into ker/ran bases and stores the row
    blocks ``[ran^H ; ker^H L]`` (on slot values) and ``[0 ; ker^H]`` (on
    inward derivatives), regrouped by edge end; M(lambda) combines them with
    the per-edge (c, s) at lambda.  For D(lambda) it keeps K's rows at each
    edge's initial and terminal slot, and ``K^H L K``.  The rows omit
    ``P L f(v)``, nonzero only at the lp-mixing ``anomaly_vertices``;
    :func:`eigenfunction` checks null vectors against the full conditions.
    """

    def __init__(self, g: MetricGraph, bc: BoundaryCondition) -> None:
        g.require_valid()
        g.require_compact("the secular system")
        require_valid_bc(g, bc)
        self.lengths = np.array([e.length for e in g.edges], dtype=float)
        init, term = g.slot_ends
        self._longest = max(g.edges, key=lambda e: e.length)
        val: list[np.ndarray] = []
        der: list[np.ndarray] = []
        kers: list[np.ndarray] = []
        kLks: list[np.ndarray] = []
        for v in g.vertices:
            d = g.degree(v)
            ker, ran = bc.ker_ran(v)
            kL = ker.conj().T @ bc.L(v)
            kers.append(ker)
            kLks.append(kL @ ker)
            val.append(np.vstack([ran.conj().T, kL]))
            der.append(np.vstack([np.zeros((ran.shape[1], d)), ker.conj().T]))
        self._rows = _edge_columns(_blocks(val), _blocks(der), init, term)
        self.anomaly_vertices = tuple(v for v in g.vertices if lp_mixing(bc.L(v), bc.P(v)))
        K = _blocks(kers)
        self._k_init, self._k_term = K[init], K[term]
        self._kLk = _blocks(kLks)

    def _basis(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """(c, s) at the edge lengths; raises :class:`RankAnomaly` before cosh/sinh can overflow."""
        kl = math.sqrt(max(-lam, 0.0)) * self._longest.length
        if kl > MAX_KL:
            e = self._longest.id
            raise RankAnomaly(f"the shooting basis overflows at lambda={lam}: sqrt(-lambda)*l = {kl:.6g} on edge {e!r}")
        return basis_values(lam, self.lengths)

    def vertex_matrix(self, lam: float) -> np.ndarray:
        """The Hermitian D(lambda) = K^H (Lambda(lambda) - L) K; lambda off the decoupled energies."""
        c, s = self._basis(lam)
        a, b = (c / s)[:, None], (1.0 / s)[:, None]
        ki, kt = self._k_init, self._k_term
        return ki.conj().T @ (a * ki - b * kt) + kt.conj().T @ (a * kt - b * ki) - self._kLk

    def decoupled_count(self, lam: float) -> int:
        """N_D(lambda): how many decoupled energies (n pi / l_e)^2, n >= 1, lie below lambda."""
        if lam <= 0:
            return 0
        return int(np.sum(np.ceil(math.sqrt(lam) * self.lengths / math.pi) - 1))

    def decoupled_energies(self, lo: float, hi: float) -> np.ndarray:
        """The distinct decoupled energies in [lo, hi], ascending."""
        if hi <= 0:
            return np.zeros(0)
        k_lo, k_hi = math.sqrt(max(lo, 0.0)), math.sqrt(hi)
        ns = (np.arange(max(1, math.ceil(k_lo * l / math.pi)), math.floor(k_hi * l / math.pi) + 1) for l in self.lengths)
        p = np.concatenate([(n * math.pi / l) ** 2 for n, l in zip(ns, self.lengths)])
        return np.unique(p[(p >= lo) & (p <= hi)])

    def count(self, lam: float) -> int:
        """Eigenvalues below lambda, with multiplicity: N_D(lambda) + n_-(D(lambda))."""
        return self.decoupled_count(lam) + int(np.count_nonzero(np.linalg.eigvalsh(self.vertex_matrix(lam)) < 0))

    def matrix(self, lam: float) -> np.ndarray:
        """The square matrix M(lambda)."""
        return _fill(self._rows, lam, *self._basis(lam))


def secular_matrix(g: MetricGraph, bc: BoundaryCondition, lam: float) -> np.ndarray:
    """M(lambda) of (g, bc), compiled for this one energy."""
    return SecularSystem(g, bc).matrix(lam)


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
    M = (system or SecularSystem(g, bc)).matrix(lam)
    return float(np.linalg.svd(_row_normalized(M), compute_uv=False)[-1])


# ---------------------------------------------------------------------------
# eigenvalue scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecularEigenvalue:
    lam: float
    multiplicity: int
    sigma_min: float


class RankAnomaly(ValueError):
    """M(lambda) contradicts the count, its null vectors break the vertex conditions, or its basis overflows.

    A failed check on valid input, not unusable input: the command line
    maps it to exit 1.  It stays a ``ValueError`` for library callers.
    """


def _branch_root(branch, a: float, b: float, xtol: float, max_iter: int = 100) -> float:
    """Root of a decreasing function with branch(a) >= 0 > branch(b).

    Regula falsi with the Illinois modification: the end kept twice in a row
    has its value halved.  A step that leaves the bracket, or two steps that
    fail to halve it, are replaced by bisection.
    """
    fa, fb = branch(a), branch(b)
    kept, width, slow = 0, b - a, 0
    for _ in range(max_iter):
        if b - a <= xtol:
            break
        x = b - fb * (b - a) / (fb - fa)
        if slow >= 2 or not a < x < b:
            x, slow = 0.5 * (a + b), 0
        fx = branch(x)
        if fx == 0.0:
            return x
        if fx > 0:
            a, fa = x, fx
            fb = 0.5 * fb if kept == 1 else fb
            kept = 1
        else:
            b, fb = x, fx
            fa = 0.5 * fa if kept == -1 else fa
            kept = -1
        slow = slow + 1 if b - a > 0.5 * width else 0
        width = b - a
    return b - fb * (b - a) / (fb - fa)


def _cut_points(vals: np.ndarray, grid: np.ndarray) -> set[float]:
    """The grid neighbours of every local minimum of sigma_min."""
    padded = np.concatenate([[math.inf], vals, [math.inf]])
    i = np.flatnonzero((vals <= padded[:-2]) & (vals <= padded[2:]))
    return set(grid[np.maximum(i - 1, 0)].tolist()) | set(grid[np.minimum(i + 1, grid.size - 1)].tolist())


def _pole_bands(system: SecularSystem, lo: float, hi: float) -> dict[float, tuple[float, list[float]]]:
    """Bands ``p -+ POLE_RTOL p`` around the decoupled energies near [lo, hi].

    Overlapping bands merge; each maps its lower end to its upper end and its distinct energies.
    """
    pad = 2 * POLE_RTOL * max(1.0, abs(lo), abs(hi))
    bands: list[list] = []  # [lower end, upper end, energies]
    for p in system.decoupled_energies(lo - pad, hi + pad).tolist():
        w = POLE_RTOL * p
        if bands and p - w <= bands[-1][1]:
            bands[-1][1] = p + w
            if p - bands[-1][2][-1] > CLUSTER_RTOL * p:
                bands[-1][2].append(p)
        else:
            bands.append([p - w, p + w, [p]])
    return {b_lo: (b_hi, poles) for b_lo, b_hi, poles in bands}


def _band_roots(system: SecularSystem, a: float, b: float, poles: list[float], count) -> list[tuple[float, int]]:
    """(p, rank drop of M(p)) for the decoupled energies p of the band [a, b].

    The drops must add up to the jump in the count across the band.
    """
    ranks = [_null_space(system.matrix(p)).shape[1] for p in poles]
    if sum(ranks) != count(b) - count(a):
        raise RankAnomaly(
            f"M(lambda) drops rank by {ranks} at the decoupled energies {poles}, "
            f"but the eigenvalue count rises by {count(b) - count(a)} across [{a}, {b}]"
        )
    return [(p, r) for p, r in zip(poles, ranks) if r]


def _settle(system: SecularSystem, a: float, b: float, count) -> list[tuple[float, int]]:
    """(root, multiplicity) in [a, b), which holds no decoupled energy.

    Bisection on the count isolates the roots; a simple root is refined on
    the eigenvalue branch of D(lambda) that crosses zero, and a cluster
    narrower than CLUSTER_RTOL takes its multiplicity from the count jump.
    """
    out = []
    stack = [(a, count(a), b, count(b))]
    while stack:
        a, na, b, nb = stack.pop()
        if nb < na:
            raise RankAnomaly(f"eigenvalue count falls from {na} to {nb} on [{a}, {b}]")
        if nb == na:
            continue
        xtol = CLUSTER_RTOL * max(1.0, abs(a), abs(b))
        if b - a <= xtol:
            out.append((0.5 * (a + b), nb - na))
        elif nb - na == 1:
            j = na - system.decoupled_count(a)  # D(a) has j negative eigenvalues, D(b) has j + 1
            out.append((_branch_root(lambda x: np.linalg.eigvalsh(system.vertex_matrix(x))[j], a, b, xtol), 1))
        else:
            m = 0.5 * (a + b)
            nm = count(m)
            stack += [(a, na, m, nm), (m, nm, b, nb)]
    return out


def eigenvalue_scan(
    g: MetricGraph,
    bc: BoundaryCondition,
    lam_min: float,
    lam_max: float,
    num: int = SCAN_POINTS,
) -> list[SecularEigenvalue]:
    """Every eigenvalue in [lam_min, lam_max], with its certified multiplicity.

    Completeness does not depend on ``num``: the count N(lambda) of
    eigenvalues below lambda (:meth:`SecularSystem.count`) settles every
    interval.  The ``num``-point grid of sigma_min (at least 2 points) only
    chooses where the window is first cut: at its ends and at the grid
    neighbours of each local minimum.  Each decoupled energy p gets a band
    ``p -+ POLE_RTOL p``, where D(lambda) is singular or
    ill-conditioned; grid cuts inside a band are dropped, the count is
    taken at the band ends and p's multiplicity is the rank drop of M(p).
    Between cuts, bisection on the count isolates the roots and a simple
    root is refined to about CLUSTER_RTOL on the eigenvalue branch of D that
    crosses zero there, which decreases in lambda between decoupled
    energies.  Roots within CLUSTER_RTOL of each other form one cluster,
    whose multiplicity is the jump in the count.  Raises
    :class:`RankAnomaly` when a rank drop disagrees with the count.
    ``sigma_min`` of each hit is sigma_min of the row-normalized M at it.
    """
    if not (lam_max > lam_min):
        raise ValueError("empty scan range")
    if num < 2:
        raise ValueError(f"a scan needs at least 2 points, got {num}")
    system = SecularSystem(g, bc)
    grid = np.linspace(lam_min, lam_max, num)
    vals = np.array([smallest_singular_value(g, bc, x, system) for x in grid])
    bands = _pole_bands(system, lam_min, lam_max)
    cuts = {lam_min, lam_max} | _cut_points(vals, grid)
    cuts = {x for x in cuts if not any(lo < x < hi for lo, (hi, _) in bands.items())}
    points = sorted(cuts | set(bands) | {hi for hi, _ in bands.values()})
    count = functools.cache(system.count)
    found: list[tuple[float, int]] = []
    for a, b in zip(points, points[1:]):
        found += _band_roots(system, a, b, bands[a][1], count) if a in bands else _settle(system, a, b, count)
    found.sort()
    merged: list[tuple[float, int]] = []
    for lam, mult in found:
        if merged and lam - merged[-1][0] <= CLUSTER_RTOL * max(1.0, abs(lam)):
            merged[-1] = (merged[-1][0], merged[-1][1] + mult)
        else:
            merged.append((lam, mult))
    return [
        SecularEigenvalue(float(lam), mult, smallest_singular_value(g, bc, lam, system))
        for lam, mult in merged
        if lam_min <= lam <= lam_max
    ]


def scan_window(g: MetricGraph, bc: BoundaryCondition, modes: int) -> tuple[float, float]:
    """[lo, hi] holding the ``modes`` lowest eigenvalues: N(lo) = 0 and N(hi) >= N_D(hi) >= modes.

    ``lo`` is the first of -eps, -2 eps, -4 eps, ... with count 0, eps = min(1, l_max^-2); ``hi``
    lies just above the ``modes``-th decoupled energy (n pi / l_e)^2, counted with multiplicity.
    """
    system = SecularSystem(g, bc)
    lo = -min(1.0, float(system.lengths.max()) ** -2)
    while system.count(lo) > 0:  # raises RankAnomaly past MAX_KL
        lo *= 2.0
    p = (np.arange(1, modes + 1)[:, None] * math.pi / system.lengths) ** 2
    return lo, float(np.sort(p, axis=None)[modes - 1]) * (1.0 + 4.0 * POLE_RTOL)


# ---------------------------------------------------------------------------
# eigenfunctions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SecularSolution:
    """Exact solution ``f_e = alpha_e c + beta_e s`` at a fixed energy.

    ``x`` is a null vector of M(lambda) in its column layout: the complex
    pairs (alpha_e, beta_e) edge by edge in ``graph.edges`` order, so edge k
    owns ``x[2k]`` and ``x[2k + 1]`` (k from ``graph.edge_index``).
    """

    graph: MetricGraph
    lam: float
    x: np.ndarray

    def evaluate(self, edge_id: EdgeId, t: np.ndarray) -> np.ndarray:
        k = self.graph.edge_index[edge_id]
        c, s = basis_values(self.lam, t)
        return self.x[2 * k] * c + self.x[2 * k + 1] * s

    def trace_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact slot arrays (:attr:`MetricGraph.slots`) of values and inward derivatives.

        Edge e has (alpha, beta) at its initial slot and ``(c alpha + s beta, lam s alpha - c beta)``
        at its terminal slot, with (c, s) at the edge length.
        """
        g, alpha, beta = self.graph, self.x[0::2], self.x[1::2]
        init, term = g.slot_ends
        c, s = basis_values(self.lam, [e.length for e in g.edges])
        vals, ders = np.empty(self.x.size, dtype=complex), np.empty(self.x.size, dtype=complex)
        vals[init], ders[init] = alpha, beta
        vals[term], ders[term] = c * alpha + s * beta, self.lam * s * alpha - c * beta
        return vals, ders

    def vertex_residual(self, bc: BoundaryCondition, relative: bool = False) -> float:
        """max_v ||P f(v)|| + ||L f(v) + (1 - P) f'(v)|| for this solution (:meth:`BoundaryCondition.worst_residual`)."""
        return bc.worst_residual(self.graph, *self.trace_values(), relative)

    def l2_norm_sq(self) -> float:
        return float(np.real(self.x.conj() @ _gram(self.graph, self.lam) @ self.x))


def _gram(g: MetricGraph, lam: float) -> np.ndarray:
    """The L2 Gram matrix of the coefficient layout: one exact 2x2 block per edge."""
    return _blocks(basis_gram(lam, e.length) for e in g.edges)


def _orthonormalize(g: MetricGraph, lam: float, X: np.ndarray) -> np.ndarray:
    gram = X.conj().T @ _gram(g, lam) @ X
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


def _null_space(M: np.ndarray) -> np.ndarray:
    """Orthonormal null-space basis of M; rank at SINGULAR_RTOL * sigma_max of the row-normalized M."""
    _, svs, Vh = np.linalg.svd(_row_normalized(M))
    rank = int(np.count_nonzero(svs > SINGULAR_RTOL * svs.max(initial=0.0)))
    return Vh[rank:].conj().T


def eigenfunction(
    g: MetricGraph,
    bc: BoundaryCondition,
    lam: float,
    system: SecularSystem | None = None,
) -> list[SecularSolution]:
    """L2-orthonormal basis of exact eigenfunctions at an accepted energy.

    Each is a :class:`SecularSolution` holding an orthonormalized null
    vector of M(lambda).  Raises if M(lambda) is not numerically rank
    deficient there.  Null vectors whose verbatim residual at some vertex v
    exceeds ``100 SINGULAR_RTOL max(1, ||L_v||)`` (possible when L maps
    ker P into ran P) are discarded with a rank-anomaly error rather than
    projected away.  ``system`` is (g, bc) compiled, to share across roots.
    """
    system = system or SecularSystem(g, bc)
    null = _null_space(system.matrix(lam))
    if null.shape[1] == 0:
        sigma = smallest_singular_value(g, bc, lam, system)
        raise ValueError(f"lambda={lam} is not an eigenvalue (sigma_min={sigma:.3e})")
    sols = [SecularSolution(g, lam, x) for x in _orthonormalize(g, lam, null).astype(complex).T]
    kept = [s for s in sols if s.vertex_residual(bc, relative=True) <= 100 * SINGULAR_RTOL]
    if len(kept) < len(sols):
        raise RankAnomaly(
            f"rank anomaly at lambda={lam}: {len(sols) - len(kept)} null vector(s) violate the "
            f"full vertex conditions at vertices {system.anomaly_vertices!r}"
        )
    return kept


def weyl_count_estimate(g: MetricGraph, lam: float) -> float:
    """Leading-order eigenvalue count below lam: total length * sqrt(lam)/pi."""
    if lam <= 0:
        return 0.0
    return g.total_length * math.sqrt(lam) / math.pi
