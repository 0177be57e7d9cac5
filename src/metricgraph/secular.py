"""Exact spectra on compact graphs from the end values of edge solutions.

Off the decoupled energies (n pi / l)^2 a solution of ``-f'' = lambda f`` on
an edge of length l is ``f(t) = (f(0) s(l - t) + f(l) s(t)) / s(l)``, with
the fundamental basis c(0) = 1, c'(0) = 0, s(0) = 0, s'(0) = 1:

    lambda > 0:  c = cos(w t),  s = sin(w t)/w,   w = sqrt(lambda)
    lambda < 0:  c = cosh(k t), s = sinh(k t)/k,  k = sqrt(-lambda)
    lambda = 0:  c = 1,         s = t

(a power series near zero).  The inward derivatives at the ends are -Lambda
times the end values, with the Dirichlet-to-Neumann block ``[[a, -b], [-b,
a]]``, a = c/s and b = 1/s at l (through e^(-kl) below zero, so nothing
overflows).  Slot values x (:attr:`MetricGraph.slots`) meet ``P_v f = 0`` when
x = K y, K stacking the ker P_v bases; the other conditions then read
D(lambda) y = 0 for ``D(lambda) = K^H (Lambda(lambda) - L) K``, whose null
vectors give the eigenfunctions.  By Sylvester's law of inertia the number
of eigenvalues below lambda is ``N_D(lambda) + n_-(D(lambda))``, with N_D the
decoupled count (Berkolaiko & Kuchment, *Introduction to Quantum Graphs*,
ch. 3), whose jump at a root sizes its eigenspace.  In a band ``p -+ POLE_RTOL
p`` around a decoupled energy each edge is cut at the first of CUTS whose
pieces clear it (:meth:`SecularSystem.split`).  :class:`SecularSystem` owns S, K
and K^H L K, built once per (g, bc) pair (:func:`compiled`).  D is its only
matrix in lambda; counts, roots and null vectors read the :meth:`~SecularSystem.scaled` D.
A system may also be cut (:meth:`~SecularSystem.cut`) and shifted by c_e on
each edge, which then solves ``-f'' + c_e f = lambda f``: (a, b) and N_D read
the energy lambda - c_e per edge (:func:`lowest_eigenvalue`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .boundary import BoundaryCondition, lp_mixing, require_valid_bc
from .graph import Edge, EdgeId, MetricGraph

SERIES_THRESHOLD = 1e-6  # |lambda| below which the power series is used
SINGULAR_RTOL = 1e-8  # null eigenvalues of D(lambda), scaled by its coefficient scale (SecularSystem.null_vectors)
SCAN_POINTS = 600  # default sigma_min grid of eigenvalue_scan; it places cuts, not roots
POLE_RTOL = 1e-6  # half-width of the band around a decoupled energy, relative to the energy
CLUSTER_RTOL = 1e-12  # roots closer than this, relative to max(1, |lambda|), form one cluster
PHI = (math.sqrt(5.0) - 1.0) / 2.0  # the golden cut; CUTS holds a split's cut fractions, preferred first
CUTS = (PHI, math.sqrt(2.0) - 1.0) + tuple(0.3 + 0.4 * (j * PHI % 1.0) for j in range(1, 40))
COMPILED_PAIRS = 8  # (g, bc) pairs whose compiled system (and standard test battery) stay cached


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


def _dtn(lam, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of each edge's Dirichlet-to-Neumann block ``[[a, -b], [-b, a]]``; off the decoupled energies.  With one
    energy per edge (an array) each edge takes the branch of its own scalar call, bit for bit."""
    if isinstance(lam, np.ndarray):
        a, b = np.empty_like(lengths), np.empty_like(lengths)
        low, up = lam < -SERIES_THRESHOLD, lam >= SERIES_THRESHOLD
        k, w = np.sqrt(-lam[low]), np.sqrt(lam[up])
        d = -np.expm1(-2.0 * k * lengths[low])
        a[low], b[low] = k * (2.0 - d) / d, 2.0 * k * np.exp(-k * lengths[low]) / d
        s = np.sin(w * lengths[up]) / w
        a[up], b[up] = np.cos(w * lengths[up]) / s, 1.0 / s
        for i in np.flatnonzero(~(low | up)):  # the series near 0, and cosh at -SERIES_THRESHOLD: rare
            (a[i],), (b[i],) = _dtn(float(lam[i]), lengths[i : i + 1])
        return a, b
    if lam < -SERIES_THRESHOLD:
        k = math.sqrt(-lam)
        d = -np.expm1(-2.0 * k * lengths)  # 1 - q, q = e^(-2kl)
        return k * (2.0 - d) / d, 2.0 * k * np.exp(-k * lengths) / d
    c, s = basis_values(lam, lengths)
    return c / s, 1.0 / s


def _inward(a: np.ndarray, b: np.ndarray, init: np.ndarray, term: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Inward derivatives -Lambda x of slot values x (a vector, or one per column), Lambda's blocks from (a, b)."""
    a, b = (v.reshape(v.shape + (1,) * (x.ndim - 1)) for v in (a, b))
    out = np.empty(x.shape, dtype=complex)
    out[init], out[term] = b * x[term] - a * x[init], b * x[init] - a * x[term]
    return out


def _interpolate(lam: float, l: np.ndarray, t: np.ndarray, f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """``(f0 s(l - t) + f1 s(t)) / s(l)``: the solution on (0, l) with end values f0 and f1, at t."""
    if lam > SERIES_THRESHOLD:  # f0 cos(w t) + f'(0) sin(w t) / w
        w = math.sqrt(lam)
        return f0 * np.cos(w * t) + (f1 - f0 * np.cos(w * l)) / np.sin(w * l) * np.sin(w * t)
    if lam < -SERIES_THRESHOLD:  # sinh(k u) / sinh(k l) = (e^(-k (l - u)) - q e^(-k u)) / (1 - q^2), q = e^(-k l)
        k = math.sqrt(-lam)
        q = np.exp(-k * l)
        return ((f0 - q * f1) * np.exp(-k * t) + (f1 - q * f0) * np.exp(-k * (l - t))) / -np.expm1(-2.0 * k * l)
    return (f0 * basis_values(lam, l - t)[1] + f1 * basis_values(lam, t)[1]) / basis_values(lam, l)[1]


def split_graph(g: MetricGraph, cuts: tuple[tuple[float, ...], ...]) -> MetricGraph:
    """g with edge k cut at the ascending fractions ``cuts[k]`` into pieces (k, 0), (k, 1), ... (k: its id), joined
    at vertices after g's, (k, "cut") for one cut and (k, "cut", j) for several: g's slots come first."""
    edges: list[Edge] = []
    for e, fracs in zip(g.edges, cuts):
        ts = [0.0, *(f * e.length for f in fracs), e.length]
        names = [(e.id, "cut")] if len(fracs) == 1 else [(e.id, "cut", j) for j in range(len(fracs))]
        ends = [e.init, *names, e.end]
        edges += [Edge((e.id, j), ts[j + 1] - ts[j], ends[j], ends[j + 1]) for j in range(len(ts) - 1)]
    u = min(float(np.min(np.diff([0.0, *fracs, 1.0]))) for fracs in cuts) * g.u
    joints = tuple(piece.init for piece in edges if piece.id[1])  # every piece but an edge's first starts at one
    return MetricGraph(g.vertices + joints, tuple(edges), u)


def _resonant(lengths: np.ndarray, lo, hi) -> np.ndarray:
    """Per length l, whether the band p -+ POLE_RTOL p of some p = (n pi / l)^2, n >= 1, meets [lo, hi]: numbers,
    or arrays of one energy per length."""
    sqrt, clip = (np.sqrt, np.maximum) if isinstance(lo, np.ndarray) else (math.sqrt, max)
    n_lo = np.ceil(sqrt(clip(lo, 0.0) / (1.0 + POLE_RTOL)) / math.pi * lengths)  # p (1 + r) >= lo
    return np.floor(sqrt(clip(hi, 0.0) / (1.0 - POLE_RTOL)) / math.pi * lengths) >= np.maximum(n_lo, 1.0)


# ---------------------------------------------------------------------------
# the condition matrix
# ---------------------------------------------------------------------------


def _blocks(arrays: Iterable[np.ndarray]) -> np.ndarray:
    """Block-diagonal matrix of 2-d blocks, real when no entry has an imaginary part.

    Real (L, P) data then gives a real D, whose eigvalsh and eigh take about
    half the time of their complex forms.  (``scipy.linalg.block_diag``
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

    The one place where ``P f = 0, L f + (1 - P) f' = 0`` become matrices: it
    validates (g, bc) into ``S``, splits each P_v once (``stars``: ker basis, ran
    basis and L_v per vertex), stacks the ker bases into ``K`` (slots x columns,
    a block per vertex) and keeps ``kLk = K^H L K``, which the P1 assembly and
    the test battery read too; D(lambda) = K^H (Lambda - L) K then costs one DtN
    evaluation per lambda.  D omits ``P L f(v)``, nonzero only at
    ``anomaly_vertices``; :func:`eigenfunction` checks the full conditions.
    """

    def __init__(self, g: MetricGraph, bc: BoundaryCondition) -> None:
        g.require_valid()
        g.require_compact("the secular system")
        self.S = require_valid_bc(g, bc)
        self.anomaly_vertices = tuple(v for v in g.vertices if lp_mixing(bc.L(v), bc.P(v)))
        self._compile(g, [(*bc.ker_ran(v), bc.L(v)) for v in g.vertices])

    def _compile(self, g: MetricGraph, stars: list[tuple[np.ndarray, np.ndarray, np.ndarray]], shift=0.0) -> None:
        """The constant blocks from each vertex's (ker, ran, L), in ``g.vertices`` order."""
        self.graph, self.stars, self._splits, self.shift = g, stars, {}, shift
        self.lengths = np.array([e.length for e in g.edges], dtype=float)
        init, term = g.slot_ends
        self.K = K = _blocks(ker for ker, _, _ in stars)
        self._k = np.vstack([K[init], K[term]]), np.vstack([K[term], K[init]])  # K at both ends, and swapped
        self._kh = self._k[0].conj().T
        self.kLk = _blocks(ker.conj().T @ L @ ker for ker, _, L in stars)
        self._scale = np.abs(K[init]) ** 2 + np.abs(K[term]) ** 2, np.abs(np.diagonal(self.kLk))  # see scaled

    def cut(self, cuts: tuple[tuple[float, ...], ...], shift: np.ndarray | float = 0.0) -> SecularSystem:
        """This system on ``split_graph(g, cuts)``, each cut a Kirchhoff joint of degree 2, with ``shift``."""
        joint = (*np.array([[[1.0], [1.0]], [[1.0], [-1.0]]]) / math.sqrt(2.0), np.zeros((2, 2)))
        out = SecularSystem.__new__(SecularSystem)
        out.S, out.anomaly_vertices = self.S, self.anomaly_vertices
        out._compile(split_graph(self.graph, cuts), self.stars + [joint] * sum(map(len, cuts)), shift)
        return out

    def shifted(self, shift: np.ndarray) -> SecularSystem:
        """This system plus ``shift[k]`` on edge k: ``lambda - shift`` holds each edge's energy (0.0: unshifted)."""
        out = SecularSystem.__new__(SecularSystem)
        out.__dict__.update(self.__dict__, shift=shift, _splits={})  # the compiled blocks are shared
        return out

    def split(self, lo: float, hi: float) -> SecularSystem:
        """This system on ``split_graph(g, cuts)``, each edge cut at the first of CUTS with no :func:`_resonant`
        piece in [lo, hi], so a root there keeps the band margin from the split's decoupled energies.  Only
        sqrt(lambda) l / pi near 1 / POLE_RTOL, where the bands of consecutive n overlap, leaves an edge no cut."""
        pieces = np.array(CUTS)[:, None] * self.lengths  # one row per fraction, one column per edge
        e_lo, e_hi = lo - self.shift, hi - self.shift
        clear = ~(_resonant(pieces, e_lo, e_hi) | _resonant(self.lengths - pieces, e_lo, e_hi))
        if not clear.any(axis=0).all():
            raise RankAnomaly(f"a piece of every cut of some edge resonates within the band margin of [{lo}, {hi}]")
        cuts = tuple((cut,) for cut in np.array(CUTS)[clear.argmax(axis=0)].tolist())
        if cuts not in self._splits:
            self._splits[cuts] = self.cut(cuts, np.repeat(self.shift, 2) if isinstance(self.shift, np.ndarray) else 0.0)
        return self._splits[cuts]

    def vertex_matrix(self, lam: float) -> np.ndarray:
        """The Hermitian D(lambda) = K^H (Lambda - L) K off the decoupled energies."""
        return self._vertex_matrix(*_dtn(lam - self.shift, self.lengths))

    def _vertex_matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = np.concatenate([a, a])[:, None], np.concatenate([b, b])[:, None]
        return self._kh @ (a * self._k[0] - b * self._k[1]) - self.kLk

    def scaled(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """(r, ``r D(lambda) r``) for r = C^-1/2, C the coefficient scale of D: with (a, b) the DtN blocks,
        ``sum_s |K_si|^2 (|a_e| + |b_e|) + |(K^H L K)_ii|``.  However strong L or close a pole, entries stay O(1)."""
        a, b = _dtn(lam - self.shift, self.lengths)
        r = ((np.abs(a) + np.abs(b)) @ self._scale[0] + self._scale[1]) ** -0.5
        return r, r[:, None] * self._vertex_matrix(a, b) * r

    def null_vectors(self, lam: float, m: int | None = None) -> np.ndarray:
        """Slot values K r z, z the eigenvectors of the :meth:`scaled` D with |mu| <= SINGULAR_RTOL; fewer than m (the
        count's multiplicity) are a :class:`RankAnomaly`, and more hold nearby roots or near-pole shapes: a Ritz step
        against -D' = K^H G K (G the end shapes' Gram) keeps the m Ritz values nearest 0, ~ lambda* - lambda."""
        r, S = self.scaled(lam)
        mu, Z = np.linalg.eigh(S)
        near = np.abs(mu) <= SINGULAR_RTOL
        X = self.K @ (r[:, None] * Z[:, near])
        if m is not None and m > X.shape[1]:
            msg = f"D(lambda) has a {X.shape[1]}-dimensional null space at lambda={lam}, but the eigenvalue count gives"
            raise RankAnomaly(f"{msg} multiplicity {m}")
        if m is not None and m < X.shape[1]:
            e = lam - self.shift
            w, U = np.linalg.eigh(_gram(e, self.lengths, *_dtn(e, self.lengths), *self.graph.slot_ends, X))
            U = U / np.sqrt(w)  # U^H (X^H G X) U = I
            theta, Y = np.linalg.eigh(U.conj().T @ (mu[near, None] * U))
            X = X @ (U @ Y[:, np.sort(np.argsort(np.abs(theta), kind="stable")[:m])])
        return X

    def at(self, lam: float) -> SecularSystem:
        """The system whose D holds the eigenspace at lambda: its :meth:`split` in a pole band, else this one."""
        e = lam - self.shift
        return self.split(lam, lam) if _resonant(self.lengths, e, e).any() else self

    def decoupled_count(self, lam: float) -> int:
        """N_D(lambda): how many decoupled energies (n pi / l_e)^2 + shift_e, n >= 1, lie below lambda."""
        n = np.ceil(np.sqrt(np.maximum(lam - self.shift, 0.0)) * self.lengths / math.pi) - 1  # -1 at energy <= 0
        return int(np.sum(np.maximum(n, 0.0)))

    def decoupled_energies(self, lo: float, hi: float) -> np.ndarray:
        """The distinct decoupled energies in [lo, hi], ascending."""
        if hi <= 0:
            return np.zeros(0)
        k_lo, k_hi = math.sqrt(max(lo, 0.0)), math.sqrt(hi)
        ns = (np.arange(max(1, math.ceil(k_lo * l / math.pi)), math.floor(k_hi * l / math.pi) + 1) for l in self.lengths)
        p = np.concatenate([(n * math.pi / l) ** 2 for n, l in zip(ns, self.lengths)])
        return np.unique(p[(p >= lo) & (p <= hi)])

    def count(self, lam: float) -> int:
        """Eigenvalues below lambda, with multiplicity: N_D(lambda) + n_-(D(lambda)), n_- of the :meth:`scaled` D."""
        return self.decoupled_count(lam) + int(np.count_nonzero(np.linalg.eigvalsh(self.scaled(lam)[1]) < 0))


@functools.lru_cache(maxsize=COMPILED_PAIRS)
def compiled(g: MetricGraph, bc: BoundaryCondition) -> SecularSystem:
    """The :class:`SecularSystem` of (g, bc), compiled once per pair (the last ``COMPILED_PAIRS`` are kept).

    The graph is compared by value and the condition by identity; a loop over lambda holds the system.
    """
    return SecularSystem(g, bc)


def secular_matrix(g: MetricGraph, bc: BoundaryCondition, lam: float) -> np.ndarray:
    """D(lambda) of (g, bc), whose null space off the pole bands is the eigenspace (:func:`compiled` system)."""
    return compiled(g, bc).vertex_matrix(lam)


def smallest_singular_value(
    g: MetricGraph, bc: BoundaryCondition, lam: float, system: SecularSystem | None = None
) -> float:
    """Smallest |eigenvalue| of the :meth:`~SecularSystem.scaled` D(lambda) of ``system.at(lambda)``, inf if D is 0 x 0.

    :meth:`SecularSystem.null_vectors` compares it with SINGULAR_RTOL; a loop passes the :func:`compiled` ``system``.
    """
    _, S = (system or compiled(g, bc)).at(lam).scaled(lam)
    return float(np.min(np.abs(np.linalg.eigvalsh(S)), initial=np.inf))


# ---------------------------------------------------------------------------
# eigenvalue scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecularEigenvalue:
    """A root, its multiplicity (the jump in the count) and its :func:`smallest_singular_value`."""

    lam: float
    multiplicity: int
    sigma_min: float


class RankAnomaly(ValueError):
    """The split or D's null space contradicts the count, no cut clears an edge, or a null vector breaks the full
    conditions: a failed check on valid input (exit 1 on the command line), still a ``ValueError`` for callers."""


def _newton_root(system: SecularSystem, j: int, a: float, b: float, xtol: float) -> float:
    """The root in [a, b] of mu_j, the j-th eigenvalue of the :meth:`~SecularSystem.scaled` D, with
    mu_j(a) >= 0 > mu_j(b) by the count.

    Newton's step is mu_j / ||f||^2 for the mode f = K r z_j (-D' = K^H G K; the scale's derivative enters
    times mu_j, so the slope is exact at the root); a step that leaves the bracket is a bisection.
    """
    x = 0.5 * (a + b)
    while b - a > xtol:
        r, S = system.scaled(x)
        mu, Z = np.linalg.eigh(S)
        if mu[j] == 0.0:
            return x
        a, b = (x, b) if mu[j] > 0 else (a, x)
        X, e = system.K @ (r * Z[:, j])[:, None], x - system.shift
        step = mu[j] / _gram(e, system.lengths, *_dtn(e, system.lengths), *system.graph.slot_ends, X)[0, 0].real
        if abs(step) <= xtol:
            return x + step
        x = x + step if a < x + step < b else 0.5 * (a + b)
    return 0.5 * (a + b)


def lowest_eigenvalue(system: SecularSystem, lo: float) -> float:
    """A lower end, within CLUSTER_RTOL, of the lowest eigenvalue of ``system``, from a ``lo`` below it.

    Dirichlet bracketing on one edge gives count(hi) >= 1 at ``hi = min_e (pi / l_e)^2 (1 + 4 POLE_RTOL) + shift_e``;
    count(lo) > 0 or count(hi) = 0 is a :class:`RankAnomaly`.  Bisection on the count of ``system.at(x)`` (split in
    a pole band) narrows [lo, hi] to one root and no decoupled energy, where :func:`_newton_root` refines it (less
    its tolerance); a multiple root is bisected to CLUSTER_RTOL, and the bracket's lower end returned."""
    hi = float(np.min((math.pi / system.lengths) ** 2 * (1.0 + 4.0 * POLE_RTOL) + system.shift))
    n_lo, n_hi = system.at(lo).count(lo), system.at(hi).count(hi)
    if n_lo or not n_hi:
        raise RankAnomaly(f"the counts at lo={lo} and hi={hi} are {n_lo} and {n_hi}, not 0 and at least 1")
    xtol = CLUSTER_RTOL * max(1.0, abs(lo), abs(hi))
    while hi - lo > xtol:
        if n_hi == 1 and not _resonant(system.lengths, lo - system.shift, hi - system.shift).any():
            return max(lo, _newton_root(system, 0, lo, hi, xtol) - xtol)
        mid = 0.5 * (lo + hi)
        n = system.at(mid).count(mid)
        lo, hi, n_hi = (mid, hi, n_hi) if n == 0 else (lo, mid, n)
    return lo


def _cut_points(vals: np.ndarray, grid: np.ndarray) -> set[float]:
    """The grid neighbours of every finite local minimum of sigma_min (inf: D has order 0, and nothing to cut at)."""
    padded = np.concatenate([[math.inf], vals, [math.inf]])
    i = np.flatnonzero((vals <= padded[:-2]) & (vals <= padded[2:]) & (vals < math.inf))
    return set(grid[np.maximum(i - 1, 0)].tolist()) | set(grid[np.minimum(i + 1, grid.size - 1)].tolist())


def _pole_bands(system: SecularSystem, lo: float, hi: float) -> dict[float, float]:
    """Lower to upper ends of the bands ``p -+ POLE_RTOL p`` of the decoupled energies near [lo, hi]; overlaps merge."""
    pad = 2 * POLE_RTOL * max(1.0, abs(lo), abs(hi))
    bands: dict[float, float] = {}
    for p in system.decoupled_energies(lo - pad, hi + pad).tolist():
        if not bands or p - POLE_RTOL * p > bands[last]:
            last = p - POLE_RTOL * p
        bands[last] = p + POLE_RTOL * p
    return bands


def _split_roots(system: SecularSystem, a: float, b: float, count) -> list[tuple[float, int]]:
    """(root, multiplicity) in the pole band [a, b], from a split system, which must agree with the count there."""
    if count(b) == count(a):
        return []
    split = system.split(a, b)
    split_count = functools.cache(split.count)
    ends, want = (split_count(a), split_count(b)), (count(a), count(b))
    if ends != want:
        raise RankAnomaly(f"the split graph counts {ends} eigenvalues below the band [{a}, {b}], the graph {want}")
    return _settle(split, a, b, split_count)


def _settle(system: SecularSystem, a: float, b: float, count) -> list[tuple[float, int]]:
    """(root, multiplicity) in [a, b), which holds no decoupled energy.

    Bisection on the count isolates the roots; a simple root is refined by
    Newton on the eigenvalue branch of the scaled D that crosses zero, kept
    inside the count's bracket (:func:`_newton_root`), and a cluster
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
            out.append((_newton_root(system, j, a, b, xtol), 1))
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
    interval.  The ``num``-point grid (at least 2 points) of
    :func:`smallest_singular_value` only chooses where the window is first
    cut: at its ends and at the grid neighbours of each local minimum.  No
    grid point inside the band ``p -+ POLE_RTOL p`` of a decoupled energy p
    is evaluated or cut at; a band across which the count jumps is settled
    on a split system (:meth:`SecularSystem.split`), which must count the
    same at the band ends or :class:`RankAnomaly` is raised.  Between cuts,
    bisection on the count isolates the roots and a simple root is refined
    to about CLUSTER_RTOL by Newton on the eigenvalue branch of the scaled D
    that crosses zero there, with its slope from ``-D' = K^H G K`` (G the
    end shapes' Gram), kept inside the count's bracket.  Roots
    within CLUSTER_RTOL of each other form one cluster, whose multiplicity
    is the jump in the count.  ``sigma_min`` of each hit is read on the
    system that holds its eigenspace (:meth:`SecularSystem.at`).
    """
    if not (lam_max > lam_min):
        raise ValueError("empty scan range")
    if num < 2:
        raise ValueError(f"a scan needs at least 2 points, got {num}")
    system = compiled(g, bc)
    bands = _pole_bands(system, lam_min, lam_max)
    grid = np.linspace(lam_min, lam_max, num)  # its ends are lam_min and lam_max exactly
    ends = np.array(list(bands.items())).reshape(-1, 2)  # one (lower, upper) row per band
    grid = grid[~((grid[:, None] >= ends[:, 0]) & (grid[:, None] <= ends[:, 1])).any(axis=1)]
    vals = np.array([smallest_singular_value(g, bc, x, system) for x in grid])
    cuts = ({lam_min, lam_max} & set(grid.tolist())) | _cut_points(vals, grid)
    points = sorted(cuts | set(bands) | set(bands.values()))
    count = functools.cache(system.count)
    found: list[tuple[float, int]] = []
    for a, b in zip(points, points[1:]):
        found += _split_roots(system, a, b, count) if a in bands else _settle(system, a, b, count)
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
    system = compiled(g, bc)
    lo = -min(1.0, float(system.lengths.max()) ** -2)
    while system.count(lo) > 0:
        lo *= 2.0
    p = (np.arange(1, modes + 1)[:, None] * math.pi / system.lengths) ** 2
    return lo, float(np.sort(p, axis=None)[modes - 1]) * (1.0 + 4.0 * POLE_RTOL)


# ---------------------------------------------------------------------------
# eigenfunctions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SecularSolution:
    """Exact solution of ``-f'' = lambda f`` on every edge, held by its values at the slots.

    ``x`` holds f at the edge ends of ``pieces`` (default: ``graph``) in :attr:`MetricGraph.slots`
    order.  At a root inside a pole band ``pieces`` is :func:`split_graph` of ``graph``: then ``x`` has
    4|E| entries, and its first 2|E| are the graph's slots.
    """

    graph: MetricGraph
    lam: float
    x: np.ndarray
    pieces: MetricGraph | None = None

    @functools.cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lengths, initial slots, terminal slots) of the edges ``x`` lives on."""
        g = self.graph if self.pieces is None else self.pieces
        return np.array([e.length for e in g.edges], dtype=float), *g.slot_ends

    def evaluate(self, edge_id: EdgeId, t: np.ndarray) -> np.ndarray:
        k, t = self.graph.edge_index[edge_id], np.asarray(t, dtype=float)
        lengths, init, term = self._layout
        if lengths.size > len(self.graph.edges):  # piece 2k on [0, cut l], piece 2k + 1 past it
            second = t > lengths[2 * k]
            k, t = 2 * k + second, np.where(second, t - lengths[2 * k], t)
        return _interpolate(self.lam, lengths[k], t, self.x[init[k]], self.x[term[k]])

    def trace_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact slot arrays (:attr:`MetricGraph.slots`) of values and inward derivatives ``-Lambda(lambda) x``."""
        return self._traces

    @functools.cached_property
    def _traces(self) -> tuple[np.ndarray, np.ndarray]:
        n, (lengths, init, term) = 2 * len(self.graph.edges), self._layout
        return self.x[:n].astype(complex), _inward(*_dtn(self.lam, lengths), init, term, self.x)[:n]

    def vertex_residual(self, bc: BoundaryCondition, relative: bool = False) -> float:
        """max_v ||P f(v)|| + ||L f(v) + (1 - P) f'(v)|| for this solution (:meth:`BoundaryCondition.worst_residual`)."""
        return bc.worst_residual(self.graph, *self.trace_values(), relative)

    def l2_norm_sq(self) -> float:
        lengths, init, term = self._layout
        return float(np.real(_gram(self.lam, lengths, *_dtn(self.lam, lengths), init, term, self.x[:, None])[0, 0]))


def _gram(
    lam: float, l: np.ndarray, a: np.ndarray, b: np.ndarray, init: np.ndarray, term: np.ndarray, X: np.ndarray
) -> np.ndarray:
    """``X^H G X`` for slot values X, G the exact L2 Gram matrix of the end shapes: a block [[d, o], [o, d]] per edge.

    d = ``(l b^2 - a) / (2 lambda)`` and o = ``b (1 - l a) / (2 lambda)`` from the DtN blocks (a, b); where
    |lambda l^2| < 1e-3 they cancel, and the Taylor series in x = lambda l^2 is exact to rounding.
    """
    x = lam * l * l
    near = np.abs(x) < 1e-3
    if not near.all():
        d, o = (l * b * b - a) / (2.0 * lam), b * (1.0 - l * a) / (2.0 * lam)
    if near.any():
        d0 = l * np.polyval([2 / 18711, 4 / 4725, 2 / 315, 2 / 45, 1 / 3], x)
        o0 = l * np.polyval([73 / 684288, 127 / 151200, 31 / 5040, 7 / 180, 1 / 6], x)
        d, o = (d0, o0) if near.all() else (np.where(near, d0, d), np.where(near, o0, o))
    d, o, u, v = d[:, None], o[:, None], X[init], X[term]
    return u.conj().T @ (d * u + o * v) + v.conj().T @ (d * v + o * u)


def _orthonormalize(g: MetricGraph, system: SecularSystem, lam: float, X: np.ndarray) -> np.ndarray:
    lengths, (init, term) = system.lengths, system.graph.slot_ends
    a, b = _dtn(lam, lengths)
    w, U = np.linalg.eigh(_gram(lam, lengths, a, b, init, term, X))  # reads one triangle
    keep = w > 1e-12 * max(w[-1], 1e-300)
    Y = X @ U[:, keep] / np.sqrt(w[keep])
    # canonical phase: the largest of the per-edge (f(0), f'(0)) pairs of each column is real positive
    pairs, edge_init = np.empty((2 * len(g.edges), Y.shape[1]), dtype=complex), g.slot_ends[0]
    pairs[0::2], pairs[1::2] = Y[edge_init], _inward(a, b, init, term, Y)[edge_init]
    z = pairs[np.argmax(np.abs(pairs), axis=0), np.arange(Y.shape[1])]
    return Y * (np.conj(z) / np.abs(z))  # z != 0: a nonzero solution has some nonzero (f(0), f'(0))


def eigenfunction(g: MetricGraph, bc: BoundaryCondition, lam: float, multiplicity=None) -> list[SecularSolution]:
    """L2-orthonormal basis of exact eigenfunctions at an accepted energy.

    Each holds an orthonormalized null vector of D(lambda) (:meth:`SecularSystem.null_vectors`), of the split
    system in a pole band: ``multiplicity`` (an int, a scan hit's count jump; None: the threshold) of them,
    or raises if there are none.  Null vectors whose verbatim residual at some vertex v exceeds ``100
    SINGULAR_RTOL max(1, ||L_v||)`` (possible when L maps ker P into ran P) are discarded with a rank-anomaly
    error rather than projected away.  Every root of (g, bc) shares the pair's :func:`compiled` system.
    """
    system = compiled(g, bc).at(lam)  # the scan's band holds lam, so a split clear of the band is clear of lam
    null = system.null_vectors(lam, multiplicity)
    if null.shape[1] == 0:
        raise ValueError(f"lambda={lam} is not an eigenvalue: D(lambda) has no null vector")
    sols = [SecularSolution(g, lam, x, system.graph) for x in _orthonormalize(g, system, lam, null).T]
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
