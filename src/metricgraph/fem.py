"""Piecewise-linear finite elements for the quadratic form on a metric graph.

The form is

    q(f, g) = sum_e int f' conj(g)' dt  -  sum_v <L_v f(v), g(v)>

on functions with ``P_v f(v) = 0``.  Degrees of freedom are the interior
nodes of every edge plus, per vertex, coordinates over an orthonormal basis
of ``ker P_v``; the vertex constraint is eliminated exactly rather than
penalized, so low eigenvalues are not polluted.

For piecewise-linear functions the assembled matrices are exact: the
stiffness form is the exact Dirichlet integral, the mass form the exact L2
inner product, and vertex traces are nodal values.  The inequality checks in
this module therefore hold up to floating-point roundoff, not quadrature
error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np
import scipy.linalg
import scipy.sparse

from .boundary import BoundaryCondition, CoercivityConstant, require_valid_bc
from .functions import GridFunction, edge_grid
from .graph import INIT, EdgeId, MetricGraph, VertexId

RESIDUAL_RTOL = 1e-8


class ResidualCheckFailed(RuntimeError):
    """The computed eigenpairs miss the residual gate: a failed check, not bad input."""


@dataclass(frozen=True)
class FormAssembly:
    """Constrained matrices of the form: stiffness A, boundary R, mass B.

    The quadratic form of a constrained coefficient vector x is
    ``x* (A - R) x``; adding a potential contributes ``x* Q x``.  ``C`` maps
    constrained coefficients to the full nodal vector (edge by edge, nodes in
    grid order).
    """

    graph: MetricGraph
    bc: BoundaryCondition
    h_max: float
    stiffness: np.ndarray
    boundary: np.ndarray
    mass: np.ndarray
    constraint: scipy.sparse.csr_matrix
    edge_offsets: Mapping[EdgeId, int]
    vertex_slices: Mapping[VertexId, slice]
    potential_term: np.ndarray | None = None
    S_bound: float = 0.0

    @property
    def dim(self) -> int:
        return self.stiffness.shape[0]

    @property
    def operator_matrix(self) -> np.ndarray:
        M = self.stiffness - self.boundary
        if self.potential_term is not None:
            M = M + self.potential_term
        return M

    def with_potential(self, Q: np.ndarray) -> "FormAssembly":
        return replace(self, potential_term=Q)

    # -- expansion to nodal data ----------------------------------------

    def nodal_vector(self, x: np.ndarray) -> np.ndarray:
        return self.constraint @ x

    def grid_function(self, x: np.ndarray) -> GridFunction:
        full = self.nodal_vector(x)
        vals = {}
        for e in self.graph.edges:
            n = edge_grid(self.graph, e.id, self.h_max).size
            off = self.edge_offsets[e.id]
            vals[e.id] = np.asarray(full[off : off + n], dtype=complex)
        return GridFunction(self.graph, self.h_max, vals)

    # -- quadratic forms --------------------------------------------------

    def form_value(self, x: np.ndarray) -> float:
        """q(f, f), exactly, for the piecewise-linear f with coefficients x."""
        return float(np.real(x.conj() @ (self.stiffness - self.boundary) @ x))

    def sample_constrained(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Random complex coefficient vectors, normalized to unit L2 norm."""
        X = rng.standard_normal((self.dim, n)) + 1j * rng.standard_normal((self.dim, n))
        norms = np.sqrt(np.real(np.einsum("ij,ij->j", X.conj(), self.mass @ X)))
        return X / norms


def assemble(g: MetricGraph, bc: BoundaryCondition, h_max: float) -> FormAssembly:
    """Build the constrained P1 system for a compact valid graph."""
    g.require_valid()
    g.require_compact("finite-element assembly")
    S = require_valid_bc(g, bc)

    # full nodal layout: per edge, nodes 0..n_e
    edge_offsets: dict[EdgeId, int] = {}
    n_nodes = 0
    for e in g.edges:
        edge_offsets[e.id] = n_nodes
        n_nodes += edge_grid(g, e.id, h_max).size

    # constrained layout: interior nodes, then per-vertex kernel coordinates
    interior_cols: dict[tuple[EdgeId, int], int] = {}
    col = 0
    for e in g.edges:
        n = edge_grid(g, e.id, h_max).size
        for i in range(1, n - 1):
            interior_cols[(e.id, i)] = col
            col += 1
    vertex_slices: dict[VertexId, slice] = {}
    kernels: dict[VertexId, np.ndarray] = {}
    for v in g.vertices:
        K = bc.ker_ran(v)[0]
        kernels[v] = K
        vertex_slices[v] = slice(col, col + K.shape[1])
        col += K.shape[1]
    dim = col

    C = scipy.sparse.lil_matrix((n_nodes, dim), dtype=complex)
    for (eid, i), c in interior_cols.items():
        C[edge_offsets[eid] + i, c] = 1.0
    for v in g.vertices:
        K = kernels[v]
        sl = vertex_slices[v]
        star = g.star(v)
        for k, (eid, end) in enumerate(star.slots):
            n = edge_grid(g, eid, h_max).size
            row = edge_offsets[eid] + (0 if end == INIT else n - 1)
            for j in range(K.shape[1]):
                C[row, sl.start + j] = K[k, j]
    C = C.tocsr()

    A_full = scipy.sparse.lil_matrix((n_nodes, n_nodes))
    B_full = scipy.sparse.lil_matrix((n_nodes, n_nodes))
    for e in g.edges:
        ts = edge_grid(g, e.id, h_max)
        h = ts[1] - ts[0]
        off = edge_offsets[e.id]
        n = ts.size
        for i in range(n - 1):
            a, b = off + i, off + i + 1
            A_full[a, a] += 1.0 / h
            A_full[b, b] += 1.0 / h
            A_full[a, b] -= 1.0 / h
            A_full[b, a] -= 1.0 / h
            B_full[a, a] += h / 3.0
            B_full[b, b] += h / 3.0
            B_full[a, b] += h / 6.0
            B_full[b, a] += h / 6.0
    A_full = A_full.tocsr()
    B_full = B_full.tocsr()

    A = np.asarray((C.conj().T @ A_full @ C).todense())
    B = np.asarray((C.conj().T @ B_full @ C).todense())
    R = np.zeros((dim, dim), dtype=complex)
    for v in g.vertices:
        K = kernels[v]
        if K.shape[1]:
            sl = vertex_slices[v]
            R[sl, sl] = K.conj().T @ bc.L(v) @ K

    # symmetrize away roundoff so eigh sees exactly Hermitian data
    A = 0.5 * (A + A.conj().T)
    B = 0.5 * (B + B.conj().T)
    R = 0.5 * (R + R.conj().T)
    return FormAssembly(g, bc, h_max, A, R, B, C, edge_offsets, vertex_slices, None, S)


# ---------------------------------------------------------------------------
# eigenpairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteEigensystem:
    """Lowest eigenpairs of the constrained pencil; vectors are B-orthonormal."""

    assembly: FormAssembly
    eigenvalues: np.ndarray
    vectors: np.ndarray
    residual: float

    def grid_functions(self) -> list[GridFunction]:
        return [self.assembly.grid_function(self.vectors[:, k]) for k in range(self.vectors.shape[1])]


def eigensystem(fa: FormAssembly, k: int) -> DiscreteEigensystem:
    if not (1 <= k <= fa.dim):
        raise ValueError(f"requested {k} modes but the constrained space has dimension {fa.dim}")
    M = fa.operator_matrix
    w, vecs = scipy.linalg.eigh(M, fa.mass, subset_by_index=[0, k - 1])
    scale = float(np.linalg.norm(M, 2))
    res = 0.0
    for j in range(k):
        r = np.linalg.norm(M @ vecs[:, j] - w[j] * (fa.mass @ vecs[:, j]))
        res = max(res, float(r))
    if scale > 0 and res > RESIDUAL_RTOL * scale:
        raise ResidualCheckFailed(f"eigen residual {res:.3e} exceeds {RESIDUAL_RTOL:.0e} * ||M|| = {RESIDUAL_RTOL * scale:.3e}")
    return DiscreteEigensystem(fa, w, vecs, res)


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------


def _sample_forms(fa: FormAssembly, n_samples: int, seed: int):
    rng = np.random.default_rng(seed)
    X = fa.sample_constrained(rng, n_samples)
    AX = fa.stiffness @ X
    RX = fa.boundary @ X
    BX = fa.mass @ X
    stiff = np.real(np.einsum("ij,ij->j", X.conj(), AX))
    btrm = np.real(np.einsum("ij,ij->j", X.conj(), RX))
    mass = np.real(np.einsum("ij,ij->j", X.conj(), BX))
    return stiff, btrm, mass


def check_coercivity(fa: FormAssembly, const: CoercivityConstant, n_samples: int = 1000, seed: int = 0) -> float:
    """Worst margin of  q(f,f) + C||f||^2 - (1/2)||f||_{W12}^2  over samples.

    Nonnegative (up to roundoff) when C comes from :func:`coercivity_constant`
    with the graph's S and u.
    """
    stiff, btrm, mass = _sample_forms(fa, n_samples, seed)
    margins = (stiff - btrm) + const.C * mass - 0.5 * (mass + stiff)
    return float(np.min(margins))


def check_boundary_bound(fa: FormAssembly, eps: float, n_samples: int = 1000, seed: int = 0) -> float:
    """Worst margin of  (4S/eps)||f||^2 + 2 S eps ||f'||^2 - sum_v <L_v f(v), f(v)>.

    Requires 0 < eps <= u; the one-sided trace estimate used to derive the
    bound needs windows of length eps inside every edge.
    """
    if not (0 < eps <= fa.graph.u):
        raise ValueError(f"eps={eps} must lie in (0, u={fa.graph.u}]")
    S = fa.S_bound
    stiff, btrm, mass = _sample_forms(fa, n_samples, seed)
    margins = (4.0 * S / eps) * mass + 2.0 * S * eps * stiff - btrm
    return float(np.min(margins))


def spectrum_csv_rows(es: DiscreteEigensystem) -> list[tuple[int, float]]:
    return [(i, float(lam)) for i, lam in enumerate(es.eigenvalues)]
