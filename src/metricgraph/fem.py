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

All matrices are sparse (about three nonzeros per row), assembled from
per-cell triplets.  The lowest eigenpairs come from shift-invert Lanczos
(ARPACK) at ``sigma_0 = 1/2 - C + min V - 1``, with C the coercivity shift of
the conditions and ``min V`` the potential's minimum (0 without one).  The P1
space lies inside the form domain, so the coercivity inequality bounds every
discrete eigenvalue below by ``1/2 - C + min V``: the k eigenvalues nearest
sigma_0 are the k lowest.  ARPACK cannot return ``k >= dim - 1`` pairs; only
then are the matrices made dense and handed to ``scipy.linalg.eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np
import scipy.linalg
import scipy.sparse

from .boundary import BoundaryCondition, CoercivityConstant, coercivity_constant, require_valid_bc
from .functions import GridFunction, edge_grid
from .graph import INIT, EdgeId, MetricGraph, VertexId

RESIDUAL_RTOL = 1e-8


class ResidualCheckFailed(RuntimeError):
    """The computed eigenpairs miss the residual gate: a failed check, not bad input."""


class SparseMatrix(scipy.sparse.csr_matrix):
    """CSR matrix whose ``nbytes`` is its storage: data, indices and indptr."""

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


def _triplets(shape: tuple[int, int], rows, cols, vals) -> scipy.sparse.csr_matrix:
    """CSR matrix from (row, col, value) triplets; repeated entries are summed."""
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape
    )


def element_matrix(n_nodes: int, left: np.ndarray, diag0, off, diag1) -> scipy.sparse.csr_matrix:
    """Nodal matrix summing the 2x2 cell blocks ``[[diag0, off], [off, diag1]]``."""
    right = left + 1
    rows, cols = [left, left, right, right], [left, right, left, right]
    return _triplets((n_nodes, n_nodes), rows, cols, [diag0, off, off, diag1])


@dataclass(frozen=True)
class FormAssembly:
    """Constrained matrices of the form: stiffness A, boundary R, mass B.

    The quadratic form of a constrained coefficient vector x is
    ``x* (A - R) x``; adding a potential V contributes ``x* Q x``, which is
    at least ``potential_min x* B x``.  ``C`` maps constrained coefficients
    to the full nodal vector (edge by edge, nodes in grid order).
    """

    graph: MetricGraph
    bc: BoundaryCondition
    h_max: float
    stiffness: SparseMatrix
    boundary: SparseMatrix
    mass: SparseMatrix
    constraint: scipy.sparse.csr_matrix
    edge_offsets: Mapping[EdgeId, int]
    vertex_slices: Mapping[VertexId, slice]
    potential_term: SparseMatrix | None = None
    S_bound: float = 0.0
    potential_min: float = 0.0

    @property
    def dim(self) -> int:
        return self.stiffness.shape[0]

    @property
    def operator_matrix(self) -> scipy.sparse.csr_matrix:
        M = self.stiffness - self.boundary
        if self.potential_term is not None:
            M = M + self.potential_term
        return M

    @property
    def spectrum_floor(self) -> float:
        """Proven lower bound ``1/2 - C + min V`` of every discrete eigenvalue."""
        return 0.5 - coercivity_constant(self.S_bound, self.graph.u).C + self.potential_min

    def with_potential(self, Q: SparseMatrix, potential_min: float) -> "FormAssembly":
        """The assembly plus ``x* Q x``, a term bounded below by ``potential_min x* B x``."""
        return replace(self, potential_term=Q, potential_min=float(potential_min))

    # -- mesh and nodal data ---------------------------------------------

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Left node (in the full nodal layout) and width of every mesh cell."""
        left, width = [], []
        for e in self.graph.edges:
            ts = edge_grid(self.graph, e.id, self.h_max)
            left.append(self.edge_offsets[e.id] + np.arange(ts.size - 1))
            width.append(np.full(ts.size - 1, ts[1] - ts[0]))
        return np.concatenate(left), np.concatenate(width)

    def constrain(self, F: scipy.sparse.spmatrix) -> SparseMatrix:
        """``C* F C`` for a Hermitian nodal matrix F, symmetrized against roundoff."""
        M = (self.constraint.conj().T @ F @ self.constraint).tocsr()
        return SparseMatrix(0.5 * (M + M.conj().T))

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

    # full nodal layout: per edge, nodes 0..n_e; constrained layout: interior
    # nodes edge by edge, then per-vertex kernel coordinates
    edge_offsets: dict[EdgeId, int] = {}
    n_nodes = 0
    c_rows: list[np.ndarray] = []
    c_cols: list[np.ndarray] = []
    c_vals: list[np.ndarray] = []
    for e in g.edges:
        n = edge_grid(g, e.id, h_max).size
        edge_offsets[e.id] = n_nodes
        c_rows.append(n_nodes + np.arange(1, n - 1))
        n_nodes += n
    n_interior = n_nodes - 2 * len(g.edges)
    c_cols.append(np.arange(n_interior))
    c_vals.append(np.ones(n_interior))

    vertex_slices: dict[VertexId, slice] = {}
    r_rows: list[np.ndarray] = []
    r_cols: list[np.ndarray] = []
    r_vals: list[np.ndarray] = []
    col = n_interior
    for v in g.vertices:
        K = bc.ker_ran(v)[0]
        m = K.shape[1]
        sl = vertex_slices[v] = slice(col, col + m)
        for k, (eid, end) in enumerate(g.star(v).slots):
            n = edge_grid(g, eid, h_max).size
            c_rows.append(np.full(m, edge_offsets[eid] + (0 if end == INIT else n - 1)))
            c_cols.append(np.arange(sl.start, sl.stop))
            c_vals.append(K[k])
        # R is block diagonal: one K* L_v K block per vertex
        idx = np.arange(sl.start, sl.stop)
        r_rows.append(np.repeat(idx, m))
        r_cols.append(np.tile(idx, m))
        r_vals.append((K.conj().T @ bc.L(v) @ K).ravel())
        col += m
    dim = col
    C = _triplets((n_nodes, dim), c_rows, c_cols, c_vals)
    R = _triplets((dim, dim), r_rows, r_cols, r_vals)
    R = SparseMatrix(0.5 * (R + R.conj().T))
    R.eliminate_zeros()

    # the layout fixed so far gives the cells and the constraint for A and B
    fa = FormAssembly(g, bc, h_max, None, R, None, C, edge_offsets, vertex_slices, None, S)
    left, h = fa.cells()
    A = fa.constrain(element_matrix(n_nodes, left, 1.0 / h, -1.0 / h, 1.0 / h))
    B = fa.constrain(element_matrix(n_nodes, left, h / 3.0, h / 6.0, h / 3.0))
    return replace(fa, stiffness=A, mass=B)


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
    """The k lowest eigenpairs of the pencil (A - R + Q, B), residual-gated.

    The gate compares the worst residual ``||M x - lambda B x||`` with
    RESIDUAL_RTOL times a scale of at most ``||M||_2``: the largest-magnitude
    Ritz value of M, or ``||M||_2`` itself on the dense path.
    """
    # imported here: ARPACK and SuperLU cost about 15 ms and 2 MB to load,
    # which runs that never solve an FEM system should not pay
    import scipy.sparse.linalg

    if not (1 <= k <= fa.dim):
        raise ValueError(f"requested {k} modes but the constrained space has dimension {fa.dim}")
    M, B = fa.operator_matrix, fa.mass
    if not (np.any(M.data.imag) or np.any(B.data.imag)):
        M, B = M.real.copy(), B.real.copy()  # copies: SuperLU needs contiguous data
    if k >= fa.dim - 1:  # beyond ARPACK: dense eigh
        Md = M.toarray()
        w, vecs = scipy.linalg.eigh(Md, B.toarray(), subset_by_index=[0, k - 1])
        scale = float(np.linalg.norm(Md, 2))
    else:
        # a random start vector: a constant one is an exact eigenvector for
        # Kirchhoff and Neumann graphs; a fixed seed keeps reports identical
        v0 = np.random.default_rng(0).standard_normal(fa.dim).astype(M.dtype)
        try:
            _, V = scipy.sparse.linalg.eigsh(M, k, M=B, sigma=fa.spectrum_floor - 1.0, which="LM", v0=v0)
            top = scipy.sparse.linalg.eigsh(M, 1, which="LM", v0=v0, return_eigenvectors=False)
            # Rayleigh-Ritz on the returned subspace makes the vectors
            # B-orthonormal also inside degenerate eigenspaces
            w, Y = scipy.linalg.eigh(V.conj().T @ (M @ V), V.conj().T @ (B @ V))
        except (scipy.sparse.linalg.ArpackError, scipy.linalg.LinAlgError) as exc:
            raise ResidualCheckFailed(f"sparse eigensolver failed: {exc}") from exc
        vecs = V @ Y
        scale = float(np.max(np.abs(top)))
    res = float(np.max(np.linalg.norm(M @ vecs - (B @ vecs) * w, axis=0)))
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
