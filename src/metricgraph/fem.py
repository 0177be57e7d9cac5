"""Piecewise-linear finite elements for the quadratic form on a metric graph.

The form is

    q(f, g) = sum_e int f' conj(g)' dt  -  sum_v <L_v f(v), g(v)>

on functions with ``P_v f(v) = 0``.  Degrees of freedom are the interior
nodes of every edge plus the columns of K, the orthonormal ker P_v bases that
the pair's compiled :class:`~metricgraph.secular.SecularSystem` owns with
``K^H L K`` and S; the vertex constraint is eliminated exactly rather than
penalized, so low eigenvalues are not polluted.

For piecewise-linear functions the assembled matrices are exact: the
stiffness form is the exact Dirichlet integral, the mass form the exact L2
inner product, and vertex traces are nodal values.  The inequality checks in
this module therefore hold up to floating-point roundoff, not quadrature
error.

All matrices are sparse (about three nonzeros per row), assembled from
per-cell triplets.  Every eigenvalue question goes through one solver,
:func:`_lowest`: the pivot signs of an unpivoted symmetric LU certify a shift
below the spectrum (Sylvester's law of inertia), and one shift-invert
Lanczos run (ARPACK) from that factor returns the lowest eigenpairs.
:func:`eigensystem` gates their residuals against the largest column norm of
the operator matrix.  Each inequality check reports the exact minimum of its
margin form over the constrained P1 space: the lowest eigenvalue of that
form against the mass matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse

from .boundary import BoundaryCondition, CoercivityConstant, coercivity_constant
from .functions import GridFunction, Mesh
from .graph import MetricGraph
from .secular import compiled

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
    to the full nodal vector, which is laid out as the flat node array of
    ``grid`` (edge by edge, nodes in grid order), the layout of every
    :class:`GridFunction` on that mesh.
    """

    grid: Mesh
    bc: BoundaryCondition
    stiffness: SparseMatrix
    boundary: SparseMatrix
    mass: SparseMatrix
    constraint: scipy.sparse.csr_matrix
    potential_term: SparseMatrix | None = None
    S_bound: float = 0.0
    potential_min: float = 0.0

    @property
    def graph(self) -> MetricGraph:
        return self.grid.graph

    @property
    def h_max(self) -> float:
        return self.grid.h_max

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

    # -- nodal data -------------------------------------------------------

    def constrain(self, F: scipy.sparse.spmatrix) -> SparseMatrix:
        """``C* F C`` for a Hermitian nodal matrix F, symmetrized against roundoff."""
        M = (self.constraint.conj().T @ F @ self.constraint).tocsr()
        return SparseMatrix(0.5 * (M + M.conj().T))

    def nodal_vector(self, x: np.ndarray) -> np.ndarray:
        return self.constraint @ x

    # -- quadratic forms --------------------------------------------------

    def form_value(self, x: np.ndarray) -> float:
        """q(f, f), exactly, for the piecewise-linear f with coefficients x."""
        return float(np.real(x.conj() @ (self.stiffness - self.boundary) @ x))


def assemble(g: MetricGraph, bc: BoundaryCondition, h_max: float) -> FormAssembly:
    """The constrained P1 system of a compact valid graph, from the pair's :func:`secular.compiled` system:
    C maps each slot row of its K to that slot's mesh node, and R is its ``K^H L K``, symmetrized."""
    g.require_valid()
    g.require_compact("finite-element assembly")
    system = compiled(g, bc)

    # full nodal layout: the mesh's; constrained layout: interior nodes edge
    # by edge, then K's columns (per-vertex kernel coordinates)
    grid = Mesh(g, h_max)
    interior = np.delete(np.arange(grid.n_nodes), np.concatenate([grid.offsets[:-1], grid.offsets[1:] - 1]))
    K, kLk, n = system.K, 0.5 * (system.kLk + system.kLk.conj().T), interior.size
    dim, (slot, col), (i, j) = n + K.shape[1], np.nonzero(K), np.nonzero(kLk)
    rows, cols = [interior, grid.slot_stencil[0][slot]], [np.arange(n), n + col]
    C = _triplets((grid.n_nodes, dim), rows, cols, [np.ones(n), K[slot, col]])
    R = SparseMatrix(_triplets((dim, dim), [n + i], [n + j], [kLk[i, j]]))

    # the constraint fixed so far maps the mesh's cell matrices to A and B
    fa = FormAssembly(grid, bc, None, R, None, C, None, system.S)
    left, h = grid.cells()
    A = fa.constrain(element_matrix(grid.n_nodes, left, 1.0 / h, -1.0 / h, 1.0 / h))
    B = fa.constrain(element_matrix(grid.n_nodes, left, h / 3.0, h / 6.0, h / 3.0))
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
        return [GridFunction.on(self.assembly.grid, x) for x in self.assembly.nodal_vector(self.vectors).T]


def _lowest(K: scipy.sparse.spmatrix, B: scipy.sparse.spmatrix, k: int, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs of the Hermitian pencil (K, B), B positive definite.

    A shift is certified below the spectrum when the unpivoted symmetric LU
    of ``K - shift B`` has only positive pivots: with equal row and column
    permutations it is a congruence, so by Sylvester's law of inertia
    ``K - shift B`` is positive definite.  From ``sigma`` the shift is
    lowered by ``max(1, |sigma|)`` times 1, 4, 16, ... until it is
    certified; one shift-invert Lanczos run on that factor then returns the
    k eigenvalues nearest the shift, the k lowest, and Rayleigh-Ritz makes
    the vectors B-orthonormal inside degenerate eigenspaces.  ARPACK cannot
    return ``k >= dim - 1`` pairs; only then are the matrices made dense.
    """
    # imported here: ARPACK and SuperLU cost about 15 ms and 2 MB to load,
    # which runs that never solve an FEM system should not pay
    import scipy.sparse.linalg

    if not (np.any(K.data.imag) or np.any(B.data.imag)):
        K, B = K.real, B.real
    if k >= K.shape[0] - 1:
        return scipy.linalg.eigh(K.toarray(), B.toarray(), subset_by_index=[0, k - 1])
    shift, step = sigma, max(1.0, abs(sigma))
    while True:
        try:
            lu = scipy.sparse.linalg.splu(
                (K - shift * B).tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                options={"SymmetricMode": True},
            )
            if np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal().real > 0):
                break
        except RuntimeError:  # an exactly singular factor
            pass
        shift, step = sigma - step, 4.0 * step
        if not np.isfinite(shift):
            raise ResidualCheckFailed("no shift below the spectrum found")
    # a random start vector: a constant one is an exact eigenvector for
    # Kirchhoff and Neumann graphs; a fixed seed keeps reports identical
    v0 = np.random.default_rng(0).standard_normal(K.shape[0]).astype(K.dtype)
    solve = scipy.sparse.linalg.LinearOperator(K.shape, matvec=lu.solve, dtype=K.dtype)
    try:
        _, V = scipy.sparse.linalg.eigsh(K, k, M=B, sigma=shift, OPinv=solve, v0=v0)
        w, Y = scipy.linalg.eigh(V.conj().T @ (K @ V), V.conj().T @ (B @ V))
    except (scipy.sparse.linalg.ArpackError, scipy.linalg.LinAlgError) as exc:
        raise ResidualCheckFailed(f"sparse eigensolver failed: {exc}") from exc
    return w, V @ Y


def eigensystem(fa: FormAssembly, k: int) -> DiscreteEigensystem:
    """The k lowest eigenpairs of the pencil (A - R + Q, B), residual-gated.

    The solve starts from the shift ``spectrum_floor - 1``, which the
    inertia certificate of :func:`_lowest` confirms (or lowers) before any
    eigenvalue is trusted.  The gate compares the worst residual
    ``||M x - lambda B x||`` with RESIDUAL_RTOL times the largest column
    2-norm of M.  For Hermitian M with at most r nonzeros per row that scale
    lies in ``[||M||_2 / sqrt(r), ||M||_2]``, so it never loosens the gate
    past ``RESIDUAL_RTOL ||M||_2``.
    """
    if not (1 <= k <= fa.dim):
        raise ValueError(f"requested {k} modes but the constrained space has dimension {fa.dim}")
    M, B = fa.operator_matrix, fa.mass
    w, vecs = _lowest(M, B, k, fa.spectrum_floor - 1.0)
    res = float(np.max(np.linalg.norm(M @ vecs - (B @ vecs) * w, axis=0)))
    limit = RESIDUAL_RTOL * float(np.sqrt(abs(M).power(2).sum(axis=0).max()))
    if res > limit > 0:
        raise ResidualCheckFailed(f"eigen residual {res:.3e} exceeds {RESIDUAL_RTOL:.0e} * max column norm = {limit:.3e}")
    return DiscreteEigensystem(fa, w, vecs, res)


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------


def _min_eigenvalue(K: scipy.sparse.spmatrix, B: scipy.sparse.spmatrix) -> float:
    """Exact ``min x* K x`` over ``x* B x = 1``: the lowest eigenvalue of (K, B)."""
    return float(_lowest(K, B, 1, -1.0)[0][0])


def check_coercivity(fa: FormAssembly, const: CoercivityConstant) -> float:
    """Exact minimum of  q(f,f) + C||f||^2 - (1/2)||f||_{W12}^2  over unit ||f||.

    Nonnegative (up to roundoff) when C comes from :func:`coercivity_constant`
    with the graph's S and u.
    """
    A, R, B = fa.stiffness, fa.boundary, fa.mass
    return _min_eigenvalue((A - R) + const.C * B - 0.5 * (A + B), B)


def check_boundary_bound(fa: FormAssembly, eps: float) -> float:
    """Exact minimum of  (4S/eps)||f||^2 + 2 S eps ||f'||^2 - sum_v <L_v f(v), f(v)>  over unit ||f||.

    Requires 0 < eps <= u; the one-sided trace estimate used to derive the
    bound needs windows of length eps inside every edge.
    """
    if not (0 < eps <= fa.graph.u):
        raise ValueError(f"eps={eps} must lie in (0, u={fa.graph.u}]")
    S = fa.S_bound
    return _min_eigenvalue((4.0 * S / eps) * fa.mass + 2.0 * S * eps * fa.stiffness - fa.boundary, fa.mass)
