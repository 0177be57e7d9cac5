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
error.  Each check reports the exact minimum of its margin form over the
constrained P1 space, the lowest eigenvalue of that form against the mass
matrix, from an inertia-certified shift and one shift-invert Lanczos run.

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

import numpy as np
import scipy.linalg
import scipy.sparse

from .boundary import BoundaryCondition, CoercivityConstant, coercivity_constant, require_valid_bc
from .functions import GridFunction, Mesh
from .graph import MetricGraph

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
    """Build the constrained P1 system for a compact valid graph."""
    g.require_valid()
    g.require_compact("finite-element assembly")
    S = require_valid_bc(g, bc)

    # full nodal layout: the mesh's; constrained layout: interior nodes edge
    # by edge, then per-vertex kernel coordinates
    grid = Mesh(g, h_max)
    interior = np.delete(np.arange(grid.n_nodes), np.concatenate([grid.offsets[:-1], grid.offsets[1:] - 1]))
    n_interior = interior.size
    c_rows: list[np.ndarray] = [interior]
    c_cols: list[np.ndarray] = [np.arange(n_interior)]
    c_vals: list[np.ndarray] = [np.ones(n_interior)]
    r_rows: list[np.ndarray] = []
    r_cols: list[np.ndarray] = []
    r_vals: list[np.ndarray] = []
    col = n_interior
    for v in g.vertices:
        K = bc.ker_ran(v)[0]
        m = K.shape[1]
        idx = np.arange(col, col + m)
        for k, (eid, end) in enumerate(g.star(v).slots):
            c_rows.append(np.full(m, grid.end_node(eid, end)))
            c_cols.append(idx)
            c_vals.append(K[k])
        # R is block diagonal: one K* L_v K block per vertex
        r_rows.append(np.repeat(idx, m))
        r_cols.append(np.tile(idx, m))
        r_vals.append((K.conj().T @ bc.L(v) @ K).ravel())
        col += m
    dim = col
    C = _triplets((grid.n_nodes, dim), c_rows, c_cols, c_vals)
    R = _triplets((dim, dim), r_rows, r_cols, r_vals)
    R = SparseMatrix(0.5 * (R + R.conj().T))
    R.eliminate_zeros()

    # the constraint fixed so far maps the mesh's cell matrices to A and B
    fa = FormAssembly(grid, bc, None, R, None, C, None, S)
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


def eigensystem(fa: FormAssembly, k: int) -> DiscreteEigensystem:
    """The k lowest eigenpairs of the pencil (A - R + Q, B), residual-gated.

    The gate compares the worst residual ``||M x - lambda B x||`` with
    RESIDUAL_RTOL times a scale of at most ``||M||_2``: the largest-magnitude
    Ritz value of M (Lanczos to a relative tolerance of 1e-3), or ``||M||_2``
    itself on the dense path.
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
            # a loose tolerance suffices: every Ritz value is <= ||M||_2
            top = scipy.sparse.linalg.eigsh(M, 1, which="LM", v0=v0, tol=1e-3, return_eigenvectors=False)
            # Rayleigh-Ritz on the returned subspace makes the vectors
            # B-orthonormal also inside degenerate eigenspaces
            w, Y = scipy.linalg.eigh(V.conj().T @ (M @ V), V.conj().T @ (B @ V))
        except (RuntimeError, scipy.linalg.LinAlgError) as exc:
            # RuntimeError: ArpackError, or SuperLU's exactly singular factor
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


def _min_eigenvalue(K: scipy.sparse.spmatrix, B: scipy.sparse.spmatrix) -> float:
    """Exact ``min x* K x`` over ``x* B x = 1``: the lowest eigenvalue of (K, B).

    A shift sigma is certified below the spectrum when the unpivoted
    symmetric LU of ``K - sigma B`` has only positive pivots: with equal row
    and column permutations it is a congruence, so by Sylvester's law of
    inertia ``K - sigma B`` is positive definite.  From sigma = -1 the shift
    is lowered until it is certified; one shift-invert Lanczos run on that
    factorization then returns the eigenvalue nearest sigma, the lowest one.
    """
    # imported here, as in eigensystem
    import scipy.sparse.linalg

    if not (np.any(K.data.imag) or np.any(B.data.imag)):
        K, B = K.real, B.real
    if K.shape[0] < 2:  # ARPACK needs k < dim
        return float(scipy.linalg.eigvalsh(K.toarray(), B.toarray())[0])
    sigma = -1.0
    while True:
        try:
            lu = scipy.sparse.linalg.splu(
                (K - sigma * B).tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                options={"SymmetricMode": True},
            )
            if np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal().real > 0):
                break
        except RuntimeError:  # an exactly singular factor
            pass
        sigma *= 4.0
        if not np.isfinite(sigma):
            raise ResidualCheckFailed("no shift below the spectrum found")
    v0 = np.random.default_rng(0).standard_normal(K.shape[0]).astype(K.dtype)
    solve = scipy.sparse.linalg.LinearOperator(K.shape, matvec=lu.solve, dtype=K.dtype)
    try:
        w = scipy.sparse.linalg.eigsh(K, 1, M=B, sigma=sigma, OPinv=solve, v0=v0, return_eigenvectors=False)
    except scipy.sparse.linalg.ArpackError as exc:
        raise ResidualCheckFailed(f"sparse eigensolver failed: {exc}") from exc
    return float(w[0])


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
