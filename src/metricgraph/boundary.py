"""Vertex boundary conditions in (L, P) form.

At a vertex ``v`` of degree ``d_v`` a condition is a pair of ``d_v x d_v``
matrices: a self-adjoint ``L_v`` and an orthogonal projection ``P_v``.  A
function ``f`` is admissible when ``P_v f(v) = 0`` and
``L_v f(v) + (1 - P_v) f'(v) = 0``, with boundary vectors indexed by the
vertex star ordering of :class:`metricgraph.graph.VertexStar`.

The global quantity ``S = sup_v ||L_v^+||`` (largest positive-part norm)
controls how far the quadratic form can dip below the Dirichlet energy; the
derived :class:`CoercivityConstant` makes that bound explicit.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .graph import MetricGraph, VertexId, VertexStar, Violation, ids_from_text, json_number

DEFAULT_MATRIX_TOL = 1e-10
KERNEL_EIGENVALUE_SPLIT = 0.5  # eigenvalues of P below this count as kernel


@dataclass(frozen=True, eq=False)
class BoundaryCondition:
    """Per-vertex (L, P) matrices, aligned with the vertex star slots.

    Immutable (read-only copies in a read-only mapping) and compared by identity,
    so work cached on a condition (:func:`metricgraph.secular.compiled`) cannot go stale.
    """

    conditions: Mapping[VertexId, tuple[np.ndarray, np.ndarray]]

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite norm is a violation of validate_bc
    def __post_init__(self) -> None:
        conditions = {v: (np.array(L), np.array(P)) for v, (L, P) in self.conditions.items()}
        for L, P in conditions.values():
            L.flags.writeable = P.flags.writeable = False
        object.__setattr__(self, "conditions", MappingProxyType(conditions))
        object.__setattr__(self, "_scales", {v: max(1.0, float(np.linalg.norm(L))) for v, (L, _) in conditions.items()})

    def L(self, v: VertexId) -> np.ndarray:
        return self.conditions[v][0]

    def P(self, v: VertexId) -> np.ndarray:
        return self.conditions[v][1]

    def ker_ran(self, v: VertexId) -> tuple[np.ndarray, np.ndarray]:
        """Orthonormal bases of ker P_v and ran P_v, from one ``eigh`` of P_v: the split a compiled secular system keeps."""
        w, vecs = np.linalg.eigh(self.P(v))
        return vecs[:, w < KERNEL_EIGENVALUE_SPLIT], vecs[:, w >= KERNEL_EIGENVALUE_SPLIT]

    def vertex_residual(self, v: VertexId, value: np.ndarray, deriv: np.ndarray) -> float | np.ndarray:
        """``||P f(v)|| + ||L f(v) + (1 - P) f'(v)||`` for star-ordered traces.

        ``value`` is f(v) and ``deriv`` the inward derivative f'(v), vectors (giving a
        float) or one trace datum per column; 0 exactly when the datum satisfies the condition.
        """
        L, P = self.conditions[v]
        return np.linalg.norm(P @ value, axis=0) + np.linalg.norm(L @ value + deriv - P @ deriv, axis=0)

    def residual_scale(self, v: VertexId) -> float:
        """``max(1, ||L_v||)``: the scale of a vertex residual at v."""
        return self._scales[v]

    def worst_residual(
        self, g: MetricGraph, value: np.ndarray, deriv: np.ndarray, relative: bool = False
    ) -> float | np.ndarray:
        """The worst :meth:`vertex_residual` of any vertex, per column of slot arrays (:attr:`MetricGraph.slots`).

        With ``relative``, each vertex's residual is divided by its own :meth:`residual_scale`.
        """
        worst = np.zeros(np.shape(value)[1:])
        for v, sl in g.slots.items():
            res = self.vertex_residual(v, value[sl], deriv[sl])
            worst = np.maximum(worst, res / self.residual_scale(v) if relative else res)
        return worst

    def vertices(self):
        return self.conditions.keys()


@dataclass(frozen=True)
class CoercivityConstant:
    """Shift C making the form dominate half the first Sobolev norm.

    With ``eps = min(u, 1/(4S))`` the boundary term is bounded by
    ``(4S/eps)||f||^2 + 2*S*eps*||f'||^2``, and ``C = 4S/eps + 1/2`` gives

        q(f, f) + C ||f||^2  >=  (1/2) (||f||^2 + ||f'||^2)

    for every admissible f.  For S = 0 the boundary term is nonpositive and
    C = 1/2 suffices.
    """

    S: float
    u: float
    eps: float
    C: float


def positive_part_norm(L: np.ndarray) -> float:
    """||L^+|| for self-adjoint L: the largest eigenvalue clamped at zero."""
    ev = np.linalg.eigvalsh(L)
    return float(max(0.0, ev[-1])) if ev.size else 0.0


def _eps_C(S: float, u: float) -> tuple[float, float]:
    """(eps, C) of :class:`CoercivityConstant`; once 4S overflows, eps is 0 and C is infinite.

    :func:`validate_bc` reads C here, not through :func:`coercivity_constant`, so that
    perfbench's ``boundary.coercivity_constant`` spans stay the calls that ask for C.
    """
    if S == 0:
        return u, 0.5
    eps = min(u, 1.0 / (4.0 * S))
    return eps, 4.0 * S / eps + 0.5 if eps > 0 else math.inf


def coercivity_constant(S: float, u: float) -> CoercivityConstant:
    if S < 0:
        raise ValueError("S must be nonnegative")
    if not (u > 0):
        raise ValueError("u must be positive")
    return CoercivityConstant(float(S), u, *_eps_C(S, u))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def lp_mixing(L: np.ndarray, P: np.ndarray) -> bool:
    """Whether L maps ker P into ran P: ``||P L (1 - P)|| > DEFAULT_MATRIX_TOL max(1, ||L||)``.

    At such a vertex the two defining conditions couple: a kernel value q is
    an admissible trace only if ``P L q = 0`` as well.  The validator warns,
    the secular solver reports rank anomalies there, and the test battery
    builds no kernel trace data.
    """
    mix = P @ L @ (np.eye(P.shape[0]) - P)
    return bool(np.linalg.norm(mix) > DEFAULT_MATRIX_TOL * max(1.0, float(np.linalg.norm(L))))


@np.errstate(over="ignore")  # a norm of entries above about 1e154 overflows to inf, a violation below
def validate_bc(g: MetricGraph, bc: BoundaryCondition) -> tuple[list[Violation], float]:
    """Check self-adjointness/projection structure; return violations and S.

    Matrix sizes must match the vertex degrees (that is an input error, not a
    violation).  Deviations are measured in Frobenius norm relative to the
    matrix scale, at the one tolerance ``DEFAULT_MATRIX_TOL``.  A non-finite
    norm of L or P (a NaN or inf entry, or one so large that the norm
    overflows), or a non-finite coercivity constant C, is a violation too.
    Vertices where :func:`lp_mixing` holds get a warning-level violation
    (code ``lp-mixing``).
    """
    out: list[Violation] = []
    missing = [v for v in g.vertices if v not in bc.conditions]
    if missing:
        raise ValueError(f"boundary condition missing for vertices {missing!r}")
    S = 0.0
    for v in g.vertices:
        d = g.degree(v)
        L, P = bc.L(v), bc.P(v)
        if L.shape != (d, d) or P.shape != (d, d):
            raise ValueError(f"vertex {v!r}: matrices must be {d}x{d}, got {L.shape} and {P.shape}")
        norm_L, norm_P = float(np.linalg.norm(L)), float(np.linalg.norm(P))
        if not math.isfinite(norm_L + norm_P):  # a NaN or inf entry, or a norm that overflows
            out.append(Violation("non-finite", str(v), f"L or P at vertex {v!r} has a non-finite norm"))
            continue
        scale_L = max(1.0, norm_L)
        scale_P = max(1.0, norm_P)
        if np.linalg.norm(L - L.conj().T) > DEFAULT_MATRIX_TOL * scale_L:
            out.append(Violation("L-selfadjoint", str(v), f"L at vertex {v!r} is not self-adjoint"))
        if np.linalg.norm(P - P.conj().T) > DEFAULT_MATRIX_TOL * scale_P:
            out.append(Violation("P-selfadjoint", str(v), f"P at vertex {v!r} is not self-adjoint"))
        if np.linalg.norm(P @ P - P) > DEFAULT_MATRIX_TOL * scale_P:
            out.append(Violation("P-idempotent", str(v), f"P at vertex {v!r} is not idempotent"))
        if lp_mixing(L, P):
            out.append(Violation("lp-mixing", str(v), f"L at vertex {v!r} maps ker P into ran P"))
        S = max(S, positive_part_norm(0.5 * (L + L.conj().T)))
    if not math.isfinite(_eps_C(S, g.u)[1]):
        out.append(Violation("unbounded", "S", f"S = {S:.6g} has no finite coercivity constant"))
    return out, S


def require_valid_bc(g: MetricGraph, bc: BoundaryCondition) -> float:
    problems, S = validate_bc(g, bc)
    fatal = [p for p in problems if p.code != "lp-mixing"]
    if fatal:
        raise ValueError("invalid boundary condition: " + "; ".join(p.message for p in fatal))
    return S


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

PRESET_NAMES = ("dirichlet", "neumann", "kirchhoff")


def preset(kind: str, star: VertexStar, alpha: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Named conditions in (L, P) form for a vertex of degree ``star.degree``.

    dirichlet      P = I,  L = 0           (pins all boundary values)
    neumann        P = 0,  L = 0           (decoupled free ends)
    kirchhoff      P = I - J/d, L = 0      (continuity + zero flux sum)
    delta(alpha)   P = I - J/d, L = -(alpha/d^2) J

    where J is the all-ones matrix.  The delta coupling encodes continuity
    together with ``sum_e f_e'(v) = alpha * f(v)`` in the inward-derivative
    sign convention; alpha = 0 reproduces kirchhoff exactly, and for d = 1 it
    is the Robin condition ``f'(v) = alpha f(v)``.
    """
    d = star.degree
    if d < 1:
        raise ValueError("vertex star must have at least one slot")
    eye = np.eye(d, dtype=complex)
    zero = np.zeros((d, d), dtype=complex)
    if kind == "dirichlet":
        return zero, eye
    if kind == "neumann":
        return zero, zero.copy()
    ones = np.ones((d, d), dtype=complex)
    P = eye - ones / d
    if kind == "kirchhoff":
        return zero, P
    if kind == "delta":
        if alpha is None:
            raise ValueError("delta coupling needs a strength alpha")
        return np.full((d, d), -alpha / d**2, dtype=complex), P
    raise ValueError(f"unknown preset {kind!r}")


def uniform_bc(g: MetricGraph, kind: str, alpha: float | None = None) -> BoundaryCondition:
    """Same preset at every vertex."""
    return BoundaryCondition(
        {v: preset(kind, g.star(v), alpha) for v in g.vertices}
    )


def bc_from_mapping(g: MetricGraph, spec: Mapping[VertexId, object]) -> BoundaryCondition:
    """Build a condition from per-vertex preset names or explicit matrices."""
    conditions = {}
    for v in g.vertices:
        if v not in spec:
            raise ValueError(f"no boundary condition for vertex {v!r}")
        conditions[v] = _parse_entry(g.star(v), spec[v])
    extra = set(spec) - set(g.vertices)
    if extra:
        raise ValueError(f"boundary conditions for unknown vertices {sorted(map(str, extra))}")
    return BoundaryCondition(conditions)


def _parse_entry(star: VertexStar, entry: object) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(entry, str):
        return preset(entry, star)
    if isinstance(entry, Mapping):
        if "delta" in entry:
            if set(entry) != {"delta"}:
                raise ValueError(f"delta entry must be exactly {{'delta': alpha}}, got {dict(entry)!r}")
            return preset("delta", star, json_number(entry["delta"], "delta strength"))
        if set(entry) == {"L", "P"}:
            L = _parse_matrix(entry["L"], star.degree)
            P = _parse_matrix(entry["P"], star.degree)
            return L, P
        raise ValueError(f"boundary entry {dict(entry)!r} not understood")
    raise ValueError(f"boundary entry {entry!r} not understood")


def _parse_matrix(rows: object, d: int) -> np.ndarray:
    arr = np.zeros((d, d), dtype=complex)
    if not isinstance(rows, (list, tuple)) or len(rows) != d:
        raise ValueError(f"matrix must have {d} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != d:
            raise ValueError(f"matrix row {i} must have {d} entries")
        for j, cell in enumerate(row):
            re_im = cell if isinstance(cell, (list, tuple)) and len(cell) == 2 else (cell, 0.0)
            if any(isinstance(x, bool) or not isinstance(x, numbers.Real) for x in re_im):
                raise ValueError(f"matrix entry {cell!r} must be a number or [re, im]")
            arr[i, j] = complex(*re_im)
    return arr


def load_bc(path: str | Path, g: MetricGraph) -> BoundaryCondition:
    """Read the JSON vertex-condition file (vertex id -> preset or matrices).

    JSON object keys are strings; integer vertex ids are matched by value.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("boundary-condition file must be a JSON object")
    vertices = ids_from_text(g.vertices, doc, "boundary condition for unknown vertex {!r}")
    return bc_from_mapping(g, dict(zip(vertices, doc.values())))
