"""Reference spectra for the output gate, independent of the program.

A sparse constrained P1 finite-element solver written from the problem
statement: the vertex conditions ``P_v f(v) = 0``,
``L_v f(v) + (1 - P_v) f'(v) = 0`` are eliminated exactly (vertex unknowns
are coordinates over ker P_v, the form gets ``-<L_v f(v), f(v)>``), and the
lowest eigenvalues come from shift-invert Lanczos below the proven bound
``1/2 - C``.  Scan references use two nested meshes and Richardson
extrapolation, so they separate close pairs far below the match tolerance
``10 h_ref^2 max(1, |lambda|)``; the potential reference uses the program's
own mesh rule and is compared at 1e-8.

Run as a script it reads no program code: ``python3 perfbench/reference.py
WORKLOAD SEED N_OPS`` prints one JSON list of references per op.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

import gen
from gate import match_tol

H_REF = 0.005  # finer reference mesh; the coarser one is 2 * H_REF
TARGET_ROOTS = {"star-expansion": 20, "grid-scan": 15}


# ---------------------------------------------------------------------------
# vertex conditions
# ---------------------------------------------------------------------------


def star_slots(graph: dict, v: str) -> list[tuple[str, int]]:
    """Edge-ends at v in the boundary-file order: sorted by (edge id, init first)."""
    slots = []
    for e in graph["edges"]:
        if e["from"] == v:
            slots.append((e["id"], 0))
        if e.get("to") == v:
            slots.append((e["id"], 1))
    return sorted(slots)


def lp_matrices(entry, d: int) -> tuple[np.ndarray, np.ndarray]:
    eye = np.eye(d)
    zero = np.zeros((d, d))
    if entry == "dirichlet":
        return zero, eye
    if entry == "neumann":
        return zero, zero
    if entry == "kirchhoff":
        return zero, eye - np.ones((d, d)) / d
    if isinstance(entry, dict) and set(entry) == {"delta"}:
        return -(entry["delta"] / d**2) * np.ones((d, d)), eye - np.ones((d, d)) / d
    if isinstance(entry, dict) and set(entry) == {"L", "P"}:
        L = np.array([[complex(re, im) for re, im in row] for row in entry["L"]])
        P = np.array([[complex(re, im) for re, im in row] for row in entry["P"]])
        return L, P
    raise ValueError(f"condition {entry!r} not understood")


def coercivity_C(case: dict) -> float:
    """C = 4S/eps + 1/2 with eps = min(u, 1/(4S)), S = sup_v ||L_v^+||."""
    g = case["graph"]
    S = 0.0
    for v in g["vertices"]:
        L, _ = lp_matrices(case["bc"][v], len(star_slots(g, v)))
        S = max(S, float(np.linalg.eigvalsh(0.5 * (L + L.conj().T))[-1]))
    if S <= 0.0:
        return 0.5
    eps = min(g["u"], 1.0 / (4.0 * S))
    return 4.0 * S / eps + 0.5


# ---------------------------------------------------------------------------
# constrained P1 system
# ---------------------------------------------------------------------------


def well_values(expr: str, edge_id: str, ts: np.ndarray) -> np.ndarray:
    """Nodal values of ``well:edge,t0,t1,depth`` on one edge."""
    kind, _, rest = expr.partition(":")
    if kind != "well":
        raise ValueError(f"reference handles well potentials only, got {expr!r}")
    eid, t0, t1, depth = rest.split(",")
    if eid != edge_id:
        return np.zeros_like(ts)
    return np.where((ts >= float(t0)) & (ts <= float(t1)), -float(depth), 0.0)


def p1_system(case: dict, cells: dict[str, int], potential: str | None = None):
    """Sparse (operator, mass) matrices of the constrained P1 pencil."""
    g = case["graph"]
    offsets = {}
    n_nodes = 0
    for e in g["edges"]:
        offsets[e["id"]] = n_nodes
        n_nodes += cells[e["id"]] + 1
    rows, cols, a_vals, b_vals, q_vals = [], [], [], [], []
    for e in g["edges"]:
        n = cells[e["id"]]
        h = e["length"] / n
        a = offsets[e["id"]] + np.arange(n)
        b = a + 1
        rows += [a, a, b, b]
        cols += [a, b, a, b]
        a_vals += [np.full(n, 1.0 / h), np.full(n, -1.0 / h), np.full(n, -1.0 / h), np.full(n, 1.0 / h)]
        b_vals += [np.full(n, h / 3.0), np.full(n, h / 6.0), np.full(n, h / 6.0), np.full(n, h / 3.0)]
        vv = np.zeros(n + 1)
        if potential is not None:
            vv = well_values(potential, e["id"], np.linspace(0.0, e["length"], n + 1))
        v0, v1 = vv[:-1], vv[1:]
        q_vals += [h * (3 * v0 + v1) / 12, h * (v0 + v1) / 12, h * (v0 + v1) / 12, h * (v0 + 3 * v1) / 12]
    r, c = np.concatenate(rows), np.concatenate(cols)

    def full(vals):
        return scipy.sparse.csr_matrix((np.concatenate(vals), (r, c)), shape=(n_nodes, n_nodes))

    # unknowns: interior nodes of every edge, then ker P_v coordinates per vertex
    c_rows, c_cols, c_vals = [], [], []
    dim = 0
    for e in g["edges"]:
        n = cells[e["id"]]
        c_rows.append(offsets[e["id"]] + np.arange(1, n))
        c_cols.append(dim + np.arange(n - 1))
        c_vals.append(np.ones(n - 1))
        dim += n - 1
    r_blocks = []
    for v in g["vertices"]:
        slots = star_slots(g, v)
        L, P = lp_matrices(case["bc"][v], len(slots))
        w, vecs = np.linalg.eigh(0.5 * (P + P.conj().T))
        K = vecs[:, w < 0.5]
        for k, (eid, end) in enumerate(slots):
            node = offsets[eid] + (cells[eid] if end else 0)
            c_rows.append(np.full(K.shape[1], node))
            c_cols.append(dim + np.arange(K.shape[1]))
            c_vals.append(K[k])
        r_blocks.append((dim, K.conj().T @ L @ K))
        dim += K.shape[1]
    Cmap = scipy.sparse.csr_matrix(
        (np.concatenate(c_vals), (np.concatenate(c_rows), np.concatenate(c_cols))), shape=(n_nodes, dim)
    )
    R = scipy.sparse.lil_matrix((dim, dim), dtype=complex)
    for start, block in r_blocks:
        m = block.shape[0]
        R[start : start + m, start : start + m] = block
    Ch = Cmap.conj().T
    op = Ch @ (full(a_vals) + full(q_vals)) @ Cmap - R.tocsr()
    mass = Ch @ full(b_vals) @ Cmap
    if not (np.any(op.data.imag) or np.any(mass.data.imag)):
        op, mass = op.real, mass.real
    return op.tocsc(), mass.tocsc()


def lowest(case: dict, cells: dict[str, int], k: int, shift: float, potential: str | None = None) -> np.ndarray:
    op, mass = p1_system(case, cells, potential)
    w = scipy.sparse.linalg.eigsh(op, k=k, M=mass, sigma=shift, which="LM", return_eigenvectors=False)
    return np.sort(w.real)


# ---------------------------------------------------------------------------
# the references the gate uses
# ---------------------------------------------------------------------------


def scan_reference(case: dict, target: int) -> dict:
    """Richardson-extrapolated lowest eigenvalues and the scan window.

    The window starts just below the proven lower bound 1/2 - C and ends in
    the middle of the first gap after ``target`` eigenvalues that is wider
    than four match tolerances, so no reference sits near either end.
    """
    g = case["graph"]
    C = coercivity_C(case)
    coarse = {e["id"]: math.ceil(e["length"] / (2.0 * H_REF)) for e in g["edges"]}
    fine = {eid: 2 * n for eid, n in coarse.items()}
    h_ref = max(e["length"] / fine[e["id"]] for e in g["edges"])
    k = target + 8
    shift = 0.5 - C - 1.0
    lam = (4.0 * lowest(case, fine, k, shift) - lowest(case, coarse, k, shift)) / 3.0
    for n in range(target, k):
        lo, hi = lam[n - 1], lam[n]
        if hi - lo > 4.0 * match_tol(hi, h_ref):
            return {
                "refs": [float(x) for x in lam[:n]],
                "lam_min": 0.5 - C - 0.25,
                "lam_max": float(0.5 * (lo + hi)),
                "h_ref": h_ref,
            }
    raise RuntimeError("no reference gap found; raise the number of reference eigenvalues")


def potential_reference(case: dict) -> dict:
    """Eigenvalues on the op's own mesh: n_e = max(2, ceil(l/h)) cells per edge."""
    g = case["graph"]
    cells = {e["id"]: max(2, math.ceil(e["length"] / gen.MESH_POTENTIAL - 1e-12)) for e in g["edges"]}
    depth = float(case["potential"].split(",")[-1])
    shift = 0.5 - coercivity_C(case) - depth - 1.0
    return {
        "unperturbed": [float(x) for x in lowest(case, cells, gen.MODES_POTENTIAL, shift)],
        "perturbed": [float(x) for x in lowest(case, cells, gen.MODES_POTENTIAL, shift, case["potential"])],
    }


def reference(workload: str, case: dict) -> dict:
    if workload == "grid-potential":
        return potential_reference(case)
    return scan_reference(case, TARGET_ROOTS[workload])


if __name__ == "__main__":
    workload, seed, n_ops = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    cases = gen.make_cases(workload, seed, n_ops)
    print(json.dumps([reference(workload, c) for c in cases]))
