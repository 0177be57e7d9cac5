"""Seeded input generators for the three benchmark families.

Inputs are plain documents in the CLI's JSON formats (graph, boundary
conditions, potential expression), so they can be handed to the program
in memory or as files.  Op ``i`` of a workload draws from its own generator
seeded with ``(family, seed, i)``: one seed gives byte-identical inputs on
every run, and op ``i`` does not depend on how many ops the run makes.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("star-expansion", "grid-potential", "grid-scan")
U = 1.0  # lower edge-length bound stated in every generated graph
GRID_N = 4  # vertices per side of the lattice families
MESH_POTENTIAL = 0.02  # grid-potential's --mesh
MODES_POTENTIAL = 10  # grid-potential's --modes
# Ray counts of star-expansion, taken in turn by op index: the op cost grows
# with the ray count, so every run gets the same mix and only the draws
# within a star depend on the seed.
STAR_RAYS = (5, 6, 7, 8)


def _rng(workload: str, seed: int, op: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return np.random.default_rng([WORKLOADS.index(workload), seed, op])


def _pairs(M: np.ndarray) -> list[list[list[float]]]:
    """Complex matrix as rows of [re, im] pairs (the boundary-file format)."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, _ = np.linalg.qr(Z)
    return Q


def star_case(rng: np.random.Generator, n: int) -> dict:
    """``n`` rays, lengths U[1, 2]; general (L, P) at the centre, mixed tips.

    P is a random rank-2 orthogonal projection and L a random Hermitian
    matrix acting on ker P only, so P L (1 - P) = 0 and no rank anomaly can
    arise.  Tips are Dirichlet, Neumann or Robin (delta of strength U[-1, 1]).
    """
    lengths = rng.uniform(1.0, 2.0, n)
    tips = [f"t{i}" for i in range(1, n + 1)]
    edges = [
        {"id": f"e{i}", "length": float(lengths[i - 1]), "from": "c", "to": tips[i - 1]}
        for i in range(1, n + 1)
    ]
    Q = _unitary(rng, n)
    ran, ker = Q[:, :2], Q[:, 2:]
    P = ran @ ran.conj().T
    G = rng.standard_normal((n - 2, n - 2)) + 1j * rng.standard_normal((n - 2, n - 2))
    L = ker @ (0.25 * (G + G.conj().T)) @ ker.conj().T
    bc: dict = {"c": {"L": _pairs(0.5 * (L + L.conj().T)), "P": _pairs(0.5 * (P + P.conj().T))}}
    for t in tips:
        kind = int(rng.integers(0, 3))
        bc[t] = ("dirichlet", "neumann", None)[kind] or {"delta": float(rng.uniform(-1.0, 1.0))}
    return {"graph": {"u": U, "vertices": ["c"] + tips, "edges": edges}, "bc": bc}


def grid_case(rng: np.random.Generator, mixed: bool) -> dict:
    """GRID_N x GRID_N lattice, lengths U[1, 1.4].

    Every vertex is Kirchhoff, or, when ``mixed``, Kirchhoff or a delta
    coupling of strength U[-1, 1] with equal odds.
    """
    vid = [[f"v{r}{c}" for c in range(GRID_N)] for r in range(GRID_N)]
    pairs = []
    for r in range(GRID_N):
        for c in range(GRID_N):
            if c + 1 < GRID_N:
                pairs.append((vid[r][c], vid[r][c + 1]))
            if r + 1 < GRID_N:
                pairs.append((vid[r][c], vid[r + 1][c]))
    lengths = rng.uniform(1.0, 1.4, len(pairs))
    edges = [
        {"id": f"e{k:02d}", "length": float(lengths[k]), "from": a, "to": b}
        for k, (a, b) in enumerate(pairs)
    ]
    vertices = [v for row in vid for v in row]
    bc: dict = {}
    for v in vertices:
        if mixed and rng.random() < 0.5:
            bc[v] = {"delta": float(rng.uniform(-1.0, 1.0))}
        else:
            bc[v] = "kirchhoff"
    return {"graph": {"u": U, "vertices": vertices, "edges": edges}, "bc": bc}


def well_expr(rng: np.random.Generator, graph: dict) -> str:
    """``well:edge,t0,t1,depth`` on a random edge, depth U[1, 5]."""
    e = graph["edges"][int(rng.integers(0, len(graph["edges"])))]
    length = e["length"]
    t0 = rng.uniform(0.0, 0.4) * length
    t1 = t0 + rng.uniform(0.3, 0.6) * length
    return f"well:{e['id']},{t0:.6f},{t1:.6f},{rng.uniform(1.0, 5.0):.6f}"


def make_case(workload: str, seed: int, op: int) -> dict:
    rng = _rng(workload, seed, op)
    if workload == "star-expansion":
        return star_case(rng, STAR_RAYS[op % len(STAR_RAYS)])
    if workload == "grid-scan":
        return grid_case(rng, mixed=True)
    if workload == "grid-potential":
        case = grid_case(rng, mixed=False)
        case["potential"] = well_expr(rng, case["graph"])
        return case
    raise ValueError(f"unknown workload {workload!r}")


def make_cases(workload: str, seed: int, n_ops: int) -> list[dict]:
    return [make_case(workload, seed, i) for i in range(n_ops)]
