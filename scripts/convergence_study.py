#!/usr/bin/env python3
"""Mesh-refinement study: finite-element eigenvalues against the exact solver.

Prints, for each fixture, the error of the lowest modes at a sequence of
halved meshes and the observed convergence order (expected: 2).

    python scripts/convergence_study.py [--modes 8] [--levels 4]
"""

import argparse
import math

import numpy as np

from metricgraph import (
    BoundaryCondition,
    Edge,
    MetricGraph,
    assemble,
    eigensystem,
    eigenvalue_scan,
    preset,
    scan_window,
    uniform_bc,
)
from metricgraph.functions import edge_grid


def fixtures():
    gi = MetricGraph(("v", "w"), (Edge("e", math.pi, "v", "w"),), 1.0)
    gs = MetricGraph(
        ("c", "t1", "t2", "t3"),
        tuple(Edge(f"e{i}", 1.0, "c", f"t{i}") for i in (1, 2, 3)),
        1.0,
    )
    gl = MetricGraph(("a", "b"), (Edge("loop", 2.0, "a", "a"), Edge("bridge", 2.0, "a", "b")), 1.0)
    yield "interval-dirichlet", gi, uniform_bc(gi, "dirichlet")
    yield "interval-robin", gi, BoundaryCondition(
        {"v": preset("delta", gi.star("v"), 2.0), "w": preset("dirichlet", gi.star("w"))}
    )
    yield "star3-kirchhoff", gs, uniform_bc(gs, "kirchhoff")
    yield "loop-edge", gl, uniform_bc(gl, "kirchhoff")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--modes", type=int, default=8)
    ap.add_argument("--levels", type=int, default=4)
    args = ap.parse_args()

    for name, g, bc in fixtures():
        hits = eigenvalue_scan(g, bc, *scan_window(g, bc, args.modes))
        exact = np.array([h.lam for h in hits for _ in range(h.multiplicity)][: args.modes])
        print(f"\n== {name} ==")
        print("exact:", np.array2string(exact, precision=6))
        prev = None
        prev_h = None
        for level in range(args.levels):
            h_req = 0.1 / 2**level
            es = eigensystem(assemble(g, bc, h_req), args.modes)
            h_act = max(float(np.diff(edge_grid(g, e.id, h_req))[0]) for e in g.edges)
            err = np.abs(es.eigenvalues - exact)
            line = f"h={h_act:.5f}  max err={np.max(err):.3e}"
            if prev is not None:
                mask = err > 1e-12
                orders = np.log(prev[mask] / err[mask]) / np.log(prev_h / h_act)
                line += f"  order={np.median(orders):.2f}"
            print(line)
            prev, prev_h = err, h_act


if __name__ == "__main__":
    main()
