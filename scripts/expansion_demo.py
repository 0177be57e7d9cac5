#!/usr/bin/env python3
"""Expansion walkthrough on the Dirichlet interval of length pi.

Computes the exact spectrum, expands f(t) = t (pi - t) in the eigenbasis,
reports the Parseval balance and the weighted Hilbert-Schmidt sum
sum_n (C + lambda_n)^-1, and compares the latter against its closed form
(pi coth pi - 1)/2 for C = 1.

    python scripts/expansion_demo.py [--modes 20] [--mesh 0.00785]
"""

import argparse
import math

import numpy as np

from metricgraph import (
    DiscreteSpectralRep,
    Edge,
    GridFunction,
    MetricGraph,
    eigenvalue_scan,
    fourier_coefficients,
    hs_norm_sq,
    parseval,
    scan_window,
    uniform_bc,
)
from metricgraph.expansion import compile_battery


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--modes", type=int, default=20)
    ap.add_argument("--mesh", type=float, default=math.pi / 400)
    args = ap.parse_args()

    g = MetricGraph(("v", "w"), (Edge("e", math.pi, "v", "w"),), 1.0)
    bc = uniform_bc(g, "dirichlet")
    hits = eigenvalue_scan(g, bc, *scan_window(g, bc, args.modes))[: args.modes]
    rep = DiscreteSpectralRep.from_secular(g, bc, hits, args.mesh)
    print(f"modes: {[round(h.lam, 6) for h in hits[:6]]} ...")

    f = GridFunction.from_callable(g, args.mesh, lambda eid, ts: (ts * (math.pi - ts)).astype(complex))
    coeffs = fourier_coefficients(rep, f)
    print("first coefficients:", np.array2string(coeffs[:5].real, precision=6))
    pr = parseval(rep, f)
    print(f"parseval: ||f||^2 = {pr.norm_sq:.8f}  sum|c|^2 = {pr.coeff_sq:.8f}  gap = {pr.gap:.2e}")

    w = GridFunction.ones(g, args.mesh)
    hs = hs_norm_sq(rep, w, 1.0, inverse_sup=1.0)  # w = 1
    target = (math.pi / math.tanh(math.pi) - 1.0) / 2.0
    print(
        f"hs norm^2: partial {hs.partial:.6f} + tail {hs.tail:.6f} = {hs.total:.6f}"
        f"  (closed form {target:.6f})"
    )

    # one checked battery for every mode, as the expansion command does
    reports = compile_battery(g, bc).residuals([m.exact for m in rep.modes], [m.lam for m in rep.modes])
    worst = max(r.max_residual for r in reports)
    print(f"worst weak residual over modes: {worst:.2e}")


if __name__ == "__main__":
    main()
