"""Command-line interface: validate, spectrum, expansion, potential.

Exit codes: 0 when every requested check passes, 1 when a mathematical check
fails (inequality violated, solver disagreement over budget, residual above
tolerance), 2 on unusable input.  The inequality checks are exact minima
and the one randomized check (``expansion``'s random span) takes a seed, so
the reports are deterministic byte-for-byte given the same configuration.
Each command reads the parsed arguments directly.  Every flag and its
default is defined once, in :data:`FLAGS`, and each subcommand accepts only
the flags its command reads: any other flag is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import boundary, expansion, fem, potentials, secular
from .functions import GridFunction, load_function_csv
from .graph import MetricGraph, Point, VertexPoint, ids_from_text, load_graph, point_on_edge, validate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _json_dump(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def _emit(args: argparse.Namespace, name: str, report: dict) -> None:
    text = _json_dump(report)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.json").write_text(text + "\n", encoding="utf-8")


def _verdict(checks: list[tuple[str, object, object, bool]]) -> int:
    """EXIT_OK if every (report key, value, bound, holds) check holds; else one stderr line per failed check."""
    failed = [c for c in checks if not c[3]]
    for key, value, bound, _ in failed:
        print(f"check failed: {key}: {value} against {bound}", file=sys.stderr)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _write_csv(args: argparse.Namespace, name: str, header: list[str], rows: list) -> None:
    if not args.out:
        return
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _load_inputs(args: argparse.Namespace) -> tuple[MetricGraph, boundary.BoundaryCondition]:
    g = load_graph(args.graph)
    bc = boundary.load_bc(args.bc, g)
    return g, bc


def _parse_base_point(g: MetricGraph, spec: str | None) -> Point:
    if spec is None:
        return VertexPoint(g.vertices[0])
    if ":" in spec:
        eid_raw, t_raw = spec.split(":", 1)
        [eid] = ids_from_text((e.id for e in g.edges), [eid_raw], "unknown edge {!r} in --weight-base")
        return point_on_edge(g, eid, float(t_raw))
    [v] = ids_from_text(g.vertices, [spec], "unknown vertex {!r} in --weight-base")
    return VertexPoint(v)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    graph_violations = validate(g)
    report: dict = {
        "command": "validate",
        "graph": {
            "path": args.graph,
            "u": g.u,
            "n_vertices": len(g.vertices),
            "n_edges": len(g.edges),
            "total_length": g.total_length if g.is_compact else "inf",
            "compact": g.is_compact,
            "violations": [vars(v) for v in graph_violations],
        },
    }
    if graph_violations:
        report["valid"] = False
        _emit(args, "validate", report)
        return _verdict([("graph.violations", len(graph_violations), 0, False)])
    bc = boundary.load_bc(args.bc, g)
    bc_violations, S = boundary.validate_bc(g, bc)
    fatal = [v for v in bc_violations if v.code != "lp-mixing"]
    warn = [v for v in bc_violations if v.code == "lp-mixing"]
    const = boundary.coercivity_constant(S, g.u)
    report["boundary"] = {
        "path": args.bc,
        "S": S,
        "violations": [vars(v) for v in fatal],
        "warnings": [vars(v) for v in warn],
    }
    if math.isfinite(const.C):  # an infinite C is a violation above, and JSON has no inf
        report["coercivity"] = {"S": const.S, "u": const.u, "eps": const.eps, "C": const.C}
    report["valid"] = not fatal
    _emit(args, "validate", report)
    return _verdict([("boundary.violations", len(fatal), 0, not fatal)])


def cmd_spectrum(args: argparse.Namespace) -> int:
    g, bc = _load_inputs(args)
    g.require_compact("spectral computation")
    hits = secular.eigenvalue_scan(g, bc, *secular.scan_window(g, bc, args.modes))
    exact = [h.lam for h in hits for _ in range(h.multiplicity)][: args.modes]
    fa = fem.assemble(g, bc, args.mesh)
    es = fem.eigensystem(fa, args.modes)
    h = float(np.max(fa.grid.widths))
    pairs, checks = [], []
    worst = 0.0
    for i in range(args.modes):
        lam_s = exact[i]
        lam_f = float(es.eigenvalues[i])
        budget = 10.0 * h * h * max(1.0, abs(lam_s))
        diff = abs(lam_s - lam_f)
        worst = max(worst, diff)
        checks.append((f"eigenvalues[{i}].diff", diff, budget, diff <= budget))
        pairs.append(
            {"index": i, "secular": lam_s, "fem": lam_f, "diff": diff, "budget": budget}
        )
    report = {
        "command": "spectrum",
        "mesh": args.mesh,
        "modes": args.modes,
        "eigenvalues": pairs,
        "multiplicities": [{"lambda": hh.lam, "multiplicity": hh.multiplicity} for hh in hits],
        "max_disagreement": worst,
        "within_budget": all(c[3] for c in checks),
    }
    _write_csv(args, "secular_spectrum", ["index", "eigenvalue"], list(enumerate(exact)))
    _write_csv(
        args,
        "secular_report",
        ["lambda", "multiplicity", "sigma_min"],
        [(hh.lam, hh.multiplicity, hh.sigma_min) for hh in hits],
    )
    _write_csv(args, "fem_spectrum", ["index", "eigenvalue"], list(enumerate(es.eigenvalues.tolist())))
    _emit(args, "spectrum", report)
    return _verdict(checks)


def cmd_expansion(args: argparse.Namespace) -> int:
    if args.check_file is not None and args.check_lambda is None:
        raise ValueError("--check-file needs --check-lambda")
    if args.check_lambda is not None and args.check_file is None:
        raise ValueError("--check-lambda needs --check-file")
    g, bc = _load_inputs(args)
    g.require_compact("the expansion report")
    hits = secular.eigenvalue_scan(g, bc, *secular.scan_window(g, bc, args.modes))
    # the roots up to the one that completes args.modes modes
    before = itertools.accumulate((h.multiplicity for h in hits), initial=0)
    kept = [h for h, n in zip(hits, before) if n < args.modes]
    rep = expansion.DiscreteSpectralRep.from_secular(g, bc, kept, args.mesh)
    wf = expansion.build_weight(g, _parse_base_point(g, args.weight_base), args.weight_eps)
    const = boundary.coercivity_constant(secular.compiled(g, bc).S, g.u)
    C = args.hs_c if args.hs_c is not None else const.C + 1.0
    hs = expansion.hs_norm_sq(rep, wf.sample(args.mesh), C, inverse_sup=wf.inverse_sup)

    rng = np.random.default_rng(args.seed)
    battery = {}
    coeffs = rng.standard_normal(len(rep.modes))
    span_f = expansion.reconstruct(rep, coeffs.astype(complex))
    battery["random_span"] = expansion.parseval(rep, span_f)
    bump_f = GridFunction.on(rep.grid, rep.grid.sample(lambda eid, ts: ts * (g.edge(eid).length - ts)))
    battery["bridge_poly"] = expansion.parseval(rep, bump_f)

    compiled = expansion.compile_battery(g, bc)
    residuals = compiled.residuals([m.exact for m in rep.modes], [m.lam for m in rep.modes])
    worst_resid = 0.0
    per_mode = []
    for idx, (m, rr) in enumerate(zip(rep.modes, residuals)):
        winv_norm = math.sqrt(max(hs.per_mode[idx] * (C + m.lam), 0.0))
        worst_resid = max(worst_resid, rr.max_residual)
        per_mode.append(
            {
                "j": m.j,
                "lambda": m.lam,
                "residual": rr.max_residual,
                "weighted_norm": winv_norm,
            }
        )

    check_result = None
    if args.check_file is not None:
        phi = load_function_csv(args.check_file, g, args.mesh)
        # nodal data: the same checked tests, panels split at the grid nodes
        rr = compiled.residuals([phi], [args.check_lambda])[0]
        check_result = {"lambda": args.check_lambda, "residual": rr.max_residual}
        worst_resid = max(worst_resid, rr.max_residual)

    report = {
        "command": "expansion",
        "modes": len(rep.modes),
        "weight": {
            "eps": args.weight_eps,
            "base": str(args.weight_base),
            "integral_inverse_square": wf.integral_inverse_square(),
        },
        "hs": {"C": C, "partial": hs.partial, "tail_bound": hs.tail, "total": hs.total},
        "hs_norm_sq": hs.total,
        "tail_bound": hs.tail,
        "parseval": {
            name: {"norm_sq": p.norm_sq, "coeff_sq": p.coeff_sq, "gap": p.gap, "relative_gap": p.relative_gap}
            for name, p in battery.items()
        },
        "parseval_gap": max(p.gap for p in battery.values()),
        "worst_genef_residual": worst_resid,
        "per_mode": per_mode,
        "level_sets": {str(j): lams for j, lams in rep.level_sets().items()},
        "tolerance": args.tol,
    }
    if check_result is not None:
        report["check_file"] = check_result
    _emit(args, "expansion", report)
    return _verdict([("worst_genef_residual", worst_resid, args.tol, worst_resid <= args.tol)])


def cmd_potential(args: argparse.Namespace) -> int:
    g, bc = _load_inputs(args)
    g.require_valid()  # before the potential is sampled on its mesh
    g.require_compact("the potential report")
    if Path(args.potential).exists():
        V = potentials.load_potential_csv(args.potential, g, args.mesh)
    else:
        V = potentials.parse_potential_expr(args.potential, g, args.mesh)
    fa = fem.assemble(g, bc, args.mesh)
    const = boundary.coercivity_constant(fa.S_bound, g.u)
    mv = potentials.uniform_l2_norm(g, V)
    es0 = fem.eigensystem(fa, args.modes)
    fa_v = potentials.assemble_perturbed(fa, V)
    es1 = fem.eigensystem(fa_v, args.modes)

    a_values = [frac * g.u for frac in (0.25, 0.5, 1.0)]
    bounds = potentials.check_relative_bound(fa, V, a_values, const.C)
    worst_margin = min(rb.worst_margin for rb in bounds)  # the window margin is >= 0.2879 for every a

    shift_check = None
    if float(np.max(V.data) - np.min(V.data)) < 1e-12:
        c = float(V.data[0])
        shift_check = float(np.max(np.abs(es1.eigenvalues - (es0.eigenvalues + c))))

    pr = potentials.perturbed_eigen_report(g, bc, V, es1)
    report = {
        "command": "potential",
        "potential": args.potential,
        "m_v": {
            "value": mv.M,
            "segment": {"edge": str(mv.segment.edge), "t0": mv.segment.t0, "t1": mv.segment.t1},
        },
        "relative_bound": [dataclasses.asdict(rb) for rb in bounds],
        "spectrum": {
            "unperturbed": [float(x) for x in es0.eigenvalues],
            "perturbed": [float(x) for x in es1.eigenvalues],
        },
        "perturbed_modes": [
            {
                "lambda": m.lam,
                "interior_residual": m.interior_residual,
                "star_residual": m.star_residual,
                "trace_defect": m.trace_defect,
            }
            for m in pr.modes
        ],
    }
    if shift_check is not None:
        report["constant_shift_error"] = shift_check
    _emit(args, "potential", report)
    return _verdict([
        ("relative_bound.worst_margin", worst_margin, -1e-8, worst_margin >= -1e-8),
        ("constant_shift_error", shift_check, 1e-8, shift_check is None or shift_check <= 1e-8),
    ])


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


# every flag once, as add_argument keywords; each command lists the flags it reads
FLAGS: dict[str, dict] = {
    "--graph": {"required": True, "help": "graph description JSON"},
    "--bc": {"required": True, "help": "boundary-condition JSON"},
    "--out": {"help": "directory for reports and CSV exports"},
    "--mesh": {"type": finite_float, "default": 0.02, "help": "grid width h_max"},
    "--modes": {"type": positive_int, "default": 8},
    "--tol": {"type": finite_float, "default": 1e-6, "help": "largest accepted weak residual"},
    "--seed": {"type": int, "default": 0},
    "--weight-eps": {"type": finite_float, "default": 1.0},
    "--weight-base": {"help": "vertex id or edge:t"},
    "--hs-c": {"type": finite_float, "help": "shift C in (C + H)^-1/2"},
    "--check-file": {"help": "function CSV to test"},
    "--check-lambda": {"type": finite_float},
    "--potential": {"required": True, "help": "CSV path or const:c / well:edge,t0,t1,d"},
}
_INPUTS = ("--graph", "--bc", "--out")
_SPECTRUM = _INPUTS + ("--mesh", "--modes")
_EXPANSION = _SPECTRUM + (
    "--tol", "--seed", "--weight-eps", "--weight-base", "--hs-c", "--check-file", "--check-lambda"
)
_POTENTIAL = _INPUTS + ("--mesh", "--modes", "--potential")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricgraph",
        description="Spectra and eigenfunction expansions for operators on metric graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command, helptext, flags in (
        ("validate", cmd_validate, "check a graph and boundary-condition file", _INPUTS),
        ("spectrum", cmd_spectrum, "compute the spectrum with both solvers and cross-check", _SPECTRUM),
        ("expansion", cmd_expansion, "weighted expansion report: HS norm, Parseval, residuals", _EXPANSION),
        ("potential", cmd_potential, "perturb by a potential and verify the relative bounds", _POTENTIAL),
    ):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(run=command)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (fem.ResidualCheckFailed, secular.RankAnomaly) as exc:
        # before the ValueError clause: a rank anomaly is also a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
