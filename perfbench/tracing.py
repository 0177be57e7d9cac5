"""Spans around the program's public functions, recorded from outside it.

``Hooks`` replaces each target function by a timing wrapper at every
binding site: the defining module and every ``metricgraph`` module (or the
package itself) that imported the name, since ``from .boundary import
require_valid_bc`` makes a separate binding that patching ``boundary`` alone
would miss.  Methods are patched once on their class.  A target that no
longer exists is listed in ``absent`` instead of failing the run.  Spans
(name, start, end, parent, op) stay in memory; ``layer_metrics`` turns them
into per-op layer numbers, and ``Recorder.dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# (span name, module, attribute path); the span name's prefix is the layer
TARGETS = (
    ("graph.graph_from_dict", "metricgraph.graph", "graph_from_dict"),
    ("graph.load_graph", "metricgraph.graph", "load_graph"),
    ("graph.validate", "metricgraph.graph", "validate"),
    ("boundary.bc_from_mapping", "metricgraph.boundary", "bc_from_mapping"),
    ("boundary.load_bc", "metricgraph.boundary", "load_bc"),
    ("boundary.validate_bc", "metricgraph.boundary", "validate_bc"),
    ("boundary.require_valid_bc", "metricgraph.boundary", "require_valid_bc"),
    ("boundary.coercivity_constant", "metricgraph.boundary", "coercivity_constant"),
    ("fem.assemble", "metricgraph.fem", "assemble"),
    ("fem.eigensystem", "metricgraph.fem", "eigensystem"),
    ("secular.eigenvalue_scan", "metricgraph.secular", "eigenvalue_scan"),
    ("secular.smallest_singular_value", "metricgraph.secular", "smallest_singular_value"),
    ("secular.secular_matrix", "metricgraph.secular", "secular_matrix"),
    ("secular.eigenfunction", "metricgraph.secular", "eigenfunction"),
    ("expansion.from_secular", "metricgraph.expansion", "DiscreteSpectralRep.from_secular"),
    ("expansion.build_weight", "metricgraph.expansion", "build_weight"),
    ("expansion.weight_sample", "metricgraph.expansion", "WeightFunction.sample"),
    ("expansion.hs_norm_sq", "metricgraph.expansion", "hs_norm_sq"),
    ("expansion.reconstruct", "metricgraph.expansion", "reconstruct"),
    ("expansion.parseval", "metricgraph.expansion", "parseval"),
    ("expansion.residual", "metricgraph.expansion", "generalized_eigenfunction_residual"),
    ("potentials.parse_potential_expr", "metricgraph.potentials", "parse_potential_expr"),
    ("potentials.uniform_l2_norm", "metricgraph.potentials", "uniform_l2_norm"),
    ("potentials.assemble_perturbed", "metricgraph.potentials", "assemble_perturbed"),
    ("potentials.check_relative_bound", "metricgraph.potentials", "check_relative_bound"),
    ("potentials.perturbed_eigen_report", "metricgraph.potentials", "perturbed_eigen_report"),
    ("cli.main", "metricgraph.cli", "main"),
)
OP = "op"


class Recorder:
    """Nested spans of one thread, plus summaries of selected return values."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.results: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self.op_id = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)


def _summarize(name: str, result):
    """What the layer metrics need from a return value, computed from it."""
    if name == "fem.assemble":
        C = result.constraint
        arrays = (result.stiffness, result.boundary, result.mass, C.data, C.indices, C.indptr)
        return {"dim": result.dim, "mb": sum(a.nbytes for a in arrays) / 2**20}
    if name == "secular.eigenvalue_scan":
        return len(result)
    return None


def _wrap(rec: Recorder, name: str, fn):
    keep = name in ("fem.assemble", "secular.eigenvalue_scan")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if keep:
            rec.results[name].append(_summarize(name, result))
        return result

    return wrapper


class Hooks:
    """Context manager installing the wrappers; restores every binding on exit."""

    def __init__(self, rec: Recorder, targets=TARGETS) -> None:
        self.rec = rec
        self.targets = targets
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Hooks":
        mods = [m for k, m in list(sys.modules.items()) if k == "metricgraph" or k.startswith("metricgraph.")]
        for name, modname, attr in self.targets:
            owner = sys.modules.get(modname)
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(leaf)
            if raw is None:
                self.absent.append(name)
                continue
            if cls_path:  # method or classmethod: one binding, on the class
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(self.rec, name, raw.__func__))
                else:
                    new = _wrap(self.rec, name, raw)
                self._set(owner, leaf, raw, new)
                continue
            new = _wrap(self.rec, name, raw)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is raw:
                        self._set(m, key, raw, new)
        return self

    def _set(self, owner, key: str, old, new) -> None:
        setattr(owner, key, new)
        self._undo.append((owner, key, old))

    def __exit__(self, *exc) -> None:
        for owner, key, old in reversed(self._undo):
            setattr(owner, key, old)
        self._undo.clear()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

UNITS = {"_s": "s", "_calls": "count", ".dim": "count", "_mb": "MB", "_per_root": "evals_per_root"}


def unit(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


def layer_metrics(rec: Recorder) -> tuple[dict[str, float], float]:
    """Per-op means of layer counts and times, and the layer coverage of ops.

    Inclusive time is a span's duration; self time subtracts its direct
    children.  ``cli.self_s`` is the part of an op not covered by a non-cli
    layer span (the op's glue plus the CLI's own code).  Ops are the spans
    named ``op``; their count is the base of every mean.  Coverage is the
    share of op time inside non-cli layer spans.
    """
    spans = rec.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    count: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        count[s[0]] += 1
        incl[s[0]] += dur[i]
        self_t[s[0]] += dur[i] - child[i]
    op_idx = [i for i, s in enumerate(spans) if s[0] == OP]
    n_ops = max(len(op_idx), 1)
    # layer time directly under an op or under the CLI entry point
    covered = sum(
        dur[i] for i, s in enumerate(spans)
        if s[3] >= 0 and spans[s[3]][0] in (OP, "cli.main") and s[0] not in (OP, "cli.main")
    )
    op_total = sum(dur[i] for i in op_idx)
    assembled = rec.results.get("fem.assemble", [])
    roots = sum(rec.results.get("secular.eigenvalue_scan", []))

    def per_op(table, name):
        return table[name] / n_ops

    m = {
        "boundary.validate_calls": per_op(count, "boundary.validate_bc"),
        "boundary.validate_s": per_op(incl, "boundary.validate_bc"),
        "secular.sigma_min_calls": per_op(count, "secular.smallest_singular_value"),
        "secular.sigma_min_self_s": per_op(self_t, "secular.smallest_singular_value"),
        "secular.matrix_self_s": per_op(self_t, "secular.secular_matrix"),
        "secular.scan_s": per_op(incl, "secular.eigenvalue_scan"),
        "secular.sigma_min_per_root": count["secular.smallest_singular_value"] / roots if roots else 0.0,
        "secular.eigenfunction_calls": per_op(count, "secular.eigenfunction"),
        "secular.eigenfunction_s": per_op(incl, "secular.eigenfunction"),
        "fem.assemble_s": per_op(incl, "fem.assemble"),
        "fem.eigensystem_s": per_op(incl, "fem.eigensystem"),
        "fem.eigensystem_calls": per_op(count, "fem.eigensystem"),
        "fem.dim": statistics.fmean(a["dim"] for a in assembled) if assembled else 0.0,
        "fem.matrix_mb": statistics.fmean(a["mb"] for a in assembled) if assembled else 0.0,
        "expansion.spectral_rep_s": per_op(incl, "expansion.from_secular"),
        "expansion.residual_s": per_op(incl, "expansion.residual"),
        "expansion.residual_calls": per_op(count, "expansion.residual"),
        "expansion.parseval_s": per_op(incl, "expansion.parseval"),
        "expansion.hs_s": per_op(incl, "expansion.hs_norm_sq"),
        "potentials.relative_bound_s": per_op(incl, "potentials.check_relative_bound"),
        "potentials.perturbed_report_s": per_op(incl, "potentials.perturbed_eigen_report"),
        "potentials.assemble_perturbed_s": per_op(incl, "potentials.assemble_perturbed"),
        "cli.self_s": (op_total - covered) / n_ops,
    }
    return m, (covered / op_total if op_total > 0 else 0.0)
