"""Tests of the benchmark's own parts: generators, gate, hooks.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gate  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from metricgraph import boundary, cli, graph, secular  # noqa: E402,F401  (cli: so every hook target is loaded)

INTERVAL = {
    "graph": {"u": 1.0, "vertices": ["a", "b"], "edges": [{"id": "e", "length": math.pi, "from": "a", "to": "b"}]},
    "bc": {"a": "dirichlet", "b": "dirichlet"},
}


def _interval():
    g = graph.graph_from_dict(INTERVAL["graph"])
    return g, boundary.bc_from_mapping(g, INTERVAL["bc"])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generators_are_deterministic(workload):
    def text(seed, n):
        return [json.dumps(c, sort_keys=True) for c in gen.make_cases(workload, seed, n)]

    first = text(7, 3)
    assert first == text(7, 3)
    assert first != text(8, 3)
    assert text(7, 5)[:3] == first  # op i does not depend on the length of the sequence


def test_star_centre_condition_has_no_lp_mixing():
    case = gen.make_case("star-expansion", 3, 0)
    g = graph.graph_from_dict(case["graph"])
    problems, _ = boundary.validate_bc(g, boundary.bc_from_mapping(g, case["bc"]))
    assert problems == []


def test_reference_on_dirichlet_interval():
    ref = reference.scan_reference(INTERVAL, 5)
    assert ref["refs"] == pytest.approx([1.0, 4.0, 9.0, 16.0, 25.0], rel=1e-6)
    assert ref["lam_min"] < 1.0 and 25.0 < ref["lam_max"] < 36.0


def test_matcher_counts_missed_roots_and_rejects_spurious_ones():
    ref = reference.scan_reference(INTERVAL, 5)
    refs, h = ref["refs"], ref["h_ref"]
    g, bc = _interval()
    roots = [hit.lam for hit in secular.eigenvalue_scan(g, bc, ref["lam_min"], ref["lam_max"], num=200)]
    assert gate.match_roots(roots, refs, h) == (0, [])
    dropped = [r for r in roots if abs(r - 9.0) > 0.5]
    assert gate.match_roots(dropped, refs, h) == (1, [])
    assert gate.match_roots(roots + [6.5], refs, h) == (0, [6.5])


def test_hooks_count_scan_evaluations_and_restore_bindings():
    g, bc = _interval()
    original = secular.smallest_singular_value
    rec = tracing.Recorder()
    k = 20
    with tracing.Hooks(rec) as hooks:
        span = rec.open(tracing.OP)
        secular.eigenvalue_scan(g, bc, 0.5, 10.0, num=k)
        rec.close(span)
    assert hooks.absent == []
    assert secular.smallest_singular_value is original
    layers, coverage = tracing.layer_metrics(rec)
    assert layers["secular.sigma_min_calls"] >= k
    assert 0.9 <= coverage <= 1.0


def test_validate_bc_is_counted_through_require_valid_bc():
    g, bc = _interval()
    rec = tracing.Recorder()
    with tracing.Hooks(rec):
        secular.require_valid_bc(g, bc)  # the name secular imported from boundary
    names = [s[0] for s in rec.spans]
    assert names == ["boundary.require_valid_bc", "boundary.validate_bc"]
    assert rec.spans[1][3] == 0  # validate_bc's parent is require_valid_bc
    assert secular.require_valid_bc is boundary.require_valid_bc


def test_missing_hook_target_is_recorded_as_absent():
    rec = tracing.Recorder()
    targets = (("secular.gone", "metricgraph.secular", "no_such_function"), ("x.y", "metricgraph.nowhere", "f"))
    with tracing.Hooks(rec, targets) as hooks:
        pass
    assert hooks.absent == ["secular.gone", "x.y"]

