import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from scipy.optimize import brentq

import metricgraph
from metricgraph.cli import main
from metricgraph.graph import graph_to_dict

from conftest import dirichlet_star_roots, lp_mixing_star

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def write_interval(tmp_path, length=math.pi, u=1.0, bc=("dirichlet", "dirichlet")):
    gpath = tmp_path / "g.json"
    bpath = tmp_path / "bc.json"
    gpath.write_text(
        json.dumps(
            {
                "u": u,
                "vertices": ["v", "w"],
                "edges": [{"id": "e", "length": length, "from": "v", "to": "w"}],
            }
        )
    )
    bpath.write_text(json.dumps({"v": bc[0], "w": bc[1]}))
    return str(gpath), str(bpath)


def load_schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def _reject_non_finite(name):
    raise ValueError(f"report holds the non-JSON constant {name}")


def run_and_parse(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=_reject_non_finite)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    g, b = write_interval(tmp_path)
    code, report = run_and_parse(capsys, ["validate", "--graph", g, "--bc", b])
    assert code == 0 and report["valid"]
    jsonschema.validate(report, load_schema("validate"))


def test_validate_short_edge_fails(tmp_path, capsys):
    g, b = write_interval(tmp_path, length=0.5, u=1.0)
    code, report = run_and_parse(capsys, ["validate", "--graph", g, "--bc", b])
    assert code == 1
    assert any(v["code"] == "lb" and v["subject"] == "e" for v in report["graph"]["violations"])
    jsonschema.validate(report, load_schema("validate"))


def test_validate_non_hermitian_l(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    bpath = tmp_path / "bc.json"
    gpath.write_text(
        json.dumps(
            {
                "u": 1.0,
                "vertices": [0, 1, 2],
                "edges": [
                    {"id": 0, "length": 1.0, "from": 0, "to": 1},
                    {"id": 1, "length": 1.0, "from": 1, "to": 2},
                ],
            }
        )
    )
    bpath.write_text(
        json.dumps(
            {
                "0": "dirichlet",
                "1": {"L": [[0.0, [0.0, 1.0]], [0.0, 0.0]], "P": [[0.0, 0.0], [0.0, 0.0]]},
                "2": "dirichlet",
            }
        )
    )
    code, report = run_and_parse(capsys, ["validate", "--graph", str(gpath), "--bc", str(bpath)])
    assert code == 1
    assert any(v["code"] == "L-selfadjoint" for v in report["boundary"]["violations"])


def test_every_command_accepts_bc_under_one_tolerance(tmp_path, capsys):
    # P = [[1 + 1e-9]] misses idempotency by 1e-9, above the relative 1e-10:
    # validate reports it and the other commands refuse the input
    g, b = write_interval(tmp_path, bc=({"L": [[0.0]], "P": [[1.000000001]]}, "dirichlet"))
    code, report = run_and_parse(capsys, ["validate", "--graph", g, "--bc", b])
    assert code == 1 and report["valid"] is False
    assert [v["code"] for v in report["boundary"]["violations"]] == ["P-idempotent"]
    common = ["--graph", g, "--bc", b, "--mesh", "0.05", "--modes", "2"]
    for argv in (["spectrum"], ["expansion"], ["potential", "--potential", "const:1.0"]):
        assert main(argv + common) == 2
        assert "P at vertex 'v' is not idempotent" in capsys.readouterr().err
    with pytest.raises(SystemExit):  # no flag moves the tolerance
        main(["validate", "--graph", g, "--bc", b, "--bc-tol", "1e-6"])


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["spectrum", "--modes", "3", "--mesh", "0.05"], ["expansion", "--modes", "3", "--mesh", "0.05"],
     ["potential", "--modes", "3", "--mesh", "0.05", "--potential", "const:1.0"]],
    ids=["validate", "spectrum", "expansion", "potential"],
)
def test_each_command_validates_the_condition_once(tmp_path, capsys, monkeypatch, argv):
    # the scan, the P1 assembly, the battery and S all read the pair's compiled system
    from metricgraph import boundary

    original, calls = boundary.validate_bc, []
    monkeypatch.setattr(boundary, "validate_bc", lambda *a: calls.append(1) or original(*a))
    edges = [{"id": f"e{k}", "length": 1.0 + 0.2 * k, "from": "c", "to": f"t{k}"} for k in range(3)]
    star = {"u": 1.0, "vertices": ["c", "t0", "t1", "t2"], "edges": edges}
    _run_clean(tmp_path, capsys, star, {v: "kirchhoff" for v in star["vertices"]}, argv)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"delta": math.nan}, "L or P at vertex 'v' has a non-finite norm"),
        ({"delta": math.inf}, "L or P at vertex 'v' has a non-finite norm"),
        ({"L": [[0.0]], "P": [[math.nan]]}, "L or P at vertex 'v' has a non-finite norm"),
        ({"delta": -1e308}, "L or P at vertex 'v' has a non-finite norm"),
        ({"delta": 1e200}, "L or P at vertex 'v' has a non-finite norm"),
        ({"delta": -1e154}, "S = 1e+154 has no finite coercivity constant"),
    ],
    ids=["delta-nan", "delta-inf", "p-nan", "delta-1e308", "repulsive-1e200", "delta-1e154"],
)
def test_non_finite_or_unbounded_bc_is_invalid(tmp_path, capsys, entry, message):
    # Python's json reads NaN and Infinity, ||L||^2 overflows above about
    # 1e154, and 16 S^2 in C just below; validate reports each, and every
    # other command refuses it
    g, b = write_interval(tmp_path, bc=(entry, "dirichlet"))
    code, report = run_and_parse(capsys, ["validate", "--graph", g, "--bc", b])
    assert code == 1 and report["valid"] is False
    assert [v["message"] for v in report["boundary"]["violations"]] == [message]
    jsonschema.validate(report, load_schema("validate"))
    common = ["--graph", g, "--bc", b, "--mesh", "0.05", "--modes", "2"]
    for argv in (["spectrum"], ["expansion"], ["potential", "--potential", "const:1.0"]):
        assert main(argv + common) == 2
        assert capsys.readouterr().err == f"error: invalid boundary condition: {message}\n"


def test_empty_graph_is_invalid_for_every_command(tmp_path, capsys):
    gpath, bpath = tmp_path / "g.json", tmp_path / "bc.json"
    gpath.write_text(json.dumps({"u": 1, "vertices": [], "edges": []}))
    bpath.write_text(json.dumps({}))
    code, report = run_and_parse(capsys, ["validate", "--graph", str(gpath), "--bc", str(bpath)])
    assert code == 1 and not report["valid"]
    assert [v["code"] for v in report["graph"]["violations"]] == ["empty"]
    jsonschema.validate(report, load_schema("validate"))
    inputs = ["--graph", str(gpath), "--bc", str(bpath), "--mesh", "0.05", "--modes", "1"]
    for argv in (["spectrum"], ["expansion"], ["potential", "--potential", "const:1"]):
        assert main([*argv, *inputs]) == 2, argv
        assert capsys.readouterr().err.startswith("error: invalid metric graph: "), argv


def test_validate_unreadable_file(tmp_path, capsys):
    g, b = write_interval(tmp_path)
    code = main(["validate", "--graph", str(tmp_path / "missing.json"), "--bc", b])
    assert code == 2


_EDGE = {"id": "e", "length": 3.0, "from": "v", "to": "w"}
_GRAPH = {"u": 1.0, "vertices": ["v", "w"], "edges": [_EDGE]}
_BC = {"v": "dirichlet", "w": "dirichlet"}
MALFORMED = {
    "edge-not-object": ({**_GRAPH, "edges": [1]}, _BC),
    "u-null": ({**_GRAPH, "u": None}, _BC),
    "length-null": ({**_GRAPH, "edges": [{**_EDGE, "length": None}]}, _BC),
    "edge-id-list": ({**_GRAPH, "edges": [{**_EDGE, "id": ["e"]}]}, _BC),
    "delta-null": (_GRAPH, {**_BC, "v": {"delta": None}}),
    "matrix-row-not-list": (_GRAPH, {**_BC, "v": {"L": [1], "P": [[0.0]]}}),
    "matrix-entry-bool": (_GRAPH, {**_BC, "v": {"L": [[True]], "P": [[False]]}}),
    "matrix-entry-null-part": (_GRAPH, {**_BC, "v": {"L": [[[None, 0.0]]], "P": [[0.0]]}}),
    "vertices-string": ({**_GRAPH, "vertices": "vw"}, _BC),
}


@pytest.mark.parametrize("graph,bc", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_documents_are_input_errors(tmp_path, capsys, graph, bc):
    gpath, bpath = tmp_path / "g.json", tmp_path / "bc.json"
    gpath.write_text(json.dumps(graph))
    bpath.write_text(json.dumps(bc))
    assert main(["validate", "--graph", str(gpath), "--bc", str(bpath)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["expansion", "--weight-base", "x"], "unknown vertex 'x' in --weight-base"),
        (["expansion", "--weight-base", "x:0.5"], "unknown edge 'x' in --weight-base"),
        (["potential", "--potential", "well:x,0.1,0.2,1.0"], "unknown edge 'x' in potential expression"),
    ],
)
def test_unknown_ids_are_named(tmp_path, capsys, argv, message):
    g, b = write_interval(tmp_path)
    assert main([*argv, "--graph", g, "--bc", b, "--mesh", "0.05", "--modes", "2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    Path(b).write_text(json.dumps({"v": "dirichlet", "w": "dirichlet", "x": "dirichlet"}))
    assert main(["validate", "--graph", g, "--bc", b]) == 2
    assert capsys.readouterr().err == "error: boundary condition for unknown vertex 'x'\n"


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_interval(tmp_path, capsys):
    g, b = write_interval(tmp_path)
    code, report = run_and_parse(
        capsys,
        ["spectrum", "--graph", g, "--bc", b, "--mesh", "0.0157", "--modes", "6", "--out", str(tmp_path / "out")],
    )
    assert code == 0 and report["within_budget"]
    jsonschema.validate(report, load_schema("spectrum"))
    secular = np.loadtxt(tmp_path / "out" / "secular_spectrum.csv", delimiter=",", skiprows=1)
    assert np.allclose(secular[:, 1], [1, 4, 9, 16, 25, 36], atol=1e-8)
    assert (tmp_path / "out" / "fem_spectrum.csv").exists()
    detail = np.loadtxt(tmp_path / "out" / "secular_report.csv", delimiter=",", skiprows=1)
    assert detail.shape[1] == 3  # lambda, multiplicity, sigma_min
    assert np.all(detail[:, 1] == 1) and np.all(detail[:, 2] < 1e-8)


def test_spectrum_neumann_zero_mode(tmp_path, capsys):
    g, b = write_interval(tmp_path, length=1.0, bc=("neumann", "neumann"))
    code, report = run_and_parse(
        capsys,
        ["spectrum", "--graph", g, "--bc", b, "--mesh", "0.01", "--modes", "3"],
    )
    assert code == 0
    assert abs(report["eigenvalues"][0]["secular"]) < 1e-9
    assert abs(report["eigenvalues"][0]["fem"]) < 1e-8


def test_spectrum_where_two_decoupled_energies_differ_by_rounding(tmp_path, capsys):
    # Dirichlet-tip star with rays 1.1, 3.3 and 1.7: (pi/1.1)^2 = (3 pi/3.3)^2
    # comes out as two floats, which share one pole band
    rays = {"e1": 1.1, "e2": 3.3, "e3": 1.7}
    gpath, bpath = tmp_path / "g.json", tmp_path / "bc.json"
    gpath.write_text(json.dumps({
        "u": 1.0,
        "vertices": ["c", "t1", "t2", "t3"],
        "edges": [{"id": e, "length": l, "from": "c", "to": "t" + e[1:]} for e, l in rays.items()],
    }))
    bpath.write_text(json.dumps({"c": "kirchhoff", "t1": "dirichlet", "t2": "dirichlet", "t3": "dirichlet"}))
    code, _ = run_and_parse(
        capsys,
        ["spectrum", "--graph", str(gpath), "--bc", str(bpath), "--mesh", "0.01", "--modes", "8"],
    )
    assert code == 0


def test_spectrum_rejects_infinite_edges(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    bpath = tmp_path / "bc.json"
    gpath.write_text(
        json.dumps(
            {"u": 1.0, "vertices": ["v"], "edges": [{"id": "e", "length": "inf", "from": "v"}]}
        )
    )
    bpath.write_text(json.dumps({"v": "neumann"}))
    assert main(["spectrum", "--graph", str(gpath), "--bc", str(bpath)]) == 2


def test_spectrum_residual_gate_is_check_failure(tmp_path, capsys, monkeypatch):
    from metricgraph import fem

    def failing_gate(fa, k):
        raise fem.ResidualCheckFailed("eigen residual 1.000e+00 exceeds 1e-08 * ||M||")

    monkeypatch.setattr(fem, "eigensystem", failing_gate)
    g, b = write_interval(tmp_path)
    code = main(["spectrum", "--graph", g, "--bc", b, "--mesh", "0.05", "--modes", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: eigen residual") and "Traceback" not in err


def test_rank_anomaly_is_check_failure(tmp_path, capsys, monkeypatch):
    from metricgraph import secular

    # every null vector now fails the verbatim vertex conditions, so the real
    # eigenfunction code raises its rank anomaly on valid input
    monkeypatch.setattr(secular.SecularSolution, "vertex_residual", lambda self, bc, relative=False: 1.0)
    g, b = write_interval(tmp_path)
    code = main(["expansion", "--graph", g, "--bc", b, "--mesh", "0.05", "--modes", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: rank anomaly") and "Traceback" not in err


def test_lp_mixing_rank_anomaly_is_check_failure(tmp_path, capsys):
    # no monkeypatch: the constant null vector at lambda = 0 breaks P L f(c) = 0
    g, bc = lp_mixing_star(0.3)
    L, P = bc.conditions["c"]
    gpath, bpath = tmp_path / "g.json", tmp_path / "bc.json"
    gpath.write_text(json.dumps(graph_to_dict(g)))
    centre = {"L": L.real.tolist(), "P": P.real.tolist()}
    bpath.write_text(json.dumps({**{v: "kirchhoff" for v in g.vertices}, "c": centre}))
    code = main(["expansion", "--graph", str(gpath), "--bc", str(bpath), "--mesh", "0.05", "--modes", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: rank anomaly") and "('c',)" in err and "Traceback" not in err


@pytest.mark.parametrize("alpha", [-400.0, -1000.0])
def test_deep_robin_past_the_cosh_overflow(tmp_path, alpha):
    # the window start doubles until the count is 0, down past the bound state
    # near -alpha^2, where cosh(sqrt(-lambda) l) of a unit edge is about e^alpha;
    # a separate process, so no warning filter of the test session hides what
    # numpy would print to stderr
    g, b = write_interval(tmp_path, length=1.0, bc=({"delta": alpha}, "dirichlet"))
    env = {**os.environ, "PYTHONPATH": str(Path(metricgraph.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "metricgraph.cli", "expansion", "--graph", g, "--bc", b,
         "--modes", "2", "--mesh", "0.05"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    k = brentq(lambda k: k / math.tanh(k) + alpha, 1.0, 1e4)  # the bound state sinh(k (1 - t)) has k coth k = -alpha
    report = json.loads(proc.stdout, parse_constant=_reject_non_finite)
    assert report["per_mode"][0]["lambda"] == pytest.approx(-k * k, rel=1e-12)


def _run_clean(tmp_path, capsys, graph, bc, argv):
    """Run one command on the given graph and condition dicts; it must exit 0 with nothing on stderr."""
    gpath, bpath = tmp_path / "g.json", tmp_path / "bc.json"
    gpath.write_text(json.dumps(graph))
    bpath.write_text(json.dumps(bc))
    code = main([argv[0], "--graph", str(gpath), "--bc", str(bpath), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == "", captured.err
    return json.loads(captured.out, parse_constant=_reject_non_finite)


def _loops(n):
    """n unit loops at one Kirchhoff vertex."""
    edges = [{"id": f"a{i}", "length": 1.0, "from": "v", "to": "v"} for i in range(n)]
    return {"u": 1.0, "vertices": ["v"], "edges": edges}, {"v": "kirchhoff"}


def _interval(length, a, b):
    return {"u": 1.0, "vertices": ["v", "w"], "edges": [{"id": "e", "length": length, "from": "v", "to": "w"}]}, {"v": a, "w": b}


@pytest.mark.parametrize("alpha", [-20.0, -30.0, -100.0, -200.0])
def test_deep_robin_bound_state(tmp_path, capsys, alpha):
    # the bound state sinh(k (1 - t)) has k coth k = -alpha
    report = _run_clean(tmp_path, capsys, *_interval(1.0, {"delta": alpha}, "dirichlet"), ["expansion", "--modes", "2", "--mesh", "0.05"])
    k = brentq(lambda k: k / math.tanh(k) + alpha, 1.0, 1e3)
    assert report["per_mode"][0]["lambda"] == pytest.approx(-k * k, rel=1e-12)


@pytest.mark.parametrize("n_loops, mult", [(1, 2), (2, 3)], ids=["circle", "two-loops"])
def test_equal_loops_at_a_kirchhoff_vertex(tmp_path, capsys, n_loops, mult):
    # (2 pi)^2 takes a cosine and a sine on the circle, and on two loops also the
    # sine of each loop that is odd about the vertex
    modes, mesh = (3, "0.005") if n_loops == 1 else (5, "0.01")
    report = _run_clean(tmp_path, capsys, *_loops(n_loops), ["spectrum", "--modes", str(modes), "--mesh", mesh])
    levels = {round(m["lambda"], 6): m["multiplicity"] for m in report["multiplicities"]}
    assert levels[round(4 * math.pi**2, 6)] == mult
    if n_loops == 1:
        assert list(levels.values()) == [1, 2] and abs(report["multiplicities"][0]["lambda"]) < 1e-12
    _run_clean(tmp_path, capsys, *_loops(n_loops), ["expansion", "--modes", "8", "--mesh", "0.01"])


@pytest.mark.parametrize(
    "rays",
    [
        [1.0, 1.0 + 5e-7, 2.0],
        [1.0, 1.0, 2.0 / (math.sqrt(5.0) - 1.0)],
        [1.0, 1.0 + 1e-9, 2.0],
        [1.0, 1.0, 2.0 / (math.sqrt(5.0) - 1.0), 1.0 / (math.sqrt(2.0) - 1.0)],
    ],
    ids=["nearly-equal", "golden-ratio", "close-roots", "both-cuts-resonate"],
)
def test_star_with_nearly_equal_rays(tmp_path, capsys, rays):
    # rays 1 and 1 + 5e-7 put two decoupled energies in one pole band, with a
    # root between them; on rays 1, 1 and 1 / GOLDEN the golden cut of the last
    # ray is a piece of length 1, resonant at the double pole pi^2.  Rays 1 and
    # 1 + 1e-9 give two roots closer than SINGULAR_RTOL, which the count's
    # multiplicities part; on the last star the golden and the silver cut each
    # leave a piece of length 1 on some ray, so each ray takes its own cut
    tips = [f"t{i}" for i in range(1, len(rays) + 1)]
    edges = [{"id": f"e{t}", "length": l, "from": "c", "to": t} for t, l in zip(tips, rays)]
    graph, bc = {"u": 1.0, "vertices": ["c", *tips], "edges": edges}, {"c": "kirchhoff", **{t: "dirichlet" for t in tips}}
    report = _run_clean(tmp_path, capsys, graph, bc, ["spectrum", "--modes", "6", "--mesh", "0.02"])
    got = [(m["lambda"], m["multiplicity"]) for m in report["multiplicities"]]
    want = dirichlet_star_roots(rays, got[-1][0] * (1 + 1e-9))
    assert [m for _, m in got] == [m for _, m in want]
    assert np.allclose([lam for lam, _ in got], [lam for lam, _ in want], rtol=1e-12, atol=0)
    report = _run_clean(tmp_path, capsys, graph, bc, ["expansion", "--modes", "6", "--mesh", "0.02"])
    want = [lam for lam, m in want for _ in range(m)][:6]
    assert np.allclose([m["lambda"] for m in report["per_mode"]], want, rtol=1e-12, atol=0)


def test_strong_robin_end(tmp_path, capsys):
    # f = sin(w (pi - t)) meets f'(0) = alpha f(0) where w cos(w pi) + alpha sin(w pi) = 0, just below w = n
    alpha = 1e6
    graph, bc = _interval(math.pi, {"delta": alpha}, "dirichlet")
    want = [brentq(lambda w: w * math.cos(w * math.pi) + alpha * math.sin(w * math.pi), n - 0.5, n) ** 2 for n in (1, 2)]
    report = _run_clean(tmp_path, capsys, graph, bc, ["spectrum", "--modes", "2", "--mesh", "0.05"])
    assert np.allclose([p["secular"] for p in report["eigenvalues"]], want, rtol=1e-11, atol=0)
    report = _run_clean(tmp_path, capsys, graph, bc, ["expansion", "--modes", "2", "--mesh", "0.05"])
    assert np.allclose([m["lambda"] for m in report["per_mode"]], want, rtol=1e-11, atol=0)


@pytest.mark.parametrize("command", ["spectrum", "expansion"])
def test_long_edges_scan_from_a_certified_window(tmp_path, capsys, command):
    # on an edge 800 long the window starts at -1/800^2, far above the overflow of cosh
    g, b = write_interval(tmp_path, length=800.0, bc=("neumann", "neumann"))
    code = main([command, "--graph", g, "--bc", b, "--modes", "2", "--mesh", "1"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    report = json.loads(captured.out, parse_constant=_reject_non_finite)
    pairs = report["eigenvalues"] if command == "spectrum" else report["per_mode"]
    lams = [p["secular" if command == "spectrum" else "lambda"] for p in pairs]
    assert np.allclose(lams, [0.0, (math.pi / 800.0) ** 2], rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize(
    "flags",
    [["--hs-c", "0"], ["--hs-c", "-0.5"], ["--hs-c", "nan"], ["--tol", "nan"]],
    ids=["hs-c-zero", "hs-c-negative", "hs-c-nan", "tol-nan"],
)
def test_non_finite_or_unbounded_input_is_a_usage_error(tmp_path, flags):
    # C <= 0 makes the HS tail infinite and a NaN flag would reach the
    # report; both are unusable input, and no report may hold NaN/Infinity
    g, b = write_interval(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(metricgraph.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "metricgraph.cli", "expansion", "--graph", g, "--bc", b,
         "--mesh", "0.05", "--modes", "2", *flags],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("alpha", [1e8, 1e12])
def test_strong_robin_end_passes_the_relative_vertex_gate(tmp_path, capsys, alpha):
    # f'(v) = alpha f(v): the null vectors' vertex residual is about 4e-9 ||L||
    # at alpha = 1e8, so the gate of eigenfunction scales with max_v ||L_v||
    g, b = write_interval(tmp_path, bc=({"delta": alpha}, "dirichlet"))
    code, report = run_and_parse(capsys, ["expansion", "--graph", g, "--bc", b, "--mesh", "0.05", "--modes", "2"])
    assert code == 0 and report["modes"] == 2


@pytest.mark.parametrize("command", ["spectrum", "potential"])
def test_arpack_no_convergence_is_check_failure(tmp_path, capsys, monkeypatch, command):
    import scipy.sparse.linalg

    def not_converging(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", not_converging)
    g, b = write_interval(tmp_path)
    argv = [command, "--graph", g, "--bc", b, "--mesh", "0.05", "--modes", "3"]
    if command == "potential":
        argv += ["--potential", "const:1.0"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "No convergence" in err and "Traceback" not in err


def write_strong_delta_star(tmp_path):
    """5-ray star, attractive delta(-12.5) at the centre: S = 2.5, C = 100.5."""
    gpath = tmp_path / "g.json"
    bpath = tmp_path / "bc.json"
    lengths = [1.0, 1.1, 1.2, 1.3, 1.4]
    gpath.write_text(json.dumps({
        "u": 1.0,
        "vertices": ["c"] + [f"t{i}" for i in range(5)],
        "edges": [{"id": f"e{i}", "length": l, "from": "c", "to": f"t{i}"} for i, l in enumerate(lengths)],
    }))
    bpath.write_text(json.dumps({"c": {"delta": -12.5}, **{f"t{i}": "dirichlet" for i in range(5)}}))
    return str(gpath), str(bpath)


def test_default_window_resolves_large_s_star(tmp_path, capsys):
    # the scan window starts where the count is 0, below the bound state of
    # the attractive delta, and ends where it is at least --modes
    g, b = write_strong_delta_star(tmp_path)
    code, report = run_and_parse(capsys, ["expansion", "--graph", g, "--bc", b, "--mesh", "0.05", "--modes", "4"])
    assert code == 0
    lams = [m["lambda"] for m in report["per_mode"]]
    assert report["modes"] == 4 and lams[0] < 0 < lams[1]


SEED1_STARS = json.loads((Path(__file__).resolve().parent / "data" / "star_expansion_seed1.json").read_text())


@pytest.mark.parametrize("op", sorted(SEED1_STARS))
def test_default_window_keeps_roots_of_large_c_stars(tmp_path, capsys, op):
    # C = 58.1 and 102.2: the roots 0.4627 (op2), 0.4049 and 1.1493 (op3)
    # come from the count, whatever the coercivity constant
    gpath, bpath = tmp_path / "g.json", tmp_path / "bc.json"
    gpath.write_text(json.dumps(SEED1_STARS[op]["graph"]))
    bpath.write_text(json.dumps(SEED1_STARS[op]["bc"]))
    code, report = run_and_parse(capsys, ["spectrum", "--graph", str(gpath), "--bc", str(bpath), "--mesh", "0.02", "--modes", "6"])
    assert code == 0 and report["within_budget"]
    assert report["max_disagreement"] < 2e-3


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about 0.2 s and 18 MB at import
    env = {**os.environ, "PYTHONPATH": str(Path(metricgraph.__file__).parents[1])}
    code = "import sys, metricgraph.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["graph", "boundary", "functions", "secular", "expansion"])
def test_scipy_free_modules_import_no_scipy(module):
    # the secular and expansion paths need numpy alone; fem and potentials carry scipy
    tree = ast.parse((Path(metricgraph.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
    scipy_imports = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"
    ]
    assert scipy_imports == []


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in Path(metricgraph.__file__).parent.glob("*.py") if p.stem != "__init__")
)
def test_modules_use_every_name_they_import(module):
    # __init__ imports to re-export; every other module imports only what it uses
    tree = ast.parse((Path(metricgraph.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------


def test_expansion_report_interval(tmp_path, capsys):
    g, b = write_interval(tmp_path)
    code, report = run_and_parse(
        capsys,
        ["expansion", "--graph", g, "--bc", b, "--mesh", "0.00785", "--modes", "8", "--hs-c", "1.0",
         "--weight-base", "v", "--seed", "3"],
    )
    assert code == 0
    jsonschema.validate(report, load_schema("expansion"))
    assert report["worst_genef_residual"] < 1e-6
    for block in report["parseval"].values():
        assert block["relative_gap"] < 1e-4 or block["gap"] < 1e-6


def test_expansion_check_file_flags_kink(tmp_path, capsys):
    from metricgraph import GridFunction, load_graph, save_function_csv

    g, b = write_interval(tmp_path)
    graph = load_graph(g)
    h = 0.02
    # cos(t) solves the equation at lambda=1 but breaks both Dirichlet ends
    phi = GridFunction.from_callable(graph, h, lambda eid, ts: np.cos(ts).astype(complex))
    check = tmp_path / "phi.csv"
    save_function_csv(phi, check)
    code, report = run_and_parse(
        capsys,
        ["expansion", "--graph", g, "--bc", b, "--mesh", "0.02", "--modes", "4",
         "--check-file", str(check), "--check-lambda", "1.0"],
    )
    assert code == 1
    assert report["check_file"]["residual"] > 1e-2


def _failing_run(tmp_path, kind):
    """argv of a run on which one check fails: the key of that check in the report, and the argv."""
    g, b = write_interval(tmp_path, length=0.5) if kind == "validate" else write_interval(tmp_path)
    if kind == "validate":  # the edge is shorter than u
        return "graph.violations", ["validate", "--graph", g, "--bc", b]
    if kind == "spectrum":  # the P1 error at lambda = 121 exceeds the budget 10 h^2 lambda
        return "eigenvalues[10].diff", ["spectrum", "--graph", g, "--bc", b, "--modes", "11", "--mesh", "0.05"]
    if kind == "potential":  # with _shift_mutation: the perturbed solve misses the shift of V = 1 by 1e-6
        return "constant_shift_error", [
            "potential", "--graph", g, "--bc", b, "--potential", "const:1", "--modes", "2", "--mesh", "0.05"
        ]
    from metricgraph import GridFunction, load_graph, save_function_csv

    # cos(t) solves the equation at lambda=1 but breaks both Dirichlet ends
    phi = GridFunction.from_callable(load_graph(g), 0.05, lambda eid, ts: np.cos(ts).astype(complex))
    save_function_csv(phi, tmp_path / "phi.csv")
    return "worst_genef_residual", [
        "expansion", "--graph", g, "--bc", b, "--mesh", "0.05", "--modes", "2",
        "--check-file", str(tmp_path / "phi.csv"), "--check-lambda", "1.0",
    ]


@pytest.mark.parametrize("kind", ["validate", "spectrum", "expansion", "potential"])
def test_a_failed_check_prints_one_line(tmp_path, capsys, monkeypatch, kind):
    # exit 1 names the failed check on stderr; the report on stdout is unchanged
    key, argv = _failing_run(tmp_path, kind)
    if kind == "potential":
        _shift_mutation(monkeypatch, 1.0)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and json.loads(captured.out)
    assert re.fullmatch(rf"check failed: {re.escape(key)}: \S+ against \S+\n", captured.err), captured.err


def test_weight_base_accepts_edge_endpoints(tmp_path, capsys):
    # e:0 is vertex v; only the echoed base differs from the vertex report
    g, b = write_interval(tmp_path)
    common = ["expansion", "--graph", g, "--bc", b, "--mesh", "0.05", "--modes", "3", "--weight-base"]
    reports = {}
    for base in ("e:0", "v"):
        code, reports[base] = run_and_parse(capsys, common + [base])
        assert code == 0
    assert reports["e:0"]["weight"].pop("base") == "e:0"
    assert reports["v"]["weight"].pop("base") == "v"
    assert reports["e:0"] == reports["v"]
    assert main(common + ["e:5"]) == 2
    assert "outside [0, " in capsys.readouterr().err


def write_lp_scaled_star(tmp_path):
    """3-star, Dirichlet tips; at the centre P = 1 - q q^T (q the unit constant
    vector) and L = -200 q q^T + 1.5e-8 (p q^T + q p^T) with p orthogonal to q.
    ||P L q|| = 1.5e-8 is below lp-mixing's 1e-10 max(1, ||L||), so the
    kernel datum q is accepted and its star test has residual 1.5e-8."""
    q = np.ones(3) / math.sqrt(3.0)
    p = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    P = np.eye(3) - np.outer(q, q)
    L = -200.0 * np.outer(q, q) + 1.5e-8 * (np.outer(p, q) + np.outer(q, p))
    gpath, bpath = tmp_path / "g.json", tmp_path / "bc.json"
    rays = [{"id": f"e{i}", "length": 1.1 + 0.1 * i, "from": "c", "to": f"t{i}"} for i in range(3)]
    gpath.write_text(json.dumps({"u": 1.0, "vertices": ["c", "t0", "t1", "t2"], "edges": rays}))
    tips = {f"t{i}": "dirichlet" for i in range(3)}
    bpath.write_text(json.dumps({"c": {"L": L.tolist(), "P": P.tolist()}, **tips}))
    return str(gpath), str(bpath)


def test_battery_tolerance_scales_with_l(tmp_path, capsys):
    g, b = write_lp_scaled_star(tmp_path)
    code, report = run_and_parse(capsys, ["validate", "--graph", g, "--bc", b])
    assert code == 0 and report["boundary"]["violations"] == []
    code, report = run_and_parse(capsys, ["expansion", "--graph", g, "--bc", b, "--modes", "3"])
    assert code == 0 and report["worst_genef_residual"] < 1e-9
    argv = ["potential", "--graph", g, "--bc", b, "--potential", "const:1", "--modes", "3"]
    assert main(argv) == 0


def test_expansion_disconnected_graph_is_input_error(tmp_path):
    gpath = tmp_path / "g.json"
    bpath = tmp_path / "bc.json"
    gpath.write_text(
        json.dumps(
            {
                "u": 1.0,
                "vertices": ["a", "b", "c", "d"],
                "edges": [
                    {"id": "e1", "length": 1.0, "from": "a", "to": "b"},
                    {"id": "e2", "length": 1.0, "from": "c", "to": "d"},
                ],
            }
        )
    )
    bpath.write_text(json.dumps({v: "neumann" for v in "abcd"}))
    assert main(
        ["expansion", "--graph", str(gpath), "--bc", str(bpath), "--modes", "3"]
    ) == 2


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------


def test_potential_constant_shift(tmp_path, capsys):
    g, b = write_interval(tmp_path)
    code, report = run_and_parse(
        capsys,
        ["potential", "--graph", g, "--bc", b, "--potential", "const:1.0",
         "--mesh", "0.0157", "--modes", "5"],
    )
    assert code == 0
    jsonschema.validate(report, load_schema("potential"))
    assert report["constant_shift_error"] < 1e-8
    assert report["m_v"]["value"] == pytest.approx(math.sqrt(2.0), rel=1e-9)
    for block in report["relative_bound"]:
        assert block["worst_margin"] >= -1e-8


def test_singular_factor_is_lowered_and_its_shift_gated_relative_to_c(tmp_path, capsys):
    # V = 1e30 swamps the stiffness, and the first shift of the perturbed
    # solve rounds to a singular pencil: the certificate lowers it, and the
    # constant-shift error, far above 1e-8 but a few ulps of c, passes the
    # gate's rounding bound 1e-8 + 16 max(dim, 4) eps max(|c|, |lambda|)
    g, b = write_interval(tmp_path)
    argv = ["potential", "--graph", g, "--bc", b, "--potential", "const:1e30", "--modes", "2", "--mesh", "0.05"]
    code, report = run_and_parse(capsys, argv)
    assert code == 0
    assert 1e-8 < report["constant_shift_error"] < 1e-14 * 1e30  # about 9 ulps of c


def _shift_mutation(monkeypatch, c):
    """Make the perturbed solve (the one with a potential term) miss the shift c by 1e-6 c on its lowest mode."""
    from dataclasses import replace

    from metricgraph import fem

    solve = fem.eigensystem

    def mutated(fa, k):
        es = solve(fa, k)
        if fa.potential_term is None:
            return es
        return replace(es, eigenvalues=es.eigenvalues + np.r_[1e-6 * c, np.zeros(k - 1)])

    monkeypatch.setattr(fem, "eigensystem", mutated)


@pytest.mark.parametrize("c", [10.0**p for p in range(0, 13, 2)])
def test_constant_shift_gate_is_relative_to_c(tmp_path, capsys, monkeypatch, c):
    # the solves are right for every c; the error grows like eps c, which an absolute 1e-8 failed from c = 1e8
    g, b = write_interval(tmp_path, length=1.0)
    argv = ["potential", "--graph", g, "--bc", b, "--potential", f"const:{c!r}", "--modes", "3"]
    code, report = run_and_parse(capsys, argv)
    assert code == 0, report["constant_shift_error"]
    if c in (1.0, 1e8):  # a shift missed by 1e-6 c still fails
        _shift_mutation(monkeypatch, c)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"check failed: constant_shift_error: \S+ against \S+\n", err), err


def test_non_finite_m_v_is_input_error(tmp_path, capsys):
    g, b = write_interval(tmp_path)
    argv = ["potential", "--graph", g, "--bc", b, "--potential", "const:1e160", "--modes", "2", "--mesh", "0.05"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: the potential's uniform local L2 norm M_V is not finite" in captured.err


def test_non_finite_m_v_prints_one_error_line(tmp_path):
    # a separate process, so no warning filter of the test session hides
    # what numpy would print to stderr
    g, b = write_interval(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(metricgraph.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "metricgraph.cli", "potential", "--graph", g, "--bc", b,
         "--potential", "const:1e160", "--modes", "2", "--mesh", "0.05"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_well_m_v_is_the_exact_window_maximum(tmp_path, capsys):
    # V = -1 on [0.35, 2.35] fills exactly one window of length 2u = 2,
    # whose start lies off every multiple of u/10
    g, b = write_interval(tmp_path, length=3.0)
    code, report = run_and_parse(
        capsys,
        ["potential", "--graph", g, "--bc", b, "--potential", "well:e,0.35,2.35,1.0",
         "--mesh", "0.01", "--modes", "3"],
    )
    assert code == 0
    assert report["m_v"]["value"] == pytest.approx(math.sqrt(2.0), rel=0.0, abs=1e-12)
    seg = report["m_v"]["segment"]
    assert (seg["t0"], seg["t1"]) == pytest.approx((0.35, 2.35), rel=0.0, abs=1e-9)


def test_potential_zero_reduces_to_unperturbed(tmp_path, capsys):
    g, b = write_interval(tmp_path)
    code, report = run_and_parse(
        capsys,
        ["potential", "--graph", g, "--bc", b, "--potential", "const:0.0",
         "--mesh", "0.02", "--modes", "4"],
    )
    assert code == 0
    assert report["m_v"]["value"] == 0.0
    assert report["spectrum"]["perturbed"] == report["spectrum"]["unperturbed"]


def test_potential_well_report(tmp_path, capsys):
    g, b = write_interval(tmp_path)
    code, report = run_and_parse(
        capsys,
        ["potential", "--graph", g, "--bc", b, "--potential", "well:e,1.0,2.0,4.0",
         "--mesh", "0.02", "--modes", "4"],
    )
    assert code == 0
    seg = report["m_v"]["segment"]
    assert seg["t0"] <= 1.0 and seg["t1"] >= 2.0  # the achieving window covers the well
    # an attractive well pulls eigenvalues down
    assert all(
        p <= u + 1e-9
        for p, u in zip(report["spectrum"]["perturbed"], report["spectrum"]["unperturbed"])
    )


def test_potential_csv_mesh_mismatch_is_input_error(tmp_path):
    from metricgraph import Potential, load_graph, save_potential_csv

    g, b = write_interval(tmp_path)
    graph = load_graph(g)
    V = Potential.constant(graph, 0.05, 1.0)
    vpath = tmp_path / "V.csv"
    save_potential_csv(V, vpath)
    assert main(
        ["potential", "--graph", g, "--bc", b, "--potential", str(vpath), "--mesh", "0.02"]
    ) == 2


@pytest.mark.parametrize("content", ["", "edge_id,t,value\ne,0.0\n"], ids=["empty", "short-row"])
def test_potential_csv_defects_are_input_errors(tmp_path, capsys, content):
    g, b = write_interval(tmp_path)
    vpath = tmp_path / "short.csv"
    vpath.write_text(content)
    code = main(["potential", "--graph", g, "--bc", b, "--potential", str(vpath), "--mesh", "0.05", "--modes", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: potential CSV") and "Traceback" not in err


@pytest.mark.parametrize("content", ["", "edge_id,t,re,im\ne,0.0,1.0\n"], ids=["empty", "short-row"])
def test_check_file_defects_are_input_errors(tmp_path, capsys, content):
    g, b = write_interval(tmp_path)
    fpath = tmp_path / "short.csv"
    fpath.write_text(content)
    code = main(["expansion", "--graph", g, "--bc", b, "--mesh", "0.05", "--modes", "2",
                 "--check-file", str(fpath), "--check-lambda", "1.0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: function CSV") and "Traceback" not in err


@pytest.mark.parametrize("kind", ["potential", "function"])
def test_csv_rows_for_unknown_edges_are_input_errors(tmp_path, capsys, kind):
    from metricgraph import GridFunction, Potential, load_graph, save_function_csv, save_potential_csv

    g, b = write_interval(tmp_path)
    graph = load_graph(g)
    path = tmp_path / "f.csv"
    if kind == "potential":
        save_potential_csv(Potential.constant(graph, 0.05, 1.0), path)
        argv, extra = ["potential", "--potential", str(path), "--modes", "3"], "zzz,0.0,9.0\n"
    else:
        save_function_csv(GridFunction.ones(graph, 0.05), path)
        argv = ["expansion", "--modes", "2",
                "--check-file", str(path), "--check-lambda", "1.0"]
        extra = "zzz,0.0,9.0,0.0\n"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(extra)
    code = main(argv + ["--graph", g, "--bc", b, "--mesh", "0.05"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {kind} CSV") and "'zzz'" in err and "Traceback" not in err


def write_grid4(tmp_path):
    """4x4 Kirchhoff lattice, 24 edges with lengths in [1, 1.4]."""
    rng = np.random.default_rng(11)
    vid = [[f"v{r}{c}" for c in range(4)] for r in range(4)]
    pairs = [(vid[r][c], vid[r][c + 1]) for r in range(4) for c in range(3)]
    pairs += [(vid[r][c], vid[r + 1][c]) for r in range(3) for c in range(4)]
    edges = [{"id": f"e{k:02d}", "length": float(rng.uniform(1.0, 1.4)), "from": a, "to": b}
             for k, (a, b) in enumerate(pairs)]
    gpath, bpath = tmp_path / "g.json", tmp_path / "bc.json"
    gpath.write_text(json.dumps({"u": 1.0, "vertices": [v for row in vid for v in row], "edges": edges}))
    bpath.write_text(json.dumps({v: "kirchhoff" for row in vid for v in row}))
    return str(gpath), str(bpath), len(edges)


def test_potential_builds_few_edge_grids(tmp_path, capsys, monkeypatch):
    # the potential, the assembly and the battery's cuts share per-edge grids
    # through their meshes instead of rebuilding them per call
    import sys

    from metricgraph import functions

    original, calls = functions.edge_grid, []
    for name, mod in list(sys.modules.items()):  # every binding site of the name
        if name == "metricgraph" or name.startswith("metricgraph."):
            for key, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, key, lambda *a: calls.append(a) or original(*a))
    g, b, n_edges = write_grid4(tmp_path)
    code = main(["potential", "--graph", g, "--bc", b, "--potential", "well:e05,0.2,0.8,3.0",
                 "--mesh", "0.02", "--modes", "4"])
    capsys.readouterr()
    assert code == 0
    assert len(calls) <= 4 * n_edges


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------

KEPT_FLAGS = {
    "validate": ["--graph", "--bc", "--out"],
    "spectrum": ["--graph", "--bc", "--out", "--mesh", "--modes"],
    "expansion": ["--graph", "--bc", "--out", "--mesh", "--modes",
                  "--tol", "--seed", "--weight-eps", "--weight-base", "--hs-c", "--check-file", "--check-lambda"],
    "potential": ["--graph", "--bc", "--out", "--mesh", "--modes", "--potential"],
}
UNREAD_FLAGS = [
    *(("validate", f) for f in ["--mesh", "--lambda-min", "--lambda-max", "--modes", "--tol", "--seed",
                                "--scan-points", "--samples"]),
    *(("spectrum", f) for f in ["--lambda-min", "--lambda-max", "--scan-points", "--tol", "--seed", "--samples"]),
    *(("expansion", f) for f in ["--lambda-min", "--lambda-max", "--scan-points", "--samples"]),
    *(("potential", f) for f in ["--lambda-min", "--lambda-max", "--scan-points", "--tol", "--samples", "--seed"]),
]


@pytest.mark.parametrize("command", KEPT_FLAGS)
def test_each_command_offers_only_the_flags_it_reads(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    offered = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert offered == set(KEPT_FLAGS[command])


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
def test_unread_flags_are_usage_errors(tmp_path, capsys, command, flag):
    g, b = write_interval(tmp_path)
    argv = [command, "--graph", g, "--bc", b, flag, "1"]
    if command == "potential":
        argv += ["--potential", "const:1.0"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_check_lambda_needs_check_file(tmp_path, capsys):
    g, b = write_interval(tmp_path)
    argv = ["expansion", "--graph", g, "--bc", b, "--mesh", "0.05", "--modes", "2", "--check-lambda", "1.0"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --check-lambda needs --check-file\n"


@pytest.mark.parametrize("command,value", [("spectrum", "0"), ("expansion", "-1"), ("potential", "0")])
def test_modes_below_one_names_the_flag(tmp_path, capsys, command, value):
    g, b = write_interval(tmp_path)
    argv = [command, "--graph", g, "--bc", b, "--mesh", "0.05", "--modes", value]
    if command == "potential":
        argv += ["--potential", "const:1.0"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument --modes: must be at least 1, got {value}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv_tail",
    [
        ["validate"],
        ["spectrum", "--mesh", "0.05", "--modes", "4"],
        ["expansion", "--mesh", "0.05", "--modes", "4",
         "--seed", "7", "--weight-base", "v"],
        ["potential", "--potential", "const:0.5", "--mesh", "0.05", "--modes", "4"],
    ],
)
def test_reports_are_byte_identical(tmp_path, capsys, argv_tail):
    g, b = write_interval(tmp_path)
    cmd = argv_tail[0]
    outputs = []
    for run in (1, 2):
        outdir = tmp_path / f"run{run}"
        argv = [cmd, "--graph", g, "--bc", b, *argv_tail[1:], "--out", str(outdir)]
        assert main(argv) == 0
        capsys.readouterr()
        outputs.append((outdir / f"{cmd}.json").read_bytes())
    assert outputs[0] == outputs[1]
