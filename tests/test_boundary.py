import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricgraph import (
    BoundaryCondition,
    bc_from_mapping,
    coercivity_constant,
    load_bc,
    positive_part_norm,
    preset,
    standard_test_battery,
    uniform_bc,
    validate_bc,
)
from metricgraph.secular import SecularSystem

from conftest import interval_graph, lp_mixing_star, star_graph


def test_validate_rank_one_projection_zero_l():
    g = interval_graph(2.0)
    # vertex "v" and "w" both have degree 1 here; use a 2-path for a degree-2 vertex
    from conftest import path_graph

    g = path_graph(2)
    P = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    L = np.zeros((2, 2), dtype=complex)
    one = np.eye(1, dtype=complex)
    bc = BoundaryCondition({0: (np.zeros((1, 1)), one), 1: (L, P), 2: (np.zeros((1, 1)), one)})
    violations, S = validate_bc(g, bc)
    assert violations == [] and S == 0.0


def test_swap_matrix_positive_part():
    # eigenvalues of [[0,1],[1,0]] are +-1, so the positive part has norm 1
    L = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert positive_part_norm(L) == pytest.approx(1.0)
    from conftest import path_graph

    g = path_graph(2)
    bc = BoundaryCondition(
        {
            0: preset("dirichlet", g.star(0)),
            1: (L, np.zeros((2, 2), dtype=complex)),
            2: preset("dirichlet", g.star(2)),
        }
    )
    violations, S = validate_bc(g, bc)
    assert violations == [] and S == pytest.approx(1.0)


def test_non_idempotent_projection_flagged():
    g = interval_graph(2.0)
    bad = np.array([[1.0, 0.0], [0.0, 0.5]])[:1, :1]  # degree-1 vertex: use scalar 0.5
    bc = BoundaryCondition(
        {
            "v": (np.zeros((1, 1)), np.array([[0.5]], dtype=complex)),
            "w": preset("dirichlet", g.star("w")),
        }
    )
    violations, _ = validate_bc(g, bc)
    assert any(v.code == "P-idempotent" for v in violations)


def test_non_hermitian_l_flagged():
    from conftest import path_graph

    g = path_graph(2)
    L = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    bc = BoundaryCondition(
        {
            0: preset("dirichlet", g.star(0)),
            1: (L, np.zeros((2, 2), dtype=complex)),
            2: preset("dirichlet", g.star(2)),
        }
    )
    violations, _ = validate_bc(g, bc)
    assert any(v.code == "L-selfadjoint" for v in violations)


def test_size_mismatch_is_input_error():
    g = star_graph(3)
    bc = BoundaryCondition(
        {v: (np.zeros((1, 1)), np.zeros((1, 1))) for v in g.vertices}
    )
    with pytest.raises(ValueError):
        validate_bc(g, bc)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(0, 10_000))
def test_positive_part_matches_eigendecomposition(d, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    L = 0.5 * (A + A.conj().T)
    w, V = np.linalg.eigh(L)
    Lplus = (V * np.maximum(w, 0.0)) @ V.conj().T
    expected = float(np.linalg.norm(Lplus, 2))
    assert positive_part_norm(L) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_kirchhoff_degree_one_is_free_end():
    g = interval_graph(2.0)
    L, P = preset("kirchhoff", g.star("v"))
    assert np.allclose(L, 0) and np.allclose(P, 0)


def test_delta_degree_one_is_robin():
    g = interval_graph(2.0)
    L, P = preset("delta", g.star("v"), 3.0)
    assert np.allclose(P, 0)
    assert np.allclose(L, [[-3.0]])


def test_dirichlet_identity_projection():
    g = star_graph(3)
    L, P = preset("dirichlet", g.star("c"))
    assert np.allclose(P, np.eye(3)) and np.allclose(L, 0)


def test_delta_zero_equals_kirchhoff():
    g = star_graph(4)
    Lk, Pk = preset("kirchhoff", g.star("c"))
    Ld, Pd = preset("delta", g.star("c"), 0.0)
    assert np.array_equal(Lk, Ld) and np.array_equal(Pk, Pd)


@pytest.mark.parametrize("kind,alpha", [("dirichlet", None), ("neumann", None), ("kirchhoff", None), ("delta", 1.5), ("delta", -2.0)])
def test_presets_validate_cleanly(kind, alpha):
    g = star_graph(3)
    bc = BoundaryCondition({v: preset(kind, g.star(v), alpha) for v in g.vertices})
    violations, S = validate_bc(g, bc)
    assert violations == []
    if kind == "delta" and alpha is not None and alpha < 0:
        # the preset sits at every vertex; degree-1 tips dominate with |alpha|
        assert S == pytest.approx(-alpha)


def test_attractive_delta_s_value():
    g = star_graph(3)
    bc = BoundaryCondition(
        {
            "c": preset("delta", g.star("c"), -30.0),
            **{f"t{i}": preset("kirchhoff", g.star(f"t{i}")) for i in (1, 2, 3)},
        }
    )
    _, S = validate_bc(g, bc)
    assert S == pytest.approx(10.0)


@pytest.mark.parametrize("eps", [1e-13, 1e-11, 1e-9])
def test_lp_mixing_is_one_predicate(eps):
    # Kirchhoff 3-star whose centre L maps the constants (ker P) into ran P
    # with ||P L (1 - P)|| = eps: the validator's warning, the secular
    # solver's anomaly vertices and the battery's kernel tests follow the same rule
    g, mixed = lp_mixing_star(eps)
    warned = any(v.code == "lp-mixing" and v.subject == "c" for v in validate_bc(g, mixed)[0])
    anomaly = "c" in SecularSystem(g, mixed).anomaly_vertices
    star_tests = [t for t in standard_test_battery(g, mixed) if t.label.startswith("star:c")]
    dropped = len(star_tests) < 3  # one continuity datum + two flux-free data
    assert warned == anomaly == dropped == (eps > 1e-10)


def test_condition_is_read_only():
    # a compile cached on the condition (secular.compiled) cannot go stale
    g = star_graph(3)
    L = np.zeros((3, 3))
    bc = BoundaryCondition({"c": (L, np.eye(3) - np.ones((3, 3)) / 3), **uniform_bc(g, "neumann").conditions})
    L[0, 0] = 1.0  # the condition holds its own copy
    assert not np.any(bc.L("c"))
    with pytest.raises(ValueError):
        bc.L("c")[0, 0] = 1.0
    with pytest.raises(ValueError):
        bc.P("t1")[0, 0] = 1.0
    with pytest.raises(TypeError):
        bc.conditions["c"] = (np.ones((3, 3)), np.eye(3))
    assert bc != BoundaryCondition(bc.conditions)  # compared by identity


# ---------------------------------------------------------------------------
# coercivity constant
# ---------------------------------------------------------------------------


def test_coercivity_no_boundary_term():
    const = coercivity_constant(0.0, 1.0)
    assert const.C == 0.5 and const.eps == 1.0


def test_coercivity_formula_values():
    # eps = min(u, 1/(4S)); C = 4S/eps + 1/2
    const = coercivity_constant(1.0, 1.0)
    assert const.eps == pytest.approx(0.25) and const.C == pytest.approx(16.5)
    const = coercivity_constant(1.0, 0.1)
    assert const.eps == pytest.approx(0.1) and const.C == pytest.approx(40.5)


def test_coercivity_rejects_bad_input():
    with pytest.raises(ValueError):
        coercivity_constant(-1.0, 1.0)
    with pytest.raises(ValueError):
        coercivity_constant(1.0, 0.0)


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------


def test_bc_file_with_presets_and_matrices(tmp_path):
    g = star_graph(3)
    doc = {
        "c": "kirchhoff",
        "t1": {"delta": -1.0},
        "t2": "dirichlet",
        "t3": {"L": [[0.0]], "P": [[[1.0, 0.0]]]},
    }
    path = tmp_path / "bc.json"
    path.write_text(json.dumps(doc))
    bc = load_bc(path, g)
    assert np.allclose(bc.P("t3"), [[1.0]])
    violations, S = validate_bc(g, bc)
    assert violations == [] and S == pytest.approx(1.0)  # delta(-1) at a tip: ||L+|| = 1


def test_bc_file_missing_vertex(tmp_path):
    g = star_graph(3)
    path = tmp_path / "bc.json"
    path.write_text(json.dumps({"c": "kirchhoff"}))
    with pytest.raises(ValueError):
        load_bc(path, g)


def test_bc_file_unknown_vertex(tmp_path):
    g = interval_graph(2.0)
    path = tmp_path / "bc.json"
    path.write_text(json.dumps({"v": "dirichlet", "w": "dirichlet", "zz": "neumann"}))
    with pytest.raises(ValueError):
        load_bc(path, g)


def test_bc_mapping_rejects_garbage():
    g = interval_graph(2.0)
    with pytest.raises(ValueError):
        bc_from_mapping(g, {"v": "dirichlet", "w": {"what": 1}})
    with pytest.raises(ValueError):
        bc_from_mapping(g, {"v": "dirichlet", "w": 17})


def test_uniform_bc_covers_all_vertices():
    g = star_graph(5)
    bc = uniform_bc(g, "kirchhoff")
    assert set(bc.vertices()) == set(g.vertices)
