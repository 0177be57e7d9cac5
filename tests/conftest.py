import math

import numpy as np
import pytest

from metricgraph import BoundaryCondition, Edge, MetricGraph, preset, uniform_bc


def interval_graph(length: float, u: float = 1.0) -> MetricGraph:
    return MetricGraph(("v", "w"), (Edge("e", length, "v", "w"),), u)


def path_graph(n_edges: int, length: float = 1.0, u: float = 1.0) -> MetricGraph:
    verts = tuple(range(n_edges + 1))
    edges = tuple(Edge(i, length, i, i + 1) for i in range(n_edges))
    return MetricGraph(verts, edges, u)


def star_graph(n_rays: int = 3, length: float = 1.0, u: float = 1.0) -> MetricGraph:
    verts = ("c",) + tuple(f"t{i}" for i in range(1, n_rays + 1))
    edges = tuple(Edge(f"e{i}", length, "c", f"t{i}") for i in range(1, n_rays + 1))
    return MetricGraph(verts, edges, u)


def lp_mixing_star(strength: float) -> tuple[MetricGraph, BoundaryCondition]:
    """Kirchhoff 3-star whose centre L = strength (p q^T + q p^T) maps ker P into ran P.

    q = 1/sqrt(3) spans ker P, p = (1, -1, 0)/sqrt(2) lies in ran P.
    """
    g = star_graph(3)
    bc = uniform_bc(g, "kirchhoff")
    L, P = bc.conditions["c"]
    q = np.ones(3) / np.sqrt(3.0)
    p = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return g, BoundaryCondition({**bc.conditions, "c": (L + strength * (np.outer(p, q) + np.outer(q, p)), P)})


def loop_edge_graph(loop_len: float = 2.0, edge_len: float = 2.0, u: float = 1.0) -> MetricGraph:
    return MetricGraph(
        ("a", "b"),
        (Edge("loop", loop_len, "a", "a"), Edge("bridge", edge_len, "a", "b")),
        u,
    )


@pytest.fixture
def g1():
    """Interval of length pi with Dirichlet ends; spectrum n^2."""
    g = interval_graph(math.pi)
    return g, uniform_bc(g, "dirichlet")


@pytest.fixture
def g2():
    """Unit interval with free (Neumann) ends; spectrum (n pi)^2."""
    g = interval_graph(1.0)
    return g, uniform_bc(g, "neumann")


@pytest.fixture
def robin_interval():
    """Interval of length pi: f'(0) = 2 f(0) at one end, Dirichlet at the other."""
    g = interval_graph(math.pi)
    bc = BoundaryCondition(
        {"v": preset("delta", g.star("v"), 2.0), "w": preset("dirichlet", g.star("w"))}
    )
    return g, bc


@pytest.fixture
def star3():
    """Three unit rays, Kirchhoff at the center, free tips."""
    g = star_graph(3)
    return g, uniform_bc(g, "kirchhoff")


@pytest.fixture
def loop_edge():
    """Loop of length 2 plus a pendant edge of length 2 (multigraph fixture)."""
    g = loop_edge_graph()
    return g, uniform_bc(g, "kirchhoff")


def spectral_fixture_list():
    """The five cross-check fixtures, freshly built (usable in parametrize)."""
    gi = interval_graph(math.pi)
    gn = interval_graph(math.pi)
    gr = interval_graph(math.pi)
    gs = star_graph(3)
    gl = loop_edge_graph()
    return [
        ("interval-dirichlet", gi, uniform_bc(gi, "dirichlet")),
        ("interval-neumann", gn, uniform_bc(gn, "neumann")),
        (
            "interval-robin",
            gr,
            BoundaryCondition(
                {"v": preset("delta", gr.star("v"), 2.0), "w": preset("dirichlet", gr.star("w"))}
            ),
        ),
        ("star3-kirchhoff", gs, uniform_bc(gs, "kirchhoff")),
        ("loop-edge", gl, uniform_bc(gl, "kirchhoff")),
    ]
