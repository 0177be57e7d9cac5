import math

import numpy as np
import pytest
from hypothesis import settings

from metricgraph import BoundaryCondition, Edge, MetricGraph, preset, uniform_bc

# a deep, reproducible run: pytest --hypothesis-profile=fuzz (tier-1 keeps hypothesis's default profile)
settings.register_profile("fuzz", max_examples=1000, deadline=None, derandomize=True)


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


def dirichlet_star_roots(rays, hi: float) -> list[tuple[float, int]]:
    """Closed-form spectrum in (0, hi] of a Kirchhoff star with Dirichlet tips, as (lambda, multiplicity).

    With k = sqrt(lambda), one root of sum_e cot(k l_e) = 0 lies in each gap
    between consecutive distinct poles n pi / l_e (and below the first), and
    a pole where m rays resonate is a root of multiplicity m - 1.  Poles
    within 1e-12 of each other are one pole.
    """
    from scipy.optimize import brentq

    k_hi = math.sqrt(hi)
    poles = sorted(n * math.pi / l for l in rays for n in range(1, int(k_hi * l / math.pi) + 2))
    distinct: list[list[float]] = []  # [pole, resonant rays]
    for k in poles:
        if distinct and k - distinct[-1][0] <= 1e-12 * k:
            distinct[-1][1] += 1
        else:
            distinct.append([k, 1])
    out = []
    lower = 0.0
    for k, m in distinct:
        a, b = lower + 1e-6 * (k - lower), k - 1e-6 * (k - lower)  # far enough from the poles for cot to keep its sign
        root = brentq(lambda x: sum(1.0 / math.tan(x * l) for l in rays), a, b, xtol=1e-15, rtol=1e-15)
        out.append((root * root, 1))
        if m > 1:
            out.append((k * k, m - 1))
        lower = k
    return [(lam, m) for lam, m in out if lam <= hi]


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
