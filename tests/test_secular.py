import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from metricgraph import (
    BoundaryCondition,
    DiscreteSpectralRep,
    Edge,
    MetricGraph,
    SecularSolution,
    assemble,
    basis_values,
    eigenfunction,
    eigensystem,
    eigenvalue_scan,
    generalized_eigenfunction_residual,
    preset,
    secular_matrix,
    smallest_singular_value,
    uniform_bc,
    weyl_count_estimate,
)
from metricgraph import boundary, secular
from metricgraph.secular import SecularSystem

from conftest import dirichlet_star_roots, interval_graph, loop_edge_graph, lp_mixing_star, spectral_fixture_list, star_graph


# ---------------------------------------------------------------------------
# fundamental basis
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam", [-10.0, -1.0, -1e-5, -1e-8, 0.0, 1e-8, 1e-5, 1.0, 42.0, 100.0])
@pytest.mark.parametrize("t", [0.0, 0.3, 1.7, 3.1])
def test_wronskian_identity(lam, t):
    c, s = (float(a[0]) for a in basis_values(lam, np.array([t])))
    dc, ds = -lam * s, c
    scale = max(1.0, abs(c * ds), abs(dc * s))
    assert abs(c * ds - dc * s - 1.0) <= 1e-12 * scale


def test_basis_continuity_through_zero():
    # the series branch must join the trig/hyperbolic branches seamlessly
    ts = np.linspace(0.0, 3.0, 7)
    for lam in np.concatenate([np.linspace(-2e-6, 2e-6, 41), [1e-6 - 1e-12, -1e-6 + 1e-12]]):
        c, s = basis_values(float(lam), ts)
        c_ref = np.cosh(np.sqrt(-lam) * ts) if lam < 0 else np.cos(np.sqrt(lam) * ts)
        assert np.allclose(c, c_ref, rtol=1e-10, atol=1e-13)


def test_basis_solves_the_ode():
    # second difference of c, s reproduces -lam * value
    for lam in (-4.0, 0.5, 9.0):
        h = 1e-4
        t = np.array([1.0 - h, 1.0, 1.0 + h])
        for idx in (0, 1):
            y = basis_values(lam, t)[idx]
            second = (y[0] - 2 * y[1] + y[2]) / h**2
            assert second == pytest.approx(-lam * y[1], rel=1e-5, abs=1e-7)


def test_gram_matches_quadrature():
    # the end shapes s(l - t)/s(l) and s(t)/s(l) of the slot-value layout
    for lam in (-3.0, -1e-7, 0.0, 1e-7, 2.0, 50.0):
        l = np.array([1.7])
        G = secular._gram(lam, l, *secular._dtn(lam, l), [0], [1], np.eye(2))
        ts = np.linspace(0, 1.7, 20001)
        s = basis_values(lam, ts)[1]
        u0, u1 = s[::-1] / s[-1], s / s[-1]
        ref = np.array(
            [
                [np.trapezoid(u0 * u0, ts), np.trapezoid(u0 * u1, ts)],
                [np.trapezoid(u0 * u1, ts), np.trapezoid(u1 * u1, ts)],
            ]
        )
        assert np.allclose(G, ref, rtol=1e-6, atol=1e-9)


# ---------------------------------------------------------------------------
# condition matrix structure
# ---------------------------------------------------------------------------


def test_secular_matrix_interval_dirichlet_closed_form():
    # every slot is Dirichlet, so D(lambda) has order 0 and sigma_min is inf
    # off the poles n^2; the golden split's joint has the 1 x 1 D = (w cot(w
    # phi pi) + w cot(w (1 - phi) pi)) / 2, which vanishes with sin(w pi)
    g = interval_graph(math.pi)
    bc = uniform_bc(g, "dirichlet")
    phi = secular.CUTS[0]
    for lam in (0.7, 2.0, 9.0):
        assert secular_matrix(g, bc, lam).shape == (0, 0)
        D = secular.compiled(g, bc).split(lam, lam).vertex_matrix(lam)
        w = math.sqrt(lam)
        want = w * math.sin(w * math.pi) / (2 * math.sin(w * phi * math.pi) * math.sin(w * (1 - phi) * math.pi))
        assert D.shape == (1, 1) and D[0, 0] == pytest.approx(want, rel=1e-12, abs=1e-14)
    assert smallest_singular_value(g, bc, 2.0) == math.inf
    assert secular._cut_points(np.full(3, math.inf), np.arange(3.0)) == set()  # no D, so no grid minimum to cut at
    assert smallest_singular_value(g, bc, 9.0) < 1e-14  # on the split, since 9 lies in a pole band


def test_secular_matrix_neumann_singular_at_zero():
    g = interval_graph(1.0)
    bc = uniform_bc(g, "neumann")
    assert smallest_singular_value(g, bc, 0.0) < 1e-14
    sols = eigenfunction(g, bc, 0.0)
    assert len(sols) == 1
    vals = sols[0].evaluate("e", np.linspace(0, 1, 5))
    assert np.allclose(vals, vals[0])  # constant
    assert sols[0].l2_norm_sq() == pytest.approx(1.0)


def test_secular_matrix_robin_row():
    # ker P is the Robin end's slot alone, so D = Lambda_vv - L = a + 2.5 with
    # a = w cot(w) above zero and k coth(k) below it
    g = interval_graph(1.0)
    bc = BoundaryCondition(
        {"v": preset("delta", g.star("v"), 2.5), "w": preset("dirichlet", g.star("w"))}
    )
    for lam, a in ((3.0, math.sqrt(3.0) / math.tan(math.sqrt(3.0))), (-4.0, 2.0 / math.tanh(2.0))):
        sm = secular_matrix(g, bc, lam)
        assert sm.shape == (1, 1) and sm[0, 0] == pytest.approx(a + 2.5, rel=1e-13)


def test_secular_matrix_square_order():
    # order sum_v dim ker P_v: one per Kirchhoff vertex.  With (a, b) = (w cot(w l),
    # w / sin(w l)) per edge and K = 1 / sqrt(deg) at a vertex, the loop adds
    # 2 (a - b) / 3 at a, and the bridge a / 3 at a, a at b and -b / sqrt(3) between
    g = loop_edge_graph()
    bc = uniform_bc(g, "kirchhoff")
    sm = secular_matrix(g, bc, 1.0)
    assert sm.shape == (2, 2) == (sum(bc.ker_ran(v)[0].shape[1] for v in g.vertices),) * 2
    a, b = 1.0 / math.tan(2.0), 1.0 / math.sin(2.0)  # both edges have length 2
    want = [[(2 * (a - b) + a) / 3, -b / math.sqrt(3)], [-b / math.sqrt(3), a]]
    assert np.allclose(sm, want, rtol=0, atol=1e-14)
    bc = BoundaryCondition({"a": preset("kirchhoff", g.star("a")), "b": preset("dirichlet", g.star("b"))})
    assert secular_matrix(g, bc, 1.0).shape == (1, 1)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def test_scan_interval_dirichlet():
    g = interval_graph(math.pi)
    hits = eigenvalue_scan(g, uniform_bc(g, "dirichlet"), 0.5, 20.0, num=200)
    assert [h.multiplicity for h in hits] == [1, 1, 1, 1]
    assert np.allclose([h.lam for h in hits], [1.0, 4.0, 9.0, 16.0], atol=1e-9)


def test_scan_interval_neumann_includes_zero():
    g = interval_graph(1.0)
    hits = eigenvalue_scan(g, uniform_bc(g, "neumann"), -0.5, 50.0, num=400)
    assert np.allclose(
        [h.lam for h in hits], [0.0, math.pi**2, 4 * math.pi**2], atol=1e-8
    )


def test_scan_star_multiplicities():
    g = star_graph(3)
    hits = eigenvalue_scan(g, uniform_bc(g, "kirchhoff"), -0.5, 25.0, num=400)
    expected = [
        (0.0, 1),
        ((math.pi / 2) ** 2, 2),
        (math.pi**2, 1),
        ((3 * math.pi / 2) ** 2, 2),
    ]
    assert len(hits) == len(expected)
    for hit, (lam, mult) in zip(hits, expected):
        assert hit.lam == pytest.approx(lam, abs=1e-8)
        assert hit.multiplicity == mult


def test_scan_robin_against_transcendental_roots():
    # independent oracle: Robin condition f'(0) = 2 f(0), Dirichlet at pi
    # forces tan(omega pi) = -omega / 2; roots found by bracketed bisection
    g = interval_graph(math.pi)
    bc = BoundaryCondition(
        {"v": preset("delta", g.star("v"), 2.0), "w": preset("dirichlet", g.star("w"))}
    )

    def eq(w):
        return math.tan(w * math.pi) + w / 2.0

    roots = []
    for n in range(1, 5):
        lo, hi = n - 0.5 + 1e-9, n - 1e-9
        roots.append(brentq(eq, lo, hi, xtol=1e-13))
    expected = [w * w for w in roots]
    hits = eigenvalue_scan(g, bc, 0.1, expected[-1] + 1.0, num=400)
    assert np.allclose([h.lam for h in hits], expected, atol=1e-8)


def test_scan_finds_negative_eigenvalue():
    # attractive Robin end: f'(0) = -3 f(0) with a Dirichlet far end has a
    # bound state below zero; oracle from the hyperbolic secular equation
    # tanh(k) = k / 3 for f = sinh(k (1 - t)) on the unit interval
    g = interval_graph(1.0)
    bc = BoundaryCondition(
        {"v": preset("delta", g.star("v"), -3.0), "w": preset("dirichlet", g.star("w"))}
    )

    def eq(k):
        return math.tanh(k) - k / 3.0

    k0 = brentq(eq, 1.0, 2.9999, xtol=1e-13)
    expected = -k0 * k0
    hits = eigenvalue_scan(g, bc, -12.0, 0.5, num=300)
    negative = [h for h in hits if h.lam < -1e-6]
    assert len(negative) == 1
    assert negative[0].lam == pytest.approx(expected, abs=1e-8)


def test_scan_rejects_bad_range():
    g = interval_graph(1.0)
    with pytest.raises(ValueError):
        eigenvalue_scan(g, uniform_bc(g, "neumann"), 2.0, 1.0)


@pytest.mark.parametrize("num", [0, 1])
def test_scan_needs_two_points(num):
    g = interval_graph(1.0)
    with pytest.raises(ValueError, match="at least 2 points"):
        eigenvalue_scan(g, uniform_bc(g, "neumann"), 0.5, 10.0, num=num)


def test_count_matches_closed_form_spectra():
    # unit 3-star, Kirchhoff: 0, (pi/2)^2 twice, pi^2, (3 pi/2)^2 twice;
    # Dirichlet interval of length pi: n^2 (D(lambda) has order 0)
    g = star_graph(3)
    star = SecularSystem(g, uniform_bc(g, "kirchhoff"))
    levels = [0.0] + [(math.pi / 2) ** 2] * 2 + [math.pi**2] + [(3 * math.pi / 2) ** 2] * 2
    for lam in (-1.0, 0.5, 3.0, 9.0, 10.0, 21.0, 23.0):
        D = star.vertex_matrix(lam)
        assert np.allclose(D, D.conj().T, atol=1e-12)
        assert star.count(lam) == sum(1 for x in levels if x < lam), lam
    g = interval_graph(math.pi)
    interval = SecularSystem(g, uniform_bc(g, "dirichlet"))
    assert [interval.count(lam) for lam in (0.5, 1.5, 8.9, 9.1)] == [0, 1, 2, 3]


def test_count_holds_where_cosh_would_overflow():
    # cosh(sqrt(-lambda) l) overflows on a Neumann interval of length 800 at
    # lambda = -1; D(lambda) is written through e^(-kl) and still counts
    g = interval_graph(800.0)
    system = SecularSystem(g, uniform_bc(g, "neumann"))
    assert system.count(-1.0) == 0 and system.count(-0.01) == 0


def test_rank_drop_disagreeing_with_the_count_is_an_anomaly(monkeypatch):
    # the count rises by 1 across the band at the pole 1; a split that counts
    # otherwise at the band ends stops the scan
    g = interval_graph(math.pi)
    bc = uniform_bc(g, "dirichlet")
    monkeypatch.setattr(secular.compiled(g, bc).split(1.0, 1.0), "count", lambda lam: 0)
    with pytest.raises(secular.RankAnomaly, match=r"split graph counts \(0, 0\)"):
        eigenvalue_scan(g, bc, 0.5, 2.0, num=10)


def dirichlet_tip_star(*rays):
    """Star with a Kirchhoff centre and Dirichlet tips, one ray per length."""
    tips = tuple(f"t{i}" for i in range(1, len(rays) + 1))
    g = MetricGraph(("c",) + tips, tuple(Edge(f"e{t[1:]}", l, "c", t) for t, l in zip(tips, rays)), 1.0)
    conds = {"c": preset("kirchhoff", g.star("c"))}
    conds.update({t: preset("dirichlet", g.star(t)) for t in tips})
    return g, BoundaryCondition(conds)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.sampled_from([1.0, 2.0, 3.0, 1.5, 1.0 + 5e-7, 1.0 + 1e-9, 1 / secular.CUTS[0], 1 / secular.CUTS[1]]),
        min_size=2,
        max_size=5,
    ),
    st.floats(1.0, 2.0),
)
def test_dirichlet_tip_stars_meet_the_closed_form(factors, l):
    # equal, commensurate and nearly equal rays put several rays in one pole
    # band; a split system settles those bands, each edge on the first cut
    # whose pieces clear it.  Rays 1 and 1 + 1e-9 give two roots closer than
    # SINGULAR_RTOL: the count's multiplicity parts their eigenspaces
    rays = [f * l for f in factors]
    g, bc = dirichlet_tip_star(*rays)
    lo, hi = secular.scan_window(g, bc, 12)
    hits = eigenvalue_scan(g, bc, lo, hi)
    want = dirichlet_star_roots(rays, hi)
    assert [h.multiplicity for h in hits] == [m for _, m in want], ([(h.lam, h.multiplicity) for h in hits], want)
    for h, (lam, _) in zip(hits, want):
        assert abs(h.lam - lam) <= 10 * secular.CLUSTER_RTOL * max(1.0, lam), (h.lam, lam)
        assert h.sigma_min <= secular.SINGULAR_RTOL, (h.lam, h.sigma_min)  # the quantity null_vectors thresholds
        assert len(eigenfunction(g, bc, h.lam, h.multiplicity)) == h.multiplicity, h.lam


GOLDEN, SILVER = secular.CUTS[:2]


@pytest.mark.parametrize(
    "rays",
    [
        (1.0, 1.0, 1 / GOLDEN),
        (1.0, 1.0, GOLDEN**-2),
        (1.0, 1.0, 1 / SILVER),
        (1.0 + 5e-7,) * 3 + (1 / GOLDEN,),
        (1.0, 1.0, 1 / GOLDEN, 1 / SILVER),
    ],
    ids=["golden", "golden-squared", "silver", "golden-at-the-band-edge", "golden-and-silver"],
)
def test_stars_with_a_resonant_piece_meet_the_closed_form(rays):
    # the golden (or silver) cut of a ray leaves a piece of length 1,
    # resonant at pi^2, the double pole of the unit rays, or just past the
    # edge of the band of the three rays 1 + 5e-7: that edge takes the next
    # cut that clears the band.  On the last star both fractions resonate on
    # some ray, so the 1 / GOLDEN ray is cut at silver and the rest at golden
    g, bc = dirichlet_tip_star(*rays)
    lo, hi = secular.scan_window(g, bc, 12)
    hits = eigenvalue_scan(g, bc, lo, hi)
    want = dirichlet_star_roots(rays, hi)
    assert [h.multiplicity for h in hits] == [m for _, m in want]
    for h, (lam, _) in zip(hits, want):
        assert abs(h.lam - lam) <= 10 * secular.CLUSTER_RTOL * max(1.0, lam), (h.lam, lam)
        assert len(eigenfunction(g, bc, h.lam)) == h.multiplicity, h.lam
    band_root = min(hits, key=lambda h: abs(h.lam - math.pi**2))
    for sol in eigenfunction(g, bc, band_root.lam):
        assert sol.pieces is not None and sol.vertex_residual(bc, relative=True) <= 1e-12
        assert sol.l2_norm_sq() == pytest.approx(1.0, rel=1e-12)


FUZZ_LENGTHS = (1.0, 2.0, 1.5, 1 / GOLDEN, GOLDEN**-2, 1 / SILVER, 1.0 + 1e-9, 1.0 + 5e-7, 0.5, 3.0)
FUZZ_CONDITIONS = (("kirchhoff", None),) * 2 + (("dirichlet", None), ("neumann", None), ("delta", 2.0), ("delta", -3.0))


@st.composite
def random_graphs(draw):
    """A connected graph with 1-4 vertices and 1-5 edges, loops and parallel edges allowed, and its conditions."""
    n = draw(st.integers(1, 4))
    tree = [(k, draw(st.integers(0, k - 1))) for k in range(1, n)]  # spans the vertices
    vertex = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(vertex, vertex), min_size=1 if n == 1 else 0, max_size=6 - n))
    edges = tuple(Edge(k, draw(st.sampled_from(FUZZ_LENGTHS)), a, b) for k, (a, b) in enumerate(tree + extra))
    g = MetricGraph(tuple(range(n)), edges, 0.25)
    conditions = {v: draw(st.sampled_from(FUZZ_CONDITIONS)) for v in g.vertices}
    return g, BoundaryCondition({v: preset(kind, g.star(v), alpha) for v, (kind, alpha) in conditions.items()})


@settings(deadline=None)  # the hypothesis profile sets the number of examples
@given(random_graphs())
def test_random_graphs_have_count_sized_orthonormal_eigenspaces(graph):
    # equal, commensurate and nearly equal lengths put several edges in one
    # pole band and roots closer than SINGULAR_RTOL: every band is settled,
    # and each root gets exactly its multiplicity of orthonormal modes that
    # meet the full vertex conditions.  The count settles every interval at
    # any grid, and the 2-point grid keeps the default 100 draws near 2 s
    g, bc = graph
    lo, hi = secular.scan_window(g, bc, 8)
    hits = eigenvalue_scan(g, bc, lo, hi, num=2)
    assert sum(h.multiplicity for h in hits) >= 8
    for h in hits:
        sols = eigenfunction(g, bc, h.lam, h.multiplicity)
        assert len(sols) == h.multiplicity, (h, len(sols))
        l, init, term = sols[0]._layout
        X = np.stack([s.x for s in sols], axis=1)
        a, b = secular._dtn(h.lam, l)
        gram = secular._gram(h.lam, l, a, b, init, term, X)
        # the Gram of |x| under the shapes' absolute coefficients bounds the
        # rounding of the Gram itself, which grows like 1 / sin^2(sqrt(lambda) l)
        # on an edge close to (but outside) a pole band
        scale = np.abs(secular._gram(h.lam, l, -np.abs(a), np.abs(b), init, term, np.abs(X))).max()
        assert np.abs(gram - np.eye(h.multiplicity)).max() <= max(1e-10, 4 * np.finfo(float).eps * scale), h
        assert max(s.vertex_residual(bc, relative=True) for s in sols) <= 1e-8, h


def test_the_count_at_a_band_end_beside_a_root():
    # rays 1.5, 1.5 and 1 + 5e-7 with Neumann tips: pi^2 is a root, odd on the
    # long rays, and the band of the short ray's pole (pi / (1 + 5e-7))^2 ends
    # 2.5e-13 (relative) below it.  D's rounding there grows like 1 / sin on
    # the short ray and flipped the sign of the root's eigenvalue of D; the
    # scaled D counts it right, as the split does
    g = MetricGraph(("c", 1, 2, 3), tuple(Edge(t, l, "c", t) for t, l in ((1, 1.5), (2, 1.5), (3, 1.0 + 5e-7))), 1.0)
    bc = BoundaryCondition({"c": preset("kirchhoff", g.star("c")), **{t: preset("neumann", g.star(t)) for t in (1, 2, 3)}})
    [hit] = eigenvalue_scan(g, bc, 9.0, 10.5)
    assert hit.multiplicity == 1 and hit.lam == pytest.approx(math.pi**2, rel=secular.CLUSTER_RTOL)
    [sol] = eigenfunction(g, bc, hit.lam, hit.multiplicity)
    assert sol.vertex_residual(bc, relative=True) <= 1e-10


@pytest.mark.parametrize("offset", [0.0, 4e-13, 1e-12])
def test_a_root_beside_a_band_keeps_its_own_mode(offset):
    # a Neumann vertex decouples a Dirichlet-Neumann edge of length 1.5, with
    # the root pi^2, from a Neumann edge of length 1 + 5e-7, whose root sits
    # at its pole (pi / (1 + 5e-7))^2, 1e-6 below.  The scaled D at pi^2 then
    # has a second |mu| near 6e-13 from the short edge, and at a root known
    # to CLUSTER_RTOL the smallest |mu| may be that one: the Ritz step keeps
    # the mode whose Ritz value, about the distance to its root, is smallest
    g = MetricGraph((0, 1, 2), (Edge(0, 1.5, 1, 0), Edge(1, 1.0 + 5e-7, 2, 0)), 1.0)
    bc = BoundaryCondition({v: preset(kind, g.star(v)) for v, kind in enumerate(("neumann", "dirichlet", "neumann"))})
    lam = math.pi**2 * (1.0 + offset)
    assert secular.compiled(g, bc).at(lam).null_vectors(lam).shape[1] == 2
    [sol] = eigenfunction(g, bc, lam, 1)
    assert sol.vertex_residual(bc, relative=True) <= 1e-10
    assert np.max(np.abs(sol.evaluate(1, np.linspace(0.0, 1.0, 5)))) <= 1e-12  # nothing on the short edge


@pytest.mark.parametrize("num", [2, 600])
def test_a_root_beside_a_band_is_refined_on_the_scaled_d(num):
    # the Dirichlet-Neumann edge of length 0.5 has the root pi^2, and the
    # Neumann edge 1 + 5e-7 sits 1e-6 from its own pole there: the rounding
    # of the unscaled D grows like eps / sin(sqrt(lambda) l) on that edge and
    # put the root 4.6e-11 (relative) high; the scaled D keeps it in place
    g = MetricGraph(
        (0, 1, 2, 3),
        (
            Edge(0, 1 / SILVER, 1, 0),
            Edge(1, 1.0 + 5e-7, 2, 1),
            Edge(2, 1 / GOLDEN, 3, 0),
            Edge(3, 0.5, 1, 0),
            Edge(4, 1 / SILVER, 1, 0),
        ),
        0.25,
    )
    bc = BoundaryCondition({v: preset("dirichlet" if v == 0 else "neumann", g.star(v)) for v in g.vertices})
    hits = eigenvalue_scan(g, bc, *secular.scan_window(g, bc, 8), num=num)
    hit = min(hits, key=lambda h: abs(h.lam - math.pi**2))
    assert hit.multiplicity == 1
    assert abs(hit.lam - math.pi**2) <= secular.CLUSTER_RTOL * math.pi**2, hit.lam


@pytest.mark.parametrize("rays", [(1.0, 1.3, 1.7), (1.0, 2.0, 1.5, 1.2), (1.1, 1.9, 1.35, 1.6, 1.25)])
def test_scan_evaluates_d_a_few_times_per_root(rays, monkeypatch):
    # bisection on the count plus Newton on the scaled branch: about 8
    # evaluations of D a root on a 2-point grid (Illinois regula falsi on
    # the unscaled D took 23-27), counted by calls, which host noise cannot move
    g, bc = dirichlet_tip_star(*rays)
    lo, hi = secular.scan_window(g, bc, 12)
    calls = []
    vertex_matrix = SecularSystem._vertex_matrix
    monkeypatch.setattr(SecularSystem, "_vertex_matrix", lambda s, a, b: calls.append(1) or vertex_matrix(s, a, b))
    hits = eigenvalue_scan(g, bc, lo, hi, num=2)
    assert len(calls) <= 12 * len(hits), (len(calls), len(hits))


def test_scan_from_a_band_no_split_clears():
    # the golden piece of the ray 1 / GOLDEN and the silver piece of the ray
    # 1 / SILVER both have length 1, resonant at pi^2, the decoupled energy of
    # the unit ray; the band there holds no root, so a scan that starts in it
    # evaluates no grid point there and needs no split
    g, bc = dirichlet_tip_star(1.0, 1 / GOLDEN, 1 / SILVER)
    hits = eigenvalue_scan(g, bc, math.pi**2, 30.0, num=50)
    wide = [h for h in eigenvalue_scan(g, bc, 0.5, 30.0, num=50) if h.lam >= math.pi**2]
    assert len(hits) == 4 and [h.multiplicity for h in hits] == [h.multiplicity for h in wide]
    assert [h.lam for h in hits] == pytest.approx([h.lam for h in wide], rel=1e-13)


def close_pair_star():
    """Rays 1.0, 1.0005 and 1.001; Kirchhoff centre, Dirichlet tips: two close pairs below 50."""
    return dirichlet_tip_star(1.0, 1.0005, 1.001)


@pytest.mark.parametrize("num", [600, 2])
def test_scan_separates_close_pairs_at_any_grid(num):
    # FEM at h = 0.005 has these 6 eigenvalues below 50; the pairs are 0.011
    # and 0.046 apart, closer than the 0.085 step of a 600-point grid
    g, bc = close_pair_star()
    hits = eigenvalue_scan(g, bc, -1.0, 50.0, num=num)
    assert sum(h.multiplicity for h in hits) == 6
    lams = [h.lam for h in hits]
    assert lams == pytest.approx([2.4649, 9.8541, 9.8654, 22.1844, 39.4162, 39.4617], abs=1e-4)
    for h in hits:
        assert h.sigma_min < 1e-10 and len(eigenfunction(g, bc, h.lam)) == h.multiplicity


def test_scan_keeps_neumann_zero_on_a_coarse_grid():
    # step 9.6: sigma_min is already small at the first grid point, so the
    # zero mode is no local minimum of the grid
    g = interval_graph(1.0)
    hits = eigenvalue_scan(g, uniform_bc(g, "neumann"), -0.5, (39.5 * math.pi) ** 2, num=1600)
    assert [h.multiplicity for h in hits] == [1] * 40
    assert np.allclose([h.lam for h in hits], [(n * math.pi) ** 2 for n in range(40)], rtol=1e-12, atol=1e-10)


def test_scan_grid_on_decoupled_energies():
    # grid points land exactly on the poles 1, 4 and 9 of D(lambda)
    g = interval_graph(math.pi)
    hits = eigenvalue_scan(g, uniform_bc(g, "dirichlet"), 0.5, 10.0, num=20)
    assert [h.multiplicity for h in hits] == [1, 1, 1]
    assert [h.lam for h in hits] == pytest.approx([1.0, 4.0, 9.0], rel=1e-14)


def test_pole_band_merges_energies_that_differ_by_rounding():
    # (pi/1.1)^2 and (3 pi/3.3)^2 are one energy, computed as two floats
    g, bc = dirichlet_tip_star(1.1, 3.3, 1.7)
    p = SecularSystem(g, bc).decoupled_energies(8.0, 8.3)
    assert p.size == 2 and p[1] - p[0] <= 1e-12 * p[0]
    hits = eigenvalue_scan(g, bc, -1.0, 20.0)
    [root] = [h for h in hits if abs(h.lam - (math.pi / 1.1) ** 2) <= 1e-9]
    assert root.multiplicity == 1


def _random_graph(rng, family):
    """A 3-6-ray star or an n x n lattice, lengths U[1, 1.4], Kirchhoff or delta vertices."""
    if family == "star":
        n = int(rng.integers(3, 7))
        pairs = [("c", f"t{i}") for i in range(n)]
    else:
        n = int(family[-1])
        vid = [[f"v{r}{c}" for c in range(n)] for r in range(n)]
        pairs = [(vid[r][c], vid[r][c + 1]) for r in range(n) for c in range(n - 1)]
        pairs += [(vid[r][c], vid[r + 1][c]) for r in range(n - 1) for c in range(n)]
    lengths = rng.uniform(1.0, 1.4, len(pairs))
    g = MetricGraph(
        tuple(dict.fromkeys(v for pair in pairs for v in pair)),
        tuple(Edge(f"e{k}", float(l), a, b) for k, ((a, b), l) in enumerate(zip(pairs, lengths))),
        1.0,
    )
    conds = {}
    for v in g.vertices:
        if rng.random() < 0.5:
            conds[v] = preset("kirchhoff", g.star(v))
        else:
            conds[v] = preset("delta", g.star(v), float(rng.uniform(-1.0, 1.0)))
    return g, BoundaryCondition(conds)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["star", "grid2", "grid3"]))
def test_scan_count_matches_dense_p1(seed, family):
    # P1 eigenvalues lie within 10 h^2 max(1, lambda) above the exact ones,
    # so in a P1 gap wider than 4 budgets both counts below its midpoint agree
    g, bc = _random_graph(np.random.default_rng(seed), family)
    lam_max, h = 30.0, 0.01
    C = boundary.coercivity_constant(boundary.require_valid_bc(g, bc), g.u).C
    hits = eigenvalue_scan(g, bc, 0.5 - C - 1.0, lam_max, num=100)
    fa = assemble(g, bc, h)
    p1 = scipy.linalg.eigh(fa.operator_matrix.toarray().real, fa.mass.toarray().real, eigvals_only=True)
    p1 = p1[p1 < lam_max + 1.0]
    checked = 0
    for lo, hi in zip(p1, p1[1:]):
        mid = 0.5 * (lo + hi)
        if hi - lo > 4 * 10 * h**2 * max(1.0, abs(mid)) and mid < lam_max:
            n_exact = sum(hit.multiplicity for hit in hits if hit.lam < mid)
            assert n_exact == int(np.sum(p1 < mid)), (mid, [hit.lam for hit in hits])
            checked += 1
    assert checked >= 3


def _long_ray_star(rng, n_rays, centre):
    """A star with rays U[1, 3] and one ray U[50, 800]; a random delta or (L, P) at the centre.

    Every positive part of L is at most 0.1.
    """
    lengths = rng.uniform(1.0, 3.0, n_rays)
    lengths[0] = rng.uniform(50.0, 800.0)
    g = MetricGraph(
        ("c",) + tuple(f"t{i}" for i in range(n_rays)),
        tuple(Edge(f"e{i}", float(l), "c", f"t{i}") for i, l in enumerate(lengths)),
        1.0,
    )
    if centre == "delta":
        conds = {"c": preset("delta", g.star("c"), float(rng.uniform(-0.1, 10.0)))}
    else:
        _, P = _random_lp(rng, n_rays, int(rng.integers(0, n_rays)), False)
        U, _ = np.linalg.qr(rng.standard_normal((n_rays, n_rays)))
        K = np.eye(n_rays) - P
        conds = {"c": (K @ U @ np.diag(rng.uniform(-10.0, 0.1, n_rays)) @ U.T @ K, P)}
    for i in range(n_rays):
        kind = ["dirichlet", "neumann", "delta"][int(rng.integers(0, 3))]
        alpha = float(rng.uniform(-0.1, 5.0)) if kind == "delta" else None
        conds[f"t{i}"] = preset(kind, g.star(f"t{i}"), alpha)
    return g, BoundaryCondition(conds)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6), st.sampled_from(["delta", "lp"]), st.integers(1, 12))
def test_scan_window_is_certified(seed, n_rays, centre, modes):
    # N(lo) = 0 and N(hi) >= N_D(hi) >= modes: a window twice as wide holds
    # the same lowest modes
    g, bc = _long_ray_star(np.random.default_rng(seed), n_rays, centre)
    lo, hi = secular.scan_window(g, bc, modes)
    system = SecularSystem(g, bc)
    assert system.count(lo) == 0 and system.count(hi) >= modes

    def lowest(a, b):
        return [h.lam for h in eigenvalue_scan(g, bc, a, b) for _ in range(h.multiplicity)][:modes]

    got, wide = lowest(lo, hi), lowest(2.0 * lo, 2.0 * hi)
    assert len(got) == modes
    assert np.allclose(got, wide, rtol=secular.CLUSTER_RTOL, atol=secular.CLUSTER_RTOL), (got, wide)


# ---------------------------------------------------------------------------
# eigenfunctions
# ---------------------------------------------------------------------------


def test_interval_ground_state_is_normalized_sine():
    g = interval_graph(math.pi)
    bc = uniform_bc(g, "dirichlet")
    sols = eigenfunction(g, bc, 1.0)
    assert len(sols) == 1
    ts = np.linspace(0, math.pi, 9)
    assert np.allclose(
        np.abs(sols[0].evaluate("e", ts)), math.sqrt(2 / math.pi) * np.abs(np.sin(ts)), atol=1e-10
    )


def test_star_degenerate_level_orthonormal_basis():
    g = star_graph(3)
    bc = uniform_bc(g, "kirchhoff")
    lam = (math.pi / 2) ** 2
    sols = eigenfunction(g, bc, lam)
    assert len(sols) == 2
    for s in sols:
        assert s.l2_norm_sq() == pytest.approx(1.0, abs=1e-10)
        assert s.vertex_residual(bc) < 1e-10
        # these modes vanish at the center
        assert abs(s.evaluate("e1", np.array([0.0]))[0]) < 1e-10
    # cross inner product vanishes (exact per-edge Gram blocks of the end values)
    lengths = np.array([e.length for e in g.edges])
    X = np.stack([s.x for s in sols], axis=1)
    cross = secular._gram(lam, lengths, *secular._dtn(lam, lengths), *g.slot_ends, X)[1, 0]
    assert abs(cross) < 1e-10


def test_eigenfunction_rejects_non_eigenvalue():
    g = interval_graph(math.pi)
    with pytest.raises(ValueError):
        eigenfunction(g, uniform_bc(g, "dirichlet"), 2.0)


def test_lp_mixing_null_vectors_meet_the_full_conditions_or_raise():
    # D(lambda) leaves out P L f(v); at lambda = 0 the constant is its null
    # vector but has P L f(c) != 0, while the pair at (pi/2)^2 vanishes
    # at the centre and meets every condition
    g, bc = lp_mixing_star(0.3)
    with pytest.raises(secular.RankAnomaly, match=r"at vertices \('c',\)"):
        eigenfunction(g, bc, 0.0)
    [hit] = eigenvalue_scan(g, bc, 2.0, 3.0)
    assert hit.lam == pytest.approx((math.pi / 2) ** 2, rel=1e-12) and hit.multiplicity == 2
    sols = eigenfunction(g, bc, hit.lam)
    assert len(sols) == 2
    for s in sols:
        assert s.l2_norm_sq() == pytest.approx(1.0, abs=1e-10)
        assert s.vertex_residual(bc) < 1e-12


def _strong_tip(g, bc):
    """The same conditions with a Robin end ``{"delta": 1e8}`` at one tip."""
    return g, BoundaryCondition({**bc.conditions, "t1": preset("delta", g.star("t1"), 1e8)})


@pytest.mark.parametrize(
    "g, bc",
    [lp_mixing_star(1e8), _strong_tip(*lp_mixing_star(0.3))],
    ids=["strong-mixing", "strong-tip"],
)
def test_lp_mixing_raises_at_any_scale_of_L(g, bc):
    # the vertex gate is relative to each vertex's max(1, ||L_v||), and so is
    # P L f(c); a strong condition at another vertex does not widen it at c
    lowest = eigenvalue_scan(g, bc, -1.0, 1.0)[0].lam
    with pytest.raises(secular.RankAnomaly, match=r"at vertices \('c',\)"):
        eigenfunction(g, bc, lowest)


def test_all_fixture_eigenfunctions_satisfy_conditions():
    for name, g, bc in spectral_fixture_list():
        hits = eigenvalue_scan(g, bc, -1.0, 30.0, num=300)
        for hit in hits:
            for sol in eigenfunction(g, bc, hit.lam):
                assert sol.vertex_residual(bc) < 1e-8, (name, hit.lam)


# ---------------------------------------------------------------------------
# cross-checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,g,bc", spectral_fixture_list())
def test_secular_matches_fem(name, g, bc):
    hits = eigenvalue_scan(g, bc, -1.0, 40.0, num=400)
    exact = [h.lam for h in hits for _ in range(h.multiplicity)][:6]
    h_max = 0.01
    es = eigensystem(assemble(g, bc, h_max), 6)
    for lam_exact, lam_fem in zip(exact, es.eigenvalues):
        budget = 10 * h_max**2 * max(1.0, abs(lam_exact))
        assert abs(lam_exact - lam_fem) <= budget, (name, lam_exact, lam_fem)


def test_weyl_count_on_fixtures():
    for name, g, bc in spectral_fixture_list():
        lam_max = 60.0
        hits = eigenvalue_scan(g, bc, -1.0, lam_max, num=500)
        count = sum(h.multiplicity for h in hits)
        slack = len(g.vertices) + 2 * len(g.edges)
        assert abs(count - weyl_count_estimate(g, lam_max)) <= slack, name


# ---------------------------------------------------------------------------
# compiled system against a per-vertex builder
# ---------------------------------------------------------------------------


def _per_vertex_traces(g, lam):
    """Per vertex, the maps (F, Fp) from slot values to its star-ordered values and inward derivatives.

    F = I on the star's slots and Fp = -Lambda, with the Dirichlet-to-Neumann
    block [[c/s, -1/s], [-1/s, c/s]] of each edge at its length.
    """
    slot = {(eid, end): g.slots[v].start + k for v in g.vertices for k, (eid, end) in enumerate(g.star(v).slots)}
    n = len(slot)
    maps = {}
    for v in g.vertices:
        star = g.star(v)
        F = np.zeros((star.degree, n))
        Fp = np.zeros((star.degree, n))
        for k, (eid, end) in enumerate(star.slots):
            other = "term" if end == "init" else "init"
            c, s = (float(a) for a in basis_values(lam, g.edge(eid).length))
            F[k, slot[eid, end]] = 1.0
            Fp[k, slot[eid, end]] = -c / s
            Fp[k, slot[eid, other]] = 1.0 / s
        maps[v] = (F, Fp)
    return maps


def _random_lp(rng, d, rank, mixing):
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    ran = Q[:, :rank]
    P = ran @ ran.conj().T
    H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    L = 0.5 * (H + H.conj().T)
    if not mixing:
        K = np.eye(d) - P
        L = K @ L @ K
    return L, P


def _general_lp_cases():
    rng = np.random.default_rng(7)
    star = star_graph(4, length=1.3)
    loop = loop_edge_graph(loop_len=1.5, edge_len=2.0)
    tips = {f"t{i}": preset("delta", star.star(f"t{i}"), 0.7) for i in range(1, 5)}
    return [
        ("general-star", star, BoundaryCondition({"c": _random_lp(rng, 4, 2, False), **tips})),
        ("self-loop", loop, BoundaryCondition(
            {"a": _random_lp(rng, 3, 1, False), "b": preset("neumann", loop.star("b"))}
        )),
        ("lp-mixing", star, BoundaryCondition({"c": _random_lp(rng, 4, 2, True), **tips})),
    ]


@pytest.mark.parametrize("name,g,bc", _general_lp_cases())
def test_compiled_system_matches_per_vertex_builder(name, g, bc):
    # an independent D(lambda): per vertex, an eigh split of P and the trace
    # maps (F, Fp); K stacks F^T ker per vertex and D = -[ker^H (L F + Fp)] K
    rng = np.random.default_rng(3)
    kers = {}
    for v in g.vertices:
        w, vecs = np.linalg.eigh(bc.P(v))
        kers[v] = vecs[:, w < 0.5]
    for lam in (-9.0, -1e-7, 0.0, 1e-7, 2.5, 40.0):
        maps = _per_vertex_traces(g, lam)
        K = np.hstack([maps[v][0].T @ kers[v] for v in g.vertices])
        D_ref = -np.vstack([kers[v].conj().T @ (bc.L(v) @ F + Fp) for v, (F, Fp) in maps.items()]) @ K
        scale = max(1.0, float(np.max(np.abs(D_ref))))
        assert np.allclose(D_ref, D_ref.conj().T, rtol=0, atol=1e-13 * scale), (name, lam)
        mu, mu_ref = np.linalg.eigvalsh(secular_matrix(g, bc, lam)), np.linalg.eigvalsh(D_ref)
        assert np.max(np.abs(mu - mu_ref)) <= 1e-13 * scale, (name, lam)
        # edge-end traces of random slot values x against F x and Fp x
        x = rng.standard_normal(K.shape[0]) + 1j * rng.standard_normal(K.shape[0])
        sol = SecularSolution(g, lam, x)
        for got, k in zip(sol.trace_values(), (0, 1)):
            want = np.concatenate([maps[v][k] @ x for v in g.vertices])
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), (name, lam, k)
    system = SecularSystem(g, bc)
    assert system.anomaly_vertices == (("c",) if name == "lp-mixing" else ())
    assert system.S == boundary.validate_bc(g, bc)[1] > 0
    for derived in (system.cut(((0.5,),) * len(g.edges)), system.shifted(np.ones(len(g.edges)))):
        assert (derived.S, derived.anomaly_vertices) == (system.S, system.anomaly_vertices)


def test_scan_validates_once(monkeypatch):
    import metricgraph.boundary as boundary_mod

    calls = []
    original = boundary_mod.validate_bc

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(boundary_mod, "validate_bc", counting)
    name, g, bc = _general_lp_cases()[0]
    hits = eigenvalue_scan(g, bc, -5.0, 30.0, num=200)
    assert hits and len(calls) == 1


def test_spectral_rep_validates_once(monkeypatch):
    # the scan, every eigenfunction, the representation and the per-mode
    # residuals share the pair's compiled system and standard battery
    import metricgraph.boundary as boundary_mod

    calls = []
    original = boundary_mod.validate_bc

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(boundary_mod, "validate_bc", counting)
    name, g, bc = _general_lp_cases()[0]
    hits = eigenvalue_scan(g, bc, -5.0, 30.0, num=200)
    fresh = [eigenfunction(g, bc, h.lam) for h in hits]
    rep = DiscreteSpectralRep.from_secular(g, bc, hits, 0.05)
    for m in rep.modes:
        generalized_eigenfunction_residual(g, bc, m.exact, m.lam)
    assert len(hits) > 1 and len(calls) == 1
    # the shared compiled system gives the same eigenfunctions, bit for bit
    flat = [s for sols in fresh for s in sols]
    assert len(rep.modes) == len(flat) and all(np.array_equal(m.exact.x, s.x) for m, s in zip(rep.modes, flat))


def test_equal_conditions_do_not_share_a_compiled_system():
    # the cache keys a condition by identity, so equal values compile twice
    g = star_graph(3)
    bc1, bc2 = uniform_bc(g, "kirchhoff"), uniform_bc(g, "kirchhoff")
    assert secular.compiled(g, bc1) is secular.compiled(g, bc1)
    assert secular.compiled(g, bc1) is not secular.compiled(g, bc2)


# ---------------------------------------------------------------------------
# per-edge shifts and cut pieces
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(random_graphs(), st.floats(-20.0, 20.0))
def test_a_uniform_shift_moves_every_count(graph, c):
    # H + c has the spectrum of H moved by c: off the roots, the shifted count at lambda + c is the count
    # at lambda, each read on the system that holds lambda (a split one in a pole band)
    g, bc = graph
    system = secular.compiled(g, bc)
    shifted = system.shifted(np.full(len(g.edges), c))
    lo, hi = secular.scan_window(g, bc, 6)
    roots = sorted({h.lam for h in eigenvalue_scan(g, bc, lo, hi, num=2)})
    points = [lo, hi] + [0.5 * (x + y) for x, y in zip(roots, roots[1:])]
    for lam in [x for x in points if min(abs(x - r) for r in roots) > 1e-6 * max(1.0, abs(x))]:
        assert shifted.at(lam + c).count(lam + c) == system.at(lam).count(lam), (lam, roots)


def test_cut_pieces_count_like_the_uncut_graph():
    # degree-2 Kirchhoff joints change no eigenvalue: with zero shift the count of several cuts on one
    # edge, one on another and none on the third is the graph's, and so is the lowest eigenvalue
    g, bc = dirichlet_tip_star(1.0, 1.5, 2.0)
    system = secular.compiled(g, bc)
    cuts = ((0.2, 0.5, 0.9), (), (0.25,))
    pieces = system.cut(cuts, np.zeros(7))
    assert [e.id for e in pieces.graph.edges] == [("e1", j) for j in range(4)] + [("e2", 0), ("e3", 0), ("e3", 1)]
    assert pieces.graph.vertices[len(g.vertices) :] == (("e1", "cut", 0), ("e1", "cut", 1), ("e1", "cut", 2), ("e3", "cut"))
    roots = [h.lam for h in eigenvalue_scan(g, bc, -1.0, 60.0)]
    for lam in [-1.0, 60.0] + [0.5 * (x + y) for x, y in zip(roots, roots[1:])]:
        assert pieces.at(lam).count(lam) == system.at(lam).count(lam), lam
    assert secular.lowest_eigenvalue(pieces, -1.0) == pytest.approx(roots[0], rel=1e-11)


def test_lowest_eigenvalue_is_a_lower_end_of_a_checked_bracket(monkeypatch):
    # the Dirichlet pi-interval's lowest eigenvalue 1 sits on a pole: the bisection returns its bracket's
    # lower end, within the tolerance below 1; a count above 0 at lo, or of 0 at hi (Dirichlet bracketing
    # gives at least 1 there), is an anomaly rather than a bound read off the wrong end
    g = interval_graph(math.pi)
    system = SecularSystem(g, uniform_bc(g, "dirichlet"))
    assert 1.0 - 2.0 * secular.CLUSTER_RTOL <= secular.lowest_eigenvalue(system, -1.0) <= 1.0
    with pytest.raises(secular.RankAnomaly, match=r"counts at lo=2.0 and hi=1.0000\d+ are 1 and 1"):
        secular.lowest_eigenvalue(system, 2.0)
    monkeypatch.setattr(system, "count", lambda lam: 0)
    with pytest.raises(secular.RankAnomaly, match=r"are 0 and 0, not 0 and at least 1"):
        secular.lowest_eigenvalue(system, -1.0)


def test_one_cut_per_edge_keeps_the_split_layout():
    g, _ = dirichlet_tip_star(1.0, 1.5, 2.0)
    fracs = (0.3, 0.6, 0.7)
    edges = []
    for e, f in zip(g.edges, fracs):
        t = f * e.length
        edges += [Edge((e.id, 0), t, e.init, (e.id, "cut")), Edge((e.id, 1), e.length - t, (e.id, "cut"), e.end)]
    u = min(min(f, 1.0 - f) for f in fracs) * g.u
    want = MetricGraph(g.vertices + tuple((e.id, "cut") for e in g.edges), tuple(edges), u)
    assert secular.split_graph(g, tuple((f,) for f in fracs)) == want


def test_mixed_energies_take_each_edges_scalar_branch():
    # at lambda = 3 the four pieces have energies -2, -0.3 eps, 0 and 4 (eps = SERIES_THRESHOLD): the
    # exponential, series and trigonometric branches in one call, each edge bit for bit its scalar call
    g = interval_graph(2.0)
    eps, lam = secular.SERIES_THRESHOLD, 3.0
    pieces = secular.compiled(g, uniform_bc(g, "dirichlet")).cut(((0.2, 0.5, 0.7),))
    system = pieces.shifted(np.array([lam + 2.0, lam + 0.3 * eps, lam, lam - 4.0]))
    mu = lam - system.shift
    assert mu[0] < -eps and -eps < mu[1] < 0.0 and mu[2] == 0.0 and mu[3] > eps
    a, b = secular._dtn(mu, system.lengths)
    for k in range(4):
        ak, bk = secular._dtn(float(mu[k]), system.lengths[k : k + 1])
        assert (a[k], b[k]) == (ak[0], bk[0]), k
