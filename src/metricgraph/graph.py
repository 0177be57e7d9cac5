"""Metric graphs: finite multigraphs whose edges carry lengths.

An edge of length ``l`` is the interval ``(0, l)`` glued to the vertex set at
its endpoints; edges of infinite length have an initial vertex only.  The
whole graph is a metric measure space: the distance between two points is the
infimum of lengths of vertex chains in which consecutive points share an
edge, and the measure is Lebesgue measure on the edges.

Loops and parallel edges are allowed.  A loop contributes two independent
edge-ends to its vertex, so the boundary-value space at a vertex ``v`` always
has dimension equal to the degree ``d_v``.

Everything here is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import heapq
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, reduce
from pathlib import Path
from typing import Iterable, Mapping, Union

import numpy as np

VertexId = Union[str, int]
EdgeId = Union[str, int]

INIT = "init"
TERM = "term"


@dataclass(frozen=True)
class Edge:
    """Oriented edge: the interval ``(0, length)`` with ends ``init`` / ``end``.

    ``end`` is ``None`` exactly when the length is infinite.
    """

    id: EdgeId
    length: float
    init: VertexId
    end: VertexId | None

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.length)


@dataclass(frozen=True)
class VertexPoint:
    vertex: VertexId


@dataclass(frozen=True)
class EdgePoint:
    """Interior point of an edge at arc-length coordinate ``t``, 0 < t < l."""

    edge: EdgeId
    t: float


Point = Union[VertexPoint, EdgePoint]


@dataclass(frozen=True)
class EdgeSegment:
    """Closed subinterval [t0, t1] of an edge, of positive length."""

    edge: EdgeId
    t0: float
    t1: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.t0 < self.t1):
            raise ValueError(f"degenerate segment [{self.t0}, {self.t1}] on edge {self.edge!r}")

    @property
    def length(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class VertexStar:
    """Ordered list of edge-ends meeting a vertex.

    Slots are sorted by edge id, with the initial end of a loop before the
    terminal one, so the ordering is canonical.  Boundary-value vectors at the
    vertex are indexed by these slots.
    """

    vertex: VertexId
    slots: tuple[tuple[EdgeId, str], ...]

    @property
    def degree(self) -> int:
        return len(self.slots)


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str


@dataclass(frozen=True)
class MetricGraph:
    """Vertices, edges with lengths, and the uniform lower length bound ``u``.

    ``u`` is part of the data: all edges must be at least this long, and the
    constants in the form bounds (see :mod:`metricgraph.boundary`) depend on
    it.
    """

    vertices: tuple[VertexId, ...]
    edges: tuple[Edge, ...]
    u: float

    # -- derived lookups ---------------------------------------------------

    @cached_property
    def _edge_map(self) -> dict[EdgeId, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def edge_index(self) -> dict[EdgeId, int]:
        """Position k of each edge in ``edges``: the order of every per-edge array."""
        return {e.id: k for k, e in enumerate(self.edges)}

    @cached_property
    def _stars(self) -> dict[VertexId, VertexStar]:
        slots: dict[VertexId, list[tuple[EdgeId, str]]] = {v: [] for v in self.vertices}
        for e in self.edges:
            if e.init in slots:
                slots[e.init].append((e.id, INIT))
            if e.end is not None and e.end in slots:
                slots[e.end].append((e.id, TERM))
        out = {}
        for v, sl in slots.items():
            sl.sort(key=lambda s: (s[0], 0 if s[1] == INIT else 1))
            out[v] = VertexStar(v, tuple(sl))
        return out

    @cached_property
    def slots(self) -> dict[VertexId, slice]:
        """Each vertex's slice of the slots, the layout of vertex traces: edge ends vertex by vertex, in star order."""
        starts = np.cumsum([0] + [self._stars[v].degree for v in self.vertices])
        return {v: slice(int(a), int(b)) for v, a, b in zip(self.vertices, starts, starts[1:])}

    @cached_property
    def slot_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The slot of every edge's initial and terminal end, in ``edges`` order (compact graphs only)."""
        slot = {end: self.slots[v].start + k for v in self.vertices for k, end in enumerate(self._stars[v].slots)}
        return tuple(np.array([slot[e.id, end] for e in self.edges], dtype=int) for end in (INIT, TERM))

    def edge(self, edge_id: EdgeId) -> Edge:
        try:
            return self._edge_map[edge_id]
        except KeyError:
            raise ValueError(f"unknown edge {edge_id!r}") from None

    def star(self, vertex: VertexId) -> VertexStar:
        try:
            return self._stars[vertex]
        except KeyError:
            raise ValueError(f"unknown vertex {vertex!r}") from None

    def degree(self, vertex: VertexId) -> int:
        return self.star(vertex).degree

    @cached_property
    def total_length(self) -> float:
        return sum(e.length for e in self.edges)

    @property
    def is_compact(self) -> bool:
        return all(e.is_finite for e in self.edges)

    def require_compact(self, what: str) -> None:
        if not self.is_compact:
            raise ValueError(f"{what} requires a compact graph (all edge lengths finite)")

    def require_valid(self) -> None:
        problems = validate(self)
        if problems:
            msgs = "; ".join(p.message for p in problems)
            raise ValueError(f"invalid metric graph: {msgs}")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate(g: MetricGraph) -> list[Violation]:
    """Check the structural invariants; violations are data, not exceptions."""
    out: list[Violation] = []
    if not g.edges:
        out.append(Violation("empty", "graph", "the graph has no edges"))
    if not (g.u > 0):
        out.append(Violation("u", "graph", f"lower length bound u={g.u} must be positive"))
    seen_v = set()
    for v in g.vertices:
        if v in seen_v:
            out.append(Violation("vertex-dup", str(v), f"duplicate vertex id {v!r}"))
        seen_v.add(v)
    seen_e = set()
    for e in g.edges:
        if e.id in seen_e:
            out.append(Violation("edge-dup", str(e.id), f"duplicate edge id {e.id!r}"))
        seen_e.add(e.id)
        if not (e.length > 0):
            out.append(Violation("length", str(e.id), f"edge {e.id!r} has nonpositive length {e.length}"))
        elif g.u > 0 and e.length < g.u - 1e-15:
            out.append(
                Violation("lb", str(e.id), f"edge {e.id!r} has length {e.length} below the bound u={g.u}")
            )
        if e.init not in seen_v:
            out.append(Violation("endpoint", str(e.id), f"edge {e.id!r}: unknown initial vertex {e.init!r}"))
        if e.is_finite:
            if e.end is None:
                out.append(Violation("endpoint", str(e.id), f"finite edge {e.id!r} is missing its end vertex"))
            elif e.end not in seen_v:
                out.append(Violation("endpoint", str(e.id), f"edge {e.id!r}: unknown end vertex {e.end!r}"))
        elif e.end is not None:
            out.append(
                Violation("endpoint", str(e.id), f"infinite edge {e.id!r} must not declare an end vertex")
            )
    for v in g.vertices:
        if g._stars[v].degree == 0:
            out.append(Violation("isolated", str(v), f"vertex {v!r} has degree 0"))
    return out


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


def point_on_edge(g: MetricGraph, edge_id: EdgeId, t: float) -> Point:
    """Point at coordinate ``t`` on an edge; endpoints normalize to vertices."""
    e = g.edge(edge_id)
    if t < 0 or t > e.length:
        raise ValueError(f"coordinate {t} outside [0, {e.length}] on edge {edge_id!r}")
    if t == 0:
        return VertexPoint(e.init)
    if t == e.length:
        if e.end is None:
            raise ValueError(f"infinite edge {edge_id!r} has no far endpoint")
        return VertexPoint(e.end)
    return EdgePoint(edge_id, t)


def _check_point(g: MetricGraph, x: Point) -> None:
    if isinstance(x, VertexPoint):
        if x.vertex not in g._stars:
            raise ValueError(f"unknown vertex {x.vertex!r}")
    elif isinstance(x, EdgePoint):
        e = g.edge(x.edge)
        if not (0.0 < x.t < e.length):
            raise ValueError(f"edge coordinate {x.t} not interior to (0, {e.length})")
    else:
        raise TypeError(f"not a point: {x!r}")


# ---------------------------------------------------------------------------
# path metric
# ---------------------------------------------------------------------------


def vertex_distances(g: MetricGraph, x: Point) -> dict[VertexId, float]:
    """Shortest-path distance from ``x`` to every vertex (inf if unreachable).

    Parallel edges are kept separately, so the shorter of two parallel edges
    is the one that counts.  Infinite edges connect nothing (their far end is
    not a vertex).
    """
    _check_point(g, x)
    dist = {v: math.inf for v in g.vertices}
    heap: list[tuple[float, VertexId]] = []
    if isinstance(x, VertexPoint):
        heapq.heappush(heap, (0.0, _hkey(x.vertex)))
        dist[x.vertex] = 0.0
    else:
        e = g.edge(x.edge)
        dist[e.init] = x.t
        heapq.heappush(heap, (x.t, _hkey(e.init)))
        if e.end is not None:
            d = e.length - x.t
            if d < dist[e.end]:
                dist[e.end] = d
                heapq.heappush(heap, (d, _hkey(e.end)))

    adj: dict[VertexId, list[tuple[VertexId, float]]] = {v: [] for v in g.vertices}
    for e in g.edges:
        if e.end is not None:
            adj[e.init].append((e.end, e.length))
            adj[e.end].append((e.init, e.length))

    keymap = {_hkey(v): v for v in g.vertices}
    while heap:
        d, vk = heapq.heappop(heap)
        v = keymap[vk]
        if d > dist[v]:
            continue
        for w, le in adj[v]:
            nd = d + le
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, _hkey(w)))
    return dist


def _hkey(v: VertexId) -> tuple[int, str]:
    # heap entries must be comparable even for mixed id types
    return (0 if isinstance(v, (int, float)) else 1, str(v))


def _edge_minima(e: Edge, dv: Mapping[VertexId, float], x0: Point) -> list[tuple[float, float]]:
    """(position, distance) of the local minima of d(x0, .) on an edge, in order along it."""
    out = [(0.0, dv[e.init])]
    if isinstance(x0, EdgePoint) and x0.edge == e.id:
        out.append((x0.t, 0.0))
    if e.end is not None:
        out.append((e.length, dv[e.end]))
    return out


def edge_distance(e: Edge, dv: Mapping[VertexId, float], x0: Point, t):
    """d(x0, point(e, t)), ``t`` a coordinate or an array, from the vertex distances ``dv``.

    It is the lower envelope of the cones ``a + |t - p|`` at the local minima ``(p, a)``.
    """
    return reduce(np.minimum, [a + np.abs(t - p) for p, a in _edge_minima(e, dv, x0)])


def distance(g: MetricGraph, x: Point, y: Point) -> float:
    """Path metric between two points; ``inf`` across components."""
    _check_point(g, y)
    dv = vertex_distances(g, x)
    if isinstance(y, VertexPoint):
        return dv[y.vertex]
    return float(edge_distance(g.edge(y.edge), dv, x, y.t))


def distance_pieces(g: MetricGraph, x0: Point) -> tuple[np.ndarray, np.ndarray]:
    """(start, length) arrays of the pieces of edge on which d(x0, .) rises with slope 1.

    Between consecutive local minima ``(p, a)``, ``(q, b)`` of an edge the
    distance rises from both to where their cones meet, ``m = (b - a + p + q) / 2``:
    a piece (a, m - p) and a piece (b, q - m).  An infinite edge ends in a
    piece of infinite length.  The pieces tile the part of the graph reachable
    from x0, so d(x0, .) maps Lebesgue measure to the sum of the intervals
    [start, start + length].
    """
    dv = vertex_distances(g, x0)
    pieces: list[tuple[float, float]] = []
    for e in g.edges:
        minima = [(p, a) for p, a in _edge_minima(e, dv, x0) if math.isfinite(a)]
        for (p, a), (q, b) in zip(minima, minima[1:]):
            m = min(max(0.5 * (b - a + p + q), p), q)
            pieces += [(a, m - p), (b, q - m)]
        if minima and not e.is_finite:
            pieces.append((minima[-1][1], math.inf))
    starts, lengths = np.array(pieces).reshape(-1, 2).T
    return starts, lengths


def ball_volume(g: MetricGraph, x0: Point, r: float) -> float:
    """Lebesgue measure of the closed metric ball B(x0, r).

    The sum over the :func:`distance_pieces` of ``clip(r - start, 0,
    length)``: the part of each piece within distance r.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    starts, lengths = distance_pieces(g, x0)
    return float(np.sum(np.clip(r - starts, 0.0, lengths)))


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------


def connected_components(g: MetricGraph) -> list[set[VertexId]]:
    seen: set[VertexId] = set()
    comps = []
    for v in g.vertices:
        if v in seen:
            continue
        comp = set()
        stack = [v]
        while stack:
            w = stack.pop()
            if w in comp:
                continue
            comp.add(w)
            for eid, _ in g.star(w).slots:
                e = g.edge(eid)
                for other in (e.init, e.end):
                    if other is not None and other not in comp:
                        stack.append(other)
        seen |= comp
        comps.append(comp)
    return comps


def is_connected(g: MetricGraph) -> bool:
    return len(connected_components(g)) <= 1


# ---------------------------------------------------------------------------
# JSON description files
# ---------------------------------------------------------------------------

_GRAPH_KEYS = {"u", "vertices", "edges"}
_EDGE_KEYS = {"id", "length", "from", "to"}


def ids_from_text(ids: Iterable[VertexId | EdgeId], texts: Iterable[str], unknown: str) -> list[VertexId | EdgeId]:
    """The ids in ``ids`` written as ``texts``, as JSON keys and command-line values give them.

    A text that names no id raises ``ValueError(unknown.format(text))``.
    """
    by_text: dict[str, VertexId | EdgeId] = {}
    for i in ids:
        by_text.setdefault(str(i), i)
    out = []
    for text in texts:
        if text not in by_text:
            raise ValueError(unknown.format(text))
        out.append(by_text[text])
    return out


def json_number(value: object, what: str) -> float:
    """``value`` as a float when it is a number (not a bool); else a ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _json_id(value: object, what: str) -> VertexId | EdgeId:
    if isinstance(value, bool) or not isinstance(value, (str, numbers.Integral)):
        raise ValueError(f"{what} {value!r} must be a string or an integer")
    return value


def graph_from_dict(doc: Mapping) -> MetricGraph:
    """Parse ``{"u": ..., "vertices": [...], "edges": [{...}]}``.

    Unknown keys are rejected; ``"length": "inf"`` marks an infinite edge, in
    which case ``"to"`` must be omitted.  Ids are strings or integers, ``u``
    and finite lengths are numbers; any other shape is a ``ValueError``.
    """
    if not isinstance(doc, Mapping):
        raise ValueError("graph document must be a JSON object")
    unknown = set(doc) - _GRAPH_KEYS
    if unknown:
        raise ValueError(f"unknown graph keys: {sorted(unknown)}")
    for key in _GRAPH_KEYS:
        if key not in doc:
            raise ValueError(f"graph document is missing {key!r}")
    for key in ("vertices", "edges"):
        if not isinstance(doc[key], (list, tuple)):
            raise ValueError(f"graph {key!r} must be a list")
    edges = []
    for rec in doc["edges"]:
        if not isinstance(rec, Mapping):
            raise ValueError(f"edge record {rec!r} must be a JSON object")
        bad = set(rec) - _EDGE_KEYS
        if bad:
            raise ValueError(f"unknown edge keys: {sorted(bad)}")
        if "id" not in rec or "length" not in rec or "from" not in rec:
            raise ValueError(f"edge record {rec!r} needs id, length, from")
        eid = _json_id(rec["id"], "edge id")
        length = math.inf if rec["length"] == "inf" else json_number(rec["length"], f"length of edge {eid!r}")
        if math.isinf(length) and "to" in rec:
            raise ValueError(f"infinite edge {eid!r} must omit 'to'")
        if math.isfinite(length) and "to" not in rec:
            raise ValueError(f"finite edge {eid!r} needs 'to'")
        end = _json_id(rec["to"], "vertex id") if "to" in rec else None
        edges.append(Edge(eid, length, _json_id(rec["from"], "vertex id"), end))
    vertices = tuple(_json_id(v, "vertex id") for v in doc["vertices"])
    return MetricGraph(vertices, tuple(edges), json_number(doc["u"], "u"))


def load_graph(path: str | Path) -> MetricGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_dict(json.load(fh))


def graph_to_dict(g: MetricGraph) -> dict:
    edges = []
    for e in g.edges:
        rec: dict = {"id": e.id, "length": e.length if e.is_finite else "inf", "from": e.init}
        if e.end is not None:
            rec["to"] = e.end
        edges.append(rec)
    return {"u": g.u, "vertices": list(g.vertices), "edges": edges}
