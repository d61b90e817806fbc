"""Boundary structure of a PTPG: shortcuts, corner implying paths, triplets.

All arcs are walked clockwise along the outer cycle, matching the
clockwise conventions of EmbeddedGraph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Edge, EmbeddedGraph, VertexId, common_neighbors, edge_key


@dataclass(frozen=True)
class Shortcut:
    """Interior edge joining two non-consecutive outer vertices.

    interior holds the outer vertices strictly between the endpoints on
    the shorter clockwise arc (ties broken toward the lower first id).
    """

    edge: Edge
    interior: tuple[VertexId, ...]


@dataclass(frozen=True)
class Cip:
    """Corner implying path: a chord's boundary arc with no inner split pair."""

    vertices: tuple[VertexId, ...]
    chord: Edge

    @property
    def interior(self) -> tuple[VertexId, ...]:
        return self.vertices[1:-1]


@dataclass(frozen=True)
class Triplet:
    a: VertexId
    b: VertexId
    c: VertexId

    def __iter__(self):
        return iter((self.a, self.b, self.c))


def boundary_arc(g: EmbeddedGraph, u: VertexId, v: VertexId) -> tuple[VertexId, ...]:
    """Clockwise outer arc from u to v, inclusive of both endpoints."""
    n = len(g.outer)
    i = g.outer_pos[u]
    out = [u]
    while g.outer[i] != v:
        i = (i + 1) % n
        out.append(g.outer[i])
        if len(out) > n:
            raise ValueError(f"vertex {v} not on the outer cycle")
    return tuple(out)


def is_boundary_edge(g: EmbeddedGraph, u: VertexId, v: VertexId) -> bool:
    n = len(g.outer)
    i, j = g.outer_pos[u], g.outer_pos[v]
    return (i + 1) % n == j or (j + 1) % n == i


def chords(g: EmbeddedGraph) -> list[Edge]:
    out = []
    for u, v in sorted(g.edges):
        if u in g.outer_set and v in g.outer_set and not is_boundary_edge(g, u, v):
            out.append((u, v))
    return out


def find_shortcuts(g: EmbeddedGraph) -> tuple[Shortcut, ...]:
    out = []
    for u, v in chords(g):
        arc_uv = boundary_arc(g, u, v)
        arc_vu = boundary_arc(g, v, u)
        if len(arc_uv) < len(arc_vu) or (len(arc_uv) == len(arc_vu) and u < v):
            short = arc_uv
        else:
            short = arc_vu
        out.append(Shortcut(edge=(u, v), interior=short[1:-1]))
    return tuple(out)


def _arc_is_cip(g: EmbeddedGraph, arc: tuple[VertexId, ...]) -> bool:
    # No two non-consecutive arc vertices may be adjacent, apart from the
    # chord joining the endpoints.
    k = len(arc)
    for i in range(k):
        for j in range(i + 2, k):
            if i == 0 and j == k - 1:
                continue
            if edge_key(arc[i], arc[j]) in g.edges:
                return False
    return True


def find_cips(g: EmbeddedGraph) -> tuple[Cip, ...]:
    out = []
    for u, v in chords(g):
        for arc in (boundary_arc(g, u, v), boundary_arc(g, v, u)):
            if _arc_is_cip(g, arc):
                out.append(Cip(vertices=arc, chord=(u, v)))
    out.sort(key=lambda c: (g.outer_pos[c.vertices[0]], len(c.vertices)))
    return tuple(out)


def find_triplets(g: EmbeddedGraph) -> tuple[Triplet, ...]:
    """Clockwise consecutive outer triples (a, b, c) with a, c joined only via b.

    The common-neighbor test ranges over all vertices of the graph, not
    just the boundary.
    """
    out = []
    n = len(g.outer)
    for i in range(n):
        a, b, c = g.outer[i], g.outer[(i + 1) % n], g.outer[(i + 2) % n]
        if c in g.adj[a]:
            continue
        if common_neighbors(g, a, c) == (b,):
            out.append(Triplet(a, b, c))
    return tuple(out)


@dataclass(frozen=True)
class NecessaryReport:
    cips: tuple[Cip, ...]
    triplets: tuple[Triplet, ...]

    @property
    def cip_count(self) -> int:
        return len(self.cips)

    @property
    def ok(self) -> bool:
        return self.cip_count <= 5 and bool(self.triplets)

    def as_dict(self) -> dict:
        return {
            "cip_count": self.cip_count,
            "triplets": [[t.a, t.b, t.c] for t in self.triplets],
            "pass": self.ok,
        }


def necessary_conditions(g: EmbeddedGraph) -> NecessaryReport:
    """At most five CIPs and at least one admissible triplet."""
    return NecessaryReport(cips=find_cips(g), triplets=find_triplets(g))
