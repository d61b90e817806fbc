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
    if v not in g.outer_pos:
        raise ValueError(f"vertex {v} not on the outer cycle")
    return _arc(g, g.outer_pos[u], g.outer_pos[v])


def _arc(g: EmbeddedGraph, i: int, j: int) -> tuple[VertexId, ...]:
    """Clockwise outer arc from position i to position j, inclusive."""
    return g.outer[i : j + 1] if i <= j else g.outer[i:] + g.outer[: j + 1]


def is_boundary_edge(g: EmbeddedGraph, u: VertexId, v: VertexId) -> bool:
    n = len(g.outer)
    i, j = g.outer_pos[u], g.outer_pos[v]
    return (i + 1) % n == j or (j + 1) % n == i


def chords(g: EmbeddedGraph) -> list[Edge]:
    """Edges joining two non-consecutive outer vertices, sorted ascending."""
    return sorted(
        (u, v)
        for u in g.outer
        for v in g.rotation[u]
        if v > u and v in g.outer_pos and not is_boundary_edge(g, u, v)
    )


def find_shortcuts(g: EmbeddedGraph) -> tuple[Shortcut, ...]:
    pos = g.outer_pos
    k = len(g.outer)
    out = []
    for u, v in chords(g):
        i, j = pos[u], pos[v]
        # Arc u..v has (j - i) % k + 1 vertices, arc v..u has (i - j) % k + 1.
        d_uv, d_vu = (j - i) % k, (i - j) % k
        short = _arc(g, i, j) if d_uv < d_vu or (d_uv == d_vu and u < v) else _arc(g, j, i)
        out.append(Shortcut(edge=(u, v), interior=short[1:-1]))
    return tuple(out)


def find_cips(g: EmbeddedGraph) -> tuple[Cip, ...]:
    """The CIPs ordered by the outer position of their first vertex, then length.

    An arc of a chord is a CIP iff no other chord has both ends on it.
    Drawn inside the outer cycle, chords do not cross, so as position
    intervals [i, j] (i < j) they nest.  A chord's inner arc i..j is a CIP
    iff no chord lies inside [i, j]; its wrapping arc j..i is a CIP iff no
    chord contains [i, j], and none lies in [0, i] or in [j, k-1].  One
    stack scan over the intervals sorted by (i, -j) finds for each whether
    a chord lies inside it and whether one contains it.
    """
    pos = g.outer_pos
    spans = sorted(
        ((pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u]) for u, v in chords(g)),
        key=lambda s: (s[0], -s[1]),
    )
    if not spans:
        return ()
    has_inner = [False] * len(spans)
    contained = [False] * len(spans)
    stack: list[int] = []
    for x, (i, j) in enumerate(spans):
        while stack and spans[stack[-1]][1] <= i:
            stack.pop()
        if stack:
            has_inner[stack[-1]] = True
            contained[x] = True
        stack.append(x)
    first_end = min(j for _, j in spans)  # no chord lies in [0, i] iff i < first_end
    last_start = max(i for i, _ in spans)  # none lies in [j, k-1] iff j > last_start
    out = []
    for x, (i, j) in enumerate(spans):
        chord = edge_key(g.outer[i], g.outer[j])
        if not has_inner[x]:
            out.append((i, j - i, Cip(vertices=_arc(g, i, j), chord=chord)))
        if not contained[x] and i < first_end and j > last_start:
            out.append((j, len(g.outer) - j + i, Cip(vertices=_arc(g, j, i), chord=chord)))
    out.sort(key=lambda t: t[:2])
    return tuple(c for _, _, c in out)


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
