"""Boundary structure of a PTPG: corner implying paths and triplets.

The shortcuts are the graph's own chords (EmbeddedGraph.chords).  A CIP
is an outer arc between a chord's ends, so its end vertices name its
chord.  All arcs are walked clockwise along the outer cycle, matching
the clockwise conventions of EmbeddedGraph.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import EmbeddedGraph, VertexId


class Cip(NamedTuple):
    """Corner implying path: a chord's boundary arc with no inner split pair.

    Its chord joins its end vertices.
    """

    vertices: tuple[VertexId, ...]

    @property
    def interior(self) -> tuple[VertexId, ...]:
        return self.vertices[1:-1]


class Triplet(NamedTuple):
    a: VertexId
    b: VertexId
    c: VertexId


def boundary_arc(g: EmbeddedGraph, u: VertexId, v: VertexId) -> tuple[VertexId, ...]:
    """Clockwise outer arc from u to v, inclusive of both endpoints."""
    if v not in g.outer_pos:
        raise ValueError(f"vertex {v} not on the outer cycle")
    return _arc(g, g.outer_pos[u], g.outer_pos[v])


def _arc(g: EmbeddedGraph, i: int, j: int) -> tuple[VertexId, ...]:
    """Clockwise outer arc from position i to position j, inclusive."""
    return g.outer[i : j + 1] if i <= j else g.outer[i:] + g.outer[: j + 1]


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
        ((pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u]) for u, v in g.chords),
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
        if not has_inner[x]:
            out.append((i, j - i, Cip(_arc(g, i, j))))
        if not contained[x] and i < first_end and j > last_start:
            out.append((j, len(g.outer) - j + i, Cip(_arc(g, j, i))))
    out.sort(key=lambda t: t[:2])
    return tuple(c for _, _, c in out)


def find_triplets(g: EmbeddedGraph) -> tuple[Triplet, ...]:
    """Clockwise consecutive outer triples (a, b, c) with a, c joined only via b.

    Only the outline vertices' rows are read: b, on the outline between
    them, is a common neighbour of a and c, so they are joined only via
    b iff c is no neighbour of a and the two share exactly one neighbour.
    """
    outer = g.outer
    nbrs = [set(g.rotation[v]) for v in outer]
    k = len(outer)
    return tuple(
        Triplet(a, outer[(i + 1) % k], c)
        for i, (a, c) in enumerate(zip(outer, outer[2:] + outer[:2]))
        if c not in nbrs[i] and len(nbrs[i] & nbrs[(i + 2) % k]) == 1
    )


class NecessaryReport(NamedTuple):
    cips: tuple[Cip, ...]
    triplets: tuple[Triplet, ...]

    @property
    def cip_count(self) -> int:
        return len(self.cips)

    @property
    def ok(self) -> bool:
        return self.cip_count <= 5 and bool(self.triplets)


def necessary_conditions(g: EmbeddedGraph) -> NecessaryReport:
    """At most five CIPs and at least one admissible triplet."""
    return NecessaryReport(cips=find_cips(g), triplets=find_triplets(g))
