"""Hand-built fixture graphs and floor plans used by the tests.

Graphs are specified by plane coordinates; the rotation system is
derived by sorting each vertex's neighbours clockwise from north.
That keeps the fixtures easy to audit on paper and guarantees the
stored embedding matches the drawing.  five_cip_refusal is the one
generated graph.
"""

from __future__ import annotations

import math

from lplan.gen import GenSpec, generate_ptpg
from lplan.graph import EmbeddedGraph, VertexId
from lplan.layout import FloorPlan, Rect

Coord = tuple[float, float]


def embed_by_coords(
    coords: dict[VertexId, Coord],
    edges: list[tuple[VertexId, VertexId]],
    outer: tuple[VertexId, ...],
    labels: dict[VertexId, str] | None = None,
) -> EmbeddedGraph:
    adj: dict[VertexId, list[VertexId]] = {v: [] for v in coords}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def bearing(v: VertexId, w: VertexId) -> float:
        (x0, y0), (x1, y1) = coords[v], coords[w]
        return math.atan2(x1 - x0, y1 - y0)

    rotation = {
        v: tuple(sorted(nbrs, key=lambda w: bearing(v, w))) for v, nbrs in adj.items()
    }
    return EmbeddedGraph(rotation=rotation, outer=outer, labels=labels or {})


def label_map(g: EmbeddedGraph) -> dict[str, VertexId]:
    return {name: v for v, name in g.labels.items()}


def _letters(n: int) -> dict[VertexId, str]:
    return {i + 1: chr(ord("a") + i) for i in range(n)}


def pentagon_with_pocket() -> EmbeddedGraph:
    """Pentagon boundary, two CIPs, the running example for L planning."""
    a, b, c, d, e, f, g = range(1, 8)
    coords = {
        a: (0, 3), b: (3, 3), c: (4, 0), d: (2, -1), e: (-1, 0),
        f: (1, 2), g: (1.5, 0.5),
    }
    edges = [
        (a, b), (b, c), (c, d), (d, e), (e, a), (b, d),
        (a, f), (b, f), (e, f), (f, g), (b, g), (d, g), (e, g),
    ]
    return embed_by_coords(coords, edges, (a, b, c, d, e), _letters(7))


def hexagon_ring() -> EmbeddedGraph:
    """Hexagon boundary, inner 3-ring, no CIPs; exercises label flipping."""
    a, b, c, d, e, f, g, h, i = range(1, 10)
    coords = {
        a: (-1, 3), b: (2, 3), c: (3.5, 0), d: (2, -3), e: (-1, -3), f: (-2.5, 0),
        g: (0, 1.2), h: (1.2, -0.6), i: (-1.2, -0.6),
    }
    edges = [
        (a, b), (b, c), (c, d), (d, e), (e, f), (f, a),
        (g, f), (g, a), (g, b), (h, b), (h, c), (h, d), (i, d), (i, e), (i, f),
        (g, h), (h, i), (i, g),
    ]
    return embed_by_coords(coords, edges, (a, b, c, d, e, f), _letters(9))


def _polygon(n: int, radius: float = 1.0) -> dict[VertexId, Coord]:
    step = 2 * math.pi / n
    return {
        k + 1: (radius * math.sin(k * step), radius * math.cos(k * step))
        for k in range(n)
    }


def four_cip_eleven_gon() -> EmbeddedGraph:
    """Eleven-gon with four CIPs; the four-split corner forcings all fire."""
    coords = _polygon(11)
    w, z = 12, 13
    ang = math.radians(343)
    coords[w] = (0.75 * math.sin(ang), 0.75 * math.cos(ang))
    coords[z] = (0.0, -0.3)
    edges = [(k, k % 11 + 1) for k in range(1, 12)]
    edges += [(4, 6), (6, 8), (8, 10), (10, 2), (10, 3)]
    edges += [(w, 10), (w, 11), (w, 1), (w, 2)]
    edges += [(z, 3), (z, 4), (z, 6), (z, 8), (z, 10)]
    return embed_by_coords(coords, edges, tuple(range(1, 12)))


def five_cip_thirteen_gon() -> EmbeddedGraph:
    """Thirteen-gon with five CIPs; it plans at every admissible corner but (1, 2, 3)."""
    coords = _polygon(13)
    z = 14
    coords[z] = (-0.07, -0.22)
    edges = [(k, k % 13 + 1) for k in range(1, 14)]
    edges += [(13, 2), (3, 5), (5, 7), (7, 9), (10, 12), (12, 3), (12, 2)]
    edges += [(z, 3), (z, 5), (z, 7), (z, 9), (z, 10), (z, 12)]
    return embed_by_coords(coords, edges, tuple(range(1, 14)))


FIVE_CIP_CORNER = (3, 9, 13)


def five_cip_refusal() -> EmbeddedGraph:
    """generate_ptpg(GenSpec(14, 57)): five CIPs and no path set at FIVE_CIP_CORNER.

    Five CIPs fix the splits, and at that corner the set they fix has the
    shortcut ShortcutP2Side(1, 3).  The refusal rests on
    check_path_conditions alone; the graph plans at five of its seven corners.
    """
    return generate_ptpg(GenSpec(14, 57))


def wheel4() -> EmbeddedGraph:
    """Four-wheel: every boundary pair has two common neighbours, no triplet."""
    coords = {1: (0, 1), 2: (1, 0), 3: (0, -1), 4: (-1, 0), 5: (0, 0)}
    edges = [(1, 2), (2, 3), (3, 4), (4, 1), (5, 1), (5, 2), (5, 3), (5, 4)]
    return embed_by_coords(coords, edges, (1, 2, 3, 4))


def six_cip_twelve_gon() -> EmbeddedGraph:
    """Twelve-gon with six CIPs: too many for any rectangular or L plan."""
    coords = _polygon(12)
    coords[13] = (0.0, 0.0)
    edges = [(k, k % 12 + 1) for k in range(1, 13)]
    edges += [(1, 3), (3, 5), (5, 7), (7, 9), (9, 11), (11, 1)]
    edges += [(13, k) for k in (1, 3, 5, 7, 9, 11)]
    return embed_by_coords(coords, edges, tuple(range(1, 13)))


def two_fan_hexagon() -> EmbeddedGraph:
    """Hexagon split by one chord into two fans; vertex 8 has degree four."""
    coords = {
        1: (0, 2), 2: (1.73, 1), 3: (1.73, -1), 4: (0, -2), 5: (-1.73, -1),
        6: (-1.73, 1), 7: (0, 0.8), 8: (0, -0.8),
    }
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (6, 3)]
    edges += [(7, 6), (7, 1), (7, 2), (7, 3)]
    edges += [(8, 3), (8, 4), (8, 5), (8, 6)]
    return embed_by_coords(coords, edges, tuple(range(1, 7)))


def chorded_hexagon() -> EmbeddedGraph:
    """Hexagon with chord (b,f) cutting off a, inner triangle g-h-i.

    The freshly constructed labeling here tends to tie the corner edges,
    so planning this graph exercises the flipping stage.
    """
    a, b, c, d, e, f, g, h, i = range(1, 10)
    coords = {
        a: (-1, 3), b: (2, 3), c: (3.5, 0), d: (2, -3), e: (-1, -3), f: (-2.5, 0),
        g: (0, 0.9), h: (1.2, -1), i: (-1.2, -1),
    }
    edges = [
        (a, b), (b, c), (c, d), (d, e), (e, f), (f, a), (b, f),
        (g, b), (g, c), (g, f), (h, c), (h, d), (i, d), (i, e), (i, f),
        (g, h), (h, i), (i, g),
    ]
    return embed_by_coords(coords, edges, (a, b, c, d, e, f), _letters(9))


def nested_triangle() -> EmbeddedGraph:
    """Triangle in a triangle: (2, 4, 6) is separating, so not a valid input."""
    coords = {
        1: (0, 4), 3: (4, -2), 5: (-4, -2),
        2: (1.6, 0.8), 4: (0, -1.6), 6: (-1.6, 0.8), 7: (0, 0),
    }
    edges = [
        (1, 3), (3, 5), (5, 1), (2, 4), (4, 6), (6, 2),
        (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1),
        (7, 2), (7, 4), (7, 6),
    ]
    return embed_by_coords(coords, edges, (1, 3, 5))


def octagon_with_fan() -> EmbeddedGraph:
    """Octagon with a five-arc CIP; used for path condition violations."""
    coords = _polygon(8)
    coords[9] = (0.0, -0.45)
    edges = [(k, k % 8 + 1) for k in range(1, 9)]
    edges += [(3, 7), (8, 2), (7, 2)]
    edges += [(9, k) for k in (3, 4, 5, 6, 7)]
    return embed_by_coords(coords, edges, tuple(range(1, 9)))


def trivial_l_plan() -> FloorPlan:
    """L-shaped outline whose corner walk is too short: stretchable flat."""
    rects = {
        1: Rect(0, 0, 1, 2),
        2: Rect(1, 1, 2, 2),
        3: Rect(1, 0, 3, 1),
    }
    return FloorPlan(rects=rects, width=3, height=2, labels={1: "D", 2: "T", 3: "M"})


def staircase_l_plan() -> FloorPlan:
    """L-shaped outline with a genuine bend in the corner wall walk."""
    rects = {
        1: Rect(0, 2, 1, 3),
        2: Rect(0, 1, 1, 2),
        3: Rect(0, 0, 2, 1),
        4: Rect(2, 0, 3, 1),
    }
    labels = {1: "A1", 2: "A2", 3: "B", 4: "C"}
    return FloorPlan(rects=rects, width=3, height=3, labels=labels)
