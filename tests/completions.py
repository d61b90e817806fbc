"""Hand-sized four-completed graphs for exhaustive labeling checks."""

from __future__ import annotations

from lplan.graph import EmbeddedGraph
from lplan.paths import AugmentedGraph, four_completion


def triangle() -> EmbeddedGraph:
    return EmbeddedGraph(
        rotation={1: (2, 3), 2: (3, 1), 3: (1, 2)},
        outer=(1, 2, 3),
    )


def quad_with_chord() -> EmbeddedGraph:
    # outer square 1,2,3,4 clockwise, chord (1,3)
    return EmbeddedGraph(
        rotation={1: (2, 3, 4), 2: (3, 1), 3: (4, 1, 2), 4: (1, 3)},
        outer=(1, 2, 3, 4),
    )


def tiny_inputs() -> list[tuple[EmbeddedGraph, tuple[tuple[int, ...], ...]]]:
    """(graph, pole paths Q1..Q4) for each tiny completion."""
    out = []
    tri = triangle()
    for qpaths in (
        ((1, 2), (2, 3), (3, 1), (1,)),
        ((1, 2), (2, 3), (3,), (3, 1)),
        ((1, 2), (2,), (2, 3), (3, 1)),
        ((2, 3), (3, 1), (1, 2), (2,)),
        ((2, 3), (3,), (3, 1), (1, 2)),
    ):
        out.append((tri, qpaths))
    # Paths that cover 1,2,3 or 3,4,1 in one sweep would close a separating
    # triangle with the chord, so the quad variants stay clear of those arcs.
    quad = quad_with_chord()
    for qpaths in (
        ((1, 2), (2, 3), (3, 4), (4, 1)),
        ((2, 3), (3, 4), (4, 1), (1, 2)),
        ((3, 4), (4, 1), (1, 2), (2, 3)),
        ((1, 2), (2, 3, 4), (4, 1), (1,)),
        ((1, 2), (2, 3, 4), (4,), (4, 1)),
        ((4, 1), (1, 2), (2, 3, 4), (4,)),
        ((2, 3, 4), (4, 1), (1, 2), (2,)),
    ):
        out.append((quad, qpaths))
    return out


def tiny_completions() -> list[AugmentedGraph]:
    """At least ten completions, none with more than six interior edges."""
    return [four_completion(g, qpaths) for g, qpaths in tiny_inputs()]
