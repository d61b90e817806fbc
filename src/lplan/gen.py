"""Deterministic random PTPGs, for `lplan gen` and for tests.

A graph grows from a triangle by attaching one vertex at a time over a
random outer arc of two to four vertices, on plain rotation lists; it is
built, and so checked, once, and then checked with validate_ptpg.  It is
grown clean, not repaired: no two non-consecutive arc vertices are
adjacent, and every new edge meets the new vertex x, so every new
3-cycle is x plus two consecutive arc vertices, which is a face; and x
lies in the old outer face, inside no old 3-cycle.  So no step makes a
separating triangle.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .boundary import find_cips
from .graph import EmbeddedGraph, VertexId, validate_ptpg
from .paths import attach_vertex

_GEN_ATTEMPTS = 128


class GenerationFailed(RuntimeError):
    pass


class GenSpec(NamedTuple):
    n: int
    seed: int
    cip_target: int | None = None


def _grow_once(
    rot: dict[VertexId, list[VertexId]], outer: list[VertexId], rng: random.Random
) -> list[VertexId]:
    """Attach vertex len(rot) + 1 over a random clean outer arc; returns the new outer cycle.

    The candidates are the arcs of two to four consecutive outer vertices,
    by start and then length, whose non-consecutive vertices are not
    adjacent: the new apex would close a separating triangle over them.
    """
    n = len(outer)
    ring = outer + outer[:3]
    arcs = []
    for s in range(n):
        a, b, c, d = ring[s : s + 4]
        arcs.append((a, b))
        if c not in rot[a]:
            arcs.append((a, b, c))
            if n > 3 and d not in rot[a] and d not in rot[b]:
                arcs.append((a, b, c, d))
    arc = arcs[rng.randrange(len(arcs))]
    return attach_vertex(rot, outer, arc, len(rot) + 1)


def _generate_once(n: int, seed: int) -> EmbeddedGraph | None:
    rng = random.Random(seed)
    rot = {1: [2, 3], 2: [3, 1], 3: [1, 2]}
    outer = [1, 2, 3]
    while len(rot) < n:
        outer = _grow_once(rot, outer, rng)
    g = EmbeddedGraph(rotation={v: tuple(ns) for v, ns in rot.items()}, outer=tuple(outer))
    return g if validate_ptpg(g).verdict else None


def generate_ptpg(spec: GenSpec) -> EmbeddedGraph:
    """Deterministic random PTPG with spec.n vertices.

    With cip_target set, nearby derived seeds are scanned for a graph
    with exactly that many corner implying paths.  A chord has a CIP on
    each side, so no graph has exactly one, and a target of one or less
    than zero raises ValueError at once.
    """
    if spec.n < 3:
        raise ValueError("need at least three vertices")
    if spec.cip_target is not None and (spec.cip_target == 1 or spec.cip_target < 0):
        raise ValueError(f"no graph has {spec.cip_target} corner implying paths")
    for attempt in range(_GEN_ATTEMPTS):
        g = _generate_once(spec.n, (spec.seed + 0x9E3779B1 * attempt) & 0x7FFFFFFF)
        if g is None:
            continue
        if spec.cip_target is None or len(find_cips(g)) == spec.cip_target:
            return g
    raise GenerationFailed(f"no graph for n={spec.n} seed={spec.seed} cips={spec.cip_target}")
