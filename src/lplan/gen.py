"""Deterministic random PTPGs, for `lplan gen` and for tests.

A graph grows from a triangle by attaching one vertex at a time over a
random outer arc of two to four vertices, on plain rotation lists; it is
built, and so checked, once.  Then separating triangles are flipped away
and the result is checked with validate_ptpg.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .boundary import find_cips
from .graph import EmbeddedGraph, VertexId, edge_key, find_separating_triangles, validate_ptpg
from .paths import attach_vertex

_GEN_ATTEMPTS = 128
_REPAIR_ROUNDS = 64


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


def flip_interior_edge(g: EmbeddedGraph, u: VertexId, v: VertexId) -> EmbeddedGraph | None:
    """Replace diagonal (u, v) of its two incident triangles by the other one.

    Returns None when the flip is not available: boundary edge, shared
    apex, apex pair already adjacent, or an endpoint that would drop
    below triangulation degree.
    """
    e = edge_key(u, v)
    if e not in g.edges:
        return None
    pos = g.outer_pos
    if u in pos and v in pos:
        n = len(g.outer)
        if (pos[u] + 1) % n == pos[v] or (pos[v] + 1) % n == pos[u]:
            return None
    fu, fv = g._face[g._turn[v][u]], g._face[g._turn[u][v]]  # the faces of darts u->v, v->u
    if g.outer_face_index in (fu, fv):
        return None
    p = next(w for w in g.faces[fu] if w not in (u, v))
    q = next(w for w in g.faces[fv] if w not in (u, v))
    if p == q or q in g.adj[p]:
        return None
    for end in (u, v):
        # An interior vertex of degree 3 would sit inside the triangle of
        # its own neighbours, so never flip below degree 4 there.
        floor = 2 if end in g.outer_pos else 4
        if len(g.adj[end]) - 1 < floor:
            return None
    rot = {w: list(ns) for w, ns in g.rotation.items()}
    rot[u].remove(v)
    rot[v].remove(u)
    rot[p].insert(rot[p].index(v) + 1, q)
    rot[q].insert(rot[q].index(u) + 1, p)
    return EmbeddedGraph(
        rotation={w: tuple(ns) for w, ns in rot.items()}, outer=g.outer, labels=g.labels
    )


def _repair(g: EmbeddedGraph) -> EmbeddedGraph | None:
    for _ in range(_REPAIR_ROUNDS):
        bad = find_separating_triangles(g)
        if not bad:
            return g
        tri = bad[0]
        pairs = [(tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])]
        for u, v in pairs:
            g2 = flip_interior_edge(g, u, v)
            if g2 is not None:
                g = g2
                break
        else:
            return None
    return None


def _generate_once(n: int, seed: int) -> EmbeddedGraph | None:
    rng = random.Random(seed)
    rot = {1: [2, 3], 2: [3, 1], 3: [1, 2]}
    outer = [1, 2, 3]
    while len(rot) < n:
        outer = _grow_once(rot, outer, rng)
    g = _repair(
        EmbeddedGraph(rotation={v: tuple(ns) for v, ns in rot.items()}, outer=tuple(outer))
    )
    if g is None or not validate_ptpg(g).verdict:
        return None
    return g


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
