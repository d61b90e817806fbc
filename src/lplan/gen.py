"""Deterministic random PTPGs, for `lplan gen` and for tests.

A graph grows from a triangle by attaching one vertex at a time over a
random outer arc of two to four vertices, then separating triangles are
flipped away and the result is checked with validate_ptpg.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .boundary import find_cips
from .graph import EmbeddedGraph, VertexId, edge_key, find_separating_triangles, validate_ptpg
from .paths import attach_outside

_GEN_ATTEMPTS = 128
_REPAIR_ROUNDS = 64


class GenerationFailed(RuntimeError):
    pass


@dataclass(frozen=True)
class GenSpec:
    n: int
    seed: int
    cip_target: int | None = None


def _triangle() -> EmbeddedGraph:
    return EmbeddedGraph(
        rotation={1: (2, 3), 2: (3, 1), 3: (1, 2)}, outer=(1, 2, 3), labels={}
    )


def _grow_once(g: EmbeddedGraph, rng: random.Random) -> EmbeddedGraph:
    n = len(g.outer)
    arcs = []
    for start in range(n):
        for length in (2, 3, 4):
            if length > n:
                continue
            arc = tuple(g.outer[(start + k) % n] for k in range(length))
            # Skip arcs whose non-consecutive vertices are already adjacent:
            # the new apex would close a separating triangle over the arc.
            clean = all(
                arc[j] not in g.adj[arc[i]]
                for i in range(length)
                for j in range(i + 2, length)
            )
            if clean:
                arcs.append(arc)
    arc = arcs[rng.randrange(len(arcs))]
    return attach_outside(g, arc, max(g.vertices) + 1)


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
        floor = 2 if end in g.outer_set else 4
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
    g = _triangle()
    while len(g.vertices) < n:
        g = _grow_once(g, rng)
    g = _repair(g)
    if g is None or not validate_ptpg(g).verdict:
        return None
    return g


def generate_ptpg(spec: GenSpec) -> EmbeddedGraph:
    """Deterministic random PTPG with spec.n vertices.

    With cip_target set, nearby derived seeds are scanned for a graph
    with exactly that many corner implying paths.
    """
    if spec.n < 3:
        raise ValueError("need at least three vertices")
    for attempt in range(_GEN_ATTEMPTS):
        g = _generate_once(spec.n, (spec.seed + 0x9E3779B1 * attempt) & 0x7FFFFFFF)
        if g is None:
            continue
        if spec.cip_target is None or len(find_cips(g)) == spec.cip_target:
            return g
    raise GenerationFailed(f"no graph for n={spec.n} seed={spec.seed} cips={spec.cip_target}")
