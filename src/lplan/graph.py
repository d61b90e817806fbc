"""Combinatorial embeddings of planar graphs and the PTPG validity checks.

A graph is given by clockwise rotation lists plus the outer cycle in
clockwise order.  Faces are recovered by the usual dart-walk
(walk_darts): the dart (u, v) continues with (v, w) where w follows u in
the rotation at v.  With clockwise rotations this walks interior faces
counterclockwise and the outer face clockwise.  The same walk labels the
wall segments of a floor plan (layout.rfp_from_rel).

Every EmbeddedGraph is checked once, when it is built.  The rotation
must be symmetric and simple, and the graph connected (one depth-first
pass): only then does Euler's count V - E + F = 2 certify a sphere, as
a torus embedding plus a separate triangle also counts 2.  Everything
else is read off the one walk: Euler's count, the outer face (the face
of the dart outer[0] -> outer[1]), the flood fill of faces_inside_cycle
(which crosses an edge to the face of its reverse dart) and the
separating triangles (the 3-cycles that are not face walks).  The
canonical faces are computed only when something reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence


VertexId = int
Edge = tuple[VertexId, VertexId]
Dart = tuple[VertexId, VertexId]


class InconsistentEmbedding(ValueError):
    """Rotation system, outer cycle and sphere topology disagree."""


def edge_key(u: VertexId, v: VertexId) -> Edge:
    return (u, v) if u < v else (v, u)


def rotate_min(seq: Sequence[VertexId]) -> tuple[VertexId, ...]:
    """Canonical cyclic form: rotate so the smallest element is first."""
    if not seq:
        return ()
    k = seq.index(min(seq))
    return tuple(seq[k:]) + tuple(seq[:k])


def cyclic_eq(a: Sequence[VertexId], b: Sequence[VertexId]) -> bool:
    return len(a) == len(b) and rotate_min(a) == rotate_min(b)


def walk_darts(
    rotation: Mapping[VertexId, Sequence[VertexId]],
) -> tuple[list[list[VertexId]], dict[Dart, int]]:
    """Every face walk of a rotation system and the face index of every dart.

    Walks start at the first unvisited dart in vertex order and list the
    tail of each dart.  The rotation must be symmetric.
    """
    succ: dict[Dart, Dart] = {}
    for v, nbrs in rotation.items():
        k = len(nbrs)
        for i, u in enumerate(nbrs):
            succ[(u, v)] = (v, nbrs[(i + 1) % k])
    face: dict[Dart, int] = {}
    walks: list[list[VertexId]] = []
    for v0 in sorted(rotation):
        for u0 in rotation[v0]:
            dart = (v0, u0)
            if dart in face:
                continue
            fi = len(walks)
            walk: list[VertexId] = []
            while dart not in face:
                face[dart] = fi
                walk.append(dart[0])
                dart = succ[dart]
            if dart != (v0, u0):
                raise InconsistentEmbedding("face walk did not close")
            walks.append(walk)
    return walks, face


def _is_connected(rotation: Mapping[VertexId, Sequence[VertexId]]) -> bool:
    start = next(iter(rotation))
    seen = {start}
    stack = [start]
    while stack:
        for u in rotation[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(rotation)


@dataclass(frozen=True)
class EmbeddedGraph:
    """Immutable embedded planar graph.

    rotation maps every vertex to its neighbors in clockwise order,
    outer is the outer face in clockwise order.  labels are optional
    display names kept for round-tripping documents; algorithms only
    ever see the integer ids.
    """

    rotation: Mapping[VertexId, tuple[VertexId, ...]]
    outer: tuple[VertexId, ...]
    labels: Mapping[VertexId, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        rot = {int(v): tuple(int(u) for u in nbrs) for v, nbrs in self.rotation.items()}
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "outer", tuple(int(v) for v in self.outer))
        object.__setattr__(self, "labels", dict(self.labels))
        self._check()

    def _check(self) -> None:
        rot = self.rotation
        for v, nbrs in rot.items():
            if v in nbrs:
                raise InconsistentEmbedding(f"loop at vertex {v}")
            if len(set(nbrs)) != len(nbrs):
                raise InconsistentEmbedding(f"repeated neighbor at vertex {v}")
            for u in nbrs:
                if u not in rot or v not in rot[u]:
                    raise InconsistentEmbedding(f"edge ({v},{u}) is not symmetric")
        if len(self.outer) < 3:
            raise InconsistentEmbedding("outer cycle needs at least 3 vertices")
        if len(set(self.outer)) != len(self.outer):
            raise InconsistentEmbedding("outer cycle repeats a vertex")
        for i, v in enumerate(self.outer):
            u = self.outer[(i + 1) % len(self.outer)]
            if v not in rot or u not in rot[v]:
                raise InconsistentEmbedding(f"outer edge ({v},{u}) missing")
        # Euler's count alone cannot tell the sphere: over two components it
        # sums, so a torus embedding plus a plane triangle also gives 2.
        if not _is_connected(rot):
            raise InconsistentEmbedding("graph is not connected")
        walks = self._walk[0]
        if len(rot) - len(self.edges) + len(walks) != 2:
            raise InconsistentEmbedding("rotation system is not planar (Euler check)")
        # A dart lies on one face only, so no other face can match the outer cycle.
        if not cyclic_eq(walks[self.outer_face_index], self.outer):
            raise InconsistentEmbedding("outer cycle does not bound exactly one face")

    # -- derived structure ------------------------------------------------

    @cached_property
    def vertices(self) -> tuple[VertexId, ...]:
        return tuple(sorted(self.rotation))

    @cached_property
    def adj(self) -> dict[VertexId, frozenset[VertexId]]:
        return {v: frozenset(nbrs) for v, nbrs in self.rotation.items()}

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(edge_key(u, v) for u, nbrs in self.rotation.items() for v in nbrs)

    @cached_property
    def _walk(self) -> tuple[list[list[VertexId]], dict[Dart, int]]:
        return walk_darts(self.rotation)

    @cached_property
    def faces(self) -> tuple[tuple[VertexId, ...], ...]:
        return tuple(rotate_min(walk) for walk in self._walk[0])

    @cached_property
    def outer_face_index(self) -> int:
        return self.dart_face[self.outer[:2]]

    @cached_property
    def inner_faces(self) -> tuple[tuple[VertexId, ...], ...]:
        k = self.outer_face_index
        return tuple(f for i, f in enumerate(self.faces) if i != k)

    @cached_property
    def dart_face(self) -> dict[Dart, int]:
        """Face index on the left of each dart walk (trace containing the dart)."""
        return self._walk[1]

    @cached_property
    def outer_set(self) -> frozenset[VertexId]:
        return frozenset(self.outer)

    @cached_property
    def outer_pos(self) -> dict[VertexId, int]:
        return {v: i for i, v in enumerate(self.outer)}


def common_neighbors(g: EmbeddedGraph, u: VertexId, v: VertexId) -> tuple[VertexId, ...]:
    return tuple(sorted(g.adj[u] & g.adj[v]))


def is_biconnected(g: EmbeddedGraph) -> bool:
    verts = g.vertices
    if len(verts) < 3:
        return False
    root = verts[0]
    disc: dict[VertexId, int] = {}
    low: dict[VertexId, int] = {}
    parent: dict[VertexId, VertexId | None] = {root: None}
    order = 0
    root_children = 0
    stack: list[tuple[VertexId, Iterable[VertexId]]] = [(root, iter(g.rotation[root]))]
    disc[root] = low[root] = order
    order += 1
    while stack:
        v, it = stack[-1]
        advanced = False
        for w in it:
            if w not in disc:
                parent[w] = v
                disc[w] = low[w] = order
                order += 1
                if v == root:
                    root_children += 1
                stack.append((w, iter(g.rotation[w])))
                advanced = True
                break
            elif w != parent[v]:
                low[v] = min(low[v], disc[w])
        if not advanced:
            stack.pop()
            p = parent[v]
            if p is not None:
                low[p] = min(low[p], low[v])
                if p != root and low[v] >= disc[p]:
                    return False
    return root_children <= 1


def faces_inside_cycle(g: EmbeddedGraph, cycle: Sequence[VertexId]) -> frozenset[int]:
    """Indices of faces strictly inside a simple cycle of the embedding."""
    cyc_edges = {edge_key(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))}
    # Flood fill over faces from the outer one; an edge off the cycle leads
    # to the face of its reverse dart.
    walks, dart_face = g._walk
    reached = {g.outer_face_index}
    frontier = [g.outer_face_index]
    while frontier:
        walk = walks[frontier.pop()]
        for u, v in zip(walk, walk[1:] + walk[:1]):
            fj = dart_face[(v, u)]
            if fj not in reached and edge_key(u, v) not in cyc_edges:
                reached.add(fj)
                frontier.append(fj)
    return frozenset(fi for fi in range(len(walks)) if fi not in reached)


def _triangles(g: EmbeddedGraph) -> list[tuple[VertexId, VertexId, VertexId]]:
    adj = g.adj
    out = []
    for u, nu in adj.items():
        for v in nu:
            if v > u:
                out.extend((u, v, w) for w in nu & adj[v] if w > v)
    out.sort()
    return out


def find_separating_triangles(g: EmbeddedGraph) -> tuple[tuple[VertexId, VertexId, VertexId], ...]:
    """3-cycles with at least one vertex strictly inside, sorted ascending.

    In a simple connected plane graph a 3-cycle with no vertex on one side
    bounds a face there, so the separating ones are the 3-cycles that are
    not face walks.
    """
    face_set = {tuple(sorted(walk)) for walk in g._walk[0] if len(walk) == 3}
    return tuple(tri for tri in _triangles(g) if tri not in face_set)


@dataclass(frozen=True)
class PtpgReport:
    is_biconnected: bool
    nontriangular_interior_faces: tuple[tuple[VertexId, ...], ...]
    separating_triangles: tuple[tuple[VertexId, VertexId, VertexId], ...]

    @property
    def verdict(self) -> bool:
        return (
            self.is_biconnected
            and not self.nontriangular_interior_faces
            and not self.separating_triangles
        )


def validate_ptpg(g: EmbeddedGraph) -> PtpgReport:
    """Check the properly-triangulated-planar conditions on an embedded graph."""
    k = g.outer_face_index
    bad_faces = tuple(rotate_min(w) for i, w in enumerate(g._walk[0]) if len(w) != 3 and i != k)
    return PtpgReport(
        is_biconnected=is_biconnected(g),
        nontriangular_interior_faces=bad_faces,
        separating_triangles=find_separating_triangles(g),
    )
