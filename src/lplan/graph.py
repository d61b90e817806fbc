"""Combinatorial embeddings of planar graphs and the PTPG validity checks.

A graph is given by clockwise rotation lists plus the outer cycle in
clockwise order.  With the vertices in ascending order, dart off[v] + i
runs from v to rotation[v][i].  Faces are recovered by the usual dart
walk: (u, v) continues with (v, w) where w follows u in the rotation at
v, so with clockwise rotations interior faces are walked
counterclockwise and the outer face clockwise.  The position map
turn[v] = {u: off[v] + (i + 1) mod deg v} for u = rotation[v][i] names
that next dart in one lookup; the walk runs over flat lists indexed by
dart number, each face from its lowest unvisited dart.  The same walk
labels the wall segments of a floor plan (layout.rfp_from_rel).

Every EmbeddedGraph is checked once, when it is built.  The keys of
turn[v] are v's neighbours, so the loop, repeat and symmetry tests cost
O(1) per dart.  The graph must be connected (one depth-first pass): only
then does Euler's count V - E + F = 2, with E the darts over two,
certify a sphere, as a torus embedding plus a separate triangle also
counts 2.  The rest is read off the one walk: the outer face (the face
of the dart outer[0] -> outer[1]), 2-connectivity (a connected plane
graph on three or more vertices is 2-connected iff no face walk repeats
a vertex; Diestel, Graph Theory, Prop. 4.2.6), the flood fill of
faces_inside_cycle and the separating triangles (the 3-cycles that are
not face walks).  The dart -> face map and the canonical faces are built
only when something reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Mapping, Sequence


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


def _number_darts(
    rotation: Mapping[VertexId, Sequence[VertexId]], verts: Sequence[VertexId]
) -> tuple[dict[VertexId, dict[VertexId, int]], list[VertexId], list[VertexId]]:
    """The position map turn and the tail and head of every dart, numbered over verts."""
    turn: dict[VertexId, dict[VertexId, int]] = {}
    tail: list[VertexId] = []
    head: list[VertexId] = []
    for v in verts:
        nbrs = rotation[v]
        o, k = len(head), len(nbrs)
        turn[v] = dict(zip(nbrs, chain(range(o + 1, o + k), (o,))))
        tail += [v] * k
        head += nbrs
    return turn, tail, head


def _walk(
    turn: Mapping[VertexId, Mapping[VertexId, int]], tail: list[VertexId], head: list[VertexId]
) -> tuple[list[int], list[list[VertexId]]]:
    """The face index of every dart, and every face walk as the tails of its darts."""
    face = [-1] * len(head)
    walks: list[list[VertexId]] = []
    for d0 in range(len(head)):
        if face[d0] >= 0:
            continue
        fi = len(walks)
        walk: list[VertexId] = []
        d = d0
        while face[d] < 0:
            face[d] = fi
            v = tail[d]
            walk.append(v)
            d = turn[head[d]][v]
        if d != d0:
            raise InconsistentEmbedding("face walk did not close")
        walks.append(walk)
    return face, walks


def _dart_faces(walks: list[list[VertexId]]) -> dict[Dart, int]:
    return {(u, v): fi for fi, w in enumerate(walks) for u, v in zip(w, w[1:] + w[:1])}


def walk_darts(
    rotation: Mapping[VertexId, Sequence[VertexId]],
) -> tuple[list[list[VertexId]], dict[Dart, int]]:
    """Every face walk of a rotation system and the face index of every dart.

    Walks start at the first unvisited dart in vertex order and list the
    tail of each dart.  The rotation must be symmetric.
    """
    turn, tail, head = _number_darts(rotation, sorted(rotation))
    walks = _walk(turn, tail, head)[1]
    return walks, _dart_faces(walks)


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
        rot = {int(v): tuple(map(int, nbrs)) for v, nbrs in self.rotation.items()}
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "outer", tuple(int(v) for v in self.outer))
        object.__setattr__(self, "labels", dict(self.labels))
        self._check()

    def _check(self) -> None:
        rot = self.rotation
        turn, tail, head = _number_darts(rot, self.vertices)
        for v, nbrs in rot.items():
            if v in turn[v]:
                raise InconsistentEmbedding(f"loop at vertex {v}")
            if len(turn[v]) != len(nbrs):
                raise InconsistentEmbedding(f"repeated neighbor at vertex {v}")
            for u in nbrs:
                if u not in turn or v not in turn[u]:
                    raise InconsistentEmbedding(f"edge ({v},{u}) is not symmetric")
        if len(self.outer) < 3:
            raise InconsistentEmbedding("outer cycle needs at least 3 vertices")
        if len(set(self.outer)) != len(self.outer):
            raise InconsistentEmbedding("outer cycle repeats a vertex")
        for i, v in enumerate(self.outer):
            u = self.outer[(i + 1) % len(self.outer)]
            if v not in turn or u not in turn[v]:
                raise InconsistentEmbedding(f"outer edge ({v},{u}) missing")
        # Euler's count alone cannot tell the sphere: over two components it
        # sums, so a torus embedding plus a plane triangle also gives 2.
        if not _is_connected(rot):
            raise InconsistentEmbedding("graph is not connected")
        face, walks = _walk(turn, tail, head)
        if len(rot) - len(head) // 2 + len(walks) != 2:
            raise InconsistentEmbedding("rotation system is not planar (Euler check)")
        object.__setattr__(self, "_turn", turn)
        object.__setattr__(self, "_face", face)
        object.__setattr__(self, "_walks", walks)
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
    def faces(self) -> tuple[tuple[VertexId, ...], ...]:
        return tuple(rotate_min(walk) for walk in self._walks)

    @cached_property
    def outer_face_index(self) -> int:
        # The dart that follows outer[0] -> outer[1] lies on the same face.
        return self._face[self._turn[self.outer[1]][self.outer[0]]]

    @cached_property
    def inner_faces(self) -> tuple[tuple[VertexId, ...], ...]:
        k = self.outer_face_index
        return tuple(f for i, f in enumerate(self.faces) if i != k)

    @cached_property
    def dart_face(self) -> dict[Dart, int]:
        """Face index on the left of each dart walk (trace containing the dart)."""
        return _dart_faces(self._walks)

    @cached_property
    def outer_set(self) -> frozenset[VertexId]:
        return frozenset(self.outer)

    @cached_property
    def outer_pos(self) -> dict[VertexId, int]:
        return {v: i for i, v in enumerate(self.outer)}


def common_neighbors(g: EmbeddedGraph, u: VertexId, v: VertexId) -> tuple[VertexId, ...]:
    return tuple(sorted(g.adj[u] & g.adj[v]))


def is_biconnected(g: EmbeddedGraph) -> bool:
    """No face walk repeats a vertex; in a simple graph one of three darts or fewer cannot."""
    return all(len(set(walk)) == len(walk) for walk in g._walks if len(walk) > 3)


def faces_inside_cycle(g: EmbeddedGraph, cycle: Sequence[VertexId]) -> frozenset[int]:
    """Indices of faces strictly inside a simple cycle of the embedding."""
    cyc_edges = {edge_key(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))}
    # Flood fill over faces from the outer one; an edge off the cycle leads
    # to the face of its reverse dart.
    walks, dart_face = g._walks, g.dart_face
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


def find_separating_triangles(g: EmbeddedGraph) -> tuple[tuple[VertexId, VertexId, VertexId], ...]:
    """3-cycles with at least one vertex strictly inside, sorted ascending.

    In a simple connected plane graph a 3-cycle with no vertex on one side
    bounds a face there, so the separating ones are the 3-cycles that are
    not face walks.  A triangular face beside edge uv accounts for one
    common neighbour of u and v (both faces share one only in K3), so only
    an edge with more common neighbours than triangular faces beside it can
    lie on a separating triangle.
    """
    adj, turn, face, walks = g.adj, g._turn, g._face, g._walks
    tri = [len(walk) == 3 for walk in walks]
    found = []
    d = 0
    for u in g.vertices:
        au = adj[u]
        for v in g.rotation[u]:
            # dart d runs u -> v; turn[u][v] follows v -> u on that dart's face
            if v > u and len(au & adj[v]) > tri[face[d]] + tri[face[turn[u][v]]]:
                found.extend((u, v, w) for w in au & adj[v] if w > v)
            d += 1
    if not found:
        return ()
    face_set = {tuple(sorted(walk)) for walk in walks if len(walk) == 3}
    return tuple(sorted(t for t in found if t not in face_set))


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
    bad_faces = tuple(rotate_min(w) for i, w in enumerate(g._walks) if len(w) != 3 and i != k)
    return PtpgReport(
        is_biconnected=is_biconnected(g),
        nontriangular_interior_faces=bad_faces,
        separating_triangles=find_separating_triangles(g),
    )
