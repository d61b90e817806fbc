"""Combinatorial embeddings of planar graphs and the PTPG validity checks.

A graph is given by clockwise rotation lists plus the outer cycle in
clockwise order.  With the vertices in ascending order, dart off[v] + i
runs from v to rotation[v][i].  Faces are recovered by the usual dart
walk: (u, v) continues with (v, w) where w follows u in the rotation at
v, so interior faces are walked counterclockwise and the outer face
clockwise.  The position map turn[v] = {u: off[v] + (i + 1) mod deg v}
for u = rotation[v][i] names that next dart in one lookup.  The
neighbours of v are read off rotation[v]; no second view of them is
kept.  The walk runs over the list of next darts, each face from its
lowest unvisited dart.

Every EmbeddedGraph built from rotation lists is checked once, when it
is built, and whole: a loop or a repeated neighbour shows in the sizes
of the turn rows, and a dart without its reverse stops the listing of
next darts with a KeyError; only then does the per-vertex loop run, to
name the first defect.  A connected graph is a sphere iff Euler's count
V - E + F = 2 holds (E the darts over two).  F is counted, not walked,
where the darts d with nxt(nxt(nxt(d))) = d, on triangular faces, and
the outer cycle's, if it bounds a face, are all the darts; the graph
keeps that triangle count and walks its faces when first read.  One
whose inner faces are all triangles is 2-connected (no face walk repeats
a vertex; Diestel, Graph Theory, Prop. 4.2.6), and the separating
triangles, the 3-cycles that are not face walks, exist iff the 3-cycles,
each u < v < w counted once as a common higher neighbour of an edge
u < v (Chiba and Nishizeki's forward listing, 1985), outnumber the
triangular faces.

extend derives a graph with vertices attached outside a checked one, as
the four-completion needs, and checks nothing: attach_vertex checks each
step, and refuses one that would close a separating triangle, so a PTPG
stays one and is never validated again.  Its darts are numbered and its
faces walked when first read, by the code a checked build runs, so its
dart numbers and walks equal those of a fresh build of the same
rotation; planning reads neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import contains, eq
from typing import Mapping, NamedTuple, Sequence


VertexId = int
Edge = tuple[VertexId, VertexId]


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
    """Whether a is b read from another start; exact when b repeats no vertex."""
    if len(a) != len(b):
        return False
    if not a:
        return True
    try:
        k = b.index(a[0])
    except ValueError:
        return False
    return tuple(a) == tuple(b[k:]) + tuple(b[:k])


def _number_darts(
    rotation: Mapping[VertexId, Sequence[VertexId]], verts: Sequence[VertexId]
) -> dict[VertexId, dict[VertexId, int]]:
    """The position map turn, with the darts numbered over verts."""
    turn, end = {}, 0
    for v in verts:
        nbrs = rotation[v]
        o, end = end, end + len(nbrs)
        turn[v] = row = dict(zip(nbrs, range(o + 1, end)))
        if nbrs:  # an isolated vertex has no darts
            row[nbrs[-1]] = o
    return turn


def _successors(turn: Mapping[VertexId, dict[VertexId, int]]) -> tuple[list[VertexId], list[int]]:
    """The tail of every dart, and the next dart on its face; a KeyError marks a one-sided dart."""
    tail = list(chain.from_iterable(map(repeat, turn, map(len, turn.values()))))
    rows = map(turn.__getitem__, chain.from_iterable(turn.values()))
    return tail, list(map(dict.__getitem__, rows, tail))


def _walk(tail: list[VertexId], nxt: list[int]) -> list[list[VertexId]]:
    """Every face walk as the tails of its darts."""
    seen = [False] * len(nxt)
    walks: list[list[VertexId]] = []
    for d0 in range(len(nxt)):
        if seen[d0]:
            continue
        walk: list[VertexId] = []
        d = d0
        while not seen[d]:
            seen[d] = True
            walk.append(tail[d])
            d = nxt[d]  # on a checked rotation nxt is a permutation: the walk closes at d0
        walks.append(walk)
    return walks


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


def _check_rotation(rot: Mapping[VertexId, Sequence[VertexId]], turn: Mapping) -> None:
    """Raise for the first loop, repeated neighbour or one-sided edge, in vertex order."""
    for v, nbrs in rot.items():
        if v in turn[v]:
            raise InconsistentEmbedding(f"loop at vertex {v}")
        if len(turn[v]) != len(nbrs):
            raise InconsistentEmbedding(f"repeated neighbor at vertex {v}")
        for u in nbrs:
            if u not in turn or v not in turn[u]:
                raise InconsistentEmbedding(f"edge ({v},{u}) is not symmetric")


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
        rot = dict(zip(self.rotation, map(tuple, self.rotation.values())))
        outer = tuple(self.outer)
        # type() is exact: True and 1.0 equal the id 1 but are not ids
        if not (
            {int}.issuperset(map(type, rot))
            and {int}.issuperset(map(type, chain.from_iterable(rot.values())))
            and {int}.issuperset(map(type, outer))
        ):
            raise InconsistentEmbedding("vertex ids must be of type int")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "labels", dict(self.labels))
        self._check()

    def _check(self) -> None:
        rot, outer = self.rotation, self.outer
        turn = _number_darts(rot, self.vertices)
        darts = sum(map(len, rot.values()))
        if sum(map(len, turn.values())) != darts or any(map(contains, turn.values(), turn)):
            _check_rotation(rot, turn)  # a repeated neighbour or a loop
        try:
            tail, nxt = _successors(turn)
        except KeyError:  # a dart without its reverse
            _check_rotation(rot, turn)
            raise
        if len(outer) < 3:
            raise InconsistentEmbedding("outer cycle needs at least 3 vertices")
        if len(set(outer)) != len(outer):
            raise InconsistentEmbedding("outer cycle repeats a vertex")
        nexts = outer[1:] + outer[:1]
        for v, u in zip(outer, nexts):
            if v not in turn or u not in turn[v]:
                raise InconsistentEmbedding(f"outer edge ({v},{u}) missing")
        # Euler's count alone cannot tell the sphere: over two components it
        # sums, so a torus embedding plus a plane triangle also gives 2.
        if not _is_connected(rot):
            raise InconsistentEmbedding("graph is not connected")
        # The outer cycle bounds a face iff the dart after each of its darts
        # a -> b runs from b to the vertex after b on the cycle.
        bounds = all(tail[nxt[turn[b][a]]] == c for a, b, c in zip(outer, nexts, nexts[1:] + nexts[:1]))
        tri = sum(map(eq, map(nxt.__getitem__, map(nxt.__getitem__, nxt)), range(darts))) // 3
        vars(self).update(_turn=turn, _tri_faces=tri)
        k = len(outer)  # the faces are the triangles and the outer face where they hold every dart
        faces = tri + (k != 3) if bounds and 3 * tri + k * (k != 3) == darts else len(self._walks)
        if len(rot) - darts // 2 + faces != 2:
            raise InconsistentEmbedding("rotation system is not planar (Euler check)")
        if not bounds:
            raise InconsistentEmbedding("outer cycle does not bound exactly one face")

    def extend(
        self,
        rows: Mapping[VertexId, Sequence[VertexId]],
        outer: Sequence[VertexId],
        labels: Mapping[VertexId, str],
    ) -> EmbeddedGraph:
        """This graph with vertices attached outside it, derived from its checked structure.

        rows holds the rotation of each new vertex, in the order attached,
        and the new rotation of each old vertex it meets; outer is the new
        outer cycle.  Each step must be one attach_vertex checked, so the
        result is not checked again.  Its darts are numbered and its faces
        walked when first read: planning reads only the rotation.
        """
        g = object.__new__(EmbeddedGraph)
        vars(g).update(
            rotation={**self.rotation, **{v: tuple(nbrs) for v, nbrs in rows.items()}},
            outer=tuple(outer),
            labels=dict(labels),
        )
        return g

    # -- derived structure ------------------------------------------------

    # A checked build sets _turn and _tri_faces in _check; otherwise these run when first read.

    @cached_property
    def _turn(self) -> dict[VertexId, dict[VertexId, int]]:
        return _number_darts(self.rotation, self.vertices)

    @cached_property
    def _walks(self) -> list[list[VertexId]]:
        return _walk(*_successors(self._turn))

    @cached_property
    def _tri_faces(self) -> int:
        return list(map(len, self._walks)).count(3)

    @cached_property
    def vertices(self) -> tuple[VertexId, ...]:
        return tuple(sorted(self.rotation))

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(edge_key(u, v) for u, nbrs in self.rotation.items() for v in nbrs)

    @cached_property
    def chords(self) -> tuple[Edge, ...]:
        """Edges joining two non-consecutive outer vertices, sorted ascending."""
        pos, k = self.outer_pos, len(self.outer)
        return tuple(sorted(
            (u, v)
            for u in self.outer
            for v in self.rotation[u]
            if v > u and v in pos and 1 < (pos[v] - pos[u]) % k < k - 1
        ))

    @cached_property
    def outer_pos(self) -> dict[VertexId, int]:
        return {v: i for i, v in enumerate(self.outer)}


def common_neighbors(g: EmbeddedGraph, u: VertexId, v: VertexId) -> tuple[VertexId, ...]:
    return tuple(sorted(set(g.rotation[u]).intersection(g.rotation[v])))


def find_separating_triangles(g: EmbeddedGraph) -> tuple[tuple[VertexId, VertexId, VertexId], ...]:
    """3-cycles with at least one vertex strictly inside, sorted ascending.

    In a simple connected plane graph a 3-cycle with no vertex on one side
    bounds a face there, so the separating ones are the 3-cycles that are
    not face walks.  Each triangular face is a 3-cycle, a distinct one but
    for K3's two, so the 3-cycles are listed only when they outnumber the
    triangular faces, whose count the graph keeps.
    """
    up = {v: {w for w in nbrs if w > v} for v, nbrs in g.rotation.items()}
    if _triangle_count(up) <= g._tri_faces:  # only K3 has fewer: its two faces are one 3-cycle
        return ()
    cycles = {(u, v, w) for u, hu in up.items() for v in hu for w in hu & up[v]}
    return tuple(sorted(cycles - {tuple(sorted(walk)) for walk in g._walks if len(walk) == 3}))


def _triangle_count(up: Mapping[VertexId, set[VertexId]]) -> int:
    """The 3-cycles u < v < w, each once, from up[x], the neighbours of x above x."""
    return sum([len(hu & up[v]) for hu in up.values() for v in hu])


class PtpgReport(NamedTuple):
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
    """Check the PTPG conditions, walking the faces only where an inner one is no triangle."""
    rot = g.rotation
    # Where all of the 2 - V + E faces but a longer outer one are triangles, none repeats a vertex.
    if g._tri_faces + (len(g.outer) != 3) == 2 - len(rot) + sum(map(len, rot.values())) // 2:
        return PtpgReport(True, (), find_separating_triangles(g))
    long = [w for w in g._walks if len(w) != 3]  # a triangle repeats no vertex
    return PtpgReport(
        is_biconnected=all(len(set(w)) == len(w) for w in long),
        # the outer cycle bounds a face, and only that walk holds its darts
        nontriangular_interior_faces=tuple(rotate_min(w) for w in long if not cyclic_eq(w, g.outer)),
        separating_triangles=find_separating_triangles(g),
    )

