"""Combinatorial embeddings of planar graphs and the PTPG validity checks.

A graph is given by clockwise rotation lists plus the outer cycle in
clockwise order.  With the vertices in ascending order, dart off[v] + i
runs from v to rotation[v][i].  Faces are recovered by the usual dart
walk: (u, v) continues with (v, w) where w follows u in the rotation at
v, so interior faces are walked counterclockwise and the outer face
clockwise.  The position map turn[v] = {u: off[v] + (i + 1) mod deg v}
for u = rotation[v][i] names that next dart in one lookup; its keys are
the neighbour sets (adj).  The walk runs over flat lists indexed by dart
number, each face from its lowest unvisited dart.

Every EmbeddedGraph built from rotation lists is checked once, when it
is built, and whole: a loop or a repeated neighbour shows in the sizes
of the turn rows, and a dart without its reverse stops the walk with a
KeyError.  Only then does the per-vertex loop run, to name the first
defect.  The graph must be
connected: only then does Euler's count V - E + F = 2 (E the darts over
two) certify a sphere.  The rest is read off the walk: the outer face,
2-connectivity (no face walk repeats a vertex; Diestel, Graph Theory,
Prop. 4.2.6) and the separating triangles, the 3-cycles that are not
face walks: they exist iff the 3-cycles, each u < v < w counted once as a
common higher neighbour of an edge u < v (Chiba and Nishizeki's forward
listing, 1985), outnumber the triangular faces.

extend derives a graph with vertices attached outside a checked one, as
the four-completion needs, and checks nothing: attach_vertex checks each
step.  The derived graph keeps its base's dart numbers and appends its
own darts; those and its faces are worked out when first read, walking
only the base's outer face and the new darts.  attachments_keep_ptpg
then counts what the attachments add instead of validating it whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat
from operator import contains, ne
from typing import Iterable, KeysView, Mapping, NamedTuple, Sequence


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
) -> tuple[dict[VertexId, dict[VertexId, int]], list[VertexId], list[VertexId]]:
    """The position map turn and the tail and head of every dart, numbered over verts."""
    turn: dict[VertexId, dict[VertexId, int]] = {}
    tail: list[VertexId] = []
    head: list[VertexId] = []
    for v in verts:
        nbrs = rotation[v]
        o = len(head)
        head += nbrs
        turn[v] = dict(zip(nbrs, [*range(o + 1, len(head)), o]))
        tail += [v] * len(nbrs)
    return turn, tail, head


def _walk(
    turn: Mapping[VertexId, Mapping[VertexId, int]], tail: list[VertexId], head: list[VertexId]
) -> tuple[list[int], list[list[VertexId]]]:
    """The face index of every dart, and every face walk as the tails of its darts."""
    face = [-1] * len(head)
    walks: list[list[VertexId]] = []
    _walk_from(turn, tail, head, face, range(len(head)), walks)
    return face, walks


def _walk_from(
    turn: Mapping[VertexId, Mapping[VertexId, int]],
    tail: Mapping[int, VertexId] | list[VertexId],
    head: Mapping[int, VertexId] | list[VertexId],
    face: list[int],
    darts: Iterable[int],
    walks: list[list[VertexId]],
) -> None:
    """Walk the face of each dart in darts whose face is still -1, onto face and walks.

    A walk lists the tails of its darts; faces are numbered on from len(walks).
    """
    for d0 in darts:
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
        rot = {v: tuple(nbrs) for v, nbrs in self.rotation.items()}
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
        rot = self.rotation
        turn, tail, head = _number_darts(rot, self.vertices)
        if sum(map(len, turn.values())) != len(head) or any(map(contains, turn.values(), turn)):
            _check_rotation(rot, turn)  # a repeated neighbour or a loop
        try:
            face, walks = _walk(turn, tail, head)
        except KeyError:  # a dart without its reverse
            _check_rotation(rot, turn)
            raise
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
        if len(rot) - len(head) // 2 + len(walks) != 2:
            raise InconsistentEmbedding("rotation system is not planar (Euler check)")
        object.__setattr__(self, "_turn", turn)
        object.__setattr__(self, "_face", face)
        object.__setattr__(self, "_walks", walks)
        # A dart lies on one face only, so no other face can match the outer cycle.
        if not cyclic_eq(walks[self.outer_face_index], self.outer):
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
        result is not checked again.  Its darts are numbered and walked on
        first use (_derive): the label search reads only the rotation.
        """
        g = object.__new__(EmbeddedGraph)
        vars(g).update(
            rotation={**self.rotation, **{v: tuple(nbrs) for v, nbrs in rows.items()}},
            outer=tuple(outer),
            labels=dict(labels),
            _base=(self, tuple(rows)),
        )
        return g

    def _derive(self) -> None:
        """The darts and faces of a graph that extend made, from its base graph's.

        Old darts keep their numbers and each new vertex appends its darts.
        Only the old outer face's darts and the new ones are walked: no
        other face gains a dart.
        """
        base, changed = self._base
        old, o, d = base._turn, base.outer, len(base._face)
        rows = {v: self.rotation[v] for v in changed}
        out: dict[VertexId, dict[VertexId, int]] = {v: {} for v in rows}  # new darts by tail, head
        tail: dict[int, VertexId] = {}
        head: dict[int, VertexId] = {}
        for x in rows:
            if x not in old:
                for a in rows[x]:
                    if a not in out[x]:
                        out[x][a], out[a][x] = d, d + 1
                        tail[d], head[d], tail[d + 1], head[d + 1] = x, a, a, x
                        d += 2
        turn = dict(old)
        for v, nbrs in rows.items():
            to = out[v]
            if v in old:  # old[v] maps each neighbour to the dart to the next one
                was = base.rotation[v]
                to.update(zip(was[1:] + was[:1], old[v].values()))
            turn[v] = dict(zip(nbrs, map(to.__getitem__, nbrs[1:] + nbrs[:1])))
        face = base._face + [-1] * (d - len(base._face))
        for t, u, v in zip(o[-1:] + o[:-1], o, o[1:] + o[:1]):
            e = old[u][t]  # the old outer face's dart u -> v
            tail[e], head[e], face[e] = u, v, -1
        walks = list(base._walks)
        _walk_from(turn, tail, head, face, tail, walks)
        k, moved = base.outer_face_index, len(walks) - 1
        walks[k] = walks.pop()  # the old outer face's slot takes the last new face
        for e in tail:
            if face[e] == moved:
                face[e] = k
        vars(self).update(_turn=turn, _face=face, _walks=walks)

    def __getstate__(self) -> dict:
        # adj holds key views, which pickle and deepcopy cannot copy; it is
        # read off the rest again on first use.
        return {k: v for k, v in vars(self).items() if k != "adj"}

    # -- derived structure ------------------------------------------------

    # _check sets these three on a checked build, in its own dict, so the
    # properties run only for a graph from extend, when first read.

    @cached_property
    def _turn(self) -> dict[VertexId, dict[VertexId, int]]:
        self._derive()
        return vars(self)["_turn"]

    @cached_property
    def _face(self) -> list[int]:
        self._derive()
        return vars(self)["_face"]

    @cached_property
    def _walks(self) -> list[list[VertexId]]:
        self._derive()
        return vars(self)["_walks"]

    @cached_property
    def vertices(self) -> tuple[VertexId, ...]:
        return tuple(sorted(self.rotation))

    @cached_property
    def adj(self) -> dict[VertexId, KeysView[VertexId]]:
        if "_turn" in vars(self):
            return {v: t.keys() for v, t in self._turn.items()}
        base, changed = self._base  # from extend and not derived: its base's rows but changed ones
        return {**base.adj, **{v: dict.fromkeys(self.rotation[v]).keys() for v in changed}}

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
    def outer_set(self) -> frozenset[VertexId]:
        return frozenset(self.outer)

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
    return tuple(sorted(g.adj[u] & g.adj[v]))


def faces_inside_cycle(g: EmbeddedGraph, cycle: Sequence[VertexId]) -> frozenset[int]:
    """Indices of faces strictly inside a simple cycle of the embedding.

    The faces beside one cycle edge are flooded in lockstep, never across the
    cycle; once one side meets the outer face, the other is flooded to the end.
    """
    cyc_edges = {edge_key(cycle[i - 1], cycle[i]) for i in range(len(cycle))}
    turn, face, walks, outer = g._turn, g._face, g._walks, g.outer_face_index
    sides = [({fi}, [fi]) for fi in (face[turn[cycle[1]][cycle[0]]], face[turn[cycle[0]][cycle[1]]])]
    i = 1 if outer in sides[0][0] else 0  # side i never holds the outer face
    while sides[i][1]:
        seen, frontier = sides[i]
        walk = walks[frontier.pop()]
        for a, b in zip(walk, walk[1:] + walk[:1]):
            fj = face[turn[a][b]]  # the face of the reverse dart b -> a
            if fj not in seen and edge_key(a, b) not in cyc_edges:
                seen.add(fj)
                frontier.append(fj)
        if outer in seen or outer not in sides[1 - i][0]:
            i = 1 - i
    return frozenset(sides[i][0])


def find_separating_triangles(g: EmbeddedGraph) -> tuple[tuple[VertexId, VertexId, VertexId], ...]:
    """3-cycles with at least one vertex strictly inside, sorted ascending.

    In a simple connected plane graph a 3-cycle with no vertex on one side
    bounds a face there, so the separating ones are the 3-cycles that are
    not face walks.  With H(v) the neighbours above v, each 3-cycle
    u < v < w is counted once, in |H(u) & H(v)| over the edges u < v, and
    each triangular face is a 3-cycle, a distinct one but for K3's two:
    the 3-cycles are listed only when they outnumber the triangular faces.
    """
    return _separating_triangles(g, list(map(len, g._walks)).count(3))


def _triangle_count(up: Mapping[VertexId, set[VertexId]]) -> int:
    """The 3-cycles u < v < w, each once, from up[x], the neighbours of x above x."""
    return sum([len(hu & up[v]) for hu in up.values() for v in hu])


def _separating_triangles(g: EmbeddedGraph, tri_faces: int) -> tuple[tuple[VertexId, ...], ...]:
    up = {v: {w for w in nbrs if w > v} for v, nbrs in g.rotation.items()}
    if _triangle_count(up) <= tri_faces:  # only K3 has fewer: its two faces are one 3-cycle
        return ()
    cycles = {(u, v, w) for u, hu in up.items() for v in hu for w in hu & up[v]}
    return tuple(sorted(cycles - {tuple(sorted(walk)) for walk in g._walks if len(walk) == 3}))


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
    """Check the PTPG conditions, reading face lengths once and walking only the longer faces."""
    walks, k = g._walks, g.outer_face_index
    lens = list(map(len, walks))
    long = list(compress(range(len(lens)), map(ne, lens, repeat(3))))  # a triangle repeats no vertex
    return PtpgReport(
        is_biconnected=all(len(set(walks[i])) == lens[i] for i in long),
        nontriangular_interior_faces=tuple(rotate_min(walks[i]) for i in long if i != k),
        separating_triangles=_separating_triangles(g, len(lens) - len(long)),
    )


def attachments_keep_ptpg(g: EmbeddedGraph, ext: EmbeddedGraph) -> bool:
    """Whether ext, the PTPG g with vertices attached outside it, is a PTPG too, by count.

    Each new vertex x has an id above g's and above every vertex attached
    before it, so its lower neighbours are its arc, k vertices.  It adds
    k - 1 triangular faces of distinct vertices, which keeps 2-connectivity
    and triangular inner faces, and one 3-cycle with newest vertex x per
    edge among its arc.  If those edges number k - 1 for every x, and g's
    outline, a face that is lost, is no triangle, the 3-cycles do not
    outnumber the triangular faces.  False means only that validate_ptpg(ext)
    must decide.
    """
    rot = ext.rotation
    for x in ext.vertices[len(g.vertices):]:
        arc = {u for u in rot[x] if u < x}
        if sum([len(arc.intersection(rot[u])) for u in arc]) != 2 * len(arc) - 2:
            return False
    return len(g.outer) > 3
