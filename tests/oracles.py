"""Independent recomputations used to cross-check the library.

Everything here is deliberately naive: exhaustive search, set algebra,
geometry read straight off the rectangles.  Nothing below shares logic
with the modules it checks beyond the plain data containers, so a bug
would have to be made twice to slip through.  The exceptions are named
where they occur: is_flippable_edge, the two-step completion and
fresh_completion call the library's own flip_edge or attach_vertex,
ring_of shares the label search's filter tables, face_walk_segments walks faces
with the graph core's numbered-dart walk, padded_rectangular_plan
completes, labels and draws with the library, profile_from_outline
reads the library's outline, and path_sets cuts the boundary with the
library's paths_from_splits.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import Counter, deque

from lplan.boundary import Cip, Triplet, boundary_arc, find_cips
from lplan.graph import (
    Edge,
    EmbeddedGraph,
    InconsistentEmbedding,
    PtpgReport,
    VertexId,
    _number_darts,
    _successors,
    _walk,
    common_neighbors,
    edge_key,
    rotate_min,
    validate_ptpg,
)
from lplan.io import ParseError
from lplan.layout import (
    CornerProfile,
    FloorPlan,
    NonTrivialityVerdict,
    NotCornerModule,
    Rect,
    plan_outline,
    rfp_from_rel,
)
from lplan.paths import (
    AugmentedGraph,
    EmbeddingConflict,
    PathSet,
    attach_vertex,
    check_path_conditions,
    four_completion,
    paths_from_splits,
)
from lplan.pipeline import RectResult, _require_ptpg
from lplan.rel import (
    _BLOCK_ORDER,
    _OPENING,
    _TABLES,
    NotConstructible,
    NotFlippable,
    Rel,
    T1,
    T2,
    construct_rel,
    flip_edge,
)


Dart = tuple[VertexId, VertexId]


def clone(r: Rel) -> Rel:
    """A copy of r whose poles, colours and directions change apart from r's."""
    return Rel(r.graph, dict(r.poles), dict(r.color), dict(r.orient))


class CapExceeded(RuntimeError):
    pass


class ScaleExceeded(RuntimeError):
    pass


# -- faces, 2-connectivity and separating triangles -----------------------------


def brute_walk_darts(rotation) -> tuple[list[list[VertexId]], dict[Dart, int]]:
    """Face walks and dart -> face, walked over darts keyed by vertex pairs.

    Walks start at the first unvisited dart in vertex order and list the
    tail of each dart; darts enter the map in walk order.
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


def dart_faces(walks: list[list[VertexId]]) -> dict[Dart, int]:
    """Dart -> face index, read off face walks given as the tails of their darts."""
    return {(u, v): fi for fi, w in enumerate(walks) for u, v in zip(w, w[1:] + w[:1])}


def walking_check(rotation, outer) -> tuple[dict, list[int], list[list[VertexId]], int]:
    """The build check that walks every face: turn, dart faces, walks, outer face index.

    The check an EmbeddedGraph ran before it counted triangular faces in
    place of walking them, kept whole as the reference: the same dart
    numbers and walks, and the same InconsistentEmbedding texts, raised in
    the same order.
    """
    rot = {v: tuple(nbrs) for v, nbrs in rotation.items()}
    outer = tuple(outer)
    turn: dict[VertexId, dict[VertexId, int]] = {}
    tail: list[VertexId] = []
    head: list[VertexId] = []
    for v in sorted(rot):
        nbrs = rot[v]
        o = len(head)
        head += nbrs
        turn[v] = dict(zip(nbrs, [*range(o + 1, len(head)), o]))
        tail += [v] * len(nbrs)

    def name_defect() -> None:
        for v, nbrs in rot.items():
            if v in turn[v]:
                raise InconsistentEmbedding(f"loop at vertex {v}")
            if len(turn[v]) != len(nbrs):
                raise InconsistentEmbedding(f"repeated neighbor at vertex {v}")
            for u in nbrs:
                if u not in turn or v not in turn[u]:
                    raise InconsistentEmbedding(f"edge ({v},{u}) is not symmetric")

    if sum(map(len, turn.values())) != len(head) or any(v in row for v, row in turn.items()):
        name_defect()
    face = [-1] * len(head)
    walks: list[list[VertexId]] = []
    try:
        for d0 in range(len(head)):
            if face[d0] < 0:
                walk: list[VertexId] = []
                d = d0
                while face[d] < 0:
                    face[d] = len(walks)
                    walk.append(tail[d])
                    d = turn[head[d]][tail[d]]
                if d != d0:
                    raise InconsistentEmbedding("face walk did not close")
                walks.append(walk)
    except KeyError:
        name_defect()
        raise
    if len(outer) < 3:
        raise InconsistentEmbedding("outer cycle needs at least 3 vertices")
    if len(set(outer)) != len(outer):
        raise InconsistentEmbedding("outer cycle repeats a vertex")
    for i, v in enumerate(outer):
        u = outer[(i + 1) % len(outer)]
        if v not in turn or u not in turn[v]:
            raise InconsistentEmbedding(f"outer edge ({v},{u}) missing")
    seen, todo = set(), [next(iter(rot))]
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo += rot[v]
    if len(seen) != len(rot):
        raise InconsistentEmbedding("graph is not connected")
    if len(rot) - len(head) // 2 + len(walks) != 2:
        raise InconsistentEmbedding("rotation system is not planar (Euler check)")
    k = face[turn[outer[1]][outer[0]]]
    w = walks[k]
    i = outer.index(w[0]) if w[0] in outer else 0
    if tuple(w) != outer[i:] + outer[:i]:
        raise InconsistentEmbedding("outer cycle does not bound exactly one face")
    return turn, face, walks, k


def walking_report(rotation, walks: list[list[VertexId]], k: int) -> PtpgReport:
    """validate_ptpg read off every face walk, with the outer face k: the reference."""

    def canonical(w):
        i = w.index(min(w))
        return tuple(w[i:]) + tuple(w[:i])

    long = [i for i, w in enumerate(walks) if len(w) != 3]
    adj = {v: set(nbrs) for v, nbrs in rotation.items()}
    cycles = {(u, v, w) for u in adj for v in adj[u] if v > u for w in adj[v] & adj[u] if w > v}
    return PtpgReport(
        is_biconnected=all(len(set(walks[i])) == len(walks[i]) for i in long),
        nontriangular_interior_faces=tuple(canonical(walks[i]) for i in long if i != k),
        separating_triangles=tuple(sorted(cycles - {tuple(sorted(w)) for w in walks if len(w) == 3})),
    )


def brute_biconnected(g: EmbeddedGraph) -> bool:
    """Tarjan's depth-first search: no cut vertex, and at least three vertices."""
    verts = g.vertices
    if len(verts) < 3:
        return False
    root = verts[0]
    disc: dict[VertexId, int] = {}
    low: dict[VertexId, int] = {}
    parent: dict[VertexId, VertexId | None] = {root: None}
    order = 0
    root_children = 0
    stack = [(root, iter(g.rotation[root]))]
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


def edge_triangles(g: EmbeddedGraph) -> list[tuple[VertexId, VertexId, VertexId]]:
    """All 3-cliques, one adjacency-set intersection per edge, sorted."""
    adj = {v: set(nbrs) for v, nbrs in g.rotation.items()}
    out = []
    for u, nu in adj.items():
        for v in nu:
            if v > u:
                out.extend((u, v, w) for w in nu & adj[v] if w > v)
    out.sort()
    return out


def walk_faces(g: EmbeddedGraph) -> list[tuple[VertexId, ...]]:
    """Face cycles recovered by the plain dart walk over the rotations."""
    succ: dict[tuple[VertexId, VertexId], tuple[VertexId, VertexId]] = {}
    for v, ring in g.rotation.items():
        d = len(ring)
        for i, u in enumerate(ring):
            # arriving u->v, leave along the neighbour after u clockwise
            succ[(u, v)] = (v, ring[(i + 1) % d])
    faces = []
    seen: set[tuple[VertexId, VertexId]] = set()
    for dart in succ:
        if dart in seen:
            continue
        cyc = []
        cur = dart
        while cur not in seen:
            seen.add(cur)
            cyc.append(cur[0])
            cur = succ[cur]
        faces.append(tuple(cyc))
    return faces


def brute_triangles(g: EmbeddedGraph) -> list[tuple[VertexId, VertexId, VertexId]]:
    """All 3-cliques, by pairwise adjacency-set intersection."""
    adj = {v: set(nbrs) for v, nbrs in g.rotation.items()}
    out = []
    verts = sorted(g.vertices)
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            if v not in adj[u]:
                continue
            for w in sorted(adj[u] & adj[v]):
                if w > v:
                    out.append((u, v, w))
    return out


def common_neighbour_sum(g: EmbeddedGraph) -> int:
    """|N(u) & N(v)| summed over the edges u < v: every 3-cycle three times."""
    adj = {v: set(nbrs) for v, nbrs in g.rotation.items()}
    return sum(len(adj[u] & adj[v]) for u in g.vertices for v in adj[u] if u < v)


def faces(g: EmbeddedGraph) -> tuple[tuple[VertexId, ...], ...]:
    """Every face of g's own walk, in face index order, each from its least vertex."""
    return tuple(rotate_min(walk) for walk in g._walks)


def inner_faces(g: EmbeddedGraph) -> tuple[tuple[VertexId, ...], ...]:
    """The faces but the outer one, the face of the dart outer[0] -> outer[1], in face index order."""
    k = dart_faces(g._walks)[g.outer[0], g.outer[1]]
    return tuple(f for i, f in enumerate(faces(g)) if i != k)


def brute_separating_triangles(g: EmbeddedGraph) -> set[frozenset]:
    """3-cliques that do not bound any face, inner or outer.

    In a triangulated disk a triangle either is a face or encloses at
    least one vertex, so this matches the strictly-inside definition.
    """
    face_sets = {frozenset(f) for f in walk_faces(g) if len(f) == 3}
    return {
        frozenset(t) for t in brute_triangles(g) if frozenset(t) not in face_sets
    }


def brute_faces_inside_cycle(g: EmbeddedGraph, cycle) -> frozenset[int]:
    """Faces not reached from the outer face without crossing the cycle: a flood over every face."""
    walks, dart_face = brute_walk_darts(g.rotation)
    cyc_edges = {edge_key(cycle[i - 1], cycle[i]) for i in range(len(cycle))}
    start = dart_face[(g.outer[0], g.outer[1])]
    reached = {start}
    frontier = [start]
    while frontier:
        walk = walks[frontier.pop()]
        for u, v in zip(walk, walk[1:] + walk[:1]):
            fj = dart_face[(v, u)]
            if fj not in reached and edge_key(u, v) not in cyc_edges:
                reached.add(fj)
                frontier.append(fj)
    return frozenset(fi for fi in range(len(walks)) if fi not in reached)


def brute_inside_edges(g: EmbeddedGraph, cycle) -> set[Edge]:
    """The edges strictly inside a simple cycle: both their darts on brute_faces_inside_cycle's faces."""
    inside = brute_faces_inside_cycle(g, cycle)
    face = brute_walk_darts(g.rotation)[1]  # numbered as brute_faces_inside_cycle numbers
    return {(u, v) for (u, v), fi in face.items() if u < v and fi in inside and face[v, u] in inside}


# -- chords, shortcuts and CIPs by arc walks ------------------------------------


def brute_arc(g: EmbeddedGraph, u: VertexId, v: VertexId) -> tuple[VertexId, ...]:
    """Clockwise outer arc from u to v, inclusive, one step at a time."""
    n = len(g.outer)
    i = g.outer.index(u)
    out = [u]
    while out[-1] != v:
        i = (i + 1) % n
        out.append(g.outer[i])
    return tuple(out)


def is_boundary_edge(g: EmbeddedGraph, u: VertexId, v: VertexId) -> bool:
    """Whether u and v are consecutive on the outer cycle."""
    n = len(g.outer)
    i, j = g.outer_pos[u], g.outer_pos[v]
    return (i + 1) % n == j or (j + 1) % n == i


def brute_chords(g: EmbeddedGraph) -> list[tuple[VertexId, VertexId]]:
    """Edges between outer vertices that are not outer edges, from all edges sorted."""
    outer = set(g.outer)
    ring = {frozenset((g.outer[i], g.outer[i - 1])) for i in range(len(g.outer))}
    return [
        (u, v)
        for u, v in sorted(g.edges)
        if u in outer and v in outer and frozenset((u, v)) not in ring
    ]


def _arc_is_cip(g: EmbeddedGraph, arc: tuple[VertexId, ...]) -> bool:
    """No two non-consecutive arc vertices adjacent, apart from the arc's ends."""
    k = len(arc)
    for i in range(k):
        for j in range(i + 2, k):
            if i == 0 and j == k - 1:
                continue
            if arc[j] in g.rotation[arc[i]]:
                return False
    return True


def brute_cips(g: EmbeddedGraph) -> tuple[Cip, ...]:
    """Both arcs of every chord, tested pair by pair, by outer position then length."""
    out = []
    for u, v in brute_chords(g):
        for arc in (brute_arc(g, u, v), brute_arc(g, v, u)):
            if _arc_is_cip(g, arc):
                out.append(Cip(vertices=arc))
    out.sort(key=lambda c: (g.outer.index(c.vertices[0]), len(c.vertices)))
    return tuple(out)


def scan_triplets(g: EmbeddedGraph) -> tuple[Triplet, ...]:
    """Consecutive outer triples (a, b, c), c no neighbour of a, whose common neighbours are (b,).

    The scan find_triplets made before it read the outline's rows alone:
    the neighbour sets of every vertex, one sorted intersection per triple.
    """
    out = []
    n = len(g.outer)
    for i in range(n):
        a, b, c = g.outer[i], g.outer[(i + 1) % n], g.outer[(i + 2) % n]
        if c not in g.rotation[a] and common_neighbors(g, a, c) == (b,):
            out.append(Triplet(a, b, c))
    return tuple(out)


# -- graph documents read item by item, every neighbour twice -------------------


def checked_doc_to_graph(doc) -> EmbeddedGraph:
    """A graph document read part by part and item by item, then built.

    The reader doc_to_graph was before the build took over the neighbour
    checks: it reads every neighbour's type and membership itself, names
    the first defect in document order, and only builds a document that
    has none, where a failed build is a ParseError at "document".
    """
    if not isinstance(doc, dict):
        raise ParseError("document", "expected a JSON object")
    for key in ("vertices", "rotation", "outer"):
        if key not in doc:
            raise ParseError("document", f"missing field {key!r}")
    items = doc["vertices"]
    if not isinstance(items, list) or not items:
        raise ParseError("vertices", "expected a non-empty list")
    labels, ids = {}, []
    for i, item in enumerate(items):
        where = f"vertices[{i}]"
        if not isinstance(item, dict) or "id" not in item:
            raise ParseError(where, "expected an object with an 'id'")
        v = item["id"]
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParseError(f"{where}.id", "vertex ids must be integers")
        if v in ids:
            raise ParseError(f"{where}.id", f"duplicate vertex id {v}")
        ids.append(v)
        if "label" in item:
            if not isinstance(item["label"], str):
                raise ParseError(f"{where}.label", "labels must be strings")
            labels[v] = item["label"]
    rot = doc["rotation"]
    if not isinstance(rot, dict):
        raise ParseError("rotation", "expected an object keyed by vertex id")
    rotation = {}
    for key, nbrs in rot.items():
        where = f"rotation.{key}"
        if type(key) is not str or not re.fullmatch(r"[+-]?[0-9]+", key):
            raise ParseError(where, "keys must be integer vertex ids")
        v = int(key)
        if v not in ids:
            raise ParseError(where, f"unknown vertex {v}")
        if v in rotation:
            raise ParseError(where, f"duplicate neighbour list for vertex {v}")
        if not isinstance(nbrs, list) or any(type(u) is not int for u in nbrs):
            raise ParseError(where, "expected a list of vertex ids")
        if any(u not in ids for u in nbrs):
            raise ParseError(where, f"unknown neighbours {[u for u in nbrs if u not in ids]}")
        rotation[v] = tuple(nbrs)
    if len(rotation) != len(ids):
        raise ParseError("rotation", f"no neighbour list for vertices {[v for v in ids if v not in rotation]}")
    outer = doc["outer"]
    if not isinstance(outer, list) or any(type(u) is not int for u in outer):
        raise ParseError("outer", "expected a list of vertex ids")
    if any(u not in ids for u in outer):
        raise ParseError("outer", f"unknown vertices {[u for u in outer if u not in ids]}")
    try:
        return EmbeddedGraph(rotation=rotation, outer=tuple(outer), labels=labels)
    except InconsistentEmbedding as exc:
        raise ParseError("document", str(exc)) from exc


# -- ring words by enumeration ------------------------------------------------


def ring_words(d: int) -> list[tuple[int, ...]]:
    """Every cyclic word of length d made of one nonempty run each of 0, 1, 2, 3.

    The run lengths range over every split of d into four positive parts,
    and each word appears once per rotation.
    """
    words = []
    for a, b, c in itertools.combinations(range(1, d), 3):
        base = [0] * a + [1] * (b - a) + [2] * (c - b) + [3] * (d - c)
        for s in range(d):
            words.append(tuple(base[s:] + base[:s]))
    return words


@functools.lru_cache(maxsize=None)
def _word_sets(d: int) -> tuple[int, list[list[int]]]:
    """Word count, and per (position, class) the set of words, as a bitset."""
    words = ring_words(d)
    sets = [[0] * 4 for _ in range(d)]
    for j, w in enumerate(words):
        for p, c in enumerate(w):
            sets[p][c] |= 1 << j
    return len(words), sets


def ring_word_union(allowed: list[int]) -> list[int] | None:
    """Per position, the classes it takes in some ring word that allowed admits.

    allowed[p] is a bitmask of the classes position p may take.  Returns
    None when no word fits.  The words come from ring_words and are
    filtered by set algebra, one bitset of words per position and class.
    """
    count, sets = _word_sets(len(allowed))
    fits = (1 << count) - 1
    for p, m in enumerate(allowed):
        fits &= sum(sets[p][c] for c in range(4) if m >> c & 1)
    if not fits:
        return None
    return [sum(1 << c for c in range(4) if fits & sets[p][c]) for p in range(len(allowed))]


# -- labelings by brute filter ------------------------------------------------


def _ring_classes_ok(classes: list[int]) -> bool:
    """Cyclic word over {0,1,2,3}: all present, one descent, sorted blocks."""
    if len(classes) < 4 or set(classes) != {0, 1, 2, 3}:
        return False
    d = len(classes)
    descents = sum(1 for i in range(d) if classes[i] > classes[(i + 1) % d])
    return descents == 1


def rel_filter_enumeration(ag: AugmentedGraph) -> set[tuple]:
    """Every labeling surviving the local rules, as canonical tuples.

    Pole-incident edges are pinned by the pole rows; the remaining edges
    take all four color/direction states.  A state survives when every
    non-pole vertex reads, clockwise, one run each of T1-out, T2-out,
    T1-in, T2-in.
    """
    g = ag.base
    poles = set(ag.pole_ids)
    fixed_color: dict = {}
    fixed_orient: dict = {}
    for name, inward in (("N", True), ("S", False), ("E", True), ("W", False)):
        p = ag.poles[name]
        col = "T1" if name in ("N", "S") else "T2"
        for w in g.rotation[p]:
            if w in poles:
                continue
            e = (min(w, p), max(w, p))
            fixed_color[e] = col
            fixed_orient[e] = (w, p) if inward else (p, w)

    free = sorted(
        e for e in g.edges if e[0] not in poles and e[1] not in poles
    )

    def vertex_ok(v, color, orient) -> bool:
        classes = []
        for w in g.rotation[v]:
            e = (min(v, w), max(v, w))
            outgoing = orient[e][0] == v
            t1 = color[e] == "T1"
            if outgoing:
                classes.append(0 if t1 else 1)
            else:
                classes.append(2 if t1 else 3)
        return _ring_classes_ok(classes)

    survivors: set[tuple] = set()
    inner = [v for v in g.vertices if v not in poles]
    for states in itertools.product(range(4), repeat=len(free)):
        color = dict(fixed_color)
        orient = dict(fixed_orient)
        for e, s in zip(free, states):
            color[e] = "T1" if s < 2 else "T2"
            orient[e] = e if s % 2 == 0 else (e[1], e[0])
        if all(vertex_ok(v, color, orient) for v in inner):
            survivors.add(canonical_labeling(color, orient))
    return survivors


def _partial_block_ok(r: Rel, v: VertexId) -> bool:
    ring = r.graph.rotation[v]
    seq = []
    for u in ring:
        e = edge_key(u, v)
        if e not in r.color:
            continue
        tail, _ = r.orient[e]
        seq.append(_BLOCK_ORDER.index(r.color[e] + ("out" if tail == v else "in")))
    descents = sum(1 for i in range(len(seq)) if seq[i] > seq[(i + 1) % len(seq)])
    return descents <= 1


def enumerate_rels(ag: AugmentedGraph, cap: int = 12) -> list[Rel]:
    """Every valid label/direction assignment on ag, by brute force.

    Pole-incident edges are forced by the pole rules, so the search
    space is the interior edges only: 4 states each.  Partial rings are
    pruned as soon as they descend twice, and each full assignment is
    judged by brute_rel_validity.
    """
    poles = set(ag.pole_ids)
    g = ag.base
    free = sorted(e for e in g.edges if e[0] not in poles and e[1] not in poles)
    if len(free) > cap:
        raise CapExceeded(f"{len(free)} interior edges exceed cap {cap}")
    r = Rel(graph=g, poles=dict(ag.poles), color={}, orient={})
    for name, p in ag.poles.items():
        color = T1 if name in ("N", "S") else T2
        for w in g.rotation[p]:
            if w in poles:
                continue
            e = edge_key(w, p)
            r.color[e] = color
            r.orient[e] = (w, p) if name in ("N", "E") else (p, w)

    out: list[Rel] = []
    inner = set(g.vertices) - poles

    def rec(i: int) -> None:
        if i == len(free):
            if brute_rel_validity(r)[0]:
                out.append(clone(r))
            return
        e = free[i]
        u, v = e
        for color, orient in (
            (T1, (u, v)), (T1, (v, u)), (T2, (u, v)), (T2, (v, u)),
        ):
            r.color[e] = color
            r.orient[e] = orient
            if all(_partial_block_ok(r, w) for w in e if w in inner):
                rec(i + 1)
            del r.color[e]
            del r.orient[e]

    rec(0)
    return out


_BLOCKS = ("T1out", "T2out", "T1in", "T2in")
_POLE_ROWS = {"N": ("T1", "in"), "E": ("T2", "in"), "S": ("T1", "out"), "W": ("T2", "out")}


def brute_ring_defect(r: Rel, v: VertexId) -> str | None:
    """The blocks around inner vertex v as runs of named dart states."""
    states = []
    for u in r.graph.rotation[v]:
        e = (min(u, v), max(u, v))
        states.append(r.color[e] + ("out" if r.orient[e][0] == v else "in"))
    runs: list[str] = []
    for s in states:
        if not runs or runs[-1] != s:
            runs.append(s)
    if len(runs) > 1 and runs[0] == runs[-1]:
        runs.pop()
    if sorted(runs) != sorted(_BLOCKS):
        return f"vertex {v}: blocks {runs}"
    i = runs.index("T1out")
    if tuple(runs[i:] + runs[:i]) != _BLOCKS:
        return f"vertex {v}: block order {runs}"
    return None


def brute_rel_validity(r: Rel) -> tuple[bool, str | None]:
    """Whether r labels exactly the edges off the pole cycle, in T1 or T2, regularly.

    The first defect wins: the edge set, then each orientation and color,
    then the pole rows of N, E, S and W, then every inner ring, read as
    runs, in ascending vertex order.
    """
    poles = set(r.poles.values())
    expected = {e for e in r.graph.edges if not (e[0] in poles and e[1] in poles)}
    if set(r.color) != expected or set(r.orient) != expected:
        return False, "labeled edge set mismatch"
    for e, (tail, head) in r.orient.items():
        if (min(tail, head), max(tail, head)) != e:
            return False, f"orientation endpoints of {e} wrong"
        if r.color[e] not in ("T1", "T2"):
            return False, f"bad color on {e}"
    for name in ("N", "E", "S", "W"):
        p = r.poles[name]
        for u in r.graph.rotation[p]:
            if u in poles:
                continue
            e = (min(u, p), max(u, p))
            d = "out" if r.orient[e][0] == p else "in"
            if (r.color[e], d) != _POLE_ROWS[name]:
                return False, f"pole {name}: edge to {u} is {r.color[e]} {d}"
    for v in r.graph.vertices:
        if v not in poles:
            defect = brute_ring_defect(r, v)
            if defect:
                return False, defect
    return True, None


def ring_of(positions) -> list[tuple]:
    """A ring for rel._propagate from (edge, whether the vertex is the key's first, neighbor).

    It shares the library's filter tables; position 0 opens in phase 0.
    """
    ring = []
    for i, first, w in positions:
        admit, low, high = _TABLES[first]
        ring.append((i, _OPENING[first] if not ring else admit, low, high, w))
    return ring


def keyed_search_space(ag: AugmentedGraph):
    """The label search's set-up built from sorted edge keys and a tuple-keyed index.

    Returns rel._search_space's edges, value sets, rings, dense ids and
    seeds, as the search built them before it numbered edges per vertex.
    """
    g = ag.base
    poles = set(ag.pole_ids)
    edges = sorted(e for e in g.edges if not (e[0] in poles and e[1] in poles))
    index = {e: i for i, e in enumerate(edges)}
    dom = [0b1111] * len(edges)
    for name, p in ag.poles.items():
        pinned = _BLOCKS.index("".join(_POLE_ROWS[name]))  # the class at the pole
        for x in g.rotation[p]:
            if x not in poles:
                e = edge_key(x, p)
                dom[index[e]] = 1 << (pinned if e[0] == p else pinned ^ 2)
    inner = [v for v in g.vertices if v not in poles]
    m = len(inner)
    dense = dict.fromkeys(poles, m)
    dense.update((v, k) for k, v in enumerate(inner))
    rings = [ring_of([(index[edge_key(v, w)], v < w, dense[w]) for w in g.rotation[v]]) for v in inner]
    seeds = [k for k, ring in enumerate(rings) if len(ring) < 4 or any(p[4] == m for p in ring)]
    return edges, dom, rings, dense, seeds


def labeling_from_values(ag: AugmentedGraph, edges, dom) -> Rel:
    """The labeling that one value per edge spells: bit 0 the color, bit 1 the key reversed."""
    color, orient = {}, {}
    for (a, b), mask in zip(edges, dom):
        val = mask.bit_length() - 1
        color[a, b] = "T2" if val & 1 else "T1"
        orient[a, b] = (b, a) if val & 2 else (a, b)
    return Rel(graph=ag.base, poles=dict(ag.poles), color=color, orient=orient)


def _classes_at(mask: int, v: VertexId, e: tuple[VertexId, VertexId]) -> int:
    """The dart classes at v that a set of edge values reads as, and back.

    Bit 0 of a value is the color (0 T1, 1 T2) and bit 1 reverses the
    direction of the sorted key e, so a value is its own class at e[0] and
    has its direction bit flipped at e[1].
    """
    return mask if v == e[0] else sum(1 << (c ^ 2) for c in range(4) if mask >> c & 1)


def ring_fixpoint(ag: AugmentedGraph, pins: dict | None = None) -> dict | None:
    """Every labeled edge's value set once refiltering each ring changes nothing.

    The pole rows are pinned, pins (edge -> value mask) narrows further
    edges, and then every inner ring in turn is cut to ring_word_union of
    its dart classes, round after round, until a whole round shrinks no
    value set.  None when some ring admits no word.
    """
    g = ag.base
    poles = set(ag.pole_ids)
    dom = {e: 0b1111 for e in g.edges if not (e[0] in poles and e[1] in poles)}
    for name, (col, sense) in _POLE_ROWS.items():
        p = ag.poles[name]
        for x in g.rotation[p]:
            if x not in poles:
                e = (min(x, p), max(x, p))
                tail = x if sense == "in" else p
                dom[e] = 1 << ((col == "T2") + 2 * (tail != e[0]))
    for e, m in (pins or {}).items():
        dom[e] &= m
    rings = [
        (v, [(min(v, w), max(v, w)) for w in g.rotation[v]])
        for v in g.vertices
        if v not in poles
    ]
    changed = True
    while changed:
        changed = False
        for v, ring in rings:
            kept = ring_word_union([_classes_at(dom[e], v, e) for e in ring])
            if kept is None:
                return None
            for e, m in zip(ring, kept):
                m = _classes_at(m, v, e)
                if m != dom[e]:
                    dom[e] = m
                    changed = True
    return dom


def alternating_four_cycles(r: Rel):
    """Every 4-cycle of r's graph whose four edges are labeled in alternating colors, once."""
    g = r.graph
    seen = set()
    for a in g.vertices:
        for b, d in itertools.permutations(g.rotation[a], 2):
            for c in set(g.rotation[b]).intersection(g.rotation[d]) - {a}:
                w = (a, b, c, d)
                ring = [edge_key(w[i], w[(i + 1) % 4]) for i in range(4)]
                if frozenset(ring) in seen or any(e not in r.color for e in ring):
                    continue
                seen.add(frozenset(ring))
                labs = [r.color[e] for e in ring]
                if labs[0] == labs[2] != labs[1] == labs[3]:
                    yield w


def rotate_by_trial(r: Rel, w: tuple[VertexId, ...]) -> str | None:
    """rotate_four_cycle on an alternating 4-cycle, checked on the whole labeling.

    Each sense is applied to every edge strictly inside the cycle and kept
    when brute_rel_validity accepts the labeling.  Returns "cw" or "ccw" with r
    rotated, or None with r unchanged when neither sense is valid.
    """
    inside = brute_inside_edges(r.graph, w)
    target = [e for e in r.color if e in inside]
    before = {e: (r.color[e], r.orient[e]) for e in target}
    for mode in ("cw", "ccw"):
        for e, (col, (s, t)) in before.items():
            along = (mode == "cw") == (col == "T1")
            r.color[e] = "T2" if col == "T1" else "T1"
            r.orient[e] = (s, t) if along else (t, s)
        if brute_rel_validity(r)[0]:
            return mode
        for e, (col, o) in before.items():
            r.color[e], r.orient[e] = col, o
    return None


def is_flippable_edge(r: Rel, u: VertexId, v: VertexId) -> bool:
    """Whether the library's flip_edge succeeds, tried on a clone of r."""
    try:
        flip_edge(clone(r), u, v)
    except NotFlippable:
        return False
    return True


def brute_flip_vertex(r: Rel, v: VertexId) -> bool:
    """Toggle the four colors at a degree-4 inner vertex v, keeping r regular.

    The four edges then take the first of their 16 direction sets that
    brute_rel_validity accepts, tried in itertools.product order over
    (out of v, into v) per neighbour in rotation order.  False, with r
    unchanged, when v is a pole, its degree is not 4 or no direction set
    is accepted.
    """
    nbrs = r.graph.rotation[v]
    if v in r.poles.values() or len(nbrs) != 4:
        return False
    keys = [(min(v, w), max(v, w)) for w in nbrs]
    before = [(r.color[k], r.orient[k]) for k in keys]
    for dirs in itertools.product(*[((v, w), (w, v)) for w in nbrs]):
        for k, (col, _), ends in zip(keys, before, dirs):
            r.color[k] = "T2" if col == "T1" else "T1"
            r.orient[k] = ends
        if brute_rel_validity(r)[0]:
            return True
    for k, (col, ends) in zip(keys, before):
        r.color[k], r.orient[k] = col, ends
    return False


def is_flippable_vertex(r: Rel, v: VertexId) -> bool:
    """Whether brute_flip_vertex succeeds, tried on a clone of r."""
    return brute_flip_vertex(clone(r), v)


def canonical_labeling(color: dict, orient: dict) -> tuple:
    return (
        tuple(sorted(color.items())),
        tuple(sorted(orient.items())),
    )


# -- wall segments by face walks ------------------------------------------------


def read_rings(r: Rel, modules: list[VertexId]) -> tuple[dict, dict, dict]:
    """The T1 and T2 sub-rotations, and every module's block ends, in one pass.

    Each ring is read by position as dart classes (rel._BLOCK_ORDER: the
    color bit plus 2 for an incoming edge): the color bit sorts a neighbor
    into a sub-rotation, and a neighbor whose class differs from the next
    one's ends its block.  ends[v] maps each class around module v to the
    last neighbor, clockwise, of its block.
    """
    color, orient = r.color, r.orient
    wanted = set(modules)
    sub1: dict[VertexId, tuple[VertexId, ...]] = {}
    sub2: dict[VertexId, tuple[VertexId, ...]] = {}
    ends: dict[VertexId, dict[int, VertexId]] = {}
    for v, nbrs in r.graph.rotation.items():
        t1: list[VertexId] = []
        t2: list[VertexId] = []
        cs: list[int] = []
        for u in nbrs:
            e = edge_key(u, v)
            col = color.get(e)
            if col is None:  # an edge between two poles
                continue
            (t1 if col == T1 else t2).append(u)
            cs.append((col != T1) + 2 * (orient[e][0] != v))
        if t1:
            sub1[v] = tuple(t1)
        if t2:
            sub2[v] = tuple(t2)
        if v in wanted:  # a module's ring has no pole-pole edge: cs runs along nbrs
            d = len(cs)
            at: dict[int, VertexId] = {}
            for i, u in enumerate(nbrs):
                if cs[i] != cs[i + 1 - d]:  # the next position, cyclically
                    at.setdefault(cs[i], u)
            ends[v] = at
    return sub1, sub2, ends


def _numbered_faces(sub: dict[VertexId, tuple[VertexId, ...]]) -> tuple[dict[Dart, int], int]:
    """A sub-rotation's face of every dart (u, v), and the face count."""
    walks = _walk(*_successors(_number_darts(sub, sorted(sub))))
    return dart_faces(walks), len(walks)


def face_walk_segments(r: Rel) -> tuple[dict[VertexId, tuple[int, ...]], int, int]:
    """Every module's bottom, top, left and right wall segment, and the x and y face counts.

    The reference for layout._segment_graph's union-find: the horizontal
    segments are the faces of the T2 subgraph and the vertical ones those
    of T1, each walked by the graph core's numbered-dart walk (itself
    checked against brute_walk_darts).  A module's bottom wall is the T2
    face of the dart (u, v) from the last edge u of its outgoing T2 block;
    its top wall follows its last incoming T2 edge, and its left and right
    walls come from T1 the same way.  With k faces on an axis, its two
    sides are k and k + 1: west and east, floor and ceiling.  A missing
    block raises ValueError.
    """
    modules = [v for v in r.graph.vertices if v not in r.pole_ids]
    pn, pe, ps, pw = r.pole_ids
    sub1, sub2, block_ends = read_rings(r, modules)
    face1, k1 = _numbered_faces(sub1)
    face2, k2 = _numbered_faces(sub2)
    rot = r.graph.rotation
    sides = {}
    for v in modules:
        near, ends = rot[v], block_ends[v]
        try:  # a missing block raises KeyError(c) at ends[c]
            sides[v] = (
                k2 if ps in near else face2[ends[1], v],
                k2 + 1 if pn in near else face2[ends[3], v],
                k1 if pw in near else face1[ends[2], v],
                k1 + 1 if pe in near else face1[ends[0], v],
            )
        except KeyError as exc:
            raise ValueError(f"vertex {v} has no {_BLOCK_ORDER[exc.args[0]]} edge") from None
    return sides, k1 + 2, k2 + 2


def face_walk_rects(r: Rel) -> dict[VertexId, Rect]:
    """The compact drawing on face_walk_segments: each coordinate is a segment's depth.

    Adjacent modules overlap across their wall, and a depth is the longest
    chain of segments below or left of it, found by relaxing every pair
    until none changes rather than in a topological order.
    """
    sides, nx, ny = face_walk_segments(r)
    orders = [(b, t) for b, t, _, _ in sides.values()], [(lt, rt) for _, _, lt, rt in sides.values()]
    for e, (u, v) in r.orient.items():
        if u in sides and v in sides:
            (bu, tu, lu, ru), (bv, tv, lv, rv) = sides[u], sides[v]
            if r.color[e] == T2:
                orders[0].extend(((bu, tv), (bv, tu)))
            else:
                orders[1].extend(((lu, rv), (lv, ru)))
    ys, xs = [0] * ny, [0] * nx
    for depth, pairs in zip((ys, xs), orders):
        for _ in range(len(depth)):
            changed = False
            for a, b in pairs:
                if depth[b] <= depth[a]:
                    depth[b] = depth[a] + 1
                    changed = True
            if not changed:
                break
        else:
            raise ValueError("segment graph has a cycle")
    return {v: Rect(xs[lt], ys[b], xs[rt], ys[t]) for v, (b, t, lt, rt) in sides.items()}


# -- floor-plan geometry -------------------------------------------------------


def wall_contacts(fp: FloorPlan) -> dict[tuple[VertexId, VertexId], str]:
    """Module pairs sharing a wall segment of positive length.

    A pair (u, v) with u < v maps to 'H' when the two sit side by side
    and to 'V' when they are stacked.
    """
    pairs = {}
    for u, v in itertools.combinations(sorted(fp.rects), 2):
        a, b = fp.rects[u], fp.rects[v]
        touch_x = a.x2 == b.x1 or b.x2 == a.x1
        touch_y = a.y2 == b.y1 or b.y2 == a.y1
        if touch_x and min(a.y2, b.y2) - max(a.y1, b.y1) > 0:
            pairs[u, v] = "H"
        elif touch_y and min(a.x2, b.x2) - max(a.x1, b.x1) > 0:
            pairs[u, v] = "V"
    return pairs


def geometric_adjacency(fp: FloorPlan) -> set[tuple[VertexId, VertexId]]:
    """Module pairs sharing a wall segment of positive length."""
    return set(wall_contacts(fp))


def covered_cells(fp: FloorPlan) -> set[tuple[int, int]]:
    cells = set()
    for rc in fp.rects.values():
        for x in range(rc.x1, rc.x2):
            for y in range(rc.y1, rc.y2):
                cells.add((x, y))
    return cells


def concave_corner_count(fp: FloorPlan) -> int | None:
    """Lattice points where exactly three of the four incident cells are covered.

    None when two diagonally opposite cells alone are covered at some
    point: the covered region pinches there.
    """
    cells = covered_cells(fp)
    n = 0
    for x in range(fp.width + 1):
        for y in range(fp.height + 1):
            around = [
                (x - 1, y - 1) in cells,
                (x, y - 1) in cells,
                (x - 1, y) in cells,
                (x, y) in cells,
            ]
            k = sum(around)
            if k == 3:
                n += 1
            elif k == 2 and around[0] == around[3]:
                return None
    return n


def line_sweep_stretches(rects) -> list[tuple]:
    """Elementary wall stretches as layout._stretches gives them, swept line by line.

    Each line's events are gathered under their own key and sorted apart,
    then the lines in order.  Raises the same ValueError texts.
    """
    lines: dict[tuple[str, int], list[tuple[int, int, int, VertexId]]] = {}
    for v, rc in rects.items():
        if rc.x1 >= rc.x2 or rc.y1 >= rc.y2:
            raise ValueError(f"module {v} has a degenerate rectangle {rc}")
        for key, a, b, side in (
            (("y", rc.y1), rc.x1, rc.x2, 1),
            (("y", rc.y2), rc.x1, rc.x2, 0),
            (("x", rc.x1), rc.y1, rc.y2, 1),
            (("x", rc.x2), rc.y1, rc.y2, 0),
        ):
            events = lines.setdefault(key, [])
            events.append((a, 1, side, v))
            events.append((b, 0, side, v))
    out = []
    for (axis, c), events in sorted(lines.items()):
        events.sort()
        lows: list[VertexId] = []
        highs: list[VertexId] = []
        prev = events[0][0]
        for pos, starts, side, v in events:
            if pos != prev and (lows or highs):
                if len(lows) > 1 or len(highs) > 1:
                    pair = lows if len(lows) > 1 else highs
                    raise ValueError(f"modules {pair[0]} and {pair[1]} overlap along {axis}={c}")
                out.append((axis, c, prev, pos, lows[0] if lows else None, highs[0] if highs else None))
            owners = highs if side else lows
            if starts:
                owners.append(v)
            else:
                owners.remove(v)
            prev = pos
    return out


def no_overlaps(fp: FloorPlan) -> bool:
    total = sum(rc.width * rc.height for rc in fp.rects.values())
    return total == len(covered_cells(fp))


def profile_from_outline(fp: FloorPlan) -> CornerProfile:
    """Read the concave corner off a plan whose north-east notch is empty."""
    W, H = fp.width, fp.height
    corners = plan_outline(fp)
    if corners == ((0, H), (W, H), (W, 0), (0, 0)):
        raise NotCornerModule("plan has no notch")
    nx = max((x for x, y in corners if y == H), default=0)
    ny = max((y for x, y in corners if x == W), default=0)
    if nx == 0:
        want = ((0, ny), (W, ny), (W, 0), (0, 0))
    elif ny == 0:
        want = ((0, H), (nx, H), (nx, 0), (0, 0))
    else:
        want = ((0, H), (nx, H), (nx, ny), (W, ny), (W, 0), (0, 0))
    if corners != want:
        raise NotCornerModule("uncovered cells are not a north-east rectangle")
    return CornerProfile(nx=nx, ny=ny, notch=Rect(nx, ny, W, H))


def scan_nontrivial_L(fp: FloorPlan, profile: CornerProfile) -> NonTrivialityVerdict:
    """verify_nontrivial_L by whole-plan scans over the rectangles.

    The notch walls' modules are found by their coordinates, the modules
    at the corner by closed-rectangle containment, and walk contacts by
    wall_contacts.  Same verdict, walk, witness and errors; the both-walls
    error is kept as it was written, though no rectangle can raise it.
    """
    nx, ny, H, W = profile.nx, profile.ny, fp.height, fp.width
    rects = fp.rects
    w1 = [v for v, rc in rects.items() if rc.x2 == nx and min(rc.y2, H) - max(rc.y1, ny) > 0]
    w1.sort(key=lambda v: -rects[v].y2)
    w2 = [v for v, rc in rects.items() if rc.y2 == ny and min(rc.x2, W) - max(rc.x1, nx) > 0]
    w2.sort(key=lambda v: rects[v].x1)
    both = set(w1) & set(w2)
    if both:
        raise ValueError(f"modules {sorted(both)} lie on both notch walls")
    at_corner = [v for v, rc in rects.items() if rc.x1 <= nx <= rc.x2 and rc.y1 <= ny <= rc.y2]
    if len(at_corner) != 2:
        raise ValueError(f"{len(at_corner)} modules meet the concave corner, need 2")
    walk = tuple(w1 + w2)
    if len(walk) < 3:
        return NonTrivialityVerdict(False, walk, None)
    contacts = wall_contacts(fp)
    orients = []
    for u, v in zip(walk, walk[1:]):
        o = contacts.get((min(u, v), max(u, v)))
        if o is None:
            raise ValueError(f"walk neighbors {u},{v} do not touch")
        orients.append(o)
    for i in range(len(orients) - 1):
        if orients[i] != orients[i + 1]:
            return NonTrivialityVerdict(True, walk, walk[i : i + 3])
    return NonTrivialityVerdict(False, walk, None)


# -- the brute-force stretcher ---------------------------------------------------


_STRETCH_CAP = 400_000
# side -> the Rect field a move of that side changes, and its sign when the module grows
_SIDES = {"W": ("x1", -1), "E": ("x2", 1), "S": ("y1", -1), "N": ("y2", 1)}


def _outside(rc: Rect, side: str) -> list[tuple[int, int]]:
    """The unit cells just outside one side of rc."""
    if side in "WE":
        x = rc.x1 - 1 if side == "W" else rc.x2
        return [(x, y) for y in range(rc.y1, rc.y2)]
    y = rc.y1 - 1 if side == "S" else rc.y2
    return [(x, y) for x in range(rc.x1, rc.x2)]


def stretcher_is_trivial(fp: FloorPlan) -> bool:
    """True when some sequence of outer-wall unit moves loses a concave corner.

    Exhaustive search over whole-wall stretch/shrink moves that keep
    every module inside the original bounding box and preserve the
    module adjacency relation exactly, contact orientations included.
    A wall may move when some cell just outside it is uncovered.  The
    modules of fp must lie inside its box.
    """
    if len(fp.rects) > 10:
        raise ScaleExceeded(f"{len(fp.rects)} modules exceed the oracle scale")
    w, h = fp.width, fp.height
    target_adj = wall_contacts(fp)
    init_corners = concave_corner_count(fp)
    if init_corners is None:
        raise ValueError("initial plan has a point pinch")
    if init_corners == 0:
        return False

    ids = sorted(fp.rects)
    start = tuple(fp.rects[m] for m in ids)
    seen = {start}
    queue = deque([start])
    while queue:
        cur = dict(zip(ids, queue.popleft()))
        cells = covered_cells(FloorPlan(cur, w, h, {}))
        for m in ids:
            rc = cur[m]
            for side, (field, grow) in _SIDES.items():
                if all(c in cells for c in _outside(rc, side)):
                    continue
                for d in (1, -1):
                    new = rc._replace(**{field: getattr(rc, field) + grow * d})
                    if new.width < 1 or new.height < 1:
                        continue
                    if new.x1 < 0 or new.y1 < 0 or new.x2 > w or new.y2 > h:
                        continue
                    nxt = FloorPlan({**cur, m: new}, w, h, {})
                    key = tuple(nxt.rects[i] for i in ids)
                    if key in seen:
                        continue
                    seen.add(key)
                    if len(seen) > _STRETCH_CAP:
                        raise ScaleExceeded("stretch state space exceeds the oracle cap")
                    if not no_overlaps(nxt) or wall_contacts(nxt) != target_adj:
                        continue
                    corners = concave_corner_count(nxt)
                    if corners is None:
                        continue
                    if corners < init_corners:
                        return True
                    queue.append(key)
    return False


# -- path sets and completions --------------------------------------------------


def attach_all(
    g: EmbeddedGraph, attachments: list[tuple[tuple[VertexId, ...], VertexId, str | None]]
) -> EmbeddedGraph:
    """g with a vertex added outside per (clockwise outer arc, id, label), built once, checked."""
    rot = {v: list(nbrs) for v, nbrs in g.rotation.items()}
    outer, labels = list(g.outer), dict(g.labels)
    for arc, new_id, label in attachments:
        outer = attach_vertex(rot, outer, arc, new_id)
        if label is not None:
            labels[new_id] = label
    return EmbeddedGraph(
        rotation={v: tuple(ns) for v, ns in rot.items()}, outer=tuple(outer), labels=labels
    )


def completion_steps(
    g: EmbeddedGraph,
    qpaths: tuple[tuple[VertexId, ...], ...],
    ne: VertexId | None = None,
    ne_arc: tuple[VertexId, ...] | None = None,
) -> tuple[dict[str, VertexId], list[tuple[tuple[VertexId, ...], VertexId, str]]]:
    """The pole ids of four_completion's arguments, and its attachments in order."""
    first = [] if ne_arc is None else [(ne_arc, ne, "NE")]
    base = (g.vertices[-1] if ne_arc is None else max(g.vertices[-1], ne)) + 1
    ids = {"N": base, "E": base + 1, "S": base + 2, "W": base + 3}
    q1, q2, q3, q4 = qpaths
    return ids, first + [
        (q1, ids["N"], "N"),
        ((ids["N"],) + q2, ids["E"], "E"),
        ((ids["E"],) + q3, ids["S"], "S"),
        ((ids["S"],) + q4 + (ids["N"],), ids["W"], "W"),
    ]


def fresh_completion(
    g: EmbeddedGraph,
    qpaths: tuple[tuple[VertexId, ...], ...],
    ne: VertexId | None = None,
    ne_arc: tuple[VertexId, ...] | None = None,
) -> AugmentedGraph:
    """four_completion by one fresh, checked build of all attachments: the reference."""
    ids, steps = completion_steps(g, qpaths, ne, ne_arc)
    return AugmentedGraph(base=attach_all(g, steps), ne=ne, poles=ids, pprime=tuple(qpaths))


def unchecked_completion(
    g: EmbeddedGraph,
    qpaths: tuple[tuple[VertexId, ...], ...],
    ne: VertexId | None = None,
    ne_arc: tuple[VertexId, ...] | None = None,
) -> EmbeddedGraph | None:
    """four_completion's graph, each vertex attached with no rule against separating triangles.

    Each step only puts the new vertex outside a clockwise outer arc of
    two or more vertices, next to the arc's vertices; the graph is built
    fresh, and so checked, once.  None when a step's arc is no such arc.
    The reference for attach_vertex's rule, which validate_ptpg on this
    graph must confirm.
    """
    rot = {v: list(nbrs) for v, nbrs in g.rotation.items()}
    outer = list(g.outer)
    for arc, new_id, _ in completion_steps(g, qpaths, ne, ne_arc)[1]:
        k = len(outer)
        i = outer.index(arc[0]) if arc[0] in outer else -1
        if i < 0 or not 2 <= len(arc) <= k or list(arc) != [outer[(i + j) % k] for j in range(len(arc))]:
            return None
        rot[new_id] = list(reversed(arc))
        for j, v in enumerate(arc):
            p = rot[v].index(outer[(i + j - 1) % k]) + 1  # after v's predecessor on the cycle
            rot[v].insert(p, new_id)
        outer = [new_id] + [outer[(i + len(arc) - 1 + j) % k] for j in range(k - len(arc) + 2)]
    return EmbeddedGraph(rotation={v: tuple(ns) for v, ns in rot.items()}, outer=tuple(outer))


def attach_outside(
    g: EmbeddedGraph, arc: tuple[VertexId, ...], new_id: VertexId, label: str | None = None
) -> EmbeddedGraph:
    """Add a vertex outside the boundary, adjacent to a clockwise outer arc."""
    return attach_all(g, [(arc, new_id, label)])


def augment_with_ne(g: EmbeddedGraph, ps: PathSet) -> tuple[EmbeddedGraph, VertexId]:
    """g with the north-east helper attached over ps.p1, built on its own.

    The first step of the two-step completion that pipeline.plan does in
    one build: four_completion(augment_with_ne(g, ps)[0], qpaths, ne=ne)
    equals four_completion(g, qpaths, ne=ne, ne_arc=ps.p1).
    """
    ne = max(g.vertices) + 1
    return attach_outside(g, ps.p1, ne, label="NE"), ne


def path_sets(g: EmbeddedGraph, triplet, cips):
    """Every path set whose splits meet each CIP interior, in select_paths' order.

    Splits are numbered clockwise from c = 0 to a = m - 1, b left out,
    and read as s2 <= s3 <= s4 <= s5 <= s1, no vertex more than twice.
    The order is s2 ascending, s1 descending, s3 ascending, s5 at s1 first
    and then ascending, s4 ascending.  Sorts every multiset up front.
    """
    i = g.outer_pos[triplet.c]
    ring = [v for v in g.outer[i:] + g.outer[:i] if v != triplet.b]
    hits = [sum(1 << k for k, c in enumerate(cips) if v in c.interior) for v in ring]
    every = (1 << len(cips)) - 1  # bit k: the splits meet the interior of CIP k
    keyed = []
    for t in itertools.combinations_with_replacement(range(len(ring)), 5):
        met = hits[t[0]] | hits[t[1]] | hits[t[2]] | hits[t[3]] | hits[t[4]]
        if met == every and max(map(t.count, t)) <= 2:
            keyed.append(((t[0], -t[4], t[1], t[3] != t[4], t[3], t[2]), t))
    for _, t in sorted(keyed):
        yield paths_from_splits(g, triplet, Counter(ring[s] for s in t))


def feasible_split_multisets(g: EmbeddedGraph, triplet, cips) -> int:
    """How many path sets of path_sets pass the path conditions.

    Checks the library's own condition list, so this exercises the
    search layer, not the conditions themselves.
    """
    return sum(not check_path_conditions(g, ps) for ps in path_sets(g, triplet, cips))


def pad_multisets(scan: list[VertexId], counts: Counter, need: int):
    """All ways to add `need` split instances, lexicographic in scan order.

    A vertex takes at most 2 - counts[v] instances, the larger takes
    first; the search is iterative, so long boundaries cannot exhaust
    the interpreter stack.
    """
    budget = [2 - counts.get(v, 0) for v in scan]
    takes: list[int] = []  # instances taken at scan[0], scan[1], ...
    acc: list[VertexId] = []
    left = need
    while True:
        i = len(takes)
        if left and i < len(scan) and budget[i] >= 0:
            t = min(budget[i], left)
            takes.append(t)
            acc.extend([scan[i]] * t)
            left -= t
            continue
        if not left:
            yield list(acc)
        # Backtrack to the last position that can take one instance fewer.
        while takes and not takes[-1]:
            takes.pop()
        if not takes:
            return
        takes[-1] -= 1
        acc.pop()
        left += 1


def _rect_paths(g: EmbeddedGraph, counts: Counter) -> list[tuple[VertexId, ...]] | None:
    order = sorted(counts, key=lambda v: g.outer_pos[v])
    cuts: list[VertexId] = []
    for v in order:
        cuts.extend([v] * counts[v])
    paths = []
    for i in range(4):
        u, v = cuts[i], cuts[(i + 1) % 4]
        paths.append((u,) if u == v else boundary_arc(g, u, v))
    chord_list = g.chords
    for p in paths:
        pv = set(p)
        if any(x in pv and y in pv for x, y in chord_list):
            return None
    # The first pole attaches without a chained companion, so its path
    # must span an edge; rotate a degenerate path out of front position.
    shift = next((i for i in range(4) if len(paths[i]) >= 2), None)
    if shift is None:
        return None
    return paths[shift:] + paths[:shift]


def padded_rectangular_plan(g: EmbeddedGraph) -> RectResult:
    """rectangular_plan by search: corners from CIP representatives padded every way.

    Tries up to 512 combinations of one interior vertex per CIP, each
    padded to four corner instances in every way pad_multisets yields
    (50000 tries in all), and keeps the first whose pole paths carry no
    chord and whose completion validates, labels and draws.  It runs the
    library's completion, labeling and drawing, so it checks the corner
    choice only.  Budget or a dead end gives Exhausted.
    """
    _require_ptpg(g)
    cips = find_cips(g)
    if len(cips) > 4:
        return RectResult(
            outcome="TooManyCips",
            graph=g,
            cips=cips,
            reason=f"{len(cips)} corner-implying paths, at most 4 usable corners",
        )
    cand = [list(c.interior) for c in cips]
    combos = list(itertools.islice(itertools.product(*cand), 512)) or [()]
    budget = 50000
    last_reason = "no chord-free corner assignment found"
    for combo in combos:
        base = Counter(combo)
        if any(m > 2 for m in base.values()):
            continue
        need = 4 - sum(base.values())
        for extra in pad_multisets(list(g.outer), base, need):
            budget -= 1
            if budget < 0:
                return RectResult(outcome="Exhausted", graph=g, cips=cips, reason="search budget exhausted")
            counts = Counter(base)
            counts.update(extra)
            paths = _rect_paths(g, counts)
            if paths is None:
                continue
            try:
                ag = four_completion(g, tuple(paths))
            except EmbeddingConflict as exc:
                last_reason = str(exc)
                continue
            if not validate_ptpg(ag.base).verdict:
                last_reason = "completion has separating structure"
                continue
            try:
                rel = construct_rel(ag)
                fp = rfp_from_rel(rel)
            except (NotConstructible, ValueError) as exc:
                last_reason = str(exc)
                continue
            return RectResult(
                outcome="Plan", graph=g, cips=cips, plan=fp, completion=ag, rel=rel
            )
    return RectResult(outcome="Exhausted", graph=g, cips=cips, reason=last_reason)
