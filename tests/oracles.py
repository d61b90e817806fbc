"""Independent recomputations used to cross-check the library.

Everything here is deliberately naive: exhaustive search, set algebra,
geometry read straight off the rectangles.  Nothing below shares logic
with the modules it checks beyond the plain data containers, so a bug
would have to be made twice to slip through.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter

from lplan.boundary import Cip, Shortcut
from lplan.graph import Dart, EmbeddedGraph, InconsistentEmbedding, VertexId
from lplan.layout import FloorPlan
from lplan.paths import AugmentedGraph, check_path_conditions, paths_from_splits


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
    adj = g.adj
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
    out = []
    verts = sorted(g.vertices)
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            if v not in g.adj[u]:
                continue
            for w in sorted(g.adj[u] & g.adj[v]):
                if w > v:
                    out.append((u, v, w))
    return out


def brute_separating_triangles(g: EmbeddedGraph) -> set[frozenset]:
    """3-cliques that do not bound any face, inner or outer.

    In a triangulated disk a triangle either is a face or encloses at
    least one vertex, so this matches the strictly-inside definition.
    """
    face_sets = {frozenset(f) for f in walk_faces(g) if len(f) == 3}
    return {
        frozenset(t) for t in brute_triangles(g) if frozenset(t) not in face_sets
    }


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


def brute_chords(g: EmbeddedGraph) -> list[tuple[VertexId, VertexId]]:
    """Edges between outer vertices that are not outer edges, from all edges sorted."""
    outer = set(g.outer)
    ring = {frozenset((g.outer[i], g.outer[i - 1])) for i in range(len(g.outer))}
    return [
        (u, v)
        for u, v in sorted(g.edges)
        if u in outer and v in outer and frozenset((u, v)) not in ring
    ]


def brute_shortcuts(g: EmbeddedGraph) -> tuple[Shortcut, ...]:
    """Each chord with the interior of its shorter arc (ties: the arc from the lower id)."""
    out = []
    for u, v in brute_chords(g):
        arc_uv, arc_vu = brute_arc(g, u, v), brute_arc(g, v, u)
        if len(arc_uv) < len(arc_vu) or (len(arc_uv) == len(arc_vu) and u < v):
            short = arc_uv
        else:
            short = arc_vu
        out.append(Shortcut(edge=(u, v), interior=short[1:-1]))
    return tuple(out)


def _arc_is_cip(g: EmbeddedGraph, arc: tuple[VertexId, ...]) -> bool:
    """No two non-consecutive arc vertices adjacent, apart from the arc's ends."""
    k = len(arc)
    for i in range(k):
        for j in range(i + 2, k):
            if i == 0 and j == k - 1:
                continue
            if arc[j] in g.adj[arc[i]]:
                return False
    return True


def brute_cips(g: EmbeddedGraph) -> tuple[Cip, ...]:
    """Both arcs of every chord, tested pair by pair, by outer position then length."""
    out = []
    for u, v in brute_chords(g):
        for arc in (brute_arc(g, u, v), brute_arc(g, v, u)):
            if _arc_is_cip(g, arc):
                out.append(Cip(vertices=arc, chord=(u, v)))
    out.sort(key=lambda c: (g.outer.index(c.vertices[0]), len(c.vertices)))
    return tuple(out)


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
        for w in g.adj[p]:
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


def canonical_labeling(color: dict, orient: dict) -> tuple:
    return (
        tuple(sorted(color.items())),
        tuple(sorted(orient.items())),
    )


# -- floor-plan geometry -------------------------------------------------------


def geometric_adjacency(fp: FloorPlan) -> set[tuple[VertexId, VertexId]]:
    """Module pairs sharing a wall segment of positive length."""
    pairs = set()
    for u, v in itertools.combinations(sorted(fp.rects), 2):
        a, b = fp.rects[u], fp.rects[v]
        touch_x = a.x2 == b.x1 or b.x2 == a.x1
        touch_y = a.y2 == b.y1 or b.y2 == a.y1
        if touch_x and min(a.y2, b.y2) - max(a.y1, b.y1) > 0:
            pairs.add((u, v))
        elif touch_y and min(a.x2, b.x2) - max(a.x1, b.x1) > 0:
            pairs.add((u, v))
    return pairs


def covered_cells(fp: FloorPlan) -> set[tuple[int, int]]:
    cells = set()
    for rc in fp.rects.values():
        for x in range(rc.x1, rc.x2):
            for y in range(rc.y1, rc.y2):
                cells.add((x, y))
    return cells


def concave_corner_count(fp: FloorPlan) -> int:
    """Lattice points where exactly three of the four incident cells are covered."""
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
            if sum(around) == 3:
                n += 1
    return n


def no_overlaps(fp: FloorPlan) -> bool:
    total = sum(rc.width * rc.height for rc in fp.rects.values())
    return total == len(covered_cells(fp))


# -- path-set feasibility by exhaustion ----------------------------------------


def feasible_split_multisets(g: EmbeddedGraph, triplet, cips) -> int:
    """How many 5-instance split choices pass the path conditions.

    Exhausts every multiset over the boundary (b excluded, at most two
    instances per vertex) that covers each CIP interior.  Checks the
    library's own condition list, so this exercises the search layer,
    not the conditions themselves.
    """
    boundary = [v for v in g.outer if v != triplet.b]
    hits = 0
    for comb in set(itertools.combinations(sorted(boundary * 2), 5)):
        counts = Counter(comb)
        if any(not (set(c.interior) & set(counts)) for c in cips):
            continue
        ps = paths_from_splits(g, triplet, counts)
        try:
            if not check_path_conditions(g, ps):
                hits += 1
        except ValueError:
            continue
    return hits
