"""Regular edge labelings on four-completed triangulations.

Every edge except the four pole-pole boundary edges carries a color
(T1 or T2) and a direction.  Around an interior vertex the incident
edges form, in clockwise order, four nonempty blocks: T1 outgoing,
T2 outgoing, T1 incoming, T2 incoming.  At the poles all non-pole
edges are uniform: into N as T1, out of S as T1, into E as T2, out
of W as T2.

A dart (v, u) reads as a class at v, 0..3 in that block order (the
color bit plus 2 for an incoming edge).  is_valid_rel reads every
dart's class in one pass and checks a ring by its classes alone: the ring
is regular exactly when every cyclic step between neighboring classes
is 0 or +1 mod 4 and the steps sum to 4.  Only a ring that fails is
read again as runs, to name its blocks in the defect.

construct_rel finds a labeling by exact search: every unpinned edge is
a finite-domain variable over its four color/direction values, and the
block pattern at each vertex is enforced by propagation: one loop over
the inner vertices, numbered 0..m-1 and queued first in, first out,
filters each ring with a linear, bit-parallel pass over 20-bit phase
states, through tables that take a value set to its admitted states and
a state back to the values it keeps (_propagate).  Filters only shrink
domains, so every order, and a start from just the rings the pinned
pole rows touch, reaches one fixpoint.  The depth-first search runs on
an explicit stack, scans for its pick past the settled prefix of its
edge order, and restarts at random to dodge the occasional deep dead
end.  flip_edge / flip_vertex / rotate_four_cycle are the local moves
of label normalization; each checks only the rings it changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice, product

from .graph import (
    Edge,
    EmbeddedGraph,
    VertexId,
    edge_key,
    faces_inside_cycle,
)
from .paths import AugmentedGraph

T1 = "T1"
T2 = "T2"

_BLOCK_ORDER = ("T1out", "T2out", "T1in", "T2in")
_POLE_RULE = {"N": (T1, "in"), "E": (T2, "in"), "S": (T1, "out"), "W": (T2, "out")}


class NotConstructible(RuntimeError):
    pass


class NotFlippable(ValueError):
    pass


class NotAlternating(ValueError):
    pass


@dataclass(frozen=True)
class FourCycle:
    vertices: tuple[VertexId, VertexId, VertexId, VertexId]


@dataclass
class Rel:
    graph: EmbeddedGraph
    poles: dict[str, VertexId]
    color: dict[Edge, str]
    orient: dict[Edge, tuple[VertexId, VertexId]]

    @property
    def pole_ids(self) -> tuple[VertexId, ...]:
        return tuple(self.poles[k] for k in ("N", "E", "S", "W"))

    def label(self, u: VertexId, v: VertexId) -> str:
        return self.color[edge_key(u, v)]

    def direction(self, u: VertexId, v: VertexId) -> tuple[VertexId, VertexId]:
        return self.orient[edge_key(u, v)]

    def clone(self) -> "Rel":
        return Rel(self.graph, dict(self.poles), dict(self.color), dict(self.orient))


@dataclass(frozen=True)
class RelValidity:
    ok: bool
    defect: str | None = None


def _pole_name(r: Rel, v: VertexId) -> str | None:
    for name, pid in r.poles.items():
        if pid == v:
            return name
    return None


# the class every non-pole dart at a pole reads as
_POLE_CLASS = {name: _BLOCK_ORDER.index(col + d) for name, (col, d) in _POLE_RULE.items()}


def _ring_defect(v: VertexId, classes: list[int]) -> str | None:
    """None when the ring's classes, clockwise, form the four blocks in order.

    They do exactly when every cyclic step between neighboring classes is
    0 or +1 mod 4 and the steps sum to 4: then four runs pass T1out,
    T2out, T1in, T2in once each.  On failure the message names the runs.
    """
    prev = classes[-1]
    steps = 0
    for c in classes:
        step = (c - prev) & 3
        if step > 1:
            break
        steps += step
        prev = c
    else:
        if steps == 4:
            return None
    runs: list[int] = []
    for c in classes:
        if not runs or runs[-1] != c:
            runs.append(c)
    if len(runs) > 1 and runs[0] == runs[-1]:
        runs.pop()
    names = [_BLOCK_ORDER[c] for c in runs]
    if sorted(runs) != [0, 1, 2, 3]:
        return f"vertex {v}: blocks {names}"
    return f"vertex {v}: block order {names}"


def _pole_defect(r: Rel, name: str) -> str | None:
    v = r.poles[name]
    skip = set(r.pole_ids)
    want_col, want_dir = _POLE_RULE[name]
    for u in r.graph.rotation[v]:
        if u in skip:
            continue
        e = edge_key(u, v)
        if e not in r.color:
            return f"pole {name}: edge to {u} unlabeled"
        tail, _ = r.orient[e]
        d = "out" if tail == v else "in"
        if (r.color[e], d) != (want_col, want_dir):
            return f"pole {name}: edge to {u} is {r.color[e]} {d}"
    return None


def _vertex_defect(r: Rel, v: VertexId) -> str | None:
    name = _pole_name(r, v)
    if name is not None:
        return _pole_defect(r, name)
    classes = []
    for u in r.graph.rotation[v]:
        e = edge_key(u, v)
        if e not in r.color:
            return f"vertex {v}: edge to {u} unlabeled"
        classes.append((0 if r.color[e] == T1 else 1) | (2 if r.orient[e][0] != v else 0))
    return _ring_defect(v, classes)


def is_valid_rel(r: Rel) -> RelValidity:
    skip = set(r.pole_ids)
    expected = {e for e in r.graph.edges if not (e[0] in skip and e[1] in skip)}
    if set(r.color) != expected or set(r.orient) != expected:
        return RelValidity(False, "labeled edge set mismatch")
    cls: dict[tuple[VertexId, VertexId], int] = {}  # the class at v of dart (v, u)
    for e, (tail, head) in r.orient.items():
        if edge_key(tail, head) != e:
            return RelValidity(False, f"orientation endpoints of {e} wrong")
        col = r.color[e]
        if col not in (T1, T2):
            return RelValidity(False, f"bad color on {e}")
        cls[tail, head] = c = 0 if col == T1 else 1
        cls[head, tail] = c | 2
    rot = r.graph.rotation
    for name in ("N", "E", "S", "W"):
        v = r.poles[name]
        want = _POLE_CLASS[name]
        if any(cls[v, u] != want for u in rot[v] if u not in skip):
            return RelValidity(False, _pole_defect(r, name))
    for v in r.graph.vertices:
        if v in skip:
            continue
        d = _ring_defect(v, [cls[v, u] for u in rot[v]])
        if d:
            return RelValidity(False, d)
    return RelValidity(True)


# -- construction ------------------------------------------------------------

_NODE_CAP = 250000

# Edge values: bit 0 = color (0 T1, 1 T2), bit 1 = direction (0 along the
# sorted key, 1 reversed).  At an endpoint a value reads as a dart class,
# indexed by _BLOCK_ORDER: 0 T1out, 1 T2out, 2 T1in, 3 T2in.  At the first
# endpoint of the key every value is its own class; at the second the
# direction reads reversed, so the class is value ^ 2.  _CLASSES[first]
# maps a set of values to the set of classes they read as, and as the map
# is its own inverse it also maps kept classes back to kept values.

_FULL = 0b1111
_CLASSES = {
    True: tuple(range(16)),
    False: tuple((m & 0b0011) << 2 | m >> 2 for m in range(16)),
}
_SIZE = tuple(m.bit_count() for m in range(16))

# The ring-word check reads a ring from position 0 onward.  A valid word
# is fixed by the class x of position 0 and, at each position, its phase
# k: the number of class steps passed so far, 0..4, where phase 4 is the
# tail that rejoins the run holding position 0.  Position t then has class
# (x + k) % 4.  State bit 4k + x is live while some word with that x and k
# matches the masks read so far.  Each step keeps or advances the phase.
# A word closes in phase 3, where the step back into position 0 is its
# fourth class step, or in phase 4, where it has taken all four already.
_ADMIT = tuple(
    sum(1 << (4 * k + x) for k in range(5) for x in range(4) if m >> ((x + k) & 3) & 1)
    for m in range(16)
)
_CLOSING = 0xFF000  # phases 3 and 4
_AFTER = 0xF0000  # past the last position: one step back keeps the closing states


def _state_classes(low: int) -> tuple[int, ...]:
    """Classes read by each 10-bit slice of a state, the slice starting at bit low."""
    out = [0]
    for i in range(low, low + 10):
        c = 1 << ((i + i // 4) & 3)  # bit i = 4k + x reads class x + k
        out += [m | c for m in out]
    return tuple(out)


# Per key orientation: a value set's admitted states, the same cut to
# phase 0 for position 0, and the values each 10-bit state slice keeps
# (_CLASSES[first] permutes bits, so it distributes over the slices' OR).
_TABLES = {
    first: (
        tuple(_ADMIT[m] for m in cls),
        tuple(_ADMIT[m] & 0xF for m in cls),
        tuple(cls[m] for m in _state_classes(0)),
        tuple(cls[m] for m in _state_classes(10)),
    )
    for first, cls in _CLASSES.items()
}

Ring = list[tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...], int]]


def _ring(positions: list[tuple[int, bool, int]]) -> Ring:
    """A ring for _propagate from (edge, whether the vertex is the key's first, neighbor)."""
    ring = []
    for i, first, w in positions:
        admit, opening, low, high = _TABLES[first]
        ring.append((i, opening if not ring else admit, low, high, w))
    return ring


def _propagate(
    rings: list[Ring], dom: list[int], seeds, queued: list[bool], trail: list[tuple[int, int]]
) -> bool:
    """Filter rings until no value set shrinks; False when some ring admits no word.

    rings[v] holds, clockwise, each position's edge, tables and neighbor,
    queued first in, first out when the edge shrinks; queued[w] stays True
    for the poles' shared id.  A forward pass finds each position's live
    states, and a backward pass from the closing states keeps those on a
    complete word, skipping singletons: they cannot shrink once a word
    exists.  Old values of shrunk domains go to trail.
    """
    queue = list(seeds)
    for v in queue:
        queued[v] = True
    for v in queue:  # the loop reaches what it appends
        queued[v] = False
        ring = rings[v]
        live = []
        cur = 0xF
        for i, admit, _, _, _ in ring:
            cur = (cur | cur << 4) & admit[dom[i]]
            live.append(cur)
        if not cur & _CLOSING:
            for w in queue:
                queued[w] = False
            return False
        cur = _AFTER
        for i, _, low, high, w in reversed(ring):
            cur = (cur | cur >> 4) & live.pop()
            old = dom[i]
            if old & (old - 1):
                new = low[cur & 1023] | high[cur >> 10]
                if new != old:
                    trail.append((i, old))
                    dom[i] = new
                    if not queued[w]:
                        queued[w] = True
                        queue.append(w)
    return True


def _search_space(
    ag: AugmentedGraph,
) -> tuple[list[Edge], list[int], list[Ring], dict[VertexId, int], list[int]]:
    """The sorted edges, their value sets, the rings, dense ids and first seeds.

    Value sets are pinned on the pole rows.  Inner vertices are ids 0..m-1
    in ascending order, rings[k] is the ring of id k, and the poles share
    id m.  The seeds are the rings the pinning can narrow: those with a
    pole edge or fewer than four edges.
    """
    g = ag.base
    poles = set(ag.pole_ids)
    edges = sorted(e for e in g.edges if not (e[0] in poles and e[1] in poles))
    index = {e: i for i, e in enumerate(edges)}
    dom = [_FULL] * len(edges)
    for name, p in ag.poles.items():  # a value is its class at the key's first end
        for x in g.rotation[p]:
            if x not in poles:
                e = edge_key(x, p)
                dom[index[e]] = 1 << (_POLE_CLASS[name] ^ (0 if e[0] == p else 2))
    inner = [v for v in g.vertices if v not in poles]
    m = len(inner)
    dense = dict.fromkeys(poles, m)
    dense.update((v, k) for k, v in enumerate(inner))
    rings = [
        _ring([(index[(v, w) if v < w else (w, v)], v < w, dense[w]) for w in g.rotation[v]])
        for v in inner
    ]
    seeds = [k for k, ring in enumerate(rings) if len(ring) < 4 or any(p[4] == m for p in ring)]
    return edges, dom, rings, dense, seeds


def construct_rel(ag: AugmentedGraph) -> Rel:
    """Find a labeling by exact search over edge colors and directions.

    Every edge except the four boundary ones is a four-valued variable
    (color times direction), held as a bitmask of the values it may
    still take.  Pole rows are pinned first: T1 into N, T1 out of S, T2
    into E, T2 out of W.  The block pattern at each inner vertex is
    enforced by filtering its ring (_propagate), which keeps the values
    of some valid ring word.  Whenever an edge's value set shrinks, the
    opposite endpoint is queued, first in, first out.  The filters only
    shrink domains, so propagation reaches the same fixpoint and the
    same wipeout in any order.  It starts from the rings with a pinned
    edge or fewer than four edges: an all-open ring of four or more
    admits every value at every position, so its filter changes nothing.

    The search branches on a smallest-domain edge, in a shuffled edge
    order, tries its values in shuffled order and backtracks on wipeout.
    Domains only shrink below a choice point, so each records the settled
    prefix of the order, its singletons, and the scans below start past
    it.  On the planted-mid inputs of seed 1 the search took 8,928 nodes
    over 338 calls.  A DFS that overruns its node quota restarts with a
    fresh shuffle and a doubled quota, up to _NODE_CAP nodes in all; only
    a DFS that finishes inside its quota may declare infeasibility.
    """
    g = ag.base
    poles = set(ag.pole_ids)
    edges, dom, rings, dense, seeds = _search_space(ag)
    queued = [False] * len(rings) + [True]

    def undo(trail: list[tuple[int, int]]) -> None:
        for i, old in reversed(trail):
            dom[i] = old

    if not _propagate(rings, dom, seeds, queued, []):
        raise NotConstructible("pole rows admit no block pattern")

    base = list(dom)
    order = list(range(len(edges)))

    def branch(rng: random.Random, stack: list[list]) -> bool:
        """Open a choice point on a smallest open domain; False when none is open."""
        start = stack[-1][3] if stack else 0
        while start < len(order) and _SIZE[dom[order[start]]] == 1:
            start += 1
        pick = None
        size = 5
        for i in islice(order, start, None):
            c = _SIZE[dom[i]]
            if 1 < c < size:
                pick, size = i, c
                if c == 2:
                    break
        if pick is None:
            return False
        vals = [v for v in range(4) if dom[pick] >> v & 1]
        rng.shuffle(vals)
        stack.append([pick, iter(vals), None, start])
        return True

    def solve(rng: random.Random, quota: int) -> bool | None:
        """Depth-first search over an explicit stack of choice points.

        True leaves dom solved, False means that no labeling exists, and
        None that the search would take more than quota nodes.  Each
        choice point holds its edge, its untried values, the trail of the
        value on trial and the settled prefix.
        """
        stack: list[list] = []
        if not branch(rng, stack):
            return True
        nodes = 0
        while stack:
            top = stack[-1]
            pick, vals, trail, _ = top
            if trail is not None:
                undo(trail)
            val = next(vals, None)
            if val is None:
                stack.pop()
                continue
            nodes += 1
            if nodes > quota:
                return None
            trail = top[2] = [(pick, dom[pick])]
            dom[pick] = 1 << val
            seeds = [dense[x] for x in edges[pick] if x not in poles]
            if _propagate(rings, dom, seeds, queued, trail) and not branch(rng, stack):
                return True
        return False

    # Restart with a fresh shuffle and a doubled quota when a tie-break
    # sends the DFS down a deep dead end.
    spent = 0
    attempt = 0
    while True:
        quota = min(400 << attempt, _NODE_CAP - spent)
        if quota <= 0:
            raise NotConstructible("label search exceeded its cap")
        rng = random.Random(attempt)
        rng.shuffle(order)
        found = solve(rng, quota)
        if found:
            break
        if found is not None:
            raise NotConstructible("no labeling satisfies the block patterns")
        dom[:] = base
        spent += quota + 1  # the overrunning search tried quota + 1 values
        attempt += 1

    color: dict[Edge, str] = {}
    orient: dict[Edge, tuple[VertexId, VertexId]] = {}
    for e, d in zip(edges, dom):
        val = d.bit_length() - 1
        color[e] = T1 if val & 1 == 0 else T2
        orient[e] = (e[0], e[1]) if val < 2 else (e[1], e[0])
    live = Rel(graph=g, poles=dict(ag.poles), color=color, orient=orient)
    rep = is_valid_rel(live)
    if not rep.ok:
        raise NotConstructible(f"constructed labeling invalid: {rep.defect}")
    return live


# -- local moves -------------------------------------------------------------


def flip_edge(r: Rel, u: VertexId, v: VertexId) -> None:
    """Toggle the color of edge (u, v) in place, keeping the labeling regular."""
    e = edge_key(u, v)
    if e not in r.color:
        raise NotFlippable(f"edge {e} carries no label")
    old_col, old_or = r.color[e], r.orient[e]
    new_col = T2 if old_col == T1 else T1
    for cand in ((u, v), (v, u)):
        r.color[e] = new_col
        r.orient[e] = cand
        if _vertex_defect(r, u) is None and _vertex_defect(r, v) is None:
            return
    r.color[e] = old_col
    r.orient[e] = old_or
    raise NotFlippable(f"flip of {e} admits no valid direction")


def is_flippable_edge(r: Rel, u: VertexId, v: VertexId) -> bool:
    probe = r.clone()
    try:
        flip_edge(probe, u, v)
    except NotFlippable:
        return False
    return True


def flip_vertex(r: Rel, v: VertexId) -> None:
    """Toggle the colors of all four edges at a degree-4 interior vertex."""
    if v in set(r.pole_ids):
        raise NotFlippable("poles can not be flipped")
    nbrs = r.graph.rotation[v]
    if len(nbrs) != 4:
        raise NotFlippable(f"vertex {v} has degree {len(nbrs)}, need 4")
    keys = [edge_key(v, w) for w in nbrs]
    if any(k not in r.color for k in keys):
        raise NotFlippable("unlabeled edge at vertex")
    old = {k: (r.color[k], r.orient[k]) for k in keys}
    for k in keys:
        r.color[k] = T2 if old[k][0] == T1 else T1
    for dirs in product(*[((v, w), (w, v)) for w in nbrs]):
        for k, d in zip(keys, dirs):
            r.orient[k] = d
        if _vertex_defect(r, v) is None and all(
            _vertex_defect(r, w) is None for w in nbrs
        ):
            return
    for k in keys:
        r.color[k], r.orient[k] = old[k]
    raise NotFlippable(f"vertex flip at {v} admits no valid directions")


def is_flippable_vertex(r: Rel, v: VertexId) -> bool:
    probe = r.clone()
    try:
        flip_vertex(probe, v)
    except NotFlippable:
        return False
    return True


def rotate_four_cycle(r: Rel, cyc: FourCycle) -> str:
    """Exchange colors inside an alternating 4-cycle of a valid r; returns cw/ccw/empty."""
    w = cyc.vertices
    ring = [edge_key(w[i], w[(i + 1) % 4]) for i in range(4)]
    if len(set(w)) != 4 or any(e not in r.color for e in ring):
        raise NotAlternating(f"not a labeled 4-cycle: {w}")
    labs = [r.color[e] for e in ring]
    if labs[0] != labs[2] or labs[1] != labs[3] or labs[0] == labs[1]:
        raise NotAlternating(f"cycle {w} is not alternating: {labs}")
    inside = faces_inside_cycle(r.graph, w)
    if not inside:
        return "empty"
    dart_face = r.graph.dart_face
    ring_set = set(ring)
    target = [
        e
        for e in r.color
        if e not in ring_set
        and dart_face[(e[0], e[1])] in inside
        and dart_face[(e[1], e[0])] in inside
    ]
    snapshot = {e: (r.color[e], r.orient[e]) for e in target}
    touched = {v for e in target for v in e}  # only these rings change; r is valid elsewhere
    for mode in ("cw", "ccw"):
        for e in target:
            col, (s, t) = snapshot[e]
            if mode == "cw":
                r.color[e], r.orient[e] = (T2, (s, t)) if col == T1 else (T1, (t, s))
            else:
                r.color[e], r.orient[e] = (T2, (t, s)) if col == T1 else (T1, (s, t))
        if all(_vertex_defect(r, v) is None for v in touched):
            return mode
        for e in target:
            r.color[e], r.orient[e] = snapshot[e]
    raise NotFlippable(f"rotation of cycle {w} fails both senses")
