"""Regular edge labelings on four-completed triangulations.

Every edge except the four pole-pole boundary edges carries a color
(T1 or T2) and a direction.  Around an interior vertex the incident
edges form, in clockwise order, four nonempty blocks: T1 outgoing,
T2 outgoing, T1 incoming, T2 incoming.  At the poles all non-pole
edges are uniform: into N as T1, out of S as T1, into E as T2, out
of W as T2.

construct_rel finds a labeling by exact search: every unpinned edge is
a finite-domain variable over its four color/direction values, and the
block pattern at each vertex is enforced by propagation.  Each filter
reads its ring through 16-entry tables (value set to dart-class mask and
back) and checks the ring word with a linear, bit-parallel pass over
20-bit phase states (_block_feasible).  The depth-first search runs on
an explicit stack, with randomized restarts to dodge the occasional
deep dead end.  flip_edge / flip_vertex / rotate_four_cycle are the
local moves used during label normalization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

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


def _dart_state(r: Rel, v: VertexId, u: VertexId) -> str:
    e = edge_key(u, v)
    tail, _ = r.orient[e]
    return r.color[e] + ("out" if tail == v else "in")


def _inner_vertex_defect(r: Rel, v: VertexId) -> str | None:
    states = [_dart_state(r, v, u) for u in r.graph.rotation[v]]
    runs: list[str] = []
    for s in states:
        if not runs or runs[-1] != s:
            runs.append(s)
    if len(runs) > 1 and runs[0] == runs[-1]:
        runs.pop()
    if sorted(runs) != sorted(_BLOCK_ORDER):
        return f"vertex {v}: blocks {runs}"
    i = runs.index("T1out")
    if tuple(runs[i:] + runs[:i]) != _BLOCK_ORDER:
        return f"vertex {v}: block order {runs}"
    return None


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
    for u in r.graph.rotation[v]:
        if edge_key(u, v) not in r.color:
            return f"vertex {v}: edge to {u} unlabeled"
    return _inner_vertex_defect(r, v)


def is_valid_rel(r: Rel) -> RelValidity:
    skip = set(r.pole_ids)
    expected = {e for e in r.graph.edges if not (e[0] in skip and e[1] in skip)}
    if set(r.color) != expected or set(r.orient) != expected:
        return RelValidity(False, "labeled edge set mismatch")
    for e, (tail, head) in r.orient.items():
        if edge_key(tail, head) != e:
            return RelValidity(False, f"orientation endpoints of {e} wrong")
        if r.color[e] not in (T1, T2):
            return RelValidity(False, f"bad color on {e}")
    for name in ("N", "E", "S", "W"):
        d = _pole_defect(r, name)
        if d:
            return RelValidity(False, d)
    for v in r.graph.vertices:
        if v in skip:
            continue
        d = _inner_vertex_defect(r, v)
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


def _state_classes(low: int) -> tuple[int, ...]:
    """Classes read by each 10-bit slice of a state, the slice starting at bit low."""
    out = [0]
    for i in range(low, low + 10):
        c = 1 << ((i + i // 4) & 3)  # bit i = 4k + x reads class x + k
        out += [m | c for m in out]
    return tuple(out)


_LOW_CLASSES = _state_classes(0)
_HIGH_CLASSES = _state_classes(10)


def _block_feasible(allowed: list[int]) -> list[int] | None:
    """Per-position dart classes that extend to a full 4-block ring word.

    allowed[p] is a bitmask of dart classes position p may take, clockwise.
    A ring word is valid when, starting somewhere, classes run 0..3 without
    skipping, each appearing at least once.  Returns, per position, the
    classes that position takes in some valid word, or None when no valid
    word exists.  A forward pass over the 20-bit phase states finds the
    live states at every position, and a backward pass from the closing
    states keeps those on a complete word: O(d) steps for d positions.
    """
    d = len(allowed)
    if d < 4:
        return None
    admit = _ADMIT
    cur = allowed[0]  # phase 0: state bit x is class x
    live = [cur]
    for t in range(1, d):
        cur = (cur | cur << 4) & admit[allowed[t]]
        if not cur:
            return None
        live.append(cur)
    cur &= _CLOSING
    if not cur:
        return None
    low, high = _LOW_CLASSES, _HIGH_CLASSES
    out = [0] * d
    for t in range(d - 1, 0, -1):
        out[t] = low[cur & 1023] | high[cur >> 10]
        cur = (cur | cur >> 4) & live[t - 1]
    out[0] = cur
    return out


def construct_rel(ag: AugmentedGraph) -> Rel:
    """Find a labeling by exact search over edge colors and directions.

    Every edge except the four boundary ones is a four-valued variable
    (color times direction), held as a bitmask of the values it may
    still take.  Pole rows are pinned first: T1 into N, T1 out of S, T2
    into E, T2 out of W.  The block pattern at each inner vertex is
    enforced by filtering its ring: table lookups turn value sets into
    dart-class masks, the linear ring-word check (_block_feasible) keeps
    the classes of some valid word, and lookups turn them back into
    values.  Whenever an edge's value set shrinks, the opposite endpoint
    is filtered again.  The filters only shrink domains, so propagation
    reaches the same fixpoint in any order.

    The search branches on a smallest-domain edge, in a shuffled edge
    order, tries its values in shuffled order and backtracks on wipeout.
    Branching is common: on the planted-mid benchmark inputs of seed 1
    it took 8,934 search nodes over 339 calls.  A DFS that overruns its
    node quota restarts with a fresh shuffle and a doubled quota, up to
    _NODE_CAP nodes in all; only a DFS that finishes inside its quota
    may declare infeasibility.
    """
    g = ag.base
    poles = set(ag.pole_ids)
    pn, pe, ps, pw = (ag.poles[k] for k in ("N", "E", "S", "W"))

    edges = sorted(e for e in g.edges if not (e[0] in poles and e[1] in poles))
    index = {e: i for i, e in enumerate(edges)}
    dom = [_FULL] * len(edges)

    def pin(x: VertexId, pole: VertexId, val_tail: int, tail_is_pole: bool) -> None:
        e = edge_key(x, pole)
        tail_first = (e[0] == pole) == tail_is_pole
        val = val_tail if tail_first else val_tail + 2
        dom[index[e]] &= 1 << val

    for x in g.rotation[pn]:
        if x not in poles:
            pin(x, pn, 0, False)  # T1, x -> N
    for x in g.rotation[ps]:
        if x not in poles:
            pin(x, ps, 0, True)  # T1, S -> x
    for x in g.rotation[pe]:
        if x not in poles:
            pin(x, pe, 1, False)  # T2, x -> E
    for x in g.rotation[pw]:
        if x not in poles:
            pin(x, pw, 1, True)  # T2, W -> x

    # per ring position: edge index, value-set <-> class-mask table, and the
    # neighbor to filter again when the edge shrinks (None for a pole)
    rings: dict[VertexId, list[tuple[int, tuple[int, ...], VertexId | None]]] = {}
    for v in g.vertices:
        if v in poles:
            continue
        ring = []
        for w in g.rotation[v]:
            e = edge_key(v, w)
            ring.append((index[e], _CLASSES[e[0] == v], None if w in poles else w))
        rings[v] = ring

    def filter_vertex(
        v: VertexId, trail: list[tuple[int, int]], queue: list[VertexId], queued: set[VertexId]
    ) -> bool:
        ring = rings[v]
        keep = _block_feasible([table[dom[i]] for i, table, _ in ring])
        if keep is None:
            return False
        for (i, table, w), classes in zip(ring, keep):
            old = dom[i]
            new = old & table[classes]
            if new != old:
                trail.append((i, old))
                dom[i] = new
                if w is not None and w not in queued:
                    queued.add(w)
                    queue.append(w)
        return True

    def propagate(seeds: list[VertexId], trail: list[tuple[int, int]]) -> bool:
        queue = list(seeds)
        queued = set(queue)
        while queue:
            v = queue.pop()
            queued.discard(v)
            if not filter_vertex(v, trail, queue, queued):
                return False
        return True

    def undo(trail: list[tuple[int, int]]) -> None:
        for i, old in reversed(trail):
            dom[i] = old

    if not propagate(sorted(rings), []):
        raise NotConstructible("pole rows admit no block pattern")

    base = list(dom)
    order = list(range(len(edges)))

    def branch(rng: random.Random, stack: list[list]) -> bool:
        """Open a choice point on a smallest open domain; False when none is open."""
        pick = None
        size = 5
        for i in order:
            c = _SIZE[dom[i]]
            if 1 < c < size:
                pick, size = i, c
                if c == 2:
                    break
        if pick is None:
            return False
        vals = [v for v in range(4) if dom[pick] >> v & 1]
        rng.shuffle(vals)
        stack.append([pick, iter(vals), None])
        return True

    def solve(rng: random.Random, quota: int) -> bool | None:
        """Depth-first search over an explicit stack of choice points.

        True leaves dom solved, False means that no labeling exists, and
        None that the search would take more than quota nodes.  Each
        choice point holds its edge, its untried values and the trail of
        the value on trial.
        """
        stack: list[list] = []
        if not branch(rng, stack):
            return True
        nodes = 0
        while stack:
            top = stack[-1]
            pick, vals, trail = top
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
            seeds = [x for x in edges[pick] if x not in poles]
            if propagate(seeds, trail) and not branch(rng, stack):
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
    """Exchange colors inside an alternating 4-cycle; returns cw/ccw/empty."""
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
    for mode in ("cw", "ccw"):
        for e in target:
            col, (s, t) = snapshot[e]
            if mode == "cw":
                r.color[e], r.orient[e] = (T2, (s, t)) if col == T1 else (T1, (t, s))
            else:
                r.color[e], r.orient[e] = (T2, (t, s)) if col == T1 else (T1, (s, t))
        if is_valid_rel(r).ok:
            return mode
        for e in target:
            r.color[e], r.orient[e] = snapshot[e]
    raise NotFlippable(f"rotation of cycle {w} fails both senses")
