"""Regular edge labelings on four-completed triangulations.

Every edge except the four pole-pole boundary edges carries a color
(T1 or T2) and a direction.  Around an interior vertex the incident
edges form, in clockwise order, four nonempty blocks: T1 outgoing,
T2 outgoing, T1 incoming, T2 incoming.  At the poles all non-pole
edges are uniform: into N as T1, out of S as T1, into E as T2, out
of W as T2.

construct_rel finds a labeling by exact search: every unpinned edge is
a small finite-domain variable and the block pattern at each vertex is
enforced by interval propagation, with randomized restarts to dodge the
occasional deep dead end.  flip_edge / flip_vertex / rotate_four_cycle
are the local moves used during label normalization.
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
# indexed by _BLOCK_ORDER: 0 T1out, 1 T2out, 2 T1in, 3 T2in.

_FULL = 0b1111


def _dart_class(val: int, at_tail_end: bool) -> int:
    outgoing = (val < 2) == at_tail_end
    return (val & 1) + (0 if outgoing else 2)


def _block_feasible(allowed: list[int]) -> list[int] | None:
    """Per-position dart classes that extend to a full 4-block ring word.

    allowed[p] is a bitmask of dart classes position p may take, clockwise.
    A ring word is valid when, starting somewhere, classes run 0..3 without
    skipping, each appearing at least once.  Equivalently, around the cycle
    each step either keeps the class or moves to the next one, and exactly
    one step wraps from 3 to 0.  Returns the filtered masks, or None when
    no valid word exists.
    """
    d = len(allowed)
    if d < 4:
        return None
    out = [0] * d
    feasible = False
    fw = [0] * d
    for s in range(d):
        if not allowed[s] & 1:
            continue  # block 0 must start here
        if not allowed[(s - 1) % d] & 0b1000:
            continue  # the wrap step lands after a class-3 position
        cur = 1
        fw[0] = cur
        for t in range(1, d):
            cur = allowed[(s + t) % d] & (cur | (cur << 1)) & _FULL
            fw[t] = cur
            if not cur:
                break
        if not cur & 0b1000:
            continue
        bw = cur & 0b1000
        marks = [0] * d
        marks[d - 1] = bw
        for t in range(d - 2, -1, -1):
            bw = fw[t] & (bw | (bw >> 1))
            marks[t] = bw
            if not bw:
                break
        if not marks[0] & 1:
            continue
        feasible = True
        for t in range(d):
            out[(s + t) % d] |= marks[t]
    if not feasible:
        return None
    return out


def construct_rel(ag: AugmentedGraph) -> Rel:
    """Find a labeling by exact search over edge colors and directions.

    Every edge except the four boundary ones is a four-valued variable
    (color times direction).  Pole rows are pinned first: T1 into N, T1
    out of S, T2 into E, T2 out of W.  The block pattern at each inner
    vertex is enforced by interval propagation on the ring word (classes
    must climb T1out, T2out, T1in, T2in around the vertex); whenever an
    edge's value set shrinks, the opposite endpoint is re-filtered.  The
    search branches on a smallest-domain edge and backtracks on wipeout.
    Propagation does nearly all the work; branching is rare in practice.
    """
    g = ag.base
    poles = set(ag.pole_ids)
    pn, pe, ps, pw = (ag.poles[k] for k in ("N", "E", "S", "W"))

    dom: dict[Edge, int] = {}
    for e in g.edges:
        if e[0] in poles and e[1] in poles:
            continue
        dom[e] = _FULL

    def pin(x: VertexId, pole: VertexId, val_tail: int, tail_is_pole: bool) -> None:
        e = edge_key(x, pole)
        tail_first = (e[0] == pole) == tail_is_pole
        val = val_tail if tail_first else val_tail + 2
        dom[e] &= 1 << val

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

    rings: dict[VertexId, list[tuple[Edge, bool]]] = {}
    for v in g.vertices:
        if v in poles:
            continue
        rings[v] = [(edge_key(v, w), edge_key(v, w)[0] == v) for w in g.rotation[v]]

    # dart class of each value at an endpoint, keyed by v-is-first-in-key
    cls = {
        True: [_dart_class(v, True) for v in range(4)],
        False: [_dart_class(v, False) for v in range(4)],
    }

    def class_mask(e: Edge, v_first: bool) -> int:
        m = 0
        d = dom[e]
        table = cls[v_first]
        for val in range(4):
            if d & (1 << val):
                m |= 1 << table[val]
        return m

    def filter_vertex(v: VertexId, trail: list[tuple[Edge, int]], queue: list[VertexId]) -> bool:
        ring = rings[v]
        allowed = [class_mask(e, flag) for e, flag in ring]
        if any(m == 0 for m in allowed):
            return False
        filt = _block_feasible(allowed)
        if filt is None:
            return False
        for (e, flag), keep in zip(ring, filt):
            table = cls[flag]
            new = 0
            d = dom[e]
            for val in range(4):
                bit = 1 << val
                if d & bit and keep & (1 << table[val]):
                    new |= bit
            if new == d:
                continue
            if new == 0:
                return False
            trail.append((e, d))
            dom[e] = new
            other = e[1] if e[0] == v else e[0]
            if other not in poles and other not in queue:
                queue.append(other)
        return True

    def propagate(seeds: list[VertexId], trail: list[tuple[Edge, int]]) -> bool:
        queue = list(seeds)
        while queue:
            v = queue.pop()
            if not filter_vertex(v, trail, queue):
                return False
        return True

    def undo(trail: list[tuple[Edge, int]]) -> None:
        for e, old in reversed(trail):
            dom[e] = old

    root: list[tuple[Edge, int]] = []
    if not propagate(sorted(rings), root):
        raise NotConstructible("pole rows admit no block pattern")

    base = dict(dom)
    order = sorted(dom)
    nodes = 0
    quota = 0

    class _Restart(Exception):
        pass

    def solve(rng: random.Random) -> bool:
        nonlocal nodes
        pick = None
        size = 5
        for e in order:
            c = dom[e].bit_count()
            if 1 < c < size:
                pick, size = e, c
                if c == 2:
                    break
        if pick is None:
            return True
        vals = [v for v in range(4) if dom[pick] >> v & 1]
        rng.shuffle(vals)
        for val in vals:
            nodes += 1
            if nodes > quota:
                raise _Restart
            trail: list[tuple[Edge, int]] = [(pick, dom[pick])]
            dom[pick] = 1 << val
            if propagate([x for x in pick if x not in poles], trail) and solve(rng):
                return True
            undo(trail)
        return False

    # Most instances solve in the first attempt with almost no branching,
    # but a rare unlucky tie-break can send the DFS down a deep dead end.
    # Restart with a fresh shuffle and a doubled quota when that happens;
    # only a DFS that finishes inside its quota may declare infeasibility.
    spent = 0
    attempt = 0
    while True:
        quota = min(400 << attempt, _NODE_CAP - spent)
        if quota <= 0:
            raise NotConstructible("label search exceeded its cap")
        rng = random.Random(attempt)
        rng.shuffle(order)
        nodes = 0
        try:
            if solve(rng):
                break
            raise NotConstructible("no labeling satisfies the block patterns")
        except _Restart:
            dom.clear()
            dom.update(base)
            spent += nodes
            attempt += 1

    color: dict[Edge, str] = {}
    orient: dict[Edge, tuple[VertexId, VertexId]] = {}
    for e, d in dom.items():
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
