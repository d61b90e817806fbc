"""Regular edge labelings on four-completed triangulations.

Every edge except the four pole-pole boundary edges carries a color
(T1 or T2) and a direction.  Around an interior vertex the incident
edges form, in clockwise order, four nonempty blocks: T1 outgoing,
T2 outgoing, T1 incoming, T2 incoming.  At the poles all non-pole
edges are uniform: into N as T1, out of S as T1, into E as T2, out
of W as T2.

A dart (v, u) reads as a class at v, 0..3 in that block order (the
color bit plus 2 for an incoming edge).  _vertex_defect is the one
reader of these rules: it reads a vertex's darts in one pass, checks a
pole's row against the pole's class and an inner ring by its classes
alone: the ring is regular exactly when every cyclic step between
neighboring classes is 0 or +1 mod 4 and the steps sum to 4.  Only a
ring that fails is read again as runs, to name its blocks in the
defect.

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
end.  The solved value sets are checked in place, the pole rows N, E,
S, W and then the inner rings in ascending order, with _ring_defect, so
a defect reads as _vertex_defect would name it; the labeling's dicts
are built only after the check passes.  flip_edge and
rotate_four_cycle are the local moves of label normalization (a
degree-4 vertex flips by rotating its neighbour cycle); each tries its
candidate labels through _relabel, which checks only the rings they
change.  A 4-cycle's inside is the side of it that a flood over the
rotation finds without a pole (_inside): no move numbers a dart or
walks a face.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice

from .graph import Edge, EmbeddedGraph, VertexId, edge_key
from .paths import AugmentedGraph

T1 = "T1"
T2 = "T2"

_BLOCK_ORDER = ("T1out", "T2out", "T1in", "T2in")
# the class every non-pole dart at a pole reads as: T1 into N, T2 into E, T1 out of S, T2 out of W
_POLE_CLASS = {"N": 2, "E": 3, "S": 0, "W": 1}


class NotConstructible(RuntimeError):
    pass


class NotFlippable(ValueError):
    pass


@dataclass
class Rel:
    """A regular edge labeling: a T1/T2 color and a direction per edge, changed in place."""

    graph: EmbeddedGraph
    poles: dict[str, VertexId]
    color: dict[Edge, str]
    orient: dict[Edge, tuple[VertexId, VertexId]]

    @property
    def pole_ids(self) -> tuple[VertexId, ...]:
        return tuple(self.poles[k] for k in ("N", "E", "S", "W"))

    def label(self, u: VertexId, v: VertexId) -> str:
        return self.color[edge_key(u, v)]


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


def _vertex_defect(r: Rel, v: VertexId) -> str | None:
    """v's first dart off its pole's class, or its ring's defect when inner; None when regular."""
    name = next((k for k, p in r.poles.items() if p == v), None)
    want = None if name is None else _POLE_CLASS[name]
    poles = () if want is None else r.poles.values()  # edges between poles carry no label
    classes = []
    for u in r.graph.rotation[v]:
        if u in poles:
            continue
        e = edge_key(u, v)
        if e not in r.color:
            return f"{f'vertex {v}' if want is None else f'pole {name}'}: edge to {u} unlabeled"
        c = (0 if r.color[e] == T1 else 1) | (2 if r.orient[e][0] != v else 0)
        if want is not None and c != want:
            return f"pole {name}: edge to {u} is {r.color[e]} {('out', 'in')[c >> 1]}"
        classes.append(c)
    return None if want is not None else _ring_defect(v, classes)


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
_COLOR = (T1, T2, T1, T2)  # the color of each value
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


# Per key orientation: a value set's admitted states and the values each
# 10-bit state slice keeps (_CLASSES[first] permutes bits, so it
# distributes over the slices' OR); position 0 opens with the admitted
# states cut to phase 0.
_TABLES = {
    first: (
        tuple(_ADMIT[m] for m in cls),
        tuple(cls[m] for m in _state_classes(0)),
        tuple(cls[m] for m in _state_classes(10)),
    )
    for first, cls in _CLASSES.items()
}
_OPENING = {first: tuple(_ADMIT[m] & 0xF for m in cls) for first, cls in _CLASSES.items()}

Ring = list[tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...], int]]


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
    ag: AugmentedGraph, pins: tuple[VertexId, ...] = ()
) -> tuple[list[Edge], list[int], list[Ring], dict, list[int], dict]:
    """The sorted edges, their value sets, the rings, dense ids, first seeds and rows.

    Edges are numbered vertex by vertex over the sorted higher neighbors,
    and rows[v][w] is the number of edge vw.  The pole rows are pinned,
    and a corner triplet pins (a, b) to T1 values and (b, c) to T2.
    Inner vertices are ids 0..m-1 in ascending order, rings[k] is the ring
    of id k, and the poles share id m.  The seeds are the rings the
    pinning can narrow: those with a pole edge, a pinned edge or fewer
    than four edges.
    """
    g = ag.base
    rot = g.rotation
    poles = set(ag.pole_ids)
    rows: dict[VertexId, dict[VertexId, int]] = {v: {} for v in g.vertices}
    edges: list[Edge] = []
    for v, row in rows.items():
        for w in sorted([w for w in rot[v] if w > v and not (v in poles and w in poles)]):
            row[w] = rows[w][v] = len(edges)
            edges.append((v, w))
    dom = [_FULL] * len(edges)
    for name, p in ag.poles.items():  # a value is its class at the key's first end
        for x, i in rows[p].items():
            dom[i] = 1 << (_POLE_CLASS[name] ^ (0 if p < x else 2))
    if pins:  # T1 is values 0 and 2, T2 values 1 and 3
        a, b, c = pins
        dom[rows[a][b]] &= 0b0101
        dom[rows[b][c]] &= 0b1010
    inner = [v for v in g.vertices if v not in poles]
    m = len(inner)
    dense = dict.fromkeys(poles, m)
    dense.update((v, k) for k, v in enumerate(inner))
    rings = []
    for v in inner:
        row, nbrs = rows[v], rot[v]
        ring = [(row[w], *_TABLES[v < w], dense[w]) for w in nbrs]
        ring[0] = (ring[0][0], _OPENING[v < nbrs[0]], *ring[0][2:])
        rings.append(ring)
    seeds = [
        k for k, v in enumerate(inner) if len(rot[v]) < 4 or v in pins or not poles.isdisjoint(rot[v])
    ]
    return edges, dom, rings, dense, seeds, rows


def construct_rel(ag: AugmentedGraph, pins: tuple[VertexId, ...] = ()) -> Rel:
    """Find a labeling by exact search over edge colors and directions.

    Every edge except the four boundary ones is a four-valued variable
    (color times direction), held as a bitmask of the values it may still
    take; the pole rows, and the corner edges of a triplet given as pins,
    are pinned (_search_space) and the rings filtered to their fixpoint
    (_propagate).  The search branches on a
    smallest-domain edge, in a shuffled edge order, tries its values in
    shuffled order and backtracks on wipeout.  Domains only shrink below
    a choice point, so each records the settled prefix of the order, its
    singletons, and the scans below start past it.  A DFS that overruns
    its node quota restarts with a fresh shuffle and a doubled quota, up
    to _NODE_CAP nodes in all; only a DFS that finishes inside its quota
    may declare infeasibility.
    """
    g = ag.base
    poles = set(ag.pole_ids)
    edges, dom, rings, dense, seeds, rows = _search_space(ag, pins)
    queued = [False] * len(rings) + [True]

    def undo(trail: list[tuple[int, int]]) -> None:
        for i, old in reversed(trail):
            dom[i] = old

    pinned = f" with corner {pins} pinned" if pins else ""
    infeasible = f"no labeling satisfies the block patterns{pinned}"
    if not _propagate(rings, dom, seeds, queued, []):
        raise NotConstructible(infeasible)

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
            raise NotConstructible(f"label search exceeded its cap of {_NODE_CAP} nodes")
        rng = random.Random(attempt)
        rng.shuffle(order)
        found = solve(rng, quota)
        if found:
            break
        if found is not None:
            raise NotConstructible(infeasible)
        dom[:] = base
        spent += quota + 1  # the overrunning search tried quota + 1 values
        attempt += 1

    # pole rows N, E, S, W, then inner rings; edges, ends and colors hold by construction
    vals = [d.bit_length() - 1 for d in dom]  # a value is its class at the key's first end

    def labeling() -> Rel:
        color = dict(zip(edges, map(_COLOR.__getitem__, vals)))
        orient = dict(zip(edges, [e if x < 2 else e[::-1] for e, x in zip(edges, vals)]))
        return Rel(graph=g, poles=dict(ag.poles), color=color, orient=orient)

    for name, p in zip("NESW", ag.pole_ids):
        want = _POLE_CLASS[name]
        if any(vals[i] ^ (0 if p < x else 2) != want for x, i in rows[p].items()):
            raise NotConstructible(f"constructed labeling invalid: {_vertex_defect(labeling(), p)}")
    for v in g.vertices:
        if v not in poles:
            row = rows[v]
            defect = _ring_defect(v, [vals[row[w]] ^ (0 if v < w else 2) for w in g.rotation[v]])
            if defect:
                raise NotConstructible(f"constructed labeling invalid: {defect}")
    return labeling()


# -- local moves -------------------------------------------------------------


def _relabel(r: Rel, edges: list[Edge], candidates, touched, failure: str) -> int:
    """Give edges the first candidate labels under which every touched ring holds; its index.

    A candidate is one (color, orientation) per edge, and touched holds
    every vertex whose ring it changes, so r stays regular elsewhere.
    When none holds, r is restored and NotFlippable(failure) raised.
    """
    old = [(r.color[e], r.orient[e]) for e in edges]
    for k, labels in enumerate(candidates):
        for e, (col, ends) in zip(edges, labels):
            r.color[e], r.orient[e] = col, ends
        if all(_vertex_defect(r, v) is None for v in touched):
            return k
    for e, (col, ends) in zip(edges, old):
        r.color[e], r.orient[e] = col, ends
    raise NotFlippable(failure)


def flip_edge(r: Rel, u: VertexId, v: VertexId) -> None:
    """Toggle the color of edge (u, v) in place, keeping the labeling regular."""
    e = edge_key(u, v)
    if e not in r.color:
        raise NotFlippable(f"edge {e} carries no label")
    col = T2 if r.color[e] == T1 else T1
    both = [[(col, (u, v))], [(col, (v, u))]]
    _relabel(r, [e], both, (u, v), f"flip of {e} admits no valid direction")


def _inside(r: Rel, w: tuple[VertexId, ...]) -> set[Edge]:
    """The edges strictly inside the 4-cycle w, which holds no pole, read off the rotation.

    At each corner the neighbours strictly between its two cycle
    neighbours lie on one side of the cycle or the other.  Both sides are
    flooded in lockstep through the vertices off the cycle: the side that
    reaches a pole is outside, and the other is flooded to its end.  The
    inside edges are those at its vertices and its chords, one diagonal
    where it holds no vertex; a completion has no separating triangle, so
    never both.
    """
    rot, ring, poles = r.graph.rotation, set(w), set(r.poles.values())
    sides: tuple[list[Edge], list[Edge]] = ([], [])
    for p, v, n in zip(w[-1:] + w[:-1], w, w[1:] + w[:1]):
        nbrs = rot[v]
        k = nbrs.index(n)
        around = nbrs[k + 1 :] + nbrs[:k]  # clockwise from n back to n
        j = around.index(p)
        sides[0].extend((v, u) for u in around[:j])
        sides[1].extend((v, u) for u in around[j + 1 :])
    seen = [{u for _, u in side} - ring for side in sides]
    todo = [list(s) for s in seen]
    out = [not poles.isdisjoint(s) for s in seen]
    i = int(out[0])
    while todo[i]:
        for u in rot[todo[i].pop()]:
            if u not in ring and u not in seen[i]:
                seen[i].add(u)
                todo[i].append(u)
                out[i] = out[i] or u in poles
        if out[i] or (todo[i] and not out[1 - i]):  # a used-up side without a pole is inside
            i = 1 - i
    return {edge_key(v, u) for v, u in sides[i]} | {edge_key(x, u) for x in seen[i] for u in rot[x]}


def rotate_four_cycle(r: Rel, w: tuple[VertexId, ...]) -> str:
    """Exchange colors inside an alternating 4-cycle w of a valid r; returns cw or ccw.

    w must be four distinct vertices joined by labeled edges in alternating
    colors, so it holds no pole; its inside is read off the rotation (_inside).
    """
    ring = [edge_key(a, b) for a, b in zip(w, w[1:] + w[:1])]
    if len(w) != 4 or len(set(w)) != 4 or any(e not in r.color for e in ring):
        raise NotFlippable(f"not a labeled 4-cycle: {w}")
    labs = [r.color[e] for e in ring]
    if labs[0] != labs[2] or labs[1] != labs[3] or labs[0] == labs[1]:
        raise NotFlippable(f"cycle {w} is not alternating: {labs}")
    target = list(_inside(r, w))
    old = [(r.color[e], r.orient[e]) for e in target]
    cw = [(T2, (s, t)) if col == T1 else (T1, (t, s)) for col, (s, t) in old]
    ccw = [(T2, (t, s)) if col == T1 else (T1, (s, t)) for col, (s, t) in old]
    touched = {v for e in target for v in e}  # only these rings change
    k = _relabel(r, target, [cw, ccw], touched, f"rotation of cycle {w} fails both senses")
    return ("cw", "ccw")[k]
