"""Rectangular floor plans from regular edge labelings, and plan geometry.

Every interior vertex becomes an axis-aligned rectangle.  Its sides lie
on maximal wall segments, and each coordinate is the longest-path depth
of a segment, which yields the unique compact integer drawing (Kant and
He 1997).  The modules above and below a horizontal segment touch in
one chain of T1 edges, so a segment is a class of one union-find over
the labeling's edges: a T1 edge u -> v joins the top of u with the bottom
of v, a T2 edge the right of u with the left of v, and the poles S, N,
W and E hold the floor, ceiling, west and east walls.

All geometry of a drawn plan comes from one sweep over its wall lines,
which yields every elementary wall stretch with the module on each side
of it (_stretches).  The number of modules covering a point changes
only across a stretch with a module on one side, and by one, and the
boundary of each level set of that count closes into cycles of its own.
So when no stretch has two modules on one side and all one-sided
stretches close into a single cycle through distinct points, only one
level set has a boundary: the count is 0 outside the cycle and, as it
cannot be negative, 1 inside, and the modules tile the region the cycle
bounds.  rfp_from_rel requires that region to be the bounding box;
plan_outline, profile_from_outline and plan_embedding read the cycle
and the two-sided stretches, and verify_nontrivial_L reads the
non-triviality walk off the stretches on the two notch walls.  No cell
grid is built, and a plan keeps its sweep (FloorPlan.walls), so these
readers share it.  The L plan is not swept at all: remove_ne hands it
the full plan's stretches with the NE module's side cleared, the empty
ones dropped and the ones it alone split merged again (_walls_without),
so a successful plan is swept once.  plan_embedding gives the dual's
rotations and outer cycle as plain data, which plan() compares with
the input; dual_graph builds them into a checked graph.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Mapping, NamedTuple

from .graph import EmbeddedGraph, VertexId
from .rel import T1, Rel

# (axis, line coordinate, start, end, module below or left, module above or right)
Stretch = tuple[str, int, int, int, VertexId | None, VertexId | None]
_line = itemgetter(0, 1)  # a stretch's line; walls are sorted by it


class NotCornerModule(ValueError):
    pass


class PointContactAmbiguity(ValueError):
    pass


class Rect(NamedTuple):
    x1: int
    y1: int
    x2: int
    y2: int

    @property
    def width(self) -> int:
        return self.x2 - self.x1

    @property
    def height(self) -> int:
        return self.y2 - self.y1


@dataclass(frozen=True)
class FloorPlan:
    """Modules as rectangles in a width x height box; walls is swept once, on first use."""

    rects: Mapping[VertexId, Rect]
    width: int
    height: int
    labels: Mapping[VertexId, str]

    @cached_property
    def walls(self) -> list[Stretch]:
        """The plan's elementary wall stretches (_stretches), swept on first use."""
        return _stretches(self.rects)


class CornerProfile(NamedTuple):
    """Concave corner left by removing the north-east module."""

    nx: int
    ny: int
    notch: Rect


class NonTrivialityVerdict(NamedTuple):
    nontrivial: bool
    walk: tuple[VertexId, ...]
    witness: tuple[VertexId, VertexId, VertexId] | None


# -- segments ----------------------------------------------------------------


def _longest_paths(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Depth of every node 0..n-1 of a DAG below its sources, in Kahn's topological order."""
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in edges:
        succ[u].append(v)
        indeg[v] += 1
    order = [u for u in range(n) if not indeg[u]]
    depth = [0] * n
    for u in order:
        d = depth[u] + 1
        for v in succ[u]:
            if depth[v] < d:
                depth[v] = d
            indeg[v] -= 1
            if not indeg[v]:
                order.append(v)
    if len(order) != n:
        raise ValueError("segment graph has a cycle")
    return depth


def _segment_graph(r: Rel) -> tuple[dict[VertexId, tuple[int, int, int, int]], tuple, tuple]:
    """Every module's bottom, top, left and right segment, and the y and x segment orders.

    An order is the axis's segment count and the pairs (a, b) of segments
    with a below or left of b.  A missing block raises ValueError.
    """
    g = r.graph
    poles = r.pole_ids
    modules = [v for v in g.vertices if v not in poles]
    # Every vertex has four slots, bottom, top, left and right: 4i to 4i + 3.
    # A pole's one wall is the top of S, the bottom of N, the right of W and
    # the left of E; its other slots stay alone in a valid labeling.
    slot = {v: 4 * i for i, v in enumerate(g.vertices)}
    root = list(range(4 * len(slot)))  # a slot's parent, always a lower slot

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    color, up, across = r.color, [], []  # T1 edges (below, above), T2 edges (left, right)
    for e, th in r.orient.items():
        (up if color[e] == T1 else across).append(th)
    for pairs, (a, b) in ((up, (1, 0)), (across, (3, 2))):
        for t, h in pairs:
            x, y = find(slot[t] + a), find(slot[h] + b)
            if x < y:
                root[y] = x
            else:
                root[x] = y
    for x, p in enumerate(root):  # parents come first, so each is a root by now
        root[x] = root[p]

    # A module lacks a block only where its side does not lie on a pole.
    adj = g.adj
    pn, pe, ps, pw = poles
    blocks = (
        (ps, "T2out", {t for t, _ in across}),
        (pn, "T2in", {h for _, h in across}),
        (pw, "T1in", {h for _, h in up}),
        (pe, "T1out", {t for t, _ in up}),
    )
    if any(set(modules).difference(have, adj[p]) for p, _, have in blocks):
        for v in modules:
            for p, name, have in blocks:
                if v not in have and p not in adj[v]:
                    raise ValueError(f"vertex {v} has no {name} edge")

    # Segments are numbered per axis, y before x, in the order modules meet them.
    ynum: dict[int, int] = {}
    xnum: dict[int, int] = {}
    sides = {}
    for v in modules:
        i = slot[v]
        sides[v] = (
            ynum.setdefault(root[i], len(ynum)),
            ynum.setdefault(root[i + 1], len(ynum)),
            xnum.setdefault(root[i + 2], len(xnum)),
            xnum.setdefault(root[i + 3], len(xnum)),
        )

    # Module thickness alone leaves side-by-side walls free to align into a
    # cross, losing the contact; adjacent pairs must overlap across the wall.
    y_edges = [(b, t) for b, t, _, _ in sides.values()]
    x_edges = [(lt, rt) for _, _, lt, rt in sides.values()]
    for t, h in across:
        if t in sides and h in sides:
            bt, tt, _, _ = sides[t]
            bh, th, _, _ = sides[h]
            y_edges += ((bt, th), (bh, tt))
    for t, h in up:
        if t in sides and h in sides:
            _, _, lt, rt = sides[t]
            _, _, lh, rh = sides[h]
            x_edges += ((lt, rh), (lh, rt))
    return sides, (len(ynum), y_edges), (len(xnum), x_edges)


def rfp_from_rel(r: Rel) -> FloorPlan:
    g = r.graph
    sides, y_order, x_order = _segment_graph(r)
    ys = _longest_paths(*y_order)
    xs = _longest_paths(*x_order)
    rects = {v: Rect(xs[lt], ys[b], xs[rt], ys[t]) for v, (b, t, lt, rt) in sides.items()}
    width = max(rc.x2 for rc in rects.values())
    height = max(rc.y2 for rc in rects.values())
    fp = FloorPlan(
        rects=rects,
        width=width,
        height=height,
        labels={v: g.labels[v] for v in sides if v in g.labels},
    )
    if plan_outline(fp) != ((0, height), (width, height), (width, 0), (0, 0)):
        raise ValueError("modules do not tile their bounding box")
    return fp


# -- the wall sweep ----------------------------------------------------------


def _stretches(rects: Mapping[VertexId, Rect]) -> list[Stretch]:
    """Elementary wall stretches, line by line and in order along each line.

    A stretch (axis, c, a, b, low, high) lies on the line axis=c: on y=c
    from x=a to x=b, or on x=c from y=a to y=b.  low is the module below
    or left of it, high the one above or right of it, and either may be
    None.  Raises ValueError where two modules share a side of a stretch,
    which is an overlap.
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
    out: list[Stretch] = []
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


# (axis, module above or right) -> heading that keeps the module on the right
_HEADINGS = {("y", False): "E", ("y", True): "W", ("x", False): "S", ("x", True): "N"}


def _outline(walls: list[Stretch]) -> list[tuple[tuple[int, int], str, VertexId]]:
    """The one-sided stretches as one clockwise cycle of (start, heading, owner).

    Each stretch is directed with its module on the right, and the cycle
    starts at the top-left point.  Raises ValueError unless the stretches
    close into exactly one cycle through distinct points.
    """
    nxt: dict[tuple[int, int], tuple[tuple[int, int], str, VertexId]] = {}
    for axis, c, a, b, low, high in walls:
        if (low is None) == (high is None):
            continue
        heading = _HEADINGS[axis, low is None]
        p, q = (a, b) if heading in "EN" else (b, a)
        p, q = ((p, c), (q, c)) if axis == "y" else ((c, p), (c, q))
        if p in nxt:
            raise ValueError(f"the covered region touches itself at point {p}")
        nxt[p] = (q, heading, low if high is None else high)
    if not nxt:
        raise ValueError("empty plan")
    start = min(nxt, key=lambda p: (-p[1], p[0]))
    steps = []
    p = start
    while True:
        if p not in nxt:
            raise ValueError(f"the outline breaks off at point {p}")
        q, heading, owner = nxt.pop(p)
        steps.append((p, heading, owner))
        p = q
        if p == start:
            break
    if nxt:
        raise ValueError("the covered region has a hole or is not connected")
    return steps


# -- the corner notch --------------------------------------------------------


def corner_profile(fp: FloorPlan, ne: VertexId) -> CornerProfile:
    rc = fp.rects[ne]
    if rc.y2 != fp.height or rc.x2 != fp.width:
        raise NotCornerModule(f"module {ne} does not sit in the north-east corner")
    return CornerProfile(nx=rc.x1, ny=rc.y1, notch=rc)


def remove_ne(fp: FloorPlan, ne: VertexId) -> tuple[FloorPlan, CornerProfile]:
    """The plan without module ne, which inherits fp's sweep, and its corner."""
    profile = corner_profile(fp, ne)
    rest = {v: rc for v, rc in fp.rects.items() if v != ne}
    labels = {v: s for v, s in fp.labels.items() if v != ne}
    lplan = FloorPlan(rects=rest, width=fp.width, height=fp.height, labels=labels)
    vars(lplan)["walls"] = _walls_without(fp.walls, ne)  # fills the cached_property
    return lplan, profile


def _walls_without(walls: list[Stretch], gone: VertexId) -> list[Stretch]:
    """The stretches of a plan after module gone is taken out, as _stretches gives them.

    The module's side of each stretch is cleared and stretches left with
    no module are dropped.  A sweep splits a line only where the modules
    on it change, so stretches that meet end to end with the same modules
    were split by the module taken out alone, and are merged.
    """
    out: list[Stretch] = []
    for axis, c, a, b, low, high in walls:
        if low == gone:
            low = None
        elif high == gone:
            high = None
        if low is None and high is None:
            continue
        if out:
            last = out[-1]
            if last[3] == a and last[4] == low and last[5] == high and last[:2] == (axis, c):
                out[-1] = (axis, c, last[2], b, low, high)
                continue
        out.append((axis, c, a, b, low, high))
    return out


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


def verify_nontrivial_L(fp: FloorPlan, profile: CornerProfile) -> NonTrivialityVerdict:
    """Walk the two notch walls; a bend in the walk certifies non-triviality.

    The walk lists the modules carrying the vertical wall above the
    concave corner (top to bottom) and then the horizontal wall right of
    it (left to right).  The plan is a proper L exactly when some module
    meets its two walk neighbors in different orientations.  Everything
    is read off the plan's sweep: the walls' modules are those left of
    the stretches on x = nx above ny and below those on y = ny right of
    nx, the modules meeting the corner are those on a stretch through
    it, and two walk neighbors touch where they share a stretch.  No
    module is on both walls: the first wall's modules reach above ny,
    the second's end at ny.
    """
    nx, ny = profile.nx, profile.ny
    walls = fp.walls
    sides: list[list[VertexId]] = []  # the first bottom to top, the second left to right
    at_corner: set[VertexId | None] = set()
    for line, at in ((("x", nx), ny), (("y", ny), nx)):
        side: list[VertexId] = []
        lo = bisect_left(walls, line, key=_line)
        for _, _, a, b, low, high in walls[lo : bisect_right(walls, line, lo, key=_line)]:
            if a <= at <= b:
                at_corner.update((low, high))
            if b > at and low is not None and (not side or side[-1] != low):
                side.append(low)
        sides.append(side)
    at_corner.discard(None)
    if len(at_corner) != 2:
        raise ValueError(f"{len(at_corner)} modules meet the concave corner, need 2")
    walk = tuple(sides[0][::-1] + sides[1])
    if len(walk) < 3:
        return NonTrivialityVerdict(False, walk, None)
    walked = set(walk)
    contact = {
        (low, high): axis for axis, _, _, _, low, high in walls if low in walked and high in walked
    }
    orients = []
    for u, v in zip(walk, walk[1:]):
        axis = contact.get((u, v)) or contact.get((v, u))
        if axis is None:
            raise ValueError(f"walk neighbors {u},{v} do not touch")
        orients.append(axis)
    for i in range(len(orients) - 1):
        if orients[i] != orients[i + 1]:
            return NonTrivialityVerdict(True, walk, walk[i : i + 3])
    return NonTrivialityVerdict(False, walk, None)


# -- dual graph of a plan ----------------------------------------------------


def plan_embedding(
    fp: FloorPlan,
) -> tuple[dict[VertexId, tuple[VertexId, ...]], tuple[VertexId, ...]]:
    """The clockwise rotation of every module and the modules along the outline.

    This is the embedding of the plan's dual, read off the drawing without
    building a graph.  Raises PointContactAmbiguity where four modules
    meet at a point or a module lines the outline in separated stretches,
    and ValueError where the outline is not one cycle.
    """
    walls = fp.walls
    # A lattice point where four distinct modules meet leaves the diagonal
    # contacts undecidable.
    corners = Counter(
        p
        for rc in fp.rects.values()
        for p in ((rc.x1, rc.y1), (rc.x1, rc.y2), (rc.x2, rc.y1), (rc.x2, rc.y2))
    )
    four = [p for p, k in corners.items() if k == 4]
    if four:
        raise PointContactAmbiguity(f"four modules meet at point {min(four)}")

    owners = []
    for _, _, v in _outline(walls):
        if not owners or owners[-1] != v:
            owners.append(v)
    if len(owners) > 1 and owners[0] == owners[-1]:
        owners.pop()
    if len(set(owners)) != len(owners):
        raise PointContactAmbiguity("a module meets the outline on separated stretches")

    # Neighbors above, right, below and left of each module, in the order
    # the sweep meets them: ascending x or y along each wall line.
    sides: dict[VertexId, tuple[list[VertexId], ...]] = {v: ([], [], [], []) for v in fp.rects}
    for axis, _, _, _, low, high in walls:
        if low is not None and high is not None:
            sides[low][0 if axis == "y" else 1].append(high)
            sides[high][2 if axis == "y" else 3].append(low)
    rotation: dict[VertexId, tuple[VertexId, ...]] = {}
    for v in sorted(fp.rects):
        above, rightn, below, leftn = sides[v]
        ring = above + rightn[::-1] + below[::-1] + leftn  # clockwise from the top-left
        rotation[v] = tuple(u for i, u in enumerate(ring) if i == 0 or ring[i - 1] != u)
    return rotation, tuple(owners)


def dual_graph(fp: FloorPlan) -> EmbeddedGraph:
    """Adjacency-of-modules graph with the embedding read off the drawing (plan_embedding)."""
    rotation, outer = plan_embedding(fp)
    return EmbeddedGraph(rotation=rotation, outer=outer, labels=dict(fp.labels))


def plan_outline(fp: FloorPlan) -> tuple[tuple[int, int], ...]:
    """Corner points of the covered region, clockwise from its top-left."""
    steps = _outline(fp.walls)
    corners = [p for i, (p, heading, _) in enumerate(steps) if steps[i - 1][1] != heading]
    start = min(range(len(corners)), key=lambda i: (corners[i][0], -corners[i][1]))
    return tuple(corners[start:] + corners[:start])
