"""Rectangular floor plans from regular edge labelings, and plan geometry.

Every interior vertex becomes an axis-aligned rectangle.  The wall
segments of the plan correspond to faces of the two color subgraphs:
faces of the T2 subgraph are the horizontal segments, faces of the T1
subgraph the vertical ones.  One pass over the rings, read by position
as dart classes, gives both subgraphs and every block's last edge
(_read_rings), and each subgraph's darts are numbered and walked
once (graph._walk).  A module's bottom wall is the T2 face of the dart
(u, v) from the last edge u of its outgoing T2 block, read at v as
face[turn[v][u]]; its top wall follows its last incoming T2 edge, and
left and right walls come from T1 the same way.  Coordinates are
longest-path depths of those face numbers, which yields the unique
compact integer drawing.

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
from typing import Mapping

from .graph import EmbeddedGraph, VertexId, _number_darts, _walk
from .rel import _BLOCK_ORDER, T1, T2, Rel

# (axis, line coordinate, start, end, module below or left, module above or right)
Stretch = tuple[str, int, int, int, VertexId | None, VertexId | None]
_line = itemgetter(0, 1)  # a stretch's line; walls are sorted by it


class NotCornerModule(ValueError):
    pass


class PointContactAmbiguity(ValueError):
    pass


@dataclass(frozen=True)
class Rect:
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
    rects: Mapping[VertexId, Rect]
    width: int
    height: int
    labels: Mapping[VertexId, str]

    @cached_property
    def walls(self) -> list[Stretch]:
        """The plan's elementary wall stretches (_stretches), swept on first use."""
        return _stretches(self.rects)


@dataclass(frozen=True)
class CornerProfile:
    """Concave corner left by removing the north-east module."""

    nx: int
    ny: int
    notch: Rect


@dataclass(frozen=True)
class NonTrivialityVerdict:
    nontrivial: bool
    walk: tuple[VertexId, ...]
    witness: tuple[VertexId, VertexId, VertexId] | None


# -- segment faces -----------------------------------------------------------


def _read_rings(
    r: Rel, modules: list[VertexId]
) -> tuple[dict[VertexId, tuple[VertexId, ...]], dict[VertexId, tuple[VertexId, ...]], dict]:
    """The T1 and T2 sub-rotations, and every module's block ends, in one pass.

    Each ring is read once, by position, as dart classes (rel._BLOCK_ORDER:
    the color bit plus 2 for an incoming edge): the color bit sorts a
    neighbor into a sub-rotation, and a neighbor whose class differs from
    the next one's ends its block.  ends[v] maps each class around module
    v to the last neighbor, clockwise, of its block.
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
            e = (v, u) if v < u else (u, v)
            col = color.get(e)
            if col is None:  # an edge between two poles
                continue
            if col == T1:
                t1.append(u)
                cs.append(0 if orient[e][0] == v else 2)
            else:
                t2.append(u)
                cs.append(1 if orient[e][0] == v else 3)
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


def _numbered_faces(sub: dict[VertexId, tuple[VertexId, ...]]) -> tuple[dict, list[int], int]:
    """A sub-rotation's position map turn, the face of every dart, and the face count."""
    turn, tail, head = _number_darts(sub, sorted(sub))
    face, walks = _walk(turn, tail, head)
    return turn, face, len(walks)


def _segments(r: Rel, modules: list[VertexId]) -> tuple[dict[VertexId, tuple[int, ...]], int, int]:
    """Every module's bottom, top, left and right wall segment, and the x and y segment counts.

    With k faces on an axis, its two sides are k and k + 1: west and
    east, floor and ceiling.  A missing block raises ValueError.
    """
    pn, pe, ps, pw = (r.poles[k] for k in ("N", "E", "S", "W"))
    sub1, sub2, block_ends = _read_rings(r, modules)
    turn1, face1, k1 = _numbered_faces(sub1)
    turn2, face2, k2 = _numbered_faces(sub2)
    adj = r.graph.adj
    sides = {}
    for v in modules:
        near, ends = adj[v], block_ends[v]
        t1, t2 = turn1.get(v), turn2.get(v)
        try:  # ends[c] is read before t1 or t2 is indexed: a missing block raises KeyError(c)
            sides[v] = (
                k2 if ps in near else face2[t2[ends[1]]],
                k2 + 1 if pn in near else face2[t2[ends[3]]],
                k1 if pw in near else face1[t1[ends[2]]],
                k1 + 1 if pe in near else face1[t1[ends[0]]],
            )
        except KeyError as exc:
            raise ValueError(f"vertex {v} has no {_BLOCK_ORDER[exc.args[0]]} edge") from None
    return sides, k1 + 2, k2 + 2


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


def rfp_from_rel(r: Rel) -> FloorPlan:
    g = r.graph
    pole_set = set(r.pole_ids)
    modules = [v for v in g.vertices if v not in pole_set]
    sides, nx, ny = _segments(r, modules)

    # Module thickness alone leaves side-by-side walls free to align into a
    # cross, losing the contact; adjacent pairs must overlap across the wall.
    y_edges = [(b, t) for b, t, _, _ in sides.values()]
    x_edges = [(lt, rt) for _, _, lt, rt in sides.values()]
    for e, (tail, head) in r.orient.items():
        if tail in pole_set or head in pole_set:
            continue
        bt, tt, lt, rt = sides[tail]
        bh, th, lh, rh = sides[head]
        if r.color[e] == T2:
            y_edges += ((bt, th), (bh, tt))
        else:
            x_edges += ((lt, rh), (lh, rt))
    ys = _longest_paths(ny, y_edges)
    xs = _longest_paths(nx, x_edges)
    rects = {v: Rect(xs[lt], ys[b], xs[rt], ys[t]) for v, (b, t, lt, rt) in sides.items()}
    width = max(rc.x2 for rc in rects.values())
    height = max(rc.y2 for rc in rects.values())
    fp = FloorPlan(
        rects=rects,
        width=width,
        height=height,
        labels={v: g.labels[v] for v in modules if v in g.labels},
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
