"""Rectangular floor plans from regular edge labelings, and plan geometry.

Every interior vertex becomes an axis-aligned rectangle.  The wall
segments of the plan correspond to faces of the two color subgraphs:
faces of the T2 subgraph are the horizontal segments, faces of the T1
subgraph the vertical ones, and the shared dart walk (graph.walk_darts)
labels every dart of a subgraph with its face in one pass.  A module's
bottom wall is the T2 face entered just after its last outgoing T2
edge, its top wall the face after its last incoming T2 edge; left and
right walls come from the T1 subgraph the same way.  Coordinates are
longest-path depths of those segment nodes, which yields the unique
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
plan_outline, profile_from_outline and dual_graph read the cycle and
the two-sided stretches.  No cell grid is built, and a plan keeps its
sweep (FloorPlan.walls), so plan_outline and dual_graph share it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .graph import EmbeddedGraph, VertexId, edge_key, walk_darts
from .rel import T1, T2, Rel

FLOOR = "FLOOR"
CEILING = "CEILING"
WEST = "WEST"
EAST = "EAST"


# (axis, line coordinate, start, end, module below or left, module above or right)
Stretch = tuple[str, int, int, int, VertexId | None, VertexId | None]


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

    def contains_point(self, x: int, y: int) -> bool:
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2


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


def _sub_rotation(r: Rel, color: str) -> dict[VertexId, tuple[VertexId, ...]]:
    out: dict[VertexId, tuple[VertexId, ...]] = {}
    for v, nbrs in r.graph.rotation.items():
        kept = tuple(u for u in nbrs if r.color.get(edge_key(u, v)) == color)
        if kept:
            out[v] = kept
    return out


def _block_ends(r: Rel, v: VertexId) -> dict[str, VertexId]:
    """Last neighbor, clockwise, of each block (T1out, T2in, ...) around v."""
    ring = r.graph.rotation[v]
    states = []
    for u in ring:
        e = edge_key(u, v)
        states.append(r.color[e] + ("out" if r.orient[e][0] == v else "in"))
    ends: dict[str, VertexId] = {}
    for i, u in enumerate(ring):
        if states[i] != states[(i + 1) % len(ring)]:
            ends.setdefault(states[i], u)
    return ends


def _longest_paths(edges: list[tuple[object, object]], source: object) -> dict[object, int]:
    """Depth of every node below the sources of a DAG, in Kahn's topological order."""
    succ: dict[object, list[object]] = {source: []}
    indeg: dict[object, int] = {source: 0}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
        succ.setdefault(v, [])
        indeg.setdefault(u, 0)
        indeg[v] = indeg.get(v, 0) + 1
    order = [n for n, k in indeg.items() if k == 0]
    depth = dict.fromkeys(order, 0)
    for u in order:
        for v in succ[u]:
            if depth.get(v, -1) <= depth[u]:
                depth[v] = depth[u] + 1
            indeg[v] -= 1
            if not indeg[v]:
                order.append(v)
    if len(order) != len(indeg):
        raise ValueError("segment graph has a cycle")
    return depth


def rfp_from_rel(r: Rel) -> FloorPlan:
    g = r.graph
    pn, pe, ps, pw = (r.poles[k] for k in ("N", "E", "S", "W"))
    pole_set = {pn, pe, ps, pw}
    modules = [v for v in g.vertices if v not in pole_set]
    _, f1 = walk_darts(_sub_rotation(r, T1))
    _, f2 = walk_darts(_sub_rotation(r, T2))

    bottom: dict[VertexId, object] = {}
    top: dict[VertexId, object] = {}
    left: dict[VertexId, object] = {}
    right: dict[VertexId, object] = {}
    for v in modules:
        adj = g.adj[v]
        ends = _block_ends(r, v)
        try:
            bottom[v] = FLOOR if ps in adj else f2[(ends["T2out"], v)]
            top[v] = CEILING if pn in adj else f2[(ends["T2in"], v)]
            left[v] = WEST if pw in adj else f1[(ends["T1in"], v)]
            right[v] = EAST if pe in adj else f1[(ends["T1out"], v)]
        except KeyError as exc:
            raise ValueError(f"vertex {v} has no {exc.args[0]} edge") from None

    # Module thickness alone leaves side-by-side walls free to align into a
    # cross, losing the contact; adjacent pairs must overlap across the wall.
    y_edges = [(bottom[v], top[v]) for v in modules]
    x_edges = [(left[v], right[v]) for v in modules]
    for e, (tail, head) in r.orient.items():
        if tail in pole_set or head in pole_set:
            continue
        if r.color[e] == T2:
            y_edges.append((bottom[tail], top[head]))
            y_edges.append((bottom[head], top[tail]))
        else:
            x_edges.append((left[tail], right[head]))
            x_edges.append((left[head], right[tail]))
    ys = _longest_paths(y_edges, FLOOR)
    xs = _longest_paths(x_edges, WEST)
    rects = {
        v: Rect(xs[left[v]], ys[bottom[v]], xs[right[v]], ys[top[v]]) for v in modules
    }
    width = max(xs[right[v]] for v in modules)
    height = max(ys[top[v]] for v in modules)
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
    profile = corner_profile(fp, ne)
    rest = {v: rc for v, rc in fp.rects.items() if v != ne}
    labels = {v: s for v, s in fp.labels.items() if v != ne}
    return FloorPlan(rects=rest, width=fp.width, height=fp.height, labels=labels), profile


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


def _share_wall(a: Rect, b: Rect) -> str | None:
    """'H' when side by side, 'V' when stacked; None without positive contact."""
    if a.x2 == b.x1 or b.x2 == a.x1:
        lo, hi = max(a.y1, b.y1), min(a.y2, b.y2)
        if hi - lo > 0:
            return "H"
    if a.y2 == b.y1 or b.y2 == a.y1:
        lo, hi = max(a.x1, b.x1), min(a.x2, b.x2)
        if hi - lo > 0:
            return "V"
    return None


def verify_nontrivial_L(fp: FloorPlan, profile: CornerProfile) -> NonTrivialityVerdict:
    """Walk the two notch walls; a bend in the walk certifies non-triviality.

    The walk lists the modules carrying the vertical wall above the
    concave corner (top to bottom) and then the horizontal wall right of
    it (left to right).  The plan is a proper L exactly when some module
    meets its two walk neighbors in different orientations.
    """
    nx, ny, H, W = profile.nx, profile.ny, fp.height, fp.width
    w1 = [
        v
        for v, rc in fp.rects.items()
        if rc.x2 == nx and min(rc.y2, H) - max(rc.y1, ny) > 0
    ]
    w1.sort(key=lambda v: -fp.rects[v].y2)
    w2 = [
        v
        for v, rc in fp.rects.items()
        if rc.y2 == ny and min(rc.x2, W) - max(rc.x1, nx) > 0
    ]
    w2.sort(key=lambda v: fp.rects[v].x1)
    both = set(w1) & set(w2)
    if both:
        raise ValueError(f"modules {sorted(both)} lie on both notch walls")
    at_corner = [
        v for v, rc in fp.rects.items() if rc.contains_point(nx, ny)
    ]
    if len(at_corner) != 2:
        raise ValueError(f"{len(at_corner)} modules meet the concave corner, need 2")
    walk = tuple(w1 + w2)
    if len(walk) < 3:
        return NonTrivialityVerdict(False, walk, None)
    orients = []
    for i in range(len(walk) - 1):
        o = _share_wall(fp.rects[walk[i]], fp.rects[walk[i + 1]])
        if o is None:
            raise ValueError(f"walk neighbors {walk[i]},{walk[i + 1]} do not touch")
        orients.append(o)
    for i in range(len(orients) - 1):
        if orients[i] != orients[i + 1]:
            return NonTrivialityVerdict(True, walk, (walk[i], walk[i + 1], walk[i + 2]))
    return NonTrivialityVerdict(False, walk, None)


# -- dual graph of a plan ----------------------------------------------------


def dual_graph(fp: FloorPlan) -> EmbeddedGraph:
    """Adjacency-of-modules graph with the embedding read off the drawing."""
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
    return EmbeddedGraph(rotation=rotation, outer=tuple(owners), labels=dict(fp.labels))


def plan_outline(fp: FloorPlan) -> tuple[tuple[int, int], ...]:
    """Corner points of the covered region, clockwise from its top-left."""
    steps = _outline(fp.walls)
    corners = [p for i, (p, heading, _) in enumerate(steps) if steps[i - 1][1] != heading]
    start = min(range(len(corners)), key=lambda i: (corners[i][0], -corners[i][1]))
    return tuple(corners[start:] + corners[:start])
