"""Driving the corner labels apart by edge flips.

After construction the two P1 edges at the triplet corner (a,b) and
(b,c) may carry the same color; the floor plan then degenerates at the
corner.  The normalizer repeatedly picks the corner edge to recolor
and resolves it through a chain of dependent flips: each chain item is
an oriented edge (x, y) with a steering vertex C.  The edge flips
directly when exactly its y-side triangle mate matches its color;
otherwise the chain descends into the offending triangle.  A repeated
edge on the chain closes an alternating 4-cycle, which is rotated
wholesale before the chain resumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .boundary import Triplet
from .graph import VertexId, common_neighbors, edge_key
from .rel import T1, T2, FourCycle, NotAlternating, NotFlippable, Rel, flip_edge, rotate_four_cycle


class NormalizationFailed(RuntimeError):
    pass


class OracleViolation(RuntimeError):
    """The labeling broke an invariant the flip machinery relies on."""


class CycleNotFound(RuntimeError):
    pass


@dataclass(frozen=True)
class WorkItem:
    x: VertexId
    y: VertexId
    c: VertexId

    @property
    def edge(self):
        return edge_key(self.x, self.y)


@dataclass(frozen=True)
class FlipRecord:
    action: str  # "flip" | "rotate" | "pre"
    detail: tuple


@dataclass
class FlipWorklist:
    stack: list[WorkItem] = field(default_factory=list)
    trace: list[FlipRecord] = field(default_factory=list)


@dataclass(frozen=True)
class NormalizeReport:
    trace: tuple[FlipRecord, ...]
    passes: int

    @property
    def rotations(self) -> int:
        return sum(1 for rec in self.trace if rec.action == "rotate")

    @property
    def flips(self) -> int:
        return sum(1 for rec in self.trace if rec.action == "flip")


def pick_first_edge(
    r: Rel, triplet: Triplet, ne: VertexId
) -> tuple[tuple[VertexId, VertexId], VertexId] | None:
    """Corner edge to recolor plus its steering vertex; None when done."""
    a, b, c = triplet
    la, lc = r.label(a, b), r.label(b, c)
    if la != lc:
        return None
    if la == T1:
        return (b, c), ne
    return (a, b), ne


def _orient_item(r: Rel, edge: tuple[VertexId, VertexId], c: VertexId) -> WorkItem | None:
    u, v = edge
    x_label = r.label(u, v)
    luc, lvc = r.label(u, c), r.label(v, c)
    if luc == x_label and lvc != x_label:
        return WorkItem(u, v, c)
    if lvc == x_label and luc != x_label:
        return WorkItem(v, u, c)
    return None


def _classify(r: Rel, item: WorkItem) -> tuple[str, VertexId]:
    common = common_neighbors(r.graph, item.x, item.y)
    others = [w for w in common if w != item.c]
    if len(common) != 2 or len(others) != 1:
        raise OracleViolation(
            f"edge ({item.x},{item.y}) has common neighbors {common}, steering {item.c}"
        )
    z = others[0]
    if z in set(r.pole_ids):
        raise OracleViolation(f"chain reached pole {z} at edge ({item.x},{item.y})")
    x_label = r.label(item.x, item.y)
    lxz = r.label(item.x, z)
    lyz = r.label(item.y, z)
    if lxz == x_label and lyz == x_label:
        raise OracleViolation(f"monochromatic triangle ({item.x},{item.y},{z})")
    if lxz != x_label and lyz == x_label:
        return "flip", z
    if lxz != x_label and lyz != x_label:
        return "case-b", z
    return "case-c", z


def advance(r: Rel, wl: FlipWorklist):
    """One chain step: Flipped(edge) | Descend(item) | Repeat(j, item)."""
    item = wl.stack[-1]
    case, z = _classify(r, item)
    if case == "flip":
        try:
            flip_edge(r, item.x, item.y)
        except NotFlippable as exc:
            raise OracleViolation(f"unflippable chain edge ({item.x},{item.y})") from exc
        wl.stack.pop()
        wl.trace.append(FlipRecord("flip", (item.x, item.y)))
        return ("Flipped", (item.x, item.y))
    child = WorkItem(z, item.y, item.x) if case == "case-b" else WorkItem(item.x, z, item.y)
    matches = [i for i, it in enumerate(wl.stack) if it.edge == child.edge]
    if matches:
        return ("Repeat", matches[-1], child)
    wl.stack.append(child)
    return ("Descend", child)


def resolve_repeat(r: Rel, wl: FlipWorklist, j: int, child: WorkItem) -> None:
    """Rotate the 4-cycle enclosed by the repeated chain segment.

    The rotation recolors everything strictly inside the cycle, which
    includes the repeated edge itself, so the whole segment from the first
    occurrence on is done and the chain resumes at the item before it.
    """
    segment = wl.stack[j + 1 :] + [child]
    ring: list[VertexId] = []
    for it in segment:
        case, z = _classify(r, it)
        if case == "case-b":
            ring.append(z)
    if len(ring) != 4:
        raise CycleNotFound(f"repeat segment encloses {len(ring)} corners, need 4")
    w = tuple(ring)
    for i in range(4):
        if edge_key(w[i], w[(i + 1) % 4]) not in r.graph.edges:
            raise CycleNotFound(f"corners {w} do not close a cycle")
    try:
        mode = rotate_four_cycle(r, FourCycle(w))
    except (NotAlternating, NotFlippable) as exc:
        raise CycleNotFound(str(exc)) from exc
    if mode == "empty":
        raise CycleNotFound(f"cycle {w} encloses no faces")
    wl.trace.append(FlipRecord("rotate", (w, mode)))
    del wl.stack[j:]
    if wl.stack:
        top = wl.stack[-1]
        fresh = _orient_item(r, (top.x, top.y), top.c)
        if fresh is None:
            raise NormalizationFailed("stale chain orientation after rotation")
        wl.stack[-1] = fresh


def _run_chain(r: Rel, wl: FlipWorklist, budget: int) -> int:
    steps = 0
    while wl.stack:
        steps += 1
        if steps > budget:
            raise NormalizationFailed("flip chain exceeded its step budget")
        res = advance(r, wl)
        if res[0] == "Repeat":
            resolve_repeat(r, wl, res[1], res[2])
    return steps


def pre_rotate_corner(
    r: Rel, triplet: Triplet, ne: VertexId, wl: FlipWorklist, budget: int
) -> None:
    """Flip the corner edge at NE so the target edge gains a valid steering."""
    a, b, c = triplet
    pre = (c, ne) if r.label(a, b) == T1 else (a, ne)
    for c0 in common_neighbors(r.graph, *pre):
        item = _orient_item(r, pre, c0)
        if item is None:
            continue
        wl.trace.append(FlipRecord("pre", pre))
        wl.stack.append(item)
        _run_chain(r, wl, budget)
        return
    raise NormalizationFailed(f"corner edge {pre} admits no chain orientation")


def normalize_labels(r: Rel, triplet: Triplet, ne: VertexId) -> NormalizeReport:
    """Flip until the two corner edges at b carry different colors.

    Mutates r in place and returns the flip/rotation trace.
    """
    m = len(r.color)
    budget = 4 * m * m + 16
    wl = FlipWorklist()
    passes = 0
    while True:
        tgt = pick_first_edge(r, triplet, ne)
        if tgt is None:
            return NormalizeReport(trace=tuple(wl.trace), passes=passes)
        passes += 1
        if passes > budget:
            raise NormalizationFailed("normalization exceeded its pass budget")
        edge, c0 = tgt
        item = _orient_item(r, edge, c0)
        if item is None:
            pre_rotate_corner(r, triplet, ne, wl, budget)
            continue
        wl.stack = [item]
        _run_chain(r, wl, budget)
