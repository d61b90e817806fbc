"""Driving the corner labels apart by edge flips.

After construction the two P1 edges at the triplet corner (a,b) and
(b,c) may carry the same color; the floor plan then degenerates at the
corner.  The normalizer repeatedly picks the corner edge to recolor
and resolves it through a chain of dependent flips: each chain item is
an oriented edge (x, y) with a steering vertex C.  The edge flips
directly when exactly its y-side triangle mate matches its color;
otherwise the chain descends into the offending triangle.  A repeated
edge on the chain closes an alternating 4-cycle, which is rotated
wholesale before the chain resumes.  Every chain edge joins two inner
vertices of a completion with no separating triangle, so its triangle
mates are its neighbours on either side in a rotation: the chain reads
the rotation and the labels only.
"""

from __future__ import annotations

from typing import NamedTuple

from .boundary import Triplet
from .graph import VertexId, edge_key
from .rel import T1, NotFlippable, Rel, flip_edge, rotate_four_cycle


class NormalizationFailed(RuntimeError):
    """The flip chain could not bring the corner labels into normal form.

    Also raised when the labeling breaks an invariant the chain relies on,
    or a repeated segment closes no alternating 4-cycle.
    """


class WorkItem(NamedTuple):
    x: VertexId
    y: VertexId
    c: VertexId

    @property
    def edge(self):
        return edge_key(self.x, self.y)


class FlipRecord(NamedTuple):
    action: str  # "flip" | "rotate" | "pre" | "pin"
    detail: tuple


class NormalizeReport(NamedTuple):
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


def _mates(r: Rel, x: VertexId, y: VertexId) -> tuple[VertexId, ...]:
    """The neighbours on either side of y in x's rotation, ascending.

    A chain edge joins two inner vertices of a completion with no
    separating triangle, so these are its common neighbours.
    """
    nbrs = r.graph.rotation[x]
    i = nbrs.index(y)
    return tuple(sorted((nbrs[i - 1], nbrs[(i + 1) % len(nbrs)])))


def _classify(r: Rel, item: WorkItem) -> tuple[str, VertexId]:
    common = _mates(r, item.x, item.y)
    others = [w for w in common if w != item.c]
    if len(others) != 1:
        raise NormalizationFailed(
            f"edge ({item.x},{item.y}) has common neighbors {common}, steering {item.c}"
        )
    z = others[0]
    if z in r.poles.values():
        raise NormalizationFailed(f"chain reached pole {z} at edge ({item.x},{item.y})")
    x_label = r.label(item.x, item.y)
    lxz = r.label(item.x, z)
    lyz = r.label(item.y, z)
    if lxz == x_label and lyz == x_label:
        raise NormalizationFailed(f"monochromatic triangle ({item.x},{item.y},{z})")
    if lxz != x_label and lyz == x_label:
        return "flip", z
    if lxz != x_label and lyz != x_label:
        return "case-b", z
    return "case-c", z


def _run_chain(r: Rel, stack: list[WorkItem], trace: list[FlipRecord], budget: int) -> None:
    """Resolve the chain on stack, innermost item last, appending its moves to trace.

    The top item flips and is popped, or the chain descends into its
    offending triangle.  A child edge already on the chain closes a
    4-cycle through the case-b mates of the segment from its last
    occurrence on; the rotation recolors everything strictly inside the
    cycle, the repeated edge included, so that segment is done and the
    item below it is oriented afresh.
    """
    steps = 0
    while stack:
        steps += 1
        if steps > budget:
            raise NormalizationFailed(f"flip chain exceeded its step budget of {budget} steps")
        item = stack[-1]
        case, z = _classify(r, item)
        if case == "flip":
            try:
                flip_edge(r, item.x, item.y)
            except NotFlippable as exc:
                raise NormalizationFailed(f"unflippable chain edge ({item.x},{item.y})") from exc
            stack.pop()
            trace.append(FlipRecord("flip", (item.x, item.y)))
            continue
        child = WorkItem(z, item.y, item.x) if case == "case-b" else WorkItem(item.x, z, item.y)
        j = next((i for i in range(len(stack) - 1, -1, -1) if stack[i].edge == child.edge), None)
        if j is None:
            stack.append(child)
            continue
        segment = [_classify(r, it) for it in stack[j + 1 :] + [child]]
        w = tuple(v for kind, v in segment if kind == "case-b")
        try:  # the rotation refuses all but four distinct corners joined by labeled edges
            mode = rotate_four_cycle(r, w)
        except NotFlippable as exc:
            raise NormalizationFailed(str(exc)) from exc
        trace.append(FlipRecord("rotate", (w, mode)))
        del stack[j:]
        if stack:
            top = stack[-1]
            fresh = _orient_item(r, (top.x, top.y), top.c)
            if fresh is None:
                raise NormalizationFailed("stale chain orientation after rotation")
            stack[-1] = fresh


def normalize_labels(r: Rel, triplet: Triplet, ne: VertexId) -> NormalizeReport:
    """Flip until the two corner edges at b carry different colors.

    Mutates r in place and returns the flip/rotation trace.
    """
    m = len(r.color)
    budget = 4 * m * m + 16
    trace: list[FlipRecord] = []
    passes = 0
    while True:
        tgt = pick_first_edge(r, triplet, ne)
        if tgt is None:
            return NormalizeReport(trace=tuple(trace), passes=passes)
        passes += 1
        if passes > budget:
            raise NormalizationFailed(f"normalization exceeded its pass budget of {budget} passes")
        item = _orient_item(r, *tgt)
        if item is None:  # flip the corner edge at NE first, so the target gains a steering
            a, b, c = triplet
            pre = (c, ne) if r.label(a, b) == T1 else (a, ne)
            item = next(filter(None, (_orient_item(r, pre, c0) for c0 in _mates(r, *pre))), None)
            if item is None:
                raise NormalizationFailed(f"corner edge {pre} admits no chain orientation")
            trace.append(FlipRecord("pre", pre))
        _run_chain(r, [item], trace, budget)
