"""Selection of the five boundary paths and the four-completion.

The outer boundary is cut at five split instances (a multiset of outer
vertices, multiplicity at most 2, never the middle triplet vertex b).
P1 is the arc containing b; a repeated split vertex yields a degenerate
single-vertex path.  check_path_conditions lists the defects of a
candidate set; its shortcut ranges are P1's tails s1 .. a and c .. s2,
so b lies in neither.  select_paths decides a triplet with one scan over
the two ends of P1 that applies exactly those rules: it returns the first
admissible set in a documented order, and its Infeasible is a
certificate that no set exists.
"""

from __future__ import annotations

from collections import ChainMap, Counter
from typing import MutableMapping, NamedTuple, Sequence

from .boundary import Cip, Triplet, boundary_arc, find_cips
from .graph import EmbeddedGraph, VertexId, common_neighbors

FOUR_CONSECUTIVE = "FourConsecutiveCommonVertex"
SHORTCUT_P5 = "ShortcutP5Side"
SHORTCUT_P2 = "ShortcutP2Side"
COMMON_NEIGHBOR = "CommonNeighborAcross"
CHORD_WITHIN = "ChordWithinPath"


class PathViolation(NamedTuple):
    kind: str
    witness: tuple

    def __str__(self) -> str:
        return f"{self.kind}{self.witness}"


class PathSet(NamedTuple):
    p1: tuple[VertexId, ...]
    p2: tuple[VertexId, ...]
    p3: tuple[VertexId, ...]
    p4: tuple[VertexId, ...]
    p5: tuple[VertexId, ...]
    triplet: Triplet

    @property
    def paths(self) -> tuple[tuple[VertexId, ...], ...]:
        return (self.p1, self.p2, self.p3, self.p4, self.p5)

    @property
    def splits(self) -> tuple[VertexId, ...]:
        """Split instances (s1..s5); s_i starts P_i."""
        return tuple(p[0] for p in self.paths)


class Infeasible(Exception):
    """No admissible path set exists for this triplet; a certificate.

    violations holds the defects of one witness set when five CIPs fix
    the splits (see select_paths), and is empty otherwise.
    """

    def __init__(self, triplet: Triplet, violations: tuple[PathViolation, ...]):
        super().__init__(f"no path set for triplet {tuple(triplet)}")
        self.triplet = triplet
        self.violations = violations


def paths_from_splits(
    g: EmbeddedGraph, triplet: Triplet, split_counts: Counter
) -> PathSet:
    """Cut the boundary at five split instances into paths P1..P5."""
    if sum(split_counts.values()) != 5:
        raise ValueError("need exactly five split instances")
    if split_counts.get(triplet.b):
        raise ValueError("b can not be a split vertex")
    n = len(g.outer)
    start = (g.outer_pos[triplet.b] + 1) % n
    inst: list[VertexId] = []
    for k in range(n):
        v = g.outer[(start + k) % n]
        inst.extend([v] * split_counts.get(v, 0))
    # Scanning clockwise from just after b yields (s2, s3, s4, s5, s1).
    s2, s3, s4, s5, s1 = inst
    cuts = [s1, s2, s3, s4, s5, s1]
    segs = []
    for i in range(5):
        u, v = cuts[i], cuts[i + 1]
        if u == v and i != 0:
            segs.append((u,))
        else:
            segs.append(boundary_arc(g, u, v))
    return PathSet(*segs, triplet=triplet)


def _validate_structure(g: EmbeddedGraph, ps: PathSet) -> None:
    walk: list[VertexId] = []
    for i, p in enumerate(ps.paths):
        if not p:
            raise ValueError(f"path {i + 1} is empty")
        nxt = ps.paths[(i + 1) % 5]
        if p[-1] != nxt[0]:
            raise ValueError("consecutive paths must share an end vertex")
        walk.extend(p[:-1] if len(p) > 1 else p)
    # Degenerate paths contribute their lone vertex twice; strip that.
    flat: list[VertexId] = []
    for v in walk:
        if not flat or flat[-1] != v:
            flat.append(v)
    if flat and flat[0] == flat[-1]:
        flat.pop()
    if sorted(flat) != sorted(g.outer):
        raise ValueError("paths do not cover the outer cycle")
    a, b, c = ps.triplet
    if b not in ps.p1 or a not in ps.p1 or c not in ps.p1:
        raise ValueError("triplet must lie on P1")


def check_path_conditions(g: EmbeddedGraph, ps: PathSet) -> tuple[PathViolation, ...]:
    """All feasibility defects of a path set; empty means an L exists."""
    _validate_structure(g, ps)
    a, b, c = ps.triplet
    s1, s2 = ps.p1[0], ps.p1[-1]
    out: list[PathViolation] = []

    counts = Counter(ps.splits)
    for v, m in sorted(counts.items()):
        if m >= 3:
            out.append(PathViolation(FOUR_CONSECUTIVE, (v,)))

    chord_list = g.chords
    for i, p in enumerate(ps.paths):
        pv = set(p)
        for x, y in chord_list:
            if x in pv and y in pv:
                out.append(PathViolation(CHORD_WITHIN, (x, y, i + 1)))

    a_tail = boundary_arc(g, s1, a)
    c_tail = boundary_arc(g, c, s2)
    c_side, a_side = set(c_tail), set(a_tail)
    p5, p2 = set(ps.p5), set(ps.p2)
    for x, y in chord_list:
        for u, v in ((x, y), (y, x)):
            if u in p5 and v in c_side and not (u in ps.p1 and v in ps.p1):
                out.append(PathViolation(SHORTCUT_P5, (u, v)))
            if u in p2 and v in a_side and not (u in ps.p1 and v in ps.p1):
                out.append(PathViolation(SHORTCUT_P2, (u, v)))

    for x in a_tail:
        for y in c_tail:
            if x == y:
                continue
            shared = [k for k in common_neighbors(g, x, y) if k != b]
            if shared:
                out.append(PathViolation(COMMON_NEIGHBOR, (x, y, shared[0])))
    return tuple(out)


# -- the scan ----------------------------------------------------------------


def _place(
    s2: int, s1: int, arcs: list[tuple[int, int]], top3: int, low5: int
) -> tuple[int, int, int] | None:
    """The first (s3, s4, s5) by s3 up, s5 at s1 then up, s4 up, or None.

    arcs are the CIPs (x, y) lying in [s2, s1], in order; each interior
    x < v < y needs a split.  s3 may not exceed top3, s5 not fall below
    low5.  s3 is s2 or the first interior vertex of the first CIP: a split
    that meets no interior is placed no better further up.
    """
    for s3, rest in [(s2, arcs)] + [(x + 1, arcs[1:]) for x, _ in arcs[:1]]:
        if s3 > top3 or len(rest) > 2:
            continue
        if len(rest) == 2:  # s4 and s5 split one CIP each
            s5 = max(rest[1][0] + 1, low5)
            if s5 < rest[1][1]:
                return s3, rest[0][0] + 1, s5
            continue
        # s5 = s1; a doubled s2 leaves s4 the next vertex up
        s4 = rest[0][0] + 1 if rest else s3 + (s3 == s2)
        if s4 < s1:
            return s3, s4, s1
    return None


def _witness(
    g: EmbeddedGraph, triplet: Triplet, cips: tuple[Cip, ...]
) -> tuple[PathViolation, ...]:
    """The defects of one split per CIP at its first interior vertex but b, a or c first."""
    a, b, c = triplet
    picks = []
    for cip in cips:
        inner = [v for v in cip.interior if v != b]
        if not inner:
            return ()
        picks.append(a if a in inner else c if c in inner else inner[0])
    return check_path_conditions(g, paths_from_splits(g, triplet, Counter(picks)))


def select_paths(
    g: EmbeddedGraph, triplet: Triplet, cips: tuple[Cip, ...] | None = None
) -> PathSet:
    """The first admissible path set for one triplet; Infeasible if none.

    Number the outer vertices clockwise from c = 0 to a = m - 1, leaving
    out b; the splits sit at s2 <= s3 <= s4 <= s5 <= s1.  The rules of
    check_path_conditions then read:

    - P1 = s1 .. a b c .. s2 holds no chord, and no vertex but b
      neighbours both of its tails.  Both rules only get worse as a tail
      grows, so s2 scans up from c and, for each s2, s1 scans down from
      a; each loop stops at the first failure.
    - No vertex of (s2, s3] has a chord to the a-side tail, and none of
      [s5, s1) one to the c-side tail: s3 stays below the first, s5
      above the last such vertex.  A chord from b to position p is the
      span (p, p); it bounds both tails and lies between them.
    - s3, s4 and s5 split every CIP lying in [s2, s1].  Those CIPs have
      disjoint interiors, so a pair (s2, s1) with more than three of
      them has no path set.

    The set returned is the first admissible one in the order s2
    ascending, s1 descending, s3 ascending, s5 at s1 first and then
    ascending, s4 ascending.
    So Infeasible certifies that no path set exists.  With five CIPs its
    violations are those of the set that splits each CIP at its first
    interior vertex other than b, a or c first; otherwise they are empty.
    """
    if cips is None:
        cips = find_cips(g)
    if len(cips) > 5:
        raise ValueError("more than five CIPs; necessary conditions fail")
    a, b, c = triplet
    m = len(g.outer) - 1
    i = g.outer_pos[c]
    ring = (g.outer[i:] + g.outer[:i])[:m]  # c = 0, ..., a = m - 1; b left out
    pos = dict(zip(ring, range(m)))
    spans: list[tuple[int, int]] = []  # the chords as positions x <= y
    for u, v in g.chords:
        x, y = sorted((pos.get(u, -1), pos.get(v, -1)))
        spans.append((y if x < 0 else x, y))  # a chord from b to p is (p, p)
    arcs = sorted((pos.get(cip.vertices[0], m), pos.get(cip.vertices[-1], m)) for cip in cips)
    arcs = [(x, y) for x, y in arcs if x < y < m]  # the CIPs not around b
    # No chord lies in a tail: s2 stays below every chord's end, s1 above every start.
    ceiling = min([m] + [y for _, y in spans])
    floor = max([-1] + [x for x, _ in spans])
    rot = g.rotation
    near: set[VertexId] = set()  # the neighbours of the c-side tail but b
    j0 = 0
    for s2 in range(ceiling):
        # s1 and s5 lie above every chord from the c-side tail
        low = max([s2] + [y for x, y in spans if x <= s2])
        near.update(rot[ring[s2]])
        near.discard(b)
        if max(low, floor) >= m - 1 or not near.isdisjoint(rot[a]):
            break
        while j0 < len(arcs) and arcs[j0][0] < s2:
            j0 += 1
        # Below the fourth CIP's end at most three CIPs lie in [s2, s1].
        start = m - 1 if j0 + 3 >= len(arcs) else arcs[j0 + 3][1] - 1
        fresh = range(start, m - 1)  # tail vertices not yet checked for a shared neighbour
        for s1 in range(start, max(low, floor), -1):
            if any(not near.isdisjoint(rot[ring[y]]) for y in fresh):
                break
            fresh = (s1 - 1,)
            # s3 lies below every chord to the a-side tail
            top = min([m] + [x for x, y in spans if y >= s1])
            inside = [arc for arc in arcs[j0 : j0 + 3] if arc[1] <= s1]
            picks = _place(s2, s1, inside, top - 1, low + 1)
            if picks is not None:
                return paths_from_splits(g, triplet, Counter(ring[s] for s in (s2, s1) + picks))
    raise Infeasible(triplet, _witness(g, triplet, cips) if len(cips) == 5 else ())


# -- NE augmentation and four-completion ------------------------------------


class EmbeddingConflict(ValueError):
    """The requested outside attachment does not fit the embedding."""


class AugmentedGraph(NamedTuple):
    base: EmbeddedGraph
    ne: VertexId | None
    poles: dict[str, VertexId]
    pprime: tuple[tuple[VertexId, ...], ...]

    @property
    def pole_ids(self) -> tuple[VertexId, ...]:
        return tuple(self.poles[k] for k in ("N", "E", "S", "W"))


def attach_vertex(
    rot: MutableMapping[VertexId, Sequence[VertexId]],
    outer: list[VertexId],
    arc: tuple[VertexId, ...],
    new_id: VertexId,
) -> list[VertexId]:
    """Add new_id outside the clockwise outer cycle over arc, in rot; returns the new outer cycle.

    The arc must be consecutive on the cycle, span an edge and repeat no
    vertex; then the step keeps a valid embedding, so a caller that
    attaches many vertices needs no check of its own.  It must also keep
    a PTPG one: every new 3-cycle is new_id and two adjacent arc vertices,
    a face exactly when they are consecutive on the arc, and the outer
    cycle, now enclosed, separates iff it is a triangle around inner
    vertices.  So the step is refused before anything is written when two
    non-consecutive arc vertices are adjacent or the cycle is such a
    triangle.  Only the rows of new_id and the arc are written, each as a
    new list.
    """
    if new_id in rot:
        raise EmbeddingConflict(f"vertex id {new_id} already used")
    pos = {v: i for i, v in enumerate(outer)}
    off = [v for v in arc if v not in pos]
    if off:
        raise EmbeddingConflict(f"attachment arc vertex {off[0]} is not on the outer cycle")
    if any(outer[(pos[u] + 1) % len(outer)] != v for u, v in zip(arc, arc[1:])):
        raise EmbeddingConflict("attachment arc must be consecutive on the boundary")
    if len(arc) < 2 or len(set(arc)) != len(arc):
        raise EmbeddingConflict("attachment arc needs two or more distinct vertices")
    if len(outer) == 3 and len(rot[outer[0]]) > 2:
        raise EmbeddingConflict(f"outer cycle {tuple(outer)} is a triangle around inner vertices")
    at = {v: i for i, v in enumerate(arc)}
    for i, v in enumerate(arc):
        for u in rot[v]:
            if at.get(u, i) > i + 1:
                raise EmbeddingConflict(f"attachment arc vertices {v} and {u} are adjacent")
    rot[new_id] = list(reversed(arc))
    for v in arc:
        nbrs = rot[v]
        i = nbrs.index(outer[pos[v] - 1]) + 1
        rot[v] = [*nbrs[:i], new_id, *nbrs[i:]]
    rest = outer[pos[arc[-1]]:] + outer[:pos[arc[-1]]]
    return [new_id] + rest[: rest.index(arc[0]) + 1]


def completion_paths(ps: PathSet, ne: VertexId) -> tuple[tuple[VertexId, ...], ...]:
    return (ps.p5 + (ne,), (ne,) + ps.p2, ps.p3, ps.p4)


def four_completion(
    g: EmbeddedGraph,
    qpaths: tuple[tuple[VertexId, ...], ...],
    ne: VertexId | None = None,
    ne_arc: tuple[VertexId, ...] | None = None,
) -> AugmentedGraph:
    """Attach the four poles around paths Q1..Q4 covering the boundary.

    With ne_arc, g does not hold the north-east helper yet: ne is attached
    over that arc first.  The result extends g's checked structure
    (EmbeddedGraph.extend); only the rows of the arcs are copied.  Each
    step is attach_vertex, so the completion of a PTPG is a PTPG, or
    EmbeddingConflict names the step that would close a separating triangle.
    """
    if len(qpaths) != 4:
        raise EmbeddingConflict("four-completion needs exactly four paths")
    for i in range(4):
        if qpaths[i][-1] != qpaths[(i + 1) % 4][0]:
            raise EmbeddingConflict("completion paths must chain around the boundary")
    first = [] if ne_arc is None else [(ne_arc, ne, "NE")]
    base = (g.vertices[-1] if ne_arc is None else max(g.vertices[-1], ne)) + 1
    ids = {"N": base, "E": base + 1, "S": base + 2, "W": base + 3}
    q1, q2, q3, q4 = qpaths
    rows: dict[VertexId, Sequence[VertexId]] = {}
    rot, outer, labels = ChainMap(rows, g.rotation), list(g.outer), dict(g.labels)
    for arc, new_id, label in first + [
        (q1, ids["N"], "N"),
        ((ids["N"],) + q2, ids["E"], "E"),
        ((ids["E"],) + q3, ids["S"], "S"),
        ((ids["S"],) + q4 + (ids["N"],), ids["W"], "W"),
    ]:
        outer = attach_vertex(rot, outer, arc, new_id)
        labels[new_id] = label
    return AugmentedGraph(
        base=g.extend(rows, outer, labels), ne=ne, poles=ids, pprime=tuple(qpaths)
    )
