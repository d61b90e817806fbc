"""Selection of the five boundary paths and the four-completion.

The outer boundary is cut at five split instances (a multiset of outer
vertices, multiplicity at most 2, never the middle triplet vertex b).
P1 is the arc containing b; a repeated split vertex yields a degenerate
single-vertex path.  Feasibility of a candidate set is decided by
check_path_conditions; select_paths searches split sets in a fixed
deterministic order so equal inputs give equal outputs.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import NamedTuple

from .boundary import Cip, Triplet, boundary_arc, chords, find_cips
from .graph import EmbeddedGraph, VertexId, common_neighbors, edge_key

FOUR_CONSECUTIVE = "FourConsecutiveCommonVertex"
SHORTCUT_P5 = "ShortcutP5Side"
SHORTCUT_P2 = "ShortcutP2Side"
COMMON_NEIGHBOR = "CommonNeighborAcross"
CHORD_WITHIN = "ChordWithinPath"

_COMBO_CAP = 512
_PAD_CAP = 20000


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
    """No admissible path set exists for this triplet.

    final is True when the refusal is certified (five CIPs force the
    splits), False when the deterministic search was merely exhausted.
    """

    def __init__(self, triplet: Triplet, violations: tuple[PathViolation, ...], final: bool):
        super().__init__(f"no path set for triplet {tuple(triplet)}")
        self.triplet = triplet
        self.violations = violations
        self.final = final


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

    chord_list = chords(g)
    for i, p in enumerate(ps.paths):
        pv = set(p)
        for x, y in chord_list:
            if x in pv and y in pv:
                out.append(PathViolation(CHORD_WITHIN, (x, y, i + 1)))

    # Shortcut ranges include b itself; both walls meet P1's wall at the
    # corner, so an edge landing on b is just as fatal as one landing on c.
    c_side = set(boundary_arc(g, b, s2))
    a_side = set(boundary_arc(g, s1, b))
    p5, p2 = set(ps.p5), set(ps.p2)
    for x, y in chord_list:
        for u, v in ((x, y), (y, x)):
            if u in p5 and v in c_side and not (u in ps.p1 and v in ps.p1):
                out.append(PathViolation(SHORTCUT_P5, (u, v)))
            if u in p2 and v in a_side and not (u in ps.p1 and v in ps.p1):
                out.append(PathViolation(SHORTCUT_P2, (u, v)))

    a_tail = boundary_arc(g, s1, a)
    c_tail = boundary_arc(g, c, s2)
    for x in a_tail:
        for y in c_tail:
            if x == y:
                continue
            shared = [k for k in common_neighbors(g, x, y) if k != b]
            if shared:
                out.append(PathViolation(COMMON_NEIGHBOR, (x, y, shared[0])))
    return tuple(out)


# -- deterministic search ---------------------------------------------------


def _cip_candidates(cip: Cip, triplet: Triplet) -> list[VertexId]:
    a, b, c = triplet
    inner = [v for v in cip.interior if v != b]
    ordered = [v for v in (a, c) if v in inner]
    ordered += [v for v in inner if v not in ordered]
    return ordered


def _pad_multisets(scan: list[VertexId], counts: Counter, need: int):
    """All ways to add `need` split instances, lexicographic in scan order.

    A vertex takes at most 2 - counts[v] instances, the larger takes
    first; the search is iterative, so long boundaries cannot exhaust
    the interpreter stack.
    """
    budget = [2 - counts.get(v, 0) for v in scan]
    takes: list[int] = []  # instances taken at scan[0], scan[1], ...
    acc: list[VertexId] = []
    left = need
    while True:
        i = len(takes)
        if left and i < len(scan) and budget[i] >= 0:
            t = min(budget[i], left)
            takes.append(t)
            acc.extend([scan[i]] * t)
            left -= t
            continue
        if not left:
            yield list(acc)
        # Backtrack to the last position that can take one instance fewer.
        while takes and not takes[-1]:
            takes.pop()
        if not takes:
            return
        takes[-1] -= 1
        acc.pop()
        left += 1


class _Defer(Exception):
    """Internal: this CIP-representative combination is deferred."""


def _corner_forcings(
    g: EmbeddedGraph,
    triplet: Triplet,
    arcs: list[tuple[VertexId, ...]],
) -> set[str]:
    """Which corner split the shortcut/common-neighbor rules demand.

    arcs[0] is the arc holding the triplet (endpoints alpha1, alpha2),
    the rest follow clockwise.  Returns a subset of {"a", "c"}.
    """
    a, b, c = triplet
    p1 = arcs[0]
    alpha1, alpha2 = p1[0], p1[-1]
    dirs: set[str] = set()
    chord_set = set(chords(g))

    if len(arcs) >= 2:
        last_arc, second_arc = arcs[-1], arcs[1]
        if any(edge_key(x, c) in chord_set for x in last_arc if x != c):
            dirs.add("a")  # splitting at c would leave this shortcut on the P5 side
        if any(edge_key(a, y) in chord_set for y in second_arc if y != a):
            dirs.add("c")

    a_range = [v for v in boundary_arc(g, alpha1, a)[:-1] if v != c]
    c_range = [v for v in boundary_arc(g, c, alpha2)[1:] if v != a]
    if any(k != b for x in a_range for k in common_neighbors(g, x, c)):
        dirs.add("a")
    if any(k != b for y in c_range for k in common_neighbors(g, a, y)):
        dirs.add("c")
    return dirs


def _try_combo(
    g: EmbeddedGraph,
    triplet: Triplet,
    cips: tuple[Cip, ...],
    combo: tuple[VertexId, ...],
    relaxed: bool,
) -> PathSet | None:
    """Corner decision plus padding for one CIP-representative choice.

    Raises _Defer in strict mode when a forced corner split would have to
    be degenerate or when the forcing rules conflict.
    """
    a, b, c = triplet
    counts = Counter(combo)
    n = len(g.outer)

    def wrap_arc(s: VertexId) -> tuple[VertexId, ...]:
        pos = g.outer_pos[s]
        return tuple(g.outer[(pos + k) % n] for k in range(n)) + (s,)

    if combo:
        start = (g.outer_pos[b] + 1) % n
        order = sorted(set(combo), key=lambda v: (g.outer_pos[v] - start) % n)
        if len(order) == 1:
            arcs = [wrap_arc(order[0])]
        else:
            cuts = [order[-1]] + order  # arc holding b first, then clockwise
            arcs = [boundary_arc(g, cuts[i], cuts[i + 1]) for i in range(len(order))]
    else:
        # No CIPs: seed a split at a; the lone arc wraps the whole boundary.
        counts[a] += 1
        arcs = [wrap_arc(a)]

    alpha1, alpha2 = arcs[0][0], arcs[0][-1]
    dirs = _corner_forcings(g, triplet, arcs)

    corner_options: list[VertexId | None]
    if dirs == {"a", "c"}:
        if not relaxed:
            raise _Defer
        corner_options = [a, c]
    elif dirs == {"a"}:
        if counts.get(a) and not relaxed:
            raise _Defer
        corner_options = [a]
    elif dirs == {"c"}:
        if counts.get(c) and not relaxed:
            raise _Defer
        corner_options = [c]
    else:
        if alpha1 == a or alpha2 == c:
            corner_options = [None]  # a corner split is already present
        else:
            len_a = len(boundary_arc(g, a, alpha2))
            len_c = len(boundary_arc(g, alpha1, c))
            corner_options = [a] if len_a <= len_c else [c]

    start = g.outer_pos[a]
    scan = [g.outer[(start + k) % n] for k in range(n)]
    scan = [v for v in scan if v != b]

    for corner in corner_options:
        cur = Counter(counts)
        if corner is not None:
            if cur.get(corner, 0) >= 2:
                continue
            cur[corner] += 1
        need = 5 - sum(cur.values())
        if need < 0:
            continue
        budget = _PAD_CAP
        for extra in _pad_multisets(scan, cur, need):
            budget -= 1
            if budget < 0:
                break
            full = Counter(cur)
            full.update(extra)
            if any(not (set(cip.interior) & set(full)) for cip in cips):
                continue
            ps = paths_from_splits(g, triplet, full)
            if not check_path_conditions(g, ps):
                return ps
    return None


def select_paths(
    g: EmbeddedGraph, triplet: Triplet, cips: tuple[Cip, ...] | None = None
) -> PathSet:
    """Deterministic path-set search for one triplet.

    Raises Infeasible on failure; final=True only in the five-CIP case,
    where the CIP interiors force the splits and any surviving violation
    certifies that no path set for this triplet works.
    """
    if cips is None:
        cips = find_cips(g)
    k = len(cips)
    if k > 5:
        raise ValueError("more than five CIPs; necessary conditions fail")

    cand = [_cip_candidates(cip, triplet) for cip in cips]
    if any(not cl for cl in cand):
        # A CIP whose interior is only b can not be covered; with an
        # admissible triplet this does not occur (it needs chord (a, c)).
        raise Infeasible(triplet, (), final=(k == 5))

    if k == 5:
        first_viol: tuple[PathViolation, ...] | None = None
        for combo in itertools.islice(itertools.product(*cand), _COMBO_CAP):
            ps = paths_from_splits(g, triplet, Counter(combo))
            viol = check_path_conditions(g, ps)
            if not viol:
                return ps
            if first_viol is None:
                first_viol = viol
        raise Infeasible(triplet, first_viol or (), final=True)

    combos = list(itertools.islice(itertools.product(*cand), _COMBO_CAP)) or [()]
    deferred: list[tuple[VertexId, ...]] = []
    for combo in combos:
        try:
            ps = _try_combo(g, triplet, cips, combo, relaxed=False)
        except _Defer:
            deferred.append(combo)
            continue
        if ps is not None:
            return ps
    for combo in deferred:
        ps = _try_combo(g, triplet, cips, combo, relaxed=True)
        if ps is not None:
            return ps
    raise Infeasible(triplet, (), final=False)


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
    rot: dict[VertexId, list[VertexId]],
    outer: list[VertexId],
    arc: tuple[VertexId, ...],
    new_id: VertexId,
) -> list[VertexId]:
    """Add new_id outside the clockwise outer cycle over arc, in rot; returns the new outer cycle.

    The arc must be consecutive on the cycle, span an edge and repeat no
    vertex; then the step keeps a valid embedding, so a caller that
    attaches many vertices checks them all with one build at the end.
    """
    if new_id in rot:
        raise EmbeddingConflict(f"vertex id {new_id} already used")
    pos = {v: i for i, v in enumerate(outer)}
    if any(outer[(pos[u] + 1) % len(outer)] != v for u, v in zip(arc, arc[1:])):
        raise EmbeddingConflict("attachment arc must be consecutive on the boundary")
    if len(arc) < 2 or len(set(arc)) != len(arc):
        raise EmbeddingConflict("attachment arc needs two or more distinct vertices")
    rot[new_id] = list(reversed(arc))
    for v in arc:
        rot[v].insert(rot[v].index(outer[pos[v] - 1]) + 1, new_id)
    rest = outer[pos[arc[-1]]:] + outer[:pos[arc[-1]]]
    return [new_id] + rest[: rest.index(arc[0]) + 1]


def _attach_all(
    g: EmbeddedGraph, attachments: list[tuple[tuple[VertexId, ...], VertexId, str | None]]
) -> EmbeddedGraph:
    """g with a vertex added outside per (clockwise outer arc, id, label), built once."""
    rot = {v: list(nbrs) for v, nbrs in g.rotation.items()}
    outer, labels = list(g.outer), dict(g.labels)
    for arc, new_id, label in attachments:
        outer = attach_vertex(rot, outer, arc, new_id)
        if label is not None:
            labels[new_id] = label
    return EmbeddedGraph(
        rotation={v: tuple(ns) for v, ns in rot.items()}, outer=tuple(outer), labels=labels
    )


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
    over that arc first, in the same build.
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
    g = _attach_all(g, first + [
        (q1, ids["N"], "N"),
        ((ids["N"],) + q2, ids["E"], "E"),
        ((ids["E"],) + q3, ids["S"], "S"),
        ((ids["S"],) + q4 + (ids["N"],), ids["W"], "W"),
    ])
    return AugmentedGraph(base=g, ne=ne, poles=ids, pprime=tuple(qpaths))
