"""Wall sweeps over rectangle sets: adjacency, exact L tiling, the notch walk.

Shared by the planted-plan generator and the output checker.  Nothing
here imports lplan: the benchmark judges the program's plans with its
own geometry.

A rectangle is a tuple (x1, y1, x2, y2) with x1 < x2 and y1 < y2, y
growing upward.  Adjacency orientation follows lplan's naming: "H" for
two modules side by side across a vertical wall, "V" for two modules
stacked across a horizontal wall.
"""

from __future__ import annotations

import bisect
from collections import Counter, defaultdict


def _pair_walls(lower: dict, upper: dict, span) -> list[tuple[object, object]]:
    """Pairs (a, b) with a ending and b starting on one wall line, overlapping."""
    out = []
    for line, enders in lower.items():
        starters = upper.get(line)
        if not starters:
            continue
        enders = sorted(enders, key=lambda t: span(t[1])[0])
        starters = sorted(starters, key=lambda t: span(t[1])[0])
        i = j = 0
        while i < len(enders) and j < len(starters):
            a, ra = enders[i]
            b, rb = starters[j]
            a1, a2 = span(ra)
            b1, b2 = span(rb)
            if min(a2, b2) - max(a1, b1) > 0:
                out.append((a, b))
            if a2 <= b2:
                i += 1
            else:
                j += 1
    return out


def wall_pairs(rects: dict) -> tuple[list, list]:
    """Side-by-side pairs (left, right) and stacked pairs (below, above)."""
    ends_x, starts_x = defaultdict(list), defaultdict(list)
    ends_y, starts_y = defaultdict(list), defaultdict(list)
    for v, r in rects.items():
        ends_x[r[2]].append((v, r))
        starts_x[r[0]].append((v, r))
        ends_y[r[3]].append((v, r))
        starts_y[r[1]].append((v, r))
    side = _pair_walls(ends_x, starts_x, lambda r: (r[1], r[3]))
    stacked = _pair_walls(ends_y, starts_y, lambda r: (r[0], r[2]))
    return side, stacked


def adjacency(rects: dict) -> dict[frozenset, str]:
    """Every pair of modules sharing a wall of positive length, with its orientation."""
    side, stacked = wall_pairs(rects)
    out = {frozenset(p): "H" for p in side}
    out.update((frozenset(p), "V") for p in stacked)
    return out


def four_module_points(rects: dict) -> list[tuple[int, int]]:
    """Points that are a corner of four modules, i.e. where four modules meet."""
    corners = Counter()
    for x1, y1, x2, y2 in rects.values():
        corners.update(((x1, y1), (x1, y2), (x2, y1), (x2, y2)))
    return sorted(p for p, k in corners.items() if k >= 4)


def first_overlap(rects: dict):
    """Some pair of modules whose interiors overlap, or None."""
    events = []
    for v, (x1, y1, x2, y2) in rects.items():
        events.append((x1, 1, v))
        events.append((x2, 0, v))
    events.sort()  # at equal x, modules ending leave before modules starting
    starts: list[tuple[int, object]] = []  # active y-intervals, pairwise disjoint
    for _, kind, v in events:
        x1, y1, x2, y2 = rects[v]
        if kind == 0:
            starts.pop(bisect.bisect_left(starts, y1, key=lambda t: t[0]))
            continue
        k = bisect.bisect_left(starts, y1, key=lambda t: t[0])
        if k > 0 and rects[starts[k - 1][1]][3] > y1:
            return starts[k - 1][1], v
        if k < len(starts) and starts[k][0] < y2:
            return starts[k][1], v
        starts.insert(k, (y1, v))
    return None


class LShape:
    """An L: the box [0, w] x [0, h] minus the north-east notch above (nx, ny)."""

    def __init__(self, w: int, h: int, nx: int, ny: int):
        if not (0 < nx < w and 0 < ny < h):
            raise ValueError("the notch corner must lie strictly inside the box")
        self.w, self.h, self.nx, self.ny = w, h, nx, ny
        # Clockwise perimeter offsets of the six sides, from (0, h).
        lens = (nx, h - ny, w - nx, ny, w, h)
        self.offsets = [sum(lens[:i]) for i in range(6)]
        self.perimeter = sum(lens)

    @property
    def area(self) -> int:
        return self.w * self.h - (self.w - self.nx) * (self.h - self.ny)

    def outline(self) -> list[tuple[int, int]]:
        """Corner points clockwise from the top-left one."""
        w, h, nx, ny = self.w, self.h, self.nx, self.ny
        return [(0, h), (nx, h), (nx, ny), (w, ny), (w, 0), (0, 0)]

    def contains(self, r) -> bool:
        x1, y1, x2, y2 = r
        if x1 < 0 or y1 < 0 or x2 > self.w or y2 > self.h:
            return False
        return x2 <= self.nx or y2 <= self.ny

    def contacts(self, r) -> list[tuple[int, int]]:
        """Perimeter intervals, clockwise from (0, h), where r lines the outline."""
        x1, y1, x2, y2 = r
        w, h, nx, ny = self.w, self.h, self.nx, self.ny
        o = self.offsets
        out = []

        def add(a, b):
            if b > a:
                out.append((a, b))

        if y2 == h:
            add(o[0] + x1, o[0] + min(x2, nx))
        if x2 == nx and y2 > ny:
            add(o[1] + h - y2, o[1] + h - max(y1, ny))
        if y2 == ny and x2 > nx:
            add(o[2] + max(x1, nx) - nx, o[2] + x2 - nx)
        if x2 == w:
            add(o[3] + ny - min(y2, ny), o[3] + ny - y1)
        if y1 == 0:
            add(o[4] + w - x2, o[4] + w - x1)
        if x1 == 0:
            add(o[5] + y1, o[5] + y2)
        return sorted(out)

    def stretches(self, r) -> int:
        """Number of separate stretches of the outline that r lines."""
        ivs = self.contacts(r)
        if not ivs:
            return 0
        count = 1
        for (_, b), (c, _) in zip(ivs, ivs[1:]):
            if c > b:
                count += 1
        if count > 1 and ivs[0][0] == 0 and ivs[-1][1] == self.perimeter:
            count -= 1
        return count

    def outer_cycle(self, rects: dict) -> list:
        """Modules lining the outline, clockwise from (0, h), each listed once."""
        lined = []
        for v, r in rects.items():
            for a, _ in self.contacts(r):
                lined.append((a, v))
        lined.sort()
        cycle = []
        for _, v in lined:
            if not cycle or cycle[-1] != v:
                cycle.append(v)
        if len(cycle) > 1 and cycle[0] == cycle[-1]:
            cycle.pop()
        return cycle

    def notch_walk(self, rects: dict) -> list:
        """Modules on the wall above the notch corner (top down), then right of it."""
        nx, ny = self.nx, self.ny
        w1 = [v for v, r in rects.items() if r[2] == nx and r[3] > ny]
        w1.sort(key=lambda v: -rects[v][3])
        w2 = [v for v, r in rects.items() if r[3] == ny and r[2] > nx]
        w2.sort(key=lambda v: rects[v][0])
        return w1 + w2


def walk_bend(walk: list, adj: dict[frozenset, str]) -> tuple | None:
    """Three walk neighbours whose two contacts differ in orientation, or None.

    Raises ValueError when two walk neighbours share no wall.
    """
    orients = []
    for a, b in zip(walk, walk[1:]):
        o = adj.get(frozenset((a, b)))
        if o is None:
            raise ValueError(f"notch-walk neighbours {a} and {b} share no wall")
        orients.append(o)
    for i in range(len(orients) - 1):
        if orients[i] != orients[i + 1]:
            return walk[i], walk[i + 1], walk[i + 2]
    return None


def clockwise_rotation(rects: dict) -> dict[object, list]:
    """Neighbours of each module clockwise: above, right, below, left."""
    side, stacked = wall_pairs(rects)
    above, right, below, left = (defaultdict(list) for _ in range(4))
    for a, b in side:
        right[a].append(b)
        left[b].append(a)
    for a, b in stacked:
        above[a].append(b)
        below[b].append(a)
    rot = {}
    for v in rects:
        rot[v] = (
            sorted(above[v], key=lambda u: rects[u][0])
            + sorted(right[v], key=lambda u: -rects[u][1])
            + sorted(below[v], key=lambda u: -rects[u][0])
            + sorted(left[v], key=lambda u: rects[u][1])
        )
    return rot
