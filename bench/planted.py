"""Planted L-plans: random L-shaped dissections and their dual graphs.

A rectangular dissection with no point where four modules meet has a
properly triangulated planar graph as its dual (Kozminski & Kinnen
1985).  Cutting a random L into rectangles therefore yields graphs that
have a non-trivial L-shaped plan by construction, at any size, without
asking the program under test.  Only the standard library is used.
"""

from __future__ import annotations

import random

from geometry import LShape, adjacency, clockwise_rotation, four_module_points, walk_bend

SPAN = 1 << 20  # coordinates are drawn from a wide range so cuts rarely collide

# An 11-module L whose dual today's plan() refuses (see README.md).
# Module k: lower-left and upper-right corners.
FIXED_11 = {
    1: (0, 4, 2, 5), 2: (4, 3, 6, 5), 3: (3, 1, 5, 2), 4: (0, 3, 2, 4),
    5: (5, 1, 7, 2), 6: (0, 0, 1, 3), 7: (1, 0, 3, 3), 8: (3, 2, 7, 3),
    9: (2, 3, 4, 5), 10: (7, 0, 8, 3), 11: (3, 0, 7, 1),
}
FIXED_11_SHAPE = (8, 5, 6, 3)  # width, height, notch corner x, y


class Rejected(Exception):
    """This draw does not give a usable plan; the caller draws again."""


def _split(r, rng: random.Random):
    """Cut one rectangle into two pieces, or into a five-piece pinwheel."""
    x1, y1, x2, y2 = r
    w, h = x2 - x1, y2 - y1
    if min(w, h) >= 8 and rng.random() < 0.15:
        a, b = sorted(rng.sample(range(x1 + 1, x2), 2))
        c, d = sorted(rng.sample(range(y1 + 1, y2), 2))
        pieces = [(x1, d, b, y2), (b, c, x2, y2), (a, y1, x2, c), (x1, y1, a, d), (a, c, b, d)]
        ends = [(b, y2), (x2, c), (a, y1), (x1, d)]
        if rng.random() < 0.5:  # the other chirality, mirrored inside r
            m = lambda x: x1 + x2 - x
            pieces = [(m(p[2]), p[1], m(p[0]), p[3]) for p in pieces]
            ends = [(m(x), y) for x, y in ends]
        return pieces, ends
    # Prefer cutting across the longer side so modules stay chunky.
    vertical = rng.random() < (0.8 if w >= h else 0.2)
    if vertical and w >= 2:
        c = rng.randrange(x1 + 1, x2)
        return [(x1, y1, c, y2), (c, y1, x2, y2)], [(c, y1), (c, y2)]
    if h >= 2:
        c = rng.randrange(y1 + 1, y2)
        return [(x1, y1, x2, c), (x1, c, x2, y2)], [(x1, c), (x2, c)]
    return None


def planted_dissection(n: int, rng: random.Random) -> tuple[LShape, list]:
    """n rectangles tiling a random L, no four meeting at a point."""
    w = h = SPAN
    shape = LShape(w, h, rng.randrange(w // 4, 3 * w // 4), rng.randrange(h // 4, 3 * h // 4))
    nx, ny = shape.nx, shape.ny
    if rng.random() < 0.5:
        rects = [(0, ny, nx, h), (0, 0, w, ny)]
    else:
        rects = [(0, 0, nx, h), (nx, 0, w, ny)]
    corners = set()
    for r in rects:
        corners.update(((r[0], r[1]), (r[0], r[3]), (r[2], r[1]), (r[2], r[3])))
    misses = 0
    while len(rects) < n:
        if misses > 50 * n:
            raise Rejected("no admissible cut left")
        k = rng.randrange(len(rects))
        cut = _split(rects[k], rng)
        if cut is None or len(rects) - 1 + len(cut[0]) > n:
            misses += 1
            continue
        pieces, ends = cut
        # A cut ending on an existing corner would make four modules meet
        # there (or three at the notch corner).
        if any(p in corners for p in ends) or any(shape.stretches(p) > 1 for p in pieces):
            misses += 1
            continue
        rects[k:k + 1] = pieces
        for r in pieces:
            corners.update(((r[0], r[1]), (r[0], r[3]), (r[2], r[1]), (r[2], r[3])))
    return shape, rects


def dual_document(shape: LShape, rects: dict, labels: dict) -> dict:
    """Graph document of the dual: clockwise rotations and clockwise outer cycle."""
    if four_module_points(rects):
        raise Rejected("four modules meet at a point")
    outer = shape.outer_cycle(rects)
    if len(outer) != len(set(outer)):
        raise Rejected("a module lines the outline in separate stretches")
    rot = clockwise_rotation(rects)
    for a, b in zip(outer, outer[1:] + outer[:1]):
        if b not in rot[a]:
            raise Rejected("consecutive outline modules share no wall")
    return {
        "vertices": [{"id": v, "label": labels[v]} for v in sorted(rects)],
        "rotation": {str(v): rot[v] for v in sorted(rects)},
        "outer": outer,
    }


def nontrivial(shape: LShape, rects: dict) -> bool:
    """The paper's test: the notch-wall walk bends somewhere."""
    return walk_bend(shape.notch_walk(rects), adjacency(rects)) is not None


def planted_plan(n: int, rng: random.Random) -> tuple[LShape, dict, dict]:
    """A random non-trivial planted L-plan with n modules: (shape, rects, graph document)."""
    while True:
        try:
            shape, pieces = planted_dissection(n, rng)
        except Rejected:
            continue
        ids = list(range(1, n + 1))
        rng.shuffle(ids)
        rects = dict(zip(ids, pieces))
        if not nontrivial(shape, rects):
            continue
        try:
            return shape, rects, dual_document(shape, rects, {v: f"m{v}" for v in ids})
        except Rejected:
            continue


def planted_graph(n: int, rng: random.Random) -> dict:
    """Graph document of a random non-trivial planted L-plan with n modules."""
    return planted_plan(n, rng)[2]


def fixed_11_graph() -> dict:
    """Graph document of FIXED_11, with vertex ids equal to module numbers."""
    shape = LShape(*FIXED_11_SHAPE)
    return dual_document(shape, FIXED_11, {v: f"m{v}" for v in FIXED_11})
