"""Independent checks of plan documents and refusals.

A plan document passes when its modules are integer rectangles with
positive sides that tile its outline exactly; the outline is an L with
one concave corner, given clockwise from its top-left corner and equal
to concave_corners; the wall adjacency found by the benchmark's own
sweep equals the input graph's edge set; no four modules meet at a
point; the notch-wall walk bends; and every input label is kept.  A
refusal passes when it matches the certificate the inputs were made
with.  Nothing here imports lplan.
"""

from __future__ import annotations

import json

from geometry import LShape, adjacency, first_overlap, four_module_points, walk_bend


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _l_shape(outline):
    """The L of an outline, moved to the origin with its notch turned north-east.

    Returns the shape, the origin offset, whether x and y were mirrored,
    and the concave corner in the outline's own coordinates.
    """
    pts = [tuple(p) for p in outline]
    if len(pts) != 6 or not all(len(p) == 2 and _is_int(p[0]) and _is_int(p[1]) for p in pts):
        raise ValueError(f"outline {outline} is not six integer points")
    turns = []
    for i in range(6):
        (ax, ay), (bx, by), (cx, cy) = pts[i - 1], pts[i], pts[(i + 1) % 6]
        if (ax != bx) == (ay != by) or (bx != cx) == (by != cy):
            raise ValueError(f"outline {outline} is not axis-parallel")
        turns.append((bx - ax) * (cy - by) - (by - ay) * (cx - bx))
    if sorted(t > 0 for t in turns) != [False] * 5 + [True]:
        raise ValueError(f"outline {outline} is not a clockwise L")
    reflex = pts[turns.index(next(t for t in turns if t > 0))]
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    missing = [c for c in ((x0, y0), (x0, y1), (x1, y0), (x1, y1)) if c not in pts]
    if len(missing) != 1:
        raise ValueError(f"outline {outline} is not an L")
    flip_x, flip_y = missing[0][0] == x0, missing[0][1] == y0
    nx = (x1 - reflex[0]) if flip_x else (reflex[0] - x0)
    ny = (y1 - reflex[1]) if flip_y else (reflex[1] - y0)
    return LShape(x1 - x0, y1 - y0, nx, ny), (x0, y0), flip_x, flip_y, reflex


def check_plan(data: bytes, graph: dict) -> str | None:
    """First defect of a plan document for the input graph, or None."""
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return f"plan is not JSON: {exc}"
    ids = {item["label"]: item["id"] for item in graph["vertices"]}
    rects = {}
    for m in doc.get("modules", ()):
        vals = [m.get(k) for k in ("x", "y", "w", "h")]
        if not all(_is_int(x) for x in vals) or vals[2] < 1 or vals[3] < 1:
            return f"module {m} is not an integer rectangle with positive sides"
        if m.get("label") not in ids or ids[m["label"]] in rects:
            return f"module label {m.get('label')!r} is unknown or repeated"
        x, y, w, h = vals
        rects[ids[m["label"]]] = (x, y, x + w, y + h)
    if len(rects) != len(ids):
        return f"{len(ids) - len(rects)} input labels have no module"
    outline = doc.get("outline", [])
    try:
        shape, (ox, oy), flip_x, flip_y, reflex = _l_shape(outline)
    except ValueError as exc:
        return str(exc)
    if list(outline[0]) != list(min(outline, key=lambda p: (p[0], -p[1]))):
        return "outline does not start at its top-left corner"
    corners = [list(p) for p in doc.get("concave_corners", [])]
    if corners != [list(reflex)]:
        return f"concave_corners {corners} differ from the outline's concave corner {reflex}"

    def place(r):
        x1, y1, x2, y2 = r[0] - ox, r[1] - oy, r[2] - ox, r[3] - oy
        if flip_x:
            x1, x2 = shape.w - x2, shape.w - x1
        if flip_y:
            y1, y2 = shape.h - y2, shape.h - y1
        return (x1, y1, x2, y2)

    rects = {v: place(r) for v, r in rects.items()}
    outside = [v for v, r in rects.items() if not shape.contains(r)]
    if outside:
        return f"modules {sorted(outside)[:4]} leave the outline"
    pair = first_overlap(rects)
    if pair:
        return f"modules {pair} overlap"
    covered = sum((r[2] - r[0]) * (r[3] - r[1]) for r in rects.values())
    if covered != shape.area:
        return f"modules cover {covered} of the outline's {shape.area} cells"
    points = four_module_points(rects)
    if points:
        return f"four modules meet at {points[:3]}"
    adj = adjacency(rects)
    want = {frozenset((int(v), u)) for v, nbrs in graph["rotation"].items() for u in nbrs}
    if set(adj) != want:
        missing = [tuple(sorted(e)) for e in want - set(adj)][:4]
        extra = [tuple(sorted(e)) for e in set(adj) - want][:4]
        return f"wall adjacency differs from the input (missing {missing}, extra {extra})"
    try:
        bend = walk_bend(shape.notch_walk(rects), adj)
    except ValueError as exc:
        return str(exc)
    if bend is None:
        return "the notch-wall walk does not bend: the L is trivial"
    return None


def check_refusal(outcome: str, kind: str | None, cips: int, entry: dict) -> str | None:
    """First mismatch between an answer and a too-many-cips certificate, or None."""
    if (outcome, kind, cips) != ("TooManyCips", "too-many-cips", entry["cips"]):
        return f"gave {outcome}/{kind} with {cips} CIPs, certificate says TooManyCips with {entry['cips']}"
    return None
