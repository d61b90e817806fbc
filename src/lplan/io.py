"""JSON documents for graphs and plans, and the SVG renderer.

One human-writable format per object.  A graph document holds the
vertex list, the clockwise rotation per vertex, and the clockwise
outer cycle; a plan document holds the module rectangles plus the
outline and corner data needed to redraw the plan without the solver.
Both are written byte for byte as json.dumps(doc, indent=2,
sort_keys=True) writes them, by a writer of their own (_dump): with an
indent, json.dumps runs its pure-Python encoder.  Each part of a graph
document is checked whole, by exact types and set operations; only a
part that fails is read again item by item, to name its first defect.
"""

from __future__ import annotations

import json
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import contains, itemgetter
from typing import NamedTuple

from .graph import EmbeddedGraph, InconsistentEmbedding, VertexId
from .layout import FloorPlan, plan_outline
from .pipeline import PlanResult


class ParseError(ValueError):
    def __init__(self, where: str, reason: str):
        super().__init__(f"{where}: {reason}")
        self.where = where
        self.reason = reason


# -- writing ------------------------------------------------------------------


def _dump(x: object, out: list[str], nl: str) -> None:
    """Append x as json.dumps(x, indent=2, sort_keys=True) writes it, nl ending each line.

    With an indent set, json.dumps runs its pure-Python encoder; this
    writer dispatches on exact types instead.  Strings go through the
    encoder's own quoting function and ints through int.__repr__, as
    json does.  Anything else, and a dict with a key that is not a
    string, is left to json.dumps, indented to fit.
    """
    t = type(x)
    if t is str:
        out.append(_quote(x))
    elif t is int:
        out.append(int.__repr__(x))
    elif t is list and x:
        _items(x, None, out, "[", nl)
        out.append(nl + "]")
    elif t is dict and x and {str}.issuperset(map(type, x)):
        keys = sorted(x)
        _items([x[k] for k in keys], keys, out, "{", nl)
        out.append(nl + "}")
    else:
        out.append(json.dumps(x, indent=2, sort_keys=True).replace("\n", nl))


def _items(values: list, keys: list[str] | None, out: list[str], opening: str, nl: str) -> None:
    """The members of a list or, with keys, of a dict, one to a line after opening."""
    inner = nl + "  "
    sep = opening + inner
    for i, v in enumerate(values):
        head = sep if keys is None else sep + _quote(keys[i]) + ": "
        t = type(v)
        if t is int:
            out.append(head + int.__repr__(v))
        elif t is str:
            out.append(head + _quote(v))
        else:
            out.append(head)
            _dump(v, out, inner)
        sep = "," + inner


def _document(doc: object) -> bytes:
    """doc as json.dumps(doc, indent=2, sort_keys=True) plus a newline, in UTF-8."""
    out: list[str] = []
    _dump(doc, out, "\n")
    out.append("\n")
    return "".join(out).encode()


# -- graph documents ----------------------------------------------------------


def graph_to_doc(g: EmbeddedGraph) -> dict:
    vertices = []
    for v in g.vertices:
        item: dict = {"id": v}
        if v in g.labels:
            item["label"] = g.labels[v]
        vertices.append(item)
    return {
        "vertices": vertices,
        "rotation": {str(v): list(g.rotation[v]) for v in g.vertices},
        "outer": list(g.outer),
    }


def _vertices_whole(items: list) -> tuple[list[VertexId], dict[VertexId, str]] | None:
    """The ids and labels of a vertex list that passes every check whole, else None."""
    if {dict}.issuperset(map(type, items)) and all(map(contains, items, repeat("id"))):
        ids = list(map(itemgetter("id"), items))
        if {int}.issuperset(map(type, ids)) and len(set(ids)) == len(ids):
            has = list(map(contains, items, repeat("label")))
            labels = dict(zip(compress(ids, has), map(itemgetter("label"), compress(items, has))))
            if {str}.issuperset(map(type, labels.values())):
                return ids, labels
    return None


def _rotation_whole(rot: dict, known: set[VertexId]) -> dict[VertexId, tuple[VertexId, ...]] | None:
    """The neighbour lists, if they pass every check whole, else None."""
    try:
        keys = list(map(int, rot))
    except (TypeError, ValueError):
        return None
    nbrs = rot.values()
    if known.issuperset(keys) and len(set(keys)) == len(keys) and {list}.issuperset(map(type, nbrs)):
        flat = list(chain.from_iterable(nbrs))
        if {int}.issuperset(map(type, flat)) and known.issuperset(flat):
            return dict(zip(keys, map(tuple, nbrs)))
    return None


def _read_vertices(items: list) -> tuple[list[VertexId], dict[VertexId, str]]:
    """The ids and labels of a vertex list, item by item: raises ParseError at the first defect."""
    labels: dict[VertexId, str] = {}
    ids: list[VertexId] = []
    known: set[VertexId] = set()
    for i, item in enumerate(items):
        where = f"vertices[{i}]"
        if not isinstance(item, dict) or "id" not in item:
            raise ParseError(where, "expected an object with an 'id'")
        v = item["id"]
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParseError(f"{where}.id", "vertex ids must be integers")
        if v in known:
            raise ParseError(f"{where}.id", f"duplicate vertex id {v}")
        ids.append(v)
        known.add(v)
        if "label" in item:
            if not isinstance(item["label"], str):
                raise ParseError(f"{where}.label", "labels must be strings")
            labels[v] = item["label"]
    return ids, labels


def _read_rotation(rot: dict, known: set[VertexId]) -> dict[VertexId, tuple[VertexId, ...]]:
    """The neighbour lists, item by item: raises ParseError at the first defect."""
    rotation: dict[VertexId, tuple[VertexId, ...]] = {}
    for key, nbrs in rot.items():
        where = f"rotation.{key}"
        try:
            v = int(key)
        except ValueError:
            raise ParseError(where, "keys must be integer vertex ids") from None
        if v not in known:
            raise ParseError(where, f"unknown vertex {v}")
        if v in rotation:
            raise ParseError(where, f"duplicate neighbour list for vertex {v}")
        # type() is exact: it rejects True and 1.0, which equal known ids
        if not isinstance(nbrs, list) or not {int}.issuperset(map(type, nbrs)):
            raise ParseError(where, "expected a list of vertex ids")
        if not known.issuperset(nbrs):
            raise ParseError(where, f"unknown neighbours {[u for u in nbrs if u not in known]}")
        rotation[v] = tuple(nbrs)
    return rotation


def doc_to_graph(doc: dict) -> EmbeddedGraph:
    if not isinstance(doc, dict):
        raise ParseError("document", "expected a JSON object")
    for key in ("vertices", "rotation", "outer"):
        if key not in doc:
            raise ParseError("document", f"missing field {key!r}")
    items = doc["vertices"]
    if not isinstance(items, list) or not items:
        raise ParseError("vertices", "expected a non-empty list")
    ids, labels = _vertices_whole(items) or _read_vertices(items)
    known = set(ids)
    rot = doc["rotation"]
    if not isinstance(rot, dict):
        raise ParseError("rotation", "expected an object keyed by vertex id")
    rotation = _rotation_whole(rot, known) or _read_rotation(rot, known)
    if len(rotation) != len(known):
        missing = [v for v in ids if v not in rotation]
        raise ParseError("rotation", f"no neighbour list for vertices {missing}")
    if not isinstance(doc["outer"], list) or not {int}.issuperset(map(type, doc["outer"])):
        raise ParseError("outer", "expected a list of vertex ids")
    if not known.issuperset(doc["outer"]):
        raise ParseError("outer", f"unknown vertices {[u for u in doc['outer'] if u not in known]}")
    try:
        return EmbeddedGraph(rotation=rotation, outer=tuple(doc["outer"]), labels=labels)
    except InconsistentEmbedding as exc:
        raise ParseError("document", str(exc)) from exc


def parse_graph(data: bytes) -> EmbeddedGraph:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError("document", f"not valid JSON ({exc})") from exc
    return doc_to_graph(doc)


def serialize_graph(g: EmbeddedGraph) -> bytes:
    return _document(graph_to_doc(g))


# -- plan documents -----------------------------------------------------------


def _name(g: EmbeddedGraph, v: VertexId) -> str:
    return g.labels.get(v, str(v))


def plan_to_doc(result: PlanResult, include_trace: bool = False) -> dict:
    if not result.ok:
        raise ValueError("only successful results serialize to a plan document")
    g = result.graph
    fp = result.plan
    assert fp is not None and result.profile is not None and result.pathset is not None
    modules = []
    for v in sorted(fp.rects):
        rc = fp.rects[v]
        modules.append(
            {"label": _name(g, v), "x": rc.x1, "y": rc.y1, "w": rc.width, "h": rc.height}
        )
    trace = result.normalize.trace if result.normalize else ()
    doc = {
        "modules": modules,
        "outline": [list(p) for p in plan_outline(fp)],
        "concave_corners": [[result.profile.nx, result.profile.ny]],
        "triplet": [_name(g, v) for v in result.triplet],
        "meta": {
            "triplet": [_name(g, v) for v in result.triplet],
            "path_set": [[_name(g, v) for v in p] for p in result.pathset.paths],
            "flip_trace_length": len(trace),
        },
    }
    if include_trace:
        doc["meta"]["trace"] = [[rec.action, list(map(str, rec.detail))] for rec in trace]
    return doc


def serialize_plan(doc: dict) -> bytes:
    return _document(doc)


def parse_plan(data: bytes) -> dict:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError("document", f"not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError("document", "expected a JSON object")
    if "modules" not in doc or not isinstance(doc["modules"], list) or not doc["modules"]:
        raise ParseError("modules", "expected a non-empty list")
    for i, m in enumerate(doc["modules"]):
        where = f"modules[{i}]"
        if not isinstance(m, dict):
            raise ParseError(where, "expected an object")
        for key in ("label", "x", "y", "w", "h"):
            if key not in m:
                raise ParseError(where, f"missing field {key!r}")
        if not isinstance(m["label"], str):
            raise ParseError(f"{where}.label", "labels must be strings")
        # type() is exact: it rejects True and 1.0
        if not {int}.issuperset(type(m[k]) for k in ("x", "y", "w", "h")):
            raise ParseError(where, "coordinates must be integers")
        if m["w"] < 1 or m["h"] < 1:
            raise ParseError(where, "module sides must be positive")
    for key in ("outline", "concave_corners"):
        points = doc.setdefault(key, [])
        if not isinstance(points, list) or not all(
            type(p) is list and len(p) == 2 and {int}.issuperset(map(type, p)) for p in points
        ):
            raise ParseError(key, "expected a list of [x, y] integer points")
    return doc


# -- SVG ----------------------------------------------------------------------


class SvgStyle(NamedTuple):
    scale: int = 40
    stroke: int = 1
    margin: int = 20
    font_size: int = 14
    fill: str = "#f2ede3"
    line: str = "#20242b"
    marker: str = "#c0392b"


# character data in XML; xml.sax.saxutils.escape would import urllib and ssl
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def render_svg(doc: dict, style: SvgStyle | None = None) -> bytes:
    st = style or SvgStyle()
    mods = doc["modules"]
    w_units = max(m["x"] + m["w"] for m in mods)
    h_units = max(m["y"] + m["h"] for m in mods)
    px = lambda x: st.margin + x * st.scale
    py = lambda y: st.margin + (h_units - y) * st.scale
    width = 2 * st.margin + w_units * st.scale
    height = 2 * st.margin + h_units * st.scale
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    out.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>')
    for m in sorted(mods, key=lambda m: (m["x"], m["y"], m["label"])):
        x, y = px(m["x"]), py(m["y"] + m["h"])
        out.append(
            f'<rect x="{x}" y="{y}" width="{m["w"] * st.scale}" height="{m["h"] * st.scale}" '
            f'fill="{st.fill}" stroke="{st.line}" stroke-width="{st.stroke}"/>'
        )
        cx = px(m["x"]) + m["w"] * st.scale // 2
        cy = py(m["y"]) - m["h"] * st.scale // 2 + st.font_size // 2
        out.append(
            f'<text x="{cx}" y="{cy}" font-family="sans-serif" font-size="{st.font_size}" '
            f'text-anchor="middle" fill="{st.line}">{m["label"].translate(_XML_TEXT)}</text>'
        )
    if doc.get("outline"):
        pts = " ".join(f"{px(x)},{py(y)}" for x, y in doc["outline"])
        out.append(
            f'<polygon points="{pts}" fill="none" stroke="{st.line}" '
            f'stroke-width="{3 * st.stroke}"/>'
        )
    for x, y in doc.get("concave_corners", []):
        out.append(
            f'<circle cx="{px(x)}" cy="{py(y)}" r="{st.scale // 8}" fill="{st.marker}"/>'
        )
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode()
