"""JSON documents for graphs and plans, and the SVG renderer.

One human-writable format per object.  A graph document holds the
vertex list, the clockwise rotation per vertex, and the clockwise
outer cycle; a plan document holds the module rectangles plus the
outline and corner data needed to redraw the plan without the solver.
Both are written byte for byte as json.dumps(doc, indent=2,
sort_keys=True) writes them, by a writer of their own (_dump): with an
indent, json.dumps runs its pure-Python encoder.  A list of records,
such as the modules or the outline points, is written through one
%-template built from its first member and filled per member
(_records).  A graph document is checked once: the reader checks the
vertex ids, the labels, the rotation keys and that the neighbours and
the outline come as lists, whole, by exact types and set operations;
the build checks every neighbour and outline vertex.  Only a document
that fails either is read again, part by part in document order, to
name its first defect.
"""

from __future__ import annotations

import json
import re
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import contains, itemgetter

from .graph import EmbeddedGraph, InconsistentEmbedding, VertexId
from .layout import plan_outline
from .pipeline import PlanResult


_KEY = re.compile(r"[+-]?[0-9]+")  # a whole key: int() also takes " 7", "1_0" and non-ASCII digits


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
    json does.  A list of records is written through one template
    (_records).  Anything else, and a dict with a key that is not a
    string, is left to json.dumps, indented to fit.
    """
    t = type(x)
    if t is str:
        out.append(_quote(x))
    elif t is int:
        out.append(int.__repr__(x))
    elif t is list and x:
        inner = nl + "  "
        rows = _records(x, inner)
        if rows is None:
            _items(x, None, out, "[", nl)
        else:
            out.append("[" + inner + ("," + inner).join(rows))
        out.append(nl + "]")
    elif t is dict and x and {str}.issuperset(map(type, x)):
        keys = sorted(x)
        _items([x[k] for k in keys], keys, out, "{", nl)
        out.append(nl + "}")
    else:
        out.append(json.dumps(x, indent=2, sort_keys=True).replace("\n", nl))


def _records(x: list, nl: str) -> list[str] | None:
    """The members of x written one per string, if x is a list of records, else None.

    Records are dicts with the same string keys, or lists of one length,
    whose values at each key or index are all ints or all strings, each of
    its exact type.  One %-template, built from the first member, writes
    them all: %d for ints, as int.__repr__ writes them, and %s for strings
    quoted first.  Every member is checked before any is written.
    """
    first = x[0]
    t = type(first)
    if t is not dict and t is not list or not first or not {t}.issuperset(map(type, x)):
        return None
    if t is list:
        if {len(first)} != set(map(len, x)):
            return None
        keys, heads = range(len(first)), [""] * len(first)
    else:
        if not {str}.issuperset(map(type, first)) or not all(map(first.keys().__eq__, map(dict.keys, x))):
            return None
        keys = sorted(first)
        heads = [_quote(k).replace("%", "%%") + ": " for k in keys]
    columns, fields = [], []
    for k, head in zip(keys, heads):
        column = list(map(itemgetter(k), x))
        kinds = set(map(type, column))
        if kinds == {int}:
            fields.append(head + "%d")
        elif kinds == {str}:
            fields.append(head + "%s")
            column = list(map(_quote, column))
        else:
            return None
        columns.append(column)
    inner = nl + "  "
    brackets = "[]" if t is list else "{}"
    template = brackets[0] + inner + ("," + inner).join(fields) + nl + brackets[1]
    return list(map(template.__mod__, zip(*columns)))


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


def _parts_whole(items: list, rot: object, outer: object) -> tuple | None:
    """The rotation, outline and labels, if the ids, labels, keys and lists pass whole, else None.

    Every neighbour, and every vertex of the outline, is left to the build.
    """
    if not (isinstance(rot, dict) and isinstance(outer, list)):
        return None
    if {dict}.issuperset(map(type, items)) and all(map(contains, items, repeat("id"))):
        ids = list(map(itemgetter("id"), items))
        if {int}.issuperset(map(type, ids)):
            known = set(ids)
            has = list(map(contains, items, repeat("label")))
            labels = dict(zip(compress(ids, has), map(itemgetter("label"), compress(items, has))))
            try:
                keys = list(map(int, rot))
                digits = "".join(rot)
            except (TypeError, ValueError):
                return None
            if not (digits.isascii() and digits.isdigit()):  # a signed key is left to _read_parts
                return None
            nbrs = rot.values()
            if len(known) == len(ids) == len(keys) == len(set(keys)) and known.issuperset(keys):
                if {str}.issuperset(map(type, labels.values())) and {list}.issuperset(map(type, nbrs)):
                    return dict(zip(keys, map(tuple, nbrs))), tuple(outer), labels
    return None


def _read_parts(items: list, rot: object, outer: object) -> tuple:
    """The rotation, outline and labels, read item by item: raises ParseError at the first defect."""
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
    if not isinstance(rot, dict):
        raise ParseError("rotation", "expected an object keyed by vertex id")
    rotation: dict[VertexId, tuple[VertexId, ...]] = {}
    for key, nbrs in rot.items():
        where = f"rotation.{key}"
        if type(key) is not str or not _KEY.fullmatch(key):
            raise ParseError(where, "keys must be integer vertex ids")
        v = int(key)
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
    if len(rotation) != len(known):
        missing = [v for v in ids if v not in rotation]
        raise ParseError("rotation", f"no neighbour list for vertices {missing}")
    if not isinstance(outer, list) or not {int}.issuperset(map(type, outer)):
        raise ParseError("outer", "expected a list of vertex ids")
    if not known.issuperset(outer):
        raise ParseError("outer", f"unknown vertices {[u for u in outer if u not in known]}")
    return rotation, tuple(outer), labels


def doc_to_graph(doc: dict) -> EmbeddedGraph:
    if not isinstance(doc, dict):
        raise ParseError("document", "expected a JSON object")
    for key in ("vertices", "rotation", "outer"):
        if key not in doc:
            raise ParseError("document", f"missing field {key!r}")
    items, rot, outer = doc["vertices"], doc["rotation"], doc["outer"]
    if not isinstance(items, list) or not items:
        raise ParseError("vertices", "expected a non-empty list")
    rotation, cycle, labels = _parts_whole(items, rot, outer) or _read_parts(items, rot, outer)
    try:
        return EmbeddedGraph(rotation=rotation, outer=cycle, labels=labels)
    except InconsistentEmbedding as exc:
        _read_parts(items, rot, outer)  # a neighbour or outline defect the build met first is named so
        raise ParseError("document", str(exc)) from exc


def _load(data: bytes) -> object:
    """The JSON value data holds, in UTF-8; raises ParseError where json cannot read it.

    ValueError covers undecodable bytes, malformed JSON and an integer
    past the interpreter's digit limit; RecursionError, nesting deeper
    than the stack allows.
    """
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:
        raise ParseError("document", f"not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ParseError("document", "nested too deeply to read") from exc


def parse_graph(data: bytes) -> EmbeddedGraph:
    return doc_to_graph(_load(data))


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


# RFC 8259: integers of smaller magnitude read exactly in every JSON reader.
# Past it, render_svg's arithmetic can outgrow the interpreter's digit limit.
_EXACT = 2**53
_INEXACT = "integers must lie strictly between -2**53 and 2**53"


def parse_plan(data: bytes) -> dict:
    doc = _load(data)
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
        for k in ("x", "y", "w", "h"):
            if abs(m[k]) >= _EXACT:
                raise ParseError(f"{where}.{k}", _INEXACT)
        if m["w"] < 1 or m["h"] < 1:
            raise ParseError(where, "module sides must be positive")
    for key in ("outline", "concave_corners"):
        points = doc.setdefault(key, [])
        if not isinstance(points, list) or not all(
            type(p) is list and len(p) == 2 and {int}.issuperset(map(type, p)) for p in points
        ):
            raise ParseError(key, "expected a list of [x, y] integer points")
        for i, p in enumerate(points):
            if max(map(abs, p)) >= _EXACT:
                raise ParseError(f"{key}[{i}]", _INEXACT)
    return doc


# -- SVG ----------------------------------------------------------------------


_SCALE, _STROKE, _MARGIN, _FONT_SIZE = 40, 1, 20, 14
_FILL, _LINE, _MARKER = "#f2ede3", "#20242b", "#c0392b"

# character data in XML; xml.sax.saxutils.escape would import urllib and ssl
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def render_svg(doc: dict) -> bytes:
    mods = doc["modules"]
    w_units = max(m["x"] + m["w"] for m in mods)
    h_units = max(m["y"] + m["h"] for m in mods)
    px = lambda x: _MARGIN + x * _SCALE
    py = lambda y: _MARGIN + (h_units - y) * _SCALE
    width = 2 * _MARGIN + w_units * _SCALE
    height = 2 * _MARGIN + h_units * _SCALE
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    out.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>')
    for m in sorted(mods, key=lambda m: (m["x"], m["y"], m["label"])):
        x, y = px(m["x"]), py(m["y"] + m["h"])
        out.append(
            f'<rect x="{x}" y="{y}" width="{m["w"] * _SCALE}" height="{m["h"] * _SCALE}" '
            f'fill="{_FILL}" stroke="{_LINE}" stroke-width="{_STROKE}"/>'
        )
        cx = px(m["x"]) + m["w"] * _SCALE // 2
        cy = py(m["y"]) - m["h"] * _SCALE // 2 + _FONT_SIZE // 2
        out.append(
            f'<text x="{cx}" y="{cy}" font-family="sans-serif" font-size="{_FONT_SIZE}" '
            f'text-anchor="middle" fill="{_LINE}">{m["label"].translate(_XML_TEXT)}</text>'
        )
    if doc.get("outline"):
        pts = " ".join(f"{px(x)},{py(y)}" for x, y in doc["outline"])
        out.append(
            f'<polygon points="{pts}" fill="none" stroke="{_LINE}" '
            f'stroke-width="{3 * _STROKE}"/>'
        )
    for x, y in doc.get("concave_corners", []):
        out.append(
            f'<circle cx="{px(x)}" cy="{py(y)}" r="{_SCALE // 8}" fill="{_MARKER}"/>'
        )
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode()
