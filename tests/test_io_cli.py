"""Document round-trips and the command line contract."""

from __future__ import annotations

import json
from xml.etree import ElementTree

import pytest

from lplan import samples
from lplan.cli import main
from lplan.io import (
    ParseError,
    doc_to_graph,
    graph_to_doc,
    parse_graph,
    parse_plan,
    plan_to_doc,
    render_svg,
    serialize_graph,
    serialize_plan,
)
from lplan.pipeline import plan

ALL_GRAPHS = (
    samples.pentagon_with_pocket,
    samples.hexagon_ring,
    samples.four_cip_eleven_gon,
    samples.five_cip_thirteen_gon,
    samples.wheel4,
    samples.six_cip_twelve_gon,
    samples.two_fan_hexagon,
    samples.chorded_hexagon,
    samples.octagon_with_fan,
)


@pytest.mark.parametrize("make", ALL_GRAPHS, ids=lambda f: f.__name__)
def test_graph_documents_round_trip(make):
    g = make()
    g2 = parse_graph(serialize_graph(g))
    assert g2.rotation == g.rotation
    assert g2.outer == g.outer
    assert g2.labels == g.labels


def test_graph_doc_shape():
    doc = graph_to_doc(samples.pentagon_with_pocket())
    assert sorted(doc) == ["outer", "rotation", "vertices"]
    assert doc["vertices"][0] == {"id": 1, "label": "a"}
    assert doc["outer"] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize(
    "mutate, where",
    [
        (lambda d: d.pop("outer"), "document"),
        (lambda d: d.update(vertices=[]), "vertices"),
        (lambda d: d["vertices"].append({"id": 1}), "vertices[7].id"),
        (lambda d: d["vertices"].append({"id": "x"}), "vertices[7].id"),
        (lambda d: d["rotation"].update({"99": [1]}), "rotation.99"),
        (lambda d: d["rotation"].update({"1": [99]}), "rotation.1"),
        (lambda d: d["rotation"].pop("1"), "rotation"),
        (lambda d: d.update(outer=[1, 2, 99]), "outer"),
    ],
)
def test_graph_doc_errors(mutate, where):
    doc = graph_to_doc(samples.pentagon_with_pocket())
    mutate(doc)
    with pytest.raises(ParseError) as exc:
        doc_to_graph(doc)
    assert exc.value.where == where


@pytest.mark.parametrize(
    "nbrs, message",
    [
        ([2, True, 6], "expected a list of vertex ids"),
        ([2, 1.0, 6], "expected a list of vertex ids"),  # 1.0 == 1, a known id
        ([2, "5", 6], "expected a list of vertex ids"),
        ([99, 2, 98, 6], "unknown neighbours [99, 98]"),
    ],
)
def test_neighbour_list_errors(nbrs, message):
    doc = graph_to_doc(samples.pentagon_with_pocket())
    doc["rotation"]["1"] = nbrs
    with pytest.raises(ParseError) as exc:
        doc_to_graph(doc)
    assert (exc.value.where, exc.value.reason) == ("rotation.1", message)


def test_malformed_json_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_graph(b"{not json")
    with pytest.raises(ParseError):
        parse_plan(b"[1,2,3]")


def test_inconsistent_embedding_surfaces_as_parse_error():
    doc = graph_to_doc(samples.pentagon_with_pocket())
    doc["outer"] = [1, 2, 3]
    with pytest.raises(ParseError) as exc:
        doc_to_graph(doc)
    assert exc.value.where == "document"


def test_plan_document_shape_and_determinism():
    res = plan(samples.pentagon_with_pocket())
    doc = plan_to_doc(res)
    assert sorted(doc) == ["concave_corners", "meta", "modules", "outline", "triplet"]
    assert doc["triplet"] == ["a", "b", "c"]
    assert doc["concave_corners"] == [[3, 3]]
    assert all(set(m) == {"label", "x", "y", "w", "h"} for m in doc["modules"])
    assert "trace" not in doc["meta"]
    assert serialize_plan(doc) == serialize_plan(plan_to_doc(plan(samples.pentagon_with_pocket())))

    with_trace = plan_to_doc(res, include_trace=True)
    assert "trace" in with_trace["meta"]
    assert len(with_trace["meta"]["trace"]) == with_trace["meta"]["flip_trace_length"]


def test_plan_doc_refuses_failures():
    res = plan(samples.wheel4())
    with pytest.raises(ValueError):
        plan_to_doc(res)


def test_parsed_plan_rejects_bad_modules():
    good = plan_to_doc(plan(samples.pentagon_with_pocket()))
    data = serialize_plan(good)
    assert parse_plan(data)["modules"] == good["modules"]
    bad = json.loads(data)
    bad["modules"][0]["w"] = 0
    with pytest.raises(ParseError):
        parse_plan(serialize_plan(bad))
    bad = json.loads(data)
    del bad["modules"][0]["x"]
    with pytest.raises(ParseError):
        parse_plan(serialize_plan(bad))


def _set_outline(doc, value):
    doc["outline"] = value


def _set_corners(doc, value):
    doc["concave_corners"] = value


def _set_x(doc, value):
    doc["modules"][0]["x"] = value


def _set_label(doc, value):
    doc["modules"][0]["label"] = value


@pytest.mark.parametrize(
    "mutate, value, where",
    (
        (_set_outline, 5, "outline"),
        (_set_outline, [[0, 4], [3]], "outline"),
        (_set_outline, [[0, 4], [3, "4"]], "outline"),
        (_set_corners, [[1]], "concave_corners"),
        (_set_corners, [[3.0, 3]], "concave_corners"),
        (_set_x, True, "modules[0]"),
        (_set_x, 1.0, "modules[0]"),
        (_set_label, 7, "modules[0].label"),
        (_set_label, None, "modules[0].label"),
    ),
    ids=lambda x: getattr(x, "__name__", repr(x)),
)
def test_parsed_plan_rejects_malformed_points_and_fields(tmp_path, capsys, mutate, value, where):
    doc = plan_to_doc(plan(samples.pentagon_with_pocket()))
    mutate(doc, value)
    data = json.dumps(doc).encode()
    with pytest.raises(ParseError) as exc:
        parse_plan(data)
    assert exc.value.where == where
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    assert main(["render", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {where}: ")


def test_render_svg_escapes_labels():
    doc = plan_to_doc(plan(samples.pentagon_with_pocket()))
    doc["modules"][0]["label"] = "a<b&c>"
    svg = render_svg(parse_plan(serialize_plan(doc)))
    root = ElementTree.fromstring(svg)
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert sorted(texts) == sorted(m["label"] for m in doc["modules"])
    assert "a<b&c>" in texts


def test_render_svg_draws_every_module():
    res = plan(samples.pentagon_with_pocket())
    doc = plan_to_doc(res)
    svg = render_svg(doc).decode()
    assert svg.startswith("<svg ")
    assert svg.count("<rect ") == len(doc["modules"]) + 1  # background sheet
    assert svg.count("<circle ") == 1
    assert "<polygon " in svg
    for m in doc["modules"]:
        assert f">{m['label']}</text>" in svg
    assert render_svg(doc) == render_svg(doc)


# -- command line ---------------------------------------------------------------


def _write_graph(tmp_path, make, name="g.json"):
    p = tmp_path / name
    p.write_bytes(serialize_graph(make()))
    return str(p)


def test_cli_check_exit_codes(tmp_path, capsys):
    ok = _write_graph(tmp_path, samples.pentagon_with_pocket)
    assert main(["check", ok]) == 0
    out = capsys.readouterr().out
    assert "verdict: candidate" in out

    bad = _write_graph(tmp_path, samples.nested_triangle, "nested.json")
    assert main(["check", bad]) == 2
    out = capsys.readouterr().out
    assert "separating triangle" in out

    wheel = _write_graph(tmp_path, samples.wheel4, "wheel.json")
    assert main(["check", wheel]) == 2
    out = capsys.readouterr().out
    assert "no admissible corner triplet" in out

    six = _write_graph(tmp_path, samples.six_cip_twelve_gon, "six.json")
    assert main(["check", six]) == 2
    out = capsys.readouterr().out
    assert "more than five corner implying paths" in out


def test_cli_check_json_payload(tmp_path, capsys):
    ok = _write_graph(tmp_path, samples.pentagon_with_pocket)
    assert main(["--format", "json", "check", ok]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["candidate"] is True
    assert payload["ptpg"]["pass"] is True
    assert payload["cips"] == [[ "b", "c", "d"], ["d", "e", "a", "b"]]


def _quad_holes_and_pockets():
    """Two quadrilateral faces and two separating triangles, (1,2,6) and (3,4,8)."""
    coords = {
        1: (-3, 3), 2: (3, 3), 3: (3, -3), 4: (-3, -3),
        5: (-1, 1), 6: (1, 1), 7: (1, -1), 8: (-1, -1), 9: (1, 2.3), 10: (-1, -2.3),
    }
    edges = [
        (1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (6, 7), (7, 8), (8, 5),
        (1, 5), (2, 6), (3, 7), (4, 8), (1, 6), (3, 8), (4, 5),
        (9, 1), (9, 2), (9, 6), (10, 3), (10, 4), (10, 8),
    ]
    return samples.embed_by_coords(coords, edges, (1, 2, 3, 4))


@pytest.mark.parametrize(
    "make, faces, triangles",
    [
        (samples.nested_triangle, [], [[2, 4, 6]]),
        (_quad_holes_and_pockets, [[2, 6, 7, 3], [5, 8, 7, 6]], [[1, 2, 6], [3, 4, 8]]),
    ],
    ids=["nested_triangle", "quad_holes_and_pockets"],
)
def test_cli_check_json_golden(tmp_path, capsys, make, faces, triangles):
    path = _write_graph(tmp_path, make)
    assert main(["--format", "json", "check", path]) == 2
    want = {
        "candidate": False,
        "cips": [],
        "necessary": {"cip_count": 0, "pass": False, "triplets": []},
        "ptpg": {
            "biconnected": True,
            "nontriangular_faces": faces,
            "pass": False,
            "separating_triangles": triangles,
        },
        "shortcuts": [],
    }
    assert capsys.readouterr().out == json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_cli_plan_writes_a_document(tmp_path, capsys):
    src = _write_graph(tmp_path, samples.pentagon_with_pocket)
    out = tmp_path / "plan.json"
    assert main(["plan", src, "--out", str(out)]) == 0
    doc = parse_plan(out.read_bytes())
    assert doc["triplet"] == ["a", "b", "c"]
    text = capsys.readouterr().out
    assert "triplet: (a,b,c)" in text


def test_cli_plan_refusals_and_errors(tmp_path, capsys):
    five = _write_graph(tmp_path, samples.five_cip_thirteen_gon, "five.json")
    assert main(["plan", five, "--triplet", "2,3,4"]) == 3
    assert "refused" in capsys.readouterr().out

    nested = _write_graph(tmp_path, samples.nested_triangle, "nested.json")
    assert main(["plan", nested]) == 1
    assert "error" in capsys.readouterr().err

    assert main(["plan", str(tmp_path / "missing.json")]) == 1
    assert main(["plan", five, "--triplet", "1,2"]) == 1


def test_cli_render_and_gen(tmp_path):
    src = _write_graph(tmp_path, samples.pentagon_with_pocket)
    plan_path = tmp_path / "plan.json"
    svg_path = tmp_path / "plan.svg"
    assert main(["--format", "json", "plan", src, "--out", str(plan_path)]) == 0
    assert main(["render", str(plan_path), "--out", str(svg_path)]) == 0
    assert svg_path.read_bytes().startswith(b"<svg ")

    gen_path = tmp_path / "gen.json"
    assert main(["gen", "--n", "12", "--seed", "7", "--out", str(gen_path)]) == 0
    g = parse_graph(gen_path.read_bytes())
    assert len(g.vertices) == 12


@pytest.mark.parametrize("at_end", (False, True), ids=("start", "end"))
def test_duplicate_vertex_id_is_reported_at_its_second_occurrence(at_end):
    doc = graph_to_doc(samples.pentagon_with_pocket())
    verts = doc["vertices"]
    if at_end:
        verts.append(dict(verts[-1]))  # the last id again, as item 7
    else:
        verts.insert(1, dict(verts[0]))  # the first id again, as item 1
    where = f"vertices[{len(verts) - 1 if at_end else 1}].id"
    repeated = verts[-1]["id"] if at_end else verts[0]["id"]
    with pytest.raises(ParseError) as exc:
        doc_to_graph(doc)
    assert exc.value.where == where
    assert f"duplicate vertex id {repeated}" in str(exc.value)
