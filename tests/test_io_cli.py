"""Document round-trips and the command line contract."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
from xml.etree import ElementTree

import pytest
from hypothesis import example, given, settings, strategies as st
from test_graph import k4

import samples
from lplan.cli import main
from lplan.gen import GenerationFailed, GenSpec, generate_ptpg
from lplan.graph import EmbeddedGraph
from lplan.io import (
    ParseError,
    _document,
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
    # json.loads raises RecursionError on deep nesting, and ValueError on an
    # integer past the interpreter's digit limit: both are document errors
    digits = b'{"vertices": [{"id": ' + b"1" * 5000 + b"}]}"
    for data in (b"[" * 5000 + b"]" * 5000, b"[" * 100_000, digits):
        for read in (parse_graph, parse_plan):
            with pytest.raises(ParseError) as exc:
                read(data)
            assert exc.value.where == "document"


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


def _set_h(doc, value):
    doc["modules"][1]["h"] = value


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
        # past RFC 8259's exact range; render_svg used to raise on 4300 digits
        (_set_x, 2**53, "modules[0].x"),
        (_set_x, -(2**53), "modules[0].x"),
        (_set_x, int("9" * 4300), "modules[0].x"),
        (_set_h, 2**53, "modules[1].h"),
        (_set_outline, [[0, 0], [0, -(2**53)]], "outline[1]"),
        (_set_corners, [[2**53, 0]], "concave_corners[0]"),
    ),
    ids=lambda x: getattr(x, "__name__", repr(x) if len(repr(x)) < 40 else "long"),
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


def _lettered_nested_triangle():
    g = samples.nested_triangle()
    return EmbeddedGraph(rotation=g.rotation, outer=g.outer, labels=dict(zip(range(1, 8), "abcdefg")))


@pytest.mark.parametrize(
    "make, faces, triangles",
    [
        (samples.nested_triangle, [], [["2", "4", "6"]]),
        (_lettered_nested_triangle, [], [["b", "d", "f"]]),
        (_quad_holes_and_pockets, [["2", "6", "7", "3"], ["5", "8", "7", "6"]], [["1", "2", "6"], ["3", "4", "8"]]),
    ],
    ids=["nested_triangle", "lettered_nested_triangle", "quad_holes_and_pockets"],
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


def _check_lists_chords(tmp_path, capsys, g) -> int:
    """check lists each chord of g once, by label, in g.chords order; returns how many."""
    path = tmp_path / "g.json"
    path.write_bytes(serialize_graph(g))
    want = [[g.labels.get(v, str(v)) for v in e] for e in g.chords]
    main(["--format", "json", "check", str(path)])
    assert json.loads(capsys.readouterr().out)["shortcuts"] == want
    main(["check", str(path)])
    lines = capsys.readouterr().out.splitlines()
    names = " ".join("(" + ",".join(e) + ")" for e in want)
    assert [s for s in lines if s.startswith("shortcuts")] == [f"shortcuts ({len(want)}): {names}"]
    return len(want)


def test_cli_check_lists_the_chords_as_shortcuts_on_samples(tmp_path, capsys):
    makes = ALL_GRAPHS + (samples.nested_triangle,)
    counts = [_check_lists_chords(tmp_path, capsys, make()) for make in makes]
    assert min(counts) == 0 and max(counts) > 1


def test_cli_check_lists_the_chords_as_shortcuts_on_generated_graphs(tmp_path, capsys):
    counts = []
    for n in range(6, 61, 6):
        for seed in range(3):
            for target in (None, 2, 4, 6):
                try:
                    g = generate_ptpg(GenSpec(n=n, seed=seed, cip_target=target))
                except (GenerationFailed, ValueError):  # no graph of this size has that many CIPs
                    continue
                counts.append(_check_lists_chords(tmp_path, capsys, g))
    assert len(counts) > 100 and max(counts) > 5


def test_cli_plan_writes_a_document(tmp_path, capsys):
    src = _write_graph(tmp_path, samples.pentagon_with_pocket)
    out = tmp_path / "plan.json"
    assert main(["plan", src, "--out", str(out)]) == 0
    doc = parse_plan(out.read_bytes())
    assert doc["triplet"] == ["a", "b", "c"]
    text = capsys.readouterr().out
    assert "triplet: (a,b,c)" in text


def test_cli_plan_refusals_and_errors(tmp_path, capsys):
    five = _write_graph(tmp_path, samples.five_cip_refusal, "five.json")
    assert main(["plan", five, "--triplet", "3,9,13"]) == 3
    assert "refused" in capsys.readouterr().out

    nested = _write_graph(tmp_path, samples.nested_triangle, "nested.json")
    assert main(["plan", nested]) == 1
    assert "error" in capsys.readouterr().err

    assert main(["plan", str(tmp_path / "missing.json")]) == 1
    assert main(["plan", five, "--triplet", "1,2"]) == 1


def test_cli_triplet_by_label_and_unknown_token(tmp_path, capsys):
    # (c,d,e) is the pentagon's other admissible triplet; its default is (a,b,c)
    src = _write_graph(tmp_path, samples.pentagon_with_pocket)
    assert main(["plan", src, "--triplet", "c, d ,e"]) == 0
    assert "triplet: (c,d,e)" in capsys.readouterr().out
    assert main(["plan", src, "--triplet", "c,d,zz"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown vertex 'zz' in --triplet\n"
    # an empty pin is refused, not read as no pin
    assert main(["plan", src, "--triplet", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown vertex '' in --triplet\n"
    # a triplet that is not admissible is named by label, however it was given
    for spec in ("a,b,d", "a,2,4"):
        assert main(["plan", src, "--triplet", spec]) == 1
        assert capsys.readouterr().err == "error: (a,b,d) is not an admissible corner triplet\n"


@pytest.mark.parametrize("token",("0_2", "\u0662"), ids=("underscore", "arabic-indic-two"))
def test_cli_triplet_refuses_ids_that_graph_documents_refuse(tmp_path, capsys, token):
    # int() reads both as 2, but an id is an optional sign and ASCII digits
    src = _write_graph(tmp_path, samples.pentagon_with_pocket)
    assert main(["plan", src, "--triplet", f"1,{token},3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown vertex {token!r} in --triplet\n"
    assert main(["plan", src, "--triplet", "1,+2,3"]) == 0
    assert "triplet: (a,b,c)" in capsys.readouterr().out


@pytest.mark.parametrize("make", (k4, samples.wheel4), ids=("k4", "wheel4"))
def test_cli_check_states_the_rule_that_left_no_triplet(tmp_path, capsys, make):
    # On K4 each boundary pair two apart is adjacent; on the wheel each
    # shares a second common neighbour.
    path = _write_graph(tmp_path, make)
    assert main(["check", path]) == 2
    out = capsys.readouterr().out.splitlines()
    i = out.index("triplets (0): ")
    assert out[i + 1 : i + 3] == [
        "  no admissible corner triplet: every boundary pair at distance",
        "  two is adjacent or shares a second common neighbour",
    ]


def test_cli_json_plan_refusal_report(tmp_path, capsys):
    five = _write_graph(tmp_path, samples.five_cip_refusal, "five.json")
    assert main(["--format", "json", "plan", five, "--triplet", "3,9,13"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert sorted(report) == ["failures", "necessary", "outcome", "refusal"]
    assert (report["outcome"], report["refusal"]) == ("InfeasibleAllTriplets", "five-cips-fixed-triplet")
    assert report["necessary"]["cip_count"] == 5 and ["3", "9", "13"] in report["necessary"]["triplets"]
    assert [(f["triplet"], f["stage"], f["final"]) for f in report["failures"]] == [
        (["3", "9", "13"], "paths", True)
    ]

    six = _write_graph(tmp_path, samples.six_cip_twelve_gon, "six.json")
    assert main(["--format", "json", "plan", six]) == 3
    report = json.loads(capsys.readouterr().out)
    assert (report["outcome"], report["refusal"], report["failures"]) == ("TooManyCips", "too-many-cips", [])
    assert report["necessary"]["cip_count"] == 6 and report["necessary"]["pass"] is False


def test_cli_check_text_names_faces_and_a_cut_vertex(tmp_path, capsys):
    quad = _write_graph(tmp_path, _quad_holes_and_pockets)
    assert main(["check", quad]) == 2
    out = capsys.readouterr().out.splitlines()
    assert "  non-triangular face (2,6,7,3)" in out and "  non-triangular face (5,8,7,6)" in out
    assert "  not 2-connected" not in out
    # pendant vertex 4 hangs inside the triangle, so 1 is a cut vertex
    pendant = EmbeddedGraph(rotation={1: (2, 4, 3), 2: (3, 1), 3: (1, 2), 4: (1,)}, outer=(1, 2, 3))
    path = _write_graph(tmp_path, lambda: pendant, "pendant.json")
    assert main(["check", path]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[1:3] == ["ptpg: FAIL", "  not 2-connected"]
    assert out[-1] == "verdict: not plannable"


def test_cli_triplet_rejects_a_label_shared_by_two_vertices(tmp_path, capsys):
    g = generate_ptpg(GenSpec(n=12, seed=3))
    shared = EmbeddedGraph(rotation=g.rotation, outer=g.outer, labels={3: "x", 5: "x"})
    path = tmp_path / "shared.json"
    path.write_bytes(serialize_graph(shared))
    assert main(["plan", str(path)]) == 0
    assert "triplet: (8,x,7)" in capsys.readouterr().out
    assert main(["plan", str(path), "--triplet", "8,x,7"]) == 1
    assert capsys.readouterr().err == "error: label 'x' in --triplet names vertices 3, 5\n"
    assert main(["plan", str(path), "--triplet", "8,3,7"]) == 0


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


@pytest.mark.parametrize("n", (2, -1))
def test_cli_gen_rejects_too_few_vertices(capsys, n):
    assert main(["gen", "--n", str(n)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need at least three vertices\n"


@pytest.mark.parametrize("first", ("01", "1"))
def test_a_vertex_named_by_two_rotation_keys_is_reported_at_the_second(first):
    # "01" and "1" both name vertex 1; the first list repeats a neighbour.
    second = "1" if first == "01" else "01"
    doc = graph_to_doc(samples.pentagon_with_pocket())
    lists = {"01": [6, 6, 6, 2], "1": [5, 2, 6]}
    rotation = {first: lists[first]}
    rotation.update((k, v) for k, v in doc["rotation"].items() if k != "1")
    rotation[second] = lists[second]
    doc["rotation"] = rotation
    with pytest.raises(ParseError) as exc:
        parse_graph(json.dumps(doc).encode())
    assert exc.value.where == f"rotation.{second}"
    assert "duplicate neighbour list for vertex 1" in str(exc.value)


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


def test_python_dash_m_lplan_runs_from_a_checkout(tmp_path):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    graph = tmp_path / "g.json"
    graph.write_bytes(serialize_graph(samples.pentagon_with_pocket()))
    proc = subprocess.run(
        [sys.executable, "-m", "lplan", "plan", str(graph), "--out", str(tmp_path / "p.json")],
        capture_output=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    want = serialize_plan(plan_to_doc(plan(samples.pentagon_with_pocket())))
    assert (tmp_path / "p.json").read_bytes() == want


def test_cli_refuses_deeply_nested_json_without_a_traceback(tmp_path):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    deep = tmp_path / "deep.json"
    deep.write_bytes(b"[" * 100_000 + b"]" * 100_000)
    for command in ("plan", "check", "render"):
        proc = subprocess.run(
            [sys.executable, "-m", "lplan", command, str(deep)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert proc.returncode == 1, (command, proc.stderr)
        assert proc.stderr.startswith("error: document: "), (command, proc.stderr)
        assert "Traceback" not in proc.stderr, command


def test_largest_exact_integers_are_read():
    doc = plan_to_doc(plan(samples.pentagon_with_pocket()))
    doc["modules"][0]["x"] = -(2**53 - 1)
    doc["modules"][0]["w"] = 2**53 - 1
    doc["concave_corners"] = [[2**53 - 1, -(2**53 - 1)]]
    assert parse_plan(json.dumps(doc).encode()) == doc


def test_cli_render_refuses_an_over_long_coordinate_without_a_traceback(tmp_path):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    doc = plan_to_doc(plan(samples.pentagon_with_pocket()))
    doc["modules"][0]["x"] = int("9" * 4300)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "lplan", "render", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: modules[0].x: "), proc.stderr
    assert "Traceback" not in proc.stderr


# -- the document writer against json.dumps ----------------------------------

# Keys and strings that a %-template must not read as conversions, with
# non-ASCII, control characters and quotes; ints next to bools, which equal
# them but are written otherwise.
TRICKY = st.sampled_from(["%", "%d", "%s", "%%", "%(x)s", "", "10", "2", "é", "\x00\t", '"\\', "\ud800"])
TEXT = st.one_of(TRICKY, st.text(max_size=6))
INTS = st.one_of(st.integers(), st.sampled_from([0, 1, -1, 10**30]))
SCALARS = st.one_of(INTS, TEXT, st.booleans(), st.none(), st.floats())


@st.composite
def record_lists(draw):
    """Lists of dicts with shared keys, or of lists of one length, with per-column types.

    Some draws break one member: a bool for an int, a key or an index more
    or less, or a nested value, so the writer must fall back for them.
    """
    as_dicts = draw(st.booleans())
    width = draw(st.integers(min_value=0, max_value=4))
    keys = draw(st.lists(TEXT, min_size=width, max_size=width, unique=True)) if as_dicts else range(width)
    columns = [draw(st.sampled_from([INTS, TEXT])) for _ in keys]
    members = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        values = [draw(col) for col in columns]
        members.append(dict(zip(keys, values)) if as_dicts else values)
    if members and draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=len(members) - 1))
        odd = draw(st.one_of(st.booleans(), SCALARS, st.lists(INTS, max_size=2)))
        if as_dicts:
            members[i] = {**members[i], draw(TEXT): odd}
        elif draw(st.booleans()) or not members[i]:
            members[i] = members[i] + [odd]
        else:
            members[i] = members[i][:-1] if draw(st.booleans()) else [odd] + members[i][1:]
    return members


JSON = st.recursive(
    st.one_of(SCALARS, record_lists()),
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.dictionaries(TEXT, kids, max_size=4)),
    max_leaves=20,
)


def _dumped(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


@settings(max_examples=300, deadline=None)
@given(doc=st.dictionaries(TEXT, JSON, max_size=5))
@example(doc={"m": [{"%d": 1, "%s": "%d"}, {"%d": -2, "%s": "é"}], "p": [[1, "%"], [2, "\n"]]})
@example(doc={"m": [{"x": 1}, {"x": True}], "p": [[1], [2, 3]], "q": [[[1]], [[2]]], "e": [[], []]})
@example(doc={"m": [{"x": 1}], "n": [{}], "p": [[0]], "q": [], "r": [{"x": 1}, {"y": 1}]})
def test_the_document_writer_matches_json_dumps(doc):
    want = _dumped(doc)
    assert serialize_plan(doc) == want
    assert _document(doc) == want


@pytest.mark.parametrize("make", ALL_GRAPHS, ids=lambda f: f.__name__)
def test_sample_documents_are_written_as_json_dumps_writes_them(make):
    g = make()
    assert serialize_graph(g) == _dumped(graph_to_doc(g))
    res = plan(g)
    if res.ok:
        for include_trace in (False, True):
            doc = plan_to_doc(res, include_trace=include_trace)
            assert serialize_plan(doc) == _dumped(doc)
