"""The whole-graph checks at parse, build and validation against the per-item readings.

A document, a rotation system or a graph is first checked whole; only
when that check fails is it read again item by item, to name the first
defect.  Each test here hands both paths the same input: a malformed
input must give the text the per-item reading gives when called
directly, and a valid one the same graph.
"""

from __future__ import annotations

import copy
import itertools
import json
import random
from collections import Counter

import pytest

from lplan import io
import samples
from lplan.gen import GenSpec, generate_ptpg
from lplan.graph import (
    EmbeddedGraph,
    InconsistentEmbedding,
    _check_rotation,
    _number_darts,
    PtpgReport,
    _triangle_count,
    common_neighbors,
    edge_key,
    faces_inside_cycle,
    find_separating_triangles,
    rotate_min,
    validate_ptpg,
)
from lplan.io import ParseError, doc_to_graph, graph_to_doc, parse_graph
from lplan.pipeline import plan
from samples import embed_by_coords

from completions import tiny_completions
from oracles import (
    brute_biconnected,
    brute_faces_inside_cycle,
    brute_separating_triangles,
    brute_triangles,
    brute_walk_darts,
    checked_doc_to_graph,
    common_neighbour_sum,
    faces,
    inner_faces,
    walk_faces,
)
from test_graph import ALL_SAMPLES as SAMPLES, k4, thinned_ptpg, wheel

# -- graph documents ----------------------------------------------------------


def item_by_item(doc: dict):
    """The per-item reader on doc's parts: (rotation, outer, labels)."""
    return io._read_parts(doc["vertices"], doc["rotation"], doc["outer"])


def per_item_error(doc: dict) -> str:
    with pytest.raises(ParseError) as exc:
        item_by_item(doc)
    return str(exc.value)


def _set(path, value):
    def mutate(doc):
        *keys, last = path
        node = doc
        for k in keys:
            node = node[k]
        node[last] = value

    mutate.__name__ = f"{'.'.join(map(str, path))}={value!r}"
    return mutate


def _both(*mutations):
    def mutate(doc):
        for m in mutations:
            m(doc)

    mutate.__name__ = " & ".join(m.__name__ for m in mutations)
    return mutate


def _drop(path):
    def mutate(doc):
        *keys, last = path
        node = doc
        for k in keys:
            node = node[k]
        del node[last]

    mutate.__name__ = f"del {'.'.join(map(str, path))}"
    return mutate


def _add_key(key, value):
    def mutate(doc):
        doc["rotation"][key] = value

    mutate.__name__ = f"rotation[{key!r}]={value!r}"
    return mutate


# Each mutation of the pentagon's document (vertices 1..7, vertex i at
# vertices[i - 1]) leaves the top level well formed, so the defect lies in
# the vertex list or the rotation.  The texts are the ones the parse gave
# before the whole-part checks came in.
MALFORMED_DOCS = (
    (_set(("vertices", 2), 5), "vertices[2]: expected an object with an 'id'"),
    (_set(("vertices", 2), [3]), "vertices[2]: expected an object with an 'id'"),
    (_set(("vertices", 2), None), "vertices[2]: expected an object with an 'id'"),
    (_drop(("vertices", 4, "id")), "vertices[4]: expected an object with an 'id'"),
    (_set(("vertices", 3, "id"), True), "vertices[3].id: vertex ids must be integers"),
    (_set(("vertices", 3, "id"), 4.0), "vertices[3].id: vertex ids must be integers"),
    (_set(("vertices", 3, "id"), "4"), "vertices[3].id: vertex ids must be integers"),
    (_set(("vertices", 3, "id"), None), "vertices[3].id: vertex ids must be integers"),
    (_set(("vertices", 5, "id"), 2), "vertices[5].id: duplicate vertex id 2"),
    (_set(("vertices", 0, "label"), 7), "vertices[0].label: labels must be strings"),
    (_set(("vertices", 0, "label"), None), "vertices[0].label: labels must be strings"),
    (_set(("rotation", "1"), [5, True, 6]), "rotation.1: expected a list of vertex ids"),
    (_set(("rotation", "1"), [5, 2.0, 6]), "rotation.1: expected a list of vertex ids"),
    (_set(("rotation", "1"), [5, "2", 6]), "rotation.1: expected a list of vertex ids"),
    (_set(("rotation", "1"), (5, 2, 6)), "rotation.1: expected a list of vertex ids"),
    (_set(("rotation", "1"), "526"), "rotation.1: expected a list of vertex ids"),
    (_set(("rotation", "1"), [5, 99, 6, 98]), "rotation.1: unknown neighbours [99, 98]"),
    (_add_key("x", [1]), "rotation.x: keys must be integer vertex ids"),
    (_add_key("1.0", [1]), "rotation.1.0: keys must be integer vertex ids"),
    (_add_key("99", [1]), "rotation.99: unknown vertex 99"),
    (_add_key("01", [5, 2, 6]), "rotation.01: duplicate neighbour list for vertex 1"),
    # a key is a sign and ASCII digits, whole: " 2" no longer names vertex 2
    (_add_key(" 2", [4, 7, 6, 1, 3]), "rotation. 2: keys must be integer vertex ids"),
    # two defects at once: the earlier part, or the earlier item, is named
    (
        _both(_set(("vertices", 6, "id"), True), _set(("rotation", "1"), [99])),
        "vertices[6].id: vertex ids must be integers",
    ),
    (
        _both(_set(("vertices", 6, "label"), 1), _set(("vertices", 1, "id"), 1)),
        "vertices[1].id: duplicate vertex id 1",
    ),
    (
        _both(_set(("rotation", "3"), [True]), _add_key("01", [5, 2, 6])),
        "rotation.3: expected a list of vertex ids",
    ),
    (
        _both(_add_key("x", [1]), _set(("rotation", "2"), [99])),
        "rotation.2: unknown neighbours [99]",
    ),
    (
        _both(_drop(("vertices", 0, "id")), _set(("vertices", 3, "id"), 1.0)),
        "vertices[0]: expected an object with an 'id'",
    ),
)


@pytest.mark.parametrize("mutate, text", MALFORMED_DOCS, ids=lambda x: getattr(x, "__name__", ""))
def test_malformed_documents_name_the_per_item_defect(mutate, text):
    doc = graph_to_doc(samples.pentagon_with_pocket())
    mutate(doc)
    assert per_item_error(copy.deepcopy(doc)) == text
    with pytest.raises(ParseError) as exc:
        doc_to_graph(doc)
    assert str(exc.value) == text


_VALUES = (True, False, 1.0, 2.5, "1", "a", None, [1], {"id": 1}, -1, 10**6)


def _random_defect(doc: dict, rng: random.Random) -> None:
    items = doc["vertices"]
    i = rng.choice([i for i, item in enumerate(items) if type(item) is dict])
    kind = rng.randrange(7)
    if kind == 0:
        items[i]["id"] = rng.choice(_VALUES)
    elif kind == 1:
        items[i]["label"] = rng.choice(_VALUES)
    elif kind == 2:
        items[i] = rng.choice(_VALUES)
    elif kind == 3:
        items[i]["id"] = rng.choice([it["id"] for it in items if type(it) is dict and "id" in it])
    elif kind == 4:
        key = rng.choice(list(doc["rotation"]))
        nbrs = list(doc["rotation"][key])
        nbrs[rng.randrange(len(nbrs))] = rng.choice(_VALUES)
        doc["rotation"][key] = nbrs
    elif kind == 5:
        key = rng.choice(list(doc["rotation"]))
        doc["rotation"][rng.choice(("0" + key, key + ".0", "v" + key, str(-1)))] = [1]
    else:
        items[i].pop("id", None)


@pytest.mark.parametrize("seed", range(6))
def test_random_malformed_documents_name_the_per_item_defect(seed):
    rng = random.Random(seed)
    base = graph_to_doc(generate_ptpg(GenSpec(n=12 + 3 * seed, seed=seed)))
    for v in base["vertices"][::2]:
        v["label"] = f"m{v['id']}"
    named = 0
    for _ in range(60):
        doc = copy.deepcopy(base)
        for _ in range(rng.choice((1, 1, 2, 3))):
            _random_defect(doc, rng)
        try:
            rotation, _, labels = item_by_item(copy.deepcopy(doc))
        except ParseError as exc:
            named += 1
            with pytest.raises(ParseError) as got:
                doc_to_graph(doc)
            assert str(got.value) == str(exc)
        else:  # both parts read: what follows is common to both readings
            g = doc_to_graph(doc)
            assert (list(g.rotation.items()), g.labels) == (list(rotation.items()), labels)
    assert named > 40


@pytest.mark.parametrize("make", SAMPLES, ids=lambda f: f.__name__)
def test_valid_documents_read_as_item_by_item(make):
    g = make()
    doc = graph_to_doc(g)
    rotation, outer, labels = item_by_item(doc)
    got = doc_to_graph(doc)
    assert list(got.rotation.items()) == list(rotation.items())
    assert list(got.labels.items()) == list(labels.items()) == list(g.labels.items())
    assert list(got.rotation) == [item["id"] for item in doc["vertices"]]
    assert got.outer == outer == g.outer


@pytest.mark.parametrize("key", (" 01", "1_0", " +7 ", "\u0661", "7\n", "", "+", "1.0"))
def test_keys_other_than_a_sign_and_ascii_digits_are_refused_alike(key):
    # int() reads all but the last three as vertices 1, 10, 7, 1 and 7
    doc = graph_to_doc(samples.pentagon_with_pocket())
    doc["rotation"] = {key if k == "1" else k: nbrs for k, nbrs in doc["rotation"].items()}
    text = f"rotation.{key}: keys must be integer vertex ids"
    assert per_item_error(copy.deepcopy(doc)) == text
    with pytest.raises(ParseError) as exc:
        parse_graph(json.dumps(doc).encode())
    assert str(exc.value) == text


@pytest.mark.parametrize("key", ("01", "+1", "0001"))
def test_signed_and_zero_padded_keys_name_their_vertex(key):
    doc = graph_to_doc(samples.pentagon_with_pocket())
    doc["rotation"] = {key if k == "1" else k: nbrs for k, nbrs in doc["rotation"].items()}
    g = parse_graph(json.dumps(doc).encode())
    assert g.rotation == samples.pentagon_with_pocket().rotation
    assert list(g.rotation.items()) == list(item_by_item(doc)[0].items())


def _parsed(data: bytes, read) -> object:
    """What read makes of data: the graph's rotation, outline and labels in order, or the error text."""
    try:
        g = read(data)
    except ParseError as exc:
        return str(exc)
    return list(g.rotation.items()), g.outer, list(g.labels.items())


def _outer(value):
    return _set(("outer",), value)


def _append(key, u):
    def mutate(doc):
        doc["rotation"][key] = doc["rotation"][key] + [u]

    mutate.__name__ = f"rotation.{key}+=[{u!r}]"
    return mutate


def _reverse(key):
    def mutate(doc):
        doc["rotation"][key] = doc["rotation"][key][::-1]

    mutate.__name__ = f"reversed rotation.{key}"
    return mutate


# Defects of the pentagon's document (vertices 1..7, vertex i at
# vertices[i - 1]), one per part or item kind, then two at once.
PARITY_DEFECTS = (
    _set(("vertices", 2), 5),
    _set(("vertices", 2), None),
    _drop(("vertices", 4, "id")),
    _set(("vertices", 3, "id"), True),
    _set(("vertices", 3, "id"), 4.0),
    _set(("vertices", 3, "id"), "4"),
    _set(("vertices", 5, "id"), 2),
    _set(("vertices", 0, "label"), 7),
    _set(("vertices", 0, "label"), ["a"]),
    _add_key("01", [5, 2, 6]),
    _add_key("x", [1]),
    _add_key("99", [1]),
    _set(("rotation", "1"), "526"),
    _set(("rotation", "1"), 5),
    _set(("rotation", "1"), {"5": 2}),
    _set(("rotation", "1"), [5, True, 6]),
    _set(("rotation", "1"), [5, 2.0, 6]),
    _set(("rotation", "1"), [5, "2", 6]),
    _set(("rotation", "1"), [5, [2], 6]),
    _set(("rotation", "1"), [5, 99, 6, 98]),
    _drop(("rotation", "3")),
    _outer([1, 2.0, 3, 4, 5]),
    _outer([1, True, 3, 4, 5]),
    _outer(["1", 2, 3, 4, 5]),
    _outer([[1], 2, 3, 4, 5]),
    _outer("12345"),
    _outer([1, 2, 3, 4, 99]),
    _outer([1, 2]),
    _outer([1, 2, 3]),  # known vertices, but no face
    _outer([1, 2, 3, 4, 1]),
    _set(("rotation", "1"), [1, 5, 2, 6]),  # a loop
    _set(("rotation", "1"), [5, 2, 6, 2]),
    _set(("rotation", "1"), [5, 2]),  # a one-sided dart 6 -> 1
    _reverse("1"),
    _set(("rotation",), []),
    _drop(("outer",)),
    _set(("vertices",), []),
    # a neighbour defect with an outline defect, or with an embedding defect
    _both(_append("2", 99), _outer([1, 2, 3, 4, 98])),
    _both(_append("2", True), _outer([1, 2])),
    _both(_set(("rotation", "5"), [4, [1], 6]), _outer([1, 2, 3, 4, "5"])),
    _both(_append("3", 99), _reverse("1")),
    _both(_append("6", 2.5), _set(("rotation", "1"), [1, 5, 2, 6])),
    _both(_append("7", "4"), _outer([1, 2, 3])),
    _both(_set(("rotation", "1"), [5, 2]), _outer([1, 2, 3, 4, 99])),
    _both(_set(("rotation", "1"), [5, 2]), _set(("rotation", "4"), [3, 5, 99])),
)


def _parity_documents():
    yield from (graph_to_doc(make()) for make in SAMPLES)
    for n in range(23, 99, 15):
        for target in (None, 2, 4):
            yield graph_to_doc(generate_ptpg(GenSpec(n=n, seed=n, cip_target=target)))
    for mutate in PARITY_DEFECTS:
        doc = graph_to_doc(samples.pentagon_with_pocket())
        mutate(doc)
        yield doc
    # An unknown vertex in the outline, after an unknown neighbour: the neighbour is named.
    doc = graph_to_doc(samples.wheel4())  # vertices 1..5
    _both(_append("2", 9), _outer([1, 2, 3, 7]))(doc)
    yield doc
    for seed in range(2):
        rng = random.Random(seed)
        base = graph_to_doc(generate_ptpg(GenSpec(n=14, seed=seed)))
        for _ in range(40):
            doc = copy.deepcopy(base)
            for _ in range(rng.choice((1, 2))):
                _random_defect(doc, rng)
            yield doc


def test_parse_errors_match_the_reader_that_checked_every_neighbour_twice():
    texts = Counter()
    for doc in _parity_documents():
        data = json.dumps(doc).encode()
        got = _parsed(data, parse_graph)
        assert got == _parsed(data, lambda b: checked_doc_to_graph(json.loads(b))), doc
        texts[got if isinstance(got, str) else "graph"] += 1
    assert texts["rotation.2: unknown neighbours [9]"] == 1
    assert texts["graph"] >= len(SAMPLES) + 18
    assert sum(t.startswith("document: ") for t in texts) >= 6, texts


# -- rotation systems ---------------------------------------------------------


def named_defect(rotation: dict) -> str:
    rot = {v: tuple(nbrs) for v, nbrs in rotation.items()}
    with pytest.raises(InconsistentEmbedding) as exc:
        _check_rotation(rot, _number_darts(rot, sorted(rot)))
    return str(exc.value)


# The texts are the ones the build gave before the whole-graph checks came in.
BROKEN_ROTATIONS = (
    # a dart without its reverse, into a vertex or not
    ({1: (2, 3), 2: (3,), 3: (1, 2)}, "edge (1,2) is not symmetric"),
    ({1: (2, 3), 2: (3, 1), 3: (1,)}, "edge (2,3) is not symmetric"),
    ({1: (2, 3, 9), 2: (3, 1), 3: (1, 2)}, "edge (1,9) is not symmetric"),
    ({1: (), 2: (), 3: (1,)}, "edge (3,1) is not symmetric"),
    # loops
    ({1: (1, 2, 3), 2: (3, 1), 3: (1, 2)}, "loop at vertex 1"),
    ({1: (2, 3), 2: (3, 1, 2), 3: (1, 2)}, "loop at vertex 2"),
    # repeated neighbours, one with both darts present
    ({1: (2, 3, 2), 2: (3, 1), 3: (1, 2)}, "repeated neighbor at vertex 1"),
    ({1: (2, 3), 2: (3, 1, 3), 3: (1, 2)}, "repeated neighbor at vertex 2"),
    ({1: (2, 3), 2: (3, 1), 3: (1, 2, 2)}, "repeated neighbor at vertex 3"),
    # two defects: the first in the rotation's own vertex order is named
    ({1: (2, 2, 2), 2: (), 3: (4,), 4: ()}, "repeated neighbor at vertex 1"),
    ({1: (2, 3), 2: (3,), 3: (1, 2, 3)}, "edge (1,2) is not symmetric"),
    ({3: (1, 2, 3), 1: (2, 3), 2: (3,)}, "loop at vertex 3"),
)


@pytest.mark.parametrize("rotation, text", BROKEN_ROTATIONS, ids=str)
def test_broken_rotations_name_the_per_item_defect(rotation, text):
    assert named_defect(rotation) == text
    with pytest.raises(InconsistentEmbedding) as exc:
        EmbeddedGraph(rotation=rotation, outer=(1, 2, 3))
    assert str(exc.value) == text


@pytest.mark.parametrize("seed", range(8))
def test_random_broken_rotations_name_the_per_item_defect(seed):
    rng = random.Random(seed)
    g = generate_ptpg(GenSpec(n=10 + 2 * seed, seed=seed))
    for _ in range(30):
        rot = {v: list(nbrs) for v, nbrs in g.rotation.items()}
        for _ in range(rng.choice((1, 2))):
            v = rng.choice(g.vertices)
            kind = rng.randrange(4)
            if kind == 0:
                rot[v].pop(rng.randrange(len(rot[v])))  # drops one dart
            elif kind == 1:
                rot[v].insert(rng.randrange(len(rot[v]) + 1), v)
            elif kind == 2:
                rot[v].insert(rng.randrange(len(rot[v]) + 1), rng.choice(rot[v]))
            else:
                rot[v].append(max(g.vertices) + 1)
        want = named_defect(rot)
        with pytest.raises(InconsistentEmbedding) as exc:
            EmbeddedGraph(rotation=rot, outer=g.outer)
        assert str(exc.value) == want


# -- separating triangles -----------------------------------------------------


def cycle_graph(n: int) -> EmbeddedGraph:
    rotation = {i: ((i - 2) % n + 1, i % n + 1) for i in range(1, n + 1)}
    return EmbeddedGraph(rotation=rotation, outer=tuple(range(1, n + 1)))


def outer_triangle() -> EmbeddedGraph:
    """A triangle around a hexagon wheel: the outer triangle bounds the outer face."""
    coords = {1: (0, 10), 2: (9, -5), 3: (-9, -5), 0: (0, 0)}
    ring = [10 + i for i in range(6)]
    ring_at = [(0, 3), (3, 1), (3, -2), (0, -3), (-3, -2), (-3, 1)]
    coords.update(zip(ring, ring_at))
    edges = [(1, 2), (2, 3), (3, 1)]
    edges += [(0, r) for r in ring] + list(zip(ring, ring[1:] + ring[:1]))
    edges += [(1, 10), (1, 11), (1, 15), (2, 11), (2, 12), (2, 13), (3, 13), (3, 14), (3, 15)]
    return embed_by_coords(coords, edges, (1, 2, 3))


def plant(g: EmbeddedGraph, face: tuple[int, int, int]) -> EmbeddedGraph:
    """g with a new vertex inside the triangular face walk, joined to its three corners."""
    x = max(g.vertices) + 1
    a, b, c = face  # walked a -> b -> c: c follows a at b, a follows b at c, b follows c at a
    rot = {v: list(nbrs) for v, nbrs in g.rotation.items()}
    for v, before in ((b, a), (c, b), (a, c)):
        rot[v].insert(rot[v].index(before) + 1, x)
    rot[x] = [a, c, b]
    return EmbeddedGraph(rotation=rot, outer=g.outer)


def planted_graphs():
    """Generated PTPGs with vertices planted in faces, inside one another too."""
    for seed in range(10):
        rng = random.Random(seed)
        g = generate_ptpg(GenSpec(n=8 + 2 * seed, seed=seed))
        for _ in range(1 + seed % 4):
            g = plant(g, rng.choice([f for f in inner_faces(g) if len(f) == 3]))
            yield g


def _graphs_for_triangles():
    yield from (make() for make in SAMPLES)
    yield EmbeddedGraph(rotation={1: (2, 3), 2: (3, 1), 3: (1, 2)}, outer=(1, 2, 3))  # K3
    yield k4()
    yield from (cycle_graph(n) for n in range(4, 8))
    yield outer_triangle()
    yield plant(outer_triangle(), (0, 11, 10))
    yield from planted_graphs()


def test_separating_triangles_match_oracle_on_bulk_cases():
    seen_some = seen_none = 0
    for g in _graphs_for_triangles():
        got = find_separating_triangles(g)
        assert {frozenset(t) for t in got} == brute_separating_triangles(g)
        assert list(got) == sorted(got) and all(list(t) == sorted(t) for t in got)
        seen_some += bool(got)
        seen_none += not got
    assert seen_some > 20 and seen_none > 8


def test_planting_makes_the_face_separate():
    g = outer_triangle()
    assert find_separating_triangles(g) == ()
    assert find_separating_triangles(plant(g, (0, 11, 10))) == ((0, 10, 11),)


def two_connected_with_long_faces(seed: int) -> EmbeddedGraph:
    """A generated PTPG, planted in up to two faces, less random inner edges.

    An edge goes only while the graph stays 2-connected; the outer cycle
    stays, and the faces either side of a removed edge merge into one.
    """
    rng = random.Random(seed)
    g = generate_ptpg(GenSpec(n=6 + seed % 25, seed=seed))
    for _ in range(seed % 3):
        g = plant(g, rng.choice([f for f in inner_faces(g) if len(f) == 3]))
    ring = {edge_key(g.outer[i - 1], g.outer[i]) for i in range(len(g.outer))}
    inner = sorted(g.edges - ring)
    rng.shuffle(inner)
    rot = {v: list(nbrs) for v, nbrs in g.rotation.items()}
    for u, v in inner[: rng.randint(1, max(1, len(inner) // 2))]:
        i, j = rot[u].index(v), rot[v].index(u)
        del rot[u][i], rot[v][j]
        h = EmbeddedGraph(rotation=rot, outer=g.outer)
        if brute_biconnected(h):
            g = h
        else:
            rot[u].insert(i, v)
            rot[v].insert(j, u)
    return g


def _graphs_for_counts():
    yield from (generate_ptpg(GenSpec(n=n, seed=n % 7)) for n in (6, 7, 9, 12, 20, 35, 60, 100, 150, 200))
    yield from planted_graphs()
    yield EmbeddedGraph(rotation={1: (2, 3), 2: (3, 1), 3: (1, 2)}, outer=(1, 2, 3))  # K3
    yield k4()
    yield wheel(300)
    yield from (two_connected_with_long_faces(seed) for seed in range(40))
    yield from (thinned_ptpg(seed) for seed in range(20))


def test_triangle_count_is_the_edge_sum_over_three():
    # Each 3-cycle once over the higher neighbour sets, against every
    # 3-cycle three times over the edges; the verdict against brute force.
    kinds = Counter()
    for g in _graphs_for_counts():
        up = {v: {w for w in g.rotation[v] if w > v} for v in g.vertices}
        got = _triangle_count(up)
        assert 3 * got == common_neighbour_sum(g)
        assert got == len(brute_triangles(g))
        sep = find_separating_triangles(g)
        assert {frozenset(t) for t in sep} == brute_separating_triangles(g)
        kinds[bool(sep), any(len(f) > 3 for f in inner_faces(g))] += 1
    assert min(kinds.values()) >= 5 and len(kinds) == 4, kinds


def test_triangle_count_on_the_high_degree_wheel():
    g = wheel(20000)
    up = {v: {w for w in g.rotation[v] if w > v} for v in g.vertices}
    assert 3 * _triangle_count(up) == common_neighbour_sum(g) == 3 * 20000
    assert find_separating_triangles(g) == ()


def _cyclic_min(face) -> tuple:
    """The smallest rotation of a face walk: one form even when a walk repeats a vertex."""
    return min(tuple(face[i:]) + tuple(face[:i]) for i in range(len(face)))


def test_ptpg_report_matches_walk_tarjan_and_brute_triangles():
    verdicts = Counter()
    for g in _graphs_for_counts():
        faces = walk_faces(g)
        outer = next(f for f in faces if (g.outer[0], g.outer[1]) in zip(f, f[1:] + f[:1]))
        rep = validate_ptpg(g)
        assert rep.is_biconnected == brute_biconnected(g)
        assert all(rotate_min(f) == f for f in rep.nontriangular_interior_faces)
        assert sorted(map(_cyclic_min, rep.nontriangular_interior_faces)) == sorted(
            _cyclic_min(f) for f in faces if len(f) != 3 and f is not outer
        )
        want = tuple(sorted(tuple(sorted(t)) for t in brute_separating_triangles(g)))
        assert rep == PtpgReport(rep.is_biconnected, rep.nontriangular_interior_faces, want)
        verdicts[rep.is_biconnected, bool(rep.nontriangular_interior_faces), bool(want)] += 1
    assert len(verdicts) >= 5, verdicts


# -- faces inside a cycle -----------------------------------------------------


def short_cycles(g: EmbeddedGraph):
    """Every 3- and 4-cycle of g, once each."""
    seen = set()
    for a in g.vertices:
        for b, c in itertools.permutations(g.rotation[a], 2):
            cycles = [(a, b, c)] if c in g.rotation[b] else []
            cycles += [(a, b, d, c) for d in g.rotation[b] if d != a and d in g.rotation[c]]
            for cyc in cycles:
                ring = frozenset(edge_key(cyc[i - 1], cyc[i]) for i in range(len(cyc)))
                if ring not in seen:
                    seen.add(ring)
                    yield cyc


def _graphs_for_cycles():
    yield from (make() for make in SAMPLES)
    yield from (ag.base for ag in tiny_completions())
    for make in (samples.pentagon_with_pocket, samples.hexagon_ring, samples.octagon_with_fan):
        yield plan(make()).completion.base
    for seed in range(3):
        yield plan(generate_ptpg(GenSpec(n=12 + 4 * seed, seed=seed))).completion.base
    yield from itertools.islice(planted_graphs(), 0, None, 4)


def test_faces_inside_cycle_match_the_full_flood():
    # Faces are compared by their walks: a completion numbers its faces
    # otherwise than a fresh build of the same rotation does.
    cycles = 0
    for g in _graphs_for_cycles():
        walks, walked = brute_walk_darts(g.rotation)[0], faces(g)
        for cyc in short_cycles(g):
            got = faces_inside_cycle(g, cyc)
            want = brute_faces_inside_cycle(g, cyc)
            assert {walked[i] for i in got} == {rotate_min(walks[i]) for i in want}, cyc
            assert len(got) == len(want), cyc
            assert got == faces_inside_cycle(g, cyc[::-1]) == faces_inside_cycle(g, cyc[1:] + cyc[:1])
            cycles += 1
    assert cycles > 500


# -- neighbour sets -----------------------------------------------------------


@pytest.mark.parametrize("make", SAMPLES, ids=lambda f: f.__name__)
def test_adj_is_a_set_like_view_of_the_rotation(make):
    # The rotation rows are the graph's one neighbour view: as sets they
    # repeat no vertex, hold no loop, and meet in the common neighbours.
    g = make()
    for v in g.vertices:
        nbrs = set(g.rotation[v])
        assert len(nbrs) == len(g.rotation[v]) and v not in nbrs
        for u in g.rotation[v]:
            assert v in g.rotation[u]
            assert nbrs & set(g.rotation[u]) == set(common_neighbors(g, v, u))
