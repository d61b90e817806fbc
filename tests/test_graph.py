import json
import random

import pytest

import samples
from lplan.graph import (
    EmbeddedGraph,
    InconsistentEmbedding,
    _number_darts,
    _successors,
    _walk,
    common_neighbors,
    cyclic_eq,
    edge_key,
    find_separating_triangles,
    rotate_min,
    validate_ptpg,
)
from lplan.io import ParseError, parse_graph
from lplan.gen import GenerationFailed, GenSpec, generate_ptpg
from lplan.pipeline import plan
from lplan.rel import T1, T2
from samples import embed_by_coords

from completions import tiny_completions
from oracles import (
    brute_biconnected,
    brute_faces_inside_cycle,
    brute_separating_triangles,
    brute_triangles,
    brute_walk_darts,
    dart_faces,
    edge_triangles,
    face_walk_segments,
    faces,
    inner_faces,
    read_rings,
    walk_faces,
    walking_check,
    walking_report,
)

ALL_SAMPLES = (
    samples.pentagon_with_pocket,
    samples.two_fan_hexagon,
    samples.chorded_hexagon,
    samples.hexagon_ring,
    samples.four_cip_eleven_gon,
    samples.five_cip_thirteen_gon,
    samples.six_cip_twelve_gon,
    samples.octagon_with_fan,
    samples.nested_triangle,
    samples.wheel4,
)


def test_edge_key_and_cyclic_helpers():
    assert edge_key(4, 2) == (2, 4)
    assert rotate_min((3, 1, 2)) == (1, 2, 3)
    assert cyclic_eq((1, 2, 3), (2, 3, 1))
    assert not cyclic_eq((1, 2, 3), (1, 3, 2))


@pytest.mark.parametrize("make", ALL_SAMPLES, ids=lambda f: f.__name__)
def test_euler_formula_holds(make):
    g = make()
    v = len(g.vertices)
    e = len(g.edges)
    f = len(faces(g))
    assert v - e + f == 2


@pytest.mark.parametrize("make", ALL_SAMPLES, ids=lambda f: f.__name__)
def test_faces_match_naive_dart_walk(make):
    g = make()
    walked = faces(g)
    ours = {rotate_min(f) for f in walked} | {rotate_min(f[::-1]) for f in walked}
    naive = {rotate_min(f) for f in walk_faces(g)}
    assert naive <= ours
    assert len(walk_faces(g)) == len(walked)
    # every dart sits in exactly one face
    assert sum(len(f) for f in walked) == 2 * len(g.edges)


def test_outer_face_is_the_boundary():
    # validate_ptpg tells the outer face by its walk: the one walk that is g.outer.
    g = samples.pentagon_with_pocket()
    assert [w for w in g._walks if cyclic_eq(w, g.outer)] == [g._walks[dart_faces(g._walks)[g.outer[:2]]]]


def test_inconsistent_rotation_rejected():
    with pytest.raises(InconsistentEmbedding):
        EmbeddedGraph(rotation={1: (2,), 2: (), 3: (1,)}, outer=(1, 2, 3))


@pytest.mark.parametrize(
    "rotation, message",
    [
        ({1: (2,), 2: (), 3: (1,)}, "edge (1,2) is not symmetric"),
        ({1: (1, 2, 3), 2: (3, 1), 3: (1, 2)}, "loop at vertex 1"),
        ({1: (2, 3, 2), 2: (3, 1), 3: (1, 2)}, "repeated neighbor at vertex 1"),
        ({1: (2, 3, 9), 2: (3, 1), 3: (1, 2)}, "edge (1,9) is not symmetric"),
        # at vertex 1 the repeat is checked before the one-sided edge (1,2)
        ({1: (2, 2, 2), 2: (), 3: (4,), 4: ()}, "repeated neighbor at vertex 1"),
        # the first defect in vertex order is reported, not the later loop
        ({1: (2, 3), 2: (3,), 3: (1, 2, 3)}, "edge (1,2) is not symmetric"),
    ],
)
def test_rotation_defects_are_reported_in_vertex_order(rotation, message):
    with pytest.raises(InconsistentEmbedding) as exc:
        EmbeddedGraph(rotation=rotation, outer=(1, 2, 3))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "make, outer",
    [
        (samples.pentagon_with_pocket, (5, 4, 3, 2, 1)),  # the boundary, counterclockwise
        (samples.pentagon_with_pocket, (1, 2, 6)),  # an inner face, clockwise
        (samples.nested_triangle, (1, 5, 3)),  # the boundary, counterclockwise
        (samples.nested_triangle, (2, 4, 6)),  # an inner cycle that bounds no face
        (samples.nested_triangle, (2, 6, 4)),
    ],
)
def test_outer_cycle_must_bound_the_outer_face(make, outer):
    g = make()
    with pytest.raises(InconsistentEmbedding):
        EmbeddedGraph(rotation=g.rotation, outer=outer)


def test_tiny_outer_cycle_rejected():
    with pytest.raises(InconsistentEmbedding):
        EmbeddedGraph(rotation={1: (2,), 2: (1,)}, outer=(1, 2))


@pytest.mark.parametrize("bad", ("1", True, 1.0), ids=("str", "bool", "float"))
@pytest.mark.parametrize("place", ("key", "neighbour", "outer"))
def test_vertex_ids_must_be_exact_ints(bad, place):
    # bad stands for vertex 1 in one place; True and 1.0 even compare equal to 1
    rotation = {1: (2, 3), 2: (3, 1), 3: (1, 2)}
    outer = (1, 2, 3)
    assert EmbeddedGraph(rotation=rotation, outer=outer).vertices == (1, 2, 3)
    if place == "key":
        rotation = {bad: (2, 3), 2: (3, 1), 3: (1, 2)}
    elif place == "neighbour":
        rotation[2] = (3, bad)
    else:
        outer = (bad, 2, 3)
    with pytest.raises(InconsistentEmbedding, match="vertex ids must be of type int"):
        EmbeddedGraph(rotation=rotation, outer=outer)


@pytest.mark.parametrize("make", ALL_SAMPLES, ids=lambda f: f.__name__)
def test_common_neighbors_equal_set_intersection(make):
    g = make()
    verts = sorted(g.vertices)
    for u in verts:
        for v in verts:
            if u < v:
                assert set(common_neighbors(g, u, v)) == set(g.rotation[u]) & set(g.rotation[v])


def k4():
    """K4 with a triangle for its outer face: every edge has two triangular faces."""
    coords = {1: (0, 2), 2: (2, -1), 3: (-2, -1), 4: (0, 0)}
    edges = [(1, 2), (2, 3), (3, 1), (1, 4), (2, 4), (3, 4)]
    return embed_by_coords(coords, edges, (1, 2, 3))


def octahedron():
    """The octahedron with a triangle for its outer face: every vertex has degree 4."""
    coords = {1: (0, 4), 2: (4, -3), 3: (-4, -3), 4: (0, -1), 5: (-1, 0.5), 6: (1, 0.5)}
    edges = [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (1, 5), (1, 6), (2, 4), (2, 6), (3, 4), (3, 5)]
    return embed_by_coords(coords, edges, (1, 2, 3))


def quad_beside_separating_triangle():
    """Pentagon whose chord 1-3 has the quadrilateral face 1-3-4-6 on one side.

    The triangle 1-2-3 encloses vertex 5, so the chord has two common
    neighbours but only one triangular face.
    """
    coords = {1: (0, 3), 2: (3, 0), 3: (0, -3), 4: (-2, -2), 5: (1, 0), 6: (-2, 2)}
    edges = [(1, 2), (2, 3), (3, 4), (4, 6), (6, 1), (1, 3), (5, 1), (5, 2), (5, 3)]
    return embed_by_coords(coords, edges, (1, 2, 3, 4, 6))


def nested_triangles_on_an_outer_edge():
    """Separating triangles 1-2-3 and 1-2-4, one inside the other, both on outer edge 1-2."""
    coords = {1: (-3, 3), 2: (3, 3), 3: (3, -3), 4: (1, 1.5), 5: (0.5, 2.5), 6: (-3, -3)}
    edges = [(1, 2), (2, 3), (3, 6), (6, 1), (1, 3)]
    edges += [(4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 4)]
    return embed_by_coords(coords, edges, (1, 2, 3, 6))


FILTER_CASES = (k4, quad_beside_separating_triangle, nested_triangles_on_an_outer_edge)


@pytest.mark.parametrize("make", ALL_SAMPLES + FILTER_CASES, ids=lambda f: f.__name__)
def test_separating_triangles_match_oracle(make):
    g = make()
    ours = {frozenset(t) for t in find_separating_triangles(g)}
    assert ours == brute_separating_triangles(g)
    # Every triangle reported for not being a face walk encloses a vertex.
    walks = brute_walk_darts(g.rotation)[0]
    for t in find_separating_triangles(g):
        inside = {v for fi in brute_faces_inside_cycle(g, t) for v in walks[fi]}
        assert inside - set(t)


@pytest.mark.parametrize("seed", range(12))
def test_separating_triangles_match_oracle_generated(seed):
    g = generate_ptpg(GenSpec(n=10 + seed, seed=seed))
    assert {frozenset(t) for t in find_separating_triangles(g)} == set()
    assert brute_separating_triangles(g) == set()


def test_nested_triangle_flagged():
    g = samples.nested_triangle()
    rep = validate_ptpg(g)
    assert not rep.verdict
    assert (2, 4, 6) in rep.separating_triangles
    assert brute_faces_inside_cycle(g, (2, 4, 6))


def test_wheel_is_a_valid_ptpg():
    assert validate_ptpg(samples.wheel4()).verdict


@pytest.mark.parametrize(
    "make",
    (
        samples.pentagon_with_pocket,
        samples.chorded_hexagon,
        samples.hexagon_ring,
        samples.four_cip_eleven_gon,
        samples.octagon_with_fan,
    ),
    ids=lambda f: f.__name__,
)
def test_plannable_samples_are_ptpgs(make):
    rep = validate_ptpg(make())
    assert rep.verdict, rep


def test_biconnectivity_negative():
    rotations = (
        # pendant vertex 4 hangs inside the triangle, so 1 is a cut vertex
        {1: (2, 4, 3), 2: (3, 1), 3: (1, 2), 4: (1,)},
        # the pendant path 1-4-5 inside the triangle: its edges are bridges
        {1: (2, 4, 3), 2: (3, 1), 3: (1, 2), 4: (1, 5), 5: (4,)},
    )
    for rotation in rotations:
        g = EmbeddedGraph(rotation=rotation, outer=(1, 2, 3))
        assert not validate_ptpg(g).is_biconnected
        assert not brute_biconnected(g)
        assert not validate_ptpg(g).verdict


def thinned_ptpg(seed: int) -> EmbeddedGraph:
    """A generated PTPG less some random inner edges, kept connected.

    The outer cycle stays, so what falls apart are the inner vertices:
    pendant paths and trees, with their cut vertices and bridges.
    """
    g = generate_ptpg(GenSpec(n=8 + seed % 12, seed=seed))
    rng = random.Random(seed)
    ring = {edge_key(g.outer[i - 1], g.outer[i]) for i in range(len(g.outer))}
    inner = sorted(g.edges - ring)
    rng.shuffle(inner)
    rot = {v: list(nbrs) for v, nbrs in g.rotation.items()}
    for u, v in inner[: rng.randint(0, len(inner))]:
        i, j = rot[u].index(v), rot[v].index(u)
        del rot[u][i], rot[v][j]
        try:
            g = EmbeddedGraph(rotation=rot, outer=g.outer)
        except InconsistentEmbedding:  # the edge was a bridge: put it back
            rot[u].insert(i, v)
            rot[v].insert(j, u)
    return g


def test_biconnectivity_matches_tarjan():
    graphs = [make() for make in ALL_SAMPLES + FILTER_CASES]
    graphs += [generate_ptpg(GenSpec(n=8 + 3 * seed, seed=seed)) for seed in range(8)]
    graphs += [thinned_ptpg(seed) for seed in range(60)]
    verdicts = [brute_biconnected(g) for g in graphs]
    assert [validate_ptpg(g).is_biconnected for g in graphs] == verdicts
    assert True in verdicts and False in verdicts


def walk_darts(rotation):
    """The library's numbered-dart walk over a rotation, as walks and dart -> face."""
    walks = _walk(*_successors(_number_darts(rotation, sorted(rotation))))
    return walks, dart_faces(walks)


def assert_walk_matches_oracle(rotation):
    walks, dart_face = walk_darts(rotation)
    brute_walks, brute_face = brute_walk_darts(rotation)
    assert walks == brute_walks
    assert list(dart_face.items()) == list(brute_face.items())


def assert_graph_walk_matches_oracle(g):
    assert_walk_matches_oracle(g.rotation)
    walks, dart_face = brute_walk_darts(g.rotation)
    assert faces(g) == tuple(rotate_min(w) for w in walks)
    assert list(dart_faces(g._walks).items()) == list(dart_face.items())
    assert [i for i, w in enumerate(walks) if cyclic_eq(w, g.outer)] == [dart_face[g.outer[:2]]]


@pytest.mark.parametrize("make", ALL_SAMPLES + FILTER_CASES, ids=lambda f: f.__name__)
def test_dart_walk_matches_oracle(make):
    assert_graph_walk_matches_oracle(make())


@pytest.mark.parametrize("seed", range(6))
def test_dart_walk_matches_oracle_generated(seed):
    assert_graph_walk_matches_oracle(generate_ptpg(GenSpec(n=8 + 3 * seed, seed=seed)))
    assert_graph_walk_matches_oracle(thinned_ptpg(seed))


@pytest.mark.parametrize(
    "make",
    (samples.pentagon_with_pocket, samples.hexagon_ring, samples.octagon_with_fan),
    ids=lambda f: f.__name__,
)
def test_dart_walk_matches_oracle_on_rel_subgraphs(make):
    res = plan(make())
    assert res.ok
    r = res.rel
    modules = [v for v in r.graph.vertices if v not in r.pole_ids]
    for color, sub in zip((T1, T2), read_rings(r, modules)[:2]):
        kept = {
            v: tuple(u for u in nbrs if r.color.get(edge_key(u, v)) == color)
            for v, nbrs in r.graph.rotation.items()
        }
        assert sub == {v: nbrs for v, nbrs in kept.items() if nbrs}
        assert_walk_matches_oracle(sub)
    # The face-walk reference for the plan's wall segments: each module's
    # walls are the faces of the darts leaving its block ends, numbered as
    # the oracle's walk numbers them; the sides come after.
    sides, nx, ny = face_walk_segments(r)
    f1, f2 = (brute_walk_darts(sub)[1] for sub in read_rings(r, modules)[:2])
    assert nx == len(set(f1.values())) + 2 and ny == len(set(f2.values())) + 2
    poles = [r.poles[k] for k in ("S", "N", "W", "E")]
    for v in modules:
        ring = r.graph.rotation[v]
        cls = [
            (r.color[edge_key(u, v)] == T2) + 2 * (r.orient[edge_key(u, v)][0] != v) for u in ring
        ]
        last = {}
        for i, u in enumerate(ring):
            if cls[i] != cls[(i + 1) % len(ring)]:
                last.setdefault(cls[i], u)
        want = []
        for side, (c, faces, k) in enumerate(((1, f2, ny), (3, f2, ny), (2, f1, nx), (0, f1, nx))):
            if poles[side] in r.graph.rotation[v]:
                want.append(k - 2 + side % 2)
            else:
                want.append(faces[(last[c], v)])
        assert sides[v] == tuple(want), v


def wheel(n: int) -> EmbeddedGraph:
    """A hub 0 inside the rim 1..n: the hub's degree is n."""
    rotation = {i: ((i - 2) % n + 1, i % n + 1, 0) for i in range(1, n + 1)}
    rotation[0] = tuple(range(1, n + 1))
    return EmbeddedGraph(rotation=rotation, outer=tuple(range(1, n + 1)))


def test_high_degree_wheel_is_a_ptpg():
    assert validate_ptpg(wheel(20000)).verdict


def test_triangle_bruteforcer_sees_all_faces():
    g = samples.pentagon_with_pocket()
    tri_sets = {frozenset(t) for t in brute_triangles(g)}
    for f in inner_faces(g):
        assert frozenset(f) in tri_sets


def torus_k7_plus_triangle():
    """K7 embedded on the torus (7 - 21 + 14 = 0) beside a separate triangle.

    Euler's count over both components is 10 - 24 + 16 = 2, as for a
    plane graph, although the rotation system is not planar.
    """
    rotation = {i + 1: tuple((i + d) % 7 + 1 for d in (1, 3, 2, 6, 4, 5)) for i in range(7)}
    rotation.update({8: (9, 10), 9: (10, 8), 10: (8, 9)})
    return rotation


@pytest.mark.parametrize("outer", ((8, 9, 10), (10, 9, 8)))
def test_disconnected_rotation_system_is_rejected(outer):
    rotation = torus_k7_plus_triangle()
    assert len(walk_darts(rotation)[0]) == 16  # 14 torus faces and the triangle's two
    assert_walk_matches_oracle(rotation)
    with pytest.raises(InconsistentEmbedding, match="not connected"):
        EmbeddedGraph(rotation=rotation, outer=outer)
    doc = {
        "vertices": [{"id": v} for v in sorted(rotation)],
        "rotation": {str(v): list(nbrs) for v, nbrs in rotation.items()},
        "outer": list(outer),
    }
    with pytest.raises(ParseError, match="not connected") as exc:
        parse_graph(json.dumps(doc).encode())
    assert exc.value.where == "document"


@pytest.mark.parametrize("make", ALL_SAMPLES, ids=lambda f: f.__name__)
def test_triangles_in_ascending_order(make):
    g = make()
    assert edge_triangles(g) == brute_triangles(g)


# -- faces checked by count, walked when read ----------------------------------

K4 = k4().rotation
TWISTED_K4 = {1: (2, 3, 4), 2: (3, 4, 1), 3: (1, 4, 2), 4: (1, 2, 3)}  # two faces, not four
# The square 1-2-3-4 around the square 5-6-7-8, the ring between them triangulated:
# two quadrilateral faces, whose eight darts are as many as an 8-cycle's.
SQUARES = {
    1: (2, 6, 5, 4), 2: (3, 7, 6, 1), 3: (8, 7, 2, 4), 4: (1, 5, 8, 3),
    5: (1, 6, 8, 4), 6: (1, 2, 7, 5), 7: (6, 2, 3, 8), 8: (5, 7, 3, 4),
}


def mutations(rotation, outer):
    """Damaged copies of a simple embedding with a vertex of degree 3 or more, as (rotation, outer)."""
    v = max(rotation, key=lambda x: len(rotation[x]))
    nbrs = tuple(rotation[v])
    ring = {frozenset(e) for e in zip(outer, outer[1:] + outer[:1])}
    u = next(x for x in nbrs if frozenset((v, x)) not in ring)
    top = max(rotation) + 1
    return [
        ({**rotation, v: nbrs[::-1]}, outer),
        ({**rotation, v: (nbrs[1], nbrs[0]) + nbrs[2:]}, outer),
        # without an inner edge, two faces become one, a quadrilateral where both were triangles
        ({**rotation, v: tuple(x for x in nbrs if x != u), u: tuple(x for x in rotation[u] if x != v)}, outer),
        ({**rotation, top: (top + 1, top + 2), top + 1: (top + 2, top), top + 2: (top, top + 1)}, outer),
        ({**rotation, top: ()}, outer),
    ]


def check_inputs():
    """(rotation, outer) pairs for the counting check against the walking one."""
    graphs = [make() for make in ALL_SAMPLES + FILTER_CASES]
    for n in range(8, 99, 9):
        for target in (None, 2, 3, 4, 5, 6):
            try:
                graphs.append(generate_ptpg(GenSpec(n=n, seed=n, cip_target=target)))
            except GenerationFailed:  # small n leave no room for many CIPs
                continue
    graphs += [thinned_ptpg(seed) for seed in range(12)]
    out = [(g.rotation, g.outer) for g in graphs]
    for g in graphs[: len(ALL_SAMPLES) + len(FILTER_CASES)] + graphs[-30:-12]:
        out += mutations(g.rotation, g.outer)
    out += [
        ({1: (2, 3), 2: (3, 1), 3: (1, 2)}, (1, 2, 3)),
        ({1: (2, 3), 2: (3, 1), 3: (1, 2)}, (3, 2, 1)),  # K3 bounds a face either way round
        (K4, (1, 2, 3)),
        (K4, (3, 2, 1)),
        (TWISTED_K4, (1, 2, 3)),
        (torus_k7_plus_triangle(), (8, 9, 10)),
        (SQUARES, (1, 2, 3, 4)),
        (SQUARES, (1, 2, 3, 4, 5, 8, 7, 6)),
    ]
    return out


def assert_same_faces(g, walked):
    turn, _, walks, k = walked
    assert g._turn == turn
    assert g._walks == walks and [i for i, w in enumerate(walks) if cyclic_eq(w, g.outer)] == [k]
    assert faces(g) == tuple(rotate_min(w) for w in walks)


def test_counting_check_matches_the_walking_check():
    kinds = set()
    for rotation, outer in check_inputs():
        try:
            walked = walking_check(rotation, outer)
        except InconsistentEmbedding as exc:
            with pytest.raises(InconsistentEmbedding) as got:
                EmbeddedGraph(rotation=rotation, outer=outer)
            assert str(got.value) == str(exc), (rotation, outer)
            kinds.add(str(exc))
            continue
        want = walking_report(rotation, *walked[2:])
        kinds.add(want.verdict)
        g = EmbeddedGraph(rotation=rotation, outer=outer)
        assert validate_ptpg(g) == want and find_separating_triangles(g) == want.separating_triangles
        assert_same_faces(g, walked)
        h = EmbeddedGraph(rotation=rotation, outer=outer)
        assert_same_faces(h, walked)  # the faces read first this time
        assert validate_ptpg(h) == want
    assert kinds >= {
        True,
        False,
        "graph is not connected",
        "rotation system is not planar (Euler check)",
        "outer cycle does not bound exactly one face",
    }


def test_counting_check_matches_the_walking_check_on_completions():
    for ag in tiny_completions():
        g = ag.base
        walked = walking_check(g.rotation, g.outer)
        assert validate_ptpg(g) == walking_report(g.rotation, *walked[2:])
        assert_same_faces(g, walked)


@pytest.mark.parametrize(
    "rotation, outer, message",
    [
        (TWISTED_K4, (1, 2, 3), "rotation system is not planar (Euler check)"),
        (K4, (3, 2, 1), "outer cycle does not bound exactly one face"),
        # a count that does not know the outer face would take two faces for one
        (SQUARES, (1, 2, 3, 4, 5, 8, 7, 6), "outer cycle does not bound exactly one face"),
        ({1: (2,), 2: (), 3: (1,)}, (1, 2, 3), "edge (1,2) is not symmetric"),
        (K4, (1, 2, 1), "outer cycle repeats a vertex"),
    ],
)
def test_check_defect_texts(rotation, outer, message):
    with pytest.raises(InconsistentEmbedding) as exc:
        EmbeddedGraph(rotation=rotation, outer=outer)
    assert str(exc.value) == message
    doc = {
        "vertices": [{"id": v} for v in sorted(rotation)],
        "rotation": {str(v): list(nbrs) for v, nbrs in rotation.items()},
        "outer": list(outer),
    }
    with pytest.raises(ParseError) as exc:
        parse_graph(json.dumps(doc).encode())
    assert exc.value.where == "document" and exc.value.reason == message

