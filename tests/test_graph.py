import json
import random

import pytest

from lplan import layout, samples
from lplan.graph import (
    EmbeddedGraph,
    InconsistentEmbedding,
    _dart_faces,
    _number_darts,
    _walk,
    common_neighbors,
    cyclic_eq,
    edge_key,
    faces_inside_cycle,
    find_separating_triangles,
    is_biconnected,
    rotate_min,
    validate_ptpg,
)
from lplan.io import ParseError, parse_graph
from lplan.oracle import GenSpec, generate_ptpg
from lplan.pipeline import plan
from lplan.rel import T1, T2
from lplan.samples import embed_by_coords

from oracles import (
    brute_biconnected,
    brute_separating_triangles,
    brute_triangles,
    brute_walk_darts,
    edge_triangles,
    walk_faces,
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
    f = len(g.faces)
    assert v - e + f == 2


@pytest.mark.parametrize("make", ALL_SAMPLES, ids=lambda f: f.__name__)
def test_faces_match_naive_dart_walk(make):
    g = make()
    ours = {rotate_min(f) for f in g.faces} | {rotate_min(f[::-1]) for f in g.faces}
    naive = {rotate_min(f) for f in walk_faces(g)}
    assert naive <= ours
    assert len(walk_faces(g)) == len(g.faces)
    # every dart sits in exactly one face
    assert sum(len(f) for f in g.faces) == 2 * len(g.edges)


def test_outer_face_is_the_boundary():
    g = samples.pentagon_with_pocket()
    outer = g.faces[g.outer_face_index]
    assert cyclic_eq(outer, g.outer) or cyclic_eq(outer, g.outer[::-1])


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
                assert set(common_neighbors(g, u, v)) == g.adj[u] & g.adj[v]


def k4():
    """K4 with a triangle for its outer face: every edge has two triangular faces."""
    coords = {1: (0, 2), 2: (2, -1), 3: (-2, -1), 4: (0, 0)}
    edges = [(1, 2), (2, 3), (3, 1), (1, 4), (2, 4), (3, 4)]
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
    for t in find_separating_triangles(g):
        inside = {v for fi in faces_inside_cycle(g, t) for v in g.faces[fi]}
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
    assert faces_inside_cycle(g, (2, 4, 6))


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
        assert not is_biconnected(g)
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
    assert [is_biconnected(g) for g in graphs] == verdicts
    assert True in verdicts and False in verdicts


def walk_darts(rotation):
    """The library's numbered-dart walk over a rotation, as walks and dart -> face."""
    walks = _walk(*_number_darts(rotation, sorted(rotation)))[1]
    return walks, _dart_faces(walks)


def assert_walk_matches_oracle(rotation):
    walks, dart_face = walk_darts(rotation)
    brute_walks, brute_face = brute_walk_darts(rotation)
    assert walks == brute_walks
    assert list(dart_face.items()) == list(brute_face.items())


def assert_graph_walk_matches_oracle(g):
    assert_walk_matches_oracle(g.rotation)
    walks, dart_face = brute_walk_darts(g.rotation)
    assert g.faces == tuple(rotate_min(w) for w in walks)
    assert list(g.dart_face.items()) == list(dart_face.items())
    assert g.outer_face_index == dart_face[g.outer[:2]]


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
    for color, sub in zip((T1, T2), layout._read_rings(r, modules)[:2]):
        kept = {
            v: tuple(u for u in nbrs if r.color.get(edge_key(u, v)) == color)
            for v, nbrs in r.graph.rotation.items()
        }
        assert sub == {v: nbrs for v, nbrs in kept.items() if nbrs}
        assert_walk_matches_oracle(sub)
    # Each module's walls are the faces of the darts leaving its block ends,
    # numbered as the oracle's walk numbers them; the sides come after.
    sides, nx, ny = layout._segments(r, modules)
    f1, f2 = (brute_walk_darts(sub)[1] for sub in layout._read_rings(r, modules)[:2])
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
            if poles[side] in r.graph.adj[v]:
                want.append(k - 2 + side % 2)
            else:
                want.append(faces[(last[c], v)])
        assert sides[v] == tuple(want), v


def test_high_degree_wheel_is_a_ptpg():
    n = 20000
    rotation = {i: ((i - 2) % n + 1, i % n + 1, 0) for i in range(1, n + 1)}
    rotation[0] = tuple(range(1, n + 1))
    g = EmbeddedGraph(rotation=rotation, outer=tuple(range(1, n + 1)))
    assert validate_ptpg(g).verdict


def test_triangle_bruteforcer_sees_all_faces():
    g = samples.pentagon_with_pocket()
    tri_sets = {frozenset(t) for t in brute_triangles(g)}
    for f in g.inner_faces:
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
