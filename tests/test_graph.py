import json

import pytest

from lplan import samples
from lplan.graph import (
    EmbeddedGraph,
    InconsistentEmbedding,
    common_neighbors,
    cyclic_eq,
    edge_key,
    faces_inside_cycle,
    find_separating_triangles,
    is_biconnected,
    rotate_min,
    validate_ptpg,
    walk_darts,
    _triangles,
)
from lplan.io import ParseError, parse_graph
from lplan.oracle import GenSpec, generate_ptpg

from oracles import brute_separating_triangles, brute_triangles, walk_faces

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


@pytest.mark.parametrize("make", ALL_SAMPLES, ids=lambda f: f.__name__)
def test_common_neighbors_equal_set_intersection(make):
    g = make()
    verts = sorted(g.vertices)
    for u in verts:
        for v in verts:
            if u < v:
                assert set(common_neighbors(g, u, v)) == g.adj[u] & g.adj[v]


@pytest.mark.parametrize("make", ALL_SAMPLES, ids=lambda f: f.__name__)
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
    # pendant vertex 4 hangs inside the triangle, so 1 is a cut vertex
    g = EmbeddedGraph(
        rotation={1: (2, 4, 3), 2: (3, 1), 3: (1, 2), 4: (1,)},
        outer=(1, 2, 3),
    )
    assert not is_biconnected(g)
    assert not validate_ptpg(g).verdict


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
    assert _triangles(g) == brute_triangles(g)
