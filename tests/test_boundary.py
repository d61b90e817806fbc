import math
import random
from collections import Counter

import pytest

import samples
from lplan.boundary import (
    boundary_arc,
    find_cips,
    find_triplets,
    necessary_conditions,
)
from lplan.cli import _necessary_dict
from lplan.gen import GenerationFailed, GenSpec, generate_ptpg
from lplan.graph import EmbeddedGraph, edge_key

from oracles import brute_chords, brute_cips, is_boundary_edge, scan_triplets


@pytest.fixture
def pentagon():
    return samples.pentagon_with_pocket()


def test_boundary_arc_wraps(pentagon):
    assert boundary_arc(pentagon, 4, 2) == (4, 5, 1, 2)
    assert boundary_arc(pentagon, 2, 4) == (2, 3, 4)
    assert boundary_arc(pentagon, 3, 3) == (3,)


def test_is_boundary_edge(pentagon):
    assert is_boundary_edge(pentagon, 1, 2)
    assert is_boundary_edge(pentagon, 5, 1)
    assert not is_boundary_edge(pentagon, 2, 4)  # chord


def test_pentagon_chords_and_shortcuts(pentagon):
    assert list(pentagon.chords) == [(2, 4)]


def test_pentagon_cips(pentagon):
    cips = find_cips(pentagon)
    assert [c.vertices for c in cips] == [(2, 3, 4), (4, 5, 1, 2)]
    assert {edge_key(c.vertices[0], c.vertices[-1]) for c in cips} == {(2, 4)}  # the chord
    assert cips[0].interior == (3,)
    assert cips[1].interior == (5, 1)


def test_chorded_hexagon_cips():
    cips = find_cips(samples.chorded_hexagon())
    assert [c.vertices for c in cips] == [(2, 3, 4, 5, 6), (6, 1, 2)]
    assert {edge_key(c.vertices[0], c.vertices[-1]) for c in cips} == {(2, 6)}


def test_five_cip_fixture_matches_hand_count():
    cips = find_cips(samples.five_cip_thirteen_gon())
    assert [c.vertices for c in cips] == [
        (3, 4, 5),
        (5, 6, 7),
        (7, 8, 9),
        (10, 11, 12),
        (13, 1, 2),
    ]


def test_six_cip_fixture():
    assert len(find_cips(samples.six_cip_twelve_gon())) == 6


def test_no_cips_without_chords():
    assert find_cips(samples.hexagon_ring()) == ()
    assert find_cips(samples.wheel4()) == ()


def test_pentagon_triplets(pentagon):
    trips = find_triplets(pentagon)
    assert [tuple(t) for t in trips] == [(1, 2, 3), (3, 4, 5)]
    # a and c never adjacent, b is their only common neighbour
    for t in trips:
        assert t.c not in pentagon.rotation[t.a]
        assert set(pentagon.rotation[t.a]) & set(pentagon.rotation[t.c]) == {t.b}


def test_chorded_hexagon_triplets():
    trips = find_triplets(samples.chorded_hexagon())
    assert sorted(tuple(t) for t in trips) == [(1, 2, 3), (2, 3, 4), (3, 4, 5), (5, 6, 1)]


def test_wheel_has_no_triplets():
    assert find_triplets(samples.wheel4()) == ()


def _triplet_graphs():
    yield from (make() for make in SAMPLES)
    yield EmbeddedGraph(rotation={1: (2, 3), 2: (3, 1), 3: (1, 2)}, outer=(1, 2, 3))  # K3
    yield EmbeddedGraph(rotation={1: (2, 4, 3), 2: (3, 4, 1), 3: (1, 4, 2), 4: (1, 2, 3)}, outer=(1, 2, 3))  # K4
    for n in range(6, 99, 4):
        for target in (None, 2, 3, 4, 5, 6):
            try:
                yield generate_ptpg(GenSpec(n=n, seed=n, cip_target=target))
            except GenerationFailed:  # small n leave no room for many CIPs
                continue


def test_triplets_match_the_scan_over_every_vertex():
    # The outline's own rows give the triplets the common-neighbour scan gives.
    found = Counter()
    for g in _triplet_graphs():
        got = find_triplets(g)
        assert got == scan_triplets(g), g.outer
        found[bool(got)] += 1
    assert found[False] >= 5 and found[True] >= 100, found


def test_necessary_conditions_pass_and_fail():
    ok = necessary_conditions(samples.pentagon_with_pocket())
    assert ok.ok and ok.cip_count == 2 and len(ok.triplets) > 0

    no_triplet = necessary_conditions(samples.wheel4())
    assert not no_triplet.ok and no_triplet.triplets == ()

    crowded = necessary_conditions(samples.six_cip_twelve_gon())
    assert not crowded.ok and crowded.cip_count == 6
    # condition on triplets can still hold; the CIP count alone refuses
    assert len(crowded.triplets) == 6

    five = necessary_conditions(samples.five_cip_thirteen_gon())
    assert five.ok and five.cip_count == 5
    assert five.cips == find_cips(samples.five_cip_thirteen_gon())


def test_report_dict_shape():
    # the JSON reports name triplets by label, as they name CIPs and failures
    g = samples.pentagon_with_pocket()
    d = _necessary_dict(g, necessary_conditions(g))
    assert d == {"cip_count": 2, "triplets": [["a", "b", "c"], ["c", "d", "e"]], "pass": True}


# -- the nested-chord scan against the arc-walking oracle ----------------------

SAMPLES = (
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


def assert_matches_oracle(g):
    assert list(g.chords) == brute_chords(g)
    assert find_cips(g) == brute_cips(g)


@pytest.mark.parametrize("make", SAMPLES, ids=lambda f: f.__name__)
def test_boundary_layer_matches_oracle_on_samples(make):
    assert_matches_oracle(make())


@pytest.mark.parametrize("n", (8, 12, 18, 26, 40))
def test_boundary_layer_matches_oracle_on_generated_graphs(n):
    for seed in range(10):
        for target in (None, 0, 2, 3):
            assert_matches_oracle(generate_ptpg(GenSpec(n=n, seed=seed, cip_target=target)))


@pytest.mark.parametrize("target", (4, 5))
def test_boundary_layer_matches_oracle_at_high_cip_targets(target):
    for seed in range(4):
        g = generate_ptpg(GenSpec(n=26, seed=seed, cip_target=target))
        assert len(brute_cips(g)) == target
        assert_matches_oracle(g)


def outerplanar_triangulation(k: int, seed: int | None):
    """A k-gon cut into triangles by k - 3 chords, every vertex on the outer cycle.

    Vertices 1..k sit clockwise on a circle.  Ears are clipped at random
    (seed) or all from vertex 1 (seed None, a fan).
    """
    rng = random.Random(seed)
    ring = list(range(1, k + 1))
    edges = [(ring[i - 1], ring[i]) for i in range(k)]
    while len(ring) > 3:
        i = 1 if seed is None else rng.randrange(len(ring))
        edges.append((ring[i - 1], ring[(i + 1) % len(ring)]))
        del ring[i]
    coords = {v: (math.sin(2 * math.pi * v / k), math.cos(2 * math.pi * v / k)) for v in range(1, k + 1)}
    return samples.embed_by_coords(coords, edges, outer=tuple(range(1, k + 1)))


@pytest.mark.parametrize("k", (4, 5, 6, 7, 9, 12, 17))
def test_boundary_layer_matches_oracle_on_small_outerplanar_triangulations(k):
    for seed in (None, *range(25)):
        g = outerplanar_triangulation(k, seed)
        assert len(g.chords) == k - 3
        assert_matches_oracle(g)


@pytest.mark.parametrize("seed", (None, 0, 1, 2))
def test_boundary_layer_matches_oracle_on_a_large_outerplanar_triangulation(seed):
    g = outerplanar_triangulation(400, seed)
    assert len(g.chords) == 397
    assert_matches_oracle(g)
