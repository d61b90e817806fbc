"""Corner label normalization and its flip/rotation chains."""

from __future__ import annotations

import pytest

from oracles import brute_rel_validity

import samples
from lplan import flipping
from lplan.flipping import normalize_labels, pick_first_edge
from lplan.gen import GenSpec, generate_ptpg
from lplan.graph import edge_key
from lplan.pipeline import plan
from lplan.rel import T1, T2, construct_rel, rotate_four_cycle
from samples import label_map

PLANNABLE = (
    samples.pentagon_with_pocket,
    samples.hexagon_ring,
    samples.four_cip_eleven_gon,
    samples.two_fan_hexagon,
    samples.chorded_hexagon,
    samples.octagon_with_fan,
)


@pytest.mark.parametrize("make", PLANNABLE, ids=lambda f: f.__name__)
def test_normalized_corner_labels_differ(make):
    res = plan(make())
    assert res.ok
    a, b, c = res.triplet
    assert res.rel.label(a, b) != res.rel.label(b, c)
    assert brute_rel_validity(res.rel) == (True, None)
    rep = res.normalize
    assert rep.flips == sum(1 for t in rep.trace if t.action == "flip")
    assert rep.rotations == sum(1 for t in rep.trace if t.action == "rotate")


@pytest.mark.parametrize("make", PLANNABLE, ids=lambda f: f.__name__)
def test_trace_replays_onto_a_fresh_labeling(make):
    res = plan(make())
    assert res.ok
    fresh = construct_rel(res.completion)
    for rec in res.normalize.trace:
        if rec.action == "flip":
            from lplan.rel import flip_edge

            flip_edge(fresh, *rec.detail)
        elif rec.action == "rotate":
            cyc, mode = rec.detail
            assert rotate_four_cycle(fresh, cyc) == mode
        # "pre" records are informational; their chain flips follow separately
    assert fresh.color == res.rel.color
    assert fresh.orient == res.rel.orient


def test_chorded_hexagon_needs_flipping():
    g = samples.chorded_hexagon()
    ids = label_map(g)
    res = plan(g)
    assert res.ok
    rep = res.normalize
    assert rep.flips >= 1
    last = rep.trace[-1]
    assert last.action == "flip"
    a, b, c = res.triplet
    assert edge_key(*last.detail) in (edge_key(a, b), edge_key(b, c))
    assert res.rel.label(ids["a"], ids["b"]) == T1
    assert res.rel.label(ids["b"], ids["c"]) == T2


def test_pick_first_edge_targets_the_t2_member():
    g = samples.chorded_hexagon()
    res = plan(g)
    fresh = construct_rel(res.completion)
    a, b, c = res.triplet
    ne = res.completion.ne
    la, lc = fresh.label(a, b), fresh.label(b, c)
    assert la == lc, "fixture is expected to start with tied corner labels"
    want = (b, c) if la == T1 else (a, b)
    assert pick_first_edge(fresh, res.triplet, ne) == (want, ne)
    normalize_labels(fresh, res.triplet, ne)
    assert pick_first_edge(fresh, res.triplet, ne) is None


def test_normalize_is_idempotent_once_settled():
    res = plan(samples.pentagon_with_pocket())
    rep = normalize_labels(res.rel, res.triplet, res.completion.ne)
    assert rep.trace == ()
    assert rep.passes == 0


def test_every_chain_item_steers_with_a_mate_of_a_two_coloured_face(planted_l, monkeypatch):
    # The chain trusts two facts without checking them: each item's steering
    # vertex is a triangle mate of its edge, and the face the item reads
    # has two colours.  Every _classify call on the plannable samples,
    # planted L's and plannable generated graphs is checked for both.
    real = flipping._classify
    calls = 0

    def checked(r, item):
        nonlocal calls
        calls += 1
        assert item.c in flipping._mates(r, item.x, item.y), item
        case, z = real(r, item)
        face = {r.label(item.x, item.y), r.label(item.x, z), r.label(item.y, z)}
        assert face == {T1, T2}, (item, z)
        return case, z

    monkeypatch.setattr(flipping, "_classify", checked)
    graphs = [make() for make in PLANNABLE]
    graphs += [planted_l(n, seed) for n in (20, 35, 60, 100) for seed in range(10)]
    graphs += [generate_ptpg(GenSpec(n=n, seed=seed)) for n in range(6, 61, 2) for seed in range(4)]
    rotated = planned = 0
    for g in graphs:
        res = plan(g)
        planned += res.ok
        rotated += res.ok and res.normalize.rotations > 0
    assert planned > 100 and calls > 500 and rotated, (planned, calls, rotated)
