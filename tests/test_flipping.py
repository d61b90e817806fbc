"""Corner label normalization and its flip/rotation chains."""

from __future__ import annotations

import pytest

from oracles import brute_rel_validity

import samples
from lplan.flipping import (
    NormalizationFailed,
    WorkItem,
    _run_chain,
    normalize_labels,
    pick_first_edge,
)
from lplan.graph import common_neighbors, edge_key
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


def test_chain_rejects_a_bad_steering_vertex():
    res = plan(samples.hexagon_ring())
    r = construct_rel(res.completion)
    poles = set(r.pole_ids)
    for e in sorted(r.color):
        x, y = e
        if x in poles or y in poles:
            continue
        common = common_neighbors(r.graph, x, y)
        if len(common) != 2:
            continue
        outsider = next(
            (v for v in r.graph.vertices if v not in common and v not in e), None
        )
        if outsider is None:
            continue
        with pytest.raises(NormalizationFailed, match="has common neighbors"):
            _run_chain(r, [WorkItem(x, y, outsider)], [], 1)
        return
    pytest.skip("no interior edge with two common neighbors")
