"""Rectangle extraction, notch removal, and the non-triviality walk."""

from __future__ import annotations

import pytest

from oracles import (
    concave_corner_count,
    covered_cells,
    geometric_adjacency,
    no_overlaps,
)

from lplan import layout, samples
from lplan.graph import edge_key
from lplan.layout import (
    CornerProfile,
    FloorPlan,
    NotCornerModule,
    PointContactAmbiguity,
    Rect,
    corner_profile,
    dual_graph,
    plan_outline,
    profile_from_outline,
    remove_ne,
    rfp_from_rel,
    verify_nontrivial_L,
)
from lplan.pipeline import plan

PLANNABLE = (
    samples.pentagon_with_pocket,
    samples.hexagon_ring,
    samples.four_cip_eleven_gon,
    samples.two_fan_hexagon,
    samples.chorded_hexagon,
    samples.octagon_with_fan,
)


def test_pentagon_layout_is_the_frozen_one():
    res = plan(samples.pentagon_with_pocket())
    assert res.ok
    assert {v: (rc.x1, rc.y1, rc.x2, rc.y2) for v, rc in res.plan.rects.items()} == {
        1: (0, 3, 3, 4),
        2: (2, 1, 4, 3),
        3: (4, 0, 5, 3),
        4: (0, 0, 4, 1),
        5: (0, 1, 1, 3),
        6: (1, 2, 2, 3),
        7: (1, 1, 2, 2),
    }
    assert (res.plan.width, res.plan.height) == (5, 4)
    assert res.profile == CornerProfile(nx=3, ny=3, notch=Rect(3, 3, 5, 4))
    assert plan_outline(res.plan) == ((0, 4), (3, 4), (3, 3), (5, 3), (5, 0), (0, 0))


@pytest.mark.parametrize("make", PLANNABLE, ids=lambda f: f.__name__)
def test_full_plan_tiles_its_bounding_box(make):
    res = plan(make())
    fp = res.full_plan
    assert no_overlaps(fp)
    assert covered_cells(fp) == {
        (x, y) for x in range(fp.width) for y in range(fp.height)
    }
    assert concave_corner_count(fp) == 0
    assert plan_outline(fp) == ((0, fp.height), (fp.width, fp.height), (fp.width, 0), (0, 0))


@pytest.mark.parametrize("make", PLANNABLE, ids=lambda f: f.__name__)
def test_l_plan_misses_exactly_the_notch(make):
    res = plan(make())
    fp, pr = res.plan, res.profile
    assert no_overlaps(fp)
    notch = {
        (x, y) for x in range(pr.nx, fp.width) for y in range(pr.ny, fp.height)
    }
    assert notch
    full = {(x, y) for x in range(fp.width) for y in range(fp.height)}
    assert covered_cells(fp) == full - notch
    assert concave_corner_count(fp) == 1


@pytest.mark.parametrize("make", PLANNABLE, ids=lambda f: f.__name__)
def test_walls_realize_the_completion_adjacencies(make):
    res = plan(make())
    poles = set(res.completion.pole_ids)
    want = {
        e for e in res.completion.base.edges if not (set(e) & poles)
    }
    assert geometric_adjacency(res.full_plan) == want


@pytest.mark.parametrize("make", PLANNABLE, ids=lambda f: f.__name__)
def test_dual_graph_restores_the_input(make):
    g = make()
    res = plan(g)
    dual = dual_graph(res.plan)
    assert dual.edges == g.edges
    assert set(dual.vertices) == set(g.vertices)
    for v, name in g.labels.items():
        assert dual.labels.get(v) == name


def test_remove_ne_strips_module_and_label():
    res = plan(samples.pentagon_with_pocket())
    ne = res.completion.ne
    fp, pr = remove_ne(res.full_plan, ne)
    assert ne not in fp.rects and ne not in fp.labels
    assert pr.notch == res.full_plan.rects[ne]
    assert profile_from_outline(fp) == pr


def test_corner_profile_rejects_non_corner_modules():
    res = plan(samples.pentagon_with_pocket())
    with pytest.raises(NotCornerModule):
        corner_profile(res.full_plan, 4)  # module 4 sits at the south-west
    with pytest.raises(NotCornerModule):
        profile_from_outline(res.full_plan)  # no notch on the full plan


def test_rect_extraction_from_raw_rel():
    res = plan(samples.hexagon_ring())
    fp = rfp_from_rel(res.rel)
    assert fp.rects == res.full_plan.rects


def test_trivial_and_staircase_verdicts():
    triv = samples.trivial_l_plan()
    stair = samples.staircase_l_plan()
    assert not verify_nontrivial_L(triv, profile_from_outline(triv)).nontrivial
    v = verify_nontrivial_L(stair, profile_from_outline(stair))
    assert v.nontrivial and v.witness is not None


def test_pinwheel_point_contact_is_ambiguous():
    fp = FloorPlan(
        rects={
            1: Rect(0, 0, 1, 1),
            2: Rect(1, 0, 2, 1),
            3: Rect(0, 1, 1, 2),
            4: Rect(1, 1, 2, 2),
        },
        width=2,
        height=2,
        labels={},
    )
    with pytest.raises(PointContactAmbiguity):
        dual_graph(fp)


def test_overlapping_modules_are_rejected():
    fp = FloorPlan(
        rects={1: Rect(0, 0, 2, 2), 2: Rect(1, 1, 3, 3)},
        width=3,
        height=3,
        labels={},
    )
    with pytest.raises(ValueError):
        dual_graph(fp)


def test_nontriviality_walk_on_the_pentagon():
    res = plan(samples.pentagon_with_pocket())
    assert res.verdict.nontrivial
    assert res.verdict.walk == (1, 2, 3)
    assert res.verdict.witness == (1, 2, 3)


def test_longest_paths_survive_a_deep_wall_chain():
    # Listed sink first, the chain is 3000 walls deep from its source.
    depth = layout._longest_paths([(i + 1, i) for i in range(3000)], 3000)
    assert depth[3000] == 0 and depth[0] == 3000


def test_longest_paths_reject_a_cycle():
    with pytest.raises(ValueError):
        layout._longest_paths([(1, 2), (2, 3), (3, 1), (0, 1)], 0)


def test_modules_ringing_a_hole_are_rejected():
    fp = FloorPlan(
        rects={
            1: Rect(0, 0, 2, 1),
            2: Rect(2, 0, 3, 2),
            3: Rect(1, 2, 3, 3),
            4: Rect(0, 1, 1, 3),
        },
        width=3,
        height=3,
        labels={},
    )
    with pytest.raises(ValueError):
        plan_outline(fp)
    with pytest.raises(ValueError):
        dual_graph(fp)


def test_module_on_separated_outline_stretches_is_ambiguous():
    # The middle strip meets the outline on the west and on the east side.
    fp = FloorPlan(
        rects={1: Rect(0, 0, 3, 1), 2: Rect(0, 1, 3, 2), 3: Rect(0, 2, 3, 3)},
        width=3,
        height=3,
        labels={},
    )
    with pytest.raises(PointContactAmbiguity):
        dual_graph(fp)


def test_rect_extraction_rejects_an_uncovered_cell(monkeypatch):
    # Draw module 3 of the pentagon one unit short: cell (4, 2) stays empty.
    res = plan(samples.pentagon_with_pocket())
    assert res.full_plan.rects[3] == Rect(4, 0, 5, 3)
    drawn = layout.Rect

    def short_three(x1, y1, x2, y2):
        return drawn(x1, y1, x2, y2 - ((x1, y1, x2, y2) == (4, 0, 5, 3)))

    monkeypatch.setattr(layout, "Rect", short_three)
    with pytest.raises(ValueError):
        rfp_from_rel(res.rel)


def test_a_plan_is_swept_once_for_its_dual_and_its_document(monkeypatch):
    # One sweep checks the full plan's tiling, one serves the L plan's
    # dual graph and then its outline in the plan document.
    from lplan.io import plan_to_doc

    sweeps = []
    sweep = layout._stretches

    def counted(rects):
        sweeps.append(len(rects))
        return sweep(rects)

    monkeypatch.setattr(layout, "_stretches", counted)
    res = plan(samples.pentagon_with_pocket())
    doc = plan_to_doc(res)
    assert sweeps == [len(res.full_plan.rects), len(res.plan.rects)]
    assert doc["outline"] == [[0, 4], [3, 4], [3, 3], [5, 3], [5, 0], [0, 0]]
