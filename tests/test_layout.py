"""Rectangle extraction, notch removal, and the non-triviality walk."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from completions import tiny_completions
from oracles import (
    concave_corner_count,
    covered_cells,
    enumerate_rels,
    face_walk_rects,
    face_walk_segments,
    geometric_adjacency,
    is_flippable_edge,
    is_flippable_vertex,
    line_sweep_stretches,
    no_overlaps,
    profile_from_outline,
    scan_nontrivial_L,
)

from lplan import layout
import samples
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
    remove_ne,
    rfp_from_rel,
    verify_nontrivial_L,
)
from lplan.gen import GenSpec, generate_ptpg
from lplan.pipeline import plan
from lplan.rel import (
    T1,
    T2,
    NotFlippable,
    construct_rel,
    flip_edge,
    rotate_four_cycle,
)

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


def assert_segments_match_face_walks(r):
    """The union-find's segments are the face walks', up to renumbering, and draw the same plan."""
    sides, (ny, _), (nx, _) = layout._segment_graph(r)
    want, wx, wy = face_walk_segments(r)
    assert list(sides) == list(want)
    for axis, count, faces in (((0, 1), ny, wy), ((2, 3), nx, wx)):
        pairs = {(sides[v][i], want[v][i]) for v in sides for i in axis}
        assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs}) == count
        assert faces == count + 1  # the color subgraph's outer face is on no module side
    assert rfp_from_rel(r).rects == face_walk_rects(r)


def test_segments_match_face_walks_on_every_tiny_labeling():
    rels = [r for ag in tiny_completions() for r in enumerate_rels(ag)]
    assert len(rels) == 15
    for r in rels:
        assert_segments_match_face_walks(r)


@pytest.mark.parametrize("make", PLANNABLE, ids=lambda f: f.__name__)
def test_segments_match_face_walks_on_samples(make):
    res = plan(make())
    assert_segments_match_face_walks(construct_rel(res.completion))  # before normalization
    assert_segments_match_face_walks(res.rel)


@pytest.mark.parametrize("n, seed", [(8, 0), (12, 1), (20, 2), (35, 1), (60, 2), (100, 1), (150, 2)])
def test_segments_match_face_walks_on_generated(n, seed):
    res = plan(generate_ptpg(GenSpec(n=n, seed=seed)))
    assert res.ok
    assert_segments_match_face_walks(construct_rel(res.completion))
    assert_segments_match_face_walks(res.rel)


def _rotate_some_four_cycle(r, rng) -> bool:
    g, poles = r.graph, set(r.pole_ids)
    inner = [v for v in g.vertices if v not in poles]
    cycles = [
        (a, b, c, d)
        for a in inner
        for b in g.rotation[a]
        for c in g.rotation[b]
        for d in g.rotation[c]
        if a in g.rotation[d] and len({a, b, c, d}) == 4 and poles.isdisjoint((b, c, d))
    ]
    rng.shuffle(cycles)
    for cyc in cycles:
        try:
            rotate_four_cycle(r.clone(), cyc)
        except NotFlippable:
            continue
        rotate_four_cycle(r, cyc)
        return True
    return False


def test_segments_match_face_walks_under_fuzzed_moves():
    # Flips and 4-cycle rotations as in criterion c05, each labeling checked.
    rng = random.Random(20261019)
    checked = Counter()
    for seed in range(2000, 2012):
        res = plan(generate_ptpg(GenSpec(n=8 + seed % 7, seed=seed)))
        if not res.ok:
            continue
        r = construct_rel(res.completion)
        poles = set(r.pole_ids)
        edges = [e for e in sorted(r.color) if poles.isdisjoint(e)]
        inner = [v for v in r.graph.vertices if v not in poles]
        for _ in range(30):
            move = rng.choice(("edge", "edge", "vertex", "rotation"))
            if move == "edge":
                flippable = [e for e in edges if is_flippable_edge(r, *e)]
                if not flippable:
                    continue
                flip_edge(r, *rng.choice(flippable))
            elif move == "vertex":
                flippable = [v for v in inner if is_flippable_vertex(r, v)]
                if not flippable:
                    continue
                rotate_four_cycle(r, r.graph.rotation[rng.choice(flippable)])
            elif not _rotate_some_four_cycle(r, rng):
                continue
            assert_segments_match_face_walks(r)
            checked[move] += 1
    assert set(checked) == {"edge", "vertex", "rotation"} and sum(checked.values()) >= 200


def test_longest_paths_survive_a_deep_wall_chain():
    # Listed sink first, the chain is 3000 walls deep from its source.
    depth = layout._longest_paths(3001, [(i + 1, i) for i in range(3000)])
    assert depth[3000] == 0 and depth[0] == 3000


def test_longest_paths_reject_a_cycle():
    with pytest.raises(ValueError):
        layout._longest_paths(4, [(1, 2), (2, 3), (3, 1), (0, 1)])


# Per module: the refusal after all its edges are recolored T1, then T2.
# A neighbor whose ring loses a block may be named first.
BROKEN_RINGS = {
    "pentagon_with_pocket": {
        1: ((1, "T2out"), (1, "T1out")),
        2: ((2, "T2out"), (2, "T1in")),
        3: ((2, "T2out"), (3, "T1in")),
        4: ((4, "T2in"), (2, "T1in")),
        5: ((5, "T2out"), (5, "T1out")),
        6: ((6, "T2out"), (6, "T1in")),
        7: ((7, "T2out"), (6, "T1in")),
        8: ((1, "T2out"), (8, "T1in")),
    },
    "hexagon_ring": {
        1: ((1, "T2out"), (1, "T1out")),
        2: ((2, "T2out"), (2, "T1in")),
        3: ((2, "T2out"), (3, "T1in")),
        4: ((4, "T2in"), (4, "T1out")),
        5: ((5, "T2out"), (5, "T1out")),
        6: ((6, "T2out"), (5, "T1out")),
        7: ((2, "T2in"), (7, "T1in")),
        8: ((8, "T2out"), (2, "T1in")),
        9: ((5, "T2out"), (7, "T1in")),
        10: ((1, "T2out"), (10, "T1in")),
    },
    "octagon_with_fan": {
        1: ((1, "T2out"), (1, "T1out")),
        2: ((2, "T2out"), (2, "T1in")),
        3: ((3, "T2in"), (3, "T1in")),
        4: ((4, "T2in"), (4, "T1out")),
        5: ((5, "T2out"), (5, "T1out")),
        6: ((6, "T2out"), (5, "T1out")),
        7: ((7, "T2out"), (2, "T1in")),
        8: ((2, "T2in"), (8, "T1out")),
        9: ((5, "T2out"), (9, "T1in")),
        10: ((1, "T2out"), (10, "T1in")),
    },
}


@pytest.mark.parametrize(
    "make",
    (samples.pentagon_with_pocket, samples.hexagon_ring, samples.octagon_with_fan),
    ids=lambda f: f.__name__,
)
def test_a_ring_missing_a_block_is_refused_by_name(make):
    rel = plan(make()).rel
    want = BROKEN_RINGS[make.__name__]
    assert sorted(want) == [v for v in rel.graph.vertices if v not in rel.pole_ids]
    for v, expected in want.items():
        for color, (w, block) in zip((T1, T2), expected):
            broken = rel.clone()
            for u in rel.graph.rotation[v]:
                broken.color[edge_key(u, v)] = color
            with pytest.raises(ValueError) as exc:
                rfp_from_rel(broken)
            assert type(exc.value) is ValueError
            assert str(exc.value) == f"vertex {w} has no {block} edge", (v, color)


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
    # One sweep checks the full plan's tiling; the L plan inherits it for
    # its dual graph and then its outline in the plan document.
    from lplan.io import plan_to_doc

    sweeps = []
    sweep = layout._stretches

    def counted(rects):
        sweeps.append(len(rects))
        return sweep(rects)

    monkeypatch.setattr(layout, "_stretches", counted)
    res = plan(samples.pentagon_with_pocket())
    doc = plan_to_doc(res)
    assert sweeps == [len(res.full_plan.rects)]
    assert doc["outline"] == [[0, 4], [3, 4], [3, 3], [5, 3], [5, 0], [0, 0]]


def _plans():
    for make in PLANNABLE:
        yield make.__name__, plan(make())
    for seed in range(24):
        n = 8 + (seed * 11) % 53  # n from 8 to 60
        yield f"generated n={n} seed={seed}", plan(generate_ptpg(GenSpec(n=n, seed=seed)))


def test_the_l_plan_inherits_the_sweep_a_fresh_one_would_give():
    planned = 0
    for name, res in _plans():
        if not res.ok:
            continue
        planned += 1
        assert res.plan.walls == layout._stretches(res.plan.rects), name
    assert planned >= len(PLANNABLE) + 20


@pytest.mark.parametrize("make", PLANNABLE, ids=lambda f: f.__name__)
def test_taking_any_module_out_keeps_the_sweep(make):
    # Out of a plan that tiles its box no stretches merge; out of the L,
    # a module on the notch leaves stretches that do.
    res = plan(make())
    for fp in (res.full_plan, res.plan):
        for v in fp.rects:
            rest = {u: rc for u, rc in fp.rects.items() if u != v}
            assert layout._walls_without(fp.walls, v) == layout._stretches(rest)


def _verdict_or_error(verify, fp, profile):
    try:
        return verify(fp, profile)
    except ValueError as exc:
        return str(exc)


def test_the_notch_walk_off_the_sweep_matches_the_scans():
    fixtures = [samples.trivial_l_plan(), samples.staircase_l_plan()]
    cases = [(fp, profile_from_outline(fp)) for fp in fixtures]
    graphs = [make() for make in PLANNABLE]
    graphs += [generate_ptpg(GenSpec(n=n, seed=seed)) for n in range(6, 61) for seed in range(4)]
    for g in graphs:
        res = plan(g)
        if res.ok:
            cases.append((res.plan, res.profile))
    assert len(cases) > 150
    for fp, profile in cases:
        got = _verdict_or_error(verify_nontrivial_L, fp, profile)
        assert isinstance(got, layout.NonTrivialityVerdict)
        assert got == _verdict_or_error(scan_nontrivial_L, fp, profile)


def test_the_notch_walk_refuses_as_the_scans_do():
    pentagon = plan(samples.pentagon_with_pocket())
    rects = dict(pentagon.plan.rects)
    assert rects[2] == Rect(2, 1, 4, 3) and pentagon.profile.nx == pentagon.profile.ny == 3
    # Module 2 cut in two at x = 3: its west half ends on both notch lines
    # at the corner, so three modules meet there, and it is on neither wall.
    rects[2], rects[8] = Rect(2, 1, 3, 3), Rect(3, 1, 4, 3)
    three = FloorPlan(rects=rects, width=5, height=4, labels={})
    # The staircase with its top module lifted one unit off the one below.
    stair = samples.staircase_l_plan()
    lifted = {**stair.rects, 1: Rect(0, 3, 1, 4)}
    gap = FloorPlan(rects=lifted, width=3, height=4, labels={})
    for fp, profile, message in (
        (three, pentagon.profile, "3 modules meet the concave corner, need 2"),
        (gap, CornerProfile(nx=1, ny=1, notch=Rect(1, 1, 3, 4)), "walk neighbors 1,2 do not touch"),
    ):
        assert _verdict_or_error(verify_nontrivial_L, fp, profile) == message
        assert _verdict_or_error(scan_nontrivial_L, fp, profile) == message


def _sweep_or_error(sweep, rects):
    try:
        return sweep(rects)
    except ValueError as exc:
        return str(exc)


def _dissection(n: int, rng: random.Random) -> dict[int, Rect]:
    """A random L dissection of n modules: guillotine cuts of a box, its north-east module dropped.

    Ids are shuffled so the rects are not met in id order.
    """
    size = 4 * n
    rects = [Rect(0, 0, size, size)]
    while len(rects) < n + 1:
        rc = rects.pop(rng.randrange(len(rects)))
        if rc.width > 1 and (rc.height < 2 or rng.random() < 0.5):
            x = rng.randrange(rc.x1 + 1, rc.x2)
            rects += (Rect(rc.x1, rc.y1, x, rc.y2), Rect(x, rc.y1, rc.x2, rc.y2))
        elif rc.height > 1:
            y = rng.randrange(rc.y1 + 1, rc.y2)
            rects += (Rect(rc.x1, rc.y1, rc.x2, y), Rect(rc.x1, y, rc.x2, rc.y2))
        else:
            rects.append(rc)
    rects.remove(max(rects, key=lambda rc: (rc.x2 + rc.y2, rc.y2)))
    ids = rng.sample(range(1, 3 * n), n)
    return dict(zip(ids, rects))


def test_one_sort_per_axis_sweeps_as_line_by_line():
    cases = []
    for _, res in _plans():
        if res.ok:
            cases += (res.full_plan.rects, res.plan.rects)
    for n, seed in ((100, 1), (150, 2)):
        res = plan(generate_ptpg(GenSpec(n=n, seed=seed)))
        assert res.ok
        cases += (res.full_plan.rects, res.plan.rects)
    rng = random.Random(20)
    cases += [_dissection(rng.randint(1, 150), rng) for _ in range(60)]
    for rects in cases:
        got = layout._stretches(rects)
        assert got == line_sweep_stretches(rects)


def test_one_sort_per_axis_raises_as_line_by_line():
    # Overlaps and degenerate rectangles, alone and together: the same
    # error, with the same text, names the same pair or module.
    rng = random.Random(21)
    texts = set()
    for trial in range(400):
        rects = _dissection(rng.randint(2, 30), rng)
        ids = list(rects)
        for _ in range(rng.randint(1, 3)):
            v = rng.choice(ids)
            x1, y1, x2, y2 = rects[v]
            kind = rng.randrange(4)
            if kind == 0:  # grow into a neighbour or past the box
                rects[v] = Rect(x1 - rng.randint(0, 2), y1, x2 + rng.randint(0, 2), y2 + rng.randint(0, 2))
            elif kind == 1:  # a copy under a new id
                rects[max(ids) + 1 + trial] = rects[v]
            elif kind == 2:  # flattened to a line or a point
                rects[v] = Rect(x1, y1, x1 + rng.randint(-1, 0) * (x2 - x1), y2)
            else:  # a stray module anywhere, at negative coordinates too
                a, b = rng.randint(-3, 40), rng.randint(-3, 40)
                rects[rng.randint(-5, 200)] = Rect(a, b, a + rng.randint(1, 6), b + rng.randint(1, 6))
        got = _sweep_or_error(layout._stretches, rects)
        assert got == _sweep_or_error(line_sweep_stretches, rects)
        if isinstance(got, str):
            texts.add(got.split()[2] == "and")
    assert texts == {True, False}  # both overlaps and degenerate rectangles were met
