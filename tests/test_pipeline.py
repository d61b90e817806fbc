"""End-to-end outcomes of plan() and rectangular_plan()."""

from __future__ import annotations

import copy
import functools
import pickle
from collections import Counter

import pytest

from oracles import (
    attach_outside,
    brute_walk_darts,
    faces,
    geometric_adjacency,
    padded_rectangular_plan,
)
from test_graph import k4, octahedron

import lplan.rel as relmod
import samples
from lplan.boundary import find_cips, find_triplets
from lplan.flipping import FlipRecord, NormalizeReport
from lplan.gen import GenerationFailed, GenSpec, generate_ptpg
from lplan.graph import EmbeddedGraph, edge_key, validate_ptpg
from lplan.layout import FloorPlan, Rect, dual_graph
from lplan.paths import select_paths
from lplan.pipeline import (
    InvalidInput,
    PlanOptions,
    TripletFailure,
    _plan_mismatch,
    plan,
    rectangular_plan,
)

PLAN_OUTCOMES = {
    "pentagon_with_pocket": "Plan",
    "hexagon_ring": "Plan",
    "four_cip_eleven_gon": "Plan",
    "two_fan_hexagon": "Plan",
    "chorded_hexagon": "Plan",
    "octagon_with_fan": "Plan",
    "wheel4": "NoTriplet",
    "five_cip_thirteen_gon": "Plan",
    "six_cip_twelve_gon": "TooManyCips",
}


@pytest.mark.parametrize("name", sorted(PLAN_OUTCOMES))
def test_plan_outcome(name):
    res = plan(getattr(samples, name)())
    assert res.outcome == PLAN_OUTCOMES[name]
    assert res.ok == (res.outcome == "Plan")
    if res.ok:
        assert res.plan is not None and res.rel is not None
        assert res.refusal_kind is None
    else:
        assert res.plan is None
        assert res.refusal_kind is not None


def test_plan_walks_triplets_clockwise_from_lowest():
    res = plan(samples.pentagon_with_pocket())
    assert tuple(res.triplet) == (1, 2, 3)


def test_refusal_carries_per_triplet_failures():
    res = plan(samples.five_cip_refusal(), PlanOptions(triplet=samples.FIVE_CIP_CORNER))
    assert res.outcome == "InfeasibleAllTriplets"
    assert res.failures == (
        TripletFailure(samples.FIVE_CIP_CORNER, "paths", "ShortcutP2Side(1, 3)", True),
    )


def test_pinned_triplet_with_five_cips_is_a_final_refusal():
    res = plan(samples.five_cip_refusal(), PlanOptions(triplet=samples.FIVE_CIP_CORNER))
    assert res.outcome == "InfeasibleAllTriplets"
    assert res.refusal_kind == "five-cips-fixed-triplet"
    assert res.failures[-1].final


def test_pinned_refusal_with_four_cips_is_not_a_five_cip_refusal():
    g = generate_ptpg(GenSpec(n=40, seed=4, cip_target=4))
    assert len(find_cips(g)) == 4
    # The flip chain reaches pole 43 here, so the completion is labeled
    # again with the corner colours pinned.
    res = plan(g, PlanOptions(triplet=(25, 29, 35)))
    assert res.ok and res.refusal_kind is None and not res.failures
    assert res.normalize == NormalizeReport(trace=(FlipRecord("pin", (25, 29, 35)),), passes=0)


def test_no_triplet_with_at_most_four_cips_is_refused_at_paths():
    # With four CIPs or fewer the splits are never fixed, and the scan
    # finds a path set at every admissible corner.
    pairs = 0
    for n in range(6, 21):
        for target in (None, 2, 3, 4):
            for seed in range(10):
                try:
                    g = generate_ptpg(GenSpec(n, seed, target))
                except GenerationFailed:
                    continue
                cips = find_cips(g)
                if len(cips) <= 4:
                    for t in find_triplets(g):
                        select_paths(g, t, cips)  # Infeasible is a refusal
                        pairs += 1
    assert pairs == 2485


@pytest.mark.parametrize(
    "spec, triplet",
    [
        (GenSpec(12, 9, cip_target=4), (4, 1, 7)),
        (GenSpec(12, 13, cip_target=4), (4, 1, 9)),
        (GenSpec(14, 0, cip_target=4), (8, 5, 13)),
        (GenSpec(26, 8, cip_target=4), (22, 4, 19)),
        # two path sets, s5 at 52 or 48; the flip chain of the one at 48
        # reaches the north pole, so normalization fails on it
        (GenSpec(52, 2, cip_target=5), (44, 51, 39)),
    ],
    ids=lambda x: "-".join(map(str, x)),
)
def test_pinned_triplets_with_a_path_set_plan(spec, triplet):
    # but the first four: path sets that a search over one vertex per CIP
    # plus padding missed
    res = plan(generate_ptpg(spec), PlanOptions(triplet=triplet))
    assert res.ok, res.failures
    assert tuple(res.triplet) == triplet and not res.failures


@functools.lru_cache(maxsize=None)
def pinned_outcomes() -> tuple[tuple[tuple, bool, tuple[TripletFailure, ...]], ...]:
    """(n, seed, target, triplet), ok and failures of plan() pinned at each admissible triplet.

    The graphs are those with at most five CIPs from generate_ptpg n 8-60
    (step 4), seeds 0-5 and targets None/4/5.
    """
    out = []
    for n in range(8, 61, 4):
        for seed in range(6):
            for target in (None, 4, 5):
                try:
                    g = generate_ptpg(GenSpec(n, seed, target))
                except GenerationFailed:
                    continue
                if len(find_cips(g)) <= 5:
                    for t in find_triplets(g):
                        res = plan(g, PlanOptions(triplet=tuple(t)))
                        out.append(((n, seed, target, tuple(t)), res.ok, res.failures))
    return tuple(out)


def test_pinned_triplets_fail_only_at_paths_or_at_a_pole():
    # A paths failure is a certificate.  A flip chain that reaches a pole
    # (50 of these triplets) is re-solved with the corner colours pinned,
    # so no triplet fails in normalize.
    refused = Counter()
    for key, _, failures in pinned_outcomes():
        for f in failures:
            assert f.stage == "paths" and f.final, (key, f)
        refused.update(f.stage for f in failures)
    assert len(pinned_outcomes()) == 1778
    assert refused == {"paths": 67}


def test_a_pinned_triplet_that_passes_paths_plans():
    for key, ok, failures in pinned_outcomes():
        assert ok or failures[-1].stage == "paths", (key, failures)


def test_pinned_triplet_must_be_admissible():
    g = samples.pentagon_with_pocket()
    unlabelled = EmbeddedGraph(rotation=g.rotation, outer=g.outer)
    for graph, names in ((g, "(a,b,d)"), (unlabelled, "(1,2,4)")):
        with pytest.raises(InvalidInput) as exc:
            plan(graph, PlanOptions(triplet=(1, 2, 4)))
        assert str(exc.value) == f"{names} is not an admissible corner triplet"


def test_non_ptpg_inputs_are_rejected_up_front():
    with pytest.raises(InvalidInput) as exc:
        plan(samples.nested_triangle())
    assert "separating triangles" in str(exc.value)
    with pytest.raises(InvalidInput):
        rectangular_plan(samples.nested_triangle())


def test_pin_survives_on_a_successful_graph():
    res = plan(samples.pentagon_with_pocket(), PlanOptions(triplet=(3, 4, 5)))
    assert res.ok
    assert tuple(res.triplet) == (3, 4, 5)


# -- rectangular variant -------------------------------------------------------


def k3() -> EmbeddedGraph:
    return EmbeddedGraph(rotation={1: (2, 3), 2: (3, 1), 3: (1, 2)}, outer=(1, 2, 3))


RECT_OK = {
    "pentagon_with_pocket": samples.pentagon_with_pocket,
    "hexagon_ring": samples.hexagon_ring,
    "four_cip_eleven_gon": samples.four_cip_eleven_gon,
    "two_fan_hexagon": samples.two_fan_hexagon,
    "chorded_hexagon": samples.chorded_hexagon,
    "octagon_with_fan": samples.octagon_with_fan,
    "wheel4": samples.wheel4,
    "k3": k3,  # three outer vertices: one corner is doubled
}


@pytest.mark.parametrize("name", RECT_OK)
def test_rectangular_plan_succeeds_with_few_cips(name):
    g = RECT_OK[name]()
    res = rectangular_plan(g)
    assert res.ok, res.reason
    assert len(res.cips) <= 4
    assert set(res.plan.rects) == set(g.vertices)
    assert geometric_adjacency(res.plan) == g.edges


@pytest.mark.parametrize("name", ("five_cip_thirteen_gon", "six_cip_twelve_gon"))
def test_rectangular_plan_refuses_five_or_more_cips(name):
    g = getattr(samples, name)()
    res = rectangular_plan(g)
    assert res.outcome == "TooManyCips"
    assert len(res.cips) == len(find_cips(g)) > 4
    assert res.plan is None


def _rect_sweep():
    """The samples, c04's 200 graphs, and graphs grown to two to four CIPs.

    No graph has exactly one CIP (each side of a chord holds one), so a
    target of one is left out: it never generates.
    """
    yield from (getattr(samples, name)() for name in PLAN_OUTCOMES)
    yield k3()
    specs = [GenSpec(n=6 + i % 55, seed=1000 + i) for i in range(200)]
    specs += [GenSpec(n, seed, k) for k in (2, 3, 4) for n in range(8, 61, 2) for seed in range(4)]
    for spec in specs:
        try:
            yield generate_ptpg(spec)
        except GenerationFailed:
            pass


def test_rectangular_corners_match_the_padded_search():
    seen = 0
    for g in _rect_sweep():
        res, ref = rectangular_plan(g), padded_rectangular_plan(g)
        assert res.ok == ref.ok, (g.outer, res.outcome, ref.outcome)
        if not res.ok:
            assert res.outcome == ref.outcome == "TooManyCips"
            continue
        seen += 1
        corners = {path[0] for path in res.completion.pprime}
        assert all(corners & set(c.interior) for c in res.cips), (g.outer, corners)
        assert validate_ptpg(res.completion.base).verdict
        assert geometric_adjacency(res.plan) == g.edges
    assert seen > 500



# generate_ptpg graphs past c06's n 6-40: n 41-98 in steps of 3, seeds 0 and
# 1, every CIP target; each generates in under 0.2 s.
PAST_C06 = [
    GenSpec(n, seed, target)
    for n in range(41, 101, 3)
    for seed in (0, 1)
    for target in (None, 2, 3, 4, 5, 6)
]


def test_plan_gives_an_outcome_past_c06s_sizes():
    # On a valid PTPG the only exception either entry point may raise is
    # InvalidInput; any other propagates and fails the test.  K4 and the
    # octahedron have triangular outlines around inner vertices.
    allowed = {
        "plan": {"Plan", "NoTriplet", "TooManyCips", "InfeasibleAllTriplets"},
        "rectangular_plan": {"Plan", "TooManyCips", "TriangleOutline", "Exhausted"},
    }
    seen = Counter()
    for g in [generate_ptpg(spec) for spec in PAST_C06] + [k4(), octahedron()]:
        for run in (plan, rectangular_plan):
            try:
                outcome = run(g).outcome
            except InvalidInput:
                outcome = "InvalidInput"
            assert outcome in allowed[run.__name__] | {"InvalidInput"}, (g.outer, run.__name__)
            seen[run.__name__, outcome] += 1
    assert seen["plan", "Plan"] > 150 and seen["plan", "TooManyCips"] > 40, seen
    assert seen["rectangular_plan", "TriangleOutline"] == 2, seen


def test_a_label_search_past_its_cap_names_the_cap(monkeypatch):
    # four_cip_eleven_gon's search takes 9 nodes, more than a cap of 4
    monkeypatch.setattr(relmod, "_NODE_CAP", 4)
    res = plan(samples.four_cip_eleven_gon())
    hit = [f for f in res.failures if f.stage == "rel"]
    assert hit, res.failures
    assert all(f.reason == "label search exceeded its cap of 4 nodes" for f in hit), hit
    assert not any(f.final for f in hit)


def test_a_rectangular_label_search_past_its_cap_is_exhausted(monkeypatch):
    monkeypatch.setattr(relmod, "_NODE_CAP", 4)
    res = rectangular_plan(samples.four_cip_eleven_gon())
    assert res.outcome == "Exhausted" and res.plan is None
    assert res.reason == "label search exceeded its cap of 4 nodes"


PLANNABLE = sorted(name for name, outcome in PLAN_OUTCOMES.items() if outcome == "Plan")


def test_plan_builds_no_graph(monkeypatch):
    graphs = {name: getattr(samples, name)() for name in PLANNABLE}
    built: list[EmbeddedGraph] = []
    check = EmbeddedGraph.__post_init__

    def counted(self):
        check(self)
        built.append(self)

    monkeypatch.setattr(EmbeddedGraph, "__post_init__", counted)
    for name, g in graphs.items():
        built.clear()
        res = plan(g)
        assert res.ok, name
        # the completion, the north-east module and the four poles, extends
        # g's checked structure; the plan is verified against g without a
        # graph of its own
        assert built == [], name
        assert len(res.completion.base.vertices) - len(g.vertices) == 5, name


# -- verification against the input's embedding ------------------------------


def _with_outer_chord(g: EmbeddedGraph) -> tuple[EmbeddedGraph, tuple[int, int]]:
    """g plus one edge drawn outside it, across the first outer vertex it can skip."""
    n = len(g.outer)
    for i in range(n):
        a, b, c = g.outer[i - 1], g.outer[i], g.outer[(i + 1) % n]
        if c in g.rotation[a]:
            continue
        rot = {v: list(nbrs) for v, nbrs in g.rotation.items()}
        # an outer vertex meets the outer face just after its predecessor
        rot[a].insert(rot[a].index(g.outer[i - 2]) + 1, c)
        rot[c].insert(rot[c].index(b) + 1, a)
        h = EmbeddedGraph(
            rotation={v: tuple(nbrs) for v, nbrs in rot.items()},
            outer=tuple(v for v in g.outer if v != b),
            labels=g.labels,
        )
        return h, edge_key(a, c)
    raise AssertionError("no outer vertex can be skipped")


@pytest.mark.parametrize("name", PLANNABLE)
def test_a_mirrored_plan_has_the_edges_but_is_refused(name):
    g = getattr(samples, name)()
    fp = plan(g).plan
    assert _plan_mismatch(g, fp) is None
    w = fp.width
    mirrored = FloorPlan(
        rects={v: Rect(w - rc.x2, rc.y1, w - rc.x1, rc.y2) for v, rc in fp.rects.items()},
        width=w,
        height=fp.height,
        labels=fp.labels,
    )
    assert dual_graph(mirrored).edges == g.edges  # an edge compare would accept it
    assert _plan_mismatch(g, mirrored).startswith(
        "every adjacency matches, but the embedding differs at the rotation of "
    )


@pytest.mark.parametrize("name", PLANNABLE)
def test_verification_names_a_missing_module_contact_or_label(name):
    g = getattr(samples, name)()
    fp = plan(g).plan
    top = g.vertices[-1] + 1
    bigger = attach_outside(g, g.outer[:2], top)
    assert _plan_mismatch(bigger, fp) == (
        f"module set {sorted(g.vertices)} != vertex set {sorted(g.vertices) + [top]}"
    )
    chorded, chord = _with_outer_chord(g)
    assert _plan_mismatch(chorded, fp) == f"adjacency differs (missing {[chord]}, extra [])"
    for v in sorted(g.labels)[:1]:
        unlabeled = FloorPlan(
            rects=fp.rects,
            width=fp.width,
            height=fp.height,
            labels={u: s for u, s in fp.labels.items() if u != v},
        )
        assert _plan_mismatch(g, unlabeled) == f"label of {v} lost"


@pytest.mark.parametrize("name", [n for n, o in sorted(PLAN_OUTCOMES.items()) if o == "Plan"])
@pytest.mark.parametrize("derived", (False, True), ids=("rows", "derived"))
def test_a_result_survives_pickle_and_deepcopy(name, derived):
    # With derived, the completion's darts and faces are worked out first.
    # The input's faces are walked only when first read: it is copied
    # before and after that.
    res = plan(getattr(samples, name)())
    if derived:
        assert faces(res.completion.base)
    parts = (res.graph, res.completion.base, res.plan)
    unwalked = (pickle.loads(pickle.dumps(parts)), copy.deepcopy(parts))
    assert "_walks" not in vars(res.graph) and res.graph._walks
    for copied in unwalked + (pickle.loads(pickle.dumps(parts)), copy.deepcopy(parts)):
        assert copied == parts
        for g, was in zip(copied[:2], parts[:2]):
            assert faces(g) == faces(was) and g.edges == was.edges
            assert g._walks == brute_walk_darts(g.rotation)[0]
        assert copied[2].walls == res.plan.walls
    assert pickle.loads(pickle.dumps(res)) == res and copy.deepcopy(res) == res


def test_plan_walks_no_face_of_its_input():
    # A valid input's faces are checked by count when it is built, and
    # neither a plan nor a refusal reads them; a refusal for its CIPs
    # reads no neighbour sets either, as the triplets need only the outline's rows.
    graphs = [getattr(samples, name)() for name in sorted(PLAN_OUTCOMES)]
    graphs += [generate_ptpg(GenSpec(n=n, seed=n, cip_target=6)) for n in (44, 53, 98)]
    outcomes = Counter()
    for made in graphs:
        g = EmbeddedGraph(rotation=made.rotation, outer=made.outer)
        outcome = plan(g).outcome
        outcomes[outcome] += 1
        assert "_walks" not in vars(g)
        assert outcome != "TooManyCips" or "adj" not in vars(g)
    assert outcomes["Plan"] == 7 and outcomes["TooManyCips"] == 4, outcomes


def test_every_exported_name_resolves():
    import lplan

    assert len(set(lplan.__all__)) == len(lplan.__all__)
    for name in lplan.__all__:
        assert getattr(lplan, name, None) is not None, name
    # The brute-force references are test code, not part of the package.
    for name in ("augment_with_ne", "enumerate_rels", "stretcher_is_trivial"):
        assert name not in lplan.__all__ and not hasattr(lplan, name)


# -- symmetry ------------------------------------------------------------------


def mirror(g: EmbeddedGraph) -> EmbeddedGraph:
    """g drawn in a mirror: every rotation and the outer cycle reversed."""
    return EmbeddedGraph(
        rotation={v: nbrs[::-1] for v, nbrs in g.rotation.items()}, outer=g.outer[::-1]
    )


def renumber(g: EmbeddedGraph) -> EmbeddedGraph:
    """g with every vertex id v renamed max + 1 - v."""
    top = max(g.vertices) + 1
    return EmbeddedGraph(
        rotation={top - v: tuple(top - w for w in nbrs) for v, nbrs in g.rotation.items()},
        outer=tuple(top - v for v in g.outer),
    )


# Whether a graph has an L plan does not depend on how it is drawn or
# numbered.  Each case below broke this while the corner b bounded the
# shortcut ranges: a graph and its mirror or renumbering disagreed.
SYMMETRY_CASES = [
    (mirror, GenSpec(18, 21, 4)),
    (mirror, GenSpec(26, 8, 4)),
    (mirror, GenSpec(30, 10, 5)),
    (renumber, GenSpec(18, 21, 4)),
    (renumber, GenSpec(22, 3)),
]


@pytest.mark.parametrize(
    "move, spec",
    SYMMETRY_CASES,
    ids=["mirror-n18-seed21-cips4", "mirror-n26-seed8-cips4", "mirror-n30-seed10-cips5",
         "renumber-n18-seed21-cips4", "renumber-n22-seed3"],
)
def test_plannability_survives_mirroring_and_renumbering(move, spec):
    g = generate_ptpg(spec)
    assert plan(move(g)).ok == plan(g).ok


def test_plannability_survives_mirroring_and_renumbering_on_generated_graphs():
    # generate_ptpg n 6-40 (even), seeds 0-3, targets None/4/5, and the
    # graphs of the cases above
    grid = [GenSpec(n, seed, t) for n in range(6, 41, 2) for seed in range(4) for t in (None, 4, 5)]
    graphs = planned = 0
    for spec in dict.fromkeys(grid + [spec for _, spec in SYMMETRY_CASES]):
        try:
            g = generate_ptpg(spec)
        except GenerationFailed:
            continue
        ok = plan(g).ok
        assert plan(mirror(g)).ok == ok == plan(renumber(g)).ok, spec
        graphs += 1
        planned += ok
    assert (graphs, planned) == (191, 188)


def test_plannability_survives_mirroring_and_renumbering_on_planted_ls(planted_l):
    # Every planted L has an L plan, and so do its mirror and renumbering.
    # A graph that disagrees here is pinned as a strict xfail case, not reseeded away.
    for n in range(8, 21, 2):
        for seed in range(30):
            g = planted_l(n, seed)
            assert [plan(h).ok for h in (g, mirror(g), renumber(g))] == [True] * 3, (n, seed)


def test_every_planted_l_plans(planted_l):
    for n in range(8, 16):
        for seed in range(200):
            g = planted_l(n, seed)
            res = plan(g)
            assert res.ok, (n, seed, res.failures)
            assert dual_graph(res.plan).edges == g.edges, (n, seed)


@pytest.mark.parametrize("n, seed", [(35, 111), (35, 131), (100, 52), (100, 62), (100, 86)])
def test_a_planted_l_whose_flip_chain_reaches_a_pole_plans_at_its_first_triplet(n, seed, planted_l):
    # The planted L's of n 20, 35, 60, 100 and 150 with seeds 0-149 whose
    # first triplet's flip chain reaches a pole: the corner colours are
    # pinned, and no other triplet is tried.
    g = planted_l(n, seed)
    res = plan(g)
    assert res.ok and all(f.final for f in res.failures), res.failures
    assert [rec.action for rec in res.normalize.trace] == ["pin"]
    assert dual_graph(res.plan).edges == g.edges


def test_planning_never_numbers_or_walks_a_completion(planted_l):
    # The label search, the flip chain and the 4-cycle rotation read the
    # completion's rotation, labels and poles only: its darts are never
    # numbered and its faces never walked, not even where a 4-cycle rotates.
    graphs = [getattr(samples, name)() for name, o in sorted(PLAN_OUTCOMES.items()) if o == "Plan"]
    graphs += [planted_l(n, seed) for n in (20, 35, 60, 100) for seed in range(10)]
    rotated = 0
    for g in graphs:
        res = plan(g)
        assert res.ok, g.outer
        assert {"_turn", "_walks"}.isdisjoint(vars(res.completion.base)), g.outer
        rotated += any(rec.action == "rotate" for rec in res.normalize.trace)
    assert rotated, "no plan rotates a 4-cycle"
