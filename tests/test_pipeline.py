"""End-to-end outcomes of plan() and rectangular_plan()."""

from __future__ import annotations

import pytest

from oracles import geometric_adjacency

from lplan import samples
from lplan.boundary import find_cips
from lplan.graph import EmbeddedGraph, edge_key
from lplan.layout import FloorPlan, Rect, dual_graph
from lplan.paths import attach_outside
from lplan.pipeline import (
    InvalidInput,
    PlanOptions,
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
    "five_cip_thirteen_gon": "InfeasibleAllTriplets",
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
    res = plan(samples.five_cip_thirteen_gon())
    assert res.outcome == "InfeasibleAllTriplets"
    assert res.refusal_kind == "all-triplets-infeasible"
    assert res.failures and all(f.stage == "paths" for f in res.failures)


def test_pinned_triplet_with_five_cips_is_a_final_refusal():
    res = plan(samples.five_cip_thirteen_gon(), PlanOptions(triplet=(2, 3, 4)))
    assert res.outcome == "InfeasibleAllTriplets"
    assert res.refusal_kind == "five-cips-fixed-triplet"
    assert res.failures[-1].final


def test_pinned_triplet_must_be_admissible():
    with pytest.raises(InvalidInput):
        plan(samples.pentagon_with_pocket(), PlanOptions(triplet=(1, 2, 4)))


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


RECT_OK = (
    "pentagon_with_pocket",
    "hexagon_ring",
    "four_cip_eleven_gon",
    "two_fan_hexagon",
    "chorded_hexagon",
    "octagon_with_fan",
    "wheel4",
)


@pytest.mark.parametrize("name", RECT_OK)
def test_rectangular_plan_succeeds_with_few_cips(name):
    g = getattr(samples, name)()
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


PLANNABLE = sorted(name for name, outcome in PLAN_OUTCOMES.items() if outcome == "Plan")


def test_plan_builds_the_completion_once(monkeypatch):
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
        # only the completion: the north-east module and the four poles in
        # one build; the plan is verified against g without a graph of its own
        assert [len(h.vertices) - len(g.vertices) for h in built] == [5], name
        assert built[0] is res.completion.base, name


# -- verification against the input's embedding ------------------------------


def _with_outer_chord(g: EmbeddedGraph) -> tuple[EmbeddedGraph, tuple[int, int]]:
    """g plus one edge drawn outside it, across the first outer vertex it can skip."""
    n = len(g.outer)
    for i in range(n):
        a, b, c = g.outer[i - 1], g.outer[i], g.outer[(i + 1) % n]
        if c in g.adj[a]:
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
