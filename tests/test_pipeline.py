"""End-to-end outcomes of plan() and rectangular_plan()."""

from __future__ import annotations

import pytest

from oracles import geometric_adjacency

from lplan import samples
from lplan.boundary import find_cips
from lplan.graph import EmbeddedGraph
from lplan.pipeline import (
    InvalidInput,
    PlanOptions,
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


def test_plan_builds_the_completion_once(monkeypatch):
    g = samples.pentagon_with_pocket()
    built: list[EmbeddedGraph] = []
    check = EmbeddedGraph.__post_init__

    def counted(self):
        check(self)
        built.append(self)

    monkeypatch.setattr(EmbeddedGraph, "__post_init__", counted)
    res = plan(g)
    assert res.ok and tuple(res.triplet) == (1, 2, 3)
    # the north-east augmentation, the four-completion and the dual of the plan
    assert [len(h.vertices) - len(g.vertices) for h in built] == [1, 5, 0]
    assert built[1] is res.completion.base
