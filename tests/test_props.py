"""Randomized invariants over generated graphs and labelings."""

from __future__ import annotations

import json
import random
from collections import Counter

from hypothesis import example, given, settings, strategies as st

from oracles import (
    brute_rel_validity,
    brute_separating_triangles,
    concave_corner_count,
    geometric_adjacency,
    is_flippable_edge,
    is_flippable_vertex,
    no_overlaps,
    walk_faces,
)

from lplan.boundary import find_cips
from lplan.gen import GenSpec, generate_ptpg
from lplan.graph import find_separating_triangles, rotate_min, validate_ptpg
from lplan.io import parse_graph, serialize_graph, serialize_plan
from lplan.paths import Infeasible, check_path_conditions, paths_from_splits
from lplan.pipeline import plan, rectangular_plan
from lplan.rel import flip_edge, rotate_four_cycle

SIZES = st.integers(min_value=6, max_value=24)
SEEDS = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=40, deadline=None)
@given(n=SIZES, seed=SEEDS)
def test_generated_graphs_validate_and_match_brute_force(n, seed):
    g = generate_ptpg(GenSpec(n=n, seed=seed))
    assert validate_ptpg(g).verdict
    got = {rotate_min(t) for t in find_separating_triangles(g)}
    assert got == brute_separating_triangles(g)
    assert {rotate_min(f) for f in g.faces} == {
        rotate_min(f) for f in walk_faces(g)
    }


@settings(max_examples=30, deadline=None)
@given(n=SIZES, seed=SEEDS)
def test_graph_serialization_round_trips(n, seed):
    g = generate_ptpg(GenSpec(n=n, seed=seed))
    g2 = parse_graph(serialize_graph(g))
    assert g2.rotation == g.rotation and g2.outer == g.outer


@settings(max_examples=25, deadline=None)
@given(n=SIZES, seed=SEEDS)
def test_plan_outcomes_are_consistent(n, seed):
    g = generate_ptpg(GenSpec(n=n, seed=seed))
    res = plan(g)
    if res.ok:
        assert brute_rel_validity(res.rel) == (True, None)
        assert no_overlaps(res.plan)
        assert concave_corner_count(res.plan) == 1
        dual_edges = geometric_adjacency(res.plan)
        assert dual_edges == g.edges
    else:
        assert res.refusal_kind is not None
        if res.outcome == "TooManyCips":
            assert res.necessary.cip_count > 5
        elif res.outcome == "NoTriplet":
            assert not res.necessary.triplets
        else:
            assert res.failures


@settings(max_examples=25, deadline=None)
@given(n=SIZES, seed=SEEDS)
def test_rectangular_success_tracks_the_cip_count(n, seed):
    g = generate_ptpg(GenSpec(n=n, seed=seed))
    res = rectangular_plan(g)
    if len(find_cips(g)) > 4:
        assert res.outcome == "TooManyCips"
    else:
        assert res.ok, res.reason
        assert geometric_adjacency(res.plan) == g.edges


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=6, max_value=16), seed=SEEDS, ops=st.integers(min_value=5, max_value=40))
def test_random_local_moves_preserve_validity(n, seed, ops):
    g = generate_ptpg(GenSpec(n=n, seed=seed))
    res = plan(g)
    if not res.ok:
        return
    r = res.rel
    rng = random.Random(seed)
    poles = set(r.pole_ids)
    edges = [e for e in sorted(r.color) if not (set(e) & poles)]
    inner = [v for v in r.graph.vertices if v not in poles]
    for _ in range(ops):
        if rng.random() < 0.7:
            e = edges[rng.randrange(len(edges))]
            if is_flippable_edge(r, *e):
                flip_edge(r, *e)
        else:
            v = inner[rng.randrange(len(inner))]
            if len(r.graph.rotation[v]) == 4 and is_flippable_vertex(r, v):
                rotate_four_cycle(r, r.graph.rotation[v])
        assert brute_rel_validity(r) == (True, None)


@settings(max_examples=30, deadline=None)
@given(n=SIZES, seed=SEEDS, data=st.data())
def test_path_conditions_never_crash(n, seed, data):
    g = generate_ptpg(GenSpec(n=n, seed=seed))
    res = plan(g)
    triplets = res.necessary.triplets
    if not triplets:
        return
    triplet = data.draw(st.sampled_from(triplets))
    pool = [v for v in g.outer if v != triplet.b]
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=5, max_size=5))
    counts = Counter(picks)
    if any(m > 2 for m in counts.values()):
        return
    ps = paths_from_splits(g, triplet, counts)
    violations = check_path_conditions(g, ps)
    assert isinstance(violations, tuple)


@settings(max_examples=25, deadline=None)
@given(n=SIZES, seed=SEEDS)
def test_selected_paths_pass_their_own_conditions(n, seed):
    g = generate_ptpg(GenSpec(n=n, seed=seed))
    res = plan(g)
    if not res.ok:
        return
    assert check_path_conditions(g, res.pathset) == ()
    assert res.pathset.splits[0] == res.pathset.p1[0]


# Keys such as "10" and "2" sort differently as text than as numbers; the
# default text strategy brings non-ASCII, quotes, backslashes and control
# characters.
KEYS = st.one_of(st.sampled_from(["10", "2", "", "a", "é", '"', "\\", "\n"]), st.text())
LEAVES = st.one_of(st.integers(), st.text(), st.booleans(), st.none(), st.floats())
NESTED = st.recursive(
    LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.dictionaries(KEYS, kids, max_size=5),
        st.tuples(kids, kids),
        st.dictionaries(st.integers(), kids, max_size=3),
    ),
    max_leaves=25,
)


@settings(max_examples=120, deadline=None)
@given(doc=st.dictionaries(KEYS, NESTED, max_size=6))
@example(doc={"10": [], "2": {}, "": [[]], "x": {"\x00\t \ud800": ['"\\', -0, 10**30]}})
def test_document_writer_matches_json_dumps(doc):
    want = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    assert serialize_plan(doc) == want
