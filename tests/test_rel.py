"""Labeling construction, validity checking, and the local moves."""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
import sys
import types
from collections import Counter

import pytest

from completions import tiny_completions
from oracles import (
    alternating_four_cycles,
    brute_flip_vertex,
    brute_inside_edges,
    brute_rel_validity,
    brute_ring_defect,
    CapExceeded,
    canonical_labeling,
    clone,
    enumerate_rels,
    is_flippable_edge,
    is_flippable_vertex,
    keyed_search_space,
    labeling_from_values,
    rel_filter_enumeration,
    ring_fixpoint,
    ring_of,
    ring_word_union,
    rotate_by_trial,
)

from lplan import rel as relmod
import samples
from lplan.graph import edge_key
from lplan.gen import GenSpec, generate_ptpg
from lplan.pipeline import PlanOptions, plan
from lplan.rel import (
    T1,
    T2,
    NotConstructible,
    NotFlippable,
    _propagate,
    _search_space,
    _vertex_defect,
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


def _completion(make, triplet=None):
    res = plan(make(), PlanOptions(triplet=triplet))
    assert res.ok, res.outcome
    return res.completion


@pytest.mark.parametrize("make", PLANNABLE, ids=lambda f: f.__name__)
def test_construct_rel_is_valid(make):
    ag = _completion(make)
    assert brute_rel_validity(construct_rel(ag)) == (True, None)


@pytest.mark.parametrize("make", PLANNABLE, ids=lambda f: f.__name__)
def test_construct_rel_is_deterministic(make):
    ag = _completion(make)
    a = construct_rel(ag)
    b = construct_rel(ag)
    assert a.color == b.color and a.orient == b.orient


def test_pole_rows_follow_the_fixed_pattern():
    ag = _completion(samples.pentagon_with_pocket)
    r = construct_rel(ag)
    poles = set(ag.pole_ids)
    rules = {"N": (T1, "in"), "E": (T2, "in"), "S": (T1, "out"), "W": (T2, "out")}
    for name, (col, sense) in rules.items():
        p = ag.poles[name]
        for w in ag.base.rotation[p]:
            if w in poles:
                continue
            assert r.label(p, w) == col
            tail, _ = r.orient[edge_key(p, w)]
            assert (tail == p) == (sense == "out")


# -- the ring-word filter ------------------------------------------------------


def ring_filter(values, firsts=None):
    """One ring through the propagation loop: kept value sets per position, or None.

    firsts[p] tells whether the ring's vertex is the first of edge p's key;
    by default it is, and then every value is its own dart class.  The
    neighbor id 1 stands for the poles, which the loop never filters.
    """
    if firsts is None:
        firsts = [True] * len(values)
    dom = list(values)
    ring = ring_of([(p, first, 1) for p, first in enumerate(firsts)])
    trail = []
    if not _propagate([ring], dom, [0], [False, True], trail):
        assert dom == list(values)
        return None
    assert all(dom[p] != old for p, old in trail)
    return dom


def as_classes(mask, first):
    """The dart classes a value set reads as, and back: at a key's second end class = value ^ 2."""
    return mask if first else sum(1 << (c ^ 2) for c in range(4) if mask >> c & 1)


def assert_ring_matches_the_word_oracle(values, firsts):
    want = ring_word_union([as_classes(m, f) for m, f in zip(values, firsts)])
    if want is not None:
        want = [as_classes(m, f) for m, f in zip(want, firsts)]
    assert ring_filter(values, firsts) == want, (values, firsts)
    return want is not None


def test_block_feasible_rejects_small_rings():
    assert ring_filter([0b1111] * 3) is None


def test_block_feasible_fixed_ring_is_kept():
    # one dart per class, already in clockwise order: the unique word
    assert ring_filter([0b0001, 0b0010, 0b0100, 0b1000]) == [1, 2, 4, 8]


def test_block_feasible_missing_class_is_infeasible():
    # no position may take class 2 (T1 incoming), so no ring word exists
    assert ring_filter([0b1011] * 5) is None


def test_block_feasible_narrows_wide_masks():
    # rotated fixed word: the filter must keep exactly the rotation
    out = ring_filter([0b1000, 0b0001, 0b0010, 0b0100])
    assert out == [8, 1, 2, 4]


def test_block_feasible_all_open():
    out = ring_filter([0b1111] * 4)
    assert out == [0b1111] * 4


def test_block_feasible_matches_the_word_oracle_on_every_short_ring():
    # each position is read in both key orientations, position 0 included
    for d in range(5):
        for values in itertools.product(range(16), repeat=d):
            for parity in (0, 1):
                firsts = [(p + parity) % 2 == 0 for p in range(d)]
                assert_ring_matches_the_word_oracle(list(values), firsts)


def test_block_feasible_matches_the_word_oracle_on_random_rings():
    rng = random.Random(4)
    feasible = 0
    for _ in range(20000):
        d = rng.randint(5, 14)
        wide = rng.choice((0.5, 0.75, 0.9))
        values = [sum(1 << c for c in range(4) if rng.random() < wide) for _ in range(d)]
        firsts = [rng.random() < 0.5 for _ in range(d)]
        feasible += assert_ring_matches_the_word_oracle(values, firsts)
    assert 2000 < feasible < 18000  # both verdicts are well represented


# -- propagation order ---------------------------------------------------------


def _propagation_cases():
    """Completions for the propagation oracle: tiny, samples and generated, n <= 120."""
    yield from tiny_completions()
    for make in PLANNABLE:
        yield _completion(make)
    for key in ((30, 0), (60, 1), (100, 0), (120, 0)):
        yield _generated_completion(*key)


def test_propagation_reaches_the_round_robin_fixpoint():
    # From the pole-row seeds, and then from the endpoints of up to three
    # edges pinned at once, the queue must reach the oracle's value sets,
    # or wipe out exactly when the oracle does; a wipeout's trail restores
    # the state before the pins.
    rng = random.Random(11)
    verdicts = {True: 0, False: 0}
    narrower = 0
    for ag in _propagation_cases():
        edges, dom, rings, dense, seeds, _ = _search_space(ag)
        narrower += len(seeds) < len(rings)
        idle = [False] * len(rings) + [True]
        queued = list(idle)
        assert _propagate(rings, dom, seeds, queued, [])
        assert dict(zip(edges, dom)) == ring_fixpoint(ag)
        pins = {}
        for _ in range(12):
            wide = [i for i, m in enumerate(dom) if m & (m - 1)]
            if not wide:
                break
            picks = rng.sample(wide, min(3, len(wide)))
            new = {i: 1 << rng.choice([v for v in range(4) if dom[i] >> v & 1]) for i in picks}
            before = list(dom)
            trail = [(i, dom[i]) for i in picks]
            for i, m in new.items():
                dom[i] = m
            seeds = [dense[x] for i in picks for x in edges[i] if x not in ag.pole_ids]
            ok = _propagate(rings, dom, seeds, queued, trail)
            assert queued == idle
            want = ring_fixpoint(ag, {**pins, **{edges[i]: m for i, m in new.items()}})
            assert ok == (want is not None)
            verdicts[ok] += 1
            if ok:
                assert dict(zip(edges, dom)) == want
                pins.update((edges[i], m) for i, m in new.items())
            else:
                for j, old in reversed(trail):
                    dom[j] = old
                assert dom == before
    assert narrower >= 4  # the seeding skips rings on the larger completions
    assert min(verdicts.values()) >= 10, verdicts


# -- the search's set-up and its closing check -----------------------------------


def _setup_cases():
    """Completions for the set-up and closing-check tests: tiny, samples, generated n <= 150."""
    yield from tiny_completions()
    for make in PLANNABLE:
        yield _completion(make)
    for key in ((20, 1), (30, 0), (45, 2), (60, 1), (80, 1), (100, 0), (100, 1), (120, 0), (150, 2)):
        yield _generated_completion(*key)


def test_pinned_corner_colours_reach_the_round_robin_fixpoint():
    # A corner triplet given as pins limits (a, b) to T1 values and (b, c)
    # to T2; seeded with their rings, the queue must reach the oracle's
    # value sets, and the search a valid labeling with those colours.  The
    # last case is one whose flip chain reaches a pole.
    results = [plan(make()) for make in PLANNABLE]
    results.append(plan(generate_ptpg(GenSpec(40, 4, 4)), PlanOptions(triplet=(25, 29, 35))))
    for res in results:
        ag, (a, b, c) = res.completion, res.triplet
        edges, dom, rings, dense, seeds, _ = _search_space(ag, (a, b, c))
        assert {dense[a], dense[b], dense[c]} <= set(seeds)
        assert _propagate(rings, dom, seeds, [False] * len(rings) + [True], [])
        pins = {edge_key(a, b): 0b0101, edge_key(b, c): 0b1010}
        assert dict(zip(edges, dom)) == ring_fixpoint(ag, pins)
        r = construct_rel(ag, (a, b, c))
        assert (r.label(a, b), r.label(b, c)) == (T1, T2)
        assert brute_rel_validity(r) == (True, None)


def test_a_pinned_corner_is_refused_exactly_where_no_labeling_has_its_colours():
    # Every corner (a, b, c) with a and c consecutive around b, off the
    # poles, pinned on the tiny completions: the search refuses exactly the
    # pins that no enumerated labeling satisfies, and names the corner.
    pinned = refused = 0
    for ag in tiny_completions():
        poles = set(ag.pole_ids)
        rels = enumerate_rels(ag)
        for b in ag.base.vertices:
            rot = ag.base.rotation[b]
            for a, c in zip(rot, rot[1:] + rot[:1]):
                if poles.isdisjoint((a, b, c)):
                    pinned += 1
                    want = any(r.label(a, b) == T1 and r.label(b, c) == T2 for r in rels)
                    try:
                        r = construct_rel(ag, (a, b, c))
                    except NotConstructible as exc:
                        refused += 1
                        assert not want, (a, b, c)
                        assert str(exc) == f"no labeling satisfies the block patterns with corner {(a, b, c)} pinned"
                    else:
                        assert want and (r.label(a, b), r.label(b, c)) == (T1, T2), (a, b, c)
    assert (pinned, refused) == (57, 36)


def test_search_space_matches_the_keyed_construction():
    for ag in _setup_cases():
        poles = set(ag.pole_ids)
        edges, dom, rings, dense, seeds, rows = _search_space(ag)
        assert edges == sorted(e for e in ag.base.edges if not set(e) <= poles)
        assert (edges, dom, rings, dense, seeds) == keyed_search_space(ag)
        assert list(rows) == list(ag.base.vertices)
        for v, row in rows.items():
            assert set(row) == {w for w in ag.base.rotation[v] if not {v, w} <= poles}
            assert all(edges[i] == edge_key(v, w) for w, i in row.items())


def test_constructed_labelings_hold_their_edges_ends_and_colors():
    # The closing check reads only the pole rows and the rings: the rest
    # of brute_rel_validity's checks must hold by construction.
    for ag in _setup_cases():
        r = construct_rel(ag)
        poles = set(ag.pole_ids)
        want = {e for e in ag.base.edges if not set(e) <= poles}
        assert set(r.color) == set(r.orient) == want
        assert all(r.orient[e] in (e, e[::-1]) for e in want)
        assert set(r.color.values()) <= {T1, T2}
        assert brute_rel_validity(r) == (True, None)


def test_closing_check_names_the_defect_is_valid_rel_names(monkeypatch):
    # One value is changed behind the search's back, in the propagation
    # that leaves every value set a singleton: construct_rel must refuse
    # the labeling with brute_rel_validity's text, or return it when it is
    # valid.
    rng = random.Random(5)
    real = relmod._propagate
    seen = Counter()
    for ag in _setup_cases():
        edges = _search_space(ag)[0]
        pole_row = [i for i, e in enumerate(edges) if set(e) & set(ag.pole_ids)]
        for trial in range(6):
            pick = rng.choice(pole_row) if trial % 3 == 0 else rng.randrange(len(edges))
            solved = []

            def corrupting(rings, dom, seeds, queued, trail, pick=pick, solved=solved):
                ok = real(rings, dom, seeds, queued, trail)
                if ok and not solved and all(d & (d - 1) == 0 for d in dom):
                    solved.append(dom)
                    dom[pick] = 1 << rng.choice([x for x in range(4) if not dom[pick] >> x & 1])
                return ok

            monkeypatch.setattr(relmod, "_propagate", corrupting)
            try:
                r = construct_rel(ag)
            except NotConstructible as exc:
                ok, defect = brute_rel_validity(labeling_from_values(ag, edges, solved[0]))
                assert not ok
                assert str(exc) == "constructed labeling invalid: " + defect
                seen[defect.split()[0]] += 1
            else:
                assert brute_rel_validity(r) == (True, None)
                got = labeling_from_values(ag, edges, solved[0])
                assert (r.color, r.orient) == (got.color, got.orient)
                seen["valid"] += 1
    assert seen["pole"] >= 15 and seen["vertex"] >= 30, seen


# -- local moves ---------------------------------------------------------------


def _some_flippable_edge(r):
    poles = set(r.pole_ids)
    for e in sorted(r.color):
        if e[0] in poles or e[1] in poles:
            continue
        if is_flippable_edge(r, *e):
            return e
    return None


def test_flip_edge_twice_restores_the_labeling():
    r = construct_rel(_completion(samples.pentagon_with_pocket))
    e = _some_flippable_edge(r)
    assert e is not None
    before = (dict(r.color), dict(r.orient))
    flip_edge(r, *e)
    assert brute_rel_validity(r) == (True, None)
    assert r.color[e] != before[0][e]
    flip_edge(r, *e)
    assert (r.color, r.orient) == before


def test_flip_edge_rejects_unlabeled_and_stuck_edges():
    ag = _completion(samples.pentagon_with_pocket)
    r = construct_rel(ag)
    with pytest.raises(NotFlippable):
        flip_edge(r, ag.poles["N"], ag.poles["E"])
    poles = set(r.pole_ids)
    stuck = [e for e in sorted(r.color) if not is_flippable_edge(r, *e)]
    assert stuck, "expected at least one unflippable edge"
    e = stuck[0]
    before = (dict(r.color), dict(r.orient))
    with pytest.raises(NotFlippable):
        flip_edge(r, *e)
    assert (r.color, r.orient) == before  # failed flip must roll back


def test_flip_vertex_twice_restores_the_labeling():
    done = False
    for make in PLANNABLE:
        r = construct_rel(_completion(make))
        poles = set(r.pole_ids)
        for v in r.graph.vertices:
            if v in poles or len(r.graph.rotation[v]) != 4:
                continue
            if not is_flippable_vertex(r, v):
                continue
            before = (dict(r.color), dict(r.orient))
            there = rotate_four_cycle(r, r.graph.rotation[v])
            assert brute_rel_validity(r) == (True, None)
            back = rotate_four_cycle(r, r.graph.rotation[v])
            assert {there, back} == {"cw", "ccw"}
            assert (r.color, r.orient) == before
            done = True
            break
        if done:
            break
    assert done, "no degree-4 flippable vertex in any sample"


def test_flip_vertex_requires_degree_four():
    ag = _completion(samples.pentagon_with_pocket)
    r = construct_rel(ag)
    high = next(
        v
        for v in r.graph.vertices
        if v not in set(r.pole_ids) and len(r.graph.rotation[v]) != 4
    )
    with pytest.raises(NotFlippable):
        rotate_four_cycle(r, r.graph.rotation[high])
    with pytest.raises(NotFlippable):
        rotate_four_cycle(r, r.graph.rotation[ag.poles["N"]])


def test_vertex_flip_is_the_rotation_of_its_neighbour_cycle():
    # A degree-4 vertex flips by rotating the 4-cycle of its neighbours:
    # on labelings fuzzed by edge flips, the rotation succeeds exactly when
    # brute_flip_vertex (every direction set, whole-labeling checks) does,
    # and leaves the same labeling.
    rng = random.Random(27)
    seen = Counter()
    for n, seed in itertools.product((8, 10, 12, 14), range(6)):
        res = plan(generate_ptpg(GenSpec(n=n, seed=seed)))
        if not res.ok:
            continue
        r = res.rel
        poles = set(r.pole_ids)
        edges = [e for e in sorted(r.color) if poles.isdisjoint(e)]
        four = [v for v in r.graph.vertices if v not in poles and len(r.graph.rotation[v]) == 4]
        for _ in range(30):
            e = rng.choice(edges)
            if is_flippable_edge(r, *e):
                flip_edge(r, *e)
            for v in four:
                probe, want = clone(r), clone(r)
                try:
                    rotate_four_cycle(probe, r.graph.rotation[v])
                    got = True
                except NotFlippable:
                    got = False
                assert got == brute_flip_vertex(want, v), (n, seed, v)
                assert (probe.color, probe.orient) == (want.color, want.orient)
                seen[got] += 1
    assert seen[True] >= 50 and seen[False] >= 1000, seen


def test_rotate_four_cycle_needs_alternating_labels():
    r = construct_rel(_completion(samples.pentagon_with_pocket))
    # a face of the completion is a triangle, so any 4-tuple with a repeat
    with pytest.raises(NotFlippable):
        rotate_four_cycle(r, (1, 2, 3, 2))


def test_rotate_four_cycle_round_trip():
    # find an alternating 4-cycle in some sample's labeling and rotate it
    for make in PLANNABLE:
        r = construct_rel(_completion(make))
        g = r.graph
        poles = set(r.pole_ids)
        hit = None
        for a in g.vertices:
            if a in poles:
                continue
            for b in g.rotation[a]:
                for c in g.rotation[b]:
                    if c == a:
                        continue
                    for d in g.rotation[c]:
                        if d == b or d == a or a not in g.rotation[d]:
                            continue
                        if poles & {b, c, d}:
                            continue
                        cyc = (a, b, c, d)
                        try:
                            probe = clone(r)
                            sense = rotate_four_cycle(probe, cyc)
                        except NotFlippable:
                            continue
                        assert sense in ("cw", "ccw")
                        hit = (cyc, sense)
                        break
                    if hit:
                        break
                if hit:
                    break
            if hit:
                break
        if hit is None:
            continue
        cyc, sense = hit
        before = (dict(r.color), dict(r.orient))
        assert rotate_four_cycle(r, cyc) == sense
        assert brute_rel_validity(r) == (True, None)
        assert (r.color, r.orient) != before
        back = rotate_four_cycle(r, cyc)
        assert back in ("cw", "ccw") and back != sense
        assert (r.color, r.orient) == before
        return
    pytest.skip("no rotatable interior 4-cycle in the sample labelings")


def test_rotation_checks_agree_with_whole_labeling_checks(planted_l):
    # rotate_four_cycle reads the inside off the rotation and checks only
    # the rings it changes; the oracle floods every face and checks the
    # whole labeling after each sense.  Mode, NotFlippable and the
    # labeling left behind must agree on every alternating 4-cycle.
    rels = [construct_rel(_completion(make)) for make in PLANNABLE]
    rels += [construct_rel(_generated_completion(*key)) for key in sorted(GOLDEN_GENERATED)]
    rels += [construct_rel(plan(planted_l(n, seed)).completion) for n in (35, 60, 100) for seed in range(2)]
    seen, insides = Counter(), Counter()
    for r in rels:
        for w in alternating_four_cycles(r):
            ends = set().union(*brute_inside_edges(r.graph, w))
            insides["diagonal" if ends <= set(w) else "vertices"] += 1
            probe, want = clone(r), clone(r)
            try:
                got = rotate_four_cycle(probe, w)
            except NotFlippable:
                got = None
            assert got == rotate_by_trial(want, w), w
            assert (probe.color, probe.orient) == (want.color, want.orient)
            seen[got] += 1
    # Every 4-cycle of a completion encloses faces, and on these valid
    # labelings one sense always holds.
    assert set(seen) == {"cw", "ccw"} and sum(seen.values()) >= 250, seen
    assert insides["diagonal"] and insides["vertices"], insides  # both kinds of inside


# -- the ring reader against the run oracle -------------------------------------


def first_defect(r):
    """_vertex_defect at N, E, S and W, then at the inner vertices ascending: the first defect."""
    poles = r.pole_ids
    order = [*poles, *(v for v in r.graph.vertices if v not in poles)]
    return next(filter(None, (_vertex_defect(r, v) for v in order)), None)


def _suite_rels():
    """Labelings the suite builds: samples, generated plans, tiny completions."""
    for make in PLANNABLE:
        res = plan(make())
        yield res.rel
        yield construct_rel(res.completion)
    for seed in range(12):
        res = plan(generate_ptpg(GenSpec(n=8 + 3 * seed, seed=seed)))
        if res.ok:
            yield res.rel
    for ag in tiny_completions():
        yield from enumerate_rels(ag)


def _corruptions(r, rng):
    """One edge's color flipped, one edge's direction reversed, a pole row broken."""
    poles = set(r.pole_ids)
    inner = [e for e in sorted(r.color) if not (set(e) & poles)]
    for e in rng.sample(inner, min(4, len(inner))):
        bad = clone(r)
        bad.color[e] = T2 if bad.color[e] == T1 else T1
        yield bad, e
        bad = clone(r)
        bad.orient[e] = bad.orient[e][::-1]
        yield bad, e
    for p in r.pole_ids:
        row = sorted(e for e in r.color if p in e and not set(e) <= poles)
        e = rng.choice(row)
        bad = clone(r)
        if rng.random() < 0.5:
            bad.color[e] = T2 if bad.color[e] == T1 else T1
        else:
            bad.orient[e] = bad.orient[e][::-1]
        yield bad, e


def test_vertex_defect_matches_the_run_oracle():
    # Corruptions keep the labeled edge set, so brute_rel_validity's first
    # defect is a pole row's or a ring's, read in first_defect's order.
    rng = random.Random(9)
    rels = 0
    defects = set()
    for r in _suite_rels():
        rels += 1
        assert first_defect(r) is None and brute_rel_validity(r) == (True, None)
        for bad, e in _corruptions(r, rng):
            defect = brute_rel_validity(bad)[1]
            assert first_defect(bad) == defect
            if defect:
                defects.add(defect.split(":")[1].split()[0])
            for v in e:
                if v not in bad.pole_ids:
                    assert _vertex_defect(bad, v) == brute_ring_defect(bad, v)
    assert rels >= 35
    assert defects == {"edge", "blocks"}  # a broken pole row, a ring with too many runs


def test_vertex_defect_matches_the_run_oracle_on_random_labelings():
    rng = random.Random(4)
    verdicts = set()
    for ag in tiny_completions():
        r = construct_rel(ag)
        for _ in range(150):
            bad = clone(r)
            for e in bad.color:
                if set(e) & set(bad.pole_ids):
                    continue
                bad.color[e] = rng.choice((T1, T2))
                if rng.random() < 0.5:
                    bad.orient[e] = bad.orient[e][::-1]
            defect = brute_rel_validity(bad)[1]
            assert first_defect(bad) == defect
            verdicts.add(defect.split(":")[1].split()[0] if defect else None)
    assert verdicts == {None, "blocks", "block"}


# -- exhaustive enumeration at desk scale ---------------------------------------


def test_enumerate_rels_matches_the_filter_oracle():
    for ag in tiny_completions():
        got = {canonical_labeling(r.color, r.orient) for r in enumerate_rels(ag)}
        assert got == rel_filter_enumeration(ag)
        assert canonical_labeling(*(lambda r: (r.color, r.orient))(construct_rel(ag))) in got


# -- the search order ------------------------------------------------------------
#
# Which of the valid labelings construct_rel returns depends on its search
# order: the shuffled edge order, the pick rule, the value shuffles and the
# restarts.  These digests of sorted(color) and sorted(orient) pin that
# order: a faster search that keeps it keeps them.  The searches on the
# generated graphs branch, at 58 to 82 choice points each on the first
# three; the last one restarts.


def _digest(r) -> str:
    text = repr((sorted(r.color.items()), sorted(r.orient.items())))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


GOLDEN_TINY = (
    "56b579f117414cd2", "506e9ff237c70a3a", "43e5bc6922661400", "37a6a5a725f6e9a0",
    "9d3ea7773de98816", "bd56c1f0803396ac", "b20dbeca97e9d3d5", "e372e5885d646e47",
    "2122344cca783187", "9dad43b321c062cd", "b214906c004b6c2e", "b6c9afb7474debbe",
)

GOLDEN_SAMPLES = {
    "pentagon_with_pocket": "1fb5c7714ae1c4cb",
    "hexagon_ring": "b4aa1621ecc98af0",
    "four_cip_eleven_gon": "ced71f90ae64921a",
    "two_fan_hexagon": "4f03f59c4888946c",
    "chorded_hexagon": "1c3f46b2f1eb853c",
    "octagon_with_fan": "dbd7d44ae59b70be",
}

GOLDEN_GENERATED = {
    (100, 0): "72b2f7a5277a4fae",
    (100, 1): "8a713f91b4f559f9",
    (120, 0): "11b816dce30e3870",
    # This search overruns the first 400-node quota once and restarts.
    (150, 2): "84fc88b2af8f85e3",
}


# construct_rel's _propagate calls (the first, then one per search node
# that propagates) and its attempts (one seeded shuffle each), recorded
# before the search numbered its edges per vertex.  Nodes are calls - 1 +
# attempts - 1: an attempt that overruns its quota ends on a node that
# does not propagate.
GOLDEN_EFFORT = {(100, 0): (59, 1), (100, 1): (75, 1), (120, 0): (83, 1), (150, 2): (478, 2)}


# plan() labels (120, 0) at its first triplet, whose flip chain reaches a
# pole; its goldens were recorded on the completion of the next triplet.
GOLDEN_TRIPLETS = {(120, 0): (64, 61, 92)}


@functools.lru_cache(maxsize=None)
def _generated_completion(n: int, seed: int):
    return _completion(lambda: generate_ptpg(GenSpec(n=n, seed=seed)), GOLDEN_TRIPLETS.get((n, seed)))


def test_golden_labelings_of_tiny_completions():
    assert tuple(_digest(construct_rel(ag)) for ag in tiny_completions()) == GOLDEN_TINY


@pytest.mark.parametrize("make", PLANNABLE, ids=lambda f: f.__name__)
def test_golden_labelings_of_samples(make):
    assert _digest(construct_rel(_completion(make))) == GOLDEN_SAMPLES[make.__name__]


@pytest.mark.parametrize("key", sorted(GOLDEN_GENERATED), ids=lambda k: f"n{k[0]}-seed{k[1]}")
def test_golden_labelings_of_branching_searches(key):
    assert _digest(construct_rel(_generated_completion(*key))) == GOLDEN_GENERATED[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_EFFORT), ids=lambda k: f"n{k[0]}-seed{k[1]}")
def test_golden_search_effort(key, monkeypatch):
    # _generated_completion runs plan(): on a cold cache, not under the counters
    ag = _generated_completion(*key)
    calls = Counter()
    real = relmod._propagate

    def counted(*args):
        calls["propagate"] += 1
        return real(*args)

    def seeded(seed):
        calls["attempt"] += 1
        return random.Random(seed)

    monkeypatch.setattr(relmod, "_propagate", counted)
    monkeypatch.setattr(relmod, "random", types.SimpleNamespace(Random=seeded))
    r = construct_rel(ag)
    assert _digest(r) == GOLDEN_GENERATED[key]
    assert (calls["propagate"], calls["attempt"]) == GOLDEN_EFFORT[key]


def test_branching_search_needs_no_call_stack():
    # A recursive search would need one frame per open choice point
    # (about 60 on this graph); the search must fit in a few frames of its own.
    ag = _generated_completion(100, 0)
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 20)
    try:
        r = construct_rel(ag)
    finally:
        sys.setrecursionlimit(old)
    assert _digest(r) == GOLDEN_GENERATED[(100, 0)]


def test_enumerate_rels_enforces_its_cap():
    ag = _completion(samples.octagon_with_fan)
    with pytest.raises(CapExceeded):
        enumerate_rels(ag, cap=2)
