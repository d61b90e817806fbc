import itertools
from collections import Counter

import pytest

from lplan import samples
from lplan.boundary import find_cips, find_triplets
from lplan.graph import validate_ptpg
from lplan.oracle import GenSpec, generate_ptpg
from lplan.paths import (
    COMMON_NEIGHBOR,
    SHORTCUT_P5,
    EmbeddingConflict,
    Infeasible,
    _pad_multisets,
    attach_outside,
    augment_with_ne,
    check_path_conditions,
    completion_paths,
    four_completion,
    paths_from_splits,
    select_paths,
)

from oracles import feasible_split_multisets


def _triplet(g, abc):
    for t in find_triplets(g):
        if tuple(t) == abc:
            return t
    raise AssertionError(f"triplet {abc} not admissible")


def test_paths_from_splits_pentagon():
    g = samples.pentagon_with_pocket()
    ps = paths_from_splits(g, _triplet(g, (1, 2, 3)), Counter({1: 2, 3: 2, 4: 1}))
    assert ps.paths == ((1, 2, 3), (3,), (3, 4), (4, 5, 1), (1,))
    assert ps.splits == (1, 3, 3, 4, 1)


def test_paths_from_splits_validates():
    g = samples.pentagon_with_pocket()
    t = _triplet(g, (1, 2, 3))
    with pytest.raises(ValueError):
        paths_from_splits(g, t, Counter({1: 2, 3: 2}))  # four instances
    with pytest.raises(ValueError):
        paths_from_splits(g, t, Counter({2: 1, 1: 2, 3: 2}))  # b used as split


def test_select_paths_pentagon_exact():
    g = samples.pentagon_with_pocket()
    ps = select_paths(g, _triplet(g, (1, 2, 3)))
    assert ps.paths == ((1, 2, 3), (3,), (3, 4), (4, 5, 1), (1,))
    assert check_path_conditions(g, ps) == ()


def test_select_paths_four_cip_exact():
    g = samples.four_cip_eleven_gon()
    ps = select_paths(g, _triplet(g, (1, 2, 3)))
    assert ps.paths == ((1, 2, 3, 4, 5), (5, 6, 7), (7, 8, 9), (9, 10, 11), (11, 1))


def test_bad_split_choice_reports_shortcut():
    g = samples.four_cip_eleven_gon()
    ps = paths_from_splits(
        g, _triplet(g, (1, 2, 3)), Counter({1: 1, 3: 1, 5: 1, 7: 1, 9: 1})
    )
    assert ps.paths == ((1, 2, 3), (3, 4, 5), (5, 6, 7), (7, 8, 9), (9, 10, 11, 1))
    kinds = {(v.kind, v.witness[:2]) for v in check_path_conditions(g, ps)}
    assert (SHORTCUT_P5, (10, 3)) in kinds


def test_five_cip_refusal_is_final():
    g = samples.five_cip_thirteen_gon()
    with pytest.raises(Infeasible) as exc:
        select_paths(g, _triplet(g, (2, 3, 4)))
    assert exc.value.final
    pairs = {v.witness[:2] for v in exc.value.violations}
    assert (12, 3) in pairs or (5, 3) in pairs


def test_search_exhaustion_matches_brute_force():
    # all four triplets refuse, and exhaustive enumeration confirms that
    # no split choice at all passes the conditions
    g = generate_ptpg(GenSpec(n=12, seed=41))
    cips = find_cips(g)
    assert len(cips) == 4
    for t in find_triplets(g):
        with pytest.raises(Infeasible) as exc:
            select_paths(g, t, cips)
        assert not exc.value.final
        assert feasible_split_multisets(g, t, cips) == 0


def test_common_neighbor_condition_fires():
    # degenerate a-side and c-side tails that share a neighbour besides b
    g = samples.octagon_with_fan()
    trips = find_triplets(g)
    assert trips, "fixture should admit a triplet"
    found = False
    for t in trips:
        boundary = [v for v in g.outer if v != t.b]
        import itertools

        for comb in set(itertools.combinations(sorted(boundary * 2), 5)):
            try:
                ps = paths_from_splits(g, t, Counter(comb))
            except ValueError:
                continue
            kinds = {v.kind for v in check_path_conditions(g, ps)}
            if COMMON_NEIGHBOR in kinds:
                found = True
                break
        if found:
            break
    assert found


def test_attach_outside_rejects_non_arc():
    g = samples.pentagon_with_pocket()
    with pytest.raises(EmbeddingConflict):
        attach_outside(g, (1, 3), 99)  # not consecutive on the boundary
    # A lone vertex or an arc past its own start would leave no embedding.
    for arc in ((1,), (1, 2, 3, 4, 5, 1)):
        with pytest.raises(EmbeddingConflict):
            attach_outside(g, arc, 99)


def test_augment_with_ne_pentagon():
    g = samples.pentagon_with_pocket()
    ps = select_paths(g, _triplet(g, (1, 2, 3)))
    g2, ne = augment_with_ne(g, ps)
    assert ne == 8
    assert g2.adj[ne] == frozenset({1, 2, 3})
    assert validate_ptpg(g2).verdict
    # NE replaces the P1 arc on the boundary
    assert ne in g2.outer and 2 not in g2.outer


def test_completion_paths_shape():
    g = samples.pentagon_with_pocket()
    ps = select_paths(g, _triplet(g, (1, 2, 3)))
    g2, ne = augment_with_ne(g, ps)
    q1, q2, q3, q4 = completion_paths(ps, ne)
    assert q1 == (1, ne)
    assert q2 == (ne, 3)
    assert q3 == (3, 4)
    assert q4 == (4, 5, 1)


def test_four_completion_pentagon():
    g = samples.pentagon_with_pocket()
    ps = select_paths(g, _triplet(g, (1, 2, 3)))
    g2, ne = augment_with_ne(g, ps)
    ag = four_completion(g2, completion_paths(ps, ne), ne=ne)
    pn, pe, pso, pw = ag.pole_ids
    assert ag.base.outer == (pw, pn, pe, pso)
    # pole rows follow the four paths
    assert set(ag.base.adj[pn]) - {pe, pw} == set(ag.pprime[0])
    assert set(ag.base.adj[pe]) - {pn, pso} == set(ag.pprime[1])
    assert set(ag.base.adj[pso]) - {pe, pw} == set(ag.pprime[2])
    assert set(ag.base.adj[pw]) - {pso, pn} == set(ag.pprime[3])
    rep = validate_ptpg(ag.base)
    assert rep.verdict, rep


PLANNABLE = (
    samples.pentagon_with_pocket,
    samples.hexagon_ring,
    samples.four_cip_eleven_gon,
    samples.two_fan_hexagon,
    samples.chorded_hexagon,
    samples.octagon_with_fan,
)


def _completion_pairs(g):
    """(one-attach, two-step) completions for every path set select_paths finds."""
    cips = find_cips(g)
    if len(cips) > 5:
        return
    for t in find_triplets(g):
        try:
            ps = select_paths(g, t, cips)
        except Infeasible:
            continue
        ne = g.vertices[-1] + 1
        qpaths = completion_paths(ps, ne)
        g2, ne2 = augment_with_ne(g, ps)
        assert ne2 == ne
        yield four_completion(g, qpaths, ne=ne, ne_arc=ps.p1), four_completion(g2, qpaths, ne=ne)


def test_one_attach_completion_equals_the_two_step_oracle():
    graphs = [make() for make in PLANNABLE] + [
        generate_ptpg(GenSpec(n=n, seed=seed)) for n in (10, 20, 30, 40) for seed in range(5)
    ]
    compared = 0
    for g in graphs:
        for one, two in _completion_pairs(g):
            # dict order too: documents list vertices and labels in this order
            assert list(one.base.rotation.items()) == list(two.base.rotation.items())
            assert one.base.outer == two.base.outer
            assert list(one.base.labels.items()) == list(two.base.labels.items())
            assert (one.ne, one.poles, one.pprime) == (two.ne, two.poles, two.pprime)
            compared += 1
    assert compared >= 100


def test_four_completion_requires_chained_paths():
    g = samples.pentagon_with_pocket()
    ps = select_paths(g, _triplet(g, (1, 2, 3)))
    g2, ne = augment_with_ne(g, ps)
    q1, q2, q3, q4 = completion_paths(ps, ne)
    with pytest.raises(EmbeddingConflict):
        four_completion(g2, (q1, q3, q2, q4), ne=ne)


def test_pad_multisets_order_is_descending_takes_in_scan_order():
    scan = [7, 3, 9, 4]
    counts = Counter({3: 1, 4: 2})
    caps = [2 - counts.get(v, 0) for v in scan]
    want = [
        [v for v, t in zip(scan, takes) for _ in range(t)]
        for takes in sorted(itertools.product(*(range(c + 1) for c in caps)), reverse=True)
        if sum(takes) == 3
    ]
    assert list(_pad_multisets(scan, counts, 3)) == want


def test_pad_multisets_survives_a_long_scan():
    # Every vertex but the last is already split twice, so the only
    # choice sits 3000 positions deep.
    scan = list(range(3000))
    counts = Counter({v: 2 for v in scan[:-1]})
    assert list(_pad_multisets(scan, counts, 1)) == [[2999]]
