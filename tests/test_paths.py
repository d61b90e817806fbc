import itertools
from collections import Counter

import pytest

import samples
from lplan.boundary import find_cips, find_triplets
from lplan.gen import GenerationFailed, GenSpec, generate_ptpg
from lplan.graph import validate_ptpg
from lplan.paths import (
    COMMON_NEIGHBOR,
    SHORTCUT_P2,
    SHORTCUT_P5,
    EmbeddingConflict,
    Infeasible,
    PathViolation,
    check_path_conditions,
    completion_paths,
    four_completion,
    paths_from_splits,
    select_paths,
)
from lplan.pipeline import PlanOptions, plan

from oracles import (
    attach_outside,
    augment_with_ne,
    feasible_split_multisets,
    pad_multisets,
    path_sets,
)


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
    ps = select_paths(g, _triplet(g, (1, 2, 3)), find_cips(g))
    assert ps.paths == ((1, 2, 3), (3,), (3, 4), (4, 5, 1), (1,))
    assert check_path_conditions(g, ps) == ()


def test_select_paths_four_cip_exact():
    g = samples.four_cip_eleven_gon()
    ps = select_paths(g, _triplet(g, (1, 2, 3)), find_cips(g))
    assert ps.paths == ((1, 2, 3, 4, 5), (5, 6, 7), (7, 8, 9), (9, 10, 11, 1), (1,))


def test_bad_split_choice_reports_shortcut():
    g = samples.four_cip_eleven_gon()
    ps = paths_from_splits(
        g, _triplet(g, (1, 2, 3)), Counter({1: 1, 3: 1, 5: 1, 7: 1, 9: 1})
    )
    assert ps.paths == ((1, 2, 3), (3, 4, 5), (5, 6, 7), (7, 8, 9), (9, 10, 11, 1))
    kinds = {(v.kind, v.witness[:2]) for v in check_path_conditions(g, ps)}
    assert (SHORTCUT_P5, (10, 3)) in kinds


def test_five_cip_refusal_is_final():
    g = samples.five_cip_refusal()
    with pytest.raises(Infeasible) as exc:
        select_paths(g, _triplet(g, samples.FIVE_CIP_CORNER), find_cips(g))
    assert exc.value.violations == (PathViolation(SHORTCUT_P2, (1, 3)),)
    (failure,) = plan(g, PlanOptions(triplet=samples.FIVE_CIP_CORNER)).failures
    assert failure.stage == "paths" and failure.final


def test_search_exhaustion_matches_brute_force():
    # the scan refuses exactly the triplets at which exhaustive enumeration
    # finds no split choice that passes the conditions
    g = samples.five_cip_refusal()
    cips = find_cips(g)
    assert len(cips) == 5
    refused = []
    for t in find_triplets(g):
        try:
            select_paths(g, t, cips)
        except Infeasible:
            refused.append(tuple(t))
            assert feasible_split_multisets(g, t, cips) == 0
            assert all(f.final for f in plan(g, PlanOptions(triplet=tuple(t))).failures)
        else:
            assert feasible_split_multisets(g, t, cips) > 0
    assert refused == [samples.FIVE_CIP_CORNER, (13, 12, 1)]


def test_common_neighbor_condition_fires():
    # degenerate a-side and c-side tails that share a neighbour besides b
    g = samples.octagon_with_fan()
    kinds = {
        v.kind
        for t in find_triplets(g)
        for ps in path_sets(g, t, find_cips(g))
        for v in check_path_conditions(g, ps)
    }
    assert COMMON_NEIGHBOR in kinds


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
    ps = select_paths(g, _triplet(g, (1, 2, 3)), find_cips(g))
    g2, ne = augment_with_ne(g, ps)
    assert ne == 8
    assert set(g2.rotation[ne]) == {1, 2, 3}
    assert validate_ptpg(g2).verdict
    # NE replaces the P1 arc on the boundary
    assert ne in g2.outer and 2 not in g2.outer


def test_completion_paths_shape():
    g = samples.pentagon_with_pocket()
    ps = select_paths(g, _triplet(g, (1, 2, 3)), find_cips(g))
    g2, ne = augment_with_ne(g, ps)
    q1, q2, q3, q4 = completion_paths(ps, ne)
    assert q1 == (1, ne)
    assert q2 == (ne, 3)
    assert q3 == (3, 4)
    assert q4 == (4, 5, 1)


def test_four_completion_pentagon():
    g = samples.pentagon_with_pocket()
    ps = select_paths(g, _triplet(g, (1, 2, 3)), find_cips(g))
    g2, ne = augment_with_ne(g, ps)
    ag = four_completion(g2, completion_paths(ps, ne), ne=ne)
    pn, pe, pso, pw = ag.pole_ids
    assert ag.base.outer == (pw, pn, pe, pso)
    # pole rows follow the four paths
    assert set(ag.base.rotation[pn]) - {pe, pw} == set(ag.pprime[0])
    assert set(ag.base.rotation[pe]) - {pn, pso} == set(ag.pprime[1])
    assert set(ag.base.rotation[pso]) - {pe, pw} == set(ag.pprime[2])
    assert set(ag.base.rotation[pw]) - {pso, pn} == set(ag.pprime[3])
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
    ps = select_paths(g, _triplet(g, (1, 2, 3)), find_cips(g))
    g2, ne = augment_with_ne(g, ps)
    q1, q2, q3, q4 = completion_paths(ps, ne)
    with pytest.raises(EmbeddingConflict):
        four_completion(g2, (q1, q3, q2, q4), ne=ne)


@pytest.mark.parametrize(
    "qpaths, off",
    [
        (((99, 2), (2, 3), (3, 4), (4, 5, 1, 99)), 99),  # first on its path
        (((1, 99), (99, 3), (3, 4), (4, 5, 1)), 99),  # last on its path
        (((1, 2), (2, 7, 3), (3, 4), (4, 5, 1)), 7),  # inside its path, interior to the graph
    ],
)
def test_four_completion_names_a_path_vertex_off_the_outline(qpaths, off):
    g = samples.pentagon_with_pocket()
    with pytest.raises(EmbeddingConflict, match=f"vertex {off} is not on the outer cycle"):
        four_completion(g, qpaths)


def test_pad_multisets_order_is_descending_takes_in_scan_order():
    scan = [7, 3, 9, 4]
    counts = Counter({3: 1, 4: 2})
    caps = [2 - counts.get(v, 0) for v in scan]
    want = [
        [v for v, t in zip(scan, takes) for _ in range(t)]
        for takes in sorted(itertools.product(*(range(c + 1) for c in caps)), reverse=True)
        if sum(takes) == 3
    ]
    assert list(pad_multisets(scan, counts, 3)) == want


def test_pad_multisets_survives_a_long_scan():
    # Every vertex but the last is already split twice, so the only
    # choice sits 3000 positions deep.
    scan = list(range(3000))
    counts = Counter({v: 2 for v in scan[:-1]})
    assert list(pad_multisets(scan, counts, 1)) == [[2999]]


# Triplets that have a path set which a capped search over one vertex per
# CIP plus padding missed: (n, seed, cip_target, triplet).
MISSED = (
    (12, 9, 4, (4, 1, 7)),
    (12, 13, 4, (4, 1, 9)),
    (13, 8, 4, (8, 7, 13)),
    (13, 9, 4, (4, 1, 7)),
    (13, 10, 4, (9, 6, 11)),
    (14, 0, 4, (8, 5, 13)),
    (14, 9, 4, (11, 7, 10)),
    (14, 12, 4, (6, 4, 7)),
)


def _scan_inputs():
    graphs = [make() for make in PLANNABLE] + [samples.five_cip_thirteen_gon()]
    # Only five CIPs fix the splits tightly enough to leave a triplet with
    # no path set, and mostly at n >= 20.
    sizes = [(n, target) for n in range(6, 15) for target in (None, 2, 3, 4, 5)]
    sizes += [(n, 5) for n in range(16, 41)]
    for n, target in sizes:
        for seed in range(1, 15, 3):
            try:
                graphs.append(generate_ptpg(GenSpec(n=n, seed=seed, cip_target=target)))
            except GenerationFailed:
                pass
    graphs += [generate_ptpg(GenSpec(n, seed, target)) for n, seed, target, _ in MISSED]
    return graphs


def test_select_paths_returns_the_oracles_first_admissible_set():
    # select_paths finds a path set exactly when exhaustive enumeration
    # does, and the first one in the order path_sets documents
    found = refused = 0
    for g in _scan_inputs():
        cips = find_cips(g)
        for t in find_triplets(g):
            want = next((ps for ps in path_sets(g, t, cips) if not check_path_conditions(g, ps)), None)
            try:
                got = select_paths(g, t, cips)
            except Infeasible:
                got = None
            assert got == want, (g.outer, tuple(t))
            found += got is not None
            refused += got is None
    assert found > 300 and refused > 50
    for n, seed, target, t in MISSED:
        g = generate_ptpg(GenSpec(n, seed, target))
        assert select_paths(g, _triplet(g, t), find_cips(g))


def test_every_five_cip_refusal_carries_a_witness():
    # _witness splits every CIP at an interior vertex other than b, so a
    # five-CIP refusal names the defects of one split set.
    refused = 0
    for n in range(6, 41, 2):
        for seed in range(12):
            try:
                g = generate_ptpg(GenSpec(n, seed, cip_target=5))
            except GenerationFailed:
                continue
            cips = find_cips(g)
            if len(cips) != 5:
                continue
            for t in find_triplets(g):
                try:
                    select_paths(g, t, cips)
                except Infeasible as exc:
                    assert exc.violations, (n, seed, tuple(t))
                    refused += 1
    assert refused == 126
