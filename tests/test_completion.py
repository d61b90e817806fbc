"""The four-completion derived from the input's checked structure, and its check.

four_completion extends the input graph instead of building the completed
graph afresh, and plan() checks only what the attachments add.  The
reference is the one-build completion of tests/oracles.py (fresh_completion):
the derived graph must equal it in every structure the package reads, dart
numbers, face indices and walks included, and the count check must agree
with validate_ptpg on the fresh build.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from lplan.boundary import find_cips, find_triplets
from lplan.flipping import _mates
from lplan.gen import GenerationFailed, GenSpec, generate_ptpg
from lplan.graph import (
    attachments_keep_ptpg,
    common_neighbors,
    faces_inside_cycle,
    rotate_min,
    validate_ptpg,
)
from lplan.paths import (
    EmbeddingConflict,
    Infeasible,
    completion_paths,
    four_completion,
    paths_from_splits,
    select_paths,
)
from lplan.pipeline import plan, rectangular_plan
from lplan.rel import NotConstructible, Rel, construct_rel

from completions import tiny_inputs
from oracles import (
    alternating_four_cycles,
    brute_faces_inside_cycle,
    brute_walk_darts,
    fresh_completion,
)
from test_flipping import PLANNABLE
from test_graph import ALL_SAMPLES, k4


def assert_same_completion(derived, fresh):
    a, b = derived.base, fresh.base
    assert (derived.ne, derived.poles, derived.pprime) == (fresh.ne, fresh.poles, fresh.pprime)
    # dict order too: documents list vertices and labels in this order
    assert list(a.rotation.items()) == list(b.rotation.items())
    assert a.outer == b.outer and list(a.labels.items()) == list(b.labels.items())
    assert a == b and a.vertices == b.vertices and a.adj == b.adj and a.edges == b.edges
    # numbered and walked as a fresh build is: the same darts, face indices and walks
    assert a._turn == b._turn and a._face == b._face and a._walks == b._walks
    assert a.faces == b.faces and a.outer_face_index == b.outer_face_index


def enclosed_faces_agree(ag) -> int:
    """Checks faces_inside_cycle by faces on every alternating 4-cycle; their count."""
    try:
        r = construct_rel(ag)
    except NotConstructible:
        return 0
    g = r.graph
    walks = brute_walk_darts(g.rotation)[0]
    cycles = 0
    for w in alternating_four_cycles(r):
        got = {g.faces[i] for i in faces_inside_cycle(g, w)}
        assert got == {rotate_min(walks[i]) for i in brute_faces_inside_cycle(g, w)}, w
        cycles += 1
    return cycles


def selected_completions(g):
    """The arguments of four_completion for every triplet's select_paths set."""
    cips = find_cips(g)
    if len(cips) > 5:
        return
    for t in find_triplets(g):
        try:
            ps = select_paths(g, t, cips)
        except Infeasible:
            continue
        ne = g.vertices[-1] + 1
        yield g, completion_paths(ps, ne), ne, ps.p1


def test_derived_completion_equals_the_fresh_build():
    pairs = [(four_completion(g, q), fresh_completion(g, q)) for g, q in tiny_inputs()]
    graphs = [make() for make in ALL_SAMPLES]
    graphs += [generate_ptpg(GenSpec(n=n, seed=1)) for n in range(6, 61)]
    for g in graphs:
        pairs += [(four_completion(*a), fresh_completion(*a)) for a in selected_completions(g)]
    cycles = edges = 0
    for derived, fresh in pairs:
        # the flip chain's premise: in a completion without separating
        # triangles an edge's triangle mates in a rotation are its common neighbours
        r = Rel(derived.base, derived.poles, {}, {})
        inner = set(derived.base.vertices) - set(derived.pole_ids)
        for x in inner:
            for y in inner.intersection(derived.base.rotation[x]):
                assert _mates(r, x, y) == common_neighbors(fresh.base, x, y), (x, y)
                edges += 1
        assert_same_completion(derived, fresh)
        cycles += enclosed_faces_agree(derived)
    assert len(pairs) > 400 and cycles > 2000 and edges > 40000, (len(pairs), cycles, edges)


def test_plan_reads_no_adjacency_of_its_completion():
    # The flip chain reads the completion's rotation and labels only; chorded_hexagon's flips.
    results = [plan(make()) for make in PLANNABLE]
    assert all(res.ok for res in results)
    results += [plan(generate_ptpg(GenSpec(n=n, seed=1))) for n in range(6, 61)]
    planned = [res for res in results if res.ok]
    for res in planned:
        assert not {"adj", "edges"} & vars(res.completion.base).keys(), res.graph.outer
    assert len(planned) > 40 and any(res.normalize.flips for res in planned), len(planned)


def split_completions(g):
    """(derived, fresh) completions of every split multiset paths_from_splits accepts.

    A completion that attach_vertex refuses must be refused alike by both.
    """
    for t in find_triplets(g):
        ring = [v for v in g.outer if v != t.b]
        for splits in itertools.combinations_with_replacement(ring, 5):
            ps = paths_from_splits(g, t, Counter(splits))
            ne = g.vertices[-1] + 1
            args = (g, completion_paths(ps, ne), ne, ps.p1)
            try:
                derived = four_completion(*args)
            except EmbeddingConflict as exc:
                with pytest.raises(EmbeddingConflict) as ref:
                    fresh_completion(*args)
                assert str(ref.value) == str(exc)
                continue
            yield derived, fresh_completion(*args)


# K4 drawn with a triangular outline: a PTPG whose completions all enclose
# it in the separating triangle 1-2-3, though no arc carries a chord.
K4_QPATHS = (((1, 2), (2, 3), (3, 1), (1,)), ((2, 3), (3,), (3, 1), (1, 2)))


def test_the_count_check_decides_as_full_validation():
    # generated graphs n 6-14, and two with four corner-implying paths,
    # whose chords put separating triangles in many completions
    specs = [GenSpec(n=n, seed=1) for n in range(6, 15)] + [GenSpec(8, 1, 4), GenSpec(9, 1, 4)]
    inputs = [(g, split_completions(g)) for g in map(generate_ptpg, specs)]
    for g, q in tiny_inputs() + [(k4(), q) for q in K4_QPATHS]:
        inputs.append((g, [(four_completion(g, q), fresh_completion(g, q))]))
    verdicts = Counter()
    for g, pairs in inputs:
        for derived, fresh in pairs:
            want = validate_ptpg(fresh.base)
            kept = attachments_keep_ptpg(g, derived.base)
            if kept:
                assert want.verdict
            else:
                # plan() then validates the derived graph, and reports its
                # defects as it did for a fresh build
                assert validate_ptpg(derived.base) == want
            verdicts[kept, want.verdict] += 1
    assert verdicts[True, True] > 1000 and verdicts[False, False] > 1000, verdicts
    assert verdicts[False, True] == 5, verdicts  # K3's: its outline is a triangle


def test_rectangular_plan_reports_the_enclosed_outline():
    with pytest.raises(ValueError) as exc:
        rectangular_plan(k4())
    assert str(exc.value) == (
        "corners [1, 2, 3, 1] give a completion that is not a PTPG: PtpgReport("
        "is_biconnected=True, nontriangular_interior_faces=(), separating_triangles=((1, 2, 3),))"
    )


def test_every_selected_path_set_completes_to_a_ptpg():
    # The path conditions rule out separating triangles in the completion,
    # so plan() never needs validate_ptpg on a completion of its own.
    kept = 0
    for n in range(6, 41):
        for target in (None, 2, 3, 4, 5):
            try:
                g = generate_ptpg(GenSpec(n=n, seed=1, cip_target=target))
            except GenerationFailed:
                continue
            for args in selected_completions(g):
                assert attachments_keep_ptpg(g, four_completion(*args).base), (n, target, args)
                kept += 1
    assert kept > 700, kept
