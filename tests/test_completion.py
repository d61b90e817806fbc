"""The four-completion derived from the input's checked structure, and its check.

four_completion extends the input graph instead of building the completed
graph afresh, and attach_vertex checks each attachment as it is made.  The
reference is the one-build completion of tests/oracles.py (fresh_completion):
the derived graph must equal it in every structure the package reads, dart
numbers and face walks included.  attach_vertex must refuse
exactly the completions whose fresh build without its rule
(unchecked_completion) fails validate_ptpg.
"""

from __future__ import annotations

import itertools
from collections import Counter

from lplan.boundary import boundary_arc, find_cips, find_triplets
from lplan.flipping import _mates
from lplan.gen import GenerationFailed, GenSpec, generate_ptpg
from lplan.graph import common_neighbors, validate_ptpg
from lplan.paths import (
    EmbeddingConflict,
    Infeasible,
    completion_paths,
    four_completion,
    paths_from_splits,
    select_paths,
)
from lplan.pipeline import plan, rectangular_plan
from lplan.rel import NotConstructible, Rel, _inside, construct_rel

from completions import tiny_inputs, triangle
from oracles import (
    alternating_four_cycles,
    brute_inside_edges,
    faces,
    fresh_completion,
    unchecked_completion,
)
from test_flipping import PLANNABLE
from test_graph import ALL_SAMPLES, k4, octahedron


def assert_same_completion(derived, fresh):
    a, b = derived.base, fresh.base
    assert (derived.ne, derived.poles, derived.pprime) == (fresh.ne, fresh.poles, fresh.pprime)
    # dict order too: documents list vertices and labels in this order
    assert list(a.rotation.items()) == list(b.rotation.items())
    assert a.outer == b.outer and list(a.labels.items()) == list(b.labels.items())
    assert a == b and a.vertices == b.vertices and a.edges == b.edges
    # numbered and walked as a fresh build is: the same darts and walks
    assert a._turn == b._turn and a._walks == b._walks and faces(a) == faces(b)


def inside_edges_agree(ag) -> int:
    """Checks the rotation's inside by the full face flood on every alternating 4-cycle; their count."""
    try:
        r = construct_rel(ag)
    except NotConstructible:
        return 0
    cycles = 0
    for w in alternating_four_cycles(r):
        assert _inside(r, w) == brute_inside_edges(r.graph, w), w
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
        cycles += inside_edges_agree(derived)
    assert len(pairs) > 400 and cycles > 2000 and edges > 40000, (len(pairs), cycles, edges)


def test_plan_reads_no_adjacency_of_its_completion():
    # The flip chain reads the completion's rotation and labels only; chorded_hexagon's flips.
    results = [plan(make()) for make in PLANNABLE]
    assert all(res.ok for res in results)
    results += [plan(generate_ptpg(GenSpec(n=n, seed=1))) for n in range(6, 61)]
    planned = [res for res in results if res.ok]
    for res in planned:
        assert "edges" not in vars(res.completion.base), res.graph.outer
    assert len(planned) > 40 and any(res.normalize.flips for res in planned), len(planned)


def split_completions(g):
    """The arguments of four_completion for every split multiset paths_from_splits accepts."""
    for t in find_triplets(g):
        ring = [v for v in g.outer if v != t.b]
        for splits in itertools.combinations_with_replacement(ring, 5):
            ps = paths_from_splits(g, t, Counter(splits))
            ne = g.vertices[-1] + 1
            yield g, completion_paths(ps, ne), ne, ps.p1


def corner_completions(g):
    """The arguments of four_completion for every four corners on g's outline, each pole first."""
    for cuts in itertools.combinations_with_replacement(g.outer, 4):
        ends = zip(cuts, cuts[1:] + cuts[:1])
        paths = [(u,) if u == v else boundary_arc(g, u, v) for u, v in ends]
        for i in range(4):
            yield g, tuple(paths[i:] + paths[:i])


def refusal(complete, args) -> str | None:
    """The text of the EmbeddingConflict complete(*args) raises; None when it completes."""
    try:
        complete(*args)
    except EmbeddingConflict as exc:
        return str(exc)
    return None


def test_attach_vertex_refuses_exactly_the_completions_that_are_no_ptpg():
    # generated graphs n 6-14, and two with four corner-implying paths,
    # whose chords put separating triangles in many completions; K3, K4
    # and the octahedron, whose triangular outlines enclose nothing, one
    # vertex and three
    specs = [GenSpec(n=n, seed=1) for n in range(6, 15)] + [GenSpec(8, 1, 4), GenSpec(9, 1, 4)]
    inputs = [args for g in map(generate_ptpg, specs) for args in split_completions(g)]
    inputs += tiny_inputs()
    for g in (triangle(), k4(), octahedron()):
        inputs += corner_completions(g)
    verdicts = Counter()
    for args in inputs:
        refused = refusal(four_completion, args)
        assert refusal(fresh_completion, args) == refused, args  # derived and fresh alike
        ref = unchecked_completion(*args)
        ptpg = ref is not None and validate_ptpg(ref).verdict
        assert (refused is None) == ptpg, (args, refused)
        if ref is not None and not ptpg:  # refused for the rule, not for a broken arc
            verdicts[refused.split()[0]] += 1
        verdicts[ptpg] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 1000, verdicts
    # 27 corner choices each of K4 and the octahedron attach all four poles unchecked
    assert verdicts["attachment"] > 1000 and verdicts["outer"] == 54, verdicts


def test_rectangular_plan_reports_the_enclosed_outline():
    # Any pole attached over a triangle around inner vertices makes it separating.
    for g in (k4(), octahedron()):
        res = rectangular_plan(g)
        assert (res.outcome, res.plan, res.completion) == ("TriangleOutline", None, None)
        assert res.reason == "outer cycle (1, 2, 3) is a triangle around inner vertices"


def test_every_selected_path_set_completes_to_a_ptpg():
    # The path conditions rule out separating triangles in the completion,
    # so attach_vertex refuses no attachment of a selected set.
    kept = 0
    for n in range(6, 41):
        for target in (None, 2, 3, 4, 5):
            try:
                g = generate_ptpg(GenSpec(n=n, seed=1, cip_target=target))
            except GenerationFailed:
                continue
            for args in selected_completions(g):
                four_completion(*args)
                kept += 1
    assert kept > 700, kept
