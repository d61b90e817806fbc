"""Random graph generation and the brute-force stretcher."""

from __future__ import annotations

import hashlib

import pytest

from oracles import ScaleExceeded, brute_separating_triangles, stretcher_is_trivial

import samples
from lplan.boundary import find_cips
from lplan.gen import GenSpec, GenerationFailed, generate_ptpg
from lplan.graph import validate_ptpg
from lplan.io import serialize_graph
from lplan.layout import FloorPlan, Rect
from lplan.pipeline import plan


@pytest.mark.parametrize("n", (6, 9, 13, 20, 33, 60, 120, 200))
def test_generated_graphs_are_ptpgs(n):
    # The generator grows graphs clean and repairs nothing, so this checks
    # the growth itself, at the sizes other tests draw and with the CIP
    # targets it meets: from n=33 on, it meets every target from 2 to 6.
    missed = []
    for target in (None, 2, 3, 4, 5, 6):
        for seed in range(4 if target is None else 2):
            try:
                g = generate_ptpg(GenSpec(n=n, seed=seed, cip_target=target))
            except GenerationFailed:
                missed.append(target)
                continue
            assert len(g.vertices) == n
            assert validate_ptpg(g).verdict
            assert brute_separating_triangles(g) == set()
            assert target is None or len(find_cips(g)) == target
    assert None not in missed
    assert n < 33 or not missed, missed


def test_generation_is_deterministic():
    a = generate_ptpg(GenSpec(n=14, seed=3))
    b = generate_ptpg(GenSpec(n=14, seed=3))
    assert a.rotation == b.rotation and a.outer == b.outer


def test_cip_target_is_honoured():
    g = generate_ptpg(GenSpec(n=16, seed=5, cip_target=4))
    assert len(find_cips(g)) == 4


def test_generation_failure_paths():
    with pytest.raises(GenerationFailed):
        generate_ptpg(GenSpec(n=6, seed=0, cip_target=9))
    with pytest.raises(ValueError):
        generate_ptpg(GenSpec(n=2, seed=0))
    # A chord has a CIP on each side: one CIP never occurs, so such a
    # target is refused before any attempt.
    for target in (1, -1):
        with pytest.raises(ValueError, match="corner implying paths"):
            generate_ptpg(GenSpec(n=60, seed=0, cip_target=target))


def test_stretcher_agrees_with_the_fixture_verdicts():
    assert stretcher_is_trivial(samples.trivial_l_plan())
    assert not stretcher_is_trivial(samples.staircase_l_plan())


def test_stretcher_sees_rectangles_as_trivial():
    res = plan(samples.pentagon_with_pocket())
    assert not stretcher_is_trivial(res.full_plan)  # no concave corner to lose


def test_stretcher_scale_cap():
    fp = FloorPlan(
        rects={i: Rect(i, 0, i + 1, 1) for i in range(14)},
        width=14,
        height=1,
        labels={},
    )
    with pytest.raises(ScaleExceeded):
        stretcher_is_trivial(fp)


# sha256 prefixes of the generated documents, n 3-60 and seeds 0-4 in that
# order, a failed generation written as b"failed\n"; per CIP target.
GOLDEN_GENERATION = {
    None: "5900a44d85191322",
    2: "76bb60d24266015c",
    4: "cc24cf74220547c1",
    5: "c961a6ab89bf58bb",
}


@pytest.mark.parametrize("target", sorted(GOLDEN_GENERATION, key=str))
def test_generated_documents_are_the_golden_ones(target):
    digest = hashlib.sha256()
    for n in range(3, 61):
        for seed in range(5):
            try:
                g = generate_ptpg(GenSpec(n=n, seed=seed, cip_target=target))
            except GenerationFailed:
                digest.update(b"failed\n")
            else:
                digest.update(serialize_graph(g))
    assert digest.hexdigest()[:16] == GOLDEN_GENERATION[target]


def test_stretcher_verdicts_are_the_golden_ones():
    # Per n, one character per seed: N for a plan the stretcher cannot
    # flatten, T for one it can, - for a refused graph.
    rows = []
    for n in range(6, 10):
        row = ""
        for seed in range(400):
            res = plan(generate_ptpg(GenSpec(n=n, seed=seed)))
            row += "-" if not res.ok else "T" if stretcher_is_trivial(res.plan) else "N"
        rows.append(row)
    assert [row.count("N") for row in rows] == [272, 307, 312, 322]
    assert not any("T" in row for row in rows)
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16] == "9d82879c8488418a"
