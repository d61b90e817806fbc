"""End-to-end planning: graph in, L-shaped floor plan or refusal out.

plan() walks the admissible corner triplets clockwise from the lowest
numbered boundary vertex and runs, per triplet: path selection, the
four-completion with the north-east module (one checked build),
labeling, corner label normalization, rectangle extraction, notch
removal, the non-triviality walk, and verification.  The first triplet
that survives every stage wins; per-triplet failures are kept for the
report.

Verification asks that the plan reproduce the input's embedding, not
only its edges: every module's rotation and the outline, read off the
walls, must equal the input's up to a cyclic shift.  The input was
checked when it was built, so no graph is built for the plan's dual.
This refuses no plan the edge compare would accept, bar a mirror image:
an internally triangulated disk plus an apex over its outer face is
3-connected, so its embedding is unique up to reflection (Whitney
1933), and a plan drawn from the input's own completion keeps the
input's orientation.

rectangular_plan() is the plain rectangular variant: four boundary
paths, no north-east module, success exactly when the graph has at
most four corner-implying paths.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .boundary import Cip, NecessaryReport, Triplet, boundary_arc, chords, find_cips, necessary_conditions
from .flipping import (
    CycleNotFound,
    NormalizationFailed,
    NormalizeReport,
    OracleViolation,
    normalize_labels,
)
from .graph import EmbeddedGraph, VertexId, cyclic_eq, edge_key, validate_ptpg
from .layout import (
    CornerProfile,
    FloorPlan,
    NonTrivialityVerdict,
    NotCornerModule,
    PointContactAmbiguity,
    plan_embedding,
    remove_ne,
    rfp_from_rel,
    verify_nontrivial_L,
)
from .paths import (
    AugmentedGraph,
    EmbeddingConflict,
    Infeasible,
    PathSet,
    _pad_multisets,
    completion_paths,
    four_completion,
    select_paths,
)
from .rel import NotConstructible, Rel, construct_rel

_RFP_PAD_CAP = 50000


class InvalidInput(ValueError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class PlanOptions:
    triplet: tuple[VertexId, VertexId, VertexId] | None = None


@dataclass(frozen=True)
class TripletFailure:
    triplet: tuple[VertexId, VertexId, VertexId]
    stage: str
    reason: str
    final: bool = False


@dataclass(frozen=True)
class PlanResult:
    outcome: str  # Plan | NoTriplet | TooManyCips | InfeasibleAllTriplets
    graph: EmbeddedGraph
    necessary: NecessaryReport
    failures: tuple[TripletFailure, ...] = ()
    refusal_kind: str | None = None
    triplet: Triplet | None = None
    pathset: PathSet | None = None
    completion: AugmentedGraph | None = None
    rel: Rel | None = None
    normalize: NormalizeReport | None = None
    full_plan: FloorPlan | None = None
    plan: FloorPlan | None = None
    profile: CornerProfile | None = None
    verdict: NonTrivialityVerdict | None = None

    @property
    def ok(self) -> bool:
        return self.outcome == "Plan"


def _require_ptpg(g: EmbeddedGraph) -> None:
    report = validate_ptpg(g)
    if not report.verdict:
        bits = []
        if not report.is_biconnected:
            bits.append("graph is not 2-connected")
        if report.nontriangular_interior_faces:
            bits.append(
                f"non-triangular interior faces: {report.nontriangular_interior_faces[:3]}"
            )
        if report.separating_triangles:
            bits.append(f"separating triangles: {report.separating_triangles[:3]}")
        raise InvalidInput("; ".join(bits))


def _ordered_triplets(g: EmbeddedGraph, triplets) -> list[Triplet]:
    n = len(g.outer)
    shift = g.outer_pos[min(g.outer)]
    return sorted(triplets, key=lambda t: (g.outer_pos[t.a] - shift) % n)


def _plan_mismatch(g: EmbeddedGraph, fp: FloorPlan) -> str | None:
    """How the plan's dual differs from g, embedding included; None when it is g.

    Raises what plan_embedding raises on an unreadable plan.  Edge sets
    are built only to name a difference.
    """
    rotation, outer = plan_embedding(fp)
    if rotation.keys() != g.rotation.keys():
        return f"module set {sorted(rotation)} != vertex set {sorted(g.vertices)}"
    turned = [v for v, nbrs in g.rotation.items() if not cyclic_eq(rotation[v], nbrs)]
    if turned or not cyclic_eq(outer, g.outer):
        edges = {edge_key(u, v) for u, nbrs in rotation.items() for v in nbrs}
        if edges != g.edges:
            missing = sorted(g.edges - edges)
            extra = sorted(edges - g.edges)
            return f"adjacency differs (missing {missing[:4]}, extra {extra[:4]})"
        where = f"the rotation of {turned[0]}" if turned else "the outline"
        return f"every adjacency matches, but the embedding differs at {where}"
    for v, name in g.labels.items():
        if fp.labels.get(v) != name:
            return f"label of {v} lost"
    return None


def plan(g: EmbeddedGraph, opts: PlanOptions | None = None) -> PlanResult:
    opts = opts or PlanOptions()
    _require_ptpg(g)
    report = necessary_conditions(g)
    if report.cip_count > 5:
        return PlanResult(
            outcome="TooManyCips", graph=g, necessary=report, refusal_kind="too-many-cips"
        )
    if not report.triplets:
        return PlanResult(
            outcome="NoTriplet", graph=g, necessary=report, refusal_kind="no-triplet"
        )

    candidates = _ordered_triplets(g, report.triplets)
    if opts.triplet is not None:
        pinned = [t for t in candidates if tuple(t) == tuple(opts.triplet)]
        if not pinned:
            raise InvalidInput(f"{opts.triplet} is not an admissible corner triplet")
        candidates = pinned

    failures: list[TripletFailure] = []
    for triplet in candidates:
        attempt = _plan_one(g, triplet, report, failures)
        if attempt is not None:
            return attempt

    kind = "all-triplets-infeasible"
    if opts.triplet is not None and failures and failures[-1].final:
        # The split positions were forced by five CIPs and still violate
        # the feasibility conditions for the requested corner.
        kind = "five-cips-fixed-triplet"
    return PlanResult(
        outcome="InfeasibleAllTriplets",
        graph=g,
        necessary=report,
        failures=tuple(failures),
        refusal_kind=kind,
    )


def _plan_one(
    g: EmbeddedGraph,
    triplet: Triplet,
    report: NecessaryReport,
    failures: list[TripletFailure],
) -> PlanResult | None:
    key = tuple(triplet)

    def fail(stage: str, reason: str, final: bool = False) -> None:
        failures.append(TripletFailure(key, stage, reason, final))

    try:
        ps = select_paths(g, triplet, report.cips)
    except Infeasible as exc:
        reason = "; ".join(str(v) for v in exc.violations) or "no admissible split set"
        fail("paths", reason, exc.final)
        return None

    ne = g.vertices[-1] + 1
    try:
        ag = four_completion(g, completion_paths(ps, ne), ne=ne, ne_arc=ps.p1)
    except (EmbeddingConflict, ValueError) as exc:
        fail("completion", str(exc))
        return None
    comp_report = validate_ptpg(ag.base)
    if not comp_report.verdict:
        fail("completion", f"completed graph is not properly triangulated: {comp_report}")
        return None

    try:
        rel = construct_rel(ag)  # checks its labeling with is_valid_rel
    except NotConstructible as exc:
        fail("rel", str(exc))
        return None

    try:
        norm = normalize_labels(rel, triplet, ne)
    except (NormalizationFailed, OracleViolation, CycleNotFound) as exc:
        fail("normalize", str(exc))
        return None

    try:
        full = rfp_from_rel(rel)
        lplan, profile = remove_ne(full, ne)
        verdict = verify_nontrivial_L(lplan, profile)
    except (NotCornerModule, PointContactAmbiguity, ValueError) as exc:
        fail("layout", str(exc))
        return None
    if not verdict.nontrivial:
        fail("verify", f"plan degenerates to a rectangle (walk {verdict.walk})")
        return None

    try:
        mismatch = _plan_mismatch(g, lplan)
    except (PointContactAmbiguity, ValueError) as exc:
        fail("verify", str(exc))
        return None
    if mismatch:
        fail("verify", mismatch)
        return None

    return PlanResult(
        outcome="Plan",
        graph=g,
        necessary=report,
        failures=tuple(failures),
        triplet=triplet,
        pathset=ps,
        completion=ag,
        rel=rel,
        normalize=norm,
        full_plan=full,
        plan=lplan,
        profile=profile,
        verdict=verdict,
    )


# -- plain rectangular pipeline ----------------------------------------------


@dataclass(frozen=True)
class RectResult:
    outcome: str  # Plan | TooManyCips | Exhausted
    graph: EmbeddedGraph
    cips: tuple[Cip, ...]
    plan: FloorPlan | None = None
    completion: AugmentedGraph | None = None
    rel: Rel | None = None
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.outcome == "Plan"


def _rect_paths(g: EmbeddedGraph, counts: Counter) -> list[tuple[VertexId, ...]] | None:
    order = sorted(counts, key=lambda v: g.outer_pos[v])
    cuts: list[VertexId] = []
    for v in order:
        cuts.extend([v] * counts[v])
    paths = []
    for i in range(4):
        u, v = cuts[i], cuts[(i + 1) % 4]
        paths.append((u,) if u == v else boundary_arc(g, u, v))
    chord_list = chords(g)
    for p in paths:
        pv = set(p)
        if any(x in pv and y in pv for x, y in chord_list):
            return None
    # The first pole attaches without a chained companion, so its path
    # must span an edge; rotate a degenerate path out of front position.
    shift = next((i for i in range(4) if len(paths[i]) >= 2), None)
    if shift is None:
        return None
    return paths[shift:] + paths[:shift]


def rectangular_plan(g: EmbeddedGraph) -> RectResult:
    """Four-corner rectangular partition; no notch, no corner triplet."""
    _require_ptpg(g)
    cips = find_cips(g)
    if len(cips) > 4:
        return RectResult(
            outcome="TooManyCips",
            graph=g,
            cips=cips,
            reason=f"{len(cips)} corner-implying paths, at most 4 usable corners",
        )
    cand = [list(c.interior) for c in cips]
    combos = list(itertools.islice(itertools.product(*cand), 512)) or [()]
    n = len(g.outer)
    budget = _RFP_PAD_CAP
    last_reason = "no chord-free corner assignment found"
    for combo in combos:
        base = Counter(combo)
        if any(m > 2 for m in base.values()):
            continue
        scan = list(g.outer)
        need = 4 - sum(base.values())
        for extra in _pad_multisets(scan, base, need):
            budget -= 1
            if budget < 0:
                return RectResult(outcome="Exhausted", graph=g, cips=cips, reason="search budget exhausted")
            counts = Counter(base)
            counts.update(extra)
            paths = _rect_paths(g, counts)
            if paths is None:
                continue
            try:
                ag = four_completion(g, tuple(paths))
            except EmbeddingConflict as exc:
                last_reason = str(exc)
                continue
            if not validate_ptpg(ag.base).verdict:
                last_reason = "completion has separating structure"
                continue
            try:
                rel = construct_rel(ag)
                fp = rfp_from_rel(rel)
            except (NotConstructible, ValueError) as exc:
                last_reason = str(exc)
                continue
            return RectResult(
                outcome="Plan", graph=g, cips=cips, plan=fp, completion=ag, rel=rel
            )
    return RectResult(outcome="Exhausted", graph=g, cips=cips, reason=last_reason)
