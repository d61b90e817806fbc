"""End-to-end planning: graph in, L-shaped floor plan or refusal out.

plan() walks the admissible corner triplets clockwise from the lowest
numbered boundary vertex and runs, per triplet: path selection, the
four-completion with the north-east module (derived from the input's
checked embedding, each attachment checked by attach_vertex as it is
made), labeling, corner label normalization, rectangle extraction, notch
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

rectangular_plan() is the plain rectangular variant: four corners
picked by rule, no north-east module, one completion and one labeling;
it succeeds exactly when the graph has at most four corner-implying
paths and an outline that is no triangle around inner vertices, unless
the label search hits its cap.
"""

from __future__ import annotations

from typing import NamedTuple

from .boundary import Cip, NecessaryReport, Triplet, boundary_arc, find_cips, necessary_conditions
from .flipping import NormalizationFailed, NormalizeReport, normalize_labels
from .graph import EmbeddedGraph, VertexId, cyclic_eq, edge_key, validate_ptpg
from .layout import (
    CornerProfile,
    FloorPlan,
    NonTrivialityVerdict,
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
    completion_paths,
    four_completion,
    select_paths,
)
from .rel import NotConstructible, Rel, construct_rel


class InvalidInput(ValueError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class PlanOptions(NamedTuple):
    triplet: tuple[VertexId, VertexId, VertexId] | None = None


class TripletFailure(NamedTuple):
    triplet: tuple[VertexId, VertexId, VertexId]
    stage: str
    reason: str
    final: bool = False


class PlanResult(NamedTuple):
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
            names = ",".join(g.labels.get(v, str(v)) for v in opts.triplet)
            raise InvalidInput(f"({names}) is not an admissible corner triplet")
        candidates = pinned

    failures: list[TripletFailure] = []
    for triplet in candidates:
        attempt = _plan_one(g, triplet, report, failures)
        if attempt is not None:
            return attempt

    kind = "all-triplets-infeasible"
    if opts.triplet is not None and report.cip_count == 5 and failures[-1].stage == "paths":
        # Five CIPs fix the splits, and no path set exists for the
        # requested corner.
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
        fail("paths", reason, final=True)
        return None

    ne = g.vertices[-1] + 1
    try:
        ag = four_completion(g, completion_paths(ps, ne), ne=ne, ne_arc=ps.p1)
    except ValueError as exc:
        fail("completion", str(exc))
        return None

    try:
        rel = construct_rel(ag)  # checks the pole rows and every ring of its labeling
    except NotConstructible as exc:
        fail("rel", str(exc))
        return None

    try:
        norm = normalize_labels(rel, triplet, ne)
    except NormalizationFailed as exc:
        fail("normalize", str(exc))
        return None

    try:
        full = rfp_from_rel(rel)
        lplan, profile = remove_ne(full, ne)
        verdict = verify_nontrivial_L(lplan, profile)
    except ValueError as exc:
        fail("layout", str(exc))
        return None
    if not verdict.nontrivial:
        fail("verify", f"plan degenerates to a rectangle (walk {verdict.walk})")
        return None

    try:
        mismatch = _plan_mismatch(g, lplan)
    except ValueError as exc:
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


class RectResult(NamedTuple):
    outcome: str  # Plan | TooManyCips | TriangleOutline | Exhausted (the label search's cap only)
    graph: EmbeddedGraph
    cips: tuple[Cip, ...]
    plan: FloorPlan | None = None
    completion: AugmentedGraph | None = None
    rel: Rel | None = None
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.outcome == "Plan"


def rectangular_plan(g: EmbeddedGraph) -> RectResult:
    """Four-corner rectangular partition; no notch, no corner triplet.

    The corners are the first interior vertex of each CIP, then the
    lowest-position outer vertices not chosen, four in all; a triangular
    outline doubles its first.  CIP interiors are disjoint, as chords do
    not cross and minimal arcs do not nest.  Each side of a chord holds a
    CIP inside it, so no pole path holds both ends of a chord, and four
    distinct corners make each pole path a proper arc.  So the completion
    has no separating triangle, and it has a regular edge labeling
    (Kozminski and Kinnen 1985; Kant and He 1997), unless the outline is
    a triangle around inner vertices, as in K4: any pole attached over it
    makes it a separating triangle, so no four-completion is a PTPG, and
    attach_vertex's refusal is returned as TriangleOutline.  Exhausted
    means only that the label search hit its cap.
    """
    _require_ptpg(g)
    cips = find_cips(g)
    if len(cips) > 4:
        return RectResult(
            outcome="TooManyCips",
            graph=g,
            cips=cips,
            reason=f"{len(cips)} corner-implying paths, at most 4 usable corners",
        )
    corners = {c.interior[0] for c in cips}
    corners.update([v for v in g.outer if v not in corners][: 4 - len(corners)])
    cuts = sorted(corners, key=g.outer_pos.__getitem__)
    cuts += cuts[: 4 - len(cuts)]
    paths = tuple(
        (u,) if u == v else boundary_arc(g, u, v) for u, v in zip(cuts, cuts[1:] + cuts[:1])
    )
    try:
        ag = four_completion(g, paths)
    except EmbeddingConflict as exc:
        return RectResult(outcome="TriangleOutline", graph=g, cips=cips, reason=str(exc))
    try:
        rel = construct_rel(ag)
    except NotConstructible as exc:
        return RectResult(outcome="Exhausted", graph=g, cips=cips, reason=str(exc))
    return RectResult(
        outcome="Plan", graph=g, cips=cips, plan=rfp_from_rel(rel), completion=ag, rel=rel
    )
