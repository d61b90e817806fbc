"""L-shaped floor plans from properly triangulated planar graphs."""

from .boundary import (
    Cip,
    NecessaryReport,
    Shortcut,
    Triplet,
    find_cips,
    find_shortcuts,
    find_triplets,
    necessary_conditions,
)
from .flipping import NormalizeReport, normalize_labels
from .graph import EmbeddedGraph, InconsistentEmbedding, PtpgReport, validate_ptpg
from .io import ParseError, parse_graph, plan_to_doc, render_svg, serialize_graph, serialize_plan
from .layout import (
    CornerProfile,
    FloorPlan,
    NonTrivialityVerdict,
    Rect,
    dual_graph,
    plan_outline,
    remove_ne,
    rfp_from_rel,
    verify_nontrivial_L,
)
from .paths import (
    AugmentedGraph,
    Infeasible,
    PathSet,
    check_path_conditions,
    completion_paths,
    four_completion,
    select_paths,
)
from .pipeline import (
    InvalidInput,
    PlanOptions,
    PlanResult,
    RectResult,
    plan,
    rectangular_plan,
)
from .rel import Rel, construct_rel, flip_edge, flip_vertex, is_valid_rel, rotate_four_cycle

__version__ = "0.1.0"


def __getattr__(name: str):  # the generator loads on first use; planning never needs it
    if name in ("GenSpec", "generate_ptpg"):
        from . import gen
        return getattr(gen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AugmentedGraph",
    "Cip",
    "CornerProfile",
    "EmbeddedGraph",
    "FloorPlan",
    "GenSpec",
    "InconsistentEmbedding",
    "Infeasible",
    "InvalidInput",
    "NecessaryReport",
    "NonTrivialityVerdict",
    "NormalizeReport",
    "ParseError",
    "PathSet",
    "PlanOptions",
    "PlanResult",
    "PtpgReport",
    "Rect",
    "RectResult",
    "Rel",
    "Shortcut",
    "Triplet",
    "check_path_conditions",
    "completion_paths",
    "construct_rel",
    "dual_graph",
    "find_cips",
    "find_shortcuts",
    "find_triplets",
    "flip_edge",
    "flip_vertex",
    "four_completion",
    "generate_ptpg",
    "is_valid_rel",
    "necessary_conditions",
    "normalize_labels",
    "parse_graph",
    "plan",
    "plan_outline",
    "plan_to_doc",
    "rectangular_plan",
    "remove_ne",
    "render_svg",
    "rfp_from_rel",
    "select_paths",
    "serialize_graph",
    "serialize_plan",
    "validate_ptpg",
    "verify_nontrivial_L",
]
