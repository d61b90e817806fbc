"""L-shaped floor plans from properly triangulated planar graphs."""

from .boundary import Cip, NecessaryReport, Triplet, necessary_conditions
from .flipping import NormalizeReport
from .graph import EmbeddedGraph, InconsistentEmbedding, PtpgReport, validate_ptpg
from .io import ParseError, parse_graph, plan_to_doc, render_svg, serialize_graph, serialize_plan
from .layout import CornerProfile, FloorPlan, NonTrivialityVerdict, Rect, dual_graph
from .paths import AugmentedGraph, PathSet
from .pipeline import InvalidInput, PlanOptions, PlanResult, RectResult, plan, rectangular_plan
from .rel import Rel

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
    "Triplet",
    "dual_graph",
    "generate_ptpg",
    "necessary_conditions",
    "parse_graph",
    "plan",
    "plan_to_doc",
    "rectangular_plan",
    "render_svg",
    "serialize_graph",
    "serialize_plan",
    "validate_ptpg",
]
