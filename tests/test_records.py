"""The contract of the immutable records: repr text, hash and read-only fields.

Plan documents, CLI text and the refusal reprs a caller may compare are
built from these records, so their repr and hash must not drift.  The
repr strings are literals, and each hash must equal that of the plain
tuple of the fields in declaration order.  The last test keeps the
stateful classes, the only dataclasses, down to the four that need one.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import lplan
import samples
from lplan.boundary import find_cips, find_triplets, necessary_conditions
from lplan.flipping import WorkItem
from lplan.gen import GenSpec, generate_ptpg
from lplan.graph import validate_ptpg
from lplan.paths import PathViolation
from lplan.pipeline import PlanOptions, plan, rectangular_plan


def _pentagon_records() -> dict:
    g = samples.pentagon_with_pocket()
    res = plan(g)
    return {
        "cip": find_cips(g)[0],
        "triplet": find_triplets(g)[1],
        "necessary": necessary_conditions(g),
        "ptpg": validate_ptpg(g),
        "rect": res.plan.rects[2],
        "profile": res.profile,
        "verdict": res.verdict,
        "pathset": res.pathset,
        "normalize": res.normalize,
    }


# class name: (key into _pentagon_records, field names in order, repr)
RECORDS = {
    "Cip": ("cip", ("vertices",), "Cip(vertices=(2, 3, 4))"),
    "Triplet": ("triplet", ("a", "b", "c"), "Triplet(a=3, b=4, c=5)"),
    "NecessaryReport": (
        "necessary",
        ("cips", "triplets"),
        "NecessaryReport(cips=(Cip(vertices=(2, 3, 4)), Cip(vertices=(4, 5, 1, 2))), "
        "triplets=(Triplet(a=1, b=2, c=3), Triplet(a=3, b=4, c=5)))",
    ),
    "PtpgReport": (
        "ptpg",
        ("is_biconnected", "nontriangular_interior_faces", "separating_triangles"),
        "PtpgReport(is_biconnected=True, nontriangular_interior_faces=(), separating_triangles=())",
    ),
    "Rect": ("rect", ("x1", "y1", "x2", "y2"), "Rect(x1=2, y1=1, x2=4, y2=3)"),
    "CornerProfile": (
        "profile",
        ("nx", "ny", "notch"),
        "CornerProfile(nx=3, ny=3, notch=Rect(x1=3, y1=3, x2=5, y2=4))",
    ),
    "NonTrivialityVerdict": (
        "verdict",
        ("nontrivial", "walk", "witness"),
        "NonTrivialityVerdict(nontrivial=True, walk=(1, 2, 3), witness=(1, 2, 3))",
    ),
    "PathSet": (
        "pathset",
        ("p1", "p2", "p3", "p4", "p5", "triplet"),
        "PathSet(p1=(1, 2, 3), p2=(3,), p3=(3, 4), p4=(4, 5, 1), p5=(1,), "
        "triplet=Triplet(a=1, b=2, c=3))",
    ),
    "NormalizeReport": ("normalize", ("trace", "passes"), "NormalizeReport(trace=(), passes=0)"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_repr_hash_and_read_only_fields(name):
    key, fields, text = RECORDS[name]
    rec = _pentagon_records()[key]
    assert type(rec).__name__ == name
    assert repr(rec) == text
    values = tuple(getattr(rec, f) for f in fields)
    assert hash(rec) == hash(values)
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], values[0])
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize(
    "rec, values, text",
    [
        (GenSpec(n=12, seed=3), (12, 3, None), "GenSpec(n=12, seed=3, cip_target=None)"),
        (PlanOptions(), (None,), "PlanOptions(triplet=None)"),
        (PlanOptions(triplet=(1, 2, 3)), ((1, 2, 3),), "PlanOptions(triplet=(1, 2, 3))"),
        (WorkItem(4, 5, 6), (4, 5, 6), "WorkItem(x=4, y=5, c=6)"),
        (
            PathViolation("ShortcutP5Side", (12, 2)),
            ("ShortcutP5Side", (12, 2)),
            "PathViolation(kind='ShortcutP5Side', witness=(12, 2))",
        ),
    ],
    ids=[
        "GenSpec", "PlanOptions-default", "PlanOptions", "WorkItem", "PathViolation"
    ],
)
def test_constructed_record_contract(rec, values, text):
    assert repr(rec) == text
    assert hash(rec) == hash(values)
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_refusal_failures_and_flip_trace_reprs():
    res = plan(samples.five_cip_thirteen_gon())
    first = res.failures[0]
    assert repr(first) == (
        "TripletFailure(triplet=(1, 2, 3), stage='paths', reason='ShortcutP5Side(12, 3)', final=True)"
    )
    assert first.reason == str(PathViolation("ShortcutP5Side", (12, 3)))
    assert hash(first) == hash((first.triplet, first.stage, first.reason, first.final))
    with pytest.raises(AttributeError):
        first.final = False
    refused = plan(generate_ptpg(GenSpec(40, 4, 4)), PlanOptions(triplet=(25, 29, 35))).failures
    assert repr(refused) == (
        "(TripletFailure(triplet=(25, 29, 35), stage='normalize', "
        "reason='chain reached pole 43 at edge (41,35)', final=False),)"
    )
    norm = plan(generate_ptpg(GenSpec(n=10, seed=0))).normalize
    assert repr(norm.trace[:2]) == (
        "(FlipRecord(action='flip', detail=(1, 2)), "
        "FlipRecord(action='rotate', detail=((2, 6, 9, 1), 'cw')))"
    )
    rec = norm.trace[1]
    assert hash(rec) == hash((rec.action, rec.detail))
    assert (norm.rotations, norm.flips, norm.passes) == (1, 2, 1)


def test_results_are_read_only():
    res = plan(samples.pentagon_with_pocket())
    rect = rectangular_plan(samples.hexagon_ring())
    for rec, name in ((res, "outcome"), (rect, "outcome"), (res.completion, "ne")):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)


def _lplan_classes():
    for info in pkgutil.iter_modules(lplan.__path__):
        mod = importlib.import_module(f"lplan.{info.name}")
        for obj in vars(mod).values():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                yield obj


def test_only_stateful_classes_are_dataclasses():
    # dataclass() generates and compiles its methods at import, and builds
    # a missing docstring through inspect.signature; a record is a NamedTuple.
    found = {cls.__name__: cls for cls in _lplan_classes() if dataclasses.is_dataclass(cls)}
    assert set(found) == {"EmbeddedGraph", "FloorPlan", "Rel"}
    for name, cls in found.items():
        assert cls.__doc__ and not cls.__doc__.startswith(name + "("), name
