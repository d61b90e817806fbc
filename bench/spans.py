"""Per-module spans for the traced run, recorded from outside the program.

The tracer replaces names that lplan's modules look up at call time
with timing wrappers, and wraps the EmbeddedGraph constructor.  Each
call becomes a span; a bucket's time is the self time of its spans,
that is their duration minus the wrapped calls inside them, so the
buckets of one operation add up to its traced time.  A name that a
later version of lplan no longer has is reported as absent.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# bucket -> (module, attribute) pairs whose calls it times
WRAPPED = {
    "io.parse": [("lplan.io", "parse_graph")],
    "io.document": [("lplan.io", "plan_to_doc"), ("lplan.io", "serialize_plan"),
                    ("lplan.layout", "plan_outline")],
    "pipeline": [("lplan.pipeline", "plan")],
    "graph.build": [("lplan.graph", "EmbeddedGraph.__init__")],
    "graph.validate": [("lplan.pipeline", "validate_ptpg")],
    "boundary": [("lplan.pipeline", "necessary_conditions"), ("lplan.pipeline", "find_cips")],
    "paths.select": [("lplan.pipeline", "select_paths")],
    "paths.complete": [("lplan.pipeline", "augment_with_ne"),
                       ("lplan.pipeline", "four_completion")],
    "rel.construct": [("lplan.pipeline", "construct_rel")],
    "rel.check": [("lplan.pipeline", "is_valid_rel")],
    "flipping.normalize": [("lplan.pipeline", "normalize_labels")],
    "layout.rfp": [("lplan.pipeline", "rfp_from_rel")],
    "layout.dual": [("lplan.pipeline", "dual_graph")],
    "layout.verify": [("lplan.pipeline", "remove_ne"), ("lplan.pipeline", "verify_nontrivial_L")],
}


class Tracer:
    def __init__(self) -> None:
        self.ms = Counter()     # bucket -> self time (ms) in the current operation
        self.calls = Counter()  # bucket -> calls in the current operation
        self._open: list[float] = []  # per open span: time spent in wrapped children
        self.absent: list[str] = []
        self.present: set[str] = set()

    def wrap(self, bucket: str, fn):
        clock = time.perf_counter
        stack = self._open

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                self.ms[bucket] += (dt - inner) * 1e3
                self.calls[bucket] += 1
                if stack:
                    stack[-1] += dt

        return span

    def install(self) -> None:
        for bucket, names in WRAPPED.items():
            for module, path in names:
                *outer, attr = path.split(".")
                try:
                    owner = importlib.import_module(module)
                except ImportError:
                    owner = None
                for name in outer:
                    owner = getattr(owner, name, None)
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.absent.append(f"{module}.{path}")
                    continue
                setattr(owner, attr, self.wrap(bucket, fn))
                self.present.add(bucket)

    def take(self) -> tuple[Counter, Counter]:
        """This operation's self times and call counts; starts the next operation."""
        ms, calls = self.ms, self.calls
        self.ms, self.calls = Counter(), Counter()
        return ms, calls
