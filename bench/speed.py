"""A speed gauge that corrects measured times for the pace of a shared machine.

On a machine shared with other work, the same Python code runs up to
about twice as slowly for minutes at a time, in process CPU time as in
wall time.  The gauge times a fixed
piece of the benchmark's own code (the plan checker on three planted
plans, no lplan code involved) and gives the ratio of its nominal time
to its time now.  Multiplying a measured time by that ratio gives the
time at the nominal pace.  A change to lplan does not change the gauge,
so corrected times still show it.
"""

from __future__ import annotations

import json
import random
import statistics
import time

from check import check_plan
from planted import planted_plan

# One pass of the gauge at the nominal pace: a typical pass on a shared
# 2-core Intel Xeon at 2.1 GHz with Python 3.11.
NOMINAL_S = 0.005


def _reference() -> list[tuple[bytes, dict]]:
    out = []
    for k in range(3):
        shape, rects, graph = planted_plan(100, random.Random(f"speed-gauge:{k}"))
        modules = [
            {"label": f"m{v}", "x": r[0], "y": r[1], "w": r[2] - r[0], "h": r[3] - r[1]}
            for v, r in sorted(rects.items())
        ]
        doc = {"modules": modules, "outline": shape.outline(), "concave_corners": [[shape.nx, shape.ny]]}
        out.append((json.dumps(doc).encode(), graph))
    return out


class SpeedGauge:
    def __init__(self) -> None:
        self.plans = _reference()
        if any(check_plan(data, graph) for data, graph in self.plans):
            raise RuntimeError("the speed gauge's reference plans do not pass the checker")

    def sample(self) -> float:
        """Seconds for one pass of the gauge now."""
        t0 = time.perf_counter()
        for data, graph in self.plans:
            check_plan(data, graph)
        return time.perf_counter() - t0

    @staticmethod
    def factor(samples: list[float]) -> float:
        """Nominal pace over the pace the samples show (below 1 on a slow machine)."""
        return NOMINAL_S / statistics.median(samples)
