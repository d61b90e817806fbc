#!/usr/bin/env python3
"""lplan benchmark: planted L-plans and large refusals, end to end or traced.

Usage (from the repository root):
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One operation takes one graph document through lplan.io.parse_graph and
lplan.pipeline.plan and, on success, through plan_to_doc and
serialize_plan: the `lplan plan` path without process start-up.  The
load is a closed loop, one caller in one thread.  Inputs come from the
benchmark's own seeded generators (make_inputs.py, run in a child
process) and every output is checked by check.py, which does not use
lplan.  Times are corrected for the pace of a shared machine by the
speed gauge in speed.py.  The last line of standard output is one JSON
object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
See README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import pathlib
import resource
import statistics
import subprocess
import sys
import tempfile
import time

from check import check_plan, check_refusal
from make_inputs import FIXED, WORKLOADS
from spans import Tracer
from speed import SpeedGauge

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9

# per-layer metric -> (unit, tracer bucket whose self time it reports, or None)
PER_LAYER = {
    "io.parse_ms": ("ms", "io.parse"),
    "io.document_ms": ("ms", "io.document"),
    "graph.builds": ("count", None),
    "graph.build_ms": ("ms", "graph.build"),
    "graph.validate_ms": ("ms", "graph.validate"),
    "boundary.ms": ("ms", "boundary"),
    "paths.select_ms": ("ms", "paths.select"),
    "paths.complete_ms": ("ms", "paths.complete"),
    "pipeline.triplets_per_op": ("count", None),
    "pipeline.self_ms": ("ms", "pipeline"),
    "rel.construct_ms": ("ms", "rel.construct"),
    "rel.check_ms": ("ms", "rel.check"),
    "flipping.normalize_ms": ("ms", "flipping.normalize"),
    "flipping.moves": ("count", None),
    "layout.rfp_ms": ("ms", "layout.rfp"),
    "layout.dual_ms": ("ms", "layout.dual"),
    "layout.verify_ms": ("ms", "layout.verify"),
    "layout.grid_cells": ("cells", None),
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def set_up(inputs: pathlib.Path, manifest: list[dict]):
    """Import lplan afresh and read the input documents; returns (seconds, io, pipeline, docs)."""
    for name in [m for m in sys.modules if m == "lplan" or m.startswith("lplan.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    io = importlib.import_module("lplan.io")
    pipeline = importlib.import_module("lplan.pipeline")
    docs = [(inputs / e["file"]).read_bytes() for e in manifest]
    return time.perf_counter() - t0, io, pipeline, docs


def operate(io, pipeline, data: bytes):
    """One operation: (seconds, PlanResult, plan document bytes or None).

    An exception from lplan gives (seconds, None, its repr).
    """
    t0 = time.perf_counter()
    try:
        res = pipeline.plan(io.parse_graph(data))
        out = io.serialize_plan(io.plan_to_doc(res)) if res.ok else None
    except Exception as exc:  # a crash on one input must not end the run
        return time.perf_counter() - t0, None, repr(exc)
    return time.perf_counter() - t0, res, out


def known_fault(res) -> bool:
    """The false refusal of a plannable graph that lplan gives on some seeds.

    Every triplet tried failed at path selection (lplan.paths rejects the
    graph's path sets), so plan() answers InfeasibleAllTriplets.
    """
    failures = getattr(res, "failures", ())
    return (res is not None and res.outcome == "InfeasibleAllTriplets" and bool(failures)
            and all(getattr(f, "stage", None) == "paths" for f in failures))


def signature(res, out) -> bytes:
    if res is None:
        return out.encode()
    if out is not None:
        return out
    cips = getattr(getattr(res, "necessary", None), "cip_count", None)
    return repr((res.outcome, res.refusal_kind, cips, getattr(res, "failures", ()))).encode()


def counts(res) -> dict[str, float]:
    """Work counters read off the public result."""
    if res is None:
        return {}
    norm, fp = getattr(res, "normalize", None), getattr(res, "plan", None)
    return {
        "pipeline.triplets_per_op": len(getattr(res, "failures", ())) + (1 if res.ok else 0),
        "flipping.moves": (norm.flips + norm.rotations) if norm is not None else 0,
        "layout.grid_cells": fp.width * fp.height if res.ok and fp is not None else 0,
    }


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "lplan" / "pipeline.py").is_file():
        log(f"no lplan sources under {ROOT / 'src'}; run from a checkout of the repository")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix=".bench-inputs-", dir=ROOT) as tmp:
        inputs = pathlib.Path(tmp)
        subprocess.run(
            [sys.executable, str(HERE / "make_inputs.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(inputs)],
            check=True, timeout=150,
        )
        manifest = json.loads((inputs / "manifest.json").read_text())
        gauge = SpeedGauge()
        setups = []
        before = gauge.sample()
        for _ in range(SETUP_REPEATS):
            dt, io, pipeline, docs = set_up(inputs, manifest)
            after = gauge.sample()
            setups.append(dt * gauge.factor([before, after]))
            before = after
        return measure(args, manifest, docs, io, pipeline, gauge, statistics.median(setups))


class Rounds:
    """Operation times and layer figures, corrected for the machine's pace.

    Between operations the speed gauge is sampled every GAUGE_EVERY_S.
    When a round ends, each time recorded in it is multiplied by the
    gauge's factor over the samples taken within WINDOW_S of it.
    """

    GAUGE_EVERY_S = 0.04
    WINDOW_S = 0.5

    def __init__(self, gauge: SpeedGauge, tracer: Tracer | None) -> None:
        self.gauge = gauge
        self.tracer = tracer
        self.times: dict[int, list[float]] = {}  # input -> corrected time per round
        self.raw: dict[int, list[float]] = {}  # input -> measured time per round
        self.layer = {name: 0.0 for name in PER_LAYER}
        self.ops = 0
        self.factors: list[float] = []  # per round, over all its samples
        self._pending: list[tuple[float, int, float, dict]] = []
        self._samples: list[tuple[float, float]] = []  # (when, seconds)

    def record(self, i: int, dt: float, res) -> None:
        figures = {}
        if self.tracer:
            figures.update(counts(res))
            ms, calls = self.tracer.take()
            for name, (_, bucket) in PER_LAYER.items():
                if bucket:
                    figures[name] = ms.get(bucket, 0.0)
            figures["graph.builds"] = calls.get("graph.build", 0)
        now = time.perf_counter()
        self._pending.append((now, i, dt, figures))
        if not self._samples or now - self._samples[-1][0] >= self.GAUGE_EVERY_S:
            self._samples.append((now, self.gauge.sample()))

    def close(self) -> None:
        """End the round: correct and file its operations."""
        self.factors.append(self.gauge.factor([s for _, s in self._samples]))
        for when, i, dt, figures in self._pending:
            near = [s for t, s in self._samples if abs(t - when) <= self.WINDOW_S]
            f = self.gauge.factor(near or [s for _, s in self._samples])
            self.times.setdefault(i, []).append(dt * f)
            self.raw.setdefault(i, []).append(dt)
            self.ops += 1
            for name, v in figures.items():
                self.layer[name] += v * f if PER_LAYER[name][0] == "ms" else v
        self._pending.clear()
        self._samples.clear()


def measure(args, manifest, docs, io, pipeline, gauge: SpeedGauge, setup_s: float) -> int:
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        for name in tracer.absent:
            log(f"absent from lplan, not traced: {name}")
    operate(io, pipeline, docs[0])  # lazy first-call work stays out of the timings
    if tracer:
        tracer.take()
    rounds = Rounds(gauge, tracer)

    # Round one picks the operations: per class, the first inputs that are
    # not left out.  Only the known false refusal (see known_fault) of a
    # random planted input is left out, named, and replaced by the class's
    # next spare: it shows on some seeds only, so counting it would make
    # the failed share differ between runs.  Any other refusal of a planted
    # input, and any exception, stays in and counts as failed; so does a
    # known false refusal once the class has no spare left.  The fixed
    # 11-module L, refused on every seed, stays in and counts as failed.
    quota: dict = {}
    spares: dict = {}
    for e in manifest:
        book = spares if e.get("spare") else quota
        book[e["class"]] = book.get(e["class"], 0) + 1
    kept: list[int] = []
    sigs: dict[int, bytes] = {}
    outputs: dict[int, tuple] = {}
    started = time.perf_counter()
    for i, e in enumerate(manifest):
        if quota.get(e["class"], 0) == 0:
            continue
        dt, res, out = operate(io, pipeline, docs[i])
        if e["class"] != FIXED and e["expect"] == "plan" and known_fault(res) and spares.get(e["class"]):
            spares[e["class"]] -= 1
            log(f"left out: {e['file']} (n={e['n']}, seed {args.seed}): {res.outcome}: {res.failures}")
            if tracer:
                tracer.take()
            continue
        quota[e["class"]] -= 1
        kept.append(i)
        sigs[i] = signature(res, out)
        if res is None:
            outputs[i] = (None, "error", out, None)
        else:
            cips = getattr(getattr(res, "necessary", None), "cip_count", None)
            outputs[i] = (out if res.ok else None, res.outcome, res.refusal_kind, cips)
        if res is None or (e["expect"] == "plan" and not res.ok):
            why = out if res is None else f"{res.outcome}: {res.failures}"
            log(f"failed: {e['file']} (n={e['n']}, seed {args.seed}): {why}")
        rounds.record(i, dt, res)
        del res, out
    rounds.close()

    nondeterministic = set()
    while time.perf_counter() - started < args.seconds:
        for i in kept:
            dt, res, out = operate(io, pipeline, docs[i])
            if signature(res, out) != sigs[i]:
                nondeterministic.add(i)
            rounds.record(i, dt, res)
            del res, out
        rounds.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    defects = [f"{manifest[i]['file']}: output differs between rounds" for i in sorted(nondeterministic)]
    for i in kept:
        out, outcome, kind, cips = outputs[i]
        e = manifest[i]
        if outcome == "error" or (e["expect"] == "plan" and out is None):
            defect = None  # counted in failed
        elif e["expect"] == "plan":
            defect = check_plan(out, json.loads(docs[i]))
        else:
            defect = check_refusal(outcome, kind, cips, e)
        if defect:
            defects.append(f"{e['file']} (n={e['n']}): {defect}")
    for d in defects:
        log(f"INCORRECT {d}")

    n_rounds = len(rounds.factors)
    failed = n_rounds * sum(
        1 for i in kept
        if outputs[i][1] == "error" or (outputs[i][0] is None and manifest[i]["expect"] == "plan"))
    ops = rounds.ops
    busy = sum(sum(ts) for ts in rounds.times.values())
    log(f"{args.workload} seed {args.seed}: {ops} operations in {n_rounds} rounds of {len(kept)}, "
        f"{failed} failed; {sum(map(sum, rounds.raw.values())):.2f} s measured, "
        f"{busy:.2f} s at the nominal pace "
        f"(pace factors {min(rounds.factors):.3f}..{max(rounds.factors):.3f})")
    if tracer:
        metrics = {}
        for name, (unit, bucket) in PER_LAYER.items():
            if bucket and bucket not in tracer.present:
                log(f"layer absent: {name}")
            metrics[name] = {"value": rounds.layer[name] / ops, "unit": unit}
        spans_ms = sum(rounds.layer[n] for n, (_, b) in PER_LAYER.items() if b)
        log(f"traced: {1e3 * busy / ops:.3f} ms per operation, spans cover "
            f"{spans_ms / ops:.3f} ms ({100 * spans_ms / (1e3 * busy):.1f}%)")
    else:
        # Each input's time is its median over the rounds; the statistics
        # then range over the inputs.
        typical = {i: statistics.median(ts) for i, ts in rounds.times.items()}
        ordered = sorted(typical.values())
        p90_at = math.ceil(0.9 * len(ordered)) - 1
        if len(ordered) - 1 - p90_at < 10:
            log(f"only {len(ordered) - 1 - p90_at} inputs lie beyond op_ms_p90")
        per_class: dict = {}
        for i, t in typical.items():
            if manifest[i]["class"] != FIXED:
                per_class.setdefault(manifest[i]["class"], []).append(t)
        medians = sorted((c, statistics.median(ts)) for c, ts in per_class.items())
        log("class medians (ms): " + ", ".join(f"n={c}: {1e3 * m:.2f}" for c, m in medians))
        slowest = sorted(typical, key=typical.get)[-3:]
        log("slowest inputs: " + ", ".join(
            f"{manifest[i]['file']} (n={manifest[i]['n']}) {1e3 * typical[i]:.1f} ms" for i in slowest))
        raw = sorted(statistics.median(ts) for ts in rounds.raw.values())
        log(f"as measured, before the pace correction: op_ms_p50 {1e3 * statistics.median(raw):.4f}, "
            f"op_ms_p90 {1e3 * raw[p90_at]:.4f}, ops_per_s {len(raw) / sum(raw):.4f}")
        metrics = {
            "op_ms_p50": {"value": 1e3 * statistics.median(ordered), "unit": "ms"},
            "op_ms_p90": {"value": 1e3 * ordered[p90_at], "unit": "ms"},
            "ops_per_s": {"value": len(ordered) / sum(ordered), "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "growth_exponent": {"value": slope(medians), "unit": "dimensionless"},
        }
    print(json.dumps({"correct": not defects, "attempted": ops, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
