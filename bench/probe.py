#!/usr/bin/env python3
"""Probes for lplan faults that the benchmark's workloads leave out.

Usage (from the repository root):
    python3 bench/probe.py fixed-11
        The 11-module L of planted.FIXED_11: shows that its dual equals its
        graph, that the notch walk and a brute-force stretch search both
        call it non-trivial, that plan() refuses it, and which path-set
        condition rejects the path set read off the plan.
    python3 bench/probe.py sizes --n 1000 --count 3 [--seed 1]
        plan() on planted graphs of n modules, one at a time, printing the
        time and the outcome or the exception each one gives: the probe
        for RecursionError from construct_rel's recursive search at large
        n, and for its heavy-tailed times at n=800.
    python3 bench/probe.py left-out --workload planted-mid --seeds 1-10
        The inputs of each seed on which plan() refuses or crashes although
        they are plannable by construction: "left out" for the known false
        refusal that a run replaces by a spare, "failed" for any other,
        which a run keeps and counts as failed.  Spares are not probed.

The fixed-11 probe asks lplan's layout module for a second opinion on
the dual; the benchmark's workloads and checker never use lplan's
layout or oracle modules.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from geometry import LShape, adjacency, first_overlap, walk_bend  # noqa: E402
from make_inputs import FIXED, make  # noqa: E402
from planted import FIXED_11, FIXED_11_SHAPE, fixed_11_graph, planted_graph  # noqa: E402
from run import known_fault  # noqa: E402


def _concave(rects: dict, w: int, h: int) -> int | None:
    """Concave corners of the covered region; None if it pinches at a point."""
    cells = {(x, y) for x1, y1, x2, y2 in rects.values() for x in range(x1, x2) for y in range(y1, y2)}
    count = 0
    for x in range(w + 1):
        for y in range(h + 1):
            quad = [(x - 1, y - 1) in cells, (x, y - 1) in cells, (x - 1, y) in cells, (x, y) in cells]
            if sum(quad) == 3:
                count += 1
            elif sum(quad) == 2 and quad[0] == quad[3]:
                return None
    return count


def stretchable(rects: dict, w: int, h: int, cap: int = 200_000) -> bool:
    """Brute force: can unit moves of outline walls lose a concave corner?

    Breadth-first over plans reached by moving one module side that lies
    on the outline by one unit, inside the w x h box, keeping the modules
    disjoint and every wall contact (with its orientation) as it was.
    """
    want, start = adjacency(rects), _concave(rects, w, h)
    ids = sorted(rects)
    seen = {tuple(rects[v] for v in ids)}
    queue = [dict(rects)]
    while queue:
        cur = queue.pop()
        cells = {(x, y) for x1, y1, x2, y2 in cur.values() for x in range(x1, x2) for y in range(y1, y2)}
        for v in ids:
            x1, y1, x2, y2 = cur[v]
            beyond = {  # coordinate index of a side -> the cells just outside it
                0: [(x1 - 1, y) for y in range(y1, y2)], 2: [(x2, y) for y in range(y1, y2)],
                1: [(x, y1 - 1) for x in range(x1, x2)], 3: [(x, y2) for x in range(x1, x2)],
            }
            for k, outside in beyond.items():
                if all(c in cells for c in outside):
                    continue  # an inner wall, not on the outline
                for d in (-1, 1):
                    r = list(cur[v])
                    r[k] += d
                    if not (0 <= r[0] < r[2] <= w and 0 <= r[1] < r[3] <= h):
                        continue
                    nxt = {**cur, v: tuple(r)}
                    key = tuple(nxt[u] for u in ids)
                    if key in seen or first_overlap(nxt) or adjacency(nxt) != want:
                        continue
                    seen.add(key)
                    corners = _concave(nxt, w, h)
                    if corners is None:
                        continue
                    if corners < start:
                        return True
                    if len(seen) > cap:
                        raise RuntimeError("stretch search exceeds its cap")
                    queue.append(nxt)
    return False


def fixed_11() -> None:
    from lplan.boundary import Triplet
    from lplan.io import doc_to_graph
    from lplan.layout import FloorPlan, Rect, dual_graph
    from lplan.paths import PathSet, check_path_conditions
    from lplan.pipeline import plan

    g = doc_to_graph(fixed_11_graph())
    w, h, _, _ = FIXED_11_SHAPE
    fp = FloorPlan({v: Rect(*r) for v, r in FIXED_11.items()}, w, h, dict(g.labels))
    dual = dual_graph(fp)
    print("dual equals the input graph:", dual.rotation == g.rotation and dual.outer == g.outer)
    shape = LShape(*FIXED_11_SHAPE)
    print("notch walk:", shape.notch_walk(FIXED_11), "bend:", walk_bend(shape.notch_walk(FIXED_11), adjacency(FIXED_11)))
    print("brute-force stretch search finds it trivial:", stretchable(FIXED_11, w, h))
    res = plan(g)
    print("plan():", res.outcome, res.refusal_kind)
    for f in res.failures:
        print("  triplet", f.triplet, f.stage, f.reason)
    ps = PathSet((2, 8, 10), (10,), (10, 11, 7, 6), (6, 4, 1), (1, 9, 2), Triplet(2, 8, 10))
    print("path set read off the plan", ps.paths, "violations:", check_path_conditions(g, ps))


def sizes(n: int, count: int, seed: int) -> None:
    from lplan.io import parse_graph
    from lplan.pipeline import plan

    for k in range(count):
        doc = planted_graph(n, random.Random(f"probe:{seed}:{n}:{k}"))
        g = parse_graph(json.dumps(doc).encode())
        print(f"n={n} graph {k}: planning", flush=True)
        t0 = time.perf_counter()
        try:
            outcome = plan(g).outcome
        except Exception as exc:  # the probe reports what plan() raises
            outcome = type(exc).__name__
        print(f"n={n} graph {k}: {outcome} after {time.perf_counter() - t0:.2f} s", flush=True)


def left_out(workload: str, seeds: range) -> None:
    from lplan.io import parse_graph
    from lplan.pipeline import plan

    for seed in seeds:
        for i, (doc, entry) in enumerate(make(workload, seed)):
            if entry["class"] == FIXED or entry["spare"]:
                continue
            try:
                res = plan(parse_graph(json.dumps(doc).encode()))
            except Exception as exc:  # the probe reports what plan() raises
                print(f"seed {seed} input {i:04d} (n={entry['n']}): failed: {exc!r}", flush=True)
                continue
            if res.ok or entry["expect"] != "plan":
                continue
            what = "left out" if known_fault(res) else "failed"
            print(f"seed {seed} input {i:04d} (n={entry['n']}): {what}: {res.outcome} {res.failures}",
                  flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="probe", required=True)
    sub.add_parser("fixed-11")
    p = sub.add_parser("sizes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--seed", type=int, default=1)
    p = sub.add_parser("left-out")
    p.add_argument("--workload", default="planted-mid")
    p.add_argument("--seeds", default="1-10", help="first-last")
    args = ap.parse_args()
    if args.probe == "fixed-11":
        fixed_11()
    elif args.probe == "sizes":
        sizes(args.n, args.count, args.seed)
    else:
        first, last = (int(x) for x in args.seeds.split("-"))
        left_out(args.workload, range(first, last + 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
