#!/usr/bin/env python3
"""Write one workload's input graph documents and their certificates.

Usage: python3 bench/make_inputs.py --workload NAME --seed N --out DIR

DIR receives one graph document per input (NNNN.json, in lplan's graph
format) and manifest.json, which lists each input in run order with its
size class and what it must give: "plan" for a planted L (plannable by
construction) or "too-many-cips" with the benchmark's own count of
corner-implying paths.  Each class carries SPARES extra inputs, used in
order when an input is left out (see README.md).  Only the
standard library and the benchmark's own generators are used; lplan is
not imported.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys

from growth import cip_count, growth_graph
from planted import fixed_11_graph, planted_graph

# name -> (generator, size classes, inputs per class)
WORKLOADS = {
    "planted-mid": ("planted", (8, 12, 20, 35, 60, 100, 150), 48),
    "planted-large": ("planted", (200, 300, 400), 8),
    "refuse-large": ("growth", (200, 400, 600, 800, 1000), 20),
}
SPARES = 6
FIXED = "fixed-11"  # size class of planted.FIXED_11


def make(workload: str, seed: int) -> list[tuple[dict, dict]]:
    """(graph document, manifest entry) pairs in run order."""
    kind, sizes, per_class = WORKLOADS[workload]
    out = []
    if workload == "planted-mid":
        out.append((fixed_11_graph(), {"n": 11, "class": FIXED, "expect": "plan"}))
    for n in sizes:
        made = draw = 0
        while made < per_class + SPARES:
            rng = random.Random(f"{workload}:{seed}:{n}:{draw}")
            draw += 1
            entry = {"n": n, "class": n, "spare": made >= per_class}
            if kind == "planted":
                doc = planted_graph(n, rng)
                entry["expect"] = "plan"
            else:
                doc = growth_graph(n, rng)
                entry.update(expect="too-many-cips", cips=cip_count(doc))
                if entry["cips"] <= 5:
                    continue  # not certified as a refusal; draw again
            out.append((doc, entry))
            made += 1
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, type=pathlib.Path)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for i, (doc, entry) in enumerate(make(args.workload, args.seed)):
        name = f"{i:04d}.json"
        (args.out / name).write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        manifest.append(dict(entry, file=name))
    (args.out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
