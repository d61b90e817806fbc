"""Command line front end.

Exit codes are a stable contract:
  0  success (check: candidate; plan: a plan was produced)
  1  invalid input (parse failure, inconsistent embedding, bad arguments)
  2  check verdict: not a plannable candidate
  3  plan refusal: the graph is valid but admits no plan (or none for
     the pinned corner)
"""

from __future__ import annotations

import argparse
import json
import sys

from .boundary import find_shortcuts, necessary_conditions
from .graph import InconsistentEmbedding, validate_ptpg
from .io import ParseError, parse_graph, parse_plan, plan_to_doc, render_svg, serialize_graph, serialize_plan
from .pipeline import InvalidInput, PlanOptions, plan


def _read(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str | None, data: bytes) -> None:
    if path is None or path == "-":
        sys.stdout.buffer.write(data)
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _labels(g, vs) -> list[str]:
    return [g.labels.get(v, str(v)) for v in vs]


def _names(g, vs) -> str:
    return "(" + ",".join(_labels(g, vs)) + ")"


def _necessary_dict(g, nec) -> dict:
    """The necessary conditions in a JSON report, each triplet named by label."""
    triplets = [_labels(g, t) for t in nec.triplets]
    return {"cip_count": nec.cip_count, "triplets": triplets, "pass": nec.ok}


def _cmd_check(args) -> int:
    g = parse_graph(_read(args.graph))
    report = validate_ptpg(g)
    nec = necessary_conditions(g)
    cips = nec.cips
    shortcuts = find_shortcuts(g)
    candidate = report.verdict and nec.ok
    if args.format == "json":
        payload = {
            "ptpg": {
                "pass": report.verdict,
                "biconnected": report.is_biconnected,
                "nontriangular_faces": [list(f) for f in report.nontriangular_interior_faces],
                "separating_triangles": [list(t) for t in report.separating_triangles],
            },
            "cips": [_labels(g, c.vertices) for c in cips],
            "shortcuts": [_labels(g, s.edge) for s in shortcuts],
            "necessary": _necessary_dict(g, nec),
            "candidate": candidate,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"vertices: {len(g.vertices)}  edges: {len(g.edges)}")
        print(f"ptpg: {'pass' if report.verdict else 'FAIL'}")
        if not report.is_biconnected:
            print("  not 2-connected")
        for f in report.nontriangular_interior_faces:
            print(f"  non-triangular face {_names(g, f)}")
        for t in report.separating_triangles:
            print(f"  separating triangle {_names(g, t)}")
        print(f"cips ({len(cips)}): " + " ".join(_names(g, c.vertices) for c in cips))
        print(
            f"shortcuts ({len(shortcuts)}): "
            + " ".join(_names(g, s.edge) for s in shortcuts)
        )
        print(
            f"triplets ({len(nec.triplets)}): "
            + " ".join(_names(g, t) for t in nec.triplets)
        )
        if not nec.triplets:
            print("  no admissible corner triplet: every boundary pair at distance")
            print("  two shares a second common neighbour")
        if nec.cip_count > 5:
            print("  more than five corner implying paths")
        print(f"verdict: {'candidate' if candidate else 'not plannable'}")
    return 0 if candidate else 2


def _resolve_triplet(g, spec: str):
    by_label: dict[str, list] = {}
    for v, name in g.labels.items():
        by_label.setdefault(name, []).append(v)
    out = []
    for token in spec.split(","):
        token = token.strip()
        if token in by_label:
            ids = by_label[token]
            if len(ids) > 1:
                named = ", ".join(map(str, sorted(ids)))
                raise InvalidInput(f"label {token!r} in --triplet names vertices {named}")
            out.append(ids[0])
        else:
            try:
                out.append(int(token))
            except ValueError:
                raise InvalidInput(f"unknown vertex {token!r} in --triplet") from None
    if len(out) != 3:
        raise InvalidInput("--triplet needs exactly three vertices")
    return tuple(out)


def _cmd_plan(args) -> int:
    g = parse_graph(_read(args.graph))
    opts = PlanOptions(triplet=_resolve_triplet(g, args.triplet) if args.triplet else None)
    result = plan(g, opts)
    if not result.ok:
        if args.format == "json":
            payload = {
                "outcome": result.outcome,
                "refusal": result.refusal_kind,
                "necessary": _necessary_dict(g, result.necessary),
                "failures": [
                    {
                        "triplet": _labels(g, f.triplet),
                        "stage": f.stage,
                        "reason": f.reason,
                        "final": f.final,
                    }
                    for f in result.failures
                ],
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"refused: {result.outcome} ({result.refusal_kind})")
            for f in result.failures:
                print(f"  {_names(g, f.triplet)} [{f.stage}] {f.reason}")
        return 3
    doc = plan_to_doc(result, include_trace=args.trace)
    data = serialize_plan(doc)
    if args.out:
        _write(args.out, data)
    if args.format == "json":
        if not args.out:
            sys.stdout.buffer.write(data)
    else:
        fp = result.plan
        norm = result.normalize
        print(f"plan: {len(fp.rects)} modules, corner at ({result.profile.nx},{result.profile.ny})")
        print(f"triplet: {_names(g, result.triplet)}")
        print("paths: " + " ".join(_names(g, p) for p in result.pathset.paths))
        print(f"label fixes: {norm.flips} edge flips, {norm.rotations} cycle rotations")
        for v in sorted(fp.rects):
            rc = fp.rects[v]
            name = g.labels.get(v, str(v))
            print(f"  {name}: x={rc.x1} y={rc.y1} w={rc.width} h={rc.height}")
        if args.out:
            print(f"wrote {args.out}")
    return 0


def _cmd_render(args) -> int:
    doc = parse_plan(_read(args.plan))
    _write(args.out, render_svg(doc))
    return 0


def _cmd_gen(args) -> int:
    from .gen import GenerationFailed, GenSpec, generate_ptpg  # only `lplan gen` needs it

    try:
        g = generate_ptpg(GenSpec(n=args.n, seed=args.seed, cip_target=args.cip_target))
    except (GenerationFailed, ValueError) as exc:  # ValueError: a spec no graph meets
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write(args.out, serialize_graph(g))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lplan",
        description="Decide and construct L-shaped floor plans for properly "
        "triangulated planar graphs.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a graph and report plan preconditions")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("plan", help="construct an L-shaped floor plan")
    p.add_argument("graph")
    p.add_argument("--triplet", help="pin the corner triplet, e.g. a,b,c")
    p.add_argument("--trace", action="store_true", help="include the flip trace")
    p.add_argument("--out", help="write the plan document to a file")
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("render", help="draw a plan document as SVG")
    p.add_argument("plan")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("gen", help="generate a random test graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cip-target", type=int, default=None)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(fn=_cmd_gen)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, InconsistentEmbedding, InvalidInput, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
