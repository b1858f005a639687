"""Command line front end.

Every subcommand reads simplices in the JSON exchange format, works in
exact rational arithmetic, and reports either human-readable lines or a
single machine-readable JSON document (``--format structured``).  The
document serializes the command's result records field by field, so a
new record field is a new key in the output.  Exit codes: 0 when all
checks pass (or a query completes), 1 when a mathematical check fails,
2 on usage or parse errors, 3 when an enumeration or a certificate
search refuses to run above the cap.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from .bounds import (
    bounds_report,
    chain_decompose,
    check_all_partitions,
    corpus_extremes,
    reduced_system,
    sort_barycentric,
)
from .certificate import second_interior_point
from .generators import dilated_simplex, onepoint_triangle_atlas, reflected_simplex
from .generators import sylvester, zpw_simplex
from .points import (
    DEFAULT_CAP,
    EnumerationCapError,
    classify_point,
    enumerate_interior,
    is_onepoint,
)
from .simplex import (
    LatticeSimplex,
    SimplexParseError,
    barycentric_of,
    normalized_volume,
    parse_simplex_text,
)


def _frac(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _jsonable(value: Any) -> Any:
    """Exact JSON image: fractions become strings, never floats.

    A result record becomes a dict of its fields, in declaration order.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return _frac(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _load(path: str) -> LatticeSimplex:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SimplexParseError(f"cannot read {path}: {exc}") from exc
    return parse_simplex_text(text)


def _parse_point(text: str, dim: int, lattice: bool) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if len(parts) != dim:
        raise ValueError(f"point needs {dim} comma-separated coordinates, got {len(parts)}")
    try:
        coords = tuple(Fraction(part.strip()) for part in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad point {text!r}: {exc}") from exc
    if lattice and any(c.denominator != 1 for c in coords):
        raise ValueError(f"point {text!r} must have integer coordinates")
    return coords


# ---------------------------------------------------------------------------
# subcommands; each returns (exit code, payload, human lines), the payload
# being a dict or a result record

Handled = tuple[int, Any, list[str]]


def _cmd_verify(args: argparse.Namespace) -> Handled:
    simplex = _load(args.file)
    # the human lines show 20 points; the document lists every one
    limit = None if args.format == "structured" else 20
    census = enumerate_interior(simplex, args.cap, limit)
    passed = census.count == 1
    payload = {
        "interior_count": census.count,
        "interior_points": census.points,
        "scanned_box": census.scanned_box,
        "passed": passed,
    }
    lines = [f"interior lattice points: {census.count}"]
    for point in census.points[:20]:
        lines.append(f"  {point}")
    if census.count > 20:
        lines.append(f"  ... {census.count - 20} more")
    lines.append(f"one-point member: {'yes' if passed else 'no'}")
    return (0 if passed else 1), payload, lines


def _cmd_bary(args: argparse.Namespace) -> Handled:
    simplex = _load(args.file)
    point = _parse_point(args.point, simplex.ambient_dim, lattice=False)
    coords = barycentric_of(simplex, point)
    kind = classify_point(simplex, point).kind
    payload = {
        "point": point,
        "coordinates": coords,
        "classification": kind,
        "lattice_point": all(c.denominator == 1 for c in point),
        "passed": True,
    }
    lines = [
        f"point: ({', '.join(_frac(c) for c in point)})",
        f"coordinates: ({', '.join(_frac(c) for c in coords)})",
        f"classification: {kind}",
    ]
    return 0, payload, lines


def _interior_start(simplex: LatticeSimplex, cap: int) -> tuple[int, ...] | None:
    census = enumerate_interior(simplex, cap, limit=1)
    return census.points[0] if census.points else None


def _cmd_ineq(args: argparse.Namespace) -> Handled:
    simplex = _load(args.file)
    if args.point is not None:
        coords = barycentric_of(
            simplex, _parse_point(args.point, simplex.ambient_dim, lattice=False)
        )
        if any(c <= 0 for c in coords):
            raise ValueError("the partition system needs a point strictly inside")
    else:
        start = _interior_start(simplex, args.cap)
        if start is None:
            return 1, {"passed": False, "reason": "no interior lattice point"}, [
                "no interior lattice point to test"
            ]
        coords = barycentric_of(simplex, start)
    report = check_all_partitions(coords)
    reduced = reduced_system(sort_barycentric(coords))
    payload = {
        "coordinates": coords,
        "partitions": report.records,
        "min_slack": report.min_slack,
        "reduced_slacks": reduced,
        "passed": report.passed,
    }
    worst = report.worst
    lines = [
        f"partitions checked: {len(report.records)}",
        f"reduced slacks: ({', '.join(_frac(s) for s in reduced)})",
        f"minimal slack: {_frac(report.min_slack)} at sum side {list(worst.sum_side)}",
    ]
    if report.passed:
        lines.append("all partition inequalities hold")
    else:
        lines.append(
            f"violated: sum over {list(worst.sum_side)} is {_frac(worst.sum)}, "
            f"product over {list(worst.product_side)} is {_frac(worst.product)}"
        )
    return (0 if report.passed else 1), payload, lines


# bounds and chain need the simplex's one interior point
_NOT_ONEPOINT: Handled = (
    1,
    {"passed": False, "reason": "not a one-point simplex"},
    ["the simplex does not have exactly one interior lattice point"],
)


def _cmd_bounds(args: argparse.Namespace) -> Handled:
    simplex = _load(args.file)
    point = is_onepoint(simplex, args.cap)
    if point is None:
        return _NOT_ONEPOINT
    report = bounds_report(simplex, point, args.cap)
    lower, faces, box = report.coordinate_bounds, report.face_volume_bounds, report.parallelotope
    worst_entry = min(lower.entries, key=lambda e: e.value / e.bound)
    lines = [
        f"sorted coordinate bounds: {'ok' if lower.passed else 'VIOLATED'} "
        f"(closest at position {worst_entry.position}: "
        f"{_frac(worst_entry.value)} vs {_frac(worst_entry.bound)})",
        f"face volume bounds: {sum(f.passed for f in faces)}/{len(faces)} hold",
        f"parallelotope: volume {_frac(box.volume)} <= {2**simplex.dim}, "
        f"interior count {box.interior_count}",
        f"sections: {sum(s.passed for s in report.sections)}/{len(report.sections)} "
        "match exactly",
        f"all bounds hold: {'yes' if report.passed else 'no'}",
    ]
    return (0 if report.passed else 1), report, lines


def _cmd_chain(args: argparse.Namespace) -> Handled:
    simplex = _load(args.file)
    point = is_onepoint(simplex, args.cap)
    if point is None:
        return _NOT_ONEPOINT
    report = chain_decompose(simplex, barycentric_of(simplex, point), args.cap)
    lines = [f"vertex order by coordinate: {list(report.order)}"]
    for level in report.levels:
        lines.append(
            f"level {level.level}: volume {_frac(level.volume)} <= "
            f"{_frac(level.volume_bound)}, points {level.count} <= {level.count_bound}"
            f"{'' if level.ok else '  VIOLATED'}"
        )
    lines.append(f"chain bounds hold: {'yes' if report.passed else 'no'}")
    return (0 if report.passed else 1), report, lines


def _cmd_cert(args: argparse.Namespace) -> Handled:
    simplex = _load(args.file)
    if args.point is not None:
        start = tuple(
            int(c) for c in _parse_point(args.point, simplex.ambient_dim, lattice=True)
        )
    else:
        found = _interior_start(simplex, args.cap)
        if found is None:
            return 1, {"passed": False, "reason": "no interior lattice point"}, [
                "no interior lattice point to start from"
            ]
        start = found
    cert = second_interior_point(simplex, start, args.cap)
    if cert is None:
        payload = {"start": start, "found": False, "passed": True}
        lines = [
            f"start: {start}",
            "every partition inequality holds; no second point of this shape exists",
        ]
        return 0, payload, lines
    payload = {**_jsonable(cert), "found": True, "passed": True}
    lines = [
        f"start: {cert.start}",
        f"violated partition: sum side {list(cert.sum_side)}, "
        f"product side {list(cert.product_side)} (ratio {_frac(cert.ratio)})",
        f"weights {list(cert.weights)} on vertices {list(cert.weight_order)}, "
        f"total {cert.total}",
        f"anchor: ({', '.join(_frac(c) for c in cert.anchor)})",
        f"second interior point: {cert.point}",
    ]
    return 0, payload, lines


def _simplex_payload(simplex: LatticeSimplex, point: tuple[int, ...]) -> dict[str, Any]:
    return {
        "dim": simplex.dim,
        "vertices": [list(v) for v in simplex.vertices],
        "interior_point": list(point),
        "volume": normalized_volume(simplex),
        "coordinates": barycentric_of(simplex, point),
    }


def _cmd_gen(args: argparse.Namespace) -> Handled:
    d = args.dim
    if d < 1:
        raise ValueError("dimension must be at least 1")
    payload: dict[str, Any] = {"dim": d, "families": {}, "passed": True}
    lines: list[str] = []
    # each family's builder verifies that its census is (inner,) * d alone
    families = (("zpw", zpw_simplex, 1), ("dilated", dilated_simplex, 1),
                ("reflected", reflected_simplex, 0))
    for name, build, inner in families:
        if args.family in (name, "all"):
            simplex = build(d, verify=True, cap=args.cap)
            payload["families"][name] = _simplex_payload(simplex, (inner,) * d)
    if "zpw" in payload["families"]:
        payload["sylvester"] = sylvester(d).terms
    for name, info in payload["families"].items():
        lines.append(
            f"{name}: vertices {info['vertices']}, volume {_frac(info['volume'])}, "
            f"interior point {info['interior_point']}"
        )
    return 0, payload, lines


def _cmd_atlas2d(args: argparse.Namespace) -> Handled:
    atlas = onepoint_triangle_atlas(args.radius, args.cap)
    payload = {
        "radius": atlas.radius,
        "class_count": len(atlas.classes),
        "max_volume": atlas.max_volume,
        "max_point_count": atlas.max_point_count,
        "classes": [
            {
                "vertices": c.form.vertices,
                "volume": c.volume,
                "point_count": c.point_count,
                "coordinates": c.coordinates,
                "min_slack": c.min_slack,
            }
            for c in atlas.classes
        ],
        "passed": True,
    }
    lines = [f"equivalence classes within radius {atlas.radius}: {len(atlas.classes)}"]
    for c in atlas.classes:
        lines.append(
            f"  volume {_frac(c.volume)}, {c.point_count} lattice points, "
            f"vertices {[list(v) for v in c.form.vertices]}"
        )
    lines.append(
        f"largest volume {_frac(atlas.max_volume)}, "
        f"largest point count {atlas.max_point_count}"
    )
    return 0, payload, lines


def _cmd_report(args: argparse.Namespace) -> Handled:
    members = []
    for path in args.files:
        simplex = _load(path)
        census = enumerate_interior(simplex, args.cap, limit=1)
        if census.count != 1:
            return 1, {"passed": False, "reason": f"{path} is not a one-point simplex"}, [
                f"{path}: {census.count} interior lattice points, expected 1"
            ]
        members.append((simplex, barycentric_of(simplex, census.points[0])))
    extremes = corpus_extremes(members, args.cap)
    passed = all(e.passed for e in extremes)
    payload = {"files": args.files, "dimensions": extremes, "passed": passed}
    lines = []
    for e in extremes:
        lines.append(
            f"dimension {e.dim} ({e.members} members): "
            f"max volume {_frac(e.max_volume)} <= {_frac(e.volume_bound)}, "
            f"max points {e.max_point_count}, "
            f"min coordinate {_frac(e.min_coordinate)} >= {_frac(e.coordinate_bound)}"
        )
        lines.append(
            f"  dimension-uniform comparison bound: "
            f"{_frac(e.comparison_coordinate_bound)}"
        )
    lines.append(f"all extremal bounds hold: {'yes' if passed else 'no'}")
    return (0 if passed else 1), payload, lines


def _cap(text: str) -> int:
    """The ``--cap`` type: no enumeration or T-scan runs under a cap below 1."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {cap}")
    return cap


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onepoint",
        description="Exact geometry of lattice simplices with one interior lattice point.",
    )
    parser.add_argument(
        "--cap",
        type=_cap,
        default=DEFAULT_CAP,
        help="refuse enumerations with more candidate points, and certificate "
        "searches with more T-scan steps, than this",
    )
    parser.add_argument(
        "--format",
        choices=("human", "structured"),
        default="human",
        help="human lines or one JSON document",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="census the interior lattice points")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("bary", help="barycentric coordinates of a point")
    p.add_argument("file")
    p.add_argument("--point", required=True, help="comma-separated, fractions allowed: -1/3,2")
    p.set_defaults(handler=_cmd_bary)

    p = sub.add_parser("ineq", help="check all partition inequalities")
    p.add_argument("file")
    p.add_argument("--point", help="interior point to test, as -1/2,3; default lex-min interior")
    p.set_defaults(handler=_cmd_ineq)

    p = sub.add_parser("bounds", help="coordinate, face volume, and section checks")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("chain", help="bounds along the heaviest-face chain")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_chain)

    p = sub.add_parser("cert", help="construct a second interior point if one must exist")
    p.add_argument("file")
    p.add_argument("--point", help="interior lattice point to start from, as -2,1")
    p.set_defaults(handler=_cmd_cert)

    p = sub.add_parser("gen", help="build the extremal families")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument(
        "--family", choices=("zpw", "dilated", "reflected", "all"), default="all"
    )
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("atlas2d", help="all planar one-point triangles up to symmetry")
    p.add_argument(
        "--radius",
        type=int,
        default=30,
        help="box |x|, |y| <= RADIUS the reported classes fit in; at least 9; "
        "does not change the work (default %(default)s)",
    )
    p.set_defaults(handler=_cmd_atlas2d)

    p = sub.add_parser("report", help="extremal statistics of a verified corpus")
    p.add_argument("files", nargs="+")
    p.set_defaults(handler=_cmd_report)

    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command on ``argv`` (default ``sys.argv[1:]``); return its exit code.

    Safe to call again and again in one process: the parser is built once,
    when this module is imported, and keeps no state between calls.
    """
    # argparse reads a value such as -1/3,2 as a flag, so "--point V" goes in as "--point=V"
    words: list[str] = []
    for word in sys.argv[1:] if argv is None else argv:
        if words and words[-1] == "--point":
            words[-1] += "=" + word
        else:
            words.append(word)
    try:
        args = _PARSER.parse_args(words)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, payload, lines = args.handler(args)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SimplexParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "structured":
        doc = {
            "command": args.command,
            "config": {"cap": args.cap, "format": args.format},
            **_jsonable(payload),
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
