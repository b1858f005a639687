"""Command line front end.

Every subcommand reads simplices in the JSON exchange format, works in
exact rational arithmetic, and prints human lines or, with ``--format
structured``, one JSON document: what ``json.dumps(doc, sort_keys=True,
indent=2)`` would print, ASCII-escaped and float-free, from one writer,
:func:`_json`.  It writes the items of each list or tuple, and the
values of each dict, as one column: leaves of one type in one pass, rows
of ints from their reprs, a run of records of one type through one
template, and a lone row of one leaf type in place.  Result records go in
field by field, so a new field is a new key.  Exit codes: 0 when all
checks pass (or a query completes), 1 when a mathematical check fails,
2 on usage or parse errors, 3 when an enumeration or a certificate
search refuses to run above the cap, or a bound would have too many
digits to print, counted against the interpreter's own int-to-str limit
when that is lower than 4,300.  :func:`main` returns its code and does
not raise: it renders every line before it prints one, so any other
number past that limit ends with one ``error:`` line and exit 2 in both
formats; a closed pipe ends it quietly.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:
    from .simplex import LatticeSimplex


# a leaf by its exact type; a fraction is its p/q string, never a float
_LEAVES = {str: _quote, int: int.__repr__, bool: {True: "true", False: "false"}.get,
           type(None): lambda _: "null", Fraction: lambda value: f'"{value!s}"'}


@lru_cache(maxsize=256)  # a record type's field getters, sorted by name, and its text at an indent
def _template(cls: type, indent: str) -> tuple[tuple[Callable[[Any], Any], ...], str]:
    # dataclasses.fields raises TypeError on any type that is not a record
    names, inner = sorted(f.name for f in dataclasses.fields(cls)), indent + "  "
    fields = ("," + inner).join(_quote(name) + ": %s" for name in names)
    return tuple(map(attrgetter, names)), "{" + inner + fields + indent + "}" if names else "{}"


def _column(values: Sequence, indent: str) -> list[str]:
    """Each of ``values`` as :func:`_json` writes it, closed by ``indent``.

    One type test reads the column; every leaf is written by its
    ``_LEAVES`` entry.  A column of one exact type goes in one pass: leaves
    through one map, rows of exact ints from their reprs, each other row
    as a column of its own, and records of one type through their
    template, each field's values one column.  A column of mixed types, and
    each dict's values, go one value at a time, a leaf or a non-empty row
    of one leaf type written in place through that type's entry.
    """
    kinds, inner = set(map(type, values)), indent + "  "
    if len(kinds) != 1:
        texts = []
        for value in values:
            leaf = _LEAVES.get(type(value))
            if leaf is not None:
                texts.append(leaf(value))
            elif type(value) in (list, tuple) and len(types := set(map(type, value))) == 1 and (
                    leaf := _LEAVES.get(*types)):
                # a lone row of one leaf type costs less in one join than as a column of its own
                texts.append("[" + inner + ("," + inner).join(map(leaf, value)) + indent + "]")
            else:
                texts.append(_column((value,), indent)[0])
        return texts
    kind, = kinds
    leaf = _LEAVES.get(kind)
    if leaf is not None:
        return list(map(leaf, values))
    if issubclass(kind, (list, tuple)):
        if kind in (list, tuple) and set(map(type, chain.from_iterable(values))) <= {int}:
            # rows of exact ints, so no bool, from their reprs, split on a "|" no int holds
            opening, closing = "()" if kind is tuple else "[]"
            text = ("|".join(map(repr, values)).replace(",)", ")").replace(", ", "," + inner)
                    .replace(opening, "[" + inner).replace(closing, indent + "]"))
            return text.replace("[" + inner + indent + "]", "[]").split("|")
        # each other row a column of its own
        return ["[" + inner + ("," + inner).join(_column(row, inner)) + indent + "]"
                if row else "[]" for row in values]
    if issubclass(kind, dict):
        texts = []
        for value in values:
            keys = sorted(value)
            pairs = map("{}: {}".format, map(_quote, keys),
                        _column(list(map(value.__getitem__, keys)), inner))
            texts.append("{" + inner + ("," + inner).join(pairs) + indent + "}" if keys else "{}")
        return texts
    getters, template = _template(kind, indent)
    columns = [_column(list(map(get, values)), inner) for get in getters]
    return list(map(template.__mod__, zip(*columns))) if columns else [template] * len(values)


def _json(value: Any) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it.

    A record is an object of its fields; any other type, a float included,
    raises TypeError.  Lists, tuples and dict values are written a column
    at a time by :func:`_column`: every leaf by its ``_LEAVES`` entry, a
    lone row of one leaf type in one join, and a column of lists or tuples
    of exact ints from their reprs, which differ from the JSON text only in
    brackets, separators and a one-tuple's trailing comma.
    """
    return _column((value,), "\n")[0]


def _load(path: str) -> LatticeSimplex:
    from .simplex import SimplexParseError, parse_simplex_text

    try:
        with open(path, "rb", buffering=0) as file:
            text = file.read().decode("utf-8")
    except OSError as exc:
        raise SimplexParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SimplexParseError(f"cannot read {path}: not UTF-8 at byte {exc.start}") from exc
    # what a text-mode read gives, so a parse error names the same line and column
    return parse_simplex_text(text.replace("\r\n", "\n").replace("\r", "\n"))


# a coordinate is an integer, a decimal or p/q in ASCII digits; an exponent
# such as 1e10000000 would have Fraction build a ten-million-digit power first
_COORDINATE = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+|\d+/\d+)", re.ASCII)


def _parse_point(text: str, dim: int, lattice: bool) -> tuple[Fraction, ...] | tuple[int, ...]:
    from .simplex import _digit_limit

    parts = [part.strip() for part in text.split(",")]
    if len(parts) != dim:
        raise ValueError(f"point needs {dim} comma-separated coordinates, got {len(parts)}")
    # int() refuses longer digit strings, with advice that is no use on the command line
    limit = _digit_limit()
    for part in parts:
        digits = sum(c.isdigit() for c in part)
        if digits > limit:
            raise ValueError(f"a point coordinate has {digits} digits, more than {limit}")
        if not _COORDINATE.fullmatch(part):
            raise ValueError(f"bad point {text!r}: {part!r} is not an integer, a decimal or p/q")
    try:
        coords = tuple(Fraction(part) for part in parts)
    except ZeroDivisionError as exc:
        raise ValueError(f"bad point {text!r}: {exc}") from exc
    if lattice and any(c.denominator != 1 for c in coords):
        raise ValueError(f"point {text!r} must have integer coordinates")
    return tuple(c.numerator for c in coords) if lattice else coords


def _start(args: argparse.Namespace, simplex: LatticeSimplex, lattice: bool) -> tuple | None:
    """The point a command works at: ``--point``, else the lex-min interior lattice point."""
    if args.point is not None:
        return _parse_point(args.point, simplex.ambient_dim, lattice)
    from .points import enumerate_interior

    census = enumerate_interior(simplex, args.cap, limit=1)
    return census.points[0] if census.points else None


# ---------------------------------------------------------------------------
# subcommands; each returns (exit code, payload, human lines), a record's payload its vars(),
# and imports the layers it runs in its body, so a process loads only its command's layers

Handled = tuple[int, dict[str, Any], list[str]]


def _cmd_verify(args: argparse.Namespace) -> Handled:
    from .points import enumerate_interior

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
    from .points import _classify
    from .simplex import barycentric_of

    simplex = _load(args.file)
    point = _parse_point(args.point, simplex.ambient_dim, lattice=False)
    coords = barycentric_of(simplex, point)
    kind = _classify(coords).kind
    payload = {
        "point": point,
        "coordinates": coords,
        "classification": kind,
        "lattice_point": all(c.denominator == 1 for c in point),
        "passed": True,
    }
    lines = [
        f"point: ({', '.join(map(str, point))})",
        f"coordinates: ({', '.join(map(str, coords))})",
        f"classification: {kind}",
    ]
    return 0, payload, lines


def _cmd_ineq(args: argparse.Namespace) -> Handled:
    from .bounds import _inequalities, _integer_rows, _reduced
    from .simplex import _interior_values

    simplex = _load(args.file)
    point = _start(args, simplex, lattice=False)
    if point is None:
        return 1, {"passed": False, "reason": "no interior lattice point"}, [
            "no interior lattice point to test"
        ]
    # at a rational point the rows are fractions, cleared to integers over their sum
    values = _integer_rows(
        _interior_values(simplex, point, "the partition system needs a point strictly inside"))
    denominator = sum(values)
    coords = tuple(Fraction(n, denominator) for n in values)
    reduced = _reduced(values)
    report = _inequalities(values, None if args.format == "structured" else min(reduced))
    payload = {
        "coordinates": coords,
        "partitions": report.records,
        "min_slack": report.min_slack,
        "reduced_slacks": reduced,
        "passed": report.passed,
    }
    worst = report.worst
    lines = [
        f"partitions checked: {2 ** len(values) - 2}",
        f"reduced slacks: ({', '.join(map(str, reduced))})",
        f"minimal slack: {report.min_slack} at sum side {list(worst.sum_side)}",
    ]
    if report.passed:
        lines.append("all partition inequalities hold")
    else:
        lines.append(
            f"violated: sum over {list(worst.sum_side)} is {worst.sum}, "
            f"product over {list(worst.product_side)} is {worst.product}"
        )
    return (0 if report.passed else 1), payload, lines


# bounds and chain need the simplex's one interior point
_NOT_ONEPOINT: Handled = (
    1,
    {"passed": False, "reason": "not a one-point simplex"},
    ["the simplex does not have exactly one interior lattice point"],
)


def _cmd_bounds(args: argparse.Namespace) -> Handled:
    from .bounds import bounds_report
    from .points import is_onepoint

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
        f"{worst_entry.value} vs {worst_entry.bound})",
        f"face volume bounds: {sum(f.passed for f in faces)}/{len(faces)} hold",
        f"parallelotope: volume {box.volume} <= {2**simplex.dim}, "
        f"interior count {box.interior_count}",
        f"sections: {sum(s.passed for s in report.sections)}/{len(report.sections)} "
        "match exactly",
        f"all bounds hold: {'yes' if report.passed else 'no'}",
    ]
    return (0 if report.passed else 1), vars(report), lines


def _cmd_chain(args: argparse.Namespace) -> Handled:
    from .bounds import chain_decompose
    from .points import is_onepoint

    simplex = _load(args.file)
    point = is_onepoint(simplex, args.cap)
    if point is None:
        return _NOT_ONEPOINT
    report = chain_decompose(simplex, point, args.cap)
    lines = [f"vertex order by coordinate: {list(report.order)}"]
    for level in report.levels:
        lines.append(
            f"level {level.level}: volume {level.volume} <= "
            f"{level.volume_bound}, points {level.count} <= {level.count_bound}"
            f"{'' if level.ok else '  VIOLATED'}"
        )
    lines.append(f"chain bounds hold: {'yes' if report.passed else 'no'}")
    return (0 if report.passed else 1), vars(report), lines


def _cmd_cert(args: argparse.Namespace) -> Handled:
    from .certificate import second_interior_point

    simplex = _load(args.file)
    start = _start(args, simplex, lattice=True)
    if start is None:
        return 1, {"passed": False, "reason": "no interior lattice point"}, [
            "no interior lattice point to start from"
        ]
    cert = second_interior_point(simplex, start, args.cap)
    if cert is None:
        payload = {"start": start, "found": False, "passed": True}
        lines = [
            f"start: {start}",
            "every partition inequality holds; no second point of this shape exists",
        ]
        return 0, payload, lines
    payload = {**vars(cert), "found": True, "passed": True}
    lines = [
        f"start: {cert.start}",
        f"violated partition: sum side {list(cert.sum_side)}, "
        f"product side {list(cert.product_side)} (ratio {cert.ratio})",
        f"weights {list(cert.weights)} on vertices {list(cert.weight_order)}, "
        f"total {cert.total}",
        f"anchor: ({', '.join(map(str, cert.anchor))})",
        f"second interior point: {cert.point}",
    ]
    return 0, payload, lines


def _simplex_payload(simplex: LatticeSimplex, point: tuple[int, ...]) -> dict[str, Any]:
    from .simplex import barycentric_of, normalized_volume

    return {
        "dim": simplex.dim,
        "vertices": [list(v) for v in simplex.vertices],
        "interior_point": list(point),
        "volume": normalized_volume(simplex),
        "coordinates": barycentric_of(simplex, point),
    }


def _cmd_gen(args: argparse.Namespace) -> Handled:
    from .generators import dilated_simplex, reflected_simplex, zpw_simplex

    d = args.dim
    payload: dict[str, Any] = {"dim": d, "families": {}, "passed": True}
    lines: list[str] = []
    # each family's builder verifies that its census is (inner,) * d alone
    families = (("zpw", zpw_simplex, 1), ("dilated", dilated_simplex, 1),
                ("reflected", reflected_simplex, 0))
    for name, build, inner in families:
        if args.family in (name, "all"):
            simplex = build(d, args.cap)
            payload["families"][name] = _simplex_payload(simplex, (inner,) * d)
    zpw = payload["families"].get("zpw")
    if zpw is not None:
        # zpw's axis vertex i is t_i e_i: the Sylvester terms are its diagonal
        payload["sylvester"] = [v[i] for i, v in enumerate(zpw["vertices"][1:])]
    for name, info in payload["families"].items():
        lines.append(
            f"{name}: vertices {info['vertices']}, volume {info['volume']}, "
            f"interior point {info['interior_point']}"
        )
    return 0, payload, lines


def _cmd_atlas2d(args: argparse.Namespace) -> Handled:
    from .generators import onepoint_triangle_atlas

    atlas = onepoint_triangle_atlas(args.radius, args.cap)
    payload = {**vars(atlas), "class_count": len(atlas.classes), "passed": True}
    lines = [f"equivalence classes within radius {atlas.radius}: {len(atlas.classes)}"]
    for c in atlas.classes:
        lines.append(
            f"  volume {c.volume}, {c.point_count} lattice points, "
            f"vertices {[list(v) for v in c.vertices]}"
        )
    lines.append(
        f"largest volume {atlas.max_volume}, "
        f"largest point count {atlas.max_point_count}"
    )
    return 0, payload, lines


def _cmd_report(args: argparse.Namespace) -> Handled:
    from .bounds import corpus_extremes
    from .points import enumerate_interior

    members = []
    for path in args.files:
        simplex = _load(path)
        census = enumerate_interior(simplex, args.cap, limit=1)
        if census.count != 1:
            return 1, {"passed": False, "reason": f"{path} is not a one-point simplex"}, [
                f"{path}: {census.count} interior lattice points, expected 1"
            ]
        members.append((simplex, census.points[0]))
    extremes = corpus_extremes(members, args.cap)
    passed = all(e.passed for e in extremes)
    payload = {"files": args.files, "dimensions": extremes, "passed": passed}
    lines = []
    for e in extremes:
        lines.append(
            f"dimension {e.dim} ({e.members} members): "
            f"max volume {e.max_volume} <= {e.volume_bound}, "
            f"max points {e.max_point_count}, "
            f"min coordinate {e.min_coordinate} >= {e.coordinate_bound}"
        )
        lines.append(
            f"  dimension-uniform comparison bound: "
            f"{e.comparison_coordinate_bound}"
        )
    lines.append(f"all extremal bounds hold: {'yes' if passed else 'no'}")
    return (0 if passed else 1), payload, lines


def _integer(text: str) -> int:
    """The type of every integer option: its digits are counted before ``int()`` reads them.

    ``int()`` refuses a longer digit string, and argparse would echo every digit.
    """
    from .simplex import _digit_limit

    if (digits := sum(c.isdigit() for c in text)) > (limit := _digit_limit()):
        raise argparse.ArgumentTypeError(f"has {digits} digits, more than {limit}")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _cap(text: str) -> int:
    """The ``--cap`` type: no enumeration or T-scan runs under a cap below 1."""
    if (cap := _integer(text)) < 1:
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

    # the commands on one simplex file, and the --point each takes
    on_file = (
        ("verify", _cmd_verify, "census the interior lattice points", None),
        ("bary", _cmd_bary, "barycentric coordinates of a point",
         "comma-separated integers, decimals or p/q: -1/3,0.5"),
        ("ineq", _cmd_ineq, "check all partition inequalities",
         "interior point to test, as -1/2,3; default lex-min interior"),
        ("bounds", _cmd_bounds, "coordinate, face volume, and section checks", None),
        ("chain", _cmd_chain, "bounds along the heaviest-face chain", None),
        ("cert", _cmd_cert, "construct a second interior point if one must exist",
         "interior lattice point to start from, as -2,1"),
    )
    for name, handler, text, point in on_file:
        p = sub.add_parser(name, help=text)
        p.add_argument("file")
        if point is not None:
            p.add_argument("--point", required=name == "bary", help=point)
        p.set_defaults(handler=handler)

    p = sub.add_parser("gen", help="build the extremal families")
    p.add_argument("--dim", type=_integer, required=True)
    p.add_argument(
        "--family", choices=("zpw", "dilated", "reflected", "all"), default="all"
    )
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("atlas2d", help="all planar one-point triangles up to symmetry")
    p.add_argument(
        "--radius",
        type=_integer,
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


def _refusals() -> tuple[type[Exception], ...]:
    """The refusals that exit 3; an except clause calls this only when an exception reaches it."""
    from .bounds import BoundSizeError
    from .points import EnumerationCapError

    return EnumerationCapError, BoundSizeError


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
    if args.cap is None:  # the default lives in points, which --help need not load
        from .points import DEFAULT_CAP

        args.cap = DEFAULT_CAP
    try:
        code, payload, lines = args.handler(args)
        if args.format == "structured":
            doc = {"command": args.command, "config": {"cap": args.cap, "format": args.format}}
            lines = [_json({**doc, **payload})]
    except ValueError as exc:
        # a SimplexParseError too, and str() of an int past the interpreter's digit limit
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _refusals() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:
        # the reader stopped early: devnull takes what is left, so the exit flush stays quiet
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
