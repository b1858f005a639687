"""Fixtures, seeded unimodular maps, per-repetition inputs and answer checks.

A fixture is one simplex with its frozen expected answers.  Every op of a
repetition gets its own copy of its fixtures, moved by a seeded signed
axis permutation plus an integer translation.  That map is unimodular, so
box volumes, scan work and every invariant answer stay the same, while no
cache in the program ever sees the same simplex twice.  Expected answers
that depend on position (points, anchors) are mapped the same way.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
WORKLOADS = ("census", "audit", "certify", "atlas")
ATLAS_RADII = (9, 12, 15)
# translations have a magnitude in [1000, 2000] per axis, so that no fixture
# coordinate lands in the interpreter's cache of small integers: then every
# seed allocates the same integer objects and memory does not depend on it
SHIFT = (1000, 2000)

Vector = tuple[int, ...]


# ---------------------------------------------------------------------------
# the maps


@dataclass(frozen=True)
class AxisMap:
    """y[i] = sign[i] * x[perm[i]] + shift[i]; unimodular and affine."""

    perm: tuple[int, ...]
    sign: tuple[int, ...]
    shift: tuple[int, ...]

    @classmethod
    def identity(cls, dim: int) -> "AxisMap":
        return cls(tuple(range(dim)), (1,) * dim, (0,) * dim)

    @classmethod
    def draw(cls, rng: random.Random, dim: int) -> "AxisMap":
        return cls(
            tuple(rng.sample(range(dim), dim)),
            tuple(rng.choice((-1, 1)) for _ in range(dim)),
            tuple(rng.choice((-1, 1)) * rng.randint(*SHIFT) for _ in range(dim)),
        )

    def __call__(self, x):
        return tuple(s * x[p] + t for p, s, t in zip(self.perm, self.sign, self.shift))

    def inverse(self, y):
        x = [0] * len(y)
        for i, (p, s, t) in enumerate(zip(self.perm, self.sign, self.shift)):
            x[p] = s * (y[i] - t)
        return tuple(x)


# ---------------------------------------------------------------------------
# interior censuses in row form


class Census:
    """A lattice point set stored as rows: fixed other axes, an interval on one.

    ``rows`` holds [x without the row axis..., lo, hi] and the set is every
    x with x[row_axis] in [lo, hi].
    """

    def __init__(self, rows: list[list[int]], row_axis: int, dim: int):
        self.axis = row_axis
        self.dim = dim
        self.index = {tuple(r[:-2]): (r[-2], r[-1]) for r in rows}
        self.count = sum(hi - lo + 1 for lo, hi in self.index.values())

    def points(self) -> list[Vector]:
        out = []
        for prefix, (lo, hi) in self.index.items():
            for v in range(lo, hi + 1):
                x = list(prefix)
                x.insert(self.axis, v)
                out.append(tuple(x))
        return sorted(out)

    def __contains__(self, x: Vector) -> bool:
        prefix = x[: self.axis] + x[self.axis + 1 :]
        span = self.index.get(prefix)
        return span is not None and span[0] <= x[self.axis] <= span[1]

    def count_below(self, m: AxisMap, bound: Vector) -> int:
        """How many mapped points are lexicographically below ``bound``."""
        a, d = self.axis, self.dim
        j = m.perm.index(a)  # mapped position of the row axis
        sj, tj = m.sign[j], m.shift[j]
        total = 0
        for prefix, (lo, hi) in self.index.items():
            x = list(prefix)
            x.insert(a, 0)
            head = tuple(m.sign[i] * x[m.perm[i]] + m.shift[i] for i in range(j))
            if head != bound[:j]:
                total += hi - lo + 1 if head < bound[:j] else 0
                continue
            if sj > 0:
                first, last = lo, min(hi, bound[j] - tj - 1)
            else:
                first, last = max(lo, tj - bound[j] + 1), hi
            total += max(0, last - first + 1)
            x[a] = sj * (bound[j] - tj)
            if lo <= x[a] <= hi:
                tail = tuple(m.sign[i] * x[m.perm[i]] + m.shift[i] for i in range(j + 1, d))
                total += tail < bound[j + 1 :]
        return total


def census_rows(points: list[Vector], row_axis: int) -> list[list[int]]:
    """Row form of a point set that is an interval along ``row_axis`` per row."""
    grouped: dict[Vector, list[int]] = {}
    for x in points:
        grouped.setdefault(x[:row_axis] + x[row_axis + 1 :], []).append(x[row_axis])
    rows = []
    for prefix in sorted(grouped):
        values = sorted(grouped[prefix])
        if values != list(range(values[0], values[-1] + 1)):
            raise ValueError(f"row {prefix} is not an interval")
        rows.append([*prefix, values[0], values[-1]])
    return rows


def longest_axis(vertices: list[Vector]) -> int:
    d = len(vertices[0])
    return max(range(d), key=lambda c: max(v[c] for v in vertices) - min(v[c] for v in vertices))


# ---------------------------------------------------------------------------
# fixtures


@dataclass
class Fixture:
    name: str
    groups: tuple[str, ...]
    vertices: list[Vector]
    census: Census
    cert: dict | None
    golden: dict

    @property
    def dim(self) -> int:
        return len(self.vertices[0])


def load_fixtures(directory: Path = FIXTURE_DIR) -> dict[str, Fixture]:
    fixtures = {}
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if "vertices" not in doc:
            continue
        vertices = [tuple(v) for v in doc["vertices"]]
        fixtures[doc["name"]] = Fixture(
            doc["name"],
            tuple(doc["groups"]),
            vertices,
            Census(doc["interior_rows"], doc["row_axis"], len(vertices[0])),
            doc.get("cert"),
            doc.get("golden", {}),
        )
    if not fixtures:
        raise FileNotFoundError(f"no fixtures under {directory}")
    return fixtures


def load_golden(name: str, directory: Path = FIXTURE_DIR) -> dict:
    return json.loads((directory / f"{name}.json").read_text(encoding="utf-8"))


def in_group(fixtures: dict[str, Fixture], group: str) -> list[Fixture]:
    return [f for f in fixtures.values() if group in f.groups]


# ---------------------------------------------------------------------------
# structured documents, normalized back to the fixture's own frame


def normalize(command: str, doc: dict, m: AxisMap | None) -> dict:
    """The document as the unmapped fixture would give it.

    Only position-dependent fields change under the map; they are carried
    back by its inverse, so the result must equal the frozen golden
    document field for field.
    """
    doc = copy.deepcopy(doc)
    if command == "bounds" and "parallelotope" in doc:
        doc["parallelotope"]["center"] = list(m.inverse(doc["parallelotope"]["center"]))
    elif command == "cert":
        doc["start"] = list(m.inverse(doc["start"]))
        if doc.get("found"):
            doc["point"] = list(m.inverse(doc["point"]))
            anchor = m.inverse([Fraction(c) for c in doc["anchor"]])
            doc["anchor"] = [str(c) for c in anchor]
    elif command == "report":
        doc["files"] = [Path(f).name for f in doc["files"]]
    return doc


def digest(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# ops and their checks

Check = Callable[[int, str], "str | None"]


@dataclass
class Op:
    argv: list[str]
    check: Check  # (exit code, stdout) -> None when correct, else the reason


def _write(path: Path, vertices: list[Vector]) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"dim": len(vertices[0]), "vertices": [list(v) for v in vertices]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _point_arg(p: Vector) -> str:
    return ",".join(str(x) for x in p)


def _verify_check(fx: Fixture, m: AxisMap) -> Check:
    count = fx.census.count
    shown = min(count, 20)

    def check(code: int, out: str) -> str | None:
        want_code = 0 if count == 1 else 1
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        lines = out.splitlines()
        tail = [f"  ... {count - 20} more"] if count > 20 else []
        want_len = 2 + shown + len(tail)
        if len(lines) != want_len:
            return f"{len(lines)} lines, expected {want_len}"
        if lines[0] != f"interior lattice points: {count}":
            return f"bad count line {lines[0]!r}"
        if lines[1 + shown :] != tail + [f"one-point member: {'yes' if count == 1 else 'no'}"]:
            return f"bad trailer {lines[1 + shown:]!r}"
        points = []
        for line in lines[1 : 1 + shown]:
            try:
                point = tuple(int(x) for x in line.strip().strip("()").split(","))
            except ValueError:
                return f"bad point line {line!r}"
            if line != f"  {point}" or len(point) != fx.dim:
                return f"bad point line {line!r}"
            points.append(point)
        if any(a >= b for a, b in zip(points, points[1:])):
            return "points are not strictly increasing"
        if any(m.inverse(p) not in fx.census for p in points):
            return "a listed point is not interior"
        # listed points are interior and increasing; they are the first ones
        # exactly when nothing else lies below the last of them
        if fx.census.count_below(m, points[-1]) != shown - 1:
            return "listed points are not the lexicographically first"
        return None

    return check


def _doc_check(command: str, want_code: int, want: str, m: AxisMap | None) -> Check:
    def check(code: int, out: str) -> str | None:
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        if digest(normalize(command, doc, m)) != want:
            return f"{command} document differs from the golden one"
        return None

    return check


def _text_check(want_code: int, want: str) -> Check:
    def check(code: int, out: str) -> str | None:
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        if out != want:
            return "output differs from the golden text"
        return None

    return check


def build_repetition(
    workload: str, fixtures: dict[str, Fixture], rng: random.Random, directory: Path
) -> list[Op]:
    """One pass over the workload's op list, with fresh inputs under ``directory``."""
    ops: list[Op] = []

    def mapped(fx: Fixture) -> tuple[str, AxisMap]:
        m = AxisMap.draw(rng, fx.dim)
        path = _write(directory / str(len(ops)) / f"{fx.name}.json", [m(v) for v in fx.vertices])
        return path, m

    structured = ["--format", "structured"]
    members = in_group(fixtures, "member")
    if workload == "census":
        for fx in members + in_group(fixtures, "nonmember"):
            path, m = mapped(fx)
            ops.append(Op(["verify", path], _verify_check(fx, m)))
    elif workload == "audit":
        for fx in members:
            for command in ("ineq", "bounds", "chain"):
                path, m = mapped(fx)
                golden = fx.golden[command]
                ops.append(
                    Op(structured + [command, path],
                       _doc_check(command, golden["exit"], golden["sha256"], m))
                )
        paths = []
        for fx in members:
            path, _ = mapped(fx)
            paths.append(path)
        golden = load_golden("report")
        ops.append(
            Op(structured + ["report", *paths],
               _doc_check("report", golden["exit"], golden["sha256"], None))
        )
    elif workload == "certify":
        for group in ("wide", "random", "member"):
            for fx in in_group(fixtures, group):
                path, m = mapped(fx)
                argv = structured + ["cert", path]
                if group != "member":
                    # "=" keeps a negative coordinate from reading as an option
                    argv.append("--point=" + _point_arg(m(tuple(fx.cert["start"]))))
                ops.append(Op(argv, _doc_check("cert", 0, fx.cert["sha256"], m)))
    elif workload == "atlas":
        golden = load_golden("atlas")
        radii = list(ATLAS_RADII)
        rng.shuffle(radii)
        for r in radii:
            text = golden["text"].replace("{radius}", str(r))
            ops.append(Op(["atlas2d", "--radius", str(r)], _text_check(0, text)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
