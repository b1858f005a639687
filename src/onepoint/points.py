"""Lattice point classification, enumeration, and counting.

Single points are classified through exact rational barycentric
coordinates.  Bulk enumeration works on the integer forms of the same
functionals: each barycentric functional times the positive hull
determinant has integer coefficients, so the interior, a closed face and
the parallelotope around the interior point are all integer half-spaces
for one box scan.  It walks the box depth-first from its shortest side,
cuts each axis to the values every half-space still allows, counts each
row of the longest axis as one integer interval, and builds only the
lexicographically smallest points a caller asks for.

Every scan is guarded by a candidate cap: when the bounding box holds more
candidates than the cap allows, the scan refuses up front instead of
grinding.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Sequence

from .simplex import LatticeSimplex, _complement, barycentric_of, normalized_volume

Vector = tuple[int, ...]

DEFAULT_CAP = 10**8


def _count_text(n: int) -> str:
    # str() refuses ints past 4,300 digits, and long digit strings say little
    if n.bit_length() <= 128:
        return str(n)
    return f"at least 2^{n.bit_length() - 1}"


class EnumerationCapError(RuntimeError):
    """A scan would exceed the configured cap, counted in ``unit``.

    ``required`` is the predicted work in that unit: the candidate count of
    a bounding box, or the Minkowski bound on a certificate's T-scan.
    """

    def __init__(
        self,
        cap: int,
        required: int,
        unit: str = "candidate points",
        scope: str = "bounding box holds",
    ):
        super().__init__(
            f"{scope} {_count_text(required)} {unit}, "
            f"above the enumeration cap of {_count_text(cap)}"
        )
        self.cap = cap
        self.required = required


@dataclass(frozen=True)
class PointClass:
    """Classification of a point against a full-dimensional simplex.

    ``kind`` is one of "interior", "boundary", "outside".  For boundary
    points ``minimal_face`` lists the vertex indexes whose barycentric
    coordinate vanishes: the inclusion-minimal face containing the point
    keeps exactly the other vertices.
    """

    kind: str
    minimal_face: tuple[int, ...] | None = None


@dataclass(frozen=True)
class InteriorCensus:
    """The interior lattice point count, and the first points in lexicographic order."""

    count: int
    points: tuple[Vector, ...]
    scanned_box: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class BlichfeldtCheck:
    dim: int
    volume: Fraction
    count: int
    slack: Fraction
    passed: bool


def classify_point(simplex: LatticeSimplex, point: Sequence[Fraction | int]) -> PointClass:
    """Classify a rational point by the signs of its barycentric coordinates."""
    return _classify(barycentric_of(simplex, point))


def _classify(coords: Sequence[Fraction]) -> PointClass:
    if any(x < 0 for x in coords):
        return PointClass("outside")
    zeros = tuple(i for i, x in enumerate(coords) if x == 0)
    if zeros:
        return PointClass("boundary", zeros)
    return PointClass("interior")


def _vertex_box(vertices: Sequence[Vector]) -> tuple[tuple[int, int], ...]:
    return tuple(
        (min(v[c] for v in vertices), max(v[c] for v in vertices))
        for c in range(len(vertices[0]))
    )


def _capped_box(box: tuple[tuple[int, int], ...], cap: int) -> tuple[tuple[int, int], ...]:
    """The box itself, or a refusal when it holds more than ``cap`` candidates."""
    required = 1
    for lo, hi in box:
        required *= hi - lo + 1
    if required > cap:
        raise EnumerationCapError(cap, required)
    return box


def _scan(
    halfspaces: Sequence[tuple[tuple[int, ...], int]],
    box: Sequence[tuple[int, int]],
    limit: int | None,
) -> tuple[int, list[Vector]]:
    """Count the lattice points of ``box`` in every half-space; collect the first few.

    Each half-space is an integer pair (coeffs, const) meaning
    coeffs . x + const >= 0; a strict or an equality condition on an
    integer form is written as one or two such pairs.  Returns the count
    and the ``limit`` lexicographically smallest points, sorted: all of
    them for None, none for 0.  Callers pass a box from
    :func:`_capped_box`, so the refusal comes before any row is built.

    The walk is depth-first from the shortest box side to the longest,
    so the axes fixed early bound the long ones; the longest is solved
    per row as an integer interval whose length goes to the count.  Each
    level carries one partial sum per half-space and cuts its axis to the
    values at which every half-space can still hold with the axes not yet
    fixed at their best box ends, so no value that one half-space rules
    out alone is entered.  A row builds only the points that can still
    be among the ``limit`` smallest, at most ``limit``, kept in a bounded
    heap of negated points.
    """
    d = len(box)
    order = sorted(range(d), key=lambda a: box[a][1] - box[a][0])
    # per level, (coefficient of its axis, the most the later axes can add) per half-space
    cuts, gains = [], [0] * len(halfspaces)
    for a in reversed(order):
        cuts.insert(0, [(c[a], g) for (c, _), g in zip(halfspaces, gains)])
        gains = [g + max(c[a] * end for end in box[a]) for (c, _), g in zip(halfspaces, gains)]
    count = 0
    found: list[Vector] = []
    point = [0] * d

    def walk(level: int, sums: list[int]) -> None:
        nonlocal count
        axis = order[level]
        lo, hi = box[axis]
        for (c, rest), s in zip(cuts[level], sums):
            if c > 0:
                lo = max(lo, -((s + rest) // c))
            elif c < 0:
                hi = min(hi, (s + rest) // -c)
            elif s + rest < 0:
                return
        if level < d - 1:
            for x in range(lo, hi + 1):
                point[axis] = x
                walk(level + 1, [s + c * x for (c, _), s in zip(cuts[level], sums)])
            return
        if lo > hi:
            return
        count += hi - lo + 1
        if limit == 0:
            return
        head, tail = tuple(point[:axis]), tuple(point[axis + 1:])
        if limit is None:
            found.extend(head + (t,) + tail for t in range(lo, hi + 1))
            return
        for t in range(lo, min(hi, lo + limit - 1) + 1):
            key = tuple(-x for x in head + (t,) + tail)  # found[0] is the largest point kept
            if len(found) < limit:
                heapq.heappush(found, key)
            elif key > found[0]:
                heapq.heapreplace(found, key)
            else:
                break

    walk(0, [const for _, const in halfspaces])
    if limit is None:
        return count, sorted(found)
    return count, sorted(tuple(-x for x in key) for key in found)


def enumerate_interior(
    simplex: LatticeSimplex, cap: int = DEFAULT_CAP, limit: int | None = None
) -> InteriorCensus:
    """Count the interior lattice points of a full-dimensional simplex.

    Scans the componentwise vertex bounding box, refusing with
    :class:`EnumerationCapError` when the box holds more candidates than
    ``cap``.  The census keeps the ``limit`` lexicographically smallest
    points (all of them for None), in order; a negative ``limit`` is an error.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be None or at least 0, got {limit}")
    simplex._require_full()
    box = _capped_box(_vertex_box(simplex.vertices), cap)
    # every functional strictly positive: row - 1 >= 0 on integers
    interior = [(coeffs, const - 1) for coeffs, const in simplex.functional_rows]
    count, points = _scan(interior, box, limit)
    return InteriorCensus(count, tuple(points), box)


def count_face_points(
    simplex: LatticeSimplex, omitted: Iterable[int] = (), cap: int = DEFAULT_CAP
) -> int:
    """Count lattice points on the closed face omitting the given vertexes.

    With no omissions this is the full closure count.  The scan covers the
    face's own vertex bounding box and tests the omitted barycentric
    functionals for zero, the rest for nonnegativity.
    """
    simplex._require_full()
    dropped, kept = _complement(len(simplex.vertices), omitted)
    box = _capped_box(_vertex_box([simplex.vertices[j] for j in kept]), cap)
    rows = simplex.functional_rows
    # every functional nonnegative, and the omitted ones also nonpositive
    negated = [(tuple(-c for c in rows[i][0]), -rows[i][1]) for i in dropped]
    return _scan(list(rows) + negated, box, 0)[0]


def is_onepoint(simplex: LatticeSimplex, cap: int = DEFAULT_CAP) -> Vector | None:
    """The unique interior lattice point, or None if there is not exactly one."""
    census = enumerate_interior(simplex, cap, limit=1)
    return census.points[0] if census.count == 1 else None


def blichfeldt_check(simplex: LatticeSimplex, count: int) -> BlichfeldtCheck:
    """Check the lattice point bound count <= dim + dim! * volume.

    ``count`` is the simplex's number of lattice points, supplied by the
    caller (see :func:`count_face_points`).  Uses the intrinsic dimension,
    so embedded faces are measured within their own affine hulls.  The
    slack is a nonnegative integer whenever the bound holds.
    """
    if count < simplex.dim + 1:
        raise ValueError("a simplex has at least dim + 1 lattice points")
    volume = normalized_volume(simplex)
    slack = simplex.dim + factorial(simplex.dim) * volume - count
    return BlichfeldtCheck(simplex.dim, volume, count, slack, slack >= 0)


__all__ = [
    "DEFAULT_CAP",
    "BlichfeldtCheck",
    "EnumerationCapError",
    "InteriorCensus",
    "PointClass",
    "blichfeldt_check",
    "classify_point",
    "count_face_points",
    "enumerate_interior",
    "is_onepoint",
]
