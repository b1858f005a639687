"""Lattice point classification, enumeration, and counting.

Points are classified and counted on the integer forms of the barycentric
functionals: each functional times |det| of the edge matrix has
integer coefficients and keeps its coordinate's sign.  A single point is
classified by the signs of its rows; the interior, a closed face and the
parallelotope around the interior point are ranges lo <= row <= hi, which
one entry turns into integer half-spaces for one box scan.  A box that some
half-space misses entirely is answered before the walk, which goes depth-first
from the shortest side, cuts each axis to the values every half-space still
allows, solves each row of the longest axis inline as one integer interval, and
keeps only the lexicographically smallest points a caller asks for, in a sorted
list.  A subtree in which no point can be kept any more is settled: only
counted.  A level of ``CLOSED_FORM_ROWS`` rows or more is counted in closed
form before any row of it is solved: its row lengths are floors of linear
functions, summed in O(log) steps on each piece where the same two bind.  Only
a level that holds points and is not settled is then listed, row by row.

The entry refuses a bounding box that holds more candidates than the cap
before it builds a row, instead of grinding.  A face whose index N, k! times
its volume, decides its count is not scanned: a vertex, an edge and a
unimodular k-face hold k + N points, and a triangle follows Pick's theorem.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, prod
from operator import add, sub
from typing import Iterable, Sequence

from .simplex import LatticeSimplex, _complement, _digit_limit, _face_volume, _row_values

Vector = tuple[int, ...]

DEFAULT_CAP = 10**8
_SHOWN_BITS = 128  # counts past this many bits print as "at least 2^k"


def _count_text(n: int) -> str:
    # str() refuses ints past 4,300 digits, and long digit strings say little
    if n.bit_length() <= _SHOWN_BITS:
        return str(n)
    return f"at least 2^{n.bit_length() - 1}"


class EnumerationCapError(RuntimeError):
    """A scan would exceed the configured cap, counted in ``unit``.

    ``required`` is the predicted work in that unit: the candidate count of
    a bounding box, or the Minkowski bound on a certificate's T-scan.  When
    a family's box passes both the cap and 2^128, it is the partial product
    at which the family builder stopped: a lower bound, printed "at least 2^k".
    The cap is the caller's own number, printed in full up to ``_digit_limit()`` digits.
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
            f"above the enumeration cap of {cap if cap < 10**_digit_limit() else _count_text(cap)}"
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


def classify_point(simplex: LatticeSimplex, point: Sequence[Fraction | int]) -> PointClass:
    """Classify a rational point by the signs of its barycentric coordinates."""
    # the rows are |det| times the coordinates, with the same signs
    return _classify(_row_values(simplex, point))


def _classify(coords: Sequence[Fraction | int]) -> PointClass:
    if any(x < 0 for x in coords):
        return PointClass("outside")
    zeros = tuple(i for i, x in enumerate(coords) if x == 0)
    if zeros:
        return PointClass("boundary", zeros)
    return PointClass("interior")


def _vertex_box(vertices: Sequence[Vector]) -> tuple[tuple[int, int], ...]:
    return tuple((min(axis), max(axis)) for axis in zip(*vertices))


# A level only counted is summed in closed form from this many values on; below
# that, finding the binding half-spaces costs more than the sums save (timed).
CLOSED_FORM_ROWS = 8


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """The sum of floor((a*i + b) / m) over i in [0, n), m > 0, in O(log m) Euclid-like steps."""
    total = 0
    while n > 0:
        (qa, a), (qb, b) = divmod(a, m), divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        (n, b), m, a = divmod(a * n + b, m), a, m  # the same floors with a and m exchanged
    return total


def _rows_total(ups: list[Vector], downs: list[Vector], ends: Vector, x: int, hi: int) -> int:
    """The points in the rows at x to ``hi``, summed piece by piece instead of row by row.

    A line (c, r, s) is (s + c*x)/r; the row at x runs from -floor(least of ``ups``)
    to floor(least of ``downs``), inside its box ``ends``.  A piece on which one line
    of each side stays least adds two floor sums and its length, where the bounds meet.
    """
    total, ups, downs = 0, ups + [(0, 1, -ends[0])], downs + [(0, 1, ends[1])]
    while x <= hi:
        stop, least = hi, []
        for lines in (ups, downs):
            c0, r0, s0 = lines[0]
            for c, r, s in lines[1:]:
                lower = (s + c * x) * r0 - (s0 + c0 * x) * r
                if lower < 0 or lower == 0 and c * r0 < c0 * r:
                    c0, r0, s0 = c, r, s
            for c, r, s in lines:
                if c * r0 < c0 * r:
                    stop = min(stop, (s * r0 - s0 * r) // (c0 * r - c * r0))
            least.append((c0, r0, s0))
        (c1, r1, s1), (c2, r2, s2) = least
        # the bounds meet where (s1 + c1*x)/r1 + (s2 + c2*x)/r2 >= 0, that is a*x >= b
        a, b = c1 * r2 + c2 * r1, -(s1 * r2 + s2 * r1)
        first = max(x, -(-b // a)) if a > 0 else x if a or b <= 0 else stop + 1
        last = min(stop, b // a) if a < 0 else stop
        n, x = last - first + 1, stop + 1
        if n > 0:
            total += n + _floor_sum(n, r1, c1, s1 + c1 * first)
            total += _floor_sum(n, r2, c2, s2 + c2 * first)
    return total


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
    them for None, none for 0.  Its one caller, :func:`_census`, refuses
    a box above the cap before it builds a row.

    A box that some half-space misses even at its best corner is answered
    (0, []) before the walk, which is depth-first from the shortest box side
    to the longest.  Each level carries one partial sum per half-space,
    stepped by its coefficient column, and cuts its axis to the values at
    which every half-space, split once per scan by the sign of that
    coefficient, can still hold with the axes not yet fixed at their best
    box ends.  The level above the longest axis solves each value as a row
    of that axis: one integer interval.  The ``limit`` smallest points are
    kept as a sorted list of tuples, and a row stops at its first point that
    is not below the largest one kept.  A subtree or a row whose fixed
    coordinates ahead of the first free one sort after the largest kept is
    settled: only counted.  A last level of ``CLOSED_FORM_ROWS`` values or
    more is first summed by :func:`_rows_total`, one piece per binding pair;
    it is done then if it is settled or empty, else its rows are listed
    until all the points it holds are met or it settles.
    """
    *outer, row = sorted(range(len(box)), key=lambda a: box[a][1] - box[a][0])
    ends = box[row]
    # per level above the row: axis, box side, the half-spaces by the sign of the axis
    # coefficient with the most the later axes add, and the coefficient column
    levels, gains = [], [c[row] * (ends[1] if c[row] > 0 else ends[0]) for c, _ in halfspaces]
    for a in reversed(outer):
        (lo, hi), col = box[a], [c[a] for c, _ in halfspaces]
        cut = list(enumerate(zip(col, gains)))
        levels.insert(0, (a, lo, hi, [(i, c, g) for i, (c, g) in cut if c > 0],
                          [(i, -c, g) for i, (c, g) in cut if c < 0], col))
        gains = [g + (c * hi if c > 0 else c * lo) for c, g in zip(col, gains)]
    if any(const + g < 0 for (_, const), g in zip(halfspaces, gains)):
        return 0, []
    # one axis: a single row
    levels = levels or [(row, 0, 0, [], [], [0] * len(gains))]
    col = levels[-1][-1]
    ups = [(i, col[i], c[row]) for i, (c, _) in enumerate(halfspaces) if c[row] > 0]
    downs = [(i, col[i], -c[row]) for i, (c, _) in enumerate(halfspaces) if c[row] < 0]
    # the first coordinate a node of each level has not fixed; those a row's points share ahead
    heads = [min(outer[k:] + [row]) for k in range(len(levels))]
    ahead, last = min(levels[-1][0] + 1, row), len(levels) - 1
    count, found, point = 0, [], [0] * len(box)

    def walk(level: int, sums: list[int], listing: bool) -> None:
        nonlocal count
        axis, lo, hi, pos, neg, col = levels[level]
        for i, c, rest in pos:
            t = -((sums[i] + rest) // c)
            if t > lo:
                lo = t
        for i, c, rest in neg:
            t = (sums[i] + rest) // c
            if t < hi:
                hi = t
        if lo > hi:
            return
        if level < last:
            head = heads[level + 1]
            sums = [s + c * lo for s, c in zip(sums, col)]
            for x in range(lo, hi + 1):
                point[axis] = x
                if listing and len(found) == limit and tuple(point[:head]) > found[-1][:head]:
                    listing = False  # settled, and so is every later value of this axis
                walk(level + 1, sums, listing)
                sums = list(map(add, sums, col))
            return
        # the cut above is exact where the row coefficient is 0; the others bound each row
        up = [(c, r, sums[i]) for i, c, r in ups]
        down = [(c, r, sums[i]) for i, c, r in downs]
        summed = hi - lo + 1 >= CLOSED_FORM_ROWS
        if summed:
            left = _rows_total(up, down, ends, lo, hi)
            count += left
            if not (listing and left):
                return
        for x in range(lo, hi + 1):
            first, end = ends
            for c, r, s in up:
                t = -((s + c * x) // r)
                if t > first:
                    first = t
            for c, r, s in down:
                t = (s + c * x) // r
                if t < end:
                    end = t
            if first > end:
                continue
            if not summed:
                count += end - first + 1
            if not listing:
                continue
            point[axis] = x
            if len(found) == limit and tuple(point[:ahead]) > found[-1][:ahead]:
                if summed:  # no point left in the level can be kept, and all are counted
                    return
                listing = False
                continue
            if limit is None:
                for point[row] in range(first, end + 1):
                    found.append(tuple(point))
            else:
                for point[row] in range(first, end + 1):
                    key = tuple(point)
                    if len(found) == limit:
                        if key >= found[-1]:  # found[-1] is the largest point kept
                            break
                        found.pop()
                    insort(found, key)
            if summed:
                left -= end - first + 1
                if not left:  # the later rows are empty
                    return

    walk(0, [const for _, const in halfspaces], limit != 0)
    if limit is None:
        found.sort()
    return count, found


def _census(simplex: LatticeSimplex, ranges: dict[int, tuple[int, int | None]],
            box: Sequence[tuple[int, int]], cap: int,
            limit: int | None) -> tuple[int, list[Vector]]:
    """:func:`_scan` of ``box`` where lo <= row i <= hi for each i: (lo, hi) in ``ranges``.

    hi None leaves a range open.  A box above ``cap`` candidates is refused before a row is built.
    """
    required = prod(hi - lo + 1 for lo, hi in box)
    if required > cap:
        raise EnumerationCapError(cap, required)
    rows, halfspaces = simplex.functional_rows, []
    for i, (lo, hi) in ranges.items():
        coeffs, const = rows[i]
        halfspaces.append((coeffs, const - lo))
        if hi is not None:
            halfspaces.append((tuple(-c for c in coeffs), hi - const))
    return _scan(halfspaces, box, limit)


def enumerate_interior(
    simplex: LatticeSimplex, cap: int = DEFAULT_CAP, limit: int | None = None
) -> InteriorCensus:
    """Count the interior lattice points of a full-dimensional simplex.

    Scans the componentwise vertex bounding box, refusing with
    :class:`EnumerationCapError` when the box holds more candidates than
    ``cap``.  The census keeps the ``limit`` lexicographically smallest
    points (all of them for None), in order; a ``limit`` that is negative or
    not an int is an error.
    """
    if limit is not None and (isinstance(limit, bool) or not isinstance(limit, int)):
        raise ValueError(f"limit must be None or an int, got {limit!r}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be None or at least 0, got {limit}")
    simplex._require_full()
    box = _vertex_box(simplex.vertices)
    # each of the d + 1 functionals strictly positive: row >= 1 on integers
    count, points = _census(simplex, dict.fromkeys(range(len(box) + 1), (1, None)), box, cap, limit)
    return InteriorCensus(count, tuple(points), box)


def count_face_points(
    simplex: LatticeSimplex, omitted: Iterable[int] = (), cap: int = DEFAULT_CAP
) -> int:
    """Count lattice points on the closed face omitting the given vertexes.

    With no omissions this is the full closure count.  A k-face's index N,
    k! times its volume, is read from the face table first; every face it
    decides is counted in closed form, with nothing enumerated and no cap: a
    vertex, an edge (N its lattice length) and a unimodular face (N = 1) meet
    Blichfeldt's bound of k + N points, and a triangle holds (N + B) / 2 + 1
    by Pick's theorem in its own plane's lattice, B the sum of its edge gcds.
    Any other face is scanned over its vertex box, refused above ``cap``
    candidates, testing the omitted functionals for zero, the rest for >= 0.
    """
    simplex._require_full()
    dropped, kept = _complement(len(simplex.vertices), omitted)
    face, k = [simplex.vertices[j] for j in kept], len(kept) - 1
    index = int(_face_volume(simplex, kept) * factorial(k))  # N, k! times the k-face's volume
    if k < 2 or index == 1:  # a vertex, an edge of lattice length N, or a unimodular face
        return k + index
    if k == 2:  # Pick's theorem, for B the sum of the three edges' gcds
        boundary = sum(gcd(*map(sub, v, w)) for v, w in zip(face, face[1:] + face[:1]))
        return (index + boundary) // 2 + 1
    # every functional nonnegative, and the omitted ones also nonpositive
    ranges = {i: (0, 0 if i in dropped else None) for i in range(len(simplex.vertices))}
    return _census(simplex, ranges, _vertex_box(face), cap, 0)[0]


def is_onepoint(simplex: LatticeSimplex, cap: int = DEFAULT_CAP) -> Vector | None:
    """The unique interior lattice point, or None if there is not exactly one."""
    census = enumerate_interior(simplex, cap, limit=1)
    return census.points[0] if census.count == 1 else None

