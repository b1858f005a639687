"""Lattice point classification, enumeration, and counting.

Single points are classified through exact rational barycentric
coordinates.  Bulk enumeration works on the integer forms of the same
functionals: each barycentric functional times the positive hull
determinant has integer coefficients, so the interior, a closed face and
the parallelotope around the interior point are all integer half-spaces
for one box scan.  It walks the box one axis short and solves the last
axis as an integer interval, which keeps even million-point boxes cheap.

Every scan is guarded by a candidate cap: when the bounding box holds more
candidates than the cap allows, the scan refuses up front instead of
grinding.
"""

from __future__ import annotations

import itertools
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
    """All interior lattice points, in lexicographic order."""

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
    coords = barycentric_of(simplex, point)
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


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _scan(
    halfspaces: Sequence[tuple[tuple[int, ...], int]],
    box: Sequence[tuple[int, int]],
    collect: bool,
) -> int | list[Vector]:
    """Count or collect the lattice points of ``box`` in every half-space.

    Each half-space is an integer pair (coeffs, const) meaning
    coeffs . x + const >= 0; a strict or an equality condition on an
    integer form is written as one or two such pairs.  The longest box
    axis is solved as an integer interval, the rest are walked directly.
    Collected points come back sorted.  Callers pass a box from
    :func:`_capped_box`, so the refusal comes before any row is built.
    """
    d = len(box)
    scan_axis = max(range(d), key=lambda a: box[a][1] - box[a][0])
    prefix_axes = [a for a in range(d) if a != scan_axis]
    # (scan coefficient, prefix coefficients, constant) per half-space
    prepared = [
        (coeffs[scan_axis], [coeffs[a] for a in prefix_axes], const)
        for coeffs, const in halfspaces
    ]
    scan_lo, scan_hi = box[scan_axis]
    found: list[Vector] = []
    count = 0
    ranges = [range(box[a][0], box[a][1] + 1) for a in prefix_axes]
    for prefix in itertools.product(*ranges):
        lo, hi = scan_lo, scan_hi
        alive = True
        for c, pcoeffs, const in prepared:
            base = const + sum(p * x for p, x in zip(pcoeffs, prefix))
            if c > 0:
                lo = max(lo, _ceil_div(-base, c))
            elif c < 0:
                hi = min(hi, (-base) // c)
            elif base < 0:
                alive = False
                break
            if lo > hi:
                alive = False
                break
        if not alive:
            continue
        if collect:
            head, tail = prefix[:scan_axis], prefix[scan_axis:]
            found.extend(head + (t,) + tail for t in range(lo, hi + 1))
        else:
            count += hi - lo + 1
    if collect:
        found.sort()
        return found
    return count


def enumerate_interior(simplex: LatticeSimplex, cap: int = DEFAULT_CAP) -> InteriorCensus:
    """Enumerate every interior lattice point of a full-dimensional simplex.

    Scans the componentwise vertex bounding box, refusing with
    :class:`EnumerationCapError` when the box holds more candidates than
    ``cap``.  Points come back in lexicographic order.
    """
    simplex._require_full()
    box = _capped_box(_vertex_box(simplex.vertices), cap)
    # every functional strictly positive: row - 1 >= 0 on integers
    interior = [(coeffs, const - 1) for coeffs, const in simplex.functional_rows]
    return InteriorCensus(tuple(_scan(interior, box, collect=True)), box)


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
    return _scan(list(rows) + negated, box, collect=False)


def is_onepoint(simplex: LatticeSimplex, cap: int = DEFAULT_CAP) -> Vector | None:
    """The unique interior lattice point, or None if there is not exactly one."""
    census = enumerate_interior(simplex, cap)
    if len(census.points) == 1:
        return census.points[0]
    return None


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
