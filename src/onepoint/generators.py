"""Extremal families and the planar atlas.

The doubly exponential growth in this package is witnessed, not just
bounded: the Zaks-Perles-Wills simplices built from the Sylvester
sequence realize volumes within striking distance of the upper bounds.
This module constructs them, builds the two centrally placed families
that make the coordinate lower bound tight, and a complete atlas of the
planar one-point triangles up to unimodular affine equivalence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator

from .bounds import _chain_levels, _lower_checks, _reduced
from .exact import col_hnf
from .points import DEFAULT_CAP, EnumerationCapError, _SHOWN_BITS, is_onepoint
from .simplex import LatticeSimplex, _interior_values, normalized_volume

Vector = tuple[int, ...]
RatVector = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# extremal families


def _sylvester_terms() -> Iterator[int]:
    # t_1 = 2, t_{k+1} = t_k^2 - t_k + 1: 2, 3, 7, 43, ...
    term = 2
    while True:
        yield term
        term = term * (term - 1) + 1


def _family_member(
    dim: int, corner: int, steps: Iterable[int], inner: int, cap: int
) -> LatticeSimplex:
    # conv{corner * (1,...,1), s_1 e_1, ..., s_d e_d}, whose census must be
    # inner * (1,...,1) alone.  The census refuses a box above the cap; one past
    # 2^_SHOWN_BITS too is refused here as the steps are drawn, before they or
    # the box grow huge, and prints "at least 2^k", still true of a partial box
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValueError(f"dimension must be an int, got {dim!r}")
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    sides, box = [], 1
    for step in itertools.islice(steps, dim):
        sides.append(step)
        box *= max(corner, step) - min(corner, 0) + 1
        if box > cap and box.bit_length() > _SHOWN_BITS:
            raise EnumerationCapError(cap, box)
    vertices = [(corner,) * dim]
    for i, step in enumerate(sides):
        vertices.append(tuple(step if c == i else 0 for c in range(dim)))
    simplex = LatticeSimplex(tuple(vertices))
    point = (inner,) * dim
    if is_onepoint(simplex, cap) != point:
        raise AssertionError(f"the interior census is not {point} alone")
    return simplex


def zpw_simplex(dim: int, cap: int = DEFAULT_CAP) -> LatticeSimplex:
    """The Zaks-Perles-Wills simplex: conv{0, t_1 e_1, ..., t_d e_d}, census-verified.

    Its unique interior lattice point is the all-ones vector, and its
    volume grows doubly exponentially with the dimension.  Its axis
    vertices are the Sylvester terms t_1 = 2, t_{k+1} = t_k^2 - t_k + 1.
    """
    return _family_member(dim, 0, _sylvester_terms(), 1, cap)


def dilated_simplex(dim: int, cap: int = DEFAULT_CAP) -> LatticeSimplex:
    """conv{0, (d+1)e_1, ..., (d+1)e_d}; its one interior point, (1,...,1), is the centroid."""
    return _family_member(dim, 0, (dim + 1 for _ in itertools.count()), 1, cap)


def reflected_simplex(dim: int, cap: int = DEFAULT_CAP) -> LatticeSimplex:
    """conv{-(1,...,1), e_1, ..., e_d}; its one interior point, the origin, is the centroid."""
    return _family_member(dim, -1, itertools.repeat(1), 0, cap)


# ---------------------------------------------------------------------------
# canonical form for planar triangles


def _canonical_form(vertices: tuple[Vector, ...]) -> tuple[Vector, ...]:
    # the least column-style Hermite form of the vertex rows over all vertex
    # orders; column operations are coordinate changes
    return min(col_hnf(tuple(vertices[p] for p in perm))
               for perm in itertools.permutations(range(len(vertices))))


# ---------------------------------------------------------------------------
# the planar atlas


@dataclass(frozen=True)
class AtlasClass:
    vertices: tuple[Vector, ...]
    volume: Fraction
    point_count: int
    coordinates: RatVector
    min_slack: Fraction


@dataclass(frozen=True)
class Atlas2D:
    radius: int
    classes: tuple[AtlasClass, ...]
    max_volume: Fraction
    max_point_count: int


def onepoint_triangle_atlas(box_radius: int = 30, cap: int = DEFAULT_CAP) -> Atlas2D:
    """Every planar one-point triangle up to lattice symmetry, verified.

    Sweeps triangles (v0, v1, v2) counterclockwise around the interior
    point 0.  The determinants d0, d1, d2 of consecutive vertices satisfy
    d0 v0 + d1 v1 + d2 v2 = 0, and their sum is the doubled area, at most
    27 by the package's volume bound (d+1)^(2^d-1)/d! at d = 2.  Each
    open spoke from 0 to a vertex lies inside, so every vertex is
    primitive and a unimodular map sends v0 to (1, 0).  Each spoke
    triangle conv(0, v_i, v_{i+1}) has no interior point, so by Pick's
    theorem its determinant is the lattice length of its outer edge:
    with v1 = (a, d2) and 0 <= a < d2 after a shear fixing (1, 0),
    gcd(a - 1, d2) = d2 forces a = 1 % d2.  A cyclic relabelling rotates
    (d0, d1, d2), so d2 is taken as the largest.  A reflection reverses
    the orientation and maps the triangle with weights (u, t, d2) to one
    with (t, u, d2), also in the sweep's range and in the same class, so
    u <= t is enough: one survivor per class.  The sweep runs over d2 and
    (d0, d1) = (u, t) alone, t = -u mod d2 for an integral d2 v2, so its
    work does not depend on the radius.  As e01 = d2, the filter u + t =
    e12 + e20, doubled area equal to boundary count, keeps exactly the
    one-interior-point triangles; each survivor is folded into its canonical
    form, and every class is then re-verified from scratch: interior census
    of size one, all partition inequalities, coordinate lower bounds, and the
    chain bounds.  The inequalities are checked through the reduced system
    on the sorted coordinates, whose least slack is every partition's least.
    The lower bounds and the chain are decided on integers and read as two
    verdicts and the top level's count: the atlas builds none of their records.

    The radius names the box |x|, |y| <= box_radius that every reported
    form is checked to fit in; from 9 on the box holds every class.
    """
    if isinstance(box_radius, bool) or not isinstance(box_radius, int):
        raise ValueError(f"box radius must be an int, got {box_radius!r}")
    if box_radius < 9:
        raise ValueError("a box radius below 9 cannot reach every class")
    forms: set[tuple[Vector, ...]] = set()
    for d2 in range(1, 26):
        a = 1 % d2
        for u in range(1, min(d2, 26 - d2) + 1):
            # d2 v2 = -(u v0 + t v1) = -(u + t a, t d2) is integral just for t = -u mod d2
            for t in range(u + -2 * u % d2, min(d2, 27 - d2 - u) + 1, d2):
                cx = -(u + t * a) // d2
                if u + t == gcd(cx - a, t + d2) + gcd(1 - cx, t):
                    forms.add(_canonical_form(((1, 0), (a, d2), (cx, -t))))
    classes = []
    for form in forms:
        if any(abs(x) > box_radius for v in form for x in v):
            raise AssertionError(f"class {form} does not fit in radius {box_radius}")
        member = LatticeSimplex(form)
        if is_onepoint(member, cap) != (0, 0):
            raise AssertionError(f"class {form} fails the census")
        values = _interior_values(member, (0, 0))
        least, (levels, _, chained) = min(_reduced(values)), _chain_levels(member, values, cap)
        if not (least >= 0 and _lower_checks(values)[-1] and chained):
            raise AssertionError(f"class {form} violates a bound it must satisfy")
        denominator = sum(values)
        classes.append(
            AtlasClass(
                form,
                normalized_volume(member),
                levels[-1][3],  # the top level's count
                tuple(Fraction(n, denominator) for n in sorted(values, reverse=True)),
                least,
            )
        )
    classes.sort(key=lambda c: (c.volume, c.point_count, c.vertices))
    return Atlas2D(
        box_radius,
        tuple(classes),
        max(c.volume for c in classes),
        max(c.point_count for c in classes),
    )
