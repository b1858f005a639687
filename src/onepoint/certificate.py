"""Constructive witnesses for a second interior lattice point.

When some partition of the vertex indexes violates the sum-versus-product
inequality, the violation is not just a numeric fact: the system matrix of
the partition has determinant below 1 in absolute value, so by Minkowski's
convex body theorem its unit ball holds a nonzero integer vector.  That
vector's entries are weights from which an explicit second interior lattice
point is assembled.  The matrix's shape turns the search for the vector
into a scan over one integer, the weights' total.  This module finds the
vector, builds the point, and verifies every claimed property before
returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bounds import PartitionRecord, _partition, _sum_side_mask, reduced_system, sort_barycentric
from .exact import int_matrix
from .points import DEFAULT_CAP, EnumerationCapError, classify_point
from .simplex import LatticeSimplex, barycentric_of, check_barycentric

Vector = tuple[int, ...]
RatVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class AdmissibleWeights:
    """Integer weights certifying a violated partition.

    ``weights[k]`` pairs with the k-th product-side coordinate; ``total``
    is their sum and satisfies |weights[k] / coords[j_k] - total| < 1.
    """

    weights: tuple[int, ...]
    total: int


def find_admissible_weights(
    coords: Sequence[Fraction | int], sum_side: Sequence[int], cap: int = DEFAULT_CAP
) -> AdmissibleWeights | None:
    """Weights for a partition, or None when its inequality holds.

    The rows of the partition's system matrix say |w_k - T b_k| < b_k for
    each product-side coordinate b_k and sum(w) = T, so each weight lies in
    the integer interval [floor((T-1) b_k) + 1, ceil((T+1) b_k) - 1].  The
    scan takes the smallest total T >= 1 whose intervals are nonempty and
    bracket T between their sums; T = 0 would force every weight to 0.
    Then, from the last weight down, each weight takes the least value that
    leaves the others feasible.  All weights are positive, so this is the
    short vector minimizing |T| first and then |w_t|, ..., |w_1|.

    Minkowski's box bounds T by the last row sum of the matrix's inverse,
    (2 - s) / s with s the sum-side total.  A scan that would pass ``cap``
    values of T raises :class:`EnumerationCapError` naming that bound.
    """
    bary = check_barycentric(coords)
    record = _partition(bary, _sum_side_mask(len(bary), sum_side))
    return None if record.slack >= 0 else _admissible(bary, record, cap)


def _admissible(bary: RatVector, record: PartitionRecord, cap: int) -> AdmissibleWeights:
    """:func:`find_admissible_weights` on a checked vector and its violated partition."""
    bound = -((record.sum - 2) // record.sum) - 1  # ceil((2 - s) / s) - 1
    parts = [(bary[j].numerator, bary[j].denominator) for j in record.product_side]
    for total in range(1, bound + 1):
        if total > cap:
            raise EnumerationCapError(cap, bound, "T-scan steps", "certificate search may take")
        lo = [(total - 1) * n // d + 1 for n, d in parts]
        hi = [-(-(total + 1) * n // d) - 1 for n, d in parts]
        if all(a <= b for a, b in zip(lo, hi)) and sum(lo) <= total <= sum(hi):
            break
    else:
        raise AssertionError(f"no total up to the Minkowski bound {bound} is feasible")
    weights = [0] * len(parts)
    rest, below = total, sum(hi)
    for k in reversed(range(len(parts))):
        below -= hi[k]
        weights[k] = max(lo[k], rest - below)
        rest -= weights[k]
    if rest != 0:
        raise AssertionError(f"weights {weights} do not sum to the total {total}")
    for weight, j in zip(weights, record.product_side):
        if abs(weight - total * bary[j]) >= bary[j]:
            raise AssertionError(f"weight {weight} drifts too far from {total} * {bary[j]}")
    return AdmissibleWeights(tuple(weights), total)


@dataclass(frozen=True)
class SecondPointCertificate:
    """A verified second interior lattice point and how it was built.

    ``sum_side`` and ``product_side`` list the violated partition by the
    original vertex indexes.  ``weight_order`` pairs ``weights`` with
    product-side vertices (descending barycentric coordinates of the
    starting point).  ``anchor`` is the rational point sliding the start
    toward the product-side face; ``point`` is the resulting second
    interior lattice point.
    """

    sum_side: tuple[int, ...]
    product_side: tuple[int, ...]
    ratio: Fraction
    weights: tuple[int, ...]
    weight_order: tuple[int, ...]
    total: int
    anchor: RatVector
    start: Vector
    point: Vector


def second_interior_point(
    simplex: LatticeSimplex, point: Sequence[int], cap: int = DEFAULT_CAP
) -> SecondPointCertificate | None:
    """A second interior lattice point, certified, or None.

    None means every partition's inequality holds, which is exactly the
    situation where no construction of this shape exists; the reduced
    system on the sorted coordinates decides it without visiting the
    partitions.  Otherwise the sorted coordinates, checked once, go
    through the one partition evaluator of :mod:`onepoint.bounds` mask
    by mask (sum sides as bitmasks over positions sorted by descending
    barycentric coordinate, smallest mask first) until a partition's sum
    falls below its product.  That first hit is turned into an explicit
    lattice point

        q = (total + 1) * start - total * anchor

    which is verified to be integral, distinct from the start, and
    interior before a certificate is returned.  Every coordinate of
    ``point`` must be an ``int``.  ``cap`` limits the T-scan of
    :func:`find_admissible_weights`.
    """
    (start,) = int_matrix([point])  # refused, not truncated, when not all ints
    bary = barycentric_of(simplex, start)
    if any(c <= 0 for c in bary):
        raise ValueError(f"start point {start} is not an interior lattice point")
    sorted_coords = sort_barycentric(bary)
    if all(slack >= 0 for slack in reduced_system(sorted_coords)):
        return None
    coords, order = sorted_coords.coords, sorted_coords.order
    records = (_partition(coords, mask) for mask in range(1, 2 ** len(coords) - 1))
    record = next((r for r in records if r.slack < 0), None)
    if record is None:
        raise AssertionError("the reduced system fails but no partition inequality does")
    admissible = _admissible(coords, record, cap)
    weight_order = tuple(order[k] for k in record.product_side)
    total = admissible.total
    anchor = tuple(
        sum(
            (Fraction(w, total) * simplex.vertices[j][c] for w, j in
             zip(admissible.weights, weight_order)),
            start=Fraction(0),
        )
        for c in range(simplex.ambient_dim)
    )
    second = tuple((total + 1) * p - total * r for p, r in zip(start, anchor))
    if any(x.denominator != 1 for x in second):
        raise AssertionError(f"constructed point {second} is not integral")
    found = tuple(int(x) for x in second)
    if found == start or classify_point(simplex, found).kind != "interior":
        raise AssertionError(f"constructed point {found} fails verification")
    return SecondPointCertificate(
        sum_side=tuple(sorted(order[k] for k in record.sum_side)),
        product_side=tuple(sorted(weight_order)),
        ratio=record.sum / record.product,
        weights=admissible.weights,
        weight_order=weight_order,
        total=total,
        anchor=anchor,
        start=start,
        point=found,
    )
