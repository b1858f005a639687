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

from .bounds import PartitionRecord, _descending, _first_mask, _partition
from .exact import int_matrix
from .points import DEFAULT_CAP, EnumerationCapError, classify_point
from .simplex import LatticeSimplex, _interior_values

Vector = tuple[int, ...]
RatVector = tuple[Fraction, ...]


def _admissible(values: Vector, record: PartitionRecord, cap: int) -> tuple[Vector, int]:
    """Integer weights and their total T for rows n over D = sum n and their violated partition.

    The rows of the partition's system matrix say |w_k - T b_k| < b_k for
    each product-side coordinate b_k = n_k / D and sum(w) = T, so each
    weight lies in the integer interval [floor((T-1) b_k) + 1,
    ceil((T+1) b_k) - 1].  The scan takes the smallest total T >= 1 whose
    intervals are nonempty and bracket T between their sums; T = 0 would
    force every weight to 0.  Then, from the last weight down, each weight
    takes the least value that leaves the others feasible.  All weights
    are positive, so this is the short vector minimizing |T| first and
    then |w_t|, ..., |w_1|.  ``weights[k]`` pairs with the k-th
    product-side row.

    Minkowski's box bounds T by the last row sum of the matrix's inverse,
    (2 - s) / s with s = S / D the sum-side total.  A scan that would pass
    ``cap`` values of T raises :class:`EnumerationCapError` naming that bound.
    """
    parts, denominator = [values[j] for j in record.product_side], sum(values)
    side = sum(values[j] for j in record.sum_side)  # S = s D, the sum side rows' total
    bound = -((side - 2 * denominator) // side) - 1  # ceil((2D - S) / S) - 1, on integers
    for total in range(1, bound + 1):
        if total > cap:
            raise EnumerationCapError(cap, bound, "T-scan steps", "certificate search may take")
        lo = [(total - 1) * n // denominator + 1 for n in parts]
        hi = [-(-(total + 1) * n // denominator) - 1 for n in parts]
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
    for weight, n in zip(weights, parts):
        if abs(weight * denominator - total * n) >= n:
            raise AssertionError(f"weight {weight} is not within 1 of {total} * {n}/{denominator}")
    return tuple(weights), total


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
    situation where no construction of this shape exists.  The start's
    integer rows n = D * b, sorted descending, go to the bitwise search of
    :mod:`onepoint.bounds`, which finds the first partition (sum sides as
    bitmasks over the sorted positions, smallest mask first) whose sum
    falls below its product without visiting the partitions one by one;
    only that hit is evaluated as a record.  It is turned into an explicit
    lattice point

        q = (total + 1) * start - total * anchor

    which is integral, as total * anchor is an integer combination of the
    vertices, and is verified to be distinct from the start and interior
    before a certificate is returned.  Every coordinate of
    ``point`` must be an ``int``.  ``cap`` limits the T-scan of
    :func:`_admissible`.
    """
    (start,) = int_matrix([point])  # refused, not truncated, when not all ints
    refusal = f"start point {start} is not an interior lattice point"
    # stable: tied rows keep index order
    ranked, order = _descending(_interior_values(simplex, start, refusal))
    mask = _first_mask(ranked, Fraction(0), strict=True)
    if mask is None:
        return None
    record = _partition(ranked, mask)
    weights, total = _admissible(ranked, record, cap)
    weight_order = tuple(order[k] for k in record.product_side)
    # total * anchor is the integer sum of the weighted product-side vertices
    pulls = [sum(w * simplex.vertices[j][c] for w, j in zip(weights, weight_order))
             for c in range(simplex.ambient_dim)]
    anchor = tuple(Fraction(pull, total) for pull in pulls)
    found = tuple((total + 1) * p - pull for p, pull in zip(start, pulls))
    if found == start or classify_point(simplex, found).kind != "interior":
        raise AssertionError(f"constructed point {found} fails verification")
    return SecondPointCertificate(
        sum_side=tuple(sorted(order[k] for k in record.sum_side)),
        product_side=tuple(sorted(weight_order)), ratio=record.sum / record.product,
        weights=weights, weight_order=weight_order, total=total,
        anchor=anchor, start=start, point=found,
    )
