"""Constructive witnesses for a second interior lattice point.

When some partition of the vertex indexes violates the sum-versus-product
inequality, the violation is not just a numeric fact: the system matrix of
the partition has determinant below 1 in absolute value, so by Minkowski's
convex body theorem its unit ball holds a nonzero integer vector.  That
vector's entries are weights from which an explicit second interior lattice
point is assembled.  This module finds the vector, builds the point, and
verifies every claimed property before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from .bounds import partition_matrix, partition_ratio, sort_barycentric
from .exact import adjugate_int, rat_matrix
from .points import classify_point
from .simplex import LatticeSimplex, barycentric_of, check_barycentric

Vector = tuple[int, ...]
RatVector = tuple[Fraction, ...]


def minkowski_solve(matrix: Sequence[Sequence[Fraction | int]]) -> Vector:
    """A nonzero integer vector x with ||A x||_inf < 1, for |det A| < 1.

    Minkowski's theorem guarantees one exists: the preimage of the open
    unit cube is a symmetric convex body of volume 2^n / |det A| > 2^n.
    The search space is the box spanned by the absolute row sums of the
    inverse, which contains every solution; the determinant and the
    inverse both come from one fraction-free adjugate of the integer rows.
    Among all solutions, signs are normalized to a positive leading nonzero
    entry and the vector minimizing (reversed absolute entries, entries) is
    returned, so the result is deterministic and the trailing entries are
    as small as the solution set allows.
    """
    a = rat_matrix(matrix)
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        raise ValueError("matrix must be square and nonempty")
    # clear denominators once: A = diag(scales)^-1 B with B an integer
    # matrix, so every row test below is pure integer work
    scales = [lcm(*(entry.denominator for entry in row)) for row in a]
    rows = [
        [entry.numerator * (scale // entry.denominator) for entry in row]
        for row, scale in zip(a, scales)
    ]
    det, adjugate = adjugate_int(rows)  # raises on a singular matrix
    denominator = prod(scales)  # det A = det B / denominator
    if abs(det) >= denominator:
        raise ValueError(f"|det| = {Fraction(abs(det), denominator)} is not below 1")
    # A^-1 = adj(B) diag(scales) / det B; box_i = ceil(row sum of |A^-1|) - 1
    box = [
        -(-sum(abs(x) * scale for x, scale in zip(adj, scales)) // abs(det)) - 1
        for adj in adjugate
    ]
    # depth-first over the box, last coordinate outermost; when picking
    # coordinate k, each row confines it to an interval once the free
    # coordinates below k are granted their maximal swing reach[i][k]
    reach = [
        [sum(abs(c) * b for c, b in zip(coeffs[:k], box)) for k in range(n + 1)]
        for coeffs in rows
    ]
    solutions = []
    stack = [(n, [0] * n)]
    while stack:
        k, values = stack.pop()
        if k == 0:
            if any(values):
                solutions.append(tuple(values))
            continue
        k -= 1
        lo, hi = -box[k], box[k]
        for coeffs, scale, spans in zip(rows, scales, reach):
            partial = sum(c * x for c, x in zip(coeffs[k + 1 :], values[k + 1 :]))
            margin = scale + spans[k] - 1  # |partial + c * v| <= margin
            c = coeffs[k]
            if c > 0:
                lo = max(lo, -((margin + partial) // c))
                hi = min(hi, (margin - partial) // c)
            elif c < 0:
                lo = max(lo, -((margin - partial) // -c))
                hi = min(hi, (margin + partial) // -c)
            elif abs(partial) > margin:
                lo = hi + 1
            if lo > hi:
                break
        for value in range(lo, hi + 1):
            values[k] = value
            stack.append((k, values.copy()))
        values[k] = 0
    if not solutions:
        raise AssertionError("no short integer vector found; the search box is wrong")

    def normalize(x: Vector) -> Vector:
        lead = next(v for v in x if v)
        return x if lead > 0 else tuple(-v for v in x)

    normalized = {normalize(x) for x in solutions}
    return min(normalized, key=lambda x: (tuple(abs(v) for v in reversed(x)), x))


@dataclass(frozen=True)
class AdmissibleWeights:
    """Integer weights certifying a violated partition.

    ``weights[k]`` pairs with the k-th product-side coordinate; ``total``
    is their sum and satisfies |weights[k] / coords[j_k] - total| < 1.
    """

    weights: tuple[int, ...]
    total: int


def find_admissible_weights(
    coords: Sequence[Fraction | int], sum_side: Sequence[int]
) -> AdmissibleWeights | None:
    """Weights for a partition, or None when its inequality holds.

    Solves the partition's system matrix for a short integer vector and
    orients it so the total is positive.  The total can never be zero: the
    last system row forces |sum(weights) - total| < 1, so a zero total
    would force all weights to vanish too.
    """
    bary = check_barycentric(coords)
    if partition_ratio(bary, sum_side) >= 1:
        return None
    system = partition_matrix(bary, sum_side)
    solution = minkowski_solve(system)
    if solution[-1] < 0:
        solution = tuple(-v for v in solution)
    weights, total = solution[:-1], solution[-1]
    if total <= 0 or sum(weights) != total:
        raise AssertionError(f"weights {weights} do not sum to a positive total {total}")
    product_side = [j for j in range(len(bary)) if j not in set(sum_side)]
    for weight, j in zip(weights, product_side):
        if abs(weight - total * bary[j]) >= bary[j]:
            raise AssertionError(f"weight {weight} drifts too far from {total} * {bary[j]}")
    return AdmissibleWeights(weights, total)


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
    simplex: LatticeSimplex, point: Sequence[int]
) -> SecondPointCertificate | None:
    """A second interior lattice point, certified, or None.

    Scans the partitions of the vertex indexes (sum sides as bitmasks over
    positions sorted by descending barycentric coordinate, smallest mask
    first) for one whose sum/product ratio drops below 1.  The first hit
    is turned into an explicit lattice point

        q = (total + 1) * start - total * anchor

    which is verified to be integral, distinct from the start, and
    interior before a certificate is returned.  None means every
    partition's inequality holds, which is exactly the situation where no
    construction of this shape exists.
    """
    start = tuple(int(x) for x in point)
    if classify_point(simplex, start).kind != "interior":
        raise ValueError(f"start point {start} is not an interior lattice point")
    bary = barycentric_of(simplex, start)
    sorted_coords = sort_barycentric(bary)
    n = len(bary)
    for mask in range(1, 2**n - 1):
        positions = [k for k in range(n) if mask >> k & 1]
        if partition_ratio(sorted_coords.coords, positions) >= 1:
            continue
        admissible = find_admissible_weights(sorted_coords.coords, positions)
        if admissible is None:
            raise AssertionError(f"partition {positions} fails but has no admissible weights")
        complement = [k for k in range(n) if not mask >> k & 1]
        weight_order = tuple(sorted_coords.order[k] for k in complement)
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
            sum_side=tuple(sorted(sorted_coords.order[k] for k in positions)),
            product_side=tuple(sorted(weight_order)),
            ratio=partition_ratio(bary, [sorted_coords.order[k] for k in positions]),
            weights=admissible.weights,
            weight_order=weight_order,
            total=total,
            anchor=anchor,
            start=start,
            point=found,
        )
    return None
