"""Brute-force interior census, independent of the onepoint package.

Each barycentric coordinate of x, times the hull determinant, is the
determinant of the hull matrix with that vertex's column replaced by
(x, 1).  That determinant is affine in x, so its coefficients come from
evaluating it at the origin and at the unit vectors.  A lattice point is
interior exactly when every one of these forms has the sign of the hull
determinant.  The census walks the whole vertex bounding box point by
point: no interval solving, no shared code with the package's scans.
"""

from __future__ import annotations

import itertools

Vector = tuple[int, ...]


def det(matrix: list[list[int]]) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign, previous = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // previous
        previous = m[k][k]
    return sign * m[n - 1][n - 1]


def _hull_with(vertices: list[Vector], column: int, point: Vector) -> list[list[int]]:
    d = len(point)
    cols = [list(v) + [1] for v in vertices]
    cols[column] = list(point) + [1]
    return [[cols[c][r] for c in range(d + 1)] for r in range(d + 1)]


def interior_forms(vertices: list[Vector]) -> list[tuple[tuple[int, ...], int]]:
    """Affine forms (coeffs, const), all positive exactly on the interior."""
    d = len(vertices[0])
    if len(vertices) != d + 1:
        raise ValueError("need dim + 1 vertices")
    sign = 1 if det(_hull_with(vertices, 0, vertices[0])) > 0 else -1
    origin = (0,) * d
    forms = []
    for i in range(d + 1):
        const = det(_hull_with(vertices, i, origin))
        coeffs = tuple(
            det(_hull_with(vertices, i, tuple(int(c == k) for c in range(d)))) - const
            for k in range(d)
        )
        forms.append((tuple(sign * c for c in coeffs), sign * const))
    return forms


def is_interior(forms: list[tuple[tuple[int, ...], int]], point: Vector) -> bool:
    return all(sum(c * x for c, x in zip(coeffs, point)) + const > 0 for coeffs, const in forms)


def census(vertices: list[Vector]) -> list[Vector]:
    """Every interior lattice point, lexicographically sorted, by a full-box walk."""
    forms = interior_forms(vertices)
    box = [
        range(min(v[c] for v in vertices), max(v[c] for v in vertices) + 1)
        for c in range(len(vertices[0]))
    ]
    return [p for p in itertools.product(*box) if is_interior(forms, p)]


def hull_volume_times_factorial(vertices: list[Vector]) -> int:
    """|det| of the edge matrix: d! times the Euclidean volume."""
    base = vertices[0]
    return abs(det([[x - b for x, b in zip(v, base)] for v in vertices[1:]]))
