"""Rational eliminations kept as independent references for the tests.

The package runs every elimination on integers (Bareiss determinants and
the fraction-free adjugate).  These textbook routes over ``Fraction`` are
the second computation the tests compare against: brute-force Minkowski
boxes, the partition determinant identity, the barycentric functionals as
a scaled inverse, and affine independence as a rank.
"""

from fractions import Fraction
from math import lcm

from onepoint.exact import SingularMatrixError, det_int, rat_matrix, transpose


def identity_rat(n):
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    cols = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def det_rat(matrix):
    """Determinant of a square rational matrix: clear each row, then Bareiss."""
    m = rat_matrix(matrix)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    scale = Fraction(1)
    int_rows = []
    for row in m:
        mult = lcm(*(x.denominator for x in row)) if row else 1
        scale *= mult
        int_rows.append([int(x * mult) for x in row])
    return Fraction(det_int(int_rows), 1) / scale


def invert_rat(matrix):
    """Exact inverse of a square rational matrix by Gauss-Jordan elimination."""
    m = rat_matrix(matrix)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inversion needs a square matrix")
    aug = [list(row) + [Fraction(i == j) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def rank_rat(matrix):
    """Rank of a rational matrix by Gaussian elimination."""
    rows = [list(row) for row in rat_matrix(matrix)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank
