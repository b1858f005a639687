"""Exact linear algebra on small dense integer matrices.

Everything in this package ultimately reduces to two integer
eliminations, and both must be exact: the adjugate with its determinant,
and the gcd row echelon form.  Matrices are immutable tuples of tuples of
plain Python ints; this module holds no rational and no floating point.

The adjugate uses fraction-free Bareiss elimination in Gauss-Jordan
form; callers holding rational rows clear denominators first.  The
echelon uses repeated gcd row reduction and is the one route to lattice
questions: its pivots alone give rank and the index of a sublattice in
its span, and the Hermite normal form runs it on M itself and reduces
above each pivot for canonical forms.  The matrices are small and dense,
so simplicity and auditability win over asymptotics.
"""

from __future__ import annotations

from typing import Iterable, Sequence

IntMatrix = tuple[tuple[int, ...], ...]


class SingularMatrixError(ArithmeticError):
    """Raised when an inverse does not exist."""


def int_matrix(rows: Iterable[Sequence[int]]) -> IntMatrix:
    """Validate and freeze a rectangular integer matrix.

    The package's one integer check: a simplex built from outside freezes
    its vertices here, and a certificate its start point.
    """
    frozen = tuple(map(tuple, rows))
    for row in frozen:
        for x in row:
            # bool is an int subclass; keep it out of lattice data
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValueError(f"expected an exact integer, got {x!r}")
    if frozen and any(len(row) != len(frozen[0]) for row in frozen):
        raise ValueError("matrix rows have unequal lengths")
    return frozen


def transpose(matrix: Sequence[Sequence]) -> tuple[tuple, ...]:
    # strict: rows of unequal lengths are refused, not cut to the shortest
    return tuple(zip(*matrix, strict=True)) if matrix else ()


def adjugate_int(matrix: Sequence[Sequence[int]]) -> tuple[int, IntMatrix]:
    """Determinant and adjugate of a square integer matrix.

    Fraction-free Gauss-Jordan on [A | I]: each step divides exactly by
    the previous pivot, so every entry stays an integer, and at the end
    the left block is the determinant of the row-permuted matrix times I
    while the right block is that determinant times the inverse.  Row
    swaps flip the sign.  Raises :class:`SingularMatrixError` when the
    matrix is singular.  Entries must be plain ints; they are not checked again.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("adjugate needs a square matrix")
    aug = [[*row, *(0,) * i, 1, *(0,) * (n - 1 - i)] for i, row in enumerate(matrix)]
    sign, prev = 1, 1
    for k in range(n):
        for pivot in range(k, n):
            if aug[pivot][k]:
                break
        else:
            raise SingularMatrixError("matrix is singular")
        if pivot != k:
            aug[k], aug[pivot] = aug[pivot], aug[k]
            sign = -sign
        top, p = aug[k], aug[k][k]
        for i in range(n):
            if i != k:
                row, f = aug[i], aug[i][k]
                # exact: every entry is a minor of the row-permuted [A | I]
                aug[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    if sign < 0:
        return -prev, tuple(tuple(-x for x in row[n:]) for row in aug)
    return prev, tuple(tuple(row[n:]) for row in aug)


def echelon(rows: list[list[int]]) -> list[int]:
    """Bring ``rows`` to a gcd row echelon form, in place.

    No transform, nothing reduced above a pivot.  Returns the pivot columns, top
    row first: their count is the rank; with independent columns the pivots
    multiply to the gcd of the maximal minors, up to sign.  Entries must be
    plain ints, as :func:`int_matrix` leaves them; they are not checked again.
    """
    nrows, r, pivot_cols = len(rows), 0, []
    for col in range(len(rows[0]) if rows else 0):
        while r < nrows:
            # floor division by the smallest entry until it alone is left
            pivot, least = None, 0
            for i in range(r, nrows):
                x = abs(rows[i][col])
                if x and (pivot is None or x < least):
                    pivot, least = i, x
            if pivot is None:
                break
            rows[r], rows[pivot] = rows[pivot], rows[r]
            top, p, dirty = rows[r], rows[r][col], False
            for i in range(r + 1, nrows):
                f = rows[i][col]
                if f:
                    q = f // p
                    rows[i] = [x - q * y for x, y in zip(rows[i], top)]
                    dirty = dirty or f != q * p
            if not dirty:
                pivot_cols.append(col)
                r += 1
                break
    return pivot_cols


def row_hnf(matrix: Sequence[Sequence[int]]) -> IntMatrix:
    """Row-style Hermite normal form: the canonical representative of the left GL_n(Z) orbit.

    Row echelon form with positive pivots, zeros below each pivot, and
    entries above reduced into [0, pivot): :func:`echelon` on the matrix,
    then reduction above each pivot.  No transform is built.  Entries must
    be plain ints of equal-length rows; they are not checked again.
    """
    rows = [list(row) for row in matrix]
    for r, col in enumerate(echelon(rows)):
        if rows[r][col] < 0:
            rows[r] = [-x for x in rows[r]]
        top, p = rows[r], rows[r][col]
        for i in range(r):
            q = rows[i][col] // p
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], top)]
    return tuple(map(tuple, rows))


def col_hnf(matrix: Sequence[Sequence[int]]) -> IntMatrix:
    """Column-style Hermite normal form, reached by column operations; ragged rows are refused."""
    return transpose(row_hnf(transpose(matrix)))
