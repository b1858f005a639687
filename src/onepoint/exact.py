"""Exact linear algebra on small dense integer matrices.

Everything in this package ultimately reduces to two integer
eliminations, and both must be exact: the adjugate with its determinant,
and the gcd row echelon form.  Matrices are immutable tuples of tuples of
plain Python ints; this module holds no rational and no floating point.

The adjugate uses fraction-free Bareiss elimination in Gauss-Jordan
form; callers holding rational rows clear denominators first.  The gcd
column step is the one route to lattice questions: the echelon runs it
column by column, and the Hermite normal form runs the echelon on M and
reduces above each pivot; a simplex's face walk runs it along each face,
and is the route to a face's index.  The matrices are small and dense,
so simplicity and auditability win over asymptotics.
"""

from __future__ import annotations

from typing import Iterable, Sequence

IntMatrix = tuple[tuple[int, ...], ...]


class SingularMatrixError(ArithmeticError):
    """Raised when an inverse does not exist."""


def int_matrix(rows: Iterable[Sequence[int]]) -> IntMatrix:
    """Validate and freeze a rectangular integer matrix.

    The one integer check of lattice data: a simplex built from outside
    freezes its vertices here, a certificate and the bounds their point.
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
    swaps flip the sign.  Only n columns per row are in play at a time,
    so each step costs n^2 entries, not 2n^2.  Raises
    :class:`SingularMatrixError` when the matrix is singular.  Entries
    must be plain ints; they are not checked again.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("adjugate needs a square matrix")
    # before step k a row holds A's columns k.. and then the I columns of the rows
    # pivoted so far, in pivot order; A's columns before k are settled (the pivot
    # on the diagonal, zeros off it), and the I column of a row not yet pivoted
    # holds the last pivot in that row alone, so neither is stored
    rows, origin, sign, prev = [list(row) for row in matrix], list(range(n)), 1, 1
    for k in range(n):
        for pivot in range(k, n):
            if rows[pivot][0]:
                break
        else:
            raise SingularMatrixError("matrix is singular")
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            origin[k], origin[pivot] = origin[pivot], origin[k]
            sign = -sign
        p, tail = rows[k][0], rows[k][1:]
        for i in range(n):
            if i != k:
                f = rows[i][0]
                # exact: every entry is a minor of the row-permuted [A | I]; the pivot
                # row's I column enters as prev in its row and 0 in this one
                rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i][1:], tail)]
                rows[i].append(-f)
        tail.append(prev)
        rows[k], prev = tail, p
    # the stored I columns in the order of the input rows they came from
    columns = sorted(range(n), key=origin.__getitem__)
    if sign < 0:
        return -prev, tuple(tuple(-row[j] for j in columns) for row in rows)
    return prev, tuple(tuple(row[j] for j in columns) for row in rows)


def echelon(rows: list[list[int]]) -> list[int]:
    """Bring ``rows`` to a gcd row echelon form, in place, one column step at a time.

    No transform, nothing reduced above a pivot.  Returns the pivot columns, top
    row first: their count is the rank; with independent columns the pivots
    multiply to the gcd of the maximal minors, up to sign.  Entries must be
    plain ints, as :func:`int_matrix` leaves them; they are not checked again.
    """
    pivot_cols: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        if len(pivot_cols) < len(rows) and _column_step(rows, len(pivot_cols), col):
            pivot_cols.append(col)
    return pivot_cols


def _column_step(rows: list[list[int]], r: int, col: int) -> int:
    """Step column ``col`` of the rows from ``r`` on to one gcd pivot in row ``r``: it, or 0."""
    while True:
        # floor division by the smallest entry until it alone is left
        pivot, least = None, 0
        for i in range(r, len(rows)):
            x = abs(rows[i][col])
            if x and (pivot is None or x < least):
                pivot, least = i, x
        if pivot is None:
            return 0
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top, p, dirty = rows[r], rows[r][col], False
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            if f:
                q = f // p
                rows[i] = [x - q * y for x, y in zip(rows[i], top)]
                dirty = dirty or f != q * p
        if not dirty:
            return p


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
