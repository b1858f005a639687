"""Exact linear algebra on small dense integer matrices.

Everything in this package ultimately reduces to two integer
eliminations, and both must be exact: |det| times the inverse, and
the gcd column step.  Matrices are immutable tuples of tuples of
plain Python ints; this module holds no rational and no floating point.

The inverse uses fraction-free Bareiss elimination in Gauss-Jordan
form, split at each pivot: the half below gives |det|, and the half
above, replayed from its steps, |det| times the inverse.  Callers
holding rational rows clear denominators first.  The gcd column step
is the one route to lattice questions: the Hermite normal form runs it
on each column of M's transpose and reduces above each pivot as it is
found; a simplex's face walk runs it along each face, and is the route
to a face's index.  The matrices are small and dense, so simplicity and
auditability win over asymptotics.
"""

from __future__ import annotations

from typing import Iterable, Sequence

IntMatrix = tuple[tuple[int, ...], ...]


class SingularMatrixError(ArithmeticError):
    """Raised on a singular matrix, or on a face whose edges are dependent."""


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


def eliminate_below(matrix: Sequence[Sequence[int]]) -> tuple[int, tuple]:
    """|det| of a square integer matrix, and the steps :func:`adjugate_above` finishes.

    Fraction-free Gauss-Jordan on [A | I], each step on the rows below its
    pivot alone: it divides exactly by the previous pivot, so every entry
    stays an integer, and the last pivot is, up to sign, the determinant.
    Raises :class:`SingularMatrixError` when the matrix is singular.
    Entries must be plain ints; they are not checked again.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("elimination needs a square matrix")
    # before step k a row below the pivots holds A's columns k.. and then the I columns of the
    # rows pivoted so far, in pivot order: A's columns before k are zeros, and its own I column
    # holds the last pivot, so neither is stored and a step costs n entries per row
    rows, origin, prev, steps = [list(row) for row in matrix], list(range(n)), 1, []
    for k in range(n):
        for pivot in range(k, n):
            if rows[pivot][0]:
                break
        else:
            raise SingularMatrixError("matrix is singular")
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            origin[k], origin[pivot] = origin[pivot], origin[k]
        p, tail = rows[k][0], rows[k][1:]
        for i in range(k + 1, n):
            f = rows[i][0]
            # exact: every entry is a minor of the row-permuted [A | I]; the pivot
            # row's I column enters as prev in its row and 0 in this one
            rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i][1:], tail)]
            rows[i].append(-f)
        steps.append((p, tail))
        prev = p
    # the stored I columns in the order of the input rows they came from
    return abs(prev), (steps, sorted(range(n), key=origin.__getitem__))


def adjugate_above(pending: tuple) -> IntMatrix:
    """|det| times the inverse, from the steps of :func:`eliminate_below`.

    Each step runs again on the rows above its pivot, in order, which
    finishes the one Gauss-Jordan pass over every row: the last pivot
    times the inverse, so a negative last pivot negates every entry.
    """
    steps, columns = pending
    rows, prev = [], 1
    for p, tail in steps:
        for i, row in enumerate(rows):
            f = row[0]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(row[1:], tail)]
            rows[i].append(-f)
        rows.append([*tail, prev])
        prev = p
    if prev < 0:
        return tuple(tuple(-row[j] for j in columns) for row in rows)
    return tuple(tuple(row[j] for j in columns) for row in rows)


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


def col_hnf(matrix: Sequence[Sequence[int]]) -> IntMatrix:
    """Column-style Hermite normal form: the canonical representative of the right GL_n(Z) orbit.

    The row form of the transpose, read back transposed: one gcd column step
    per column, until every row holds a pivot.  A pivot row is final once
    found, as later steps touch only the rows below it, so its pivot is made
    positive and the entries above it reduced into [0, pivot) at once, with
    no transform.  Ragged rows are refused; ints are not checked again.
    """
    # strict: rows of unequal lengths are refused, not cut to the shortest
    rows, r = [list(row) for row in zip(*matrix, strict=True)], 0
    for col in range(len(rows[0]) if rows else 0):
        if r == len(rows):
            break  # every row holds a pivot, so no later column finds one
        if p := _column_step(rows, r, col):
            if p < 0:
                rows[r], p = [-x for x in rows[r]], -p
            top = rows[r]
            for i in range(r):
                if q := rows[i][col] // p:
                    rows[i] = [x - q * y for x, y in zip(rows[i], top)]
            r += 1
    return tuple(zip(*rows))
