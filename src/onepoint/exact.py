"""Exact linear algebra on small dense integer matrices.

Everything in this package ultimately reduces to two integer
eliminations, and both must be exact: the adjugate with its determinant,
and the Hermite normal form.  Matrices are immutable tuples of tuples of
plain Python ints; this module holds no rational and no floating point.

The adjugate uses fraction-free Bareiss elimination in Gauss-Jordan
form; callers holding rational rows clear denominators first.  The
Hermite form uses repeated gcd row reduction and is the one route to
lattice questions: rank, the index of a sublattice in its span, and
canonical forms.  The matrices are small and dense, so simplicity and
auditability win over asymptotics.
"""

from __future__ import annotations

from typing import Iterable, Sequence

IntMatrix = tuple[tuple[int, ...], ...]


class SingularMatrixError(ArithmeticError):
    """Raised when an inverse does not exist."""


def int_matrix(rows: Iterable[Sequence[int]]) -> IntMatrix:
    """Validate and freeze a rectangular integer matrix.

    The package's one integer check: every simplex freezes its vertices
    here, and every elimination its input.
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
    return tuple(zip(*matrix)) if matrix else ()


def mat_vec(a: Sequence[Sequence], v: Sequence) -> tuple:
    if a and len(a[0]) != len(v):
        raise ValueError("inner dimensions do not match")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def adjugate_int(matrix: Sequence[Sequence[int]]) -> tuple[int, IntMatrix]:
    """Determinant and adjugate of a square integer matrix.

    Fraction-free Gauss-Jordan on [A | I]: each step divides exactly by
    the previous pivot, so every entry stays an integer, and at the end
    the left block is the determinant of the row-permuted matrix times I
    while the right block is that determinant times the inverse.  Row
    swaps flip the sign.  Raises :class:`SingularMatrixError` when the
    matrix is singular.
    """
    m = int_matrix(matrix)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("adjugate needs a square matrix")
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if pivot is None:
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
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in aug)


def row_hnf(matrix: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (h, u) with h = u @ matrix, u unimodular, h in row echelon form
    with positive pivots, zeros below each pivot, and entries above reduced
    into [0, pivot).  This form is the unique canonical representative of
    the left GL_n(Z) orbit of the input.
    """
    m = int_matrix(matrix)
    nrows = len(m)
    h = [list(row) for row in m]
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        while True:
            pivot = None
            for i in range(r, nrows):
                if h[i][col] != 0 and (pivot is None or abs(h[i][col]) < abs(h[pivot][col])):
                    pivot = i
            if pivot is None:
                break
            h[r], h[pivot] = h[pivot], h[r]
            u[r], u[pivot] = u[pivot], u[r]
            dirty = False
            for i in range(r + 1, nrows):
                if h[i][col] != 0:
                    q = h[i][col] // h[r][col]
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    dirty = dirty or h[i][col] != 0
            if not dirty:
                break
        if r < nrows and h[r][col] != 0:
            if h[r][col] < 0:
                h[r] = [-x for x in h[r]]
                u[r] = [-x for x in u[r]]
            for i in range(r):
                q = h[i][col] // h[r][col]
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            r += 1
            if r == nrows:
                break
    return tuple(tuple(row) for row in h), tuple(tuple(row) for row in u)


def col_hnf(matrix: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite normal form: returns (h, v) with h = matrix @ v."""
    ht, ut = row_hnf(transpose(int_matrix(matrix)))
    return transpose(ht), transpose(ut)
