"""Exact linear algebra on small dense integer and rational matrices.

Everything in this package ultimately reduces to a handful of matrix
primitives, and all of them must be exact: determinants, adjugates, Smith
normal form divisors, and Hermite normal forms.  Matrices are immutable
tuples of tuples, integers are plain Python ints, rationals are
``fractions.Fraction``.  There is no floating point anywhere.

Every elimination runs on integers.  Determinants and adjugates use
fraction-free Bareiss elimination (in Gauss-Jordan form for the
adjugate); callers holding rational rows clear denominators first.
Smith normal form uses repeated gcd row/column reduction.  The matrices
are small and dense, so simplicity and auditability win over
asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

IntMatrix = tuple[tuple[int, ...], ...]
RatMatrix = tuple[tuple[Fraction, ...], ...]
IntVector = tuple[int, ...]
RatVector = tuple[Fraction, ...]


class SingularMatrixError(ArithmeticError):
    """Raised when an inverse does not exist."""


def _check_int(value: object) -> int:
    # bool is an int subclass; keep it out of lattice data
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an exact integer, got {value!r}")
    return value


def int_matrix(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Validate and freeze a rectangular integer matrix."""
    frozen = tuple(tuple(_check_int(x) for x in row) for row in rows)
    if frozen and any(len(row) != len(frozen[0]) for row in frozen):
        raise ValueError("matrix rows have unequal lengths")
    return frozen

def rat_matrix(rows: Sequence[Sequence[Fraction | int]]) -> RatMatrix:
    """Validate and freeze a rectangular rational matrix."""
    frozen = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if frozen and any(len(row) != len(frozen[0]) for row in frozen):
        raise ValueError("matrix rows have unequal lengths")
    return frozen


def transpose(matrix: Sequence[Sequence]) -> tuple[tuple, ...]:
    return tuple(zip(*matrix)) if matrix else ()


def mat_vec(a: Sequence[Sequence], v: Sequence) -> tuple:
    if a and len(a[0]) != len(v):
        raise ValueError("inner dimensions do not match")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    Fraction-free: every intermediate value is an integer, and the single
    division per step is exact.  Row swaps provide pivoting, flipping the
    sign.  An empty matrix has determinant 1.
    """
    m = int_matrix(matrix)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact by the Bareiss divisibility theorem
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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


def snf_divisors(matrix: Sequence[Sequence[int]]) -> IntVector:
    """Smith normal form divisors of an integer matrix.

    Returns the positive diagonal entries (d_1, ..., d_r) of the Smith
    normal form, each dividing the next, with r the rank.  Computed by
    repeated gcd row/column reduction: shrink a minimal pivot until it
    clears its row and column, fix up divisibility of the remaining block,
    recurse on the block.
    """
    m = int_matrix(matrix)
    a = [list(row) for row in m]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    divisors: list[int] = []
    t = 0
    while t < min(nrows, ncols):
        # locate a minimal-magnitude nonzero entry to pivot on
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        reduced = True
        for i in range(t + 1, nrows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if a[i][t] != 0:
                    reduced = False
        for j in range(t + 1, ncols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                for row in a:
                    row[j] -= q * row[t]
                if a[t][j] != 0:
                    reduced = False
        if not reduced:
            continue
        offender = next(
            (i for i in range(t + 1, nrows)
             if any(a[i][j] % a[t][t] for j in range(t + 1, ncols))),
            None,
        )
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        divisors.append(abs(a[t][t]))
        t += 1
    return tuple(divisors)


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
