import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onepoint.exact import SingularMatrixError, adjugate_above, col_hnf, eliminate_below, int_matrix
from oracles import (
    col_hermite_with_transform,
    det_int,
    det_rat,
    identity_rat,
    invert_rat,
    mat_mul,
    rank_rat,
    rat_matrix,
    snf_divisors,
    transpose,
)


def cofactor_det(rows):
    # independent route: textbook expansion along the first row
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def square_int_matrices(max_n=4, bound=9, min_n=1):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


@given(square_int_matrices())
def test_det_int_matches_cofactor_expansion(rows):
    assert det_int(rows) == cofactor_det(rows)


def test_det_frozen_values():
    assert det_int([[2, 0], [0, 7]]) == 14
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    assert det_int([]) == 1
    assert det_rat([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == Fraction(1, 6)
    assert det_rat([[Fraction(2, 3)]]) == Fraction(2, 3)


@given(square_int_matrices(max_n=4, bound=6))
def test_det_rat_agrees_with_det_int(rows):
    assert det_rat(rows) == det_int(rows)


def cofactor_adjugate(rows):
    # independent route: transposed cofactors, each a Bareiss minor
    n = len(rows)

    def cofactor(i, j):
        minor = [row[:j] + row[j + 1 :] for k, row in enumerate(rows) if k != i]
        return (-1) ** (i + j) * det_int(minor)

    return tuple(tuple(cofactor(j, i) for j in range(n)) for i in range(n))


def adjugate_int(rows):
    """Determinant and adjugate through both halves of the one elimination."""
    det, pending = eliminate_below(rows)
    return det, adjugate_above(pending)


@given(
    square_int_matrices(max_n=7, bound=3, min_n=0),
    st.sampled_from(("drawn", "zero leading pivot", "singular")),
)
@settings(max_examples=150, deadline=None)
def test_adjugate_int_matches_cofactor_expansion(rows, shape):
    # the below half's determinant, and the above half's adjugate from its steps
    rows = [list(row) for row in rows]
    n = len(rows)
    if n and shape == "zero leading pivot":
        rows[0][0] = 0
    elif n and shape == "singular":
        rows[-1] = [2 * x for x in rows[0]] if n > 1 else [0]
    det = det_int(rows)
    if det == 0:
        with pytest.raises(SingularMatrixError):
            eliminate_below(rows)
        return
    adjugate = cofactor_adjugate(rows)
    assert adjugate_int(rows) == (det, adjugate)
    assert mat_mul(rows, adjugate) == tuple(
        tuple(det if i == j else 0 for j in range(n)) for i in range(n)
    )


def test_adjugate_int_frozen():
    # hull matrix of conv{0, 2e1, 3e2}: the origin vertex puts a zero in the first pivot
    hull = ((0, 2, 0), (0, 0, 3), (1, 1, 1))
    assert adjugate_int(hull) == (6, ((-3, -2, 6), (3, 0, 0), (0, 2, 0)))
    assert adjugate_int([]) == (1, ())
    # one row swap: the sign flips the determinant and every adjugate entry
    assert adjugate_int([[0, 1], [1, 0]]) == (-1, ((0, -1), (-1, 0)))
    with pytest.raises(SingularMatrixError):
        adjugate_int([[1, 2], [2, 4]])
    # the first pivot is 1; the second column has no nonzero entry left below it
    with pytest.raises(SingularMatrixError):
        adjugate_int([[1, 2, 3], [2, 4, 7], [1, 2, 5]])
    with pytest.raises(ValueError):
        adjugate_int([[1, 2]])


def test_int_matrix_rejects_ragged_rows_and_bools():
    with pytest.raises(ValueError):
        int_matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        int_matrix([[True]])


def test_invert_frozen():
    assert invert_rat([[1, 0], [1, 1]]) == (
        (Fraction(1), Fraction(0)),
        (Fraction(-1), Fraction(1)),
    )


@given(square_int_matrices(max_n=4, bound=5))
def test_inverse_multiplies_to_identity(rows):
    if det_int(rows) == 0:
        with pytest.raises(SingularMatrixError):
            invert_rat(rows)
        return
    inv = invert_rat(rows)
    assert mat_mul(rat_matrix(rows), inv) == identity_rat(len(rows))


def test_rank():
    assert rank_rat([[1, 2], [2, 4]]) == 1
    assert rank_rat([[1, 0], [0, 1]]) == 2
    assert rank_rat([[0, 0], [0, 0]]) == 0


def test_snf_frozen():
    assert snf_divisors([[2, 0], [0, 3]]) == (1, 6)
    assert snf_divisors([[-3], [3]]) == (3,)
    assert snf_divisors([[0, 0], [0, 0]]) == ()
    assert snf_divisors([[2, 0], [0, 4]]) == (2, 4)
    assert snf_divisors([[-2, 3, 0], [-2, 0, 7]]) == (1, 1)


@given(square_int_matrices(max_n=4, bound=6))
def test_snf_divisor_chain_and_determinant(rows):
    divisors = snf_divisors(rows)
    assert all(d > 0 for d in divisors)
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0
    d = det_int(rows)
    if d != 0:
        assert len(divisors) == len(rows)
        assert math.prod(divisors) == abs(d)


@given(square_int_matrices(max_n=3, bound=5))
def test_snf_invariant_under_transpose(rows):
    assert snf_divisors(rows) == snf_divisors(transpose(rows))


def rect_int_matrices(bound=7, side=3):
    return st.tuples(st.integers(1, side), st.integers(1, side)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(-bound, bound), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )


def hermite_pivots(h):
    """The pivot row of each nonzero column of a column Hermite form, its shape checked."""
    columns = transpose(h)
    rank = sum(map(any, columns))
    assert not any(map(any, columns[rank:]))  # zero columns last
    pivots = [next(i for i, x in enumerate(column) if x) for column in columns[:rank]]
    # pivot rows increase, so each pivot row is zero right of its pivot
    assert pivots == sorted(set(pivots))
    for k, i in enumerate(pivots):
        # pivots positive, entries left of each pivot reduced into [0, pivot)
        assert columns[k][i] > 0
        assert all(0 <= column[i] < columns[k][i] for column in columns[:k])
    return pivots


@given(rect_int_matrices())
def test_col_hnf_is_canonical(rows):
    # test_col_hnf_reproduces holds the form to the oracle's; here its shape
    h = col_hnf(rows)
    hermite_pivots(h)
    # a second pass changes nothing
    assert col_hnf(h) == h


def test_col_hnf_frozen():
    # a zero first row, and two negative pivots made positive before reducing left of them
    for rows, form in (([[0, 0], [-2, 0], [1, -3]], ((0, 0), (2, 0), (2, 3))),
                       ([[0, 0, 0], [-2, 6, 3]], ((0, 0, 0), (1, 0, 0)))):
        assert col_hnf(rows) == form
        h, v = col_hermite_with_transform(rows)
        assert h == form == mat_mul(rows, v)
        assert abs(det_int(v)) == 1
    # rows of unequal lengths are refused, not cut to the shortest
    for ragged in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError):
            col_hnf(ragged)
    assert col_hnf([]) == col_hnf([[], []]) == ()


@given(rect_int_matrices())
def test_col_hnf_reproduces(rows):
    h, v = col_hermite_with_transform(rows)
    assert h == mat_mul(rows, v)
    assert abs(det_int(v)) == 1
    assert col_hnf(rows) == h


@given(square_int_matrices(max_n=3, bound=4), st.integers(0, 5))
@settings(max_examples=60)
def test_col_hnf_invariant_under_column_operations(rows, mix):
    # mixing columns by elementary moves cannot change the normal form
    h = col_hnf(rows)
    mixed = [list(c) for c in transpose(rows)]
    n = len(mixed)
    for k in range(mix):
        i, j = k % n, (k + 1) % n
        if i != j:
            mixed[i] = [a + b for a, b in zip(mixed[i], mixed[j])]
    h2 = col_hnf(transpose(mixed))
    assert h == h2


@given(
    rect_int_matrices(bound=9, side=6),
    st.sampled_from(("drawn", "zero", "rank-deficient", "negative")),
)
@settings(max_examples=200)
def test_col_hnf_pivots_give_rank_and_pivot_product(rows, shape):
    # tall, wide and square shapes; the rank comes from the rational oracle
    rows = [list(row) for row in rows]
    if shape == "zero":
        rows = [[0] * len(row) for row in rows]
    elif shape == "rank-deficient":
        rows = [row + [row[0] - 2 * row[-1]] for row in rows]
    elif shape == "negative":
        rows = [[-abs(x) for x in row] for row in rows]
    h = col_hnf(rows)
    pivots = hermite_pivots(h)
    assert len(pivots) == rank_rat(rows)
    # the columns restricted to the pivot rows span a sublattice of Z^rank whose index,
    # the product of the Smith divisors, is the product of the pivots
    index = math.prod(snf_divisors([rows[i] for i in pivots]))
    assert math.prod(h[i][k] for k, i in enumerate(pivots)) == index
