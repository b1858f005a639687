import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onepoint.exact import (
    SingularMatrixError,
    adjugate_int,
    col_hnf,
    echelon,
    int_matrix,
    row_hnf,
    transpose,
)
from oracles import (
    col_hermite_with_transform,
    det_int,
    det_rat,
    hermite_with_transform,
    identity_rat,
    invert_rat,
    mat_mul,
    rank_rat,
    rat_matrix,
    snf_divisors,
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


def square_int_matrices(max_n=4, bound=9):
    return st.integers(1, max_n).flatmap(
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


@given(
    square_int_matrices(max_n=7, bound=3),
    st.sampled_from(("drawn", "zero leading pivot", "singular")),
)
@settings(max_examples=150, deadline=None)
def test_adjugate_int_matches_cofactor_expansion(rows, shape):
    rows = [list(row) for row in rows]
    n = len(rows)
    if shape == "zero leading pivot":
        rows[0][0] = 0
    elif shape == "singular":
        rows[-1] = [2 * x for x in rows[0]] if n > 1 else [0]
    det = det_int(rows)
    if det == 0:
        with pytest.raises(SingularMatrixError):
            adjugate_int(rows)
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


@given(rect_int_matrices())
def test_row_hnf_reproduces_and_is_canonical(rows):
    # the oracle's extended-gcd route reaches h by a unimodular u, and the package agrees
    h, u = hermite_with_transform(rows)
    assert h == mat_mul(u, rows)
    assert abs(det_int(u)) == 1
    assert row_hnf(rows) == h
    # a second pass changes nothing
    assert row_hnf(h) == h
    # pivots positive, zeros below, entries above reduced
    n = len(h[0]) if h else 0
    seen = -1
    for row in h:
        cols = [j for j in range(n) if row[j] != 0]
        if not cols:
            continue
        pivot = cols[0]
        assert pivot > seen
        assert row[pivot] > 0
        seen = pivot


def test_row_hnf_frozen():
    # a zero first column, and two negative pivots made positive before reducing above them
    for rows, form in (([[0, -2, 1], [0, 0, -3]], ((0, 2, 2), (0, 0, 3))),
                       ([[0, -2], [0, 6], [0, 3]], ((0, 1), (0, 0), (0, 0)))):
        assert row_hnf(rows) == form
        h, u = hermite_with_transform(rows)
        assert h == form == mat_mul(u, rows)
        assert abs(det_int(u)) == 1


@given(rect_int_matrices())
def test_col_hnf_reproduces(rows):
    h, v = col_hermite_with_transform(rows)
    assert h == mat_mul(rows, v)
    assert abs(det_int(v)) == 1
    assert col_hnf(rows) == h


@given(square_int_matrices(max_n=3, bound=4), st.integers(0, 5))
@settings(max_examples=60)
def test_row_hnf_invariant_under_row_operations(rows, mix):
    # shuffling rows by elementary moves cannot change the normal form
    h = row_hnf(rows)
    mixed = [list(r) for r in rows]
    n = len(mixed)
    for k in range(mix):
        i, j = k % n, (k + 1) % n
        if i != j:
            mixed[i] = [a + b for a, b in zip(mixed[i], mixed[j])]
    h2 = row_hnf(mixed)
    assert h == h2


@given(
    rect_int_matrices(bound=9, side=6),
    st.sampled_from(("drawn", "zero", "rank-deficient", "negative")),
)
@settings(max_examples=200)
def test_echelon_pivots_give_rank_and_hermite_pivot_product(rows, shape):
    # tall, wide and square shapes; the rank comes from the rational oracle
    rows = [list(row) for row in rows]
    if shape == "zero":
        rows = [[0] * len(row) for row in rows]
    elif shape == "rank-deficient":
        rows.append([a - 2 * b for a, b in zip(rows[0], rows[-1])])
    elif shape == "negative":
        rows = [[-abs(x) for x in row] for row in rows]
    reduced = [list(row) for row in rows]
    cols = echelon(reduced)
    pivots = [reduced[r][c] for r, c in enumerate(cols)]
    h = row_hnf(rows)
    hermite = [next(x for x in row if x) for row in h if any(row)]
    assert len(pivots) == rank_rat(rows) == len(hermite)
    assert abs(math.prod(pivots)) == math.prod(hermite)
    # an echelon: pivot columns increase, zeros below each pivot, zero rows last
    assert cols == sorted(set(cols))
    for r, c in enumerate(cols):
        assert reduced[r][c] != 0 and all(row[c] == 0 for row in reduced[r + 1 :])
    assert not any(any(row) for row in reduced[len(cols) :])
