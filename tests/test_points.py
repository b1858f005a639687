from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onepoint as op


ZPW2 = op.LatticeSimplex(((0, 0), (2, 0), (0, 3)))
ZPW3 = op.LatticeSimplex(((0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 7)))
WIDE = op.LatticeSimplex(((0, 0), (7, 0), (0, 2)))


def test_classify_point():
    assert op.classify_point(ZPW2, (1, 1)) == op.PointClass("interior", None)
    assert op.classify_point(ZPW2, (1, 0)) == op.PointClass("boundary", (2,))
    assert op.classify_point(ZPW2, (0, 0)) == op.PointClass("boundary", (1, 2))
    assert op.classify_point(ZPW2, (5, 5)) == op.PointClass("outside", None)


def test_census_frozen():
    assert op.enumerate_interior(ZPW3).points == ((1, 1, 1),)
    assert op.enumerate_interior(WIDE).points == ((1, 1), (2, 1), (3, 1))
    empty = op.LatticeSimplex(((0, 0), (1, 0), (0, 1)))
    assert op.enumerate_interior(empty).points == ()
    assert op.enumerate_interior(WIDE).scanned_box == ((0, 7), (0, 2))


def test_census_is_lexicographically_sorted():
    big = op.LatticeSimplex(((0, 0), (6, 0), (0, 6)))
    points = op.enumerate_interior(big).points
    assert points == tuple(sorted(points))
    assert len(points) == 10


def test_count_face_points_frozen():
    small = op.LatticeSimplex(((0, 0), (2, 0), (0, 1)))
    assert op.count_face_points(small, ()) == 4
    assert op.count_face_points(small, (2,)) == 3
    assert op.count_face_points(ZPW2, ()) == 7
    assert op.count_face_points(ZPW3, ()) == 24
    with pytest.raises(ValueError):
        op.count_face_points(small, (0, 1, 2))
    with pytest.raises(ValueError):
        op.count_face_points(small, (5,))


def test_is_onepoint():
    assert op.is_onepoint(ZPW2) == (1, 1)
    assert op.is_onepoint(WIDE) is None
    assert op.is_onepoint(op.LatticeSimplex(((0, 0), (1, 0), (0, 1)))) is None


def test_cap_refusal():
    with pytest.raises(op.EnumerationCapError) as err:
        op.enumerate_interior(ZPW3, 10)
    assert err.value.cap == 10
    assert err.value.required == 96
    assert "96 candidate points" in str(err.value)
    # past Python's int-to-str digit limit the count prints as a power of two
    side = 10**1500
    huge = op.LatticeSimplex(((0, 0, 0), (side, 0, 0), (0, side, 0), (0, 0, side)))
    with pytest.raises(op.EnumerationCapError) as err:
        op.enumerate_interior(huge)
    assert err.value.required == (side + 1) ** 3
    assert f"at least 2^{3 * side.bit_length() - 1} candidate points" in str(err.value)


def test_blichfeldt_frozen():
    tri = op.LatticeSimplex(((0, 0), (3, 0), (0, 3)))
    check = op.blichfeldt_check(tri, 10)
    assert check == op.BlichfeldtCheck(2, Fraction(9, 2), 10, Fraction(1), True)
    small = op.LatticeSimplex(((0, 0), (2, 0), (0, 1)))
    assert op.blichfeldt_check(small, 4).slack == 0
    segment = op.LatticeSimplex(((0,), (2,)))
    assert op.blichfeldt_check(segment, 3).slack == 0
    with pytest.raises(ValueError):
        op.blichfeldt_check(tri, 2)  # fewer points than vertices is impossible


def small_triangles():
    def build(coords):
        try:
            return op.LatticeSimplex(tuple(tuple(c) for c in coords))
        except ValueError:
            return None

    return st.lists(
        st.lists(st.integers(-5, 5), min_size=2, max_size=2), min_size=3, max_size=3
    ).map(build).filter(lambda s: s is not None)


@given(small_triangles())
@settings(max_examples=80, deadline=None)
def test_census_agrees_with_pointwise_classification(simplex):
    # dual route: the interval scan must match classifying every box point
    census = set(op.enumerate_interior(simplex).points)
    (x0, x1), (y0, y1) = op.enumerate_interior(simplex).scanned_box
    direct = {
        (x, y)
        for x in range(x0, x1 + 1)
        for y in range(y0, y1 + 1)
        if op.classify_point(simplex, (x, y)).kind == "interior"
    }
    assert census == direct


@given(small_triangles())
@settings(max_examples=40, deadline=None)
def test_closure_count_agrees_with_classification(simplex):
    count = op.count_face_points(simplex, ())
    (x0, x1), (y0, y1) = op.enumerate_interior(simplex).scanned_box
    direct = sum(
        op.classify_point(simplex, (x, y)).kind != "outside"
        for x in range(x0, x1 + 1)
        for y in range(y0, y1 + 1)
    )
    assert count == direct
