import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import onepoint as op
from onepoint.points import CLOSED_FORM_ROWS, _floor_sum, _scan
from oracles import box_walk


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


def test_census_counts_all_and_keeps_the_first_points():
    big = op.LatticeSimplex(((0, 0), (6, 0), (0, 6)))
    census = op.enumerate_interior(big, limit=3)
    assert census.count == 10
    assert census.points == ((1, 1), (1, 2), (1, 3))
    assert op.enumerate_interior(big, limit=0).points == ()
    everything = op.enumerate_interior(big)
    assert everything.count == len(everything.points)


@pytest.mark.parametrize(
    "perm",
    [(5, 4, 3, 2, 1, 0), (3, 4, 5, 0, 1, 2), (2, 5, 0, 4, 1, 3), (6, 5, 4, 3, 2, 1, 0)],
)
def test_zpw_census_pays_for_the_simplex_not_its_box(perm):
    # zpw(6)'s box holds 2.5e13 candidates, 7.6M rows off its longest axis; zpw(7)'s, 2.7e26
    zpw = op.zpw_simplex(len(perm), cap=10**27)
    moved = op.LatticeSimplex(tuple(tuple(v[a] for a in perm) for v in zpw.vertices))
    started = time.perf_counter()
    census = op.enumerate_interior(moved, cap=10**27, limit=2)
    assert time.perf_counter() - started < 2
    assert (census.count, census.points) == (1, ((1,) * len(perm),))


def test_is_onepoint():
    assert op.is_onepoint(ZPW2) == (1, 1)
    assert op.is_onepoint(WIDE) is None
    assert op.is_onepoint(op.LatticeSimplex(((0, 0), (1, 0), (0, 1)))) is None


def test_census_validation():
    with pytest.raises(ValueError, match="needs a full-dimensional simplex"):
        op.enumerate_interior(op.face_of(ZPW2, (0,)))
    with pytest.raises(ValueError, match="limit must be None or at least 0"):
        op.enumerate_interior(ZPW2, limit=-1)


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


@st.composite
def scan_cases(draw):
    """A simplex's interior, closed face or parallelotope, over its vertex box.

    Some draws zero coefficients or hold one box axis to a single value.
    """
    d = draw(st.integers(1, 5))
    side = (30, 8, 4, 3, 2)[d - 1]
    coords = st.lists(st.integers(-side, side), min_size=d, max_size=d)
    vertices = draw(st.lists(coords, min_size=d + 1, max_size=d + 1))
    try:
        simplex = op.LatticeSimplex(tuple(map(tuple, vertices)))
    except ValueError:
        assume(False)
    rows = list(simplex.functional_rows)
    kind = draw(st.sampled_from(("interior", "face", "parallelotope")))
    if kind == "interior":
        halfspaces = [(coeffs, const - 1) for coeffs, const in rows]
    elif kind == "face":
        omitted = draw(st.sets(st.integers(0, d), max_size=d))
        halfspaces = rows + [(tuple(-c for c in rows[i][0]), -rows[i][1]) for i in omitted]
    else:
        omit = draw(st.integers(0, d))
        point = [draw(st.integers(-side, side)) for _ in range(d)]
        halfspaces = []
        for coeffs, const in rows[:omit] + rows[omit + 1:]:
            top = 2 * (sum(c * x for c, x in zip(coeffs, point)) + const)
            halfspaces += [(coeffs, const - 1), (tuple(-c for c in coeffs), top - 1 - const)]
    if draw(st.booleans()):  # zero some coefficients, leaving axes free of a half-space
        halfspaces = [
            (tuple(0 if draw(st.integers(0, 3)) == 0 else c for c in coeffs), const)
            for coeffs, const in halfspaces
        ]
    box = [(min(v[a] for v in vertices), max(v[a] for v in vertices)) for a in range(d)]
    if draw(st.booleans()):  # one axis holds a single value
        flat = draw(st.integers(0, d - 1))
        value = draw(st.integers(*box[flat]))
        box[flat] = (value, value)
    return halfspaces, box


@given(scan_cases())
@example(([((1, 0), 0), ((0, 0), -1)], [(0, 2), (0, 3)]))  # no axis meets the second
@example(([((1, 0), 0), ((0, 0), 0)], [(0, 2), (0, 3)]))
@settings(max_examples=150, deadline=None)
def test_scan_matches_the_box_walk(case):
    halfspaces, box = case
    count, every = box_walk(halfspaces, box, False), box_walk(halfspaces, box, True)
    for limit in (0, 1, 2, 20, None):
        assert _scan(halfspaces, box, limit) == (count, every[:limit])


@st.composite
def long_level_cases(draw):
    """Half-spaces over a box whose level above the row axis is longer than the crossover.

    Half-spaces cut through the box at drawn points, so that several bind
    each end of the rows in turn, and some come in thin slabs between two
    opposite half-spaces, which leave empty rows inside a level.  The two
    long axes come in either order, ahead of or behind the short ones.
    """
    d = draw(st.integers(2, 3))
    sides = [draw(st.integers(CLOSED_FORM_ROWS, 50)) for _ in range(2)] + [draw(st.integers(0, 4))]
    sides = draw(st.permutations(sides[:d]))
    box = [(lo, lo + side) for lo, side in zip(draw(st.lists(st.integers(-20, 20), min_size=d,
                                                           max_size=d)), sides)]
    halfspaces = []
    for _ in range(draw(st.integers(1, 5))):
        coeffs = tuple(draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d)))
        through = sum(c * draw(st.integers(*end)) for c, end in zip(coeffs, box))
        halfspaces.append((coeffs, draw(st.integers(-20, 20)) - through))
        if draw(st.booleans()):  # the opposite side of a slab of width 0 to 3
            width = draw(st.integers(0, 3))
            halfspaces.append((tuple(-c for c in coeffs), width - halfspaces[-1][1]))
    return halfspaces, box


@given(long_level_cases())
@example(([((1, 1), -5)], [(0, 30), (0, 40)]))  # one level, cut by one half-space only
@example(([((3, -7), 0), ((-3, 7), 1)], [(0, 40), (0, 20)]))  # a slab: most rows are empty
@settings(max_examples=150, deadline=None)
def test_closed_form_levels_match_the_box_walk(case):
    halfspaces, box = case
    count, every = box_walk(halfspaces, box, False), box_walk(halfspaces, box, True)
    for limit in (0, 1, 2, 20, None):
        assert _scan(halfspaces, box, limit) == (count, every[:limit])


@given(
    st.integers(0, 60), st.integers(1, 10**6),
    st.integers(-10**12, 10**12), st.integers(-10**12, 10**12),
)
@example(0, 5, -3, 7)
@example(25, 1, -4, -9)
@example(40, 7, -3, -100)
@settings(max_examples=300, deadline=None)
def test_floor_sum_matches_the_plain_sum(n, m, a, b):
    assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_floor_sum_takes_thousands_of_euclid_steps():
    # over a full period, the floors of a*i/m sum to (a-1)(m-1)/2 for coprime a and m;
    # consecutive Fibonacci numbers of some 2,000 bits need about 3,000 steps
    fib = [1, 2]
    while len(fib) < 3000:
        fib.append(fib[-1] + fib[-2])
    m, a = fib[-1], fib[-2]
    assert _floor_sum(m, m, a, 0) == (a - 1) * (m - 1) // 2


def test_long_rows_are_summed_not_solved():
    # 10^6 - 1 rows of up to 999,998 points: counted in closed form once 20 are kept
    n = 10**6
    started = time.perf_counter()
    census = op.enumerate_interior(op.LatticeSimplex(((0, 0), (n, 0), (0, n))), cap=10**13, limit=20)
    assert time.perf_counter() - started < 1
    assert census.count == (n - 1) * (n - 2) // 2
    assert census.points == tuple((1, y) for y in range(1, 21))


@pytest.mark.parametrize(
    "vertices, total",
    [
        (((0, 0, 0), (60, 0, 0), (0, 60, 0), (0, 0, 60)), 32509),
        (((0, 0), (300, 0), (0, 300)), 44551),
    ],
)
def test_large_census_matches_the_box_walk(vertices, total):
    # the drawn boxes above have sides of at most 30; these keep the first
    # points over hundreds or thousands of rows of up to 298 points each
    simplex = op.LatticeSimplex(vertices)
    interior = [(coeffs, const - 1) for coeffs, const in simplex.functional_rows]
    every = box_walk(interior, op.enumerate_interior(simplex, limit=0).scanned_box, True)
    assert len(every) == total
    for limit in (0, 1, 20, None):
        census = op.enumerate_interior(simplex, limit=limit)
        assert (census.count, census.points) == (total, tuple(every[:limit]))
