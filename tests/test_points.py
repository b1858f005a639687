import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import onepoint as op
from onepoint import points
from onepoint.points import CLOSED_FORM_ROWS, _floor_sum, _scan
from oracles import BlichfeldtCheck, blichfeldt_check, box_walk, face_of, linear_image


ZPW2 = op.LatticeSimplex(((0, 0), (2, 0), (0, 3)))
ZPW3 = op.LatticeSimplex(((0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 7)))
WIDE = op.LatticeSimplex(((0, 0), (7, 0), (0, 2)))


def test_classify_point():
    assert op.classify_point(ZPW2, (1, 1)) == op.PointClass("interior", None)
    assert op.classify_point(ZPW2, (1, 0)) == op.PointClass("boundary", (2,))
    assert op.classify_point(ZPW2, (0, 0)) == op.PointClass("boundary", (1, 2))
    assert op.classify_point(ZPW2, (5, 5)) == op.PointClass("outside", None)


def test_classify_point_stays_on_integer_rows(monkeypatch):
    # the signs of the rows, |det| times the coordinates, classify; no Fraction is built
    def refuse(*args):
        raise AssertionError("classify_point went through barycentric_of")

    monkeypatch.setattr(points, "barycentric_of", refuse, raising=False)
    assert op.classify_point(ZPW2, (1, 1)).kind == "interior"
    assert op.classify_point(ZPW2, (1, 0)) == op.PointClass("boundary", (2,))
    assert op.classify_point(ZPW2, (5, 5)).kind == "outside"


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
    with pytest.raises(ValueError, match=r"vertex indexes must lie in \[0, 3\)"):
        op.count_face_points(ZPW2, (0, 5))


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
        op.enumerate_interior(face_of(ZPW2, (0,)))
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
    check = blichfeldt_check(tri, 10)
    assert check == BlichfeldtCheck(2, Fraction(9, 2), 10, Fraction(1), True)
    small = op.LatticeSimplex(((0, 0), (2, 0), (0, 1)))
    assert blichfeldt_check(small, 4).slack == 0
    segment = op.LatticeSimplex(((0,), (2,)))
    assert blichfeldt_check(segment, 3).slack == 0
    with pytest.raises(ValueError):
        blichfeldt_check(tri, 2)  # fewer points than vertices is impossible


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


def settles_above_the_rows(every, box, limit):
    """Whether a listing of ``limit`` points settles a subtree whose node is above the rows.

    The walk fixes the axes shortest side first and the longest last, as
    rows.  A node that has fixed the first m of the others, m >= 1, and
    not yet the last of them, is settled once the ``limit`` smallest of
    the points met before it sort ahead of its own fixed coordinates up to
    the first free one.  Only nodes with points below them are looked at.
    """
    *outer, row = sorted(range(len(box)), key=lambda a: box[a][1] - box[a][0])
    walked = sorted(every, key=lambda p: [p[a] for a in outer + [row]])
    for m in range(1, len(outer)):
        head, met = min(outer[m:] + [row]), []
        for _, node in itertools.groupby(walked, key=lambda p: [p[a] for a in outer[:m]]):
            node = list(node)
            if len(met) >= limit and node[0][:head] > sorted(met)[limit - 1][:head]:
                return True
            met += node
    return False


@st.composite
def settling_cases(draw):
    """Boxes of d = 3 or 4 on which a listing settles whole subtrees above the rows.

    The walk fixes the axes shortest side first, in an order other than
    index order that fixes axis 0 before the last two, so that a node above
    the rows can sort after a point kept.  The longest side is at least
    ``CLOSED_FORM_ROWS`` and the next one often is too, so settled last
    levels are summed, and a listing of 1 or of 20 points fills before a
    node above the rows that still holds points.  Half-spaces cut through
    the box as in ``long_level_cases``.
    """
    d = draw(st.integers(3, 4))
    order = draw(st.sampled_from([walk for walk in itertools.permutations(range(d))
                                  if 0 in walk[:d - 2] and walk != tuple(range(d))]))
    sides = [draw(st.integers(0, 6)) for _ in range(d - 2)]
    sides += [draw(st.integers(2, 16)), draw(st.integers(CLOSED_FORM_ROWS, 30))]
    sides = [side for _, side in sorted(zip(order, sorted(sides)))]
    assume(sorted(range(d), key=sides.__getitem__) != list(range(d)))  # ties keep index order
    box = [(lo, lo + side) for lo, side in zip(draw(st.lists(st.integers(-9, 9), min_size=d,
                                                           max_size=d)), sides)]
    halfspaces = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = tuple(draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d)))
        through = sum(c * draw(st.integers(*end)) for c, end in zip(coeffs, box))
        halfspaces.append((coeffs, draw(st.integers(0, 30)) - through))
        if draw(st.booleans()):  # the opposite side of a slab of width 2 to 12
            width = draw(st.integers(2, 12))
            halfspaces.append((tuple(-c for c in coeffs), width - halfspaces[-1][1]))
    every = box_walk(halfspaces, box, True)
    assume(settles_above_the_rows(every, box, 1) or settles_above_the_rows(every, box, 20))
    return halfspaces, box, every


@given(settling_cases())
@settings(max_examples=150, deadline=None)
def test_settled_subtrees_match_the_box_walk(case):
    halfspaces, box, every = case
    for limit in (0, 1, 2, 20, None):
        assert _scan(halfspaces, box, limit) == (len(every), every[:limit])


@pytest.mark.parametrize(
    "vertices, signs, total",
    [
        # 20·Δ₄ and conv{0, 60e₁, 60e₂, 60e₃}: axis permutations map them to themselves,
        # two sign changes do not
        ([(0,) * 4] + [tuple(20 * (i == j) for j in range(4)) for i in range(4)],
         (1, -1, -1, 1), 3876),
        ([(0,) * 3] + [tuple(60 * (i == j) for j in range(3)) for i in range(3)],
         (1, -1, -1), 32509),
    ],
)
def test_settled_large_censuses_match_the_box_walk(vertices, signs, total):
    simplex = op.LatticeSimplex(tuple(tuple(s * x for s, x in zip(signs, v)) for v in vertices))
    box = op.enumerate_interior(simplex, limit=0).scanned_box
    every = box_walk([(coeffs, const - 1) for coeffs, const in simplex.functional_rows], box, True)
    assert len(every) == total and settles_above_the_rows(every, box, 20)
    for limit in (0, 1, 2, 20, None):
        census = op.enumerate_interior(simplex, limit=limit)
        assert (census.count, census.points) == (total, tuple(every[:limit]))


def test_a_members_listing_is_summed_not_solved(monkeypatch):
    # zpw(4) under x0 += 30 x1, x1 += 30 x2, x2 += 30 x3: 1,090,693,604 box candidates and one
    # interior point, whose listing never fills; its levels are summed before they are listed
    shear = ((1, 30, 0, 0), (0, 1, 30, 0), (0, 0, 1, 30), (0, 0, 0, 1))
    sheared = linear_image(op.zpw_simplex(4), shear)
    made, rows_total = [], points._rows_total

    def counted(*args):
        made.append(args)
        return rows_total(*args)

    monkeypatch.setattr(points, "_rows_total", counted)
    calls = {}
    for limit in (0, 1, 2, 20):
        made.clear()
        census = op.enumerate_interior(sheared, cap=10**10, limit=limit)
        calls[limit] = len(made)
        assert census.count == 1
        assert census.points == (((31, 31, 31, 1),) if limit else ())
    assert calls[2] >= calls[0] > 0


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
