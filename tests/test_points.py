import itertools
import sys
import time
from fractions import Fraction
from math import prod
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import onepoint as op
from onepoint import points
from onepoint.points import CLOSED_FORM_ROWS, _census, _floor_sum, _scan
from oracles import BlichfeldtCheck, blichfeldt_check, box_walk, face_of, linear_image, sylvester


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


def test_a_census_refused_on_its_box_builds_no_rows():
    # conv{-(1, ..., 1), e_1, ..., e_30}: a box of 3^30 candidates, refused before the rows
    d = 30
    simplex = op.LatticeSimplex([[-1] * d] + [[int(i == j) for j in range(d)] for i in range(d)])
    with pytest.raises(op.EnumerationCapError):
        op.enumerate_interior(simplex)
    assert "functional_rows" not in simplex.__dict__


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
    # 0.5 matched no vertex, so the closure's 24 points were counted; True stood for 1
    for omitted in ([0.5], [True], [Fraction(1)], [0, 1.0]):
        with pytest.raises(ValueError, match="vertex indexes must be ints"):
            op.count_face_points(ZPW3, omitted)


def test_low_faces_answer_past_the_cap():
    # a triangle's box of (10^9 + 1)^2 candidates would be refused by a scan; Pick counts it
    n = 10**9
    flat = op.LatticeSimplex(((0, 0, 0), (n, 0, 0), (0, n, 0), (0, 0, 1)))
    assert op.count_face_points(flat, (3,)) == (n * n + 3 * n) // 2 + 1
    assert op.count_face_points(flat, (2, 3)) == n + 1
    assert op.count_face_points(flat, (0, 1, 2)) == 1
    # the whole tetrahedron is still scanned, and its box of 2 (10^9 + 1)^2 is refused
    with pytest.raises(op.EnumerationCapError, match="2000000004000000002 candidate points"):
        op.count_face_points(flat)


def face_box_walk(simplex, omitted):
    """The closed face's lattice points by the box walk over the face's vertex box."""
    rows, n = simplex.functional_rows, len(simplex.vertices)
    # every functional nonnegative, and the omitted ones also nonpositive
    halfspaces = list(rows) + [(tuple(-c for c in rows[i][0]), -rows[i][1]) for i in omitted]
    kept = [simplex.vertices[j] for j in range(n) if j not in omitted]
    return box_walk(halfspaces, [(min(axis), max(axis)) for axis in zip(*kept)], False)


def test_unimodular_faces_answer_past_the_cap():
    # conv{0, e_1, e_2, (10^9, 10^9, 1)} has |det| 1: its 4 vertices, with a box of
    # 2 (10^9 + 1)^2 candidates that a scan would refuse
    n = 10**9
    unit = op.LatticeSimplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (n, n, 1)))
    assert op.count_face_points(unit) == 4
    with pytest.raises(op.EnumerationCapError, match="2000000004000000002 candidate points"):
        op.enumerate_interior(unit)


def check_low_faces(simplex, shears):
    """Each face of dimension <= 2 counts as the box walk does, also after the shears.

    Each shear (i, j, f) adds f times coordinate j to coordinate i.  Returns
    the most candidates any of the image's faces holds in its vertex box.
    """
    d, n = simplex.dim, len(simplex.vertices)
    image = simplex
    for i, j, f in shears:
        image = linear_image(image, [[(r == c) + f * (r == i and c == j) for c in range(d)]
                                     for r in range(d)])
    most = 0
    for kept in itertools.chain(*(itertools.combinations(range(n), k) for k in (1, 2, 3))):
        omitted = tuple(i for i in range(n) if i not in kept)
        count = face_box_walk(simplex, omitted)
        assert op.count_face_points(simplex, omitted) == count
        assert op.count_face_points(image, omitted) == count
        sides = zip(*(image.vertices[j] for j in kept))
        most = max(most, prod(max(axis) - min(axis) + 1 for axis in sides))
    return most


@st.composite
def low_face_cases(draw):
    """A simplex of d = 2 to 6 whose face boxes the box walk can visit, and up to 4 shears."""
    d = draw(st.integers(2, 6))
    coordinate = st.integers(-max(2, 10 // d), max(2, 10 // d))
    vertices = draw(st.lists(st.tuples(*[coordinate] * d), min_size=d + 1, max_size=d + 1,
                             unique=True))
    try:
        simplex = op.LatticeSimplex(vertices)
    except ValueError:  # affinely dependent
        assume(False)
    axes = st.integers(0, d - 1)
    shear = st.tuples(axes, axes, st.integers(-1000, 1000)).filter(lambda s: s[0] != s[1])
    return simplex, draw(st.lists(shear, max_size=4))


@given(low_face_cases())
@settings(max_examples=60, deadline=None)
def test_low_faces_count_as_the_box_walk_does(case):
    check_low_faces(*case)


def test_sheared_low_faces_past_the_cap_answer():
    # zpw(3) under x1 += 1000 x2, then x0 += 1000 x1: a triangle's box passes the cap
    assert check_low_faces(ZPW3, [(1, 2, 1000), (0, 1, 1000)]) > op.DEFAULT_CAP


@st.composite
def unimodular_faces(draw):
    """A full-dimensional simplex and the omitted indexes of a unimodular k-face of it.

    The standard k-simplex conv{0, e_1, ..., e_k} (k = 3..5) sits in Z^d (d = k..6)
    with m_j e_j (j > k, m_j = 1..3) beside it.  All move under a product of up to 4
    elementary shears of factor in [-10^3, 10^3], a signed permutation of the axes and a
    translation: a unimodular map, so the face keeps index 1.  The vertices are shuffled.
    """
    k = draw(st.integers(3, 5))
    d = draw(st.integers(k, 6))
    sides = [1] * k + draw(st.lists(st.integers(1, 3), min_size=d - k, max_size=d - k))
    vertices = [[0] * d] + [[m * (i == j) for j in range(d)] for i, m in enumerate(sides)]
    axes = st.integers(0, d - 1)
    shear = st.tuples(axes, axes, st.integers(-1000, 1000)).filter(lambda s: s[0] != s[1])
    for i, j, f in draw(st.lists(shear, max_size=4)):
        for v in vertices:
            v[i] += f * v[j]
    perm = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=d, max_size=d))
    shift = draw(st.lists(st.integers(-50, 50), min_size=d, max_size=d))
    vertices = [[s * v[a] + t for a, s, t in zip(perm, signs, shift)] for v in vertices]
    order = draw(st.permutations(range(d + 1)))
    omitted = tuple(sorted(order.index(j) for j in range(k + 1, d + 1)))
    return op.LatticeSimplex([vertices[j] for j in order]), omitted, k


@given(unimodular_faces())
@settings(max_examples=60, deadline=None)
def test_unimodular_faces_count_their_vertices(case):
    # k + N with N = 1: no candidate is scanned, so even a cap of 1 answers
    simplex, omitted, k = case
    assert op.count_face_points(simplex, omitted, cap=1) == k + 1
    face = [v for j, v in enumerate(simplex.vertices) if j not in omitted]
    if prod(max(axis) - min(axis) + 1 for axis in zip(*face)) <= 10**5:
        assert face_box_walk(simplex, omitted) == k + 1


@pytest.mark.parametrize("d", [7, 8])
def test_zpw_chain_levels_below_the_top_are_not_scanned(d, monkeypatch):
    # each level below the top is unimodular (volume 1/i!), so it holds its i + 1 vertices,
    # while its vertex box holds up to t_1 ... t_i candidates
    terms = sylvester(d).terms
    zpw = op.LatticeSimplex([[0] * d] + [[t * (i == j) for j in range(d)]
                                         for i, t in enumerate(terms)])
    coords = op.barycentric_of(zpw, (1,) * d)
    order = sorted(range(d + 1), key=lambda j: coords[j], reverse=True)

    def refuse(*args):
        raise AssertionError("a unimodular chain level was scanned")

    monkeypatch.setattr(points, "_census", refuse)
    started = time.perf_counter()
    for i in range(1, d):
        assert op.count_face_points(zpw, order[i + 1 :]) == i + 1
    assert time.perf_counter() - started < 0.1


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
    # the listing never reached a limit of 2.5, and kept all 406 points; True kept 1
    wide = op.LatticeSimplex(((0, 0), (30, 0), (0, 30)))
    for limit in (2.5, True, Fraction(1), "1"):
        with pytest.raises(ValueError, match="limit must be None or an int"):
            op.enumerate_interior(wide, limit=limit)


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


def test_cap_past_the_interpreter_digit_limit_prints_as_a_power_of_two():
    # a 701-digit cap prints in full only below the interpreter's own int-to-str limit
    side, cap = 10**400, 10**700
    wide = op.LatticeSimplex(((0, 0), (side, 0), (0, side)))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(op.EnumerationCapError) as err:
            op.enumerate_interior(wide, cap)
        text = str(err.value)
    finally:
        sys.set_int_max_str_digits(limit)
    assert err.value.cap == cap and err.value.required == (side + 1) ** 2
    assert text.endswith(f"above the enumeration cap of at least 2^{cap.bit_length() - 1}")


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

    Returns the half-spaces and the box, then the rows with the ranges on
    them that the census entry takes for the same region.  Some draws zero
    coefficients, of each half-space on its own or of each row, or hold one
    box axis to a single value.
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
        ranges = {i: (1, None) for i in range(d + 1)}
    elif kind == "face":
        omitted = draw(st.sets(st.integers(0, d), max_size=d))
        halfspaces = rows + [(tuple(-c for c in rows[i][0]), -rows[i][1]) for i in omitted]
        ranges = {i: (0, 0 if i in omitted else None) for i in range(d + 1)}
    else:
        omit = draw(st.integers(0, d))
        point = [draw(st.integers(-side, side)) for _ in range(d)]
        halfspaces, ranges = [], {}
        for i, (coeffs, const) in enumerate(rows):
            if i != omit:
                top = 2 * (sum(c * x for c, x in zip(coeffs, point)) + const)
                halfspaces += [(coeffs, const - 1), (tuple(-c for c in coeffs), top - 1 - const)]
                ranges[i] = (1, top - 1)
    if draw(st.booleans()):  # zero some coefficients, leaving axes free of a half-space
        halfspaces = [
            (tuple(0 if draw(st.integers(0, 3)) == 0 else c for c in coeffs), const)
            for coeffs, const in halfspaces
        ]
    if draw(st.booleans()):  # the same for the entry's rows: a row's two sides lose the same
        rows = [
            (tuple(0 if draw(st.integers(0, 3)) == 0 else c for c in coeffs), const)
            for coeffs, const in rows
        ]
    box = [(min(v[a] for v in vertices), max(v[a] for v in vertices)) for a in range(d)]
    if draw(st.booleans()):  # one axis holds a single value
        flat = draw(st.integers(0, d - 1))
        value = draw(st.integers(*box[flat]))
        box[flat] = (value, value)
    return halfspaces, box, rows, ranges


# rows x0 and 0, held at >= 0 and >= 1: no axis meets the second half-space
@given(scan_cases())
@example(([((1, 0), 0), ((0, 0), -1)], [(0, 2), (0, 3)],
          [((1, 0), 0), ((0, 0), 0)], {0: (0, None), 1: (1, None)}))
@example(([((1, 0), 0), ((0, 0), 0)], [(0, 2), (0, 3)],
          [((1, 0), 0), ((0, 0), 0)], {0: (0, None), 1: (0, None)}))
# x2 - 6 >= 0 over three axes: only the longest, x2 <= 5, meets it, and it holds nowhere
@example(([((1, 1, 1), 0), ((0, 0, 1), -6)], [(0, 1), (0, 2), (0, 5)],
          [((1, 1, 1), 0), ((0, 0, 1), -6)], {0: (0, None), 1: (0, None)}))
# three axes, and a row 0 held at >= 1: no axis meets the second half-space
@example(([((1, -1, 2), 3), ((0, 0, 0), -1)], [(0, 2), (-1, 1), (0, 3)],
          [((1, -1, 2), 3), ((0, 0, 0), 0)], {0: (0, None), 1: (1, None)}))
@settings(max_examples=150, deadline=None)
def test_scan_matches_the_box_walk(case):
    halfspaces, box, rows, ranges = case
    count, every = box_walk(halfspaces, box, False), box_walk(halfspaces, box, True)
    for limit in (0, 1, 2, 20, None):
        assert _scan(halfspaces, box, limit) == (count, every[:limit])
    # the census entry, given the region as ranges lo <= row i <= hi
    ranged = [(rows[i][0], rows[i][1] - lo) for i, (lo, _) in ranges.items()]
    ranged += [(tuple(-c for c in rows[i][0]), hi - rows[i][1])
               for i, (_, hi) in ranges.items() if hi is not None]
    count, every = box_walk(ranged, box, False), box_walk(ranged, box, True)
    region = SimpleNamespace(functional_rows=tuple(rows))
    candidates = prod(hi - lo + 1 for lo, hi in box)
    for limit in (0, 1, 20, None):
        assert _census(region, ranges, box, candidates, limit) == (count, every[:limit])
    # one candidate fewer is refused before a row is read: object() has none
    with pytest.raises(op.EnumerationCapError) as err:
        _census(object(), ranges, box, candidates - 1, 0)
    assert err.value.required == candidates


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
