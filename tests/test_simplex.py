import inspect
import itertools
import json
import sys
import threading
from collections import Counter
from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import onepoint as op
import onepoint.simplex
from oracles import linear_image, rank_rat, rational_volume
from oracles import det_int, face_of, hull_rows, section_simplex, translate


def test_validation_errors():
    with pytest.raises(ValueError):
        op.LatticeSimplex(())
    with pytest.raises(ValueError):
        op.LatticeSimplex(((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        op.LatticeSimplex(((0, 0), (1, 1), (2, 2)))  # collinear
    with pytest.raises(ValueError):
        op.LatticeSimplex(((0,), (1,), (2,)))  # too many vertices for the line
    with pytest.raises(ValueError, match="matrix rows have unequal lengths"):
        op.LatticeSimplex(((0, 0), (1,)))
    with pytest.raises(ValueError, match="ambient dimension must be at least 1"):
        op.LatticeSimplex(((),))
    for x in (1.0, True, Fraction(1)):
        with pytest.raises(ValueError, match="expected an exact integer"):
            op.LatticeSimplex(((0, 0), (x, 0), (0, 1)))


@st.composite
def vertex_sets(draw):
    """k+1 <= d+1 vertices in Z^d, sometimes one an affine combination of the rest."""
    d = draw(st.integers(1, 7))
    k = draw(st.integers(0, d))
    point = st.lists(st.integers(-4, 4).map(Fraction), min_size=d, max_size=d)
    vertices = draw(st.lists(point, min_size=k + 1, max_size=k + 1))
    shape = draw(st.sampled_from(("drawn", "integer combination", "rational combination")))
    if shape != "drawn" and k >= 1:
        j = draw(st.integers(0, k))
        others = [v for i, v in enumerate(vertices) if i != j]
        if shape == "integer combination":
            weight = st.integers(-2, 2).map(Fraction)
        else:
            weight = st.fractions(-2, 2, max_denominator=3)
        weights = draw(st.lists(weight, min_size=k - 1, max_size=k - 1))
        weights.append(1 - sum(weights))
        vertices[j] = [sum(w * v[c] for w, v in zip(weights, others)) for c in range(d)]
    # scaling by a common denominator keeps (in)dependence and gives integers
    scale = lcm(*(x.denominator for v in vertices for x in v))
    return [tuple(int(x * scale) for x in v) for v in vertices], draw(st.integers(1, 3))


@given(vertex_sets())
@settings(max_examples=300, deadline=None)
def test_simplices_accept_exactly_the_affinely_independent_sets(case):
    # independent route: the rank of the edge matrix by rational elimination
    vertices, denominator = case
    k = len(vertices) - 1
    edges = [[x - b for x, b in zip(v, vertices[0])] for v in vertices[1:]]
    independent = rank_rat(edges) == k
    # the same set over a common denominator: the rational oracle accepts it
    # exactly when the integer simplex exists, and measures it scaled back
    rational = [tuple(Fraction(x, denominator) for x in v) for v in vertices]
    if independent:
        simplex = op.LatticeSimplex(vertices)
        assert simplex.vertices == tuple(vertices)
        assert rational_volume(rational) == op.normalized_volume(simplex) / denominator**k
    else:
        with pytest.raises(ValueError, match="^vertices are (not distinct|affinely dependent)$"):
            op.LatticeSimplex(vertices)
        with pytest.raises(ValueError):
            rational_volume(rational)


def test_dimensions():
    tri = op.LatticeSimplex(((0, 0), (7, 0), (0, 2)))
    assert tri.dim == 2 and tri.ambient_dim == 2 and tri.is_full_dimensional
    edge = face_of(tri, (1,))
    assert edge.dim == 1 and edge.ambient_dim == 2 and not edge.is_full_dimensional
    point = face_of(tri, (0, 1))
    assert point.dim == 0


def test_barycentric_frozen():
    tri = op.LatticeSimplex(((0, 0), (7, 0), (0, 2)))
    assert op.barycentric_of(tri, (1, 1)) == (
        Fraction(5, 14),
        Fraction(1, 7),
        Fraction(1, 2),
    )
    zpw3 = op.LatticeSimplex(((0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 7)))
    assert op.barycentric_of(zpw3, (1, 1, 1)) == (
        Fraction(1, 42),
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(1, 7),
    )
    with pytest.raises(ValueError, match="point dimension does not match the simplex"):
        op.barycentric_of(tri, (1, 1, 1))
    # a float coordinate is refused by name, not read inexactly
    zpw2 = op.zpw_simplex(2)
    for check in (op.barycentric_of, op.classify_point):
        with pytest.raises(ValueError, match=r"expected an int or a Fraction, got 0\.5"):
            check(zpw2, (0.5, 0.5))


def small_simplices(dim):
    def build(coords):
        verts = tuple(tuple(c) for c in coords)
        try:
            return op.LatticeSimplex(verts)
        except ValueError:
            return None

    return st.lists(
        st.lists(st.integers(-6, 6), min_size=dim, max_size=dim),
        min_size=dim + 1,
        max_size=dim + 1,
    ).map(build).filter(lambda s: s is not None)


@given(small_simplices(2), st.lists(st.integers(1, 9), min_size=3, max_size=3))
def test_barycentric_roundtrip(simplex, weights):
    total = sum(weights)
    coords = tuple(Fraction(w, total) for w in weights)
    point = tuple(
        sum(c * v[i] for c, v in zip(coords, simplex.vertices))
        for i in range(simplex.ambient_dim)
    )
    assert op.barycentric_of(simplex, point) == coords


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_functional_rows_match_rational_inverse(data):
    # independent route: the rows are |det| times the hull matrix's Gauss-Jordan inverse
    dim = data.draw(st.integers(1, 6))
    simplex = data.draw(small_simplices(dim))
    assert simplex.functional_rows == hull_rows(simplex)
    # the edge matrix is translation-free, its constants are not: shifts up to 10^6 per axis
    shift = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=dim, max_size=dim))
    moved = translate(simplex, shift)
    assert moved.functional_rows == hull_rows(moved)
    # any vertex order, whatever det's sign and the count of row swaps: the rows in that order
    order = data.draw(st.permutations(range(dim + 1)))
    reordered = op.LatticeSimplex([simplex.vertices[j] for j in order])
    assert reordered.functional_rows == tuple(simplex.functional_rows[j] for j in order)
    assert reordered.functional_rows == hull_rows(reordered)
    point = data.draw(
        st.lists(st.fractions(-9, 9, max_denominator=7), min_size=dim, max_size=dim)
    )
    coords = op.barycentric_of(simplex, point)
    assert sum(coords) == 1
    rebuilt = [sum(c * v[i] for c, v in zip(coords, simplex.vertices)) for i in range(dim)]
    assert rebuilt == point


@pytest.mark.parametrize("dim", range(1, 9))
def test_functional_rows_of_the_reflected_family(dim):
    # conv{-(1, ..., 1), e_1, ..., e_d}: the first vertex, the edges' base, is off the origin
    simplex = op.reflected_simplex(dim)
    assert simplex.vertices[0] == (-1,) * dim
    assert simplex.functional_rows == hull_rows(simplex)


def test_check_barycentric():
    assert op.check_barycentric([Fraction(1, 2), Fraction(1, 2)]) == (
        Fraction(1, 2),
        Fraction(1, 2),
    )
    with pytest.raises(ValueError):
        op.check_barycentric([Fraction(1, 2), Fraction(1, 3)])  # sum below 1
    with pytest.raises(ValueError):
        op.check_barycentric([Fraction(3, 2), Fraction(-1, 2)])  # not positive
    with pytest.raises(ValueError):
        op.check_barycentric([Fraction(1)])  # needs at least two
    # ints and Fractions only: a float, a string or a bool is refused by name
    for coords, named in (((0.5, 0.25, 0.25), "0.5"), (("1/2", "1/4", "1/4"), "'1/2'"),
                          ((Fraction(1, 2), True), "True")):
        with pytest.raises(ValueError, match=f"expected an int or a Fraction, got {named}"):
            op.check_barycentric(coords)
    with pytest.raises(ValueError, match="got 0.5"):
        op.check_all_partitions((0.5, 0.25, 0.25))
    with pytest.raises(ValueError, match="got '1/2'"):
        op.reduced_system(("1/2", "1/4", "1/4"))


def test_normalized_volume_frozen():
    assert op.normalized_volume(op.LatticeSimplex(((0, 0), (3, 0), (0, 3)))) == Fraction(9, 2)
    assert op.normalized_volume(op.LatticeSimplex(((0, 0), (3, 0)))) == 3
    assert op.normalized_volume(op.LatticeSimplex(((4, 7),))) == 1
    zpw4 = op.LatticeSimplex(
        ((0,) * 4, (2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 7, 0), (0, 0, 0, 43))
    )
    assert op.normalized_volume(zpw4) == Fraction(301, 4)
    # a rational simplex: half the unit square's diagonal triangle, by the
    # oracle and as the unit triangle over the common denominator 2
    half = (
        (Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(0)),
        (Fraction(0), Fraction(1, 2)),
    )
    assert rational_volume(half) == Fraction(1, 8)
    unit = op.LatticeSimplex(((0, 0), (1, 0), (0, 1)))
    assert op.normalized_volume(unit) / 2**2 == Fraction(1, 8)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_normalized_volume_matches_smith_divisors(data):
    d = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(0, d))
    rational = data.draw(st.booleans())
    entry = st.fractions(-9, 9, max_denominator=6) if rational else st.integers(-9, 9)
    point = st.lists(entry, min_size=d, max_size=d).map(tuple)
    vertices = data.draw(st.lists(point, min_size=k + 1, max_size=k + 1, unique=True))
    edges = [[x - b for x, b in zip(v, vertices[0])] for v in vertices[1:]]
    assume(rank_rat(edges) == k)
    # rational vertices are measured as the integer simplex over their lcm
    scale = lcm(*(Fraction(x).denominator for v in vertices for x in v))
    simplex = op.LatticeSimplex([tuple(int(x * scale) for x in v) for v in vertices])
    assert op.normalized_volume(simplex) / scale**k == rational_volume(vertices)


def test_face_and_volume_take_one_seed_walk(monkeypatch, face_walks):
    zpw4 = op.zpw_simplex(4)
    expected = rational_volume(zpw4.vertices[1:])
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in list(vars(onepoint.simplex).items()):
        if inspect.isfunction(fn) and fn.__module__ == "onepoint.exact":
            monkeypatch.setattr(onepoint.simplex, name, counted(name, fn))
    face_walks.clear()
    face = face_of(zpw4, (0,))
    assert op.normalized_volume(face) == expected
    # one walk along the face's columns decides independence and gives the volume,
    # a column step per column but the last, whose pivot is its gcd: no Hermite form,
    # no Gram determinant, no Smith form, and nothing more when the volume is read;
    # the parent's vertices are integers checked already, so the face does not check them
    assert [(walked, kept) for walked, kept, _ in face_walks] == [(face, (0, 1, 2, 3))]
    assert calls == {"_column_step": 2}


def test_functional_rows_under_every_vertex_order_of_zpw3():
    # the 24 vertex orders of zpw(3) give both signs of det, each with an odd and an even
    # number of row swaps; every order's rows are the oracle's, and the first order's permuted
    zpw3, cases = op.zpw_simplex(3), set()
    for order in itertools.permutations(range(4)):
        simplex = op.LatticeSimplex([zpw3.vertices[j] for j in order])
        assert simplex.functional_rows == hull_rows(simplex)
        assert simplex.functional_rows == tuple(zpw3.functional_rows[j] for j in order)
        # the below half's last pivot is det of the row-permuted edge matrix, so its sign
        # against det's gives the parity of the row swaps
        det = det_int([[v[c] - b for v in simplex.vertices[1:]]
                       for c, b in enumerate(simplex.vertices[0])])
        last_pivot = simplex._elimination[1][0][-1][0]
        cases.add((det > 0, (det > 0) != (last_pivot > 0)))
    assert cases == {(True, False), (True, True), (False, False), (False, True)}


@st.composite
def sheared_simplices(draw, full=False):
    """A simplex in Z^d, d = 1 to 6, coordinates in [-9, 9]; up to 4 shears.

    It is full-dimensional with ``full``, else full or embedded.
    """
    d = draw(st.integers(1, 6))
    vertices = draw(st.lists(st.tuples(*[st.integers(-9, 9)] * d), min_size=d + 1 if full else 1,
                             max_size=d + 1, unique=True))
    try:
        simplex = op.LatticeSimplex(vertices)
    except ValueError:  # affinely dependent
        assume(False)
    axes = st.integers(0, d - 1)
    shear = st.tuples(axes, axes, st.integers(-1000, 1000)).filter(lambda s: s[0] != s[1])
    return simplex, draw(st.lists(shear, max_size=4 if d > 1 else 0))


def sheared(simplex, shear):
    """The image under (i, j, f): f times coordinate j added to coordinate i."""
    i, j, f = shear
    d = simplex.ambient_dim
    return linear_image(simplex, [[(r == c) + f * (r == i and c == j) for c in range(d)]
                                  for r in range(d)])


@given(sheared_simplices())
@settings(max_examples=60, deadline=None)
def test_face_table_matches_the_smith_volume(case):
    # every face's volume from the table is the Smith-divisor volume of its vertices, face
    # by face and through the walk over every face on a fresh copy, and each shear (i, j, f),
    # adding f times coordinate j to coordinate i, gives the same table
    simplex, shears = case
    n = len(simplex.vertices)
    faces = [kept for k in range(1, n + 1) for kept in itertools.combinations(range(n), k)]
    table = {kept: rational_volume([simplex.vertices[j] for j in kept]) for kept in faces}
    for shear in [None, *shears]:
        if shear:
            simplex = sheared(simplex, shear)
        assert {kept: onepoint.simplex._face_volume(simplex, kept) for kept in faces} == table
        walked = face_of(simplex, ())
        onepoint.simplex._walk(walked)
        assert walked._faces.keys() == table.keys()
        assert {kept: onepoint.simplex._face_volume(walked, kept) for kept in faces} == table


@given(sheared_simplices(full=True))
@settings(max_examples=40, deadline=None)
def test_constructor_entry_matches_the_walk(case):
    # a full-dimensional simplex's one table entry is |det|, from the below half of its edge
    # matrix's elimination: what the walk over every face writes for the whole set, and d!
    # times the Smith-divisor volume; the constructor keeps |det| with the steps, and the
    # rows run the above half on first use and leave that record as it was
    simplex, shears = case
    d = simplex.ambient_dim
    whole, index = tuple(range(d + 1)), rational_volume(simplex.vertices) * factorial(d)
    for shear in [None, *shears]:
        if shear:
            simplex = sheared(simplex, shear)
        record = simplex._elimination
        assert simplex._faces == {whole: index} and record[0] == index
        walked = face_of(simplex, ())
        onepoint.simplex._walk(walked)
        assert walked._faces[whole] == index
        assert simplex.functional_rows == hull_rows(simplex)
        assert simplex._elimination is record


def test_concurrent_first_uses_agree_on_the_rows():
    # more threads than cores read the rows of one fresh simplex at once, switching often:
    # each gets the oracle's rows, computed from the one record the constructor kept
    vertices, expected, switch = op.zpw_simplex(5).vertices, None, sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            simplex, results = op.LatticeSimplex(vertices), []
            expected = expected or hull_rows(simplex)
            threads = [threading.Thread(target=lambda: results.append(simplex.functional_rows))
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(switch)


@given(small_simplices(2))
def test_translation_preserves_volume(simplex):
    moved = translate(simplex, (3, -5))
    assert op.normalized_volume(moved) == op.normalized_volume(simplex)


def test_section_simplex_frozen():
    tri = op.LatticeSimplex(((0, 0), (3, 0), (0, 3)))
    section, denominator = section_simplex(tri, (1, 1), (0,))
    assert section.vertices == ((18, 0), (0, 18)) and denominator == 9
    # over the common denominator these are the rational vertices (2, 0), (0, 2)
    rational = tuple(tuple(Fraction(x, denominator) for x in v) for v in section.vertices)
    assert rational == ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(2)))
    assert op.normalized_volume(section) / denominator == rational_volume(rational) == 2
    with pytest.raises(ValueError, match="strictly inside"):
        section_simplex(tri, (0, 1), (0,))


def test_linear_image_and_translate():
    tri = op.LatticeSimplex(((0, 0), (2, 0), (0, 3)))
    image = linear_image(tri, ((1, 1), (0, 1)))
    assert image.vertices == ((0, 0), (2, 0), (3, 3))
    moved = translate(tri, (1, -1))
    assert moved.vertices == ((1, -1), (3, -1), (1, 2))
    with pytest.raises(ValueError, match="shift dimension does not match"):
        translate(tri, (1,))


def test_parse_simplex_text():
    doc = '{"dim": 2, "vertices": [[0, 0], [7, 0], [0, 2]]}'
    simplex = op.parse_simplex_text(doc)
    assert simplex.vertices == ((0, 0), (7, 0), (0, 2))


@pytest.mark.parametrize(
    "text, message",
    [
        ("{", "line 1"),
        ("[]", "top level must be an object"),
        ('{"dim": "1", "vertices": [[0], [1]]}', "field 'dim': expected an integer"),
        ('{"dim": 1, "vertices": {}}', "field 'vertices': expected a list"),
        ('{"vertices": [[0], [1]]}', "dim"),
        ('{"dim": 1}', "vertices"),
        ('{"dim": 1, "vertices": [[0], [1]], "extra": 0}', "extra"),
        ('{"dim": 0, "vertices": [[]]}', "at least 1"),
        ('{"dim": 2, "vertices": [[0, 0], [1, 0]]}', "3"),
        ('{"dim": 1, "vertices": [[0], [1.5]]}', "vertices[1][0]"),
        ('{"dim": 1, "vertices": [[0], [true]]}', "vertices[1][0]"),
        ('{"dim": 1, "vertices": [[0], "x"]}', "vertices[1]"),
    ],
)
def test_parse_simplex_rejects(text, message):
    with pytest.raises(op.SimplexParseError) as err:
        op.parse_simplex_text(text)
    assert message in str(err.value)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_parse_accepts_exactly_what_the_constructor_accepts(data):
    # one acceptance route: the per-coordinate checks, then the constructor's own shape checks
    dim = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=dim, max_size=dim),
                              min_size=dim + 1, max_size=dim + 1))
    if data.draw(st.booleans()):
        # one coordinate shared by every vertex: the vertices lie in a hyperplane
        column, value = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(-9, 9))
        for row in rows:
            row[column] = value
    spoil = data.draw(st.sampled_from([None, None, True, 1.5]))
    if spoil is not None:
        rows[data.draw(st.integers(0, dim))][data.draw(st.integers(0, dim - 1))] = spoil
    text = json.dumps({"dim": dim, "vertices": rows})
    try:
        expected = op.LatticeSimplex(rows)
    except ValueError:
        with pytest.raises(ValueError):
            op.parse_simplex_text(text)
    else:
        assert op.parse_simplex_text(text).vertices == expected.vertices


def test_exchange_roundtrip_is_byte_identical():
    simplex = op.LatticeSimplex(((0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 7)))
    text = op.simplex_to_text(simplex)
    assert text.endswith("\n")
    assert op.parse_simplex_text(text) == simplex
    assert op.simplex_to_text(op.parse_simplex_text(text)) == text
    # stable key order straight from json
    assert json.loads(text) == {
        "dim": 3,
        "vertices": [[0, 0, 0], [2, 0, 0], [0, 3, 0], [0, 0, 7]],
    }
