import inspect
import json
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import onepoint as op
import onepoint.simplex
from oracles import det_int, invert_rat, linear_image, rank_rat, rational_volume
from oracles import face_of, section_simplex, translate


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
    d = draw(st.integers(1, 4))
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
        with pytest.raises(ValueError):
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
    # independent route: the rows are |det| times the Gauss-Jordan inverse
    dim = data.draw(st.integers(2, 6))
    simplex = data.draw(small_simplices(dim))
    hull = (*zip(*simplex.vertices), (1,) * (dim + 1))  # vertex columns over a row of ones
    absdet = abs(det_int(hull))
    scaled = [tuple(absdet * x for x in row) for row in invert_rat(hull)]
    assert [coeffs + (const,) for coeffs, const in simplex.functional_rows] == scaled
    point = data.draw(
        st.lists(st.fractions(-9, 9, max_denominator=7), min_size=dim, max_size=dim)
    )
    coords = op.barycentric_of(simplex, point)
    assert sum(coords) == 1
    rebuilt = [sum(c * v[i] for c, v in zip(coords, simplex.vertices)) for i in range(dim)]
    assert rebuilt == point


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


def test_face_and_volume_take_one_hermite_form(monkeypatch):
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
    face = face_of(zpw4, (0,))
    assert op.normalized_volume(face) == expected
    # one echelon of the edges decides independence and gives the volume: no
    # Hermite form with its transform, no Gram determinant, no Smith form, and
    # nothing more when the volume is read; the parent's vertices are integers
    # checked already, so the face does not check them again
    assert calls == {"echelon": 1}


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
