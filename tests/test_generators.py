import itertools
import re
import time
from fractions import Fraction
from math import gcd

import pytest

import onepoint as op
from onepoint import generators
from oracles import atlas_sweep, linear_image, normal_form_2d, sylvester, translate
from oracles import zpw_lower_chain


def test_sylvester_frozen():
    assert sylvester(6).terms == (2, 3, 7, 43, 1807, 3263443)
    assert sylvester(1).terms == (2,)


def test_sylvester_recurrence():
    terms = sylvester(7).terms
    for a, b in zip(terms, terms[1:]):
        assert b == a * a - a + 1
    assert sum(Fraction(1, t) for t in terms) < 1


def test_sylvester_rejects_empty():
    with pytest.raises(ValueError):
        sylvester(0)


def test_zpw_simplex_frozen():
    assert op.zpw_simplex(1).vertices == ((0,), (2,))
    assert op.zpw_simplex(3).vertices == (
        (0, 0, 0),
        (2, 0, 0),
        (0, 3, 0),
        (0, 0, 7),
    )
    with pytest.raises(ValueError):
        op.zpw_simplex(0)


@pytest.mark.parametrize("build", [op.zpw_simplex, op.dilated_simplex, op.reflected_simplex])
@pytest.mark.parametrize("dim", [True, False, 2.0, Fraction(2), "2"])
def test_family_builders_refuse_a_dimension_that_is_not_an_int(build, dim):
    # a bool is an int subclass and would build conv{0, 2e_1} from True; a float or a
    # Fraction would reach islice, which refuses it with a message about its stop argument;
    # dilated's steps, d + 1 each, are drawn only after the one check
    with pytest.raises(ValueError, match=f"dimension must be an int, got {re.escape(repr(dim))}"):
        build(dim)


def test_zpw_simplex_cap_refusal():
    with pytest.raises(op.EnumerationCapError):
        op.zpw_simplex(4, cap=100)
    # the census box of zpw(4) is 3 * 4 * 8 * 44 = 4224 candidates
    assert op.zpw_simplex(4, cap=4224).vertices[-1] == (0, 0, 0, 43)
    with pytest.raises(op.EnumerationCapError, match="holds 4224 candidate points") as refusal:
        op.zpw_simplex(4, cap=4223)
    # one box refusal: a box the census can measure is built and refused there
    assert refusal.traceback[-1].name == "_census"
    # a box past both the cap and 2^128 is refused as the steps are drawn
    with pytest.raises(op.EnumerationCapError) as refusal:
        op.zpw_simplex(2000)
    assert refusal.traceback[-1].name == "_family_member"


@pytest.mark.parametrize("dim", range(6, 11))
def test_zpw_simplex_verifies_past_the_default_cap(dim):
    started = time.perf_counter()
    simplex = op.zpw_simplex(dim, cap=10**400)
    assert time.perf_counter() - started < 1
    assert op.enumerate_interior(simplex, cap=10**400, limit=2).points == ((1,) * dim,)


@pytest.mark.parametrize("build", [op.zpw_simplex, zpw_lower_chain])
def test_zpw_refuses_huge_dimension_before_building_terms(build):
    # the 41st Sylvester term has about 2^40 bits; the box guard refuses first
    started = time.perf_counter()
    with pytest.raises(op.EnumerationCapError):
        build(40)
    assert time.perf_counter() - started < 1


def test_canonical_examples_frozen():
    assert op.dilated_simplex(2).vertices == ((0, 0), (3, 0), (0, 3))
    assert op.reflected_simplex(2).vertices == ((-1, -1), (1, 0), (0, 1))
    assert op.enumerate_interior(op.dilated_simplex(1)).points == ((1,),)
    assert op.enumerate_interior(op.reflected_simplex(1)).points == ((0,),)
    for build in (op.dilated_simplex, op.reflected_simplex):
        with pytest.raises(ValueError):
            build(0)


def test_canonical_examples_sit_at_centroid():
    # the builders check only the census; the point is the centroid when, on every axis,
    # the vertices sum to d + 1 times it. Both census boxes fit the default cap to d = 8
    for d in range(1, 9):
        for simplex, point in ((op.dilated_simplex(d), (1,) * d),
                               (op.reflected_simplex(d), (0,) * d)):
            assert op.is_onepoint(simplex) == point
            assert [sum(axis) for axis in zip(*simplex.vertices)] == [(d + 1) * x for x in point]
            assert op.barycentric_of(simplex, point) == (Fraction(1, d + 1),) * (d + 1)


def test_normal_form_2d_frozen():
    nf = normal_form_2d(op.zpw_simplex(2))
    assert nf.simplex.vertices == ((1, 0), (0, 1), (-3, -2))
    assert nf.linear == ((2, 1), (1, 1))
    assert nf.offset == (-3, -2)
    tri3 = op.LatticeSimplex(((0, 0), (3, 0), (0, 3)))
    assert normal_form_2d(tri3).simplex.vertices == ((1, 0), (1, 3), (-2, -3))


def test_normal_form_2d_validation():
    with pytest.raises(ValueError):
        normal_form_2d(op.zpw_simplex(3))
    with pytest.raises(ValueError):
        normal_form_2d(op.LatticeSimplex(((0, 0), (1, 0), (0, 1))))


def test_normal_form_2d_idempotent():
    for seed in (op.zpw_simplex(2), op.reflected_simplex(2)):
        form = normal_form_2d(seed).simplex
        assert normal_form_2d(form).simplex == form


def test_normal_form_2d_unimodular_invariance(rng, unimodular):
    seeds = [op.zpw_simplex(2), op.dilated_simplex(2), op.reflected_simplex(2)]
    for simplex in seeds:
        reference = normal_form_2d(simplex).simplex
        for _ in range(20):
            linear = unimodular(2, rng)
            shift = tuple(rng.randint(-5, 5) for _ in range(2))
            moved = translate(linear_image(simplex, linear), shift)
            assert normal_form_2d(moved).simplex == reference


ATLAS_CLASSES = (
    (((1, 0), (0, 1), (-1, -1)), Fraction(3, 2), 4),
    (((1, 0), (0, 1), (-2, -1)), Fraction(2), 5),
    (((1, 0), (0, 1), (-3, -2)), Fraction(3), 7),
    (((1, 0), (1, 2), (-3, -4)), Fraction(4), 9),
    (((1, 0), (1, 3), (-2, -3)), Fraction(9, 2), 10),
)


def test_atlas_frozen():
    atlas = op.onepoint_triangle_atlas(9)
    assert atlas.radius == 9
    got = tuple((c.vertices, c.volume, c.point_count) for c in atlas.classes)
    assert got == ATLAS_CLASSES
    assert atlas.max_volume == Fraction(9, 2)
    assert atlas.max_point_count == 10
    slacks = {c.vertices: c.min_slack for c in atlas.classes}
    assert slacks[((1, 0), (0, 1), (-1, -1))] == Fraction(2, 9)
    assert slacks[((1, 0), (0, 1), (-3, -2))] == 0


def test_atlas_work_does_not_grow_with_radius(monkeypatch):
    calls = 0
    real = generators.col_hnf

    def counting(rows):
        nonlocal calls
        calls += 1
        return real(rows)

    monkeypatch.setattr(generators, "col_hnf", counting)
    counts = []
    for radius in (9, 30, 1000):
        calls = 0
        atlas = op.onepoint_triangle_atlas(radius)
        got = tuple((c.vertices, c.volume, c.point_count) for c in atlas.classes)
        assert got == ATLAS_CLASSES
        assert atlas.radius == radius
        counts.append(calls)
    assert counts[0] == 30  # one triangle per class, each in its 3! vertex orders
    assert counts == [counts[0]] * 3


def test_atlas_sweep_oracle_obeys_the_spoke_lemma():
    """The unpruned sweep's survivors have primitive spokes and empty spoke triangles."""
    survivors = atlas_sweep()
    assert survivors
    for vertices in survivors:
        for i, v in enumerate(vertices):
            w = vertices[(i + 1) % 3]
            assert gcd(*v) == 1
            assert v[0] * w[1] - v[1] * w[0] == gcd(w[0] - v[0], w[1] - v[1])
    forms = {generators._canonical_form(vertices) for vertices in survivors}
    assert forms == {vertices for vertices, _, _ in ATLAS_CLASSES}


def test_atlas_rejects_small_radius():
    with pytest.raises(ValueError):
        op.onepoint_triangle_atlas(8)


@pytest.mark.parametrize("radius", [9.5, 10.0, Fraction(19, 2), True, "9"])
def test_atlas_rejects_a_radius_that_is_not_an_int(radius):
    # the record keeps the radius, which the structured writer takes for an int; True is
    # no radius, and "9" is not compared with 9
    with pytest.raises(ValueError, match=r"box radius must be an int, got "):
        op.onepoint_triangle_atlas(radius)


def test_atlas_matches_exhaustive_small_search():
    """Independent route: every radius-3 triangle, no sweep machinery."""

    def cross(p, q):
        return p[0] * q[1] - p[1] * q[0]

    grid = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    forms = set()
    for a, b, c in itertools.combinations(grid, 3):
        s1 = cross((b[0] - a[0], b[1] - a[1]), (-a[0], -a[1]))
        s2 = cross((c[0] - b[0], c[1] - b[1]), (-b[0], -b[1]))
        s3 = cross((a[0] - c[0], a[1] - c[1]), (-c[0], -c[1]))
        if 0 in (s1, s2, s3) or not (s1 > 0) == (s2 > 0) == (s3 > 0):
            continue  # origin not strictly inside, or degenerate
        simplex = op.LatticeSimplex((a, b, c))
        if op.enumerate_interior(simplex).points != ((0, 0),):
            continue
        forms.add(normal_form_2d(simplex).simplex.vertices)
    assert forms == {vertices for vertices, _, _ in ATLAS_CLASSES}
