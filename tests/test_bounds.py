import dataclasses
import itertools
import random
import re
from fractions import Fraction
from math import ceil, factorial, floor, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import onepoint as op
import onepoint.bounds
import onepoint.simplex
from onepoint.points import _scan
from oracles import det_rat, first_partition_walk, fraction_lower_bounds, fraction_partition
from oracles import face_of, partition_matrix, zpw_lower_chain
from oracles import face_bound_records, rational_section_volume, section_simplex


ZPW2 = op.LatticeSimplex(((0, 0), (2, 0), (0, 3)))
ZPW3 = op.LatticeSimplex(((0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 7)))
TRI3 = op.LatticeSimplex(((0, 0), (3, 0), (0, 3)))
WIDE = op.LatticeSimplex(((0, 0), (7, 0), (0, 2)))

ZPW2_COORDS = (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))
# points of the wrong dimension for a triangle, and points of zpw(2) on its
# boundary, outside it, and at a vertex
MISFITS = ((1, 1, 1), (1,))
NOT_INSIDE = ((0, 1), (5, 5), (0, 0))
INSIDE_ERROR = "the point must lie strictly inside the simplex"
WIDE_COORDS = (Fraction(5, 14), Fraction(1, 7), Fraction(1, 2))


def test_partition_slack_frozen():
    # records run in sum-side bitmask order: record 0 is sum side (0,), record 1 is (1,)
    assert op.check_all_partitions(ZPW2_COORDS).records[0].slack == Fraction(0)
    centroid = (Fraction(1, 3),) * 3
    assert op.check_all_partitions(centroid).records[0].slack == Fraction(1, 3) - Fraction(1, 9)
    assert op.check_all_partitions(WIDE_COORDS).records[1].slack == Fraction(-1, 28)


def test_check_all_partitions_order_and_worst():
    report = op.check_all_partitions(WIDE_COORDS)
    assert len(report.records) == 6
    assert report.records[0].sum_side == (0,)
    assert report.records[1].sum_side == (1,)
    assert report.records[2].sum_side == (0, 1)
    assert not report.passed
    assert report.min_slack == Fraction(-1, 28)
    assert report.worst.sum_side == (1,)
    good = op.check_all_partitions(ZPW2_COORDS)
    assert good.passed and good.min_slack == 0


def test_descending_rows():
    descending = onepoint.bounds._descending
    assert descending((1, 3, 2)) == ((3, 2, 1), (1, 2, 0))
    # ties keep index order
    assert descending((2, 2, 2)) == ((2, 2, 2), (0, 1, 2))
    assert descending((1, 4, 1, 4)) == ((4, 4, 1, 1), (1, 3, 0, 2))


def test_reduced_system_frozen():
    assert op.reduced_system(op.barycentric_of(ZPW3, (1, 1, 1))) == (0, 0, 0)
    assert op.reduced_system((Fraction(1, 3),) * 3) == (Fraction(1, 3), Fraction(2, 9))
    assert op.reduced_system((Fraction(1, 2), Fraction(1, 2))) == (Fraction(0),)
    # the coordinates may come in any order
    assert op.reduced_system(ZPW2_COORDS) == op.reduced_system(sorted(ZPW2_COORDS)) == (0, 0)


def test_partition_matrix_frozen():
    sorted_coords = tuple(sorted(ZPW2_COORDS, reverse=True))  # (1/2, 1/3, 1/6)
    matrix = partition_matrix(sorted_coords, (2,))
    assert matrix == (
        (Fraction(2), Fraction(0), Fraction(-1)),
        (Fraction(0), Fraction(3), Fraction(-1)),
        (Fraction(-1), Fraction(-1), Fraction(1)),
    )
    assert det_rat(matrix) == 1


def test_partition_ratio_frozen():
    def ratios(coords):
        return {r.sum_side: r.sum / r.product for r in op.check_all_partitions(coords).records}

    descending = ratios(sorted(ZPW2_COORDS, reverse=True))
    assert descending[(2,)] == 1 and descending[(0,)] == 9
    assert ratios(WIDE_COORDS)[(1,)] == Fraction(4, 5)
    assert ratios((Fraction(1, 2), Fraction(1, 2)))[(0,)] == 1


def random_barycentric(rng, parts):
    weights = [rng.randint(1, 30) for _ in range(parts)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def test_ratio_equals_system_determinant_on_random_coordinates(rng):
    for _ in range(120):
        coords = random_barycentric(rng, rng.randint(2, 5))
        n = len(coords)
        records = op.check_all_partitions(coords).records
        assert len(records) == 2**n - 2
        for mask, record in zip(range(1, 2**n - 1), records):
            side = [i for i in range(n) if mask >> i & 1]
            det = det_rat(partition_matrix(coords, side))
            assert record.sum_side == tuple(side) and record.sum / record.product == det


def test_reduced_system_equivalent_to_full(rng):
    hits = 0
    for _ in range(150):
        coords = random_barycentric(rng, rng.randint(2, 5))
        full = op.check_all_partitions(coords).passed
        reduced = all(s >= 0 for s in op.reduced_system(coords))
        assert full == reduced
        hits += not full
    assert hits > 0  # the sample must exercise both outcomes


# weights from a short range tie often; the normalized coordinates have unequal denominators
WEIGHTS = st.lists(st.one_of(st.integers(1, 4), st.integers(1, 60)), min_size=2, max_size=9)


def _normalized(weights):
    return tuple(Fraction(w, sum(weights)) for w in weights)


def test_partition_records_match_chained_fractions_frozen():
    coords = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    assert onepoint.bounds._integer_rows(coords) == (3, 2, 1)
    records = op.check_all_partitions(coords).records
    assert records == tuple(fraction_partition(coords, mask) for mask in range(1, 7))
    assert records[3] == onepoint.bounds.PartitionRecord(
        (2,), (0, 1), Fraction(1, 6), Fraction(1, 6), Fraction(0)
    )


@settings(max_examples=100, deadline=None)
@given(WEIGHTS.filter(lambda w: len(w) <= 7).map(_normalized))
def test_partition_records_match_chained_fractions(coords):
    records = op.check_all_partitions(coords).records
    assert records == tuple(fraction_partition(coords, m) for m in range(1, 2 ** len(coords) - 1))
    ranked = tuple(sorted(coords, reverse=True))
    full = 2 ** len(coords) - 1
    assert op.reduced_system(coords) == tuple(
        fraction_partition(ranked, full ^ ((2 << j) - 1)).slack for j in range(len(coords) - 1)
    )


@settings(max_examples=150, deadline=None)
@given(WEIGHTS.map(_normalized), st.data())
def test_first_mask_search_matches_the_walk(coords, data):
    search, rows = onepoint.bounds._first_mask, onepoint.bounds._integer_rows
    # the certificate's use: the first violated partition of the descending coordinates
    ranked = tuple(sorted(coords, reverse=True))
    assert search(rows(ranked), Fraction(0), True) == first_partition_walk(ranked, 0, True)
    # human ineq's use: the first partition of least slack, over the original indexes;
    # the reduced system's minimum is the minimum over every partition
    slacks = [fraction_partition(coords, m).slack for m in range(1, 2 ** len(coords) - 1)]
    least = min(op.reduced_system(coords))
    assert least == min(slacks)
    mask = search(rows(coords), least, False)
    assert mask == first_partition_walk(coords, least, False) == slacks.index(least) + 1
    worst = onepoint.bounds._inequalities(rows(coords), least)
    assert worst.records == () and worst.worst == op.check_all_partitions(coords).worst
    # any bound at or beside a slack, strict or not
    bound = data.draw(st.sampled_from(slacks)) + data.draw(st.sampled_from((-1, 0, 1))) * Fraction(
        1, 10**6
    )
    strict = data.draw(st.booleans())
    assert search(rows(coords), bound, strict) == first_partition_walk(coords, bound, strict)


# a few distinct weights drawn again and again: ties on purpose
TIED_WEIGHTS = st.lists(st.integers(1, 60), min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=9))


@settings(max_examples=200, deadline=None)
@given(st.one_of(WEIGHTS, TIED_WEIGHTS).map(_normalized))
def test_lower_bounds_match_the_fraction_oracle(coords):
    report, oracle = op.coordinate_lower_bounds(coords), fraction_lower_bounds(coords)
    assert report == oracle
    fractions = [x for e in report.entries for x in (e.value, e.bound)]
    assert all(type(x) is Fraction for x in fractions + list(report.recursion_slacks))
    assert [(type(e.tight), type(e.ok)) for e in report.entries] == [(bool, bool)] * len(coords)
    assert report.order == tuple(sorted(range(len(coords)), key=lambda i: (-coords[i], i)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(WEIGHTS, TIED_WEIGHTS).filter(lambda w: len(w) <= 7), st.integers(2, 10**6))
def test_results_do_not_depend_on_the_denominator(values, k):
    # rows over |det| (atlas, bounds) and over the lcm of a vector's denominators
    # (ineq --point) differ by a factor; every field is a reduced fraction or an integer
    bounds, coords = onepoint.bounds, _normalized(values)
    ranked, full = tuple(sorted(coords, reverse=True)), 2 ** len(values) - 1
    results = []
    for rows in (tuple(values), tuple(k * n for n in values)):
        reduced = bounds._reduced(rows)
        report, lower = bounds._inequalities(rows), bounds._lower_bounds(rows)
        assert reduced == tuple(fraction_partition(ranked, full ^ ((2 << j) - 1)).slack
                                for j in range(len(values) - 1))
        assert report.records == tuple(fraction_partition(coords, m) for m in range(1, full))
        assert lower == fraction_lower_bounds(coords)
        results.append(_typed_fields((report, bounds._inequalities(rows, min(reduced)), lower,
                                      reduced)))
    assert results[0] == results[1]


def test_unique_interior_point():
    assert op.is_onepoint(ZPW2) == (1, 1)
    assert op.barycentric_of(ZPW2, (1, 1)) == ZPW2_COORDS
    assert op.is_onepoint(WIDE) is None


def test_coordinate_lower_bounds_frozen():
    report = op.coordinate_lower_bounds(op.barycentric_of(ZPW3, (1, 1, 1)))
    assert report.passed
    assert report.order == (1, 2, 3, 0)
    values = tuple(e.value for e in report.entries)
    assert values == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7), Fraction(1, 42))
    bounds = tuple(e.bound for e in report.entries)
    assert bounds == (
        Fraction(1, 4),
        Fraction(1, 16),
        Fraction(1, 256),
        Fraction(1, 65536),
    )
    assert report.recursion_slacks == (
        Fraction(5, 6),
        Fraction(17, 42),
        Fraction(1, 14),
    )
    centroid = op.coordinate_lower_bounds(op.barycentric_of(TRI3, (1, 1)))
    assert centroid.entries[0].tight
    assert [e.bound for e in centroid.entries] == [
        Fraction(1, 3),
        Fraction(1, 9),
        Fraction(1, 81),
    ]


def test_chain_decompose_frozen():
    report = op.chain_decompose(ZPW3, (1, 1, 1))
    assert report.passed
    level1, level2, level3 = report.levels
    assert level1.omitted == (0, 3)
    assert (level1.volume, level1.volume_bound) == (1, 4)
    assert (level1.count, level1.count_bound) == (2, 5)
    assert level2.volume == Fraction(1, 2)
    assert level3.volume == 7
    assert level3.count == 24
    segment = op.LatticeSimplex(((0,), (2,)))
    line = op.chain_decompose(segment, (1,))
    assert line.levels[0].volume == 2 and line.levels[0].volume_bound == 2
    for point in MISFITS:
        with pytest.raises(ValueError, match="point dimension does not match"):
            op.chain_decompose(ZPW2, point)


def test_zpw_lower_chain_frozen():
    report = zpw_lower_chain(2)
    assert report.passed
    first, second = report.levels
    assert first.volume == 2 and first.volume_bound == 1 and first.count == 3
    assert second.volume == 3 and second.volume_bound == Fraction(3, 2)
    assert second.count == 7
    assert all(level.volume_identity_ok for level in report.levels)
    for d in (1, 3, 4, 5):
        assert zpw_lower_chain(d).passed
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        zpw_lower_chain(0)


def _only(records, **fields):
    (record,) = [r for r in records if all(getattr(r, k) == v for k, v in fields.items())]
    return record


def test_face_volume_bound_frozen():
    tri3 = op.bounds_report(TRI3, (1, 1)).face_volume_bounds
    tight = _only(tri3, omitted=(), weight_set=(1, 2))
    assert tight.bound == Fraction(9, 2) and tight.slack == 0
    zpw2 = op.bounds_report(ZPW2, (1, 1)).face_volume_bounds
    loose = _only(zpw2, omitted=(), weight_set=(0, 2))
    assert loose.bound == 9 and loose.face_volume == 3 and loose.slack == 6
    edge = _only(zpw2, omitted=(1,), weight_set=(2,))
    assert edge.bound == 3 and edge.face_volume == 3 and edge.slack == 0


def test_bounds_report_evaluates_the_rows_once_per_check(monkeypatch):
    # the report reads the point's rows once; its parallelotope and sections reuse them
    calls = []
    original = onepoint.simplex._row_values

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(onepoint.simplex, "_row_values", counting)
    report = op.bounds_report(ZPW3, (1, 1, 1))
    assert len(report.sections) == 2 ** (3 + 1) - 1
    assert len(calls) == 1


def test_section_volume_frozen():
    check = op.bounds_report(TRI3, (1, 1)).sections[0b001]
    assert check.omitted == (0,)
    assert check.section_volume == 2 and check.predicted == 2 and check.passed
    sections = op.bounds_report(ZPW2, (1, 1)).sections
    slanted = sections[0b001]
    assert slanted.omitted == (0,)
    assert slanted.section_volume == Fraction(5, 6)
    assert slanted.face_volume == 1
    assert slanted.predicted == Fraction(5, 6) * slanted.face_volume
    assert slanted.passed
    whole = sections[0]
    assert whole.omitted == ()
    assert whole.section_volume == op.normalized_volume(ZPW2)
    assert whole.passed


@st.composite
def simplices_with_an_interior_point(draw, least_dim=2):
    d = draw(st.integers(least_dim, 5))
    vertex = st.lists(st.integers(-6, 6), min_size=d, max_size=d).map(tuple)
    vertices = draw(st.lists(vertex, min_size=d + 1, max_size=d + 1))
    try:
        simplex = op.LatticeSimplex(vertices)
    except ValueError:
        assume(False)
    census = op.enumerate_interior(simplex, limit=1)
    assume(census.count > 0)
    return simplex, census.points[0]


@given(simplices_with_an_interior_point())
@settings(max_examples=60, deadline=None)
def test_bounds_report_matches_rational_sections(case):
    # independent routes: sections built in Fractions and measured by Smith
    # divisors, and face bounds as a product of Fraction coordinates
    simplex, point = case
    bary = op.barycentric_of(simplex, point)
    report = op.bounds_report(simplex, point)
    assert len(report.sections) == 2 ** len(bary) - 1
    for check in report.sections:
        assert check.section_volume == rational_section_volume(simplex, bary, check.omitted)
    for record in report.face_volume_bounds:
        weights = record.weight_set
        product = prod((bary[i] for i in weights), start=Fraction(1))
        assert record.bound == 1 / (factorial(len(weights)) * product)


def _typed_fields(value):
    """A result with the type of every field and item, nested records included."""
    if dataclasses.is_dataclass(value):
        return [(f.name, type(getattr(value, f.name)), _typed_fields(getattr(value, f.name)))
                for f in dataclasses.fields(value)]
    if isinstance(value, tuple):
        return [(type(item), _typed_fields(item)) for item in value]
    return value


@given(simplices_with_an_interior_point(1))
@settings(max_examples=60, deadline=None)
def test_bounds_tables_match_the_face_by_face_loop(case):
    # the bitmask face table and records against each face built and measured on its own
    simplex, point = case
    volumes, faces, sections = face_bound_records(simplex, point)
    report = op.bounds_report(simplex, point)
    # the sections carry the face table, in omitted-set bitmask order
    assert [check.face_volume for check in report.sections] == volumes
    assert len(report.face_volume_bounds) == len(faces) == (simplex.dim + 1) * 2**simplex.dim
    assert len(report.sections) == len(sections) == 2 ** (simplex.dim + 1) - 1
    for got, want in zip((*report.face_volume_bounds, *report.sections), (*faces, *sections)):
        assert type(got) is type(want) and _typed_fields(got) == _typed_fields(want)


def test_parallelotope_frozen():
    box = op.bounds_report(ZPW2, (1, 1)).parallelotope
    assert box.volume == 4 and box.interior_count == 1 and box.passed
    assert box.omitted_index == 0
    small = op.bounds_report(op.reflected_simplex(3), (0, 0, 0)).parallelotope
    assert small.volume == Fraction(1, 2) and small.passed


def corner_box(simplex, point, omit):
    """Integer hull of the doubled-coordinate box's 2^d corners."""
    bary = op.barycentric_of(simplex, point)
    d = simplex.dim
    axes = [n for n in range(d + 1) if n != omit]
    base = simplex.vertices[omit]
    corners = []
    for picks in itertools.product((0, 1), repeat=d):
        corner = [Fraction(x) for x in base]
        for chosen, n in zip(picks, axes):
            if chosen:
                for c in range(d):
                    corner[c] += 2 * bary[n] * (simplex.vertices[n][c] - base[c])
        corners.append(corner)
    return tuple(
        (ceil(min(c[i] for c in corners)), floor(max(c[i] for c in corners)))
        for i in range(d)
    )


def full_box_parallelotope(simplex, point, omit):
    """Corner box and full-box lattice point count of the doubled-coordinate box.

    The loop the package ran before the shared scan kernel, around vertex
    ``omit`` as the origin (the package takes vertex 0): every candidate of
    the corner box is tested against 0 < row(x) < 2 row(p).
    """
    box = corner_box(simplex, point, omit)
    axes = [n for n in range(simplex.dim + 1) if n != omit]
    rows = simplex.functional_rows
    doubled = []
    for n in axes:
        coeffs, const = rows[n]
        doubled.append((coeffs, const, 2 * (sum(c * x for c, x in zip(coeffs, point)) + const)))
    count = 0
    for candidate in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
        for coeffs, const, top in doubled:
            value = sum(c * x for c, x in zip(coeffs, candidate)) + const
            if not 0 < value < top:
                break
        else:
            count += 1
    return box, count


def small_simplices(dim):
    def build(coords):
        try:
            return op.LatticeSimplex(tuple(tuple(c) for c in coords))
        except ValueError:
            return None

    return st.lists(
        st.lists(st.integers(-5, 5), min_size=dim, max_size=dim),
        min_size=dim + 1,
        max_size=dim + 1,
    ).map(build).filter(lambda s: s is not None)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_two_sided_scan_matches_full_box_loop(data):
    # around any interior point, member or not, the kernel counts what the loop counts
    dim = data.draw(st.integers(2, 3))
    simplex = data.draw(small_simplices(dim))
    points = op.enumerate_interior(simplex).points
    assume(points)
    point = data.draw(st.sampled_from(points))
    omit = data.draw(st.integers(0, dim))
    box, expected = full_box_parallelotope(simplex, point, omit)
    halfspaces = []
    for n in range(dim + 1):
        if n != omit:
            coeffs, const = simplex.functional_rows[n]
            top = 2 * (sum(c * x for c, x in zip(coeffs, point)) + const)
            halfspaces += [(coeffs, const - 1), (tuple(-c for c in coeffs), top - 1 - const)]
    assert _scan(halfspaces, box, 0) == (expected, [])
    assert expected >= 1  # the point itself


def test_parallelotope_matches_full_box_loop_on_corpus(corpus):
    # the package counts the box around vertex 0; around every vertex, the one point alone
    for member in corpus:
        point = op.is_onepoint(member)
        check = op.bounds_report(member, point).parallelotope
        assert check.interior_count == full_box_parallelotope(member, point, 0)[1]
        for omit in range(member.dim + 1):
            assert full_box_parallelotope(member, point, omit)[1] == 1


def test_parallelotope_cap_meets_the_corner_box(corpus):
    # the closed-form box is the corner loop's box: the cap refuses one below its size
    for member in corpus:
        point = op.is_onepoint(member)
        rows = onepoint.simplex._interior_values(member, point)
        size = prod(hi - lo + 1 for lo, hi in corner_box(member, point, 0))
        with pytest.raises(op.EnumerationCapError):
            onepoint.bounds._parallelotope(member, point, rows, size - 1)
        assert onepoint.bounds._parallelotope(member, point, rows, size).interior_count == 1


def test_corpus_extremes_frozen():
    summary = op.corpus_extremes([(ZPW2, (1, 1)), (TRI3, (1, 1))])
    assert len(summary) == 1
    d2 = summary[0]
    assert d2.dim == 2 and d2.members == 2
    assert d2.max_volume == Fraction(9, 2)
    assert d2.max_point_count == 10
    assert d2.min_coordinate == Fraction(1, 6)
    assert d2.volume_bound == Fraction(27, 2)
    assert d2.coordinate_bound == Fraction(1, 81)
    assert d2.comparison_coordinate_bound == Fraction(1, 14**8)
    assert d2.passed
    with pytest.raises(ValueError, match="full-dimensional"):
        op.corpus_extremes([(face_of(ZPW2, (0,)), (1, 1))])
    for point in MISFITS:
        with pytest.raises(ValueError, match="point dimension does not match"):
            op.corpus_extremes([(TRI3, (1, 1)), (ZPW2, point)])


@pytest.mark.parametrize("point", NOT_INSIDE)
def test_checks_around_the_point_refuse_a_point_not_inside(point):
    # every check around the interior point refuses it with the one message
    checks = (
        lambda: op.bounds_report(ZPW2, point),
        lambda: op.chain_decompose(ZPW2, point),
        lambda: op.corpus_extremes([(TRI3, (1, 1)), (ZPW2, point)]),
        lambda: section_simplex(ZPW2, point, (0,)),
    )
    for check in checks:
        with pytest.raises(ValueError, match=INSIDE_ERROR):
            check()


@given(
    st.integers(2, 60),
    st.one_of(
        st.integers(0, 6000),
        st.integers(1, 15).map(lambda k: 2**k),
        st.integers(1, 15).map(lambda k: 2**k - 1),
    ),
)
@settings(max_examples=300, deadline=None)
def test_bound_digits_are_counted_before_the_power(base, exponent):
    # the refusal names the power's exact digit count; checked in integers, not str()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(onepoint.bounds, "MAX_DIGITS", 0)
        with pytest.raises(op.BoundSizeError) as refusal:
            onepoint.bounds._power(base, exponent)
        digits = int(re.search(r"has (\d+) digits", str(refusal.value)).group(1))
        assert 10 ** (digits - 1) <= base**exponent < 10**digits
        patch.setattr(onepoint.bounds, "MAX_DIGITS", digits)
        assert onepoint.bounds._power(base, exponent) == base**exponent


@given(st.integers(2, 1000), st.integers(0, 300), st.integers(-2, 2))
@settings(max_examples=300, deadline=None)
def test_power_refuses_exactly_past_max_digits(base, exponent, offset):
    # small limits around the power's digit count, on both sides of the no-count fast path
    power = base**exponent
    limit = max(len(str(power)) + offset, 0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(onepoint.bounds, "MAX_DIGITS", limit)
        if len(str(power)) <= limit:
            assert onepoint.bounds._power(base, exponent) == power
        else:
            with pytest.raises(op.BoundSizeError):
                onepoint.bounds._power(base, exponent)
