"""Acceptance gate for the whole package.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (visible under ``pytest -s``), so the gate can be read as a
checklist.  Every comparison is exact; the only tolerances are the
wall-clock budgets on the enumeration-heavy criteria.
"""

import functools
import time
from fractions import Fraction
from math import factorial

import onepoint as op
from oracles import blichfeldt_check, face_of, linear_image, normal_form_2d, section_simplex
from oracles import sylvester, translate, zpw_lower_chain

WIDE = op.LatticeSimplex(((0, 0), (7, 0), (0, 2)))


def interior(member):
    """The member's one interior lattice point and its barycentric coordinates."""
    point = op.is_onepoint(member)
    assert point is not None
    return point, op.barycentric_of(member, point)


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:>2} ({label}): FAIL")
                raise
            print(f"criterion {number:>2} ({label}): PASS")
            return result

        return wrapper

    return decorate


@criterion(1, "extremal family membership")
def test_criterion_01_zpw_membership():
    started = time.perf_counter()
    for d in range(1, 6):
        simplex = op.zpw_simplex(d)
        census = op.enumerate_interior(simplex)
        assert census.points == ((1,) * d,)
        terms = sylvester(d + 1).terms
        expected = (Fraction(1, terms[d] - 1),) + tuple(
            Fraction(1, t) for t in terms[:d]
        )
        coords = op.barycentric_of(simplex, (1,) * d)
        assert coords == expected
        assert sum(coords) == 1
    assert time.perf_counter() - started < 120


@criterion(2, "extremal family exhausts the slack")
def test_criterion_02_zpw_reduced_slacks(zpw_family):
    for d, simplex in zpw_family.items():
        coords = op.barycentric_of(simplex, (1,) * d)
        reduced = op.reduced_system(coords)
        assert reduced == (Fraction(0),) * d


@criterion(3, "partition inequalities corpus-wide")
def test_criterion_03_partition_inequalities(corpus):
    for member in corpus:
        _, coords = interior(member)
        report = op.check_all_partitions(coords)
        assert report.passed
        assert len(report.records) == 2 ** (member.dim + 1) - 2
        assert report.min_slack >= 0


@criterion(4, "sorted coordinate lower bounds")
def test_criterion_04_coordinate_lower_bounds(corpus, canonical_family):
    for member in corpus:
        report = op.coordinate_lower_bounds(interior(member)[1])
        assert report.passed
        d = member.dim
        for k, entry in enumerate(report.entries):
            assert entry.position == k
            assert entry.bound == Fraction(1, (d + 1) ** (2**k))
            assert entry.value >= entry.bound
    for pair in canonical_family.values():
        for member in pair:
            _, coords = interior(member)
            assert op.coordinate_lower_bounds(coords).entries[0].tight


@criterion(5, "chain bounds, both directions")
def test_criterion_05_chain_bounds(corpus):
    for member in corpus:
        report = op.chain_decompose(member, interior(member)[0])
        assert report.passed
        d = member.dim
        for level in report.levels:
            i = level.level
            assert level.volume_bound == Fraction((d + 1) ** (2**i - 1), factorial(i))
            assert level.count_bound == i + (d + 1) ** (2**i - 1)
    for d in range(1, 6):
        lower = zpw_lower_chain(d)
        assert lower.passed
        terms = sylvester(d + 1).terms
        for level in lower.levels:
            i = level.level
            assert level.volume == Fraction(terms[i] - 1, factorial(i))
            assert level.volume_identity_ok and level.count_ok


@criterion(6, "second-point certificates")
def test_criterion_06_certificates(corpus, rng):
    started = time.perf_counter()
    cert = op.second_interior_point(WIDE, (1, 1))
    assert cert is not None and cert.point == (3, 1)
    assert cert.point in op.enumerate_interior(WIDE).points

    produced = 0
    while produced < 100:
        d = 2 if produced % 2 == 0 else 3
        lim = 6 if d == 2 else 4
        verts = tuple(
            tuple(rng.randint(-lim, lim) for _ in range(d)) for _ in range(d + 1)
        )
        try:
            simplex = op.LatticeSimplex(verts)
        except ValueError:
            continue
        census = op.enumerate_interior(simplex).points
        if len(census) < 2:
            continue
        start = census[0]
        if op.check_all_partitions(op.barycentric_of(simplex, start)).passed:
            continue  # no partition system is contracting here
        found = op.second_interior_point(simplex, start)
        assert found is not None
        assert found.point != start and found.point in census
        produced += 1

    for member in corpus:
        point, _ = interior(member)
        assert op.second_interior_point(member, point) is None
    assert time.perf_counter() - started < 60


@criterion(7, "ratio equals the system determinant")
def test_criterion_07_ratio_determinant(rng):
    from oracles import det_rat, partition_matrix

    passes = fails = 0
    for trial in range(1000):
        d = 1 + trial % 4
        weights = [rng.randint(1, 30) for _ in range(d + 1)]
        total = sum(weights)
        coords = tuple(Fraction(w, total) for w in weights)
        for mask in range(1, 2 ** (d + 1) - 1):
            side = tuple(i for i in range(d + 1) if mask >> i & 1)
            rest = tuple(i for i in range(d + 1) if not mask >> i & 1)
            formula = sum((coords[i] for i in side), start=Fraction(0))
            for j in rest:
                formula /= coords[j]
            assert formula == det_rat(partition_matrix(coords, side))
        full = op.check_all_partitions(coords).passed
        reduced = op.reduced_system(coords)
        assert full == all(s >= 0 for s in reduced)
        passes += full
        fails += not full
    assert passes > 0 and fails > 0


@criterion(8, "face volumes against coordinate products")
def test_criterion_08_face_volume_bounds(corpus, canonical_family):
    for member in corpus:
        d = member.dim
        point, _ = interior(member)
        records = op.bounds_report(member, point).face_volume_bounds
        assert len(records) == (d + 1) * 2**d
        assert all(record.passed for record in records)
    for d in range(1, 5):
        dilated = canonical_family[d][0]
        point, _ = interior(dilated)
        (full,) = [
            record
            for record in op.bounds_report(dilated, point).face_volume_bounds
            if record.omitted == () and record.weight_set == tuple(range(1, d + 1))
        ]
        assert full.slack == 0


@criterion(9, "section volumes")
def test_criterion_09_section_volumes(corpus):
    # the report's volume law against each section measured from its own
    # vertices; the corpus holds zpw, dilated and reflected up to d = 5
    for member in corpus:
        point, _ = interior(member)
        sections = op.bounds_report(member, point).sections
        assert len(sections) == 2 ** (member.dim + 1) - 1
        for check in sections:
            section, denominator = section_simplex(member, point, check.omitted)
            own = op.normalized_volume(section) / denominator**section.dim
            assert check.passed and check.section_volume == own


@criterion(10, "planar atlas is stable and extremal")
def test_criterion_10_planar_atlas():
    started = time.perf_counter()
    at30 = op.onepoint_triangle_atlas(30)
    at33 = op.onepoint_triangle_atlas(33)
    classes30 = {c.vertices for c in at30.classes}
    classes33 = {c.vertices for c in at33.classes}
    assert classes30 == classes33
    assert at30.max_volume == Fraction(9, 2)
    tri3 = op.LatticeSimplex(((0, 0), (3, 0), (0, 3)))
    best = max(at30.classes, key=lambda c: c.volume)
    assert normal_form_2d(tri3).simplex.vertices == best.vertices
    # the map to each class's form is unimodular and reproduces it
    assert all(normal_form_2d(op.LatticeSimplex(c.vertices)).simplex.vertices == c.vertices
               for c in at30.classes)
    assert all(c.volume <= Fraction(27, 2) for c in at30.classes)
    assert time.perf_counter() - started < 30


@criterion(11, "lattice point count bound on every face")
def test_criterion_11_blichfeldt(corpus):
    for member in corpus:
        for mask in range(2 ** (member.dim + 1) - 1):
            omitted = tuple(i for i in range(member.dim + 1) if mask >> i & 1)
            face = face_of(member, omitted)
            count = op.count_face_points(member, omitted)
            assert blichfeldt_check(face, count).passed


@criterion(12, "unimodular affine invariance")
def test_criterion_12_unimodular_invariance(corpus, rng, unimodular):
    pool = [m for m in corpus if m.dim <= 3]
    for trial in range(200):
        member = pool[trial % len(pool)]
        d = member.dim
        linear = unimodular(d, rng)
        shift = tuple(rng.randint(-7, 7) for _ in range(d))
        moved = translate(linear_image(member, linear), shift)

        assert op.normalized_volume(moved) == op.normalized_volume(member)
        census = op.enumerate_interior(moved)
        assert len(census.points) == 1
        point, coords = interior(moved)
        _, original = interior(member)
        assert sorted(coords) == sorted(original)
        ours = [r.slack for r in op.check_all_partitions(coords).records]
        theirs = [r.slack for r in op.check_all_partitions(original).records]
        assert ours == theirs
