import itertools
import time
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onepoint as op
from onepoint.bounds import _integer_rows, _partition
from onepoint.certificate import _admissible
from onepoint.exact import SingularMatrixError
from oracles import invert_rat, mat_mul, minkowski_solve, partition_matrix


WIDE = op.LatticeSimplex(((0, 0), (7, 0), (0, 2)))


def brute_minkowski(matrix):
    # independent route: enumerate the whole inverse-row-sum box
    rows = [[Fraction(x) for x in row] for row in matrix]
    box = [ceil(sum(abs(e) for e in row)) - 1 for row in invert_rat(rows)]
    best = None
    for cand in itertools.product(*(range(-b, b + 1) for b in box)):
        if not any(cand):
            continue
        if all(abs(sum(c * x for c, x in zip(row, cand))) < 1 for row in rows):
            lead = next(v for v in cand if v)
            x = cand if lead > 0 else tuple(-v for v in cand)
            key = (tuple(abs(v) for v in reversed(x)), x)
            if best is None or key < best[0]:
                best = (key, x)
    assert best is not None
    return best[1]


def test_minkowski_solve_frozen():
    half = Fraction(1, 2)
    assert minkowski_solve([[half, 0], [0, half]]) == (1, 0)
    assert minkowski_solve([[Fraction(1, 3), 0], [0, 1]]) == (1, 0)
    system = partition_matrix(
        (Fraction(1, 2), Fraction(5, 14), Fraction(1, 7)), (2,)
    )
    assert minkowski_solve(system) == (1, 1, 2)


def test_minkowski_solve_validation():
    with pytest.raises(ValueError):
        minkowski_solve([[1, 0], [0, 1]])  # determinant not below 1
    with pytest.raises(ValueError):
        minkowski_solve([[Fraction(1, 2), 0]])  # not square
    with pytest.raises(SingularMatrixError):
        minkowski_solve([[Fraction(1, 2), 0], [Fraction(1, 2), 0]])


def random_contracting_matrix(rng, n):
    diag = [
        [Fraction(rng.randint(1, 2), rng.randint(3, 4)) if i == j else Fraction(0)
         for j in range(n)]
        for i in range(n)
    ]
    for _ in range(2):
        i, j = rng.sample(range(n), 2)
        shear = [
            [Fraction(1 if a == b else 0) for b in range(n)] for a in range(n)
        ]
        shear[i][j] = Fraction(rng.choice((-1, 1)))
        diag = [list(r) for r in (mat_mul(shear, diag) if rng.random() < 0.5
                                  else mat_mul(diag, shear))]
    return diag


def test_minkowski_solve_matches_brute_force(rng):
    checked = 0
    for _ in range(60):
        n = rng.choice((2, 3))
        matrix = random_contracting_matrix(rng, n)
        box = [
            ceil(sum(abs(e) for e in row)) - 1 for row in invert_rat(matrix)
        ]
        if any(b > 40 for b in box):
            continue
        assert minkowski_solve(matrix) == brute_minkowski(matrix)
        checked += 1
    assert checked >= 40


# coordinates spread over three decades, so many partitions are violated
coordinate_vectors = st.lists(
    st.builds(lambda m, e: m * 10**e, st.integers(1, 9), st.integers(0, 2)),
    min_size=3,
    max_size=7,
).map(lambda raw: tuple(Fraction(r, sum(raw)) for r in raw))


@given(coordinate_vectors)
@settings(max_examples=200, deadline=None)
def test_t_scan_matches_the_minkowski_box_search(coords):
    values = _integer_rows(coords)
    for mask in range(1, 2 ** len(values) - 1):
        record = _partition(values, mask)
        if record.slack >= 0:
            continue
        solution = minkowski_solve(partition_matrix(coords, record.sum_side))
        if solution[-1] < 0:
            solution = tuple(-v for v in solution)
        assert _admissible(values, record, op.DEFAULT_CAP) == (solution[:-1], solution[-1])


def test_t_scan_refuses_above_the_cap():
    # sum side 1/29 of conv{0, 29e1, 26e2} at (1, 1): total 26 of at most 56
    coords = op.barycentric_of(op.LatticeSimplex(((0, 0), (29, 0), (0, 26))), (1, 1))
    values = _integer_rows(coords)
    record = _partition(values, 0b010)  # sum side (1,)
    assert _admissible(values, record, 26) == ((25, 1), 26)
    with pytest.raises(op.EnumerationCapError) as err:
        _admissible(values, record, 25)
    assert (err.value.cap, err.value.required) == (25, 56)
    assert str(err.value) == (
        "certificate search may take 56 T-scan steps, above the enumeration cap of 25"
    )


def test_admissible_weights_frozen():
    values = _integer_rows(sorted(op.barycentric_of(WIDE, (1, 1)), reverse=True))
    record = _partition(values, 0b100)  # sum side (2,)
    assert _admissible(values, record, op.DEFAULT_CAP) == ((1, 1), 2)


def test_second_interior_point_frozen():
    cert = op.second_interior_point(WIDE, (1, 1))
    assert cert is not None
    assert cert.sum_side == (1,)
    assert cert.product_side == (0, 2)
    assert cert.ratio == Fraction(4, 5)
    assert cert.weights == (1, 1)
    assert cert.weight_order == (2, 0)
    assert cert.total == 2
    assert cert.anchor == (Fraction(0), Fraction(1))
    assert cert.point == (3, 1)
    assert cert.start == (1, 1)


@pytest.mark.parametrize("n", [10**5, 10**7])
def test_second_interior_point_on_wide_triangles(n):
    # the old box search grew with the width: 5.3 s at n = 10^5
    wide = op.LatticeSimplex(((0, 0), (n, 0), (0, 2)))
    started = time.perf_counter()
    cert = op.second_interior_point(wide, (1, 1))
    assert time.perf_counter() - started < 1
    assert cert.point == (3, 1)
    assert cert.weights == (1, 1)
    assert cert.total == 2


def test_second_interior_point_on_a_large_member_skips_the_partitions():
    # conv{-(1,...,1), e_1, ..., e_d} has 2^19 - 2 partitions at d = 18
    d = 18
    vertices = [(-1,) * d] + [tuple(int(i == j) for j in range(d)) for i in range(d)]
    started = time.perf_counter()
    assert op.second_interior_point(op.LatticeSimplex(vertices), (0,) * d) is None
    assert time.perf_counter() - started < 1


def test_second_interior_point_requires_interior_start():
    with pytest.raises(ValueError):
        op.second_interior_point(WIDE, (0, 0))
    with pytest.raises(ValueError):
        op.second_interior_point(WIDE, (9, 9))
    # a start that is not all ints is refused, not truncated onto (1, 1)
    for start in ((Fraction(3, 2), 1), (1.9, 1.0), (True, 1)):
        with pytest.raises(ValueError, match="expected an exact integer"):
            op.second_interior_point(WIDE, start)


def test_second_interior_point_absent_on_one_point_members():
    for d in range(1, 5):
        assert op.second_interior_point(op.zpw_simplex(d), (1,) * d) is None
    dilated, reflected = op.dilated_simplex(3), op.reflected_simplex(3)
    assert op.second_interior_point(dilated, (1, 1, 1)) is None
    assert op.second_interior_point(reflected, (0, 0, 0)) is None


def test_absence_does_not_imply_membership():
    # three interior points, yet every partition inequality holds at each
    big = op.LatticeSimplex(((0, 0), (4, 0), (0, 4)))
    points = op.enumerate_interior(big).points
    assert len(points) == 3
    for p in points:
        assert op.check_all_partitions(op.barycentric_of(big, p)).passed
        assert op.second_interior_point(big, p) is None


def test_random_violated_simplices_all_certified(rng):
    found = 0
    while found < 30:
        d = 2 if found % 2 == 0 else 3
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
        coords = op.barycentric_of(simplex, start)
        if op.check_all_partitions(coords).passed:
            continue
        cert = op.second_interior_point(simplex, start)
        assert cert is not None
        # the certificate is built on the first violated partition of the sorted coordinates
        order = sorted(range(len(coords)), key=lambda i: (-coords[i], i))
        ranked = [coords[i] for i in order]
        first = next(r for r in op.check_all_partitions(ranked).records if r.slack < 0)
        assert cert.sum_side == tuple(sorted(order[k] for k in first.sum_side))
        assert cert.weight_order == tuple(order[k] for k in first.product_side)
        assert cert.ratio == first.sum / first.product
        assert cert.point != start
        assert cert.point in census  # soundness, via the census route
        assert sum(cert.weights) == cert.total > 0
        found += 1
