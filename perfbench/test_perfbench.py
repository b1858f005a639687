"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

The frozen censuses must match the brute-force oracle, the seeded maps
must carry each census exactly onto the census of the moved simplex, the
answer checks must accept the program's answers and refuse altered ones,
and a traced run must leave every binding of the package as it found it.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import AxisMap, build_repetition, load_fixtures  # noqa: E402

FIXTURES = load_fixtures()
ORACLE_BOX_LIMIT = 100_000  # the mapped-census test skips larger boxes to stay quick


def _box(vertices) -> int:
    size = 1
    for c in range(len(vertices[0])):
        size *= max(v[c] for v in vertices) - min(v[c] for v in vertices) + 1
    return size


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_oracle_matches_frozen_census(name):
    fx = FIXTURES[name]
    assert oracle.census(fx.vertices) == fx.census.points()


def test_dual_of_p1146_is_a_member_of_volume_12():
    fx = FIXTURES["dual1146"]
    assert fx.census.points() == [(0, 0, 0)]
    assert oracle.hull_volume_times_factorial(fx.vertices) == 12 * 6


@pytest.mark.parametrize(
    "name", sorted(n for n, fx in FIXTURES.items() if fx.cert and fx.cert["found"])
)
def test_frozen_certificates_are_second_interior_points(name):
    fx = FIXTURES[name]
    point, start = tuple(fx.cert["point"]), tuple(fx.cert["start"])
    forms = oracle.interior_forms(fx.vertices)
    assert point != start
    assert oracle.is_interior(forms, point) and oracle.is_interior(forms, start)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mapped_census_is_the_oracle_census_of_the_mapped_simplex(seed):
    rng = random.Random(seed)
    for fx in FIXTURES.values():
        if _box(fx.vertices) > ORACLE_BOX_LIMIT:
            continue
        m = AxisMap.draw(rng, fx.dim)
        expected = sorted(m(p) for p in fx.census.points())
        assert oracle.census([m(v) for v in fx.vertices]) == expected
        for k in {0, len(expected) // 2, len(expected) - 1}:
            assert fx.census.count_below(m, expected[k]) == k


@pytest.mark.parametrize("workload", ["census", "audit", "certify"])
def test_checks_accept_answers_and_refuse_altered_ones(workload, tmp_path):
    ops = build_repetition(workload, FIXTURES, random.Random(7), tmp_path)
    for op in ops:
        code, out, _, error = run.call(op.argv)
        assert error is None
        assert op.check(code, out) is None, op.argv
        assert op.check(code + 1, out) is not None
        lines = out.splitlines()
        altered = "\n".join(lines[:-2] + [lines[-1], lines[-2]]) + "\n"
        assert op.check(code, altered) is not None, op.argv


def test_verify_check_wants_the_lexicographically_first_points():
    fx = FIXTURES["tri300"]
    m = AxisMap.draw(random.Random(3), fx.dim)
    points = sorted(m(p) for p in fx.census.points())
    count = len(points)

    def output(listed):
        lines = [f"interior lattice points: {count}"] + [f"  {p}" for p in listed]
        return "\n".join(lines + [f"  ... {count - 20} more", "one-point member: no"]) + "\n"

    check = workloads._verify_check(fx, m)
    assert check(1, output(points[:20])) is None
    assert check(1, output(points[1:21])) is not None  # interior and sorted, not first
    outside = m(tuple(v + 1000 for v in fx.census.points()[0]))
    assert check(1, output(points[:19] + [outside])) is not None


def test_traced_run_restores_every_binding(tmp_path):
    import onepoint  # noqa: F401  (loads every layer module)

    before = {
        (module.__name__, name): value
        for module in tracer.package_modules()
        for name, value in vars(module).items()
    }
    bench = run.Run("census", 5, tmp_path / "work")
    bench.fixtures = FIXTURES
    metrics, _ = run.traced(bench, 0.01, tmp_path / "spans.tsv.gz")
    assert tracer.leftover_wrappers() == []
    for (module_name, name), value in before.items():
        assert vars(sys.modules[module_name])[name] is value, f"{module_name}.{name}"
    assert bench.failures == []
    assert metrics["points.calls"] >= 1
    assert metrics["points.points_emitted"] > 0
    assert (tmp_path / "spans.tsv.gz").stat().st_size > 0
