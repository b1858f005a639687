import argparse
import dataclasses
import hashlib
import inspect
import itertools
import json
import re
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onepoint as op
import onepoint.bounds
import onepoint.certificate
import onepoint.exact
import onepoint.points
import onepoint.simplex
from onepoint.cli import _json, main
from oracles import json_hook, sylvester


@pytest.fixture
def files(tmp_path):
    """Exchange-format files for the recurring test shapes."""
    shapes = {
        "zpw2": op.zpw_simplex(2),
        "zpw3": op.zpw_simplex(3),
        "wide": op.LatticeSimplex(((0, 0), (7, 0), (0, 2))),
        "big": op.LatticeSimplex(((0, 0), (4, 0), (0, 4))),
        "tri3": op.LatticeSimplex(((0, 0), (3, 0), (0, 3))),
        "unit": op.LatticeSimplex(((0, 0), (1, 0), (0, 1))),
    }
    paths = {}
    for name, simplex in shapes.items():
        path = tmp_path / f"{name}.json"
        path.write_text(op.simplex_to_text(simplex), encoding="utf-8")
        paths[name] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_member(files, capsys):
    code, out, _ = run(capsys, "verify", files["zpw2"])
    assert code == 0
    assert "interior lattice points: 1" in out
    assert "one-point member: yes" in out


def test_verify_nonmember(files, capsys):
    code, out, _ = run(capsys, "verify", files["big"])
    assert code == 1
    assert "interior lattice points: 3" in out
    assert "one-point member: no" in out


def test_verify_counts_millions_and_lists_twenty(tmp_path, capsys):
    path = tmp_path / "tri3001.json"
    tri = op.LatticeSimplex(((0, 0), (3001, 0), (0, 3000)))
    path.write_text(op.simplex_to_text(tri), encoding="utf-8")
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", str(path))
    assert time.perf_counter() - started < 1
    listed = [f"  (1, {y})" for y in range(1, 21)]
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "interior lattice points: 4498500",
        *listed,
        "  ... 4498480 more",
        "one-point member: no",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("bary", "--point", "-1/3,2"),
        ("ineq", "--point", "-6,1/2"),
        ("cert", "--point", "-7,1"),
    ],
)
def test_point_takes_a_negative_first_coordinate(argv, tmp_path, capsys):
    # conv{0, 7e1, 2e2} moved by -8e1: interior points (-7, 1), (-6, 1), (-5, 1)
    path = tmp_path / "moved.json"
    moved = op.LatticeSimplex(((-8, 0), (-1, 0), (-8, 2)))
    path.write_text(op.simplex_to_text(moved), encoding="utf-8")
    command, flag, value = argv
    spaced = run(capsys, command, str(path), flag, value)
    joined = run(capsys, command, str(path), f"{flag}={value}")
    assert spaced == joined
    assert spaced[0] == 0, spaced[2]


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "vertices": [[0, 0], [1.5, 0], [0, 2]]}')
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert "fractional coordinate" in err
    code, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2
    assert "cannot read" in err


def test_hostile_documents_exit_2(tmp_path, capsys):
    # nesting past the recursion limit, and an integer past the digit limit
    documents = {
        "deep.json": "[" * 200000,
        "digits.json": '{"dim": 1, "vertices": [[' + "1" * 5000 + "], [0]]}",
    }
    for name, text in documents.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid document") and "set_int_max_str_digits" not in err


@pytest.mark.parametrize("command", ["bary", "ineq", "cert"])
@pytest.mark.parametrize(
    "point, message",
    [
        ("1e10000000,0", "is not an integer, a decimal or p/q"),
        ("1E3,0", "is not an integer, a decimal or p/q"),
        ("1" * 5000 + ",0", "a point coordinate has 5000 digits, more than 4300"),
        ("0,1/" + "3" * 4301, "a point coordinate has 4302 digits, more than 4300"),
    ],
)
def test_hostile_points_exit_2(command, point, message, files, capsys):
    started = time.perf_counter()
    code, out, err = run(capsys, command, files["wide"], "--point", point)
    assert time.perf_counter() - started < 1
    assert (code, out) == (2, "")
    assert message in err and "set_int_max_str_digits" not in err


@pytest.mark.parametrize("argv", [("--format", "structured", "bounds"),
                                  ("--format", "structured", "chain"), ("chain",)])
def test_numbers_past_the_interpreter_digit_limit_end_in_one_error_line(argv, tmp_path, capsys):
    # reflected(10)'s chain bounds run past 640 digits; every line is rendered before one is printed
    path = tmp_path / "reflected10.json"
    path.write_text(op.simplex_to_text(op.reflected_simplex(10)), encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, *argv, str(path))
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("error:") == 1 and err.count("\n") == 1


def test_cap_refusal_exits_3(files, capsys):
    code, _, err = run(capsys, "--cap", "10", "verify", files["zpw3"])
    assert code == 3
    assert "enumeration cap" in err


def test_cap_below_one_is_a_usage_error(files, capsys):
    for cap in ("0", "-5"):
        code, _, err = run(capsys, "--cap", cap, "verify", files["zpw2"])
        assert code == 2
        assert f"argument --cap: must be at least 1, got {cap}" in err
    assert run(capsys, "--cap", "1", "bary", files["tri3"], "--point", "1,1")[0] == 0
    code, _, err = run(capsys, "--cap", "abc", "verify", files["zpw2"])
    assert code == 2
    assert "argument --cap: invalid int value: 'abc'" in err


def test_bary_fractional_point(files, capsys):
    code, out, _ = run(capsys, "bary", files["tri3"], "--point", "3/2,3/2")
    assert code == 0
    assert "classification: boundary" in out
    # a decimal, a sign and spaces read the same; so do ".5" and "1."
    assert run(capsys, "bary", files["tri3"], "--point", " +1.5 , 3/2 ")[:2] == (0, out)
    assert run(capsys, "bary", files["tri3"], "--point", ".5,1.")[0] == 0
    code, _, err = run(capsys, "bary", files["tri3"], "--point", "1/0,1")
    assert code == 2 and "bad point" in err
    code, out, _ = run(capsys, "bary", files["tri3"], "--point", "1,1")
    assert code == 0
    assert "classification: interior" in out


def test_bary_evaluates_the_point_once(files, monkeypatch, capsys):
    bary = []
    record_calls(monkeypatch, onepoint.simplex, "barycentric_of", bary)
    code, out, _ = run(capsys, "bary", files["zpw3"], "--point", "1,1,1")
    assert code == 0 and "classification: interior" in out
    assert len(bary) == 1


def test_bary_wrong_arity_exits_2(files, capsys):
    code, _, err = run(capsys, "bary", files["tri3"], "--point", "1,2,3")
    assert code == 2
    assert "comma-separated" in err


def test_ineq_passes_on_member(files, capsys):
    code, out, _ = run(capsys, "ineq", files["zpw2"])
    assert code == 0
    assert "all partition inequalities hold" in out
    assert "reduced slacks: (0, 0)" in out


def test_ineq_names_violated_partition(files, capsys):
    code, out, _ = run(capsys, "ineq", files["wide"])
    assert code == 1
    assert "violated: sum over [1]" in out
    assert "1/7" in out


def test_ineq_checks_its_vector_once(files, monkeypatch, capsys):
    checks = []
    record_calls(monkeypatch, onepoint.simplex, "check_barycentric", checks)
    for argv, code in (((files["zpw3"],), 0), ((files["wide"],), 1),
                       ((files["wide"], "--point", "2,1"), 0)):
        checks.clear()
        assert run(capsys, "ineq", *argv)[0] == code
        # the point's rows are read and tested once, through _interior_values
        assert len(checks) == 0


def test_ineq_rejects_boundary_point(files, capsys):
    code, _, err = run(capsys, "ineq", files["wide"], "--point", "0,0")
    assert code == 2
    assert "strictly inside" in err


def test_bounds_command(files, capsys):
    code, out, _ = run(capsys, "bounds", files["zpw2"])
    assert code == 0
    assert "all bounds hold: yes" in out
    code, out, _ = run(capsys, "bounds", files["big"])
    assert code == 1
    assert "does not have exactly one" in out


def test_chain_command(files, capsys):
    code, out, _ = run(capsys, "chain", files["zpw2"])
    assert code == 0
    assert "chain bounds hold: yes" in out


def test_cert_constructs_second_point(files, capsys):
    code, out, _ = run(capsys, "cert", files["wide"], "--point", "1,1")
    assert code == 0
    assert "second interior point: (3, 1)" in out
    assert "ratio 4/5" in out


@pytest.mark.parametrize(
    "dim, argv, size",
    [
        # 14^(2^(d+1)), the comparison bound of the report
        (11, ("report",), "the bound 14^4096 has 4695 digits"),
        # (d+1)^(2^i - 1), the volume bound of the chain's top level
        (12, ("chain",), "the bound 13^4095 has 4562 digits"),
        (12, ("--format", "structured", "chain"), "the bound 13^4095 has 4562 digits"),
        # (d+1)^(2^k), the last sorted coordinate bound
        (12, ("bounds",), "the bound 13^4096 has 4563 digits"),
        (12, ("--format", "structured", "bounds"), "the bound 13^4096 has 4563 digits"),
    ],
)
def test_bounds_too_large_to_print_exit_3(dim, argv, size, tmp_path, capsys):
    path = tmp_path / f"reflected{dim}.json"
    path.write_text(op.simplex_to_text(op.reflected_simplex(dim)), encoding="utf-8")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (3, "")
    assert f"error: {size}, more than the 4300 that can be printed" in err


def test_cert_caps_the_t_scan(tmp_path, capsys):
    # from (1, 1) in conv{0, 29e1, 26e2} the certificate's total is 26
    path = tmp_path / "tri.json"
    path.write_text(
        op.simplex_to_text(op.LatticeSimplex(((0, 0), (29, 0), (0, 26)))), encoding="utf-8"
    )
    code, _, err = run(capsys, "--cap", "25", "cert", str(path), "--point", "1,1")
    assert code == 3
    assert "56 T-scan steps, above the enumeration cap of 25" in err
    code, out, _ = run(capsys, "--cap", "26", "cert", str(path), "--point", "1,1")
    assert code == 0
    assert "total 26" in out
    assert "second interior point: (27, 1)" in out


def test_cert_absent_on_member(files, capsys):
    code, out, _ = run(capsys, "cert", files["zpw2"])
    assert code == 0
    assert "no second point of this shape exists" in out


def test_ineq_and_cert_need_an_interior_point(files, capsys):
    # conv{0, e1, e2} has no interior lattice point to test or start from
    assert run(capsys, "ineq", files["unit"]) == (1, "no interior lattice point to test\n", "")
    assert run(capsys, "cert", files["unit"]) == (
        1, "no interior lattice point to start from\n", ""
    )
    for command in ("ineq", "cert"):
        code, out, _ = run(capsys, "--format", "structured", command, files["unit"])
        assert code == 1
        assert json.loads(out)["reason"] == "no interior lattice point"


def test_cert_evaluates_the_start_once(files, tmp_path, monkeypatch, capsys):
    # the start's integer rows are read once and never checked as a vector again
    rows, checks = [], []
    record_calls(monkeypatch, onepoint.simplex, "_row_values", rows)
    record_calls(monkeypatch, onepoint.simplex, "check_barycentric", checks)
    assert run(capsys, "cert", files["zpw3"])[0] == 0
    assert [args[1] for _, args, _ in rows] == [(1, 1, 1)] and checks == []
    # however late the first violated mask is: the 4th of 6 on the wide triangle and the
    # last, the 30th, at d = 4; the constructed point is read once more, as it is verified
    late = tmp_path / "late.json"
    late.write_text(op.simplex_to_text(op.LatticeSimplex(
        ((4, 4, -5, 4), (5, 0, -4, -1), (0, -1, 2, 0), (-3, 2, 2, -3), (-5, -1, -5, 0))
    )), encoding="utf-8")
    for path, second in ((files["wide"], (3, 1)), (str(late), (-1, 1, -3, 0))):
        rows.clear()
        code, out, _ = run(capsys, "cert", path)
        assert code == 0 and out.splitlines()[-1] == f"second interior point: {second}"
        start = tuple(int(x) for x in re.findall(r"-?\d+", out.splitlines()[0]))
        assert [args[1] for _, args, _ in rows] == [start, second]
    assert checks == []


def test_vertex_integers_are_checked_once(files, monkeypatch, capsys):
    # the exchange-format parser checks every coordinate; no route inside checks them again
    checks = []
    record_calls(monkeypatch, onepoint.exact, "int_matrix", checks)
    for argv, code in ((("verify", files["zpw3"]), 0), (("verify", files["big"]), 1),
                       (("--format", "structured", "verify", files["wide"]), 1)):
        assert run(capsys, *argv)[0] == code
    assert checks == []
    # cert checks only the start point it is handed, once
    for path, start in ((files["zpw3"], (1, 1, 1)), (files["wide"], (1, 1))):
        checks.clear()
        assert run(capsys, "cert", path)[0] == 0
        assert [args for _, args, _ in checks] == [([start],)]


def test_cert_rejects_non_interior_start(files, capsys):
    code, _, err = run(capsys, "cert", files["wide"], "--point", "0,0")
    assert code == 2
    assert "start point (0, 0) is not an interior lattice point" in err
    code, _, err = run(capsys, "cert", files["wide"], "--point", "1/2,1")
    assert code == 2
    assert "integer coordinates" in err


def test_gen_families(capsys):
    code, out, _ = run(capsys, "gen", "--dim", "2")
    assert code == 0
    assert "zpw:" in out and "dilated:" in out and "reflected:" in out
    for argv in (("--dim", "0"), ("--dim", "-3", "--family", "reflected")):
        assert run(capsys, "gen", *argv) == (2, "", "error: dimension must be at least 1\n")


def test_gen_builds_only_the_requested_family(capsys):
    # the reflected box holds 9 candidates; the dilated one, 16, is never built
    code, out, err = run(capsys, "--cap", "10", "gen", "--dim", "2", "--family", "reflected")
    assert code == 0, err
    assert out.startswith("reflected:") and "dilated" not in out


def test_gen_runs_one_census_per_family(monkeypatch, capsys):
    scans = []
    record_calls(monkeypatch, onepoint.points, "_scan", scans, every_binding=False)
    assert run(capsys, "gen", "--dim", "5")[0] == 0
    assert len(scans) == 3


def test_gen_refuses_unverifiable_dimension(capsys):
    code, _, err = run(capsys, "gen", "--dim", "6", "--family", "zpw")
    assert code == 3
    assert "enumeration cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "HUGE"),
        ("gen", "--dim", "15"),
        ("gen", "--dim", "40"),
        ("gen", "--dim", "40", "--family", "zpw"),
    ],
)
def test_huge_boxes_refuse_with_exit_3(argv, tmp_path, capsys):
    side = 10**1500
    huge = op.LatticeSimplex(((0, 0, 0), (side, 0, 0), (0, side, 0), (0, 0, side)))
    path = tmp_path / "huge.json"
    path.write_text(op.simplex_to_text(huge), encoding="utf-8")
    start = time.perf_counter()
    code, _, err = run(capsys, *(str(path) if a == "HUGE" else a for a in argv))
    assert time.perf_counter() - start < 5
    assert code == 3
    assert "enumeration cap" in err


@pytest.mark.parametrize("family", ["reflected", "dilated"])
def test_centroid_families_refuse_before_building(family, capsys):
    # the census box meets the cap before any vertex is built, and its product
    # stops past 128 bits instead of running over every dimension
    for dim in ("2000", "1000000"):
        start = time.perf_counter()
        code, _, err = run(capsys, "gen", "--dim", dim, "--family", family)
        assert time.perf_counter() - start < 1
        assert code == 3
        assert "enumeration cap" in err


def test_zpw_refuses_a_huge_dimension_at_once(capsys):
    # the Sylvester terms square at each step, so the box passes 128 bits within a few
    for dim in ("2000", "1000000"):
        start = time.perf_counter()
        code, _, err = run(capsys, "gen", "--dim", dim, "--family", "zpw")
        assert time.perf_counter() - start < 1
        assert code == 3
        assert "enumeration cap" in err


@pytest.mark.parametrize("family", ["zpw", "dilated", "reflected"])
def test_gen_reads_each_family_rows_once(family, monkeypatch, capsys):
    # the builder checks the centroid on the vertices; the payload's coordinates read the rows
    rows = []
    record_calls(monkeypatch, onepoint.simplex, "_row_values", rows)
    assert run(capsys, "gen", "--dim", "3", "--family", family)[0] == 0
    assert len(rows) == 1


@pytest.mark.parametrize("dim", range(1, 7))
def test_gen_sylvester_is_the_zpw_diagonal(dim, capsys):
    code, out, _ = run(capsys, "--cap", str(10**14), "--format", "structured",
                       "gen", "--dim", str(dim), "--family", "zpw")
    assert code == 0
    doc = json.loads(out)
    vertices = doc["families"]["zpw"]["vertices"]
    assert doc["sylvester"] == list(sylvester(dim).terms)
    assert doc["sylvester"] == [vertices[i + 1][i] for i in range(dim)]


def test_atlas_radius_validation(capsys):
    code, _, err = run(capsys, "atlas2d", "--radius", "5")
    assert code == 2
    assert "radius below 9" in err


def test_atlas_structured(capsys):
    code, out, _ = run(capsys, "--format", "structured", "atlas2d", "--radius", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["class_count"] == 5
    assert doc["max_volume"] == "9/2"
    assert doc["classes"][0]["vertices"] == [[1, 0], [0, 1], [-1, -1]]
    # the document is the atlas record itself, each class its record's fields
    fields = {f.name for f in dataclasses.fields(op.AtlasClass)}
    assert all(set(c) == fields for c in doc["classes"])
    top = {f.name for f in dataclasses.fields(op.Atlas2D)}
    assert set(doc) == top | {"class_count", "passed", "command", "config"}


def test_report_command(files, capsys):
    code, out, _ = run(capsys, "report", files["zpw2"], files["tri3"])
    assert code == 0
    assert "dimension 2 (2 members)" in out
    code, out, _ = run(capsys, "report", files["zpw2"], files["big"])
    assert code == 1
    assert "3 interior lattice points, expected 1" in out


def test_non_members_get_their_reply_in_both_formats(files, capsys):
    # bounds and chain need the one interior point, and wide has 3
    wide = files["wide"]
    replies = {
        ("bounds", wide): ("the simplex does not have exactly one interior lattice point",
                           "not a one-point simplex"),
        ("chain", wide): ("the simplex does not have exactly one interior lattice point",
                          "not a one-point simplex"),
        ("report", files["zpw2"], wide): (f"{wide}: 3 interior lattice points, expected 1",
                                          f"{wide} is not a one-point simplex"),
    }
    for argv, (line, reason) in replies.items():
        assert run(capsys, *argv) == (1, line + "\n", ""), argv
        code, out, err = run(capsys, "--format", "structured", *argv)
        doc = json.loads(out)
        assert (code, err, doc["passed"], doc["reason"]) == (1, "", False, reason), argv


def test_structured_output_is_deterministic(files, capsys):
    first = run(capsys, "--format", "structured", "ineq", files["zpw3"])
    second = run(capsys, "--format", "structured", "ineq", files["zpw3"])
    assert first == second
    assert first[0] == 0


def test_structured_output_has_no_floats(files, capsys):
    def reject(_):
        raise AssertionError("a float leaked into the structured output")

    for argv in (
        ("--format", "structured", "verify", files["zpw2"]),
        ("--format", "structured", "bounds", files["zpw2"]),
        ("--format", "structured", "cert", files["wide"], "--point", "1,1"),
        ("--format", "structured", "gen", "--dim", "3"),
    ):
        _, out, _ = run(capsys, *argv)
        doc = json.loads(out, parse_float=reject)
        assert doc["passed"] is True


def test_unknown_subcommand_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_reused_parser_keeps_no_state_between_calls(files, capsys):
    wide = files["wide"]
    codes = {  # argv: exit code
        ("ineq", "--point", "2,1", wide): 0,
        ("ineq", wide): 1,
        ("--cap", "1", "verify", wide): 3,
        ("verify", wide): 1,
        ("--format", "structured", "chain", wide): 1,
        ("chain", wide): 1,
        ("verify",): 2,
        ("--cap", "0", "verify", wide): 2,
        ("--help",): 0,
    }
    argvs = list(codes)
    seen = {}
    for argv in argvs + argvs[::-1]:
        seen.setdefault(argv, []).append(run(capsys, *argv))
    for argv, (first, again) in seen.items():
        assert first == again, argv
        assert first[0] == codes[argv], argv
    # the first six pair up, each pair differing only by an option, so a leaked value would show
    for given, default in zip(argvs[0:6:2], argvs[1:6:2]):
        assert seen[given][0] != seen[default][0]


def test_main_builds_no_parser(files, monkeypatch, capsys):
    built = []
    original = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in [("verify", files["zpw2"]), ("cert", files["wide"]), ("frobnicate",)] * 6 + [
        ("--format", "structured", "ineq", files["zpw2"]),
        ("gen", "--dim", "2"),
    ]:
        run(capsys, *argv)
    assert built == []


def record_calls(monkeypatch, module, name, calls, every_binding=True):
    """Append (name, args, kwargs) to ``calls`` on each call of module.name.

    With ``every_binding`` the recorder replaces the function wherever a
    package module imported it, so calls through any binding are seen.
    """
    original = getattr(module, name)

    def recorder(*args, **kwargs):
        calls.append((name, args, tuple(sorted(kwargs.items()))))
        return original(*args, **kwargs)

    if not every_binding:
        monkeypatch.setattr(module, name, recorder)
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "onepoint" or mod_name.startswith("onepoint."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, recorder)


def test_bounds_finds_the_interior_point_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "zpw5.json"
    path.write_text(op.simplex_to_text(op.zpw_simplex(5)), encoding="utf-8")
    bary, scans = [], []
    record_calls(monkeypatch, onepoint.simplex, "barycentric_of", bary)
    # census and face counts scan through this binding; the parallelotope has its own
    record_calls(monkeypatch, onepoint.points, "_scan", scans, every_binding=False)
    assert run(capsys, "bounds", str(path))[0] == 0
    assert len(bary) <= 2
    assert len(scans) == 1


def test_atlas_and_bounds_check_each_vector_once(files, monkeypatch, capsys):
    # the atlas, bounds and report read each point's integer rows: no vector of
    # fractions is checked, and none is turned back into rows
    checks = []
    record_calls(monkeypatch, onepoint.simplex, "check_barycentric", checks)
    record_calls(monkeypatch, onepoint.bounds, "_integer_rows", checks)
    for argv in (("atlas2d", "--radius", "9"), ("bounds", files["zpw3"]),
                 ("report", files["zpw3"])):
        assert run(capsys, *argv)[0] == 0
        assert checks == []


def test_bounds_builds_each_face_once(files, monkeypatch, capsys):
    # one elimination per vertex set: the parser's of the whole simplex, then the
    # face table's of every proper face, each omitted set once
    vertices = op.zpw_simplex(3).vertices
    eliminations = []
    record_calls(monkeypatch, onepoint.simplex, "_volume_of", eliminations)
    assert run(capsys, "bounds", files["zpw3"])[0] == 0
    omitted = [frozenset(i for i, v in enumerate(vertices) if v not in args[0])
               for _, args, _ in eliminations]
    assert len(omitted) == 2 ** (3 + 1) - 1
    assert set(omitted) == {frozenset(side) for k in range(4)
                            for side in itertools.combinations(range(4), k)}


def test_atlas_checks_its_integers_once_per_form(monkeypatch, capsys):
    # each of the 5 triangles' 3! vertex orders goes through col_hnf, which checks
    # no integer the sweep built; each of the 5 classes is built as a simplex once
    checks, forms = [], []
    record_calls(monkeypatch, onepoint.exact, "int_matrix", checks)
    record_calls(monkeypatch, onepoint.exact, "col_hnf", forms)
    assert run(capsys, "atlas2d", "--radius", "9")[0] == 0
    assert len(forms) == 5 * 3 * 2
    assert len(checks) == 5


def test_bounds_structured_order_frozen(tmp_path, capsys):
    # (d+1)*2^d face volume records in (excluded vertex, weight mask) order,
    # then 2^(d+1) - 1 sections; for d = 8 also the human lines
    frozen = {
        6: (448, 127, "0be3e94828494acaf1a1884b1f6eb37341a40393f0628c45ce9dc387438aee06"),
        8: (2304, 511, "87ba488bf5ad754f7dc356f3c309bbaac101147e54fa03448d3c2df4603cbd26"),
    }
    paths = {}
    for dim, (faces, sections, digest) in frozen.items():
        paths[dim] = tmp_path / f"reflected{dim}.json"
        paths[dim].write_text(op.simplex_to_text(op.reflected_simplex(dim)), encoding="utf-8")
        code, out, _ = run(capsys, "--format", "structured", "bounds", str(paths[dim]))
        doc = json.loads(out)
        assert code == 0
        assert (len(doc["face_volume_bounds"]), len(doc["sections"])) == (faces, sections)
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    code, out, _ = run(capsys, "bounds", str(paths[8]))
    assert code == 0
    assert out.splitlines() == [
        "sorted coordinate bounds: ok (closest at position 0: 1/9 vs 1/9)",
        "face volume bounds: 2304/2304 hold",
        "parallelotope: volume 256/4782969 <= 256, interior count 1",
        "sections: 511/511 match exactly",
        "all bounds hold: yes",
    ]


def test_chain_runs_one_census_and_one_count_per_level(files, monkeypatch, capsys):
    censuses, counts = [], []
    record_calls(monkeypatch, onepoint.points, "enumerate_interior", censuses)
    record_calls(monkeypatch, onepoint.points, "count_face_points", counts)
    assert run(capsys, "chain", files["zpw3"])[0] == 0
    assert len(censuses) == 1
    assert len(counts) == 3


def test_chain_reads_the_stored_volume_at_the_top(files, monkeypatch, capsys):
    # the parser eliminates the whole simplex once; then one elimination per proper level
    eliminations = []
    record_calls(monkeypatch, onepoint.simplex, "_volume_of", eliminations)
    assert run(capsys, "chain", files["zpw3"])[0] == 0
    assert [len(args[0]) for _, args, _ in eliminations] == [4, 2, 3]
    assert tuple(eliminations[0][1][0]) == op.zpw_simplex(3).vertices


def test_atlas_repeats_no_points_call(monkeypatch, capsys):
    calls = []
    for name, value in list(vars(onepoint.points).items()):
        if (inspect.isfunction(value) and value.__module__ == "onepoint.points"
                and not name.startswith("_")):
            record_calls(monkeypatch, onepoint.points, name, calls)
    assert run(capsys, "atlas2d", "--radius", "9")[0] == 0
    keys = [repr(call) for call in calls]
    assert keys and len(set(keys)) == len(keys)


# SHA-256 of each structured document, dumped with sorted keys and no
# whitespace; a change to any record field changes its digest
FROZEN_DOCUMENTS = {
    "verify zpw3": (
        0, "fc78c5c3f1e84283324e59712c03e9cfb1f37a2824952d975cabdc662a591661"
    ),
    "verify big": (
        1, "db063b334277304b983602c7aa390b1923a94577526880768d89cc20da1943f4"
    ),
    "bary zpw3 1,1,1": (
        0, "13c83fe063d338405d55f99bcb5675a09089600e9e0d258479e99d67db836668"
    ),
    "bary tri3 3/2,3/2": (
        0, "8dab2495864f6c4f853222928842448077d71e45e227a85db1e30255a1588fa9"
    ),
    "ineq zpw3": (
        0, "9ab7de88f518cbab132f44627bd5a9a9aa47e93fc7bd505bfcd9fca9e7689ddb"
    ),
    "ineq zpw3 1/2,1/2,1/2": (
        1, "a3cc752e2b603d4a4bbaa3dbbcb6933ffe72a3668e80f68cb3acf1cb96e1fdfc"
    ),
    "ineq wide": (
        1, "9eb02d54ee0cd668a20ee02b937fe3dbf1a59ef63eba75842a20021366e40802"
    ),
    "bounds zpw3": (
        0, "83d63501c72d370cf988e281cd36c50a5d43c04c7ba2b036fe0e9711414e4d51"
    ),
    "bounds big": (
        1, "a285006c8b55c15002dee80717c98029a19b31ef47901a5dc1b95d7eb9fcf4b4"
    ),
    "chain zpw3": (
        0, "d1edf949dd4a14307545bc47171d4d72b88619e25ab4a2def7eb944b7f7c563b"
    ),
    "cert zpw3": (
        0, "a84511065f6bddaeabbc1e601701f4a9709639642309e74bc43d23cc60f27185"
    ),
    "cert wide 1,1": (
        0, "7471280755846309b6a4dc109ca47751540ec5c18690f0dc2c051196f86fe57a"
    ),
    "gen 3": (
        0, "f37179bbd7e4e0c5745cfc0f6517f718e3b129c2c9210e41287e3924ad4dc7bc"
    ),
    "atlas2d 9": (
        0, "8a720f6015754452b734cddc0a9f543d876585205cf1079e3210fab5d4f318fe"
    ),
    "report zpw2 zpw3 tri3": (
        0, "e2dc981b28f1227040f1d914d6d88b49640531056f0561c31b207f3ded7adf50"
    ),
}


def test_structured_documents_match_frozen_digests(files, tmp_path, monkeypatch, capsys):
    # file names relative to the working directory keep ``report`` paths stable
    monkeypatch.chdir(tmp_path)
    got = {}
    for key in FROZEN_DOCUMENTS:
        command, *rest = key.split()
        if command == "gen":
            argv = ["gen", "--dim", rest[0]]
        elif command == "atlas2d":
            argv = ["atlas2d", "--radius", rest[0]]
        elif command == "report":
            argv = ["report", *(f"{name}.json" for name in rest)]
        else:
            argv = [command, f"{rest[0]}.json"] + (["--point", rest[1]] if rest[1:] else [])
        code, out, _ = run(capsys, "--format", "structured", *argv)
        # the digests hash a re-serialized form, blind to whitespace; the layout is checked here
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n", key
        text = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
        got[key] = (code, hashlib.sha256(text.encode("utf-8")).hexdigest())
    assert got == FROZEN_DOCUMENTS


def test_structured_stdout_bytes_frozen(tmp_path, capsysbinary):
    # SHA-256 of the raw stdout, indentation and escapes included
    frozen = {
        ("bounds", "reflected3"): (
            9640, "4c5c3f3f4fd029a8df813f5da746c4ffaf0803c18883c486ef9dfafd575544fa"
        ),
        ("ineq", "zpw3"): (
            2859, "ac8c144e7e7518c9632b7baa0363e2b894ba5fe4d0e2c8a037b3fd3984aed5f5"
        ),
    }
    shapes = {"reflected3": op.reflected_simplex(3), "zpw3": op.zpw_simplex(3)}
    got = {}
    for command, name in frozen:
        path = tmp_path / f"{name}.json"
        path.write_text(op.simplex_to_text(shapes[name]), encoding="utf-8")
        assert main(["--format", "structured", command, str(path)]) == 0
        out = capsysbinary.readouterr().out
        got[command, name] = (len(out), hashlib.sha256(out).hexdigest())
    assert got == frozen


# the package's result records, built below with arbitrary field values
RECORDS = sorted(
    (
        value
        for module in (onepoint.bounds, onepoint.certificate, onepoint.points)
        for value in vars(module).values()
        if isinstance(value, type) and dataclasses.is_dataclass(value)
        and value is not op.LatticeSimplex
    ),
    key=lambda cls: cls.__name__,
)
TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\U0001f600'),
                         st.characters()))
INTS = st.one_of(st.integers(), st.integers(min_value=-(10**80), max_value=10**80))
# lists and tuples of ints alone, empty ones included, take the writer's fast path;
# a bool among ints must not
INT_ROWS = st.one_of(
    st.lists(INTS, max_size=5),
    st.lists(INTS, max_size=5).map(tuple),
    st.lists(st.one_of(INTS, st.booleans()), max_size=5),
    st.lists(st.one_of(INTS, st.booleans()), max_size=5).map(tuple),
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    INTS,
    st.fractions(),
    st.fractions(max_denominator=10**30),
    TEXT,
    INT_ROWS,
    st.sampled_from(RECORDS).flatmap(
        lambda cls: st.builds(cls, *[st.lists(INTS, max_size=5).map(tuple)] * len(
            dataclasses.fields(cls)))
    ),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        st.sampled_from(RECORDS).flatmap(
            lambda cls: st.builds(cls, *[children] * len(dataclasses.fields(cls)))
        ),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(LEAVES, _containers, max_leaves=40))
def test_writer_matches_json_dumps(payload):
    assert _json(payload) == json.dumps(payload, default=json_hook, sort_keys=True, indent=2)


def test_writer_payloads_hold_every_result_record():
    carried = {
        "PartitionRecord", "BoundsReport", "LowerBoundReport", "LowerBoundEntry",
        "FaceVolumeBound", "ParallelotopeCheck", "SectionVolumeCheck", "ChainReport",
        "ChainLevel", "SecondPointCertificate", "DimensionExtremes",
    }
    assert carried <= {cls.__name__ for cls in RECORDS}


@pytest.mark.parametrize(
    "value",
    [1.5, [0, {"a": -0.0}], {1, 2}, frozenset(), object(), op.PartitionRecord, (1, 2, 1.5),
     op.PartitionRecord((0, 0.5), (1,), 1, 1, 0)],
)
def test_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json(value)
