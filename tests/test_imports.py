"""What a process imports: the package's lazy names and each command's modules."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import onepoint
import onepoint as op

SRC = Path(onepoint.__file__).resolve().parent.parent

# a fresh interpreter imports the package from SRC, runs one step, and prints the
# exit code and the package modules then loaded; -I keeps the environment out
CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
argv = json.loads(sys.argv[2])
if argv is None:
    import onepoint
    for layer in json.loads(sys.argv[3]):
        getattr(onepoint, layer)
    code = None
else:
    import onepoint.cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = None if argv == "import" else onepoint.cli.main(argv)
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "onepoint")]))
"""

LAYERS = ("exact", "simplex", "points", "bounds", "certificate", "generators")


def fresh_process(argv, layers=()):
    """(exit code, the onepoint modules loaded) of ``argv`` run in a new interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", CHILD, str(SRC), json.dumps(argv), json.dumps(layers)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    code, modules = json.loads(done.stdout)
    return code, {m.removeprefix("onepoint").lstrip(".") or "onepoint" for m in modules}


@pytest.fixture(scope="module")
def shapes(tmp_path_factory):
    directory = tmp_path_factory.mktemp("shapes")
    paths = {}
    for name, simplex in (("zpw3", op.zpw_simplex(3)),
                          ("wide", op.LatticeSimplex(((0, 0), (7, 0), (0, 2))))):
        paths[name] = str(directory / f"{name}.json")
        Path(paths[name]).write_text(op.simplex_to_text(simplex), encoding="utf-8")
    return paths


def test_importing_the_package_or_the_cli_loads_no_layer():
    assert fresh_process(None) == (None, {"onepoint"})
    assert fresh_process("import") == (None, {"onepoint", "cli"})


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["verify"], 2)])
def test_parse_errors_and_help_load_no_layer(argv, code):
    assert fresh_process(argv) == (code, {"onepoint", "cli"})


def test_each_command_loads_only_the_layers_it_runs(shapes):
    zpw3, wide = shapes["zpw3"], shapes["wide"]
    census = {"onepoint", "cli", "exact", "simplex", "points"}
    for argv in (["verify", zpw3], ["bary", zpw3, "--point", "1,1,1"]):
        assert fresh_process(argv) == (0, census), argv
    for argv in (["ineq", zpw3], ["bounds", zpw3], ["chain", zpw3], ["report", zpw3],
                 ["cert", wide]):
        code, modules = fresh_process(argv)
        assert code == 0 and "bounds" in modules and "generators" not in modules, argv
        assert ("certificate" in modules) == (argv[0] == "cert"), argv
    for argv in (["gen", "--dim", "3"], ["atlas2d", "--radius", "9"]):
        code, modules = fresh_process(argv)
        assert code == 0 and "generators" in modules and "certificate" not in modules, argv


# the package's names by home module, as __init__ exported them when it imported them all
EXPORTS = {
    "bounds": [
        "BoundSizeError", "BoundsReport", "ChainReport", "InequalityReport", "LowerBoundReport",
        "PartitionRecord", "bounds_report", "chain_decompose", "check_all_partitions",
        "coordinate_lower_bounds", "corpus_extremes", "reduced_system",
    ],
    "certificate": ["SecondPointCertificate", "second_interior_point"],
    "generators": [
        "Atlas2D", "AtlasClass", "dilated_simplex", "onepoint_triangle_atlas",
        "reflected_simplex", "zpw_simplex",
    ],
    "points": [
        "DEFAULT_CAP", "EnumerationCapError", "InteriorCensus", "PointClass", "classify_point",
        "count_face_points", "enumerate_interior", "is_onepoint",
    ],
    "simplex": [
        "LatticeSimplex", "SimplexParseError", "barycentric_of", "check_barycentric",
        "normalized_volume", "parse_simplex_text", "simplex_to_text",
    ],
}


def test_package_names_are_their_home_modules_objects():
    assert [len(names) for names in EXPORTS.values()] == [12, 2, 6, 8, 7]
    assert onepoint.__all__ == sorted(name for names in EXPORTS.values() for name in names)
    for home, names in EXPORTS.items():
        module = importlib.import_module(f"onepoint.{home}")
        for name in names:
            assert getattr(onepoint, name) is getattr(module, name), name
            assert name in dir(onepoint)
    star = {}
    exec("from onepoint import *", star)
    assert sorted(set(star) - {"__builtins__"}) == onepoint.__all__
    with pytest.raises(AttributeError, match="no_such_name"):
        onepoint.no_such_name  # noqa: B018


def test_layer_modules_resolve_after_a_bare_import():
    _, modules = fresh_process(None, LAYERS)
    assert modules == {"onepoint", *LAYERS}
