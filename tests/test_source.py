"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import onepoint


def test_no_bare_assert_in_package():
    # python -O strips assert statements, so result guards must raise
    sources = sorted(Path(onepoint.__file__).parent.glob("*.py"))
    assert len(sources) >= 7
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _functions_taking(*names):
    """Package functions with a parameter of each of ``names``."""
    return [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(Path(onepoint.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and set(names) <= {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
    ]


def test_no_verify_switch_in_package():
    # every builder returns a census-verified member; a switch to skip the check is a second route
    assert _functions_taking("verify") == []


def test_checks_beside_a_simplex_take_its_point():
    # coordinates passed beside a simplex need not belong to it; the interior point does
    assert _functions_taking("simplex", "coords") == []


def test_rows_carry_their_denominator():
    # a denominator passed beside integer rows need not be their sum; D = sum n always is
    assert _functions_taking("denominator") == []


def _public_and_uncalled(module):
    """The public functions of a package module, and those no package module calls."""
    package = Path(onepoint.__file__).parent
    tree = ast.parse((package / f"{module}.py").read_text())
    public = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    used = {
        node.id
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return public, sorted(public - used)


def test_exact_holds_no_test_only_code():
    # a function of exact that only the tests call belongs in tests/oracles.py; col_hnf is
    # the one Hermite routine, with no echelon, row form or transpose beside it, and the
    # adjugate is two halves of one elimination, with no whole pass beside them
    public, uncalled = _public_and_uncalled("exact")
    assert public == {"int_matrix", "eliminate_below", "adjugate_above", "col_hnf"}
    assert uncalled == []


def test_points_and_generators_hold_no_test_only_code():
    # a claim of the paper that no command states is checked in tests/oracles.py
    found = []
    for module, needed in (("points", {"enumerate_interior", "count_face_points"}),
                           ("generators", {"zpw_simplex", "onepoint_triangle_atlas"})):
        public, uncalled = _public_and_uncalled(module)
        assert needed <= public
        found += uncalled
    assert found == []


def test_certificate_and_bounds_hold_no_test_only_code():
    # the second-point construction runs through second_interior_point alone, and the
    # public bounds functions no command calls are the Fraction ones the acceptance tests state
    public, uncalled = _public_and_uncalled("certificate")
    assert "second_interior_point" in public
    assert uncalled == []
    public, uncalled = _public_and_uncalled("bounds")
    assert {"bounds_report", "chain_decompose", "corpus_extremes"} <= public
    assert uncalled == ["check_all_partitions", "coordinate_lower_bounds", "reduced_system"]


def _names_itertools_product(node):
    if isinstance(node, ast.Attribute):
        return node.attr == "product" and getattr(node.value, "id", None) == "itertools"
    if isinstance(node, ast.ImportFrom) and node.module == "itertools":
        return any(alias.name == "product" for alias in node.names)
    return False


def test_one_box_walk_in_package():
    # points._scan is the one census kernel; a product over the box would be a second walk
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(onepoint.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _names_itertools_product(node)
    ]
    assert found == []


# each module may import only modules of a lower layer: exact <- simplex <-
# points <- bounds <- certificate, generators <- cli
LAYERS = {
    "exact": 0,
    "simplex": 1,
    "points": 2,
    "bounds": 3,
    "certificate": 4,
    "generators": 4,
    "cli": 5,
}


def _package_imports(tree):
    """Names of the package modules a module imports, function-local imports included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("onepoint"):
                continue
            path = (node.module or "").removeprefix("onepoint").strip(".")
            if path:
                yield path.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("onepoint."):
                    yield alias.name.split(".")[1]


def test_modules_import_only_lower_layers():
    package = Path(onepoint.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert modules == sorted(LAYERS)
    upward = [
        f"{name} imports {target}"
        for name in modules
        for target in _package_imports(ast.parse((package / f"{name}.py").read_text()))
        if LAYERS.get(target, len(LAYERS)) >= LAYERS[name]
    ]
    assert upward == []


def test_one_census_entry():
    # points._census alone turns ranges on the rows into half-spaces and scans them;
    # simplex builds the rows, and no module but points reads them for a region
    package = Path(onepoint.__file__).parent
    scans, readers = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                callee = getattr(node, "func", None)
                if isinstance(node, ast.Call) and "_scan" in (getattr(callee, "id", None),
                                                              getattr(callee, "attr", None)):
                    scans.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
                if isinstance(node, ast.Attribute) and node.attr == "functional_rows":
                    readers.add(path.stem)
    assert scans == ["points._census"]
    assert readers == {"simplex", "points"}


def test_one_face_volume_route():
    # simplex alone measures a vertex set: the constructor sets the table, with a
    # full-dimensional simplex's |det| as its one entry, and otherwise _walk writes it,
    # stepping its columns with the column step of col_hnf; simplex alone reads the table,
    # no caller hands in a volume, and no _volume is stored beside it; the dependency
    # refusal is written once, and simplex imports no Hermite form; the one elimination of a
    # full-dimensional simplex runs in its constructor, which keeps |det| and its steps
    package = Path(onepoint.__file__).parent
    names, steps, tables, storing, stored, refusals = set(), set(), set(), set(), [], 0
    eliminations = []
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        refusals += text.count("vertices are affinely dependent")
        for top in ast.parse(text, filename=str(path)).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                callee = getattr(node, "func", None)
                name = getattr(callee, "id", None) or getattr(callee, "attr", None)
                names |= {getattr(node, key, None) for key in ("id", "attr", "name")}
                if isinstance(node, ast.Call) and name == "_column_step":
                    steps.add(where)
                if isinstance(node, ast.Call) and name == "eliminate_below":
                    eliminations.append(where)
                if isinstance(node, ast.Attribute) and node.attr == "_faces":
                    tables.add(where)
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                    storing.add(where)
                if isinstance(node, ast.Call) and {"'_faces'", "'_volume'", "'_elimination'"} & {
                        ast.unparse(arg) for arg in node.args}:
                    stored.append((where, ast.unparse(node)))
                if isinstance(node, ast.Attribute) and node.attr == "_volume":
                    stored.append((where, node.attr))
    assert not names & {"_volume_of", "_fill_faces"}
    assert steps == {"exact.col_hnf", "simplex._walk"}
    assert tables == {"simplex._face_volume", "simplex._walk"}
    assert tables & storing == {"simplex._walk"}  # of the two, only the walk writes an item
    assert sorted(stored) == [
        ("simplex._set_shape", "object.__setattr__(simplex, '_elimination', (det, pending))"),
        ("simplex._set_shape", "object.__setattr__(simplex, '_faces', {keys: det})"),
        ("simplex._set_shape", "object.__setattr__(simplex, '_faces', {})")]
    assert eliminations == ["simplex._set_shape"]
    assert refusals == 1
    imported = {alias.name for node in ast.walk(ast.parse((package / "simplex.py").read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "_column_step" in imported and "col_hnf" not in imported
