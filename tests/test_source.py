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


def test_exact_holds_no_test_only_code():
    # a function of exact that only the tests call belongs in tests/oracles.py
    package = Path(onepoint.__file__).parent
    tree = ast.parse((package / "exact.py").read_text())
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
    assert {"adjugate_int", "row_hnf", "col_hnf"} <= public
    assert sorted(public - used) == []


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
