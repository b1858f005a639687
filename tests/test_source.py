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
