"""The library raises its checks: `python -O` strips assert statements."""

import ast
from pathlib import Path

import isokit


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(Path(isokit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"
