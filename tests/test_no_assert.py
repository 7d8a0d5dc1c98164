"""The library raises its checks: `python -O` strips assert statements,
and no function takes a switch that turns its checks off."""

import ast
from pathlib import Path

import isokit


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(Path(isokit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"


def test_no_library_function_takes_a_validate_switch():
    """A public constructor always checks its input: no parameter and no
    keyword argument of the library is named validate."""
    found = []
    for path in sorted(Path(isokit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.arg, ast.keyword)) and node.arg == "validate"
        ]
    assert not found, f"validate switches in the library: {found}"
