"""The library raises its checks: `python -O` strips assert statements,
and no function takes a switch that turns its checks off.  Every private
helper it defines is named somewhere else in it, and a kept answer is a
cached property of its own object, never a write into a read-only record
or from outside it.  An int check admits no bool, and no module imports
dataclasses."""

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


def test_no_library_code_writes_through_object_setattr():
    """Answers kept on an object are functools.cached_property values, so
    no object.__setattr__ call gets round a read-only object."""
    found = []
    for path in sorted(Path(isokit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
        ]
    assert not found, f"object.__setattr__ calls in the library: {found}"


def test_no_library_code_writes_an_attribute_of_another_object():
    """An object keeps its own derived data as cached properties, so the
    library assigns no attribute of anything but self.  An _assemble
    classmethod fills the instance it has just made; an item written into
    a memo dict an object owns, as g._cosets[h] = ..., is no attribute."""
    found = []
    for path in sorted(Path(isokit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        assembling = {
            id(n)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "_assemble"
            for n in ast.walk(fn)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            and id(node) not in assembling
        ]
    assert not found, f"writes to another object's attributes in the library: {found}"


def _referenced(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_every_private_helper_is_used_elsewhere_in_the_library():
    """A private module-level function or class that no other statement of
    the library names is dead code, left behind by a refactor."""
    private, used = [], set()
    for path in sorted(Path(isokit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_"):
                own = stmt.name
                if not own.startswith("__"):
                    private.append((own, f"{path.name}:{stmt.lineno}"))
            used.update(name for name in _referenced(stmt) if name != own)
    unused = [where for name, where in private if name not in used]
    assert not unused, f"private helpers that nothing else names: {unused}"


def test_library_int_checks_refuse_bools():
    """isinstance(v, int) admits True and False, so the library tests an
    int with type(v) is int, as group._int does."""
    found = []
    for path in sorted(Path(isokit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and any(isinstance(n, ast.Name) and n.id == "int" for n in ast.walk(node.args[1]))
        ]
    assert not found, f"isinstance(..., int) checks in the library: {found}"


def test_cubelim_holds_subsets_as_masks_only():
    """cubelim holds a subset as an int mask alone: it builds no frozenset
    and names no FrozenSet, so no second subset form grows beside the masks."""
    path = Path(isokit.__file__).parent / "cubelim.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in ("frozenset", "FrozenSet"))
        or (isinstance(node, ast.Attribute) and node.attr == "FrozenSet")
    ]
    assert not found, f"frozensets in cubelim: {found}"


def test_no_library_module_imports_dataclasses():
    """Records are named tuples: a dataclass decorator compiles its methods
    on every import of the package, and dataclasses imports inspect."""
    found = []
    for path in sorted(Path(isokit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
            or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"
        ]
    assert not found, f"dataclasses imports in the library: {found}"
