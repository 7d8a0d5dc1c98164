"""The CLI has one path from command line to report: `run` resolves every
input, writes `--out` and prints the report, and each `_cmd_*` handler only
computes its result from the objects it is given."""

import ast
from pathlib import Path

import isokit.cli

# what only run and its helpers may name: loading and digesting an input
# file, and writing a report or anything else to stdout
RUN_ONLY = {"_load", "file_digest", "load_json", "_emit", "stdout", "print"}


def test_no_handler_loads_an_input_or_writes_a_report():
    path = Path(isokit.cli.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    handlers = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
    ]
    assert len(handlers) >= 17
    found = []
    for handler in handlers:
        for node in ast.walk(handler):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in RUN_ONLY:
                found.append(f"{handler.name}:{node.lineno} names {name}")
    assert not found, f"handlers that load inputs or write reports: {found}"
