"""Every top-level function in ``src/`` is library code something reaches.

A function counts as reached when ``sloccrank`` exports it, or when a file
of ``src/``, ``tools/`` or ``perfbench/`` other than its own definition
names it: as a name, an attribute, or a string (``perfbench`` looks
functions up by name).  Tests do not count: a helper only the tests use
belongs in the tests.
"""

import ast
from pathlib import Path

import sloccrank

ROOT = Path(__file__).resolve().parents[1]
READERS = ("src", "tools", "perfbench")
# the operator file format of ``slocc``: a parser and renderer that no
# subcommand reads yet, kept for the planned operator certificate of ``equiv``
AWAITING_A_READER = {"parse_operator_file", "render_operator_file"}


def _references(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.append(node.value)
    return names


def unreached_functions() -> list[str]:
    trees = {
        path: ast.parse(path.read_text())
        for folder in READERS
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    uses = {path: _references(tree) for path, tree in trees.items()}
    exported = set(vars(sloccrank))
    unreached = []
    for path, tree in trees.items():
        if (ROOT / "src" / "sloccrank") not in path.parents:
            continue
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name in exported:
                continue
            elsewhere = [names for other, names in uses.items() if other != path]
            # its own module may reach it too, from outside its own body
            here = [_references(stmt) for stmt in tree.body if stmt is not node]
            if not any(node.name in names for names in elsewhere + here):
                unreached.append(f"{path.stem}.{node.name}")
    return unreached


def test_every_source_function_is_reached_or_exported():
    unreached = [name for name in unreached_functions()
                 if name.split(".")[1] not in AWAITING_A_READER]
    assert unreached == []


def test_the_scan_sees_what_it_allows():
    # the allowed functions exist and are unreached: an allowance outlives neither
    assert {name.split(".")[1] for name in unreached_functions()} == AWAITING_A_READER
