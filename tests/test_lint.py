"""Static checks on the package source, with the standard library's `ast`."""

import ast
from pathlib import Path

import ggtlab

SRC = Path(ggtlab.__file__).parent


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_no_unused_module_level_imports():
    found = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if (unused := unused_imports(ast.parse(path.read_text())))
    }
    assert found == {}


def test_unused_import_detector():
    tree = ast.parse("import os, sys\nfrom typing import Any as A, List\nx: A = sys.argv\n")
    assert unused_imports(tree) == ["line 1: os", "line 2: List"]
