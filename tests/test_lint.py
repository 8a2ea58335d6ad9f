"""Static checks on the package source, with the standard library's `ast`."""

import ast
import os
import subprocess
import sys
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


def module_level_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, top-level module) of every import that runs when the module is
    imported: everything outside function bodies, relative imports as ''."""
    found = []
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, "" if node.level else node.module.split(".")[0]))
        todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_run_time_imports_are_stdlib_numpy_or_own():
    allowed = set(sys.stdlib_module_names) | {"numpy", "ggtlab", ""}
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for line, mod in module_level_imports(ast.parse(path.read_text())):
            if mod not in allowed:
                found.setdefault(path.name, []).append(f"line {line}: {mod}")
    assert found == {}


def test_module_level_import_detector():
    tree = ast.parse(
        "import os.path\nfrom . import x\ntry:\n    import networkx as nx\nexcept ImportError:\n    pass\n"
        "def f():\n    import scipy\nclass C:\n    from numpy import array\n"
    )
    assert module_level_imports(tree) == [(1, "os"), (2, ""), (4, "networkx"), (10, "numpy")]


def test_cli_import_leaves_networkx_out():
    code = "import sys, ggtlab.cli; print('networkx' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
