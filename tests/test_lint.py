"""Static checks on the package source, with the standard library's `ast`."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ggtlab

SRC = Path(ggtlab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


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
    # numpy only inside a function: importing a module must not load it
    allowed = set(sys.stdlib_module_names) | {"ggtlab", ""}
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


def _fresh(code: str) -> str:
    """Standard output of `code` run in a fresh interpreter on the package."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout


def _loaded_after(statement: str) -> str:
    """The ggtlab modules loaded by `statement` in a fresh interpreter, and
    whether numpy and networkx are."""
    return _fresh(
        f"import sys; {statement}; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'ggtlab'), "
        "'numpy' in sys.modules, 'networkx' in sys.modules)"
    )


def test_cli_import_leaves_networkx_out():
    # the CLI loads what the tree commands share, and neither numpy nor networkx
    shared = ["ggtlab", "ggtlab.cli", "ggtlab.groups", "ggtlab.projections", "ggtlab.spaces"]
    assert _loaded_after("import ggtlab.cli") == f"{shared} False False\n"
    assert _loaded_after("import ggtlab.chains, ggtlab.experiments, ggtlab.spaces").endswith("] False False\n")


@pytest.mark.parametrize(
    "argv, loads_numpy, line",
    [
        (["order", "--o", "e", "--p", "a^2 b a^2", "--T", "1"], False, "order criteria: "),
        (["progress", "--seed", "1", "--samples", "5", "--n", "5", "--C", "2"], True, "n=5: drift "),
    ],
)
def test_numpy_loads_with_the_first_command_that_draws(argv, loads_numpy, line):
    out = _fresh(f"import sys; from ggtlab.cli import main; code = main({argv}); print(code, 'numpy' in sys.modules)")
    assert f"\n{line}" in out and out.endswith(f"\n0 {loads_numpy}\n")


def defaulted_parameters(fn: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position, name) of each parameter with a default; keyword-only ones
    have no position."""
    a = fn.args
    pos = a.posonlyargs + a.args
    found = [(i, p.arg) for i, p in enumerate(pos) if i >= len(pos) - len(a.defaults)]
    return found + [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    # a `*` or `**` argument passes nothing: a parameter counts as set only
    # where a call is seen to set it
    plain = next((i for i, arg in enumerate(call.args) if isinstance(arg, ast.Starred)), len(call.args))
    return any(k.arg == name for k in call.keywords) or (position is not None and position < plain)


def unset_defaults(modules: dict[str, ast.Module], callers: list[ast.Module]) -> list[str]:
    """`module.function(parameter)` for each defaulted parameter of a
    module-level function that no call of the function's name passes, by
    keyword or by position.  Calls are matched by name alone, so methods,
    called through instances, are out of scope."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    found = []
    for mod, tree in modules.items():
        for fn in tree.body:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for position, name in defaulted_parameters(fn):
                    if not any(_passes(c, position, name) for c in calls.get(fn.name, ())):
                        found.append(f"{mod}.{fn.name}({name})")
    return found


def test_every_default_of_a_module_level_function_is_passed_somewhere():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    callers = [
        ast.parse(path.read_text())
        for folder in ("src", "perfbench", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert unset_defaults(modules, callers) == []


def test_unset_default_detector():
    mod = ast.parse(
        "def f(a, b=1, *, c=2, d=3):\n    pass\ndef g(x=0, y=1):\n    pass\n"
        "class C:\n    def f(self, e=4):\n        pass\n"
    )
    uses = ast.parse("f(0, d=1)\nm.g(0, *xs)\nf(0, **kw)\n")
    assert unset_defaults({"m": mod}, [uses]) == ["m.f(b)", "m.f(c)", "m.g(y)"]


def public_definitions(tree: ast.Module):
    """(name, node) of each public module-level function and class, and of
    each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def references(node: ast.AST) -> Counter:
    """Names the node reads: plain names, attributes and imported names."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name.split(".")[-1]] += 1
    return found


def unreferenced_definitions(modules: dict[str, ast.Module], users: list[ast.Module]) -> list[str]:
    """`module.name` of each public definition in `modules` that no tree of
    `users` references outside the definition itself.  References are matched
    by name alone, so any attribute `x.f` counts for every method `f`."""
    total = Counter()
    for tree in users:
        total += references(tree)
    return [
        f"{mod}.{name}"
        for mod, tree in modules.items()
        for name, node in public_definitions(tree)
        if total[node.name] - references(node)[node.name] <= 0
    ]


def test_every_public_definition_has_a_caller_in_the_program():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    users = list(modules.values()) + [
        ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").rglob("*.py"))
    ]
    assert unreferenced_definitions(modules, users) == []


def test_unreferenced_definition_detector():
    mod = ast.parse(
        "from x import g as h\n"
        "def f(n):\n    return f(n - 1)\n"
        "def g():\n    pass\n"
        "def _private():\n    pass\n"
        "class C:\n    def m(self):\n        return self.m()\n    def k(self):\n        pass\n"
        "class D:\n    pass\n"
        "D().k()\n"
    )
    assert unreferenced_definitions({"m": mod}, [mod]) == ["m.f", "m.C", "m.C.m"]


def flags_never_read(source: str, commands: dict) -> list[str]:
    """`command --flag` for each flag of a `cli._COMMANDS` entry that its
    handler never reads, as `args.<dest>` or as a string passed to
    `getattr(args, ...)`, in the handler itself or in a module-level function
    of `source` that it calls, directly or through others."""
    functions = {n.name: n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)}

    def is_args(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id == "args"

    def reads(handler: str) -> set[str]:
        found, todo, done = set(), [handler], set()
        while todo:
            name = todo.pop()
            if name in done or name not in functions:
                continue
            done.add(name)
            for n in ast.walk(functions[name]):
                if isinstance(n, ast.Attribute) and is_args(n.value):
                    found.add(n.attr)
                elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name):
                    todo.append(n.func.id)
                    if n.func.id == "getattr" and len(n.args) > 1 and is_args(n.args[0]) and isinstance(n.args[1], ast.Constant):
                        found.add(n.args[1].value)
        return found

    unread = []
    for command, (handler, _, stochastic, arguments) in commands.items():
        flags = (["--config", "--seed"] if stochastic else []) + [flag for flag, _ in arguments]
        got = reads(handler.__name__)
        unread += [f"{command} {flag}" for flag in flags if flag.lstrip("-").replace("-", "_") not in got]
    return unread


def test_every_cli_flag_is_read_by_its_command():
    from ggtlab import cli

    # htsum --window is parsed and unread: the exact-geometry benchmark's
    # htsum job still passes it, so it can go only with a benchmark change
    assert flags_never_read((SRC / "cli.py").read_text(), cli._COMMANDS) == ["htsum --window"]


def test_unread_flag_detector():
    source = (
        "def _helper(args):\n    return getattr(args, 'n', None)\n"
        "def cmd_a(args):\n    return _helper(args), args.out_dir\n"
        "def cmd_b(args):\n    return args.x\n"
    )

    def cmd_a(args):
        pass

    def cmd_b(args):
        pass

    commands = {
        "a": (cmd_a, "", True, (("--out-dir", {}), ("--n", {}), ("--m", {}))),
        "b": (cmd_b, "", False, (("--x", {}), ("--n", {}))),
    }
    assert flags_never_read(source, commands) == ["a --config", "a --seed", "a --m", "b --n"]
