"""Static checks on the package source that need no linter."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "multipres"
SPANS = SRC.parent.parent / "clibench" / "spans.py"


def unused_imports(source: str) -> list[str]:
    """Module-level imported names that nothing in the module reads.

    An import binds the name it is known by (the alias, or the first part
    of a dotted module); a name counts as read wherever it appears as an
    expression, attribute bases and annotations included.  from __future__
    lines bind nothing.
    """
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def foreign_private_names(source: str) -> list[str]:
    """Underscore names of other modules that a module imports or reads.

    Flags `from m import _name` and `m._name` where m is a name bound by an
    import; dunder names are not private.  A module's own underscore names
    are its business.
    """
    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if private(a.name)]
            if node.module is None:  # from . import kernels binds modules
                modules |= {a.asname or a.name for a in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def nested_imports(source: str) -> list[int]:
    """Line numbers of the imports inside a function or class body.

    A module's dependencies are read from its top, so every import sits
    at module level.
    """
    found = set()
    for scope in ast.walk(ast.parse(source)):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= {node.lineno for node in ast.walk(scope) if isinstance(node, (ast.Import, ast.ImportFrom))}
    return sorted(found)


def builtin_int_uses(source: str) -> list[int]:
    """Line numbers where a module calls the builtin int or passes it as a type= argument.

    int() also reads '1_0' and non-ASCII digits, so files and arguments read
    integers through grades.integer instead.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "int":
                found.add(node.lineno)
            found |= {kw.value.lineno for kw in node.keywords
                      if kw.arg == "type" and isinstance(kw.value, ast.Name) and kw.value.id == "int"}
    return sorted(found)


def test_foreign_private_name_is_found():
    source = ("from . import kernels\nimport os\nfrom .metrics import _saturates, rank\n"
              "def f(self):\n    return kernels._residual_dict, os.__name__, self._x, _own\n")
    assert foreign_private_names(source) == ["_saturates", "kernels._residual_dict"]


def test_unused_import_is_found():
    source = "from __future__ import annotations\nimport os.path\nimport math as m\nfrom a import b, c\nx = c(m.pi)\n"
    assert unused_imports(source) == ["os", "b"]


def test_nested_import_is_found():
    source = ("import os\ndef f():\n    import random\n    def g():\n        from . import kernels\n"
              "class C:\n    from collections import Counter\n")
    assert nested_imports(source) == [3, 5, 7]


def test_builtin_int_use_is_found():
    source = ("def f(tok: int) -> int:\n    return int(tok)\n"
              "p.add_argument('--seed', type=int)\np.add_argument('--n', type=integer)\nx = isinstance(1, int)\n")
    assert builtin_int_uses(source) == [2, 3]


# __init__.py imports its names to re-export them
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_foreign_private_names(path):
    assert foreign_private_names(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_nested_imports(path):
    assert nested_imports(path.read_text()) == []


@pytest.mark.parametrize("name", ["fio.py", "cli.py"])
def test_input_integers_are_read_strictly(name):
    assert builtin_int_uses((SRC / name).read_text()) == []


def traced_names(source: str) -> tuple[list[tuple[str, str]], list[tuple[str, str, str]]]:
    """The (module, function) rows of FUNCTIONS and the (module, class, method)
    rows of METHODS in the tracer's source, read without importing it."""
    lists = {target.id: node.value for node in ast.parse(source).body if isinstance(node, ast.Assign)
             for target in node.targets if isinstance(target, ast.Name)}
    functions = [(row.elts[0].value, row.elts[1].value) for row in lists["FUNCTIONS"].elts]
    methods = [tuple(part.value for part in row.elts) for row in lists["METHODS"].elts]
    return functions, methods


def test_every_name_the_tracer_wraps_resolves():
    # Tracer.install looks these up by name, and a missing one fails only when the benchmark runs
    functions, methods = traced_names(SPANS.read_text())
    assert functions and methods
    for module, name in functions:
        assert callable(getattr(importlib.import_module(f"multipres.{module}"), name, None)), (module, name)
    for module, cls, name in methods:
        assert callable(vars(getattr(importlib.import_module(f"multipres.{module}"), cls)).get(name)), (cls, name)
    # run.py prints it
    assert hasattr(importlib.import_module("multipres.kernels"), "BACKEND")
