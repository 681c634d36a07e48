"""Static checks on the package source that need no linter."""

import ast
import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "multipres"
CLIBENCH = SRC.parent.parent / "clibench"
SPANS = CLIBENCH / "spans.py"
README = SRC.parent.parent / "README.md"
# the package stays below this many lines, all of src/multipres/*.py together
MAX_SRC_LINES = 4000
# public names that nothing in src/ or clibench/ calls, kept because each is a
# construction of the paper offered to library users, with what it constructs
UNCALLED_CONSTRUCTIONS = {
    "free": "the free module on generators at given grades",
    "interval_rank": "the generalized rank rank(lim_K M -> colim_K M) over a staircase interval K",
    "translate_image": "the image of the internal eps-translation of a module",
}


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


def public_definitions(source: str) -> list[tuple[str, ast.FunctionDef]]:
    """The public top-level functions and the public methods of public
    classes, as (name, node); a method's name is Class.method."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out.append((node.name, node))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            out += [(f"{node.name}.{item.name}", item) for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def name_lines(source: str, strings: bool = False) -> dict[str, list[int]]:
    """The lines on which a module reads each name, as a variable or as an
    attribute; with strings, also each string constant, which is how the
    tracer names what it wraps.  Imports read nothing."""
    found: dict[str, list[int]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        found.setdefault(name, []).append(node.lineno)
    return found


def uncalled_definitions(sources: dict[str, str], users: dict[str, str]) -> list[str]:
    """Public functions and methods of the modules in sources that no module
    of sources or users references outside the definition itself.

    A reference is by the last part of the name, so a method counts as
    called when any attribute of that name is read.  users are read with
    their string constants too.
    """
    reads = {module: name_lines(text) for module, text in sources.items()}
    elsewhere = set().union(*(name_lines(text, strings=True) for text in users.values()))
    found = []
    for module, text in sources.items():
        for name, node in public_definitions(text):
            short = name.rsplit(".", 1)[-1]
            if short in elsewhere or any(short in lines for other, lines in reads.items() if other != module):
                continue
            if not any(line < node.lineno or line > node.end_lineno for line in reads[module].get(short, ())):
                found.append(f"{module}:{name}")
    return found


def test_uncalled_definition_is_found():
    sources = {"a": "def used():\n    return used()\n\ndef helper():\n    pass\n\nclass C:\n"
                    "    def run(self):\n        return helper()\n    def idle(self):\n        pass\n",
               "b": "from .a import used\n\ndef _private():\n    return C().run\n"}
    assert uncalled_definitions(sources, {"t": "WRAPPED = [('a', 'idle')]\n"}) == ["a:used"]
    assert uncalled_definitions(sources, {}) == ["a:used", "a:C.idle"]


def test_source_stays_below_its_line_budget():
    lines = sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py"))
    assert lines < MAX_SRC_LINES


def test_every_public_function_has_a_caller():
    # __init__.py re-exports names, which calls none of them
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    users = {path.name: path.read_text() for path in sorted(CLIBENCH.glob("*.py"))}
    uncalled = uncalled_definitions(sources, users)
    assert [name for name in uncalled if name.split(":")[1] not in UNCALLED_CONSTRUCTIONS] == []
    for name in UNCALLED_CONSTRUCTIONS:
        assert callable(getattr(importlib.import_module("multipres"), name, None)), name


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


def imported_names(source: str) -> set[str]:
    """The names a module imports from other modules, as they are named there."""
    return {a.name for node in ast.parse(source).body if isinstance(node, ast.ImportFrom) for a in node.names}


def fraction_constructor_calls(source: str) -> list[int]:
    """Line numbers where a module calls Presentation(...), the constructor
    that reads Generator and Relation objects, by name or as an attribute."""
    calls = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
    return sorted({node.lineno for node in calls
                   if "Presentation" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))})


def test_fraction_constructor_call_is_found():
    source = ("from . import presentation\nfrom .presentation import Presentation\n"
              "a = Presentation(2, 2, (), ())\nb = Presentation.from_integers(2, 2, 1, [], [], [], [])\n"
              "c = presentation.Presentation(1, 2, (), ())\nd = isinstance(a, Presentation)\n")
    assert fraction_constructor_calls(source) == [3, 5]


# presentation.py defines the Fraction constructor path, and __init__.py re-exports its names
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name not in ("presentation.py", "__init__.py")),
                         ids=lambda p: p.name)
def test_line_code_imports_no_fraction_restriction(path):
    # one restriction, on integer grades: no per-grade Fraction push, no
    # Generator/Relation rebuilt per line, no integer grades turned back into
    # Grades, no column put through the adapter's make_column; and every
    # module is built from integer grades, through Presentation.from_integers
    # or Presentation.trusted
    source = path.read_text()
    assert imported_names(source) & {"push", "Generator", "Relation", "unscaled", "make_column"} == set()
    assert fraction_constructor_calls(source) == []


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


def unresolved_references(text: str, modules: set[str]) -> list[str]:
    """Backticked `module.name` references in text, module one of the
    package's modules, whose name is not an attribute of multipres.module."""
    found, missing = [], object()
    for module, name in re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_][\w.]*)`", text):
        if module not in modules:
            continue
        target = importlib.import_module(f"multipres.{module}")
        for part in name.split("."):
            target = getattr(target, part, missing)
        if target is missing:
            found.append(f"{module}.{name}")
    return found


def test_unresolved_reference_is_found():
    text = "`fibered.pair_bars`, `metrics._Bars.at_most`, `metrics.no_such`, `fibered.Barcode.nope` and `os.path`"
    assert unresolved_references(text, {"fibered", "metrics"}) == ["metrics.no_such", "fibered.Barcode.nope"]


def test_every_module_name_in_the_readme_resolves():
    modules = {path.stem for path in SRC.glob("*.py")}
    text = README.read_text()
    assert re.search(r"`metrics\._Bars`", text)
    assert unresolved_references(text, modules) == []
