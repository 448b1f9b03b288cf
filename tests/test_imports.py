"""No module of the package imports a `_`-prefixed name from a sibling
module: what two modules share is public.  No module imports `dataclasses`,
and importing `hhtkit.cli` loads none of the modules it would bring in.
No module calls `vars()` or reads an instance's `__dict__`.  The walks that
expand quantifiers hold no `match` statement, and the package has one
propositional formula, the program: no module defines or imports a name
of the object layer it replaced.  No class `record` builds spells out the
methods `record` gives it."""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hhtkit"


def private_imports(source: str) -> list[str]:
    """`module.name` for each private name `source` imports from hhtkit."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module == "hhtkit" or module.startswith("hhtkit."):
                found += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_the_check_finds_a_private_import():
    source = ("from .semantics import World, _plan\n"
              "from hhtkit.syntax import _walk\n"
              "from __future__ import annotations\n"
              "def f():\n    from . import _hidden\n")
    assert private_imports(source) == ["semantics._plan", "hhtkit.syntax._walk", "._hidden"]


def test_no_module_imports_a_private_name_from_a_sibling():
    got = {path.name: private_imports(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}
    assert "herbrand.py" in got
    assert {name: found for name, found in got.items() if found} == {}


# the import of `hhtkit.cli` is what every CLI invocation pays first; these
# modules cost milliseconds and nothing on that path needs them
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def dataclass_imports(source: str) -> list[str]:
    """Each import of `dataclasses` in `source`, as written."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if (node.module or "").split(".")[0] == "dataclasses":
                found += [f"{node.module}.{a.name}" for a in node.names]
    return found


def test_the_check_finds_a_dataclasses_import():
    source = ("from dataclasses import dataclass, field\n"
              "import os, dataclasses as dc\n"
              "from .dataclasses import x\n"
              "def f():\n    import dataclasses\n")
    assert dataclass_imports(source) == [
        "dataclasses.dataclass", "dataclasses.field", "dataclasses", "dataclasses"]


def test_no_module_imports_dataclasses():
    got = {path.name: dataclass_imports(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}
    assert "syntax.py" in got
    assert {name: found for name, found in got.items() if found} == {}


def test_importing_the_cli_loads_no_heavy_module():
    # one isolated child (`-I -S`: no PYTHON* variables, no site hooks or
    # .pth files) that lists what `import hhtkit.cli` adds to the modules
    # it started with
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
            "import hhtkit.cli\n"
            "print(*sorted(set(sys.modules) - before))\n")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    added = set(done.stdout.split())
    assert "hhtkit.cli" in added
    assert sorted(added & set(HEAVY)) == []


# on Python 3.11 an object's attributes live in the object itself until its
# `__dict__` is touched, which moves them into a dict and makes every later
# read slower; the value classes read their class's `__dict__` only
CLASS_DICT_READERS = {"_fields", "_define"}


def instance_dict_uses(source: str) -> list[str]:
    """Each `vars(...)` call and each `.__dict__` read in `source`, as
    `function: code`, but a `cls.__dict__` read in `CLASS_DICT_READERS`."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "vars":
            found.append(f"{function}: {ast.unparse(node)}")
        elif isinstance(node, ast.Attribute) and node.attr == "__dict__":
            exempt = (function in CLASS_DICT_READERS and isinstance(node.value, ast.Name)
                      and node.value.id == "cls")
            if not exempt:
                found.append(f"{function}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_the_check_finds_an_instance_dict_use():
    source = ("def _fields(cls):\n    return cls.__dict__, vars(cls)\n"
              "def _define(cls, node):\n    node.__dict__.update(a=1)\n"
              "class A:\n    def f(self):\n        return self.__dict__.get('x')\n"
              "x = vars()\n")
    assert instance_dict_uses(source) == [
        "_fields: vars(cls)", "_define: node.__dict__", "f: self.__dict__", "<module>: vars()"]


def test_no_module_reads_an_instance_dict():
    got = {path.name: instance_dict_uses(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}
    assert "syntax.py" in got
    assert {name: found for name, found in got.items() if found} == {}


# the walks that run once per (node, binding) when quantifiers expand pick
# their case by `type()`: on Python 3.11 a structural `match` takes about
# ten times as long to reach a `Binary` case; `None` covers the whole module
EXPANSION_WALKS = {
    "instantiation.py": None,
    "herbrand.py": ("_Grounding", "_hat"),
    "syntax.py": ("term_subst",),
}


def match_statements(source: str, names: tuple[str, ...] | None = None) -> list[str]:
    """`name:line` for each `match` statement in `source`, within the
    top-level functions and classes `names` lists, or anywhere."""
    found = []
    for top in ast.parse(source).body:
        name = getattr(top, "name", "<module>")
        if names is None or name in names:
            found += [f"{name}:{node.lineno}" for node in ast.walk(top)
                      if isinstance(node, ast.Match)]
    return found


def test_the_check_finds_a_match_statement():
    source = ("def _hat(t):\n    match t:\n        case _:\n            return t\n"
              "class _Grounding:\n    def ground(self, f):\n"
              "        if f:\n            match f:\n                case _:\n"
              "                    return 0\n"
              "def _sat(f):\n    match f:\n        case _:\n            return 1\n")
    assert match_statements(source, ("_Grounding", "_hat")) == ["_hat:2", "_Grounding:8"]
    assert match_statements(source) == ["_hat:2", "_Grounding:8", "_sat:12"]


def test_the_expansion_walks_hold_no_match_statement():
    got = {}
    for name, names in EXPANSION_WALKS.items():
        source = (PACKAGE / name).read_text(encoding="utf-8")
        assert set(names or ()) <= {getattr(top, "name", None) for top in ast.parse(source).body}
        got[name] = match_statements(source, names)
    assert {name: found for name, found in got.items() if found} == {}


# a propositional formula is the engine's program, which the parser, the
# instantiation walk and Herbrand grounding emit and the printer, the stats
# and both checkers read: none of the object layer it replaced, nor its
# converters, is defined or imported anywhere in the package
OBJECT_LAYER = frozenset({
    "PAtom", "PAnd", "POr", "PImp", "PropFormula", "prop_dag", "prop_of_program",
    "parse_prop_program", "instance_program",
})


def bound_names(source: str) -> set[str]:
    """Each name `source` imports, as its module names it (an `as` does not
    hide it), and each function, class or variable it defines."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {a.name for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.add(node.id)
    return found


def test_the_check_finds_an_imported_name():
    source = ("from .syntax import (\n    PAnd,\n    prop_dag as walk,\n)\n"
              "def f():\n    from .syntax import POr\n"
              "class PAtom:\n    pass\n"
              "def prop_of_program(prog):\n    return prog\n"
              "PropFormula = int\nfor PImp in ():\n    pass\n")
    assert bound_names(source) & OBJECT_LAYER == {
        "PAnd", "prop_dag", "POr", "PAtom", "prop_of_program", "PropFormula", "PImp"}


def test_the_verdict_path_imports_no_object_builder():
    got = {path.name: sorted(bound_names(path.read_text(encoding="utf-8")) & OBJECT_LAYER)
           for path in sorted(PACKAGE.glob("*.py"))}
    assert "syntax.py" in got
    assert {name: found for name, found in got.items() if found} == {}


# `record` builds every value class's `__init__`, `==` and `hash`, with
# named parameters for two fields; an undecorated base may still define
# one for the classes built on it
RECORD_METHODS = ("__init__", "__eq__", "__hash__")


def record_methods(source: str) -> list[str]:
    """`class.method` for each method of `RECORD_METHODS` that a class
    decorated with `record` or `record(...)` defines in its body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "record"
                or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "record"
                for d in node.decorator_list):
            found += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef) and item.name in RECORD_METHODS]
    return found


def test_the_check_finds_a_spelled_out_record_method():
    source = ("class _Base:\n    def __init__(self):\n        pass\n"
              "@record\nclass A(_Base):\n    x: int\n"
              "    def __eq__(self, other):\n        return True\n"
              "    def of(self):\n        return self\n"
              "@record(hidden=('y',))\nclass B:\n    y: int\n"
              "    def __hash__(self):\n        return 0\n"
              "@_interned\nclass C:\n    def __init__(self):\n        pass\n")
    assert record_methods(source) == ["A.__eq__", "B.__hash__"]


def test_no_record_spells_out_its_methods():
    got = {path.name: record_methods(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}
    assert "kernel.py" in got
    assert {name: found for name, found in got.items() if found} == {}
