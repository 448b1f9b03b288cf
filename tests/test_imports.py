"""No module of the package imports a `_`-prefixed name from a sibling
module: what two modules share is public."""

import ast
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
