"""No module of the package imports a `_`-prefixed name from a sibling
module: what two modules share is public.  No module imports `dataclasses`,
and importing `hhtkit.cli` loads none of the modules it would bring in."""

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
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


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
