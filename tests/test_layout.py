"""Module layout: a private name (leading underscore) belongs to the module
that defines it, so no package module imports one from another."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cubichodge"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_imports(path: Path) -> list:
    """(line, 'from .mod import _name') for each private name imported from
    a package module in the file at `path`."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not (node.level or (node.module or "").split(".")[0] == "cubichodge"):
            continue
        source = "." * node.level + (node.module or "")
        out += [(node.lineno, f"from {source} import {alias.name}")
                for alias in node.names if alias.name.startswith("_")]
    return out


def test_package_found():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_import_across_modules(path):
    assert private_imports(path) == []


def test_detects_a_private_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from .virasoro import RationalParams, _smono_set\nfrom os import _exit\n")
    assert private_imports(src) == [(1, "from .virasoro import _smono_set")]
