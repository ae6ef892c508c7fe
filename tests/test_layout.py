"""Module layout: a private name (leading underscore) belongs to the module
that defines it, so no package module imports one from another; JetPoly
is the one polynomial class, so only jets.py does term-dict arithmetic;
and the README Layout lists the package's modules as they are."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cubichodge"
MODULES = sorted(PACKAGE.glob("*.py"))


# the term-dict arithmetic of sparse.py, which serves JetPoly alone
TERM_DICT_ARITHMETIC = {"add_into", "mul_into", "nonzero"}


def package_imports(path: Path):
    """(line, source module, imported name) for each name imported from a
    package module in the file at `path`; the source is as written."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not (node.level or (node.module or "").split(".")[0] == "cubichodge"):
            continue
        source = "." * node.level + (node.module or "")
        for alias in node.names:
            yield node.lineno, source, alias.name


def private_imports(path: Path) -> list:
    """(line, 'from .mod import _name') for each private name imported from
    a package module in the file at `path`."""
    return [(line, f"from {source} import {name}")
            for line, source, name in package_imports(path) if name.startswith("_")]


def term_dict_imports(path: Path) -> list:
    """(line, name) for each of sparse.py's term-dict functions imported in
    the file at `path`."""
    return [(line, name) for line, source, name in package_imports(path)
            if source.split(".")[-1] == "sparse" and name in TERM_DICT_ARITHMETIC]


def test_package_found():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_import_across_modules(path):
    assert private_imports(path) == []


def test_detects_a_private_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from .virasoro import RationalParams, _smono_set\nfrom os import _exit\n")
    assert private_imports(src) == [(1, "from .virasoro import _smono_set")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "jets.py"], ids=lambda p: p.name)
def test_only_jets_does_term_dict_arithmetic(path):
    assert term_dict_imports(path) == []


def test_detects_a_term_dict_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from .sparse import pack, mul_into\nfrom cubichodge.sparse import nonzero\n"
                   "from .jets import add_into\n")
    assert term_dict_imports(src) == [(1, "mul_into"), (2, "nonzero")]


def layout_modules(readme: str) -> list:
    """The module names listed in the fenced block under README's
    `## Layout`, one per line indented by two spaces, in order."""
    block = readme.split("## Layout", 1)[1].split("```")[1]
    return re.findall(r"^  (\w+\.py)", block, re.M)


def test_readme_layout_lists_every_module():
    listed = layout_modules((ROOT / "README.md").read_text())
    assert sorted(listed) == [p.name for p in MODULES
                              if p.name not in ("__init__.py", "__main__.py")]
