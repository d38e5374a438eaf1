"""numpy is the only runtime dependency: every module of the package imports
only from the standard library, numpy or the package itself."""

import ast
import sys
from pathlib import Path

import pytest

import negmono

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "negmono"}
MODULES = sorted(Path(negmono.__file__).parent.rglob("*.py"))


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_has_modules():
    assert {p.name for p in MODULES} >= {"__init__.py", "measures.py", "roof.py", "states.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = sorted(set(_imported_roots(tree)) - ALLOWED)
    assert not foreign, f"{path.name} imports {foreign}"
