"""numpy is the only runtime dependency: every module of the package imports
only from the standard library, numpy or the package itself.  Inside the
package the modules are layered (states, then roof, then measures, with
relations on states alone), and harness never imports the cli."""

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


PACKAGE = Path(negmono.__file__).parent
SUBMODULES = {p.stem for p in PACKAGE.glob("*.py")}
# the package modules each layered module may import: states owns the
# amplitude layout and the cut type, so roof reaches them without measures
LAYERS = {
    "states": set(),
    "roof": {"states"},
    "measures": {"states", "roof"},
    "relations": {"states"},
}


def _package_imports(source: str) -> set[str]:
    """The package modules that ``source`` imports, relatively or by the
    package's name; a name taken from the package itself counts as
    ``__init__``, which imports every module."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "negmono":
                continue
            rel = (node.module or "") if node.level else node.module[len("negmono"):].lstrip(".")
            if rel:
                out.add(rel.split(".")[0])
            else:
                out |= {a.name if a.name in SUBMODULES else "__init__" for a in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "negmono":
                    out.add(parts[1] if len(parts) > 1 else "__init__")
    return out


def _imports_of(module: str) -> set[str]:
    return _package_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports_only_lower_layers(module):
    extra = sorted(_imports_of(module) - LAYERS[module])
    assert not extra, f"{module}.py imports {extra} from the package"


def test_harness_does_not_import_cli():
    assert "cli" not in _imports_of("harness")


@pytest.mark.parametrize("source, expected", [
    ("from .states import ket", {"states"}),
    ("from . import roof, __version__", {"roof", "__init__"}),
    ("from negmono.measures import scren", {"measures"}),
    ("from negmono import cli", {"cli"}),
    ("import negmono.roof as r", {"roof"}),
    ("import negmono", {"__init__"}),
    ("import numpy\nfrom math import prod", set()),
])
def test_package_import_scan(source, expected):
    assert _package_imports(source) == expected
