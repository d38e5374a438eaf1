"""numpy is the only runtime dependency: every module of the package imports
only from the standard library, numpy or the package itself.  Inside the
package the modules are layered (states, then roof, then measures, with
relations on states alone), and harness never imports the cli.  No
module calls numpy's non-Hermitian eigensolver ``eigvals``: the two-qubit
closed forms take singular values instead.  No module runs a Python
function per element (``np.frompyfunc``, ``np.vectorize``) or builds an
object-dtype array: every array kernel is a numpy loop."""

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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_eigvals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert "eigvals" not in names, f"{path.name} uses eigvals"


PER_ELEMENT = {"frompyfunc", "vectorize"}


def _is_object_dtype(node: ast.AST) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "object")
            or (isinstance(node, ast.Attribute) and node.attr == "object_")
            or (isinstance(node, ast.Constant) and node.value in ("O", "|O", "object")))


def _per_element_kernels(source: str) -> list[str]:
    """What in ``source`` runs Python per array element: a call through
    ``frompyfunc`` or ``vectorize``, or an object dtype given as a
    ``dtype=`` argument, to ``astype`` or ``dtype``, or as ``np.object_``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in PER_ELEMENT | {"object_"}:
            found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id in PER_ELEMENT:
            found.append(node.id)
        elif isinstance(node, ast.keyword) and node.arg == "dtype" and _is_object_dtype(node.value):
            found.append("dtype=object")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("astype", "dtype") and node.args
              and _is_object_dtype(node.args[0])):
            found.append(f"{node.func.attr}(object)")
    return found


@pytest.mark.parametrize("source, expected", [
    ("f = np.frompyfunc(pow, 2, 1)", ["frompyfunc"]),
    ("from numpy import vectorize", []),
    ("g = vectorize(h)", ["vectorize"]),
    ("a = np.asarray(x, dtype=object)", ["dtype=object"]),
    ("a = np.empty(3, dtype='O')", ["dtype=object"]),
    ("a = x.astype(object)", ["astype(object)"]),
    ("t = np.dtype('object')", ["dtype(object)"]),
    ("a = np.zeros(2, np.object_)", ["object_"]),
    ("object.__setattr__(self, 'x', np.asarray(x, dtype=float))", []),
])
def test_per_element_scan(source, expected):
    assert _per_element_kernels(source) == expected


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_per_element_python_kernel(path):
    found = _per_element_kernels(path.read_text(encoding="utf-8"))
    assert not found, f"{path.name} runs Python per element: {found}"
