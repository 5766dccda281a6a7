"""The package runs on the Python standard library alone, and its
modules share no private names beyond a fixed few."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bigraded"


def _imported_modules(path):
    """Top-level names of the absolute imports in one source file;
    relative imports stay inside the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = {
        (path.name, name)
        for path in sources
        for name in _imported_modules(path)
        if name != "bigraded" and name not in sys.stdlib_module_names
    }
    assert not foreign


def test_no_install_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def _private_imports(path):
    """(module imported from, name) for every private name a source file
    takes from another module of the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.module, alias.name


def test_cross_module_private_imports_are_fixed():
    # `_product` (a product, or None when a factor is absent or it is
    # zero) and `_cochain` (the cochain complex behind the simplicial
    # comparison) are shared on purpose; anything else, such as a layout
    # helper, must go through a public name
    shared = {
        (src, path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for src, name in _private_imports(path)
    }
    assert shared == {
        ("matrices", "model", "_product"),
        ("matrices", "twisted", "_product"),
        ("chain", "twisted", "_cochain"),
    }


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_each_module_imports_first_and_alone(module):
    # chain subclasses bicomplex, which builds on twisted, which reaches
    # chain only inside functions: a cycle at import time would show in
    # some order of imports, whatever order the tests happen to use
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": ""}
    done = subprocess.run([sys.executable, "-c", f"import bigraded.{module}"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def _stand_in_calls(path):
    """(top-level function, accessor) for every call in one source file
    of an accessor that builds a zero matrix for an absent block:
    `component`, `diff` or `ExactMatrix.zero`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for top in tree.body:
        if not isinstance(top, ast.FunctionDef):
            continue
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            attr, owner = node.func.attr, node.func.value
            if attr in ("component", "diff"):
                yield top.name, attr
            elif attr == "zero" and isinstance(owner, ast.Name) and owner.id == "ExactMatrix":
                yield top.name, "ExactMatrix.zero"


def test_lifting_layer_builds_no_zero_stand_ins():
    # the lifting test, the classifiers and the pushout read only stored
    # blocks; the isomorphism search reads the components of maps it
    # checks for invertibility, and the resolution of a chain complex
    # its differentials
    assert set(_stand_in_calls(PACKAGE / "model.py")) == {
        ("_invertible", "component"),
        ("ce_resolution", "diff"),
    }
