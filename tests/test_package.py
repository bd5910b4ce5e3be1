"""The package's module boundaries.

Every name a module lists in ``__all__`` exists there, so a star import
works.  ``closed_forms`` and ``cochain`` import nothing from each other:
the closed forms are the independent route the engine is checked
against, and the engine takes none of them.  Only ``scalars`` imports
``fractions``: the rest of the package reaches the rationals through
it.  Of an algebra's private state ``cochain`` reads
only the integer table, its denominator and the expansion of d.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import liecoh

SOURCE = Path(liecoh.__file__).resolve().parent
MODULES = sorted(info.name for info in pkgutil.iter_modules([str(SOURCE)]))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_only_what_the_module_defines(name):
    module = importlib.import_module(f"liecoh.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from liecoh.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def _imported_modules(name):
    """The modules that a source file imports, by absolute name; the
    package's own modules as ``liecoh.<name>``."""
    tree = ast.parse((SOURCE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 1:
                base = f"liecoh.{base}" if base else "liecoh"
            if base == "liecoh":
                found |= {f"liecoh.{a.name}" for a in node.names}
            else:
                found.add(base)
    return found


def _package_modules(name):
    """The liecoh modules that a source file imports, by bare name."""
    return {m.split(".")[1] for m in _imported_modules(name) if m.startswith("liecoh.")}


def test_closed_forms_and_cochain_import_nothing_from_each_other():
    assert "cochain" not in _package_modules("closed_forms")
    assert "closed_forms" not in _package_modules("cochain")
    # the scan sees both import forms the package uses
    assert {"errors", "scalars"} <= _package_modules("closed_forms")
    assert {"linalg", "exterior", "lie_algebra"} <= _package_modules("cochain")


def test_only_scalars_imports_fractions():
    # the engine works on Gaussian integers and scalars is their one edge
    # to Scalars; cli draws its seeded diamond parameters through it too
    importers = [name for name in MODULES if "fractions" in _imported_modules(name)]
    assert importers == ["scalars"]


def test_cochain_reads_only_the_integer_table_of_an_algebra():
    # the engine's one view of an algebra is its integer table, the
    # denominator that scales it and the expansion of d built from it
    tree = ast.parse((SOURCE / "cochain.py").read_text(encoding="utf-8"))
    private = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
    }
    assert private == {"_table", "_denominator", "_expand_d"}
