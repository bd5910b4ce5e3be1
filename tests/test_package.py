"""The package's module boundaries.

Every name a module lists in ``__all__`` exists there, so a star import
works.  ``closed_forms`` and ``cochain`` import nothing from each other:
the closed forms are the independent route the engine is checked
against, and the engine takes none of them.
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
    """The liecoh modules that a source file imports, by bare name."""
    tree = ast.parse((SOURCE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("liecoh.")}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and base.startswith("liecoh."):
                found.add(base.split(".")[1])
            elif node.level == 0 and base == "liecoh" or node.level == 1 and not base:
                found |= {a.name for a in node.names}
            elif node.level == 1:
                found.add(base.split(".")[0])
    return found


def test_closed_forms_and_cochain_import_nothing_from_each_other():
    assert "cochain" not in _imported_modules("closed_forms")
    assert "closed_forms" not in _imported_modules("cochain")
    # the scan sees both import forms the package uses
    assert {"errors", "scalars"} <= _imported_modules("closed_forms")
    assert {"linalg", "exterior", "lie_algebra"} <= _imported_modules("cochain")
