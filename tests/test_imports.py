"""No module of ``src/k3lab`` imports a name it does not use.

Each module is parsed with ``ast``; a name bound by an import must occur as
a name somewhere else in the module or be listed in its ``__all__``.  The
package's ``__init__`` is exempt: its imports are the public API it
re-exports.  Failures go through ``pytest.fail``, so the check also holds
under ``python -O``.
"""

import ast
from pathlib import Path

import pytest

import k3lab

SRC = Path(k3lab.__file__).resolve().parent
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of every import-bound name of ``source`` that is neither
    used as a name nor listed in ``__all__``."""
    tree = ast.parse(source)
    bound, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    bound.append((node.lineno, name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
    return [(line, name) for line, name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text("utf-8"))
    if unused:
        pytest.fail("unused imports:\n" + "\n".join(
            f"src/k3lab/{path.name}:{line} {name}" for line, name in unused))


def test_the_check_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from . import linalg\n"
              "from .errors import K3LabError, PreconditionError\n"
              "import xml.dom\n"
              "__all__ = ['K3LabError']\n"
              "def f():\n"
              "    return linalg.det, xml\n")
    if unused_imports(source) != [(2, "os"), (2, "system"), (4, "PreconditionError")]:
        pytest.fail(f"got {unused_imports(source)}")
    if len(MODULES) < 10:
        pytest.fail(f"found only {len(MODULES)} modules under {SRC}")
