"""Every top-level function of ``tests/oracles.py`` is used.

A test file uses an oracle when it imports it from ``oracles`` and reads
the imported name, or when it reads ``oracles.<name>``; another statement
of the oracle module uses it when it reads the name, so a function that
only calls itself is not used.  Names are found with ``ast``, so a mention
in a comment or a string does not count.  Failures go through
``pytest.fail``, so the check also holds under ``python -O``.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def read_names(node):
    """The identifiers read as plain names inside ``node``."""
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def oracle_uses(test_source):
    """The oracle names a test source uses."""
    tree = ast.parse(test_source)
    read, used = read_names(tree), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "oracles":
            used.update(alias.name for alias in node.names
                        if (alias.asname or alias.name) in read)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "oracles"):
            used.add(node.attr)
    return used


def unused_oracles(oracle_source, test_sources):
    """Sorted names of the top-level functions of ``oracle_source`` that no
    test source and no other top-level statement of the oracle module uses."""
    body = ast.parse(oracle_source).body
    used = set().union(*map(oracle_uses, test_sources))
    for node in body:
        used |= read_names(node) - ({node.name} if isinstance(node, DEFS) else set())
    return sorted(node.name for node in body
                  if isinstance(node, DEFS) and node.name not in used)


def test_every_oracle_is_used():
    tests = [path.read_text("utf-8") for path in sorted(TESTS.glob("test_*.py"))]
    unused = unused_oracles((TESTS / "oracles.py").read_text("utf-8"), tests)
    if unused:
        pytest.fail("oracles no test uses; use them or delete them:\n"
                    + "\n".join(f"tests/oracles.py {name}" for name in unused))


def test_the_check_sees_unused_oracles():
    oracles = ("def used():\n    return helper()\n"
               "def helper():\n    return 1\n"
               "def attribute():\n    return 2\n"
               "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
               "def imported_only():\n    return 3\n"
               "def mentioned():\n    '''not used()'''\n"
               "def orphan():\n    return mentioned  # a read of mentioned\n")
    test = ("import oracles\n"
            "from oracles import used, imported_only\n"
            "def test_x():\n    # orphan()\n    assert used() + oracles.attribute()\n")
    got = unused_oracles(oracles, [test])
    if got != ["imported_only", "orphan", "recursive"]:
        pytest.fail(f"got {got}")
    defs = [node for node in ast.parse((TESTS / "oracles.py").read_text("utf-8")).body
            if isinstance(node, DEFS)]
    if len(defs) < 20:
        pytest.fail(f"found only {len(defs)} oracles in {TESTS / 'oracles.py'}")
