"""Every name a package module imports at module level is read there."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "logblocks"


def unread_imports(source: str) -> list:
    """Names bound by the module-level imports of source that no
    expression of the module reads, in import order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0]
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_module_level_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_unread_imports_finds_only_the_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import re as regex\n"
              "from fractions import Fraction\n"
              "from math import factorial as fact, gcd\n"
              "def f(x: Fraction):\n"
              "    return os.sep, gcd\n")
    assert unread_imports(source) == ["regex", "fact"]
