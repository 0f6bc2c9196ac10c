"""Every name a package module imports at module level is read there, and
every parameter of its functions is read in the function."""

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


def unread_parameters(source: str) -> list:
    """(function, parameter) for each parameter of a function or lambda of
    source that its body never reads, in source order.  A dunder method
    keeps the parameters its protocol gives it, and a method its receiver
    (the first parameter of a function in a class body, unless it is a
    staticmethod), so neither is reported."""
    tree = ast.parse(source)
    receivers = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for f in cls.body:
                if (isinstance(f, ast.FunctionDef) and f.args.args
                        and not any(isinstance(d, ast.Name)
                                    and d.id == "staticmethod"
                                    for d in f.decorator_list)):
                    receivers.add(f.args.args[0])
    found = []
    for f in ast.walk(tree):
        if not isinstance(f, (ast.FunctionDef, ast.Lambda)):
            continue
        name = getattr(f, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        a = f.args
        params = a.posonlyargs + a.args + a.kwonlyargs
        params += [p for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for n in ast.walk(f)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(p.lineno, p.col_offset, name, p.arg) for p in params
                  if p.arg not in read and p not in receivers]
    return [(name, arg) for _, _, name, arg in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_module_level_import_is_read(path):
    assert unread_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_unread_imports_finds_only_the_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import re as regex\n"
              "from fractions import Fraction\n"
              "from math import factorial as fact, gcd\n"
              "def f(x: Fraction):\n"
              "    return os.sep, gcd\n")
    assert unread_imports(source) == ["regex", "fact"]


def test_unread_parameters_finds_only_the_unread_names():
    source = ("def f(a, b, *args, c, d=1, **kwargs):\n"
              "    def g(e):\n"
              "        return a\n"
              "    return g, args, d, (lambda x, y: y)\n"
              "class C:\n"
              "    def __setattr__(self, name, value):\n"
              "        raise AttributeError\n"
              "    def m(self, u, v):\n"
              "        return v\n"
              "    @staticmethod\n"
              "    def s(w):\n"
              "        return 0\n"
              "    @property\n"
              "    def p(self):\n"
              "        return 1\n")
    assert unread_parameters(source) == [
        ("f", "b"), ("f", "c"), ("f", "kwargs"), ("g", "e"),
        ("<lambda>", "x"), ("m", "u"), ("s", "w")]
