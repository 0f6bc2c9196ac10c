"""Every name a package module imports is read where it is imported, no
function imports from a module its file imports at module level, every
parameter of a function is read in the function, and every function,
class and method of a package module is read by the program."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "logblocks"
# the package modules coinv, propagate and functoriality load, as
# tests/test_records.py::test_only_diff_loads_logmonoid pins them
SOLVE_MODULES = ("__init__", "blocks", "cli", "curves", "exactalg",
                 "series", "vacore")
# the modules only some other commands load
OTHER_MODULES = sorted({path.stem for path in PACKAGE.glob("*.py")}
                       - set(SOLVE_MODULES))


def imports(tree) -> list:
    """(scope, module, name, bound) for each name an import of the parsed
    source tree binds, in source order.  scope is the innermost function around the
    import, or None at module level; module is the dotted module path
    (leading dots for a relative import) and bound the name it binds."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((scope, a.name, a.name,
                              a.asname or a.name.partition(".")[0])
                             for a in child.names)
            elif (isinstance(child, ast.ImportFrom)
                  and child.module != "__future__"):
                module = "." * child.level + (child.module or "")
                found.extend((scope, module, a.name, a.asname or a.name)
                             for a in child.names)
            visit(child, child if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(tree, None)
    return found


def reads(node) -> set:
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unread_imports(source: str) -> list:
    """Names bound by the imports of source that nothing reads where they
    are bound, in source order: in the function around an import inside
    one, and anywhere in the module for an import at module level."""
    tree = ast.parse(source)
    return [bound for scope, _, _, bound in imports(tree)
            if bound not in reads(scope or tree)]


def function_reimports(source: str) -> list:
    """(function, name) for each name a function of source imports from a
    module that source also imports from at module level, in source
    order."""
    found = imports(ast.parse(source))
    top = {module for scope, module, _, _ in found if scope is None}
    return [(scope.name, name) for scope, module, name, _ in found
            if scope is not None and module in top]


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


def local_names(f) -> set:
    """The names function or lambda f binds locally: its parameters, the
    names it assigns and the functions and classes it defines, not those
    of the functions and lambdas nested in it."""
    a = f.args
    names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
             + [a.vararg, a.kwarg] if p is not None}
    todo = list(f.body) if isinstance(f.body, list) else [f.body]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def global_reads(tree) -> set:
    """The names loaded as variables in tree, leaving out each load of a
    name that a function around it binds locally."""
    found = set()

    def visit(node, local):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if child.id not in local:
                    found.add(child.id)
            elif isinstance(child, (ast.FunctionDef, ast.Lambda)):
                visit(child, local | local_names(child))
            else:
                visit(child, local)

    visit(tree, frozenset())
    return found


def unread_definitions(source: str, program: list) -> list:
    """Qualified names of the module-level functions and classes of source,
    and of the methods of its module-level classes (dunder methods left
    out), whose name no source of program reads, in source order.  A name
    is read where it is loaded as a variable or as an attribute, the
    defining module included; the load of a name a function binds locally
    (see ``local_names``) does not read a definition.  A method counts as
    read when an attribute of its name is read anywhere, so a name shared
    with another class, such as plus or scaled, hides an unread method."""
    read = set()
    for text in program:
        tree = ast.parse(text)
        read |= global_reads(tree) | {n.attr for n in ast.walk(tree)
                                      if isinstance(n, ast.Attribute)
                                      and isinstance(n.ctx, ast.Load)}
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{f.name}" for f in node.body
                      if isinstance(f, ast.FunctionDef)
                      and not (f.name.startswith("__")
                               and f.name.endswith("__"))]
    return [name for name in found if name.rpartition(".")[2] not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_function_imports_from_a_module_level_import(path):
    assert function_reimports(path.read_text()) == []


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


def test_unread_imports_reads_an_import_in_a_function_there():
    source = ("import os\n"
              "def f():\n"
              "    import re\n"
              "    from math import gcd, lcm as l\n"
              "    return gcd, os\n"
              "def g():\n"
              "    return re, l\n")
    assert unread_imports(source) == ["re", "l"]


def test_function_reimports_finds_modules_imported_at_module_level():
    source = ("import os\n"
              "from .vacore import theta\n"
              "def f():\n"
              "    import os.path\n"
              "    from .vacore import partitions_of\n"
              "    from ..vacore import basis\n"
              "    from .coordact import act\n"
              "    return os, partitions_of, basis, act\n")
    assert function_reimports(source) == [("f", "partitions_of")]


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


def unread_in_program(module):
    """The unread definitions of a package module, read by the package,
    the scripts and the acceptance suite, whose API ROADMAP pins; only
    coordact.act and VertexAlgebraInstance.dim are read by that suite
    alone today."""
    program = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               + sorted((ROOT / "scripts").glob("*.py"))
               + [ROOT / "tests" / "test_acceptance.py"]]
    return unread_definitions((PACKAGE / f"{module}.py").read_text(),
                              program)


@pytest.mark.parametrize("module", SOLVE_MODULES)
def test_every_definition_a_solve_loads_is_read(module):
    assert unread_in_program(module) == []


@pytest.mark.parametrize("module", OTHER_MODULES)
def test_every_definition_of_the_other_modules_is_read(module):
    assert unread_in_program(module) == []


def test_unread_definitions_finds_only_the_unread_names():
    source = ("def f():\n"
              "    return g()\n"
              "def g():\n"
              "    pass\n"
              "def h():\n"
              "    pass\n"
              "class C:\n"
              "    def __init__(self):\n"
              "        self.m = 1\n"
              "    def m(self):\n"
              "        return self.n\n"
              "    def n(self):\n"
              "        pass\n"
              "    def plus(self):\n"
              "        pass\n"
              "    def k(self):\n"
              "        def inner():\n"
              "            pass\n"
              "class D:\n"
              "    pass\n")
    other = "from mod import C, D\nD().plus(C().k)\n"
    # a function's own f, h and m read no definition of source
    shadowing = ("def w(f):\n"
                 "    h = f\n"
                 "    def m():\n"
                 "        return h\n"
                 "    return m, lambda h: h\n")
    assert unread_definitions(source, [source]) == [
        "f", "h", "C", "C.m", "C.plus", "C.k", "D"]
    assert unread_definitions(source, [source, other]) == ["f", "h", "C.m"]
    assert unread_definitions(source, [source, other, shadowing]) == [
        "f", "h", "C.m"]
