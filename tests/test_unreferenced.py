"""Every function and method in the package has a caller in the package.

Code that only the tests call belongs in the tests.  The scan parses each
module of ``src/dimermirror`` and collects every attribute it reads, and
apart from those every name it loads or imports.  A method, a def directly
in a class body, is referenced only when an attribute of its name is read
somewhere in the package: a local variable of the same name does not call
it.  A module-level function, or a function nested in another function, is
also referenced by its bare name or an import.  Dunder methods are exempt.
Names are matched without their class: an attribute of a method's name read
on any object counts.

Every parameter of a def is read in its body, or in a function nested in it.
``self``, ``cls`` and names that start with ``_`` are exempt, and so are the
parameters of dunder methods other than ``__init__`` and ``__new__``, whose
signatures their protocol fixes.

The tests' own helpers are scanned the same way: every module-level def in
``tests`` that is not a ``test_*`` function, a fixture or a pytest hook has a
caller in ``tests``, so a helper is deleted with the last test that used it.
"""

from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "dimermirror"

# public entry points that the package itself does not call, and why each stays
ALLOWED = {
    "jacobi.py:Jacobi.compose": "the product of two path classes, the rule the Koszul kernels "
    "apply term by term; library callers and the tests' reference kernels compose with it",
}


def definitions_and_references(package: Path) -> tuple[list, set, set]:
    """(every def as (where, name, is a method, node), attributes read, other names loaded or imported)."""
    defs, attrs, names = [], set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def walk(node, owner, in_class):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, child.name, True)
                    continue
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{owner}.{child.name}" if owner else child.name
                    defs.append((f"{path.name}:{qualname}", child.name, in_class, child))
                    walk(child, owner, False)
                    continue
                walk(child, owner, in_class)

        walk(tree, None, False)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return defs, attrs, names


def unreferenced(package: Path) -> set:
    defs, attrs, names = definitions_and_references(package)
    return {
        where
        for where, name, is_method, _ in defs
        if name not in attrs
        and (is_method or name not in names)
        and not (name.startswith("__") and name.endswith("__"))
    }


def unread_parameters(package: Path) -> set:
    """Every parameter that its def never reads, as ``where(parameter)``."""
    out = set()
    for where, name, _, node in definitions_and_references(package)[0]:
        if name.startswith("__") and name.endswith("__") and name not in ("__init__", "__new__"):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        out |= {
            f"{where}({p.arg})"
            for p in params
            if p and p.arg not in read and p.arg not in ("self", "cls") and not p.arg.startswith("_")
        }
    return out


def uncalled_helpers(folder: Path) -> set:
    """Every module-level def in ``folder`` that nothing there reads: tests, fixtures and pytest hooks aside."""
    _, attrs, names = definitions_and_references(folder)
    out = set()
    for path in sorted(folder.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            fixture = any("fixture" in ast.unparse(dec) for dec in node.decorator_list)
            if node.name.startswith(("test_", "pytest_")) or fixture:
                continue
            if node.name not in attrs and node.name not in names:
                out.add(f"{path.name}:{node.name}")
    return out


def test_every_definition_in_src_has_a_caller_in_src():
    assert unreferenced(PACKAGE) - set(ALLOWED) == set()


def test_every_parameter_in_src_is_read():
    assert unread_parameters(PACKAGE) == set()


def test_every_allowlisted_definition_is_still_unreferenced():
    # an entry whose definition gained a caller, or went away, is stale
    assert set(ALLOWED) <= unreferenced(PACKAGE)


def test_the_scan_finds_a_method_nothing_calls(tmp_path):
    (tmp_path / "m.py").write_text(
        "class A:\n"
        "    def __init__(self):\n"
        "        self.used()\n"
        "    def used(self):\n"
        "        return helper\n"
        "    def orphan(self):\n"
        "        return 1\n"
        "def helper():\n"
        "    pass\n"
    )
    assert unreferenced(tmp_path) == {"m.py:A.orphan"}


def test_a_local_variable_does_not_call_a_method(tmp_path):
    (tmp_path / "m.py").write_text(
        "class A:\n"
        "    def word(self):\n"
        "        return 1\n"
        "def f():\n"
        "    word = 2\n"
        "    return word\n"
        "f()\n"
    )
    assert unreferenced(tmp_path) == {"m.py:A.word"}


def test_a_function_nested_in_a_method_is_called_by_its_name(tmp_path):
    (tmp_path / "m.py").write_text(
        "class A:\n"
        "    def __init__(self):\n"
        "        def inner():\n"
        "            return 1\n"
        "        self.x = inner()\n"
    )
    assert unreferenced(tmp_path) == set()


def test_the_scan_finds_a_parameter_nothing_reads(tmp_path):
    (tmp_path / "m.py").write_text(
        "class A:\n"
        "    def __init__(self, spare):\n"
        "        pass\n"
        "    def __setattr__(self, name, value):\n"
        "        raise AttributeError(name)\n"
        "    def pick(self, unused, strip, _ignored):\n"
        "        return strip\n"
        "def f(x, *rest, y=1):\n"
        "    return lambda: (x, rest)\n"
    )
    assert unread_parameters(tmp_path) == {"m.py:A.__init__(spare)", "m.py:A.pick(unused)", "m.py:f(y)"}


def test_every_helper_in_tests_has_a_caller_in_tests():
    assert uncalled_helpers(TESTS) == set()


def test_the_scan_finds_a_test_helper_nothing_calls(tmp_path):
    (tmp_path / "test_m.py").write_text(
        "import pytest\n"
        "@pytest.fixture\n"
        "def data():\n"
        "    return used()\n"
        "def used():\n"
        "    return 1\n"
        "def orphan():\n"
        "    return 2\n"
        "def pytest_configure(config):\n"
        "    pass\n"
        "def test_x(data):\n"
        "    assert data\n"
    )
    assert uncalled_helpers(tmp_path) == {"test_m.py:orphan"}
