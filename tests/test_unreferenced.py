"""Every function and method in the package has a caller in the package.

Code that only the tests call belongs in the tests.  The scan parses each
module of ``src/dimermirror`` and collects every name it loads, every
attribute it reads and every name it imports; a definition whose name is in
none of them, and is not a dunder method, is unreferenced.  Names are matched
without their class, so a method counts as referenced when any attribute of
that name is read anywhere in the package.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dimermirror"

# public entry points that the package itself does not call, and why each stays
ALLOWED = {
    "jacobi.py:Jacobi.compose": "the product of two path classes, the rule the Koszul kernels "
    "apply term by term; library callers and the tests' reference kernels compose with it",
    "matchings.py:max_weight_matching": "the documented dense entry to _hungarian, which the "
    "package calls on its sparse rows directly",
}


def definitions_and_references(package: Path) -> tuple[list, set]:
    defs, refs = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def walk(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, child.name)
                    continue
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{owner}.{child.name}" if owner else child.name
                    defs.append((f"{path.name}:{qualname}", child.name))
                walk(child, owner)

        walk(tree, None)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
    return defs, refs


def unreferenced(package: Path) -> set:
    defs, refs = definitions_and_references(package)
    return {
        where
        for where, name in defs
        if name not in refs and not (name.startswith("__") and name.endswith("__"))
    }


def test_every_definition_in_src_has_a_caller_in_src():
    assert unreferenced(PACKAGE) - set(ALLOWED) == set()


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
