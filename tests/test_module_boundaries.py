"""No module of the package reaches into another module's private names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qrsmux"


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def defined_names(tree):
    """Every name the module defines: its functions and classes, every name or
    attribute it assigns, and every string in a ``__slots__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
            names.update(c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return names


def private_reaches(source):
    """(line, text) of each relative import of a private name, and of each
    read of a private attribute that the module does not define itself."""
    tree = ast.parse(source)
    own = defined_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found += [(node.lineno, f"from .{node.module or ''} import {a.name}")
                      for a in node.names if is_private(a.name)]
        elif isinstance(node, ast.Attribute) and is_private(node.attr) and node.attr not in own:
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_no_module_reaches_into_another_modules_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {p.stem for p in modules} >= {"analysis", "circuit", "gf2m", "lowering", "sumsynth"}
    reaches = {p.name: private_reaches(p.read_text()) for p in modules}
    assert {name: found for name, found in reaches.items() if found} == {}


def test_the_check_sees_an_import_and_a_read_of_a_foreign_private_name():
    source = (
        "from .lowering import _class_rule, Strategy\n"
        "from . import lowering\n"
        "class Row:\n"
        "    __slots__ = ('_cells',)\n"
        "    def __init__(self):\n"
        "        self._total = 0\n"
        "    def cost(self, g):\n"
        "        return self._total + len(self._cells) + lowering._price(g).__class__\n"
    )
    assert private_reaches(source) == [(1, "from .lowering import _class_rule"), (8, "lowering._price")]
