"""No module of the package reaches into another module's private names,
none keeps a private function or class nothing uses, or an unused import,
none but revsim names the simulation kernel, and none but circuit names the
encoder of a Gate as a record."""

import ast
from collections import Counter
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


def references(tree):
    """How often each name is read as a name or an attribute under tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def dead_names(sources):
    """{module: [(line, name)]} of each module-level private function or class
    that no module references outside its own definition, and of each import
    its module never reads.  ``from __future__`` imports are not counted."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    everywhere = sum(map(references, trees.values()), Counter())
    found = {}
    for module, tree in trees.items():
        dead = [(node.lineno, node.name) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and is_private(node.name) and everywhere[node.name] == references(node)[node.name]]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                dead += [(node.lineno, a.asname or a.name) for a in node.names
                         if (a.asname or a.name).split(".")[0] not in read]
        if dead:
            found[module] = sorted(dead)
    return found


def test_no_module_keeps_an_unused_private_definition_or_import():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    assert {"analysis.py", "circuit.py", "galois.py"} <= set(sources)
    assert dead_names(sources) == {}


def test_the_check_sees_an_unused_helper_and_an_unused_import():
    sources = {
        "a.py": (
            "import os\n"
            "import math, os.path\n"
            "from .b import run as go\n"
            "def _helper():\n"
            "    return _helper()\n"
            "def _used():\n"
            "    return math.pi\n"
            "class _Kept:\n"
            "    pass\n"
            "def public():\n"
            "    return _used(), go\n"
        ),
        "b.py": "from . import a\ndef run():\n    return a._Kept\n",
    }
    assert dead_names(sources) == {"a.py": [(1, "os"), (2, "os.path"), (4, "_helper")]}


def name_reaches(sources, name, home):
    """{module: [line]} of each module but home that names name: imports it,
    reads it as a name or an attribute."""
    found = {}
    for module, source in sources.items():
        if module == home:
            continue
        lines = sorted({node.lineno for node in ast.walk(ast.parse(source))
                        if isinstance(node, ast.Name) and node.id == name
                        or isinstance(node, ast.Attribute) and node.attr == name
                        or isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names)})
        if lines:
            found[module] = lines
    return found


KERNEL = "compile_permutation"


def test_only_revsim_runs_the_kernel():
    """Every other module reaches the kernel through one of revsim's proofs."""
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert KERNEL in sources["revsim.py"] and "gf2m.py" in sources
    assert name_reaches(sources, KERNEL, "revsim.py") == {}


def test_the_check_sees_an_import_a_name_and_an_attribute_of_the_kernel():
    sources = {
        "revsim.py": "def compile_permutation(c):\n    return []\n",
        "a.py": "from .revsim import affine_images, compile_permutation as run\n",
        "b.py": "from . import revsim\ndef f(c):\n    return revsim.compile_permutation(c)\n",
        "c.py": "from .revsim import *\ncompiled = compile_permutation\n",
        "d.py": "from .revsim import affine_images\n# compile_permutation is named only here\n",
    }
    assert name_reaches(sources, KERNEL, "revsim.py") == {"a.py": [1], "b.py": [3], "c.py": [2]}


def test_only_circuit_encodes_a_gate_as_a_record():
    """Every X and MCX is stored as its record, so every other module emits
    records or reads them as stored; none encodes a Gate itself."""
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert "def record_of(" in sources["circuit.py"] and "revsim.py" in sources
    assert name_reaches(sources, "record_of", "circuit.py") == {}


def test_the_check_sees_an_import_and_an_attribute_of_the_record_encoder():
    sources = {
        "circuit.py": "def record_of(table, g):\n    return (), 0\n",
        "revsim.py": "from .circuit import Circuit, record_of\n",
        "gf2m.py": "from . import circuit as ir\ndef f(table, g):\n    return ir.record_of(table, g)\n",
        "lowering.py": "# record_of is named only here\nrecords = 'record_of'\n",
    }
    assert name_reaches(sources, "record_of", "circuit.py") == {"revsim.py": [1], "gf2m.py": [3]}
