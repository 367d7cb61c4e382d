"""Every name the package exports has a use outside the tests.

A reference counts when it is in ``src/genprior/`` (``__init__.py``
aside), ``demos/`` or ``perfbench/``: an attribute ``<anything>.name``,
or a load of ``name`` in a module that imports it from the package or
defines it at top level.  A definition, an ``__all__`` entry (a string)
and a docstring are no reference, and neither is a local variable that
only shares the name.  The files are parsed, not run.
"""

import ast
import types
from pathlib import Path

import genprior

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ([p for p in sorted((ROOT / "src" / "genprior").glob("*.py"))
            if p.name != "__init__.py"]
           + sorted((ROOT / "demos").glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py")))


def references(path):
    """The package-level names one file refers to."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").startswith("genprior"))
             for alias in node.names}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = node.name
        elif isinstance(node, ast.Assign):
            bound.update((t.id, t.id) for t in node.targets if isinstance(t, ast.Name))
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
              and node.id in bound):
            refs.add(bound[node.id])
    return refs


def test_every_export_is_used_outside_the_tests():
    used = set().union(*(references(path) for path in SOURCES))
    exports = [name for name in genprior.__all__
               if not isinstance(getattr(genprior, name), types.ModuleType)]
    unused = sorted(name for name in exports if name not in used)
    assert not unused, f"exported, but used only by the tests: {unused}"
