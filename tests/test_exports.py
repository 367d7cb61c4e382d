"""Every name the package exports, every field of an exported record and
every private name a module of it defines at top level, has a use outside
the tests.

A reference counts when it is in ``src/genprior/`` (``__init__.py``
aside), ``demos/`` or ``perfbench/``: an attribute ``<anything>.name``,
or a load of ``name`` in a module that imports it from the package or
defines it at top level.  A definition, an ``__all__`` entry (a string)
and a docstring are no reference, and neither is a local variable that
only shares the name, nor a private name's use inside its own
definition.  The files are parsed, not run.
"""

import ast
import dataclasses
import importlib
import types
from pathlib import Path

import genprior

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ([p for p in sorted((ROOT / "src" / "genprior").glob("*.py"))
            if p.name != "__init__.py"]
           + sorted((ROOT / "demos").glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py")))


def references(path):
    """The package-level names one file refers to, by the top-level
    statement they occur in."""
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
    by_statement = {}
    for statement in tree.body:
        refs = by_statement[statement] = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                  and node.id in bound):
                refs.add(bound[node.id])
    return by_statement


def defined(statement):
    """The names one top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, ast.Assign):
        return {t.id for t in statement.targets if isinstance(t, ast.Name)}
    return set()


def test_every_export_is_used_outside_the_tests():
    used = set().union(*(refs for path in SOURCES
                         for refs in references(path).values()))
    exports = [name for name in genprior.__all__
               if not isinstance(getattr(genprior, name), types.ModuleType)]
    unused = sorted(name for name in exports if name not in used)
    assert not unused, f"exported, but used only by the tests: {unused}"


def test_every_private_name_is_used_outside_the_tests():
    used, private = set(), set()
    for path in SOURCES:
        for statement, refs in references(path).items():
            names = defined(statement)
            used |= refs - names
            if path.parent.name == "genprior":
                private |= {n for n in names
                            if n.startswith("_") and not n.startswith("__")}
    unused = sorted(private - used)
    assert len(private) > 40, sorted(private)  # the scan found the modules
    assert not unused, f"defined, but used only by the tests: {unused}"


def test_every_field_of_an_exported_record_is_read_outside_the_tests():
    # A record is a dataclass or NamedTuple that the package or one of its
    # modules exports; a field counts as read by an attribute of its name.
    read = set().union(*(refs for path in SOURCES
                         for refs in references(path).values()))
    modules = [genprior] + [importlib.import_module(f"genprior.{path.stem}")
                            for path in SOURCES if path.parent.name == "genprior"]
    records = {obj for module in modules for name in module.__all__
               if isinstance(obj := getattr(module, name), type)
               and (dataclasses.is_dataclass(obj) or hasattr(obj, "_fields"))}
    unread = sorted(f"{cls.__name__}.{name}" for cls in records
                    for name in (cls._fields if hasattr(cls, "_fields")
                                 else [f.name for f in dataclasses.fields(cls)])
                    if name not in read)
    assert len(records) > 8, sorted(cls.__name__ for cls in records)
    assert not unread, f"fields read only by the tests: {unread}"
