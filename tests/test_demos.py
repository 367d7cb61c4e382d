"""The demos call only names the package exports, with arguments they take.

Each demo is parsed, not run (running them all takes seconds): every
``gp.<name>`` it uses must exist on ``genprior``, and every ``gp.<name>(...)``
call must bind to that name's signature: no unknown keyword, and no more
positional arguments than it takes.
"""

import ast
import inspect
from pathlib import Path

import pytest

import genprior

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def parse(path):
    """The demo's syntax tree and the names it imports genprior as."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "genprior"}
    assert aliases, f"{path.name} does not import genprior"
    return tree, aliases


def is_package_attr(node, aliases):
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases)


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_uses_only_exported_names(path):
    tree, aliases = parse(path)
    used = {node.attr for node in ast.walk(tree) if is_package_attr(node, aliases)}
    assert sorted(name for name in used if not hasattr(genprior, name)) == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_calls_bind_to_their_signatures(path):
    tree, aliases = parse(path)
    unbound = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and is_package_attr(node.func, aliases)
                and hasattr(genprior, node.func.attr)):
            continue
        # A starred argument has no count to check; its keywords still do.
        args = ([] if any(isinstance(a, ast.Starred) for a in node.args)
                else [None] * len(node.args))
        kwargs = {kw.arg: None for kw in node.keywords if kw.arg is not None}
        try:
            inspect.signature(getattr(genprior, node.func.attr)).bind_partial(
                *args, **kwargs)
        except TypeError as exc:
            unbound.append(f"line {node.lineno}: gp.{node.func.attr}: {exc}")
    assert unbound == []
