"""The demos call only names the package exports.

Each demo is parsed, not run (running them all takes seconds): every
``gp.<name>`` it uses must exist on ``genprior``.
"""

import ast
from pathlib import Path

import pytest

import genprior

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_uses_only_exported_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "genprior"}
    assert aliases, f"{path.name} does not import genprior"
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in aliases}
    assert sorted(name for name in used if not hasattr(genprior, name)) == []
