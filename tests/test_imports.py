"""Every module-level import of a package module is used: no linter runs on
this tree, so an import orphaned by a refactor shows up here."""

import ast
from pathlib import Path

import pytest

import sl2crit

MODULES = sorted(p for p in Path(sl2crit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _bound_names(node):
    """Names bound by an import statement, except `from __future__`."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [(alias.asname or alias.name).split(".")[0]
            for alias in node.names]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text())
    imported = [name for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _bound_names(node)]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported if name not in used] == []
