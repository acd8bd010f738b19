"""Every module-level import of a package module is used, and every
export of the package resolves: no linter runs on this tree, so an import
or export orphaned by a refactor shows up here."""

import ast
import os
import subprocess
import sys
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


def test_exports_resolve_once():
    names = sl2crit.__all__
    assert [name for name in names if not hasattr(sl2crit, name)] == []
    assert sorted({name for name in names if names.count(name) > 1}) == []


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # Every sl2crit process pays its imports; these two cost about 10 ms.
    # A child process, so that the modules pytest imported do not count.
    src = str(Path(sl2crit.__file__).parents[1])
    code = ("import sl2crit.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
