"""Every module-level import of a package module is used, every export
of the package resolves, and so does every package name that the README
quotes: no linter runs on this tree, so an import, export or README name
orphaned by a refactor shows up here."""

import ast
import importlib
import os
import re
import subprocess
import sys
from functools import partial, reduce
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


def test_no_public_name_is_a_partial():
    # A public partial is a second name for a call that has one already,
    # such as rep.act with its operator bound.
    modules = [importlib.import_module(f"sl2crit.{name}")
               for name in ("rep", "zalg", "wedge", "fock")]
    names = [(f"sl2crit.{name}", getattr(sl2crit, name))
             for name in sl2crit.__all__]
    names += [(f"{module.__name__}.{name}", value)
              for module in modules for name, value in vars(module).items()
              if not name.startswith("_")]
    assert [name for name, value in names if isinstance(value, partial)] \
        == []


def _references(name, node, where=()):
    """The qualified names of the defs around every reference to `name`
    below node, as a bare name or as an attribute."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _references(name, child, where + (child.name,))
            continue
        if (isinstance(child, ast.Name) and child.id == name
                or isinstance(child, ast.Attribute) and child.attr == name):
            yield ".".join(where)
        yield from _references(name, child, where)


def test_only_word_residuals_opens_a_window():
    # One path from a word identity to its residual: a suite lists its
    # identities for harness._word_residuals instead of opening a
    # rep.Window of its own.
    found = [(path.stem, where) for path in MODULES
             for where in _references("Window", ast.parse(path.read_text()))]
    assert found == [("harness", "_word_residuals")]


def _readme_names():
    """The dotted names that open a backticked span of README.md outside
    its code blocks and whose first part, after an optional `sl2crit.`, is
    a package module: `rep.act(op, m, s)` gives rep.act."""
    modules = {p.stem for p in MODULES}
    readme = Path(sl2crit.__file__).parents[2] / "README.md"
    text = re.sub(r"```.*?```", "", readme.read_text(), flags=re.S)
    names = []
    for span in re.findall(r"`([^`]*)`", text):
        match = re.match(r"(?:sl2crit\.)?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)",
                         span)
        if match and match.group(1).split(".")[0] in modules:
            names.append(match.group(1))
    return names


def test_readme_names_resolve():
    names = _readme_names()
    assert len(names) > 20

    def resolves(name):
        first, *rest = name.split(".")
        try:
            reduce(getattr, rest,
                   importlib.import_module(f"sl2crit.{first}"))
        except AttributeError:
            return False
        return True

    assert [name for name in names if not resolves(name)] == []


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
