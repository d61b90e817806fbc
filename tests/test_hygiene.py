"""Import hygiene: no module imports a name it never reads, the package defines
no top-level name that nothing reads, and planning loads no generator."""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import lplan

SRC = pathlib.Path(lplan.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """The names a module imports, outside __future__, and never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_the_scan_names_unread_imports():
    source = "import os.path\nimport re as regex\nfrom json import dumps, loads\nx = loads(os.sep)\n"
    assert unread_imports(source) == ["dumps (line 3)", "regex (line 2)"]
    assert unread_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text()) == []


def unread_definitions(sources: dict[str, str], exported: set[str]) -> list[str]:
    """Top-level names, not dunder or exported, that no source reads as a name or attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            found += [f"{module}: {t}" for t in targets if t not in read | exported and t[:2] != "__"]
    return sorted(found)


def test_the_scan_names_unread_definitions():
    sources = {
        "a.py": "X = 1\n_y: int = 2\n__all__ = []\ndef f(): return g.h\nclass C: pass\n",
        "b.py": "from a import f\nf()\n",
    }
    assert unread_definitions(sources, {"C"}) == ["a.py: X", "a.py: _y"]


def test_every_definition_is_read_or_exported():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unread_definitions(sources, set(lplan.__all__)) == []


def test_planning_does_not_load_the_generator():
    code = "import sys, lplan.io, lplan.pipeline; print('lplan.gen' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"


def test_generator_names_load_on_first_use():
    from lplan import GenSpec, generate_ptpg

    assert generate_ptpg(GenSpec(n=8, seed=1)).vertices
    assert all(hasattr(lplan, name) for name in lplan.__all__)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        lplan.nope
