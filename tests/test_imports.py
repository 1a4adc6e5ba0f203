"""Every module of the package and of its tests reads each name it imports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.joinpath("src", "cfqa").glob("*.py"),
                  *ROOT.joinpath("tests").glob("*.py")])


def unread_imports(source: str) -> list[str]:
    """The names that ``source`` binds by an import and never reads; names
    from ``__future__`` and those listed in ``__all__`` count as read."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in read)


def test_the_scan_finds_an_unread_import():
    source = ("from __future__ import annotations\nimport json\nimport numpy as np\n"
              "from os import path, sep\n__all__ = ['sep']\nnp.zeros(path)\n")
    assert unread_imports(source) == ["json"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []
