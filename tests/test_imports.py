"""No module of the package imports a name it never uses.

No linter runs on this repository, so a deletion can leave a dead import
behind. Every use of a bound name, annotations included, is an `ast.Name`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hetsim"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_sees_dead_and_annotation_only_imports():
    assert unused_imports("from typing import Sequence\nimport os.path as p\n") == \
        ["Sequence", "p"]
    assert unused_imports("from __future__ import annotations\nimport os.path\n"
                          "from typing import Sequence\n"
                          "def f(x: Sequence) -> None:\n    os.getcwd()\n") == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
