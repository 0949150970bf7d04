"""No module of the package or of its tests imports a name it never uses.

No linter runs on this repository, so a deletion can leave a dead import
behind. Every use of a bound name, annotations included, is an `ast.Name`.
`benchmarks/` is left out, so that a change to the benchmark alone cannot fail it.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
MODULES = sorted((TESTS.parent / "src" / "hetsim").glob("*.py")) + sorted(TESTS.glob("*.py"))


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


@pytest.mark.parametrize("module", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []
