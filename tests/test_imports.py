"""No module of the package or of its tests imports a name it never uses.

No linter runs on this repository, so a deletion can leave a dead import
behind. Every use of a bound name, annotations included, is an `ast.Name`,
and a name listed in `__all__` counts as used: the package root imports only
to export.
`benchmarks/` is left out, so that a change to the benchmark alone cannot fail it.

The package uses only the standard library (`pyproject.toml` lists no
dependency): every import in `src/hetsim` names a module of
`sys.stdlib_module_names` or, relatively, one of the package's own, so a
stray import fails here even where that package happens to be installed.

`tests/reference.py` writes the scoring and the decision rules itself, so
it imports nothing from `hetsim.evaluation` or `hetsim.strategy`: reference
equality could not see a fault in a rule the reference borrowed.

`pyproject.toml` makes a deprecation warned from any `hetsim` module an
error; a lost or mistyped policy fails here, on every Python.
"""

import ast
import sys
import warnings
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = sorted((TESTS.parent / "src" / "hetsim").glob("*.py"))
MODULES = PACKAGE + sorted(TESTS.glob("*.py"))
#: The program modules whose rules the reference states in its own code.
RULE_MODULES = ("hetsim.evaluation", "hetsim.strategy")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_checker_sees_dead_and_annotation_only_imports():
    assert unused_imports("from typing import Sequence\nimport os.path as p\n") == \
        ["Sequence", "p"]
    assert unused_imports("from __future__ import annotations\nimport os.path\n"
                          "from typing import Sequence\n"
                          "def f(x: Sequence) -> None:\n    os.getcwd()\n") == []
    # An import that `__all__` exports is used; one neither used nor exported is not.
    assert unused_imports("from .domain import load_scenario, scenario_from_dict\n"
                          "__all__ = ['load_scenario']\n") == ["scenario_from_dict"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def non_stdlib_imports(source: str) -> list[str]:
    """The top-level names outside the standard library that `source` imports
    absolutely; a relative import is the package's own."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.partition(".")[0])
    return sorted(found - sys.stdlib_module_names)


def test_checker_sees_a_non_stdlib_import():
    assert non_stdlib_imports("import numpy\n") == ["numpy"]
    assert non_stdlib_imports("from __future__ import annotations\nimport os.path\n"
                              "from .domain import DSRC\nfrom . import engine\n"
                              "def f():\n    from numpy.random import default_rng\n"
                              "    import hetsim\n") == ["hetsim", "numpy"]


def test_package_uses_only_the_standard_library():
    found = {module.name: non_stdlib_imports(module.read_text(encoding="utf-8"))
             for module in PACKAGE}
    assert {name: names for name, names in found.items() if names} == {}


def imports_from(source: str, modules) -> list[str]:
    """The names of `modules` (or of names inside them) that `source` imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found.update(name for name in names for m in modules
                     if name == m or name.startswith(m + "."))
    return sorted(found)


def test_checker_sees_every_form_of_a_rule_import():
    assert imports_from("from hetsim.strategy import decide_game\n", RULE_MODULES) == \
        ["hetsim.strategy", "hetsim.strategy.decide_game"]
    assert imports_from("import hetsim.evaluation as ev\n", RULE_MODULES) == \
        ["hetsim.evaluation"]
    assert imports_from("def f():\n    from hetsim import domain, strategy\n",
                        RULE_MODULES) == ["hetsim.strategy"]
    assert imports_from("from hetsim.domain import DSRC\nimport hetsim.engine\n"
                        "from hetsim.strategies import x\n", RULE_MODULES) == []


def test_reference_states_the_rules_itself():
    assert imports_from((TESTS / "reference.py").read_text(encoding="utf-8"),
                        RULE_MODULES) == []


def test_hetsim_deprecations_are_errors():
    for category in (DeprecationWarning, PendingDeprecationWarning):
        with pytest.raises(category):
            warnings.warn_explicit("old", category, "engine.py", 1, module="hetsim.engine")
