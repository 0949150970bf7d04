"""The README's library example runs, every name it imports resolves, and
every command line it shows parses.

A root name the docs still use cannot then be dropped from the package
without this failing, nor can a module path, a flag or a scenario file the
README gives go stale.
"""

import importlib
import re
import shlex
from pathlib import Path

from hetsim.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def resolve(dotted: str) -> object:
    """`hetsim.<module>.<name>...`: the module, then attributes down the rest."""
    package, module, *names = dotted.split(".")
    obj = importlib.import_module(f"{package}.{module}")
    for name in names:
        obj = getattr(obj, name)
    return obj


def test_library_use_example_runs(monkeypatch, capsys):
    section = README.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)  # its scenario path is relative to the repository root
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("RunSummary(")


def test_every_name_the_readme_imports_resolves():
    imports = re.findall(r"^from (hetsim[\w.]*) import (.+)$", README, re.M)
    assert imports
    for module, names in imports:
        for name in names.split(","):
            assert hasattr(importlib.import_module(module), name.strip()), (module, name)
    qualified = re.findall(r"`(hetsim(?:\.\w+)+)", README)
    assert "hetsim.netmodel.perf_at" in qualified
    for dotted in qualified:
        resolve(dotted)


def test_command_line_examples_parse():
    section = README.split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = block.splitlines()
    assert lines and all(line.startswith("hetsim ") for line in lines)
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])  # nothing runs
        assert (ROOT / args.scenario).is_file(), line
