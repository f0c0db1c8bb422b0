"""Every name a demo or a README python block imports from irsplan exists,
and every flag of a README command line is an option of its verb.

The sources are parsed, not run.
"""

import argparse
import ast
import importlib
import re
from pathlib import Path

import pytest

from irsplan.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)
README_COMMANDS = re.findall(r"^irsplan (\w+) (.*)$", README, flags=re.MULTILINE)
SOURCES = ([(path.name, path.read_text(encoding="utf-8")) for path in DEMOS]
           + [(f"README.md#{i}", block) for i, block in enumerate(README_BLOCKS, start=1)])


def test_demos_are_found():
    assert DEMOS
    assert README_BLOCKS
    assert README_COMMANDS


@pytest.mark.parametrize("name,source", SOURCES, ids=[name for name, _ in SOURCES])
def test_demo_imports_exist(name, source):
    tree = ast.parse(source, filename=name)
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "irsplan"
                for alias in node.names]
    assert imported, "the source imports nothing from irsplan"
    missing = []
    for module, attr in imported:
        owner = importlib.import_module(module)
        if not hasattr(owner, attr):
            try:        # a submodule the package does not import itself
                importlib.import_module(f"{module}.{attr}")
            except ModuleNotFoundError:
                missing.append(f"{module}.{attr}")
    assert not missing


@pytest.mark.parametrize("verb,line", README_COMMANDS, ids=[v for v, _ in README_COMMANDS])
def test_readme_command_flags_are_options_of_the_verb(verb, line):
    subparsers = next(action for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = subparsers.choices[verb]._option_string_actions
    assert [flag for flag in re.findall(r"--[\w-]+", line) if flag not in options] == []
