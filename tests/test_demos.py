"""Every name a demo imports from irsplan exists. The demos are parsed, not run."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_exist(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "irsplan"
                for alias in node.names]
    assert imported, "the demo imports nothing from irsplan"
    missing = []
    for module, name in imported:
        owner = importlib.import_module(module)
        if not hasattr(owner, name):
            try:        # a submodule the package does not import itself
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{module}.{name}")
    assert not missing
