"""Every name a demo or a README python block imports from irsplan exists.

The sources are parsed, not run.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```",
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           flags=re.DOTALL | re.MULTILINE)
SOURCES = ([(path.name, path.read_text(encoding="utf-8")) for path in DEMOS]
           + [(f"README.md#{i}", block) for i, block in enumerate(README_BLOCKS, start=1)])


def test_demos_are_found():
    assert DEMOS
    assert README_BLOCKS


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
