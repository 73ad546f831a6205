"""Every name a package module imports at module level is used in it.

No linter ships with the project, so this parses each module with
``ast``. ``__init__.py`` (re-exports) and ``from __future__`` imports are
skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fragsmith"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_check_sees_an_unused_import():
    source = "from itertools import groupby\nimport os\nos.getcwd()\n"
    assert _unused_imports(source) == ["groupby (line 1)"]
