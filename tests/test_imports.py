"""Every module-level import in the package is used by its module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spanalign"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_imports_are_used(module):
    assert _unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "from __future__ import annotations\nimport math\nimport os.path\nfrom x import y as z\nos.sep\n"
    assert _unused_imports(source) == ["math", "z"]
