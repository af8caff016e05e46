"""Every module-level import in the package is used by its module, and no
function imports a package module: a deferred import hides an import cycle."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spanalign"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


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


def _deferred_package_imports(source: str) -> list[int]:
    """Line numbers of package imports made inside a function body."""
    lines = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom):
                package = node.level > 0 or (node.module or "").split(".")[0] == "spanalign"
            elif isinstance(node, ast.Import):
                package = any(alias.name.split(".")[0] == "spanalign" for alias in node.names)
            else:
                continue
            if package:
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_are_used(module):
    assert _unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_deferred_package_imports(module):
    assert _deferred_package_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "from __future__ import annotations\nimport math\nimport os.path\nfrom x import y as z\nos.sep\n"
    assert _unused_imports(source) == ["math", "z"]


def test_deferred_package_import_is_reported():
    source = (
        "import spanalign\n"
        "def f():\n    import math\n    from . import model\n"
        "class C:\n    def g(self):\n        import spanalign.dtw\n        from spanalign import cli\n"
    )
    assert _deferred_package_imports(source) == [4, 7, 8]
