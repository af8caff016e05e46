"""Every module-level import in the package is used by its module, every
module-level function and class is referenced in the package, the
benchmark or `pyproject.toml` (a name that only tests use is not part of
the program), no function imports a package module (a deferred import
hides an import cycle), the leaf modules `corpus`, `distortion`, `dtw`
and `evalkit` import no package module at all (`dtw` and `distortion`
work on arrays and integers, below the corpus types, and `evalkit` on
link sets), each module imports
exactly the package modules that `IMPORT_GRAPH` lists and that table has
no cycle, no parameter defaults to a `*Config` attribute or instance
(the setting would get a second home that skips the config's
validation), every function parameter is read in its body, and `align`
runs without importing `numpy.ma`."""

import ast
import graphlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spanalign.cli import main

from corpus_flags import corpus_flags

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spanalign"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
ROOT = PACKAGE.parents[1]
SEARCHED = [*(p for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))), ROOT / "pyproject.toml"]
LEAF_MODULES = ("corpus.py", "distortion.py", "dtw.py", "evalkit.py")
# The package modules each module imports.  A new edge is added here on
# purpose, and `test_import_graph_has_no_cycle` keeps the table acyclic.
IMPORT_GRAPH = {
    "__init__.py": (),
    "corpus.py": (),
    "distortion.py": (),
    "dtw.py": (),
    "segmentation.py": ("corpus",),
    "model.py": ("corpus", "distortion", "dtw"),
    "synth.py": ("corpus", "model"),
    "evalkit.py": (),
    "trainer.py": ("corpus", "distortion", "dtw", "model", "segmentation"),
    "cli.py": ("corpus", "evalkit", "model", "segmentation", "synth", "trainer"),
}


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


def _unreferenced_definitions(source: str, texts: list[str]) -> list[str]:
    """Module-level functions and classes named in `texts` only once, at their definition."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = [node.name for node in ast.parse(source).body if isinstance(node, kinds)]
    return [n for n in names if sum(len(re.findall(rf"\b{n}\b", text)) for text in texts) <= 1]


def _package_import_lines(tree: ast.AST) -> set[int]:
    """Line numbers of the package imports anywhere under `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level > 0 or (node.module or "").split(".")[0] == "spanalign"
        elif isinstance(node, ast.Import):
            package = any(alias.name.split(".")[0] == "spanalign" for alias in node.names)
        else:
            continue
        if package:
            lines.add(node.lineno)
    return lines


def _package_imports(source: str) -> list[int]:
    """Line numbers of every package import, at module level or inside a function."""
    return sorted(_package_import_lines(ast.parse(source)))


def _imported_modules(source: str) -> set[str]:
    """The package modules that `source` imports, by module name (`corpus`, `model`, ...)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if node.level == 0:
                if path[:1] != ["spanalign"]:
                    continue
                path = path[1:]
            found |= {path[0]} if path else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("spanalign.")}
    return found


def _deferred_package_imports(source: str) -> list[int]:
    """Line numbers of package imports made inside a function body."""
    lines = set()
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines |= _package_import_lines(func)
    return sorted(lines)


def _config_attribute_defaults(source: str) -> list[str]:
    """`function.parameter` for each default that reads an attribute of a `*Config` class or calls one."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        params = args.posonlyargs + args.args
        pairs = list(zip(params[len(params) - len(args.defaults):], args.defaults))
        pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        for arg, default in pairs:
            if any(
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id.endswith("Config")
                or isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id.endswith("Config")
                for node in ast.walk(default)
            ):
                found.append(f"{func.name}.{arg.arg}")
    return found


def _unread_parameters(source: str) -> list[str]:
    """`function.parameter` for each parameter that its function's body never reads."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
        read = {
            node.id
            for stmt in func.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        found += [f"{func.name}.{arg.arg}" for arg in params if arg.arg not in read]
    return found


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_are_used(module):
    assert _unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES)
def test_module_definitions_are_referenced(module):
    # A name counts as referenced if it appears anywhere else in SEARCHED as a word,
    # in code, a string (perfbench hooks name their targets) or a comment.
    texts = [path.read_text(encoding="utf-8") for path in SEARCHED]
    assert _unreferenced_definitions((PACKAGE / module).read_text(encoding="utf-8"), texts) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_deferred_package_imports(module):
    assert _deferred_package_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", LEAF_MODULES)
def test_leaf_module_imports_no_package_module(module):
    assert _package_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_follow_the_graph(module):
    assert _imported_modules((PACKAGE / module).read_text(encoding="utf-8")) == set(IMPORT_GRAPH[module])


def test_import_graph_covers_every_module_and_has_no_cycle():
    assert sorted(IMPORT_GRAPH) == MODULES
    graph = {module.removesuffix(".py"): deps for module, deps in IMPORT_GRAPH.items()}
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError naming the cycle


@pytest.mark.parametrize("module", MODULES)
def test_no_default_copies_a_config_setting(module):
    assert _config_attribute_defaults((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_parameter_is_read(module):
    assert _unread_parameters((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_align_does_not_import_numpy_ma(tmp_path):
    # numpy.ma takes ~20 ms to import and align uses none of it; np.median
    # is one call that would pull it in on every run.
    corpus = tmp_path / "corpus"
    assert main(["synth", "--output", str(corpus), "--sentences", "4", "--vocab-size", "3"]) == 0
    script = (
        "import sys\n"
        "from spanalign.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print('numpy.ma' in sys.modules, code)\n"
    )
    argv = ["align", *corpus_flags(corpus), "--output", str(tmp_path / "run")]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False 0"


def test_unused_import_is_reported():
    source = "from __future__ import annotations\nimport math\nimport os.path\nfrom x import y as z\nos.sep\n"
    assert _unused_imports(source) == ["math", "z"]


def test_unreferenced_definition_is_reported():
    source = "import os\ndef used():\n    pass\ndef unused():\n    used()\nclass Lonely:\n    used = 1\n"
    assert _unreferenced_definitions(source, [source, "from m import used"]) == ["unused", "Lonely"]


def test_deferred_package_import_is_reported():
    source = (
        "import spanalign\n"
        "def f():\n    import math\n    from . import model\n"
        "class C:\n    def g(self):\n        import spanalign.dtw\n        from spanalign import cli\n"
    )
    assert _deferred_package_imports(source) == [4, 7, 8]


def test_package_import_is_reported():
    source = (
        "import numpy as np\nfrom . import corpus\nimport os, spanalign.model\n"
        "from spanalign.corpus import FeatureSequence\nimport spanalignx\n"
        "def f():\n    from ..x import y\n    import math\n"
    )
    assert _package_imports(source) == [2, 3, 4, 7]


def test_imported_module_is_reported():
    source = (
        "import numpy as np\nfrom . import corpus, dtw\nfrom .model import X\nimport os, spanalign.trainer\n"
        "from spanalign.evalkit import Y\nfrom spanalign import cli\nimport spanalign\nfrom spanalignx import Z\n"
        "def f():\n    from .segmentation import W\n"
    )
    assert _imported_modules(source) == {"corpus", "dtw", "model", "trainer", "evalkit", "cli", "segmentation"}


def test_config_attribute_default_is_reported():
    source = (
        "def f(x, ratio=SegmentationConfig.threshold_ratio, *, k=TrainConfig.k + 1, c=SegmentationConfig()):\n"
        "    def g(shift=FeatureSequence.frame_shift_ms, n=SynthConfig.sentences):\n        pass\n"
    )
    assert _config_attribute_defaults(source) == ["f.ratio", "f.k", "f.c", "g.n"]


def test_unread_parameter_is_reported():
    source = (
        "def f(a, b, /, c, *rest, d=1, **extra):\n    return a + extra['x']\n"
        "def g(shift):\n    def h(n=shift):\n        return n\n    return h\n"
        "class C:\n    def m(self, x):\n        x = 1\n        return self\n"
    )
    assert _unread_parameters(source) == ["f.b", "f.c", "f.d", "f.rest", "m.x"]
