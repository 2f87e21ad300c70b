"""Every name a `src/seldkit` module, a test or a demo imports is used in
that file, every private module-level name a `src/seldkit` module defines
is read in that module, and every seldkit name the demos and the benchmark
scripts take still exists."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "seldkit"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
# read as text only: `test_demos.py` runs three of the demos, and bench/ is
# not imported here
CLIENTS = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("bench/*.py")])
SCRIPTS = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py")])


def _path_id(path: Path) -> str:
    """Package modules by their path in the package, other files by their path in the repo."""
    return str(path.relative_to(SRC if SRC in path.parents else ROOT))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unreferenced_private_names(source: str) -> list:
    """Module-level `_name` functions, classes and constants never read in the module."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items() if name not in read)


def _is_seldkit(module) -> bool:
    return isinstance(module, str) and module.split(".")[0] == "seldkit"


def seldkit_uses(source: str) -> list:
    """(line, owner, name) for each seldkit name a script uses: `from
    seldkit... import name`, `alias.name` where `alias` was imported from
    seldkit, and ("seldkit.module", "name") string pairs in a tuple or a call."""
    tree = ast.parse(source)
    uses, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and _is_seldkit(node.module):
            for alias in node.names:
                uses.append((node.lineno, node.module, alias.name))
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and _is_seldkit(alias.name):
                    aliases[alias.asname] = alias.name
                elif _is_seldkit(alias.name):
                    aliases["seldkit"] = "seldkit"  # `import seldkit.x` binds the package
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            uses.append((node.lineno, aliases[node.value.id], node.attr))
        elif isinstance(node, (ast.Tuple, ast.Call)):
            items = node.elts if isinstance(node, ast.Tuple) else node.args
            values = [n.value if isinstance(n, ast.Constant) else None for n in items]
            for owner, name in zip(values, values[1:]):
                if _is_seldkit(owner) and isinstance(name, str) and name.isidentifier():
                    uses.append((node.lineno, owner, name))
    return sorted(set(uses))


def _resolve(dotted: str):
    """The object a dotted seldkit path names, importing submodules as needed; None if missing."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i in range(1, len(parts)):
        if hasattr(obj, parts[i]):
            obj = getattr(obj, parts[i])
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i + 1]))
        except ImportError:
            return None
    return obj


def unresolved(uses: list) -> list:
    """The uses whose name is missing from its seldkit module; attributes of
    non-module objects (e.g. `Predictor.x`) are not checked."""
    missing = []
    for line, owner, name in uses:
        base = _resolve(owner)
        if base is None or (inspect.ismodule(base) and _resolve(f"{owner}.{name}") is None):
            missing.append((line, owner, name))
    return missing


def test_detects_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [(1, "os"), (2, "b")]


def test_detects_unreferenced_private_names():
    source = (
        "def _a(): pass\n"
        "def _b(): return _c\n"
        "_c = 1\n"
        "class _D: pass\n"
        "_e: int = 2\n"
        "__all__ = ['_a']\n"
        "def public(): return _e\n"
    )
    assert unreferenced_private_names(source) == [(1, "_a"), (2, "_b"), (4, "_D")]


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=_path_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unreferenced_private_names(path):
    assert unreferenced_private_names(path.read_text()) == []


def test_detects_missing_seldkit_names():
    source = (
        "import seldkit\n"
        "from seldkit import cli, gone_a\n"
        "from seldkit.net import checkpoint\n"
        "from seldkit.infer import Predictor\n"
        "seldkit.synth_scene, seldkit.gone_b\n"
        "checkpoint.load_model, checkpoint.gone_c, cli.main, Predictor.whatever\n"
        "PATCHED = [('seldkit.scene', 'read_wav', 'x'), ('seldkit.scene', 'gone_d', 'x')]\n"
        "patch('seldkit.features', 'gone_e')\n"
    )
    assert unresolved(seldkit_uses(source)) == [
        (2, "seldkit", "gone_a"),
        (5, "seldkit", "gone_b"),
        (6, "seldkit.net.checkpoint", "gone_c"),
        (7, "seldkit.scene", "gone_d"),
        (8, "seldkit.features", "gone_e"),
    ]


@pytest.mark.parametrize("path", CLIENTS, ids=lambda p: str(p.relative_to(ROOT)))
def test_demo_and_bench_names_exist(path):
    assert unresolved(seldkit_uses(path.read_text())) == []
