"""Package-wide checks: the modules' import order and the README's quick start."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twdesign"
# each module imports only from the modules before it; the package's
# __init__ re-exports them all
CHAIN = ["instance", "window_design", "solver", "evaluate", "cli", "__init__"]


def _package_imports(path: Path) -> set[str]:
    """The modules of every ``from .x import`` in a file, at any depth
    (function bodies too); ``from . import`` counts as ``""``."""
    return {
        node.module or ""
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level
    }


def test_modules_import_along_one_chain():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(CHAIN)
    for pos, name in enumerate(CHAIN):
        imported = _package_imports(PACKAGE / f"{name}.py")
        assert imported <= set(CHAIN[:pos]), f"{name} imports {sorted(imported - set(CHAIN[:pos]))}"


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start\s+```python\n(.*?)```", readme, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", block],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr


def test_all_lists_exactly_the_imported_names():
    import twdesign

    init = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    assert len(twdesign.__all__) == len(set(twdesign.__all__))
    for name in twdesign.__all__:
        getattr(twdesign, name)
    assert set(twdesign.__all__) == imported
