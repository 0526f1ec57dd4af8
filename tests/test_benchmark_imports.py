"""Every metagrad name the benchmark scripts import still exists.

The scripts under perfbench/ are read, never imported or run: their
``from metagrad... import ...`` and ``import metagrad...`` statements are
parsed with ast and each name is resolved against the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def metagrad_imports(path):
    """(module, name) pairs; name is None for a plain ``import module``."""
    pairs = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "metagrad":
                pairs += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            pairs += [(a.name, None) for a in node.names if a.name.split(".")[0] == "metagrad"]
    return pairs


def test_benchmark_scripts_found():
    assert SCRIPTS, f"no scripts under {PERFBENCH}"
    assert any(metagrad_imports(p) for p in SCRIPTS)


def resolves(module, name):
    try:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule
    except ImportError:
        return False
    return True


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_benchmark_imports_resolve(path):
    missing = [(m, n) for m, n in metagrad_imports(path) if not resolves(m, n)]
    assert not missing, f"{path.name} imports names metagrad no longer has: {missing}"
