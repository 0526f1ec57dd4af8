"""Every name a metagrad module or test module imports is used there.

The repository runs no linter, so a deletion can leave an import behind.
Each ``src/metagrad/*.py`` and ``tests/*.py`` is parsed with ast; a name
bound by an import must be read somewhere in the module (as a name, or as
the root of an attribute chain), unless the module re-exports it through
``__all__``.  ``from __future__`` imports bind nothing.

The noise laws and the task sampler of ``stochastic`` are kept free of the
random-number layer: they only transform the normals and uniforms they are
handed, so their bodies read nothing ``stochastic`` imports from ``numerics``.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "metagrad"
MODULES = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> the line that binds it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def exported_names(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module loads: bare names and the roots of attribute chains."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_modules_found():
    for root in (SRC, TESTS):
        assert sum(p.parent == root for p in MODULES) > 1, f"no modules under {root}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = read_names(tree) | exported_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses (name: line): {unused}"


def test_an_unused_import_is_caught():
    tree = ast.parse("import os\nfrom numpy import array as arr, zeros\n"
                     "__all__ = ['zeros']\nos.getcwd()\n")
    used = read_names(tree) | exported_names(tree)
    assert {n for n in imported_names(tree) if n not in used} == {"arr"}


# stochastic's functions that take their draws as arrays and draw nothing
LAWS = ("grad_noise", "hess_noise", "sample_task_batch")


@pytest.mark.parametrize("name", LAWS)
def test_noise_laws_read_no_rng(name):
    tree = ast.parse((SRC / "stochastic.py").read_text())
    rng_names = {alias.asname or alias.name for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.module == "numerics"
                 for alias in node.names}
    assert rng_names, "stochastic imports nothing from numerics"
    (law,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    drawn = read_names(ast.Module(body=law.body, type_ignores=[])) & (rng_names | {"_normals"})
    assert not drawn, f"{name} reads the random-number layer: {drawn}"
