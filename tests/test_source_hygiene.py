"""Every name a metagrad module or test module imports is used there.

The repository runs no linter, so a deletion can leave an import behind.
Each ``src/metagrad/*.py`` and ``tests/*.py`` is parsed with ast; a name
bound by an import must be read somewhere in the module (as a name, or as
the root of an attribute chain), unless the module re-exports it through
``__all__``.  ``from __future__`` imports bind nothing.

The noise laws and the task sampler of ``stochastic`` are kept free of the
random-number layer: they only transform the normals and uniforms they are
handed, so their bodies read nothing ``stochastic`` imports from ``numerics``.

Every function and method of ``src/metagrad`` has a caller that is not a
test: ``src/metagrad`` loads its name (as a name or an attribute) or exports
it, or a ``perfbench/`` script names it.  Tests do not count, so code that
only tests read is deleted rather than kept.  ``cli.main`` is the console
entry point, and dunders are called by Python itself.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "metagrad"
MODULES = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
PERFBENCH = TESTS.parent / "perfbench"
ENTRY_POINTS = {"main"}


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


def loaded_names(tree: ast.Module) -> set[str]:
    """read_names plus every attribute the module loads; a docstring loads nothing."""
    attrs = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return read_names(tree) | attrs


def script_names(tree: ast.Module) -> set[str]:
    """Every name a script loads or imports, and each dotted part of its string
    constants ("numerics.uniforms"), docstrings and other bare strings aside."""
    bare = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    names = loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in bare):
            names |= set(node.value.split("."))
    return names


def uncalled(trees: dict[str, ast.Module], callers: set[str]) -> list[str]:
    """module:line name of each function or method, dunders aside, that no
    tree loads or exports and that callers does not name."""
    read = set(callers)
    for tree in trees.values():
        read |= loaded_names(tree) | exported_names(tree)
    return [f"{name}:{node.lineno} {node.name}" for name, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in read]


def test_every_source_function_has_a_caller_outside_the_tests():
    scripts = sorted(PERFBENCH.glob("*.py"))
    assert scripts, f"no scripts under {PERFBENCH}"
    callers = ENTRY_POINTS.union(*(script_names(ast.parse(p.read_text())) for p in scripts))
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    orphans = uncalled(trees, callers)
    assert not orphans, f"only tests call these (module:line name): {orphans}"


def test_a_function_only_a_docstring_names_is_caught():
    tree = ast.parse('class R:\n    """w_final is the last row."""\n'
                     '    @property\n    def w_final(self):\n        return 1\n'
                     '    def rows(self):\n        return 2\n'
                     'def keep():\n    return R().rows()\n__all__ = ["keep"]\n')
    assert uncalled({"m.py": tree}, set()) == ["m.py:4 w_final"]
    assert uncalled({"m.py": tree}, script_names(ast.parse('X = ("m.w_final",)\n'))) == []
    docstring_only = script_names(ast.parse('"""m.w_final"""\n'))
    assert uncalled({"m.py": tree}, docstring_only) == ["m.py:4 w_final"]
