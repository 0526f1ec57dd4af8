"""Every metagrad name the benchmark scripts use still exists and fits.

The scripts under perfbench/ are read, never imported or run: they are
parsed with ast and checked against the package.
  * Each ``from metagrad... import ...`` and ``import metagrad...`` resolves.
  * Each function the span tracer counts by qualified name (draws, set-up,
    the run itself) and each stochastic/meta_gradient/stepsize function
    whose span counts the layer metrics read is defined in that module,
    so the tracer wraps it.
  * Each call of an imported metagrad name binds to its signature.
  * The keyed draws per fig2 step that run.py's traced check expects are
    the ones TestKeyedDraws pins (strict xfail while run.py is stale).
"""

import ast
import importlib
import inspect
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


def module_constant(path, name):
    """The literal value of a module-level assignment in a script."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def tracer_qualnames():
    tracer = PERFBENCH / "tracer.py"
    names = list(module_constant(tracer, "DRAW_FUNCTIONS"))
    names += list(module_constant(tracer, "SETUP_FUNCTIONS"))
    return names + [module_constant(tracer, "RUN_FUNCTION")]


def expand(node, loops):
    """The strings an argument can take: a constant, or an f-string over a loop tuple."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        out = [""]
        for part in node.values:
            if isinstance(part, ast.Constant):
                out = [o + part.value for o in out]
            elif isinstance(part.value, ast.Name) and part.value.id in loops:
                out = [o + v for o in out for v in loops[part.value.id]]
            else:
                return []
        return out
    return []


def layer_metric_qualnames():
    """Function qualnames layers.layer_metrics looks up in the trace."""
    tree = ast.parse((PERFBENCH / "layers.py").read_text())
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "layer_metrics")
    loops = {
        n.target.id: [ast.literal_eval(e) for e in n.iter.elts]
        for n in ast.walk(fn)
        if isinstance(n, ast.For) and isinstance(n.target, ast.Name)
        and isinstance(n.iter, ast.Tuple)
    }
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and node.args:
            f = node.func
            reads = (isinstance(f, ast.Name) and f.id == "calls") or (
                isinstance(f, ast.Attribute) and f.attr == "get"
                and isinstance(f.value, ast.Name) and f.value.id == "fns"
            )
            if reads:
                names.update(expand(node.args[0], loops))
    return sorted(n for n in names if n.split(".")[0] in ("stochastic", "meta_gradient", "stepsize"))


def test_layer_metrics_read_every_layer():
    modules = {n.split(".")[0] for n in layer_metric_qualnames()}
    assert modules == {"stochastic", "meta_gradient", "stepsize"}


@pytest.mark.parametrize("qualname", tracer_qualnames() + layer_metric_qualnames())
def test_traced_qualname_is_a_metagrad_function(qualname):
    module, _, name = qualname.partition(".")
    mod = importlib.import_module(f"metagrad.{module}")
    obj = getattr(mod, name, None)
    assert inspect.isfunction(obj), f"metagrad.{module} has no function {name}"
    assert obj.__module__ == mod.__name__, f"{qualname} is defined in {obj.__module__}"


def metagrad_calls(path):
    """((module, name), call node) for each call of a name the script imports from metagrad."""
    imported = {name: (module, name) for module, name in metagrad_imports(path) if name}
    return [
        (imported[node.func.id], node)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in imported
    ]


def test_layers_script_calls_metagrad():
    assert len(metagrad_calls(PERFBENCH / "layers.py")) >= 10


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_benchmark_calls_bind_to_signatures(path):
    bad = []
    for (module, name), call in metagrad_calls(path):
        if any(isinstance(a, ast.Starred) for a in call.args):
            continue  # argument count unknown until run time
        keywords = {k.arg: None for k in call.keywords if k.arg is not None}
        signature = inspect.signature(getattr(importlib.import_module(module), name))
        bind = signature.bind if len(keywords) == len(call.keywords) else signature.bind_partial
        try:
            bind(*[None] * len(call.args), **keywords)
        except TypeError as e:
            bad.append(f"line {call.lineno}: {name}: {e}")
    assert not bad, f"{path.name} calls metagrad with arguments that no longer bind: {bad}"


@pytest.mark.xfail(strict=True, reason="perfbench/run.py still expects 41 keyed draws per fig2 "
                   "HF-MAML step; HF-MAML's probe draws no noise, so its step draws 21 keys")
def test_benchmark_draw_counts_match_the_tested_counts():
    # the traced check's expected keys per fig2 step, against the counts
    # TestKeyedDraws pins by counting the keys the kernel is handed
    from test_optimizer import TestKeyedDraws

    run_script = PERFBENCH / "run.py"
    expected = module_constant(run_script, "SEED_DRAWS_PER_ITER")["fig2-sampled"]
    tested = tuple(TestKeyedDraws.PER_STEP[a] for a in module_constant(run_script, "ALGORITHMS"))
    assert expected == tested
