"""Which modules a command loads, each checked in a fresh interpreter.

No command imports scipy, and the audit module is imported only by the
audit battery.  One probe blocks ``import scipy`` outright and runs a
command of each kind, so a stray scipy import fails loudly.  Importing the
CLI loads no ``numpy.random``, and neither does generating a family, whose
keys are drawn by the numpy-only ``keyed_uniforms`` kernel.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CONFIGS = SRC.parent / "configs"

PROBE = (
    "import json, sys\n"
    "import metagrad.cli\n"
    "code = metagrad.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
    "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n"
)

BLOCK_SCIPY = (
    "import sys\n"
    "class BlockScipy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'scipy' or name.startswith('scipy.'):\n"
    "            raise ImportError(f'{name} is blocked')\n"
    "sys.meta_path.insert(0, BlockScipy())\n"
)

QUADRATIC = {
    "family": {"generate": {"kind": "quadratic", "n": 3, "dim": 2, "seed": 1}},
    "alpha": 0.05,
}

RANK1_AUDIT = {
    "family": {"generate": {"kind": "rank1mf", "n": 4, "dim": 2, "seed": 3}},
    "algorithms": ["maml"],
    "alpha": 0.01,
    "stepsize": {"kind": "constant", "beta": 0.05},
    "batches": {"B": 4, "B_prime": 4, "D_beta": 4},
    "max_iters": 5,
    "audit": {"n_mc": 50, "D_in": [4], "D_o": 4, "D_test": [4], "n_probes": 5,
              "n_pairs": 5, "stepsize_points": 2, "stepsize_samples": 50,
              "K_list": [4]},
}


def loaded_modules(cwd, *argv, prelude=""):
    """Every module in sys.modules after `metagrad <argv>` (or the bare import),
    with prelude run first."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", prelude + PROBE, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0, proc.stderr
    return set(result["modules"])


def scipy_modules(modules):
    return sorted(m for m in modules if m == "scipy" or m.startswith("scipy."))


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_importing_the_cli_loads_neither_scipy_nor_the_audits(tmp_path):
    modules = loaded_modules(tmp_path)
    assert "metagrad.cli" in modules
    assert scipy_modules(modules) == []
    assert "metagrad.verification" not in modules
    assert "numpy.random" not in modules


def test_compare_on_a_rank1_family_loads_no_scipy(tmp_path):
    modules = loaded_modules(tmp_path, "compare", "--config", str(CONFIGS / "fig1.json"),
                             "--max-iters", "5", "--out", "out", "--quiet")
    assert (tmp_path / "out" / "compare_summary_seed0.json").is_file()
    assert scipy_modules(modules) == []
    assert "metagrad.verification" not in modules


def test_audit_on_a_rank1_family_loads_no_scipy(tmp_path):
    cfg = write_config(tmp_path, RANK1_AUDIT)
    modules = loaded_modules(tmp_path, "audit", "--config", cfg, "--out", "out", "--quiet")
    assert (tmp_path / "out" / "audit_seed0.json").is_file()
    assert "metagrad.verification" in modules
    assert scipy_modules(modules) == []


def test_quadratic_commands_load_no_scipy(tmp_path):
    cfg = write_config(tmp_path, QUADRATIC)
    modules = loaded_modules(tmp_path, "quadratic-oracle", "--config", cfg)
    assert scipy_modules(modules) == []
    assert "numpy.random" not in modules  # the family is generated without a numpy Philox
    modules = loaded_modules(tmp_path, "compare", "--config", cfg, "--max-iters", "5",
                             "--out", "out", "--quiet")
    assert (tmp_path / "out" / "compare_summary_seed0.json").is_file()
    assert scipy_modules(modules) == []


def test_commands_run_with_scipy_blocked(tmp_path):
    quadratic = write_config(tmp_path, QUADRATIC)
    audit = write_config(tmp_path, RANK1_AUDIT, name="audit.json")
    for argv in (["quadratic-oracle", "--config", quadratic],
                 ["compare", "--config", quadratic, "--max-iters", "5", "--out", "cmp", "--quiet"],
                 ["audit", "--config", audit, "--out", "aud", "--quiet"]):
        loaded_modules(tmp_path, *argv, prelude=BLOCK_SCIPY)  # asserts exit code 0
    assert (tmp_path / "cmp" / "compare_summary_seed0.json").is_file()
    assert (tmp_path / "aud" / "audit_seed0.json").is_file()
