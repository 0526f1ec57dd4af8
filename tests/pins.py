"""Output-byte pins: run a metagrad command into a directory, hash every
file it writes, and compare with a record taken earlier.

Three records pin outputs byte for byte.  perfbench/fingerprint.json holds
the benchmark's fig1, fig2 and audit-mf hashes; the tests only read it.
The two under tests/ are PINS: quadratic_pin.json (compare and audit on a
small generated quadratic family, which no benchmark workload runs) and
sampled_pin.json (compare with all three algorithms on audit-mf's config,
whose fingerprint runs MAML alone).  A hash depends on the Python and
numpy builds that took it, so a check is skipped unless the record's
versions match this host.  After a deliberate byte change, rewrite both
pins under tests/ (never perfbench's) with

    PYTHONPATH=src python3 tests/pins.py
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from metagrad.cli import main

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


def audit_mf_config(algorithms: list, seeds: list) -> dict:
    """fig2's config with the adaptive stepsize, batches, noise and 60
    iterations of the benchmark's audit-mf workload."""
    cfg = json.loads((ROOT / "configs" / "fig2.json").read_text())
    cfg.update({
        "algorithms": algorithms,
        "stepsize": {"kind": "adaptive"},
        "batches": {"B": 20, "D_in": 4, "D_o": 4, "D_h": 4, "B_prime": 20, "D_beta": 20},
        "noise": {"sigma_tilde": 0.5, "sigma_H": 0.5},
        "max_iters": 60,
        "seeds": seeds,
    })
    return cfg


QUADRATIC = {
    "family": {"generate": {"kind": "quadratic", "n": 12, "dim": 4, "seed": 5}},
    "alpha": 0.05,
    "noise": {"sigma_tilde": 0.3, "sigma_H": 0.3},
    "batches": {"B": 20, "D_in": 4, "D_o": 4, "D_h": 4, "B_prime": 20, "D_beta": 20},
    "max_iters": 40,
    "seeds": [0, 1],
    "audit": {"n_mc": 1500, "D_in": [4, 16], "D_o": 1000, "D_test": [4, 16], "n_pairs": 50,
              "stepsize_points": 3, "stepsize_samples": 500, "K_list": [4, 16]},
}

# pin file under tests/ -> (config, the commands whose outputs it hashes)
PINS = {
    "quadratic_pin.json": (QUADRATIC, ("compare", "audit")),
    "sampled_pin.json": (audit_mf_config(["maml", "fomaml", "hfmaml"], [0, 1]), ("compare",)),
}


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def skip_unless_taken_here(record: dict) -> None:
    recorded, here = record["environment"], environment()
    if any(recorded[k] != v for k, v in here.items()):
        pytest.skip(
            f"hashes were taken with python {recorded['python']} and numpy "
            f"{recorded['numpy']}, this is python {here['python']} and numpy {here['numpy']}"
        )


def write_config(cfg: dict, work: Path) -> Path:
    path = work / "config.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path


def output_hashes(command: str, config: Path, out: Path, *options: str) -> dict:
    """sha256 of every file `metagrad command` writes to out for config."""
    argv = [command, "--config", str(config), "--out", str(out), "--quiet", *options]
    assert main(argv) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def pin_outputs(name: str, work: Path) -> dict:
    """The hashes PINS[name] records: one command's flat, several's by command."""
    cfg, commands = PINS[name]
    config = write_config(cfg, work)
    hashes = {command: output_hashes(command, config, work / command) for command in commands}
    return hashes if len(commands) > 1 else hashes[commands[0]]


def refresh() -> None:
    """Rewrite every pin under tests/ from this host's outputs."""
    for name in PINS:
        with tempfile.TemporaryDirectory() as tmp:
            record = {"environment": environment(), "outputs": pin_outputs(name, Path(tmp))}
        (TESTS / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    refresh()
