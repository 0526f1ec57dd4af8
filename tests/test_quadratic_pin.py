"""compare and audit on a small generated quadratic family hash as recorded.

No benchmark workload runs a quadratic family, so this pins the quadratic
branches of the task oracles (one point, rows, per-task Monte Carlo
sweeps) byte for byte.  The hashes and the Python and numpy builds that
took them are in quadratic_pin.json; the check is skipped when either
version differs.  After a deliberate byte change, rewrite that file with

    PYTHONPATH=src python3 tests/test_quadratic_pin.py
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from metagrad.cli import main

PIN = Path(__file__).resolve().parent / "quadratic_pin.json"

CONFIG = {
    "family": {"generate": {"kind": "quadratic", "n": 12, "dim": 4, "seed": 5}},
    "alpha": 0.05,
    "noise": {"sigma_tilde": 0.3, "sigma_H": 0.3},
    "batches": {"B": 20, "D_in": 4, "D_o": 4, "D_h": 4, "B_prime": 20, "D_beta": 20},
    "max_iters": 40,
    "seeds": [0, 1],
    "audit": {"n_mc": 1500, "D_in": [4, 16], "D_o": 1000, "D_test": [4, 16], "n_pairs": 50,
              "stepsize_points": 3, "stepsize_samples": 500, "K_list": [4, 16]},
}


def environment():
    return {"python": platform.python_version(), "numpy": np.__version__}


def output_hashes(work: Path) -> dict:
    """sha256 of every file compare and audit write for CONFIG, per command."""
    config = work / "quadratic.json"
    config.write_text(json.dumps(CONFIG, indent=2, sort_keys=True) + "\n")
    hashes = {}
    for command in ("compare", "audit"):
        out = work / command
        assert main([command, "--config", str(config), "--out", str(out), "--quiet"]) == 0
        hashes[command] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
        }
    return hashes


def test_quadratic_outputs_match_pin(tmp_path):
    pin = json.loads(PIN.read_text())
    if pin["environment"] != environment():
        pytest.skip(f"pin was taken with {pin['environment']}, this is {environment()}")
    assert output_hashes(tmp_path) == pin["outputs"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {"environment": environment(), "outputs": output_hashes(Path(tmp))}
    PIN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
