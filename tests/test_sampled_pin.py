"""compare with all three algorithms on audit-mf's config hashes as recorded.

The benchmark's audit-mf fingerprint runs MAML alone, so this pins the
other sampled paths with an adaptive stepsize byte for byte: fig2's
family, adaptive steps, B = B' = D_beta = 20, sigma~ = sigma_H = 0.5 and
60 iterations, at seeds 0 and 1, for MAML, FO-MAML and HF-MAML.  The
hashes and the Python and numpy builds that took them are in
sampled_pin.json; the check is skipped when either version differs.
After a deliberate byte change, rewrite that file with

    PYTHONPATH=src python3 tests/test_sampled_pin.py
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from metagrad.cli import main

ROOT = Path(__file__).resolve().parent.parent
PIN = Path(__file__).resolve().parent / "sampled_pin.json"


def config() -> dict:
    """fig2's config with audit-mf's settings and all three algorithms."""
    cfg = json.loads((ROOT / "configs" / "fig2.json").read_text())
    cfg.update({
        "algorithms": ["maml", "fomaml", "hfmaml"],
        "stepsize": {"kind": "adaptive"},
        "batches": {"B": 20, "D_in": 4, "D_o": 4, "D_h": 4, "B_prime": 20, "D_beta": 20},
        "noise": {"sigma_tilde": 0.5, "sigma_H": 0.5},
        "max_iters": 60,
        "seeds": [0, 1],
    })
    return cfg


def environment():
    return {"python": platform.python_version(), "numpy": np.__version__}


def output_hashes(work: Path) -> dict:
    """sha256 of every file compare writes for config()."""
    path = work / "sampled.json"
    path.write_text(json.dumps(config(), indent=2, sort_keys=True) + "\n")
    out = work / "compare"
    assert main(["compare", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def test_sampled_outputs_match_pin(tmp_path):
    pin = json.loads(PIN.read_text())
    if pin["environment"] != environment():
        pytest.skip(f"pin was taken with {pin['environment']}, this is {environment()}")
    assert output_hashes(tmp_path) == pin["outputs"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {"environment": environment(), "outputs": output_hashes(Path(tmp))}
    PIN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
