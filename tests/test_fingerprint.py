"""fig1's, fig2's and audit-mf's outputs still hash to the benchmark's
recorded fingerprint.

perfbench/fingerprint.json is only read, never written.  Its hashes
depend on the Python and numpy builds that took them, so the check is
skipped when either version differs from the recorded environment.
fig1 runs the exact full-batch steps, fig2 the sampled, noisy slots and
audit-mf the audit battery's bulk Monte Carlo draws.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from metagrad.cli import main

ROOT = Path(__file__).resolve().parent.parent
FINGERPRINT = json.loads((ROOT / "perfbench" / "fingerprint.json").read_text())


def skip_unless_recorded_environment():
    recorded = FINGERPRINT["environment"]
    here = {"python": platform.python_version(), "numpy": np.__version__}
    if any(recorded[k] != v for k, v in here.items()):
        pytest.skip(
            f"fingerprint was taken with python {recorded['python']} and numpy "
            f"{recorded['numpy']}, this is python {here['python']} and numpy {here['numpy']}"
        )


def assert_outputs_hash_as_recorded(out, workload):
    hashes = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }
    assert hashes == FINGERPRINT["workloads"][workload]


def check_workload(tmp_path, workload):
    """compare at the default seed on the workload's config hashes as recorded."""
    skip_unless_recorded_environment()
    seed = str(FINGERPRINT["default_seed"])
    config = ROOT / "configs" / f"{workload[:4]}.json"
    argv = ["compare", "--config", str(config), "--seed", seed, "--out", str(tmp_path), "--quiet"]
    assert main(argv) == 0
    assert_outputs_hash_as_recorded(tmp_path, workload)


def test_fig1_outputs_match_fingerprint(tmp_path):
    check_workload(tmp_path, "fig1-exact")


def test_fig2_outputs_match_fingerprint(tmp_path):
    check_workload(tmp_path, "fig2-sampled")


def test_audit_mf_outputs_match_fingerprint(tmp_path):
    # the audit battery at the default seed on fig2's family with the noise,
    # adaptive stepsize and batches of the benchmark's audit-mf workload
    skip_unless_recorded_environment()
    seed = FINGERPRINT["default_seed"]
    cfg = json.loads((ROOT / "configs" / "fig2.json").read_text())
    cfg["family"]["generate"]["seed"] += seed
    cfg.update({
        "algorithms": ["maml"],
        "stepsize": {"kind": "adaptive"},
        "batches": {"B": 20, "D_in": 4, "D_o": 4, "D_h": 4, "B_prime": 20, "D_beta": 20},
        "noise": {"sigma_tilde": 0.5, "sigma_H": 0.5},
        "max_iters": 60,
        "seeds": [seed],
    })
    config = tmp_path / "audit-mf.json"
    config.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    out = tmp_path / "out"
    assert main(["audit", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    assert_outputs_hash_as_recorded(out, "audit-mf")
