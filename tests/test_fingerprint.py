"""fig1's and fig2's outputs still hash to the benchmark's recorded fingerprint.

perfbench/fingerprint.json is only read, never written.  Its hashes
depend on the Python and numpy builds that took them, so the check is
skipped when either version differs from the recorded environment.
fig1 runs the exact full-batch steps and fig2 the sampled, noisy slots.
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


def check_workload(tmp_path, workload):
    """compare at the default seed on the workload's config hashes as recorded."""
    recorded = FINGERPRINT["environment"]
    here = {"python": platform.python_version(), "numpy": np.__version__}
    if any(recorded[k] != v for k, v in here.items()):
        pytest.skip(
            f"fingerprint was taken with python {recorded['python']} and numpy "
            f"{recorded['numpy']}, this is python {here['python']} and numpy {here['numpy']}"
        )
    seed = str(FINGERPRINT["default_seed"])
    config = ROOT / "configs" / f"{workload[:4]}.json"
    argv = ["compare", "--config", str(config), "--seed", seed, "--out", str(tmp_path), "--quiet"]
    assert main(argv) == 0
    hashes = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
        if p.is_file()
    }
    assert hashes == FINGERPRINT["workloads"][workload]


def test_fig1_outputs_match_fingerprint(tmp_path):
    check_workload(tmp_path, "fig1-exact")


def test_fig2_outputs_match_fingerprint(tmp_path):
    check_workload(tmp_path, "fig2-sampled")
