"""Output files still hash as recorded, byte for byte (the harness is pins.py).

fig1's, fig2's and audit-mf's outputs at the default seed must hash to
the benchmark's perfbench/fingerprint.json, which is only read, never
written: fig1 runs the exact full-batch steps, fig2 the sampled, noisy
slots and audit-mf the audit battery's bulk Monte Carlo draws.  Each pin
under tests/ (pins.PINS) must hash as its file records.
"""

import json

import pytest

from pins import (PINS, ROOT, TESTS, audit_mf_config, output_hashes, pin_outputs,
                  skip_unless_taken_here, write_config)

FINGERPRINT = json.loads((ROOT / "perfbench" / "fingerprint.json").read_text())
SEED = FINGERPRINT["default_seed"]


def check_compare(tmp_path, workload):
    """compare at the default seed on the workload's config hashes as recorded."""
    skip_unless_taken_here(FINGERPRINT)
    config = ROOT / "configs" / f"{workload[:4]}.json"
    hashes = output_hashes("compare", config, tmp_path, "--seed", str(SEED))
    assert hashes == FINGERPRINT["workloads"][workload]


def test_fig1_outputs_match_fingerprint(tmp_path):
    check_compare(tmp_path, "fig1-exact")


def test_fig2_outputs_match_fingerprint(tmp_path):
    check_compare(tmp_path, "fig2-sampled")


def test_audit_mf_outputs_match_fingerprint(tmp_path):
    # the audit battery at the default seed, on the family the benchmark
    # draws for that seed
    skip_unless_taken_here(FINGERPRINT)
    cfg = audit_mf_config(["maml"], [SEED])
    cfg["family"]["generate"]["seed"] += SEED
    hashes = output_hashes("audit", write_config(cfg, tmp_path), tmp_path / "out")
    assert hashes == FINGERPRINT["workloads"]["audit-mf"]


@pytest.mark.parametrize("name", PINS)
def test_outputs_match_pin(tmp_path, name):
    pin = json.loads((TESTS / name).read_text())
    skip_unless_taken_here(pin)
    assert pin_outputs(name, tmp_path) == pin["outputs"]
