#!/usr/bin/env python3
"""Record the behaviour fingerprint the benchmark's bytes_match checks.

    python3 perfbench/fingerprint.py

Runs every workload once at the default seed and writes the sha256 of
each CSV/JSON it emits to fingerprint.json, with nproc and the Python,
numpy and scipy versions the hashes were taken with.  Timing data is
never written to the hashed outputs.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import time

from run import DEFAULT_SEED, FINGERPRINT, SRC, WORK, WORKLOADS, Harness, output_hashes


def main() -> int:
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    workdir = WORK / f"fingerprint{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    hashes = {}
    try:
        for name, workload in WORKLOADS.items():
            harness = Harness(workload, DEFAULT_SEED, workdir, time.perf_counter() + 170.0)
            _, out, ok = harness.run_cli(DEFAULT_SEED)
            if not ok:
                print(f"{name}: {harness.problems}", file=sys.stderr)
                return 1
            hashes[name] = output_hashes(out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "default_seed": DEFAULT_SEED,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "workloads": hashes,
    }
    FINGERPRINT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FINGERPRINT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
