"""Reading serialized run records back, for tests that check the CSV."""

import numpy as np

from metagrad.optimizer import CSV_HEADER


def parse_csv(text: str) -> dict[str, np.ndarray]:
    """Columns of a serialized record, keyed by header name."""
    lines = [ln for ln in text.strip().split("\n") if ln]
    names = lines[0].split(",")
    if names != CSV_HEADER.split(","):
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    cols = {name: [] for name in names}
    for ln in lines[1:]:
        for name, valtext in zip(names, ln.split(",")):
            cols[name].append(float(valtext))
    out = {name: np.array(vals) for name, vals in cols.items()}
    out["iter"] = out["iter"].astype(int)
    return out
