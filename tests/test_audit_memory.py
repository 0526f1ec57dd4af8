"""The bulk samplers' and the smoothness sweep's heap peaks stay bounded.

Both Monte Carlo samplers draw their per-sample noise in windows of
numerics.BLOCK_ROWS rows, so at 2e4 samples on fig2's family their peak is a
few (n, d) arrays and one window.  Drawn whole, the stepsize sampler's
(n, B', d) noise stack peaks near 75 MB and the surrogate's (n_mc, d, d)
Hessian noise near 21 MB.  The smoothness sweep bounds its Hessians
numerics.PRUNE_BLOCK points or pairs at a time: on 400 tasks in 12
dimensions it peaks near 12 MB, where one stack of all 96 points'
Hessians would alone take 44 MB.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from metagrad.cli import generate_family
from metagrad.meta_gradient import mc_grad_F_hat_draws
from metagrad.numerics import RngStream
from metagrad.stepsize import sample_beta_tilde
from metagrad.stochastic import StochasticOracle
from metagrad.tasks import local_smoothness, rank1_mf_family

CONFIG = json.loads((Path(__file__).resolve().parent.parent / "configs" / "fig2.json").read_text())
BUDGET_MB = 8.0
N = 20_000


@pytest.fixture(scope="module")
def fig2():
    family = generate_family(CONFIG["family"]["generate"])
    w0 = np.array(CONFIG["w0"])
    profile = local_smoothness(family, w0, CONFIG["trust_radius"]).with_noise(0.5, 0.5)
    return family, profile, w0


def peak_mb(fn) -> float:
    """Heap peak of fn() above what was traced when it started, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_sample_beta_tilde_peak_is_bounded(fig2):
    family, profile, w0 = fig2
    alpha = CONFIG["alpha"]
    peak = peak_mb(lambda: sample_beta_tilde(family, profile, w0, alpha, 20, 20, N,
                                             RngStream(0, ("memory",))))
    assert peak < BUDGET_MB


def test_mc_grad_F_hat_draws_peak_is_bounded(fig2):
    family, profile, w0 = fig2
    oracle = StochasticOracle(profile.sigma_tilde, profile.sigma_H)
    peak = peak_mb(lambda: mc_grad_F_hat_draws(family, w0, CONFIG["alpha"], 4, N, oracle,
                                               RngStream(0, ("memory",))))
    assert peak < BUDGET_MB


def test_local_smoothness_peak_is_bounded():
    family = rank1_mf_family(400, 12, RngStream(5, ("memory",)))
    peak = peak_mb(lambda: local_smoothness(family, np.full(12, 0.1), 1.0))
    assert peak < 16.0
