"""The bulk samplers', the smoothness audit's, the smoothness sweep's and
the optimizer's heap peaks stay bounded.

Both Monte Carlo samplers draw their per-sample noise in windows of
numerics.BLOCK_ROWS rows, so at 2e4 samples on fig2's family their peak is a
few (n, d) arrays and one window.  Drawn whole, the stepsize sampler's
(n, B', d) noise stack peaks near 75 MB and the surrogate's (n_mc, d, d)
Hessian noise near 21 MB.  The direction sampler's FO-MAML rows, the bias
and second-moment audits' draws, hold only (n_mc, d) arrays.  The smoothness audit sweeps its 2e4 pairs in
windows too, where one stack would hold 200 MB of Hessians.  The smoothness sweep bounds its Hessians
numerics.PRUNE_BLOCK points or pairs at a time: on 400 tasks in 12
dimensions it peaks near 12 MB, where one stack of all 96 points'
Hessians would alone take 44 MB.  A block of noisy MAML steps draws its
keys' uniforms in one keyed Philox pass that computes numerics.SLAB_LANES
blocks of four words at a time, so a block of 1024 Hessian keys at d = 10
peaks near 4.7 MB, a few BLOCK_ROWS d^2 arrays; a pass over all of the
block's Philox blocks at once peaked near 10 MB there.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from metagrad import numerics
from metagrad.cli import generate_family
from metagrad.meta_gradient import FOMAML, MAML, mc_direction_draws, mc_grad_F_hat_draws
from metagrad.numerics import RngStream
from metagrad.optimizer import OptimizerConfig, run
from metagrad.stepsize import StepsizeRule, sample_beta_tilde
from metagrad.stochastic import INNER, OUTER, BatchSpec, StochasticOracle
from metagrad.tasks import local_smoothness, rank1_mf_family
from metagrad.verification import audit_smoothness_ratio

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


@pytest.mark.parametrize("integrand", [MAML, FOMAML])
def test_mc_grad_F_hat_draws_peak_is_bounded(fig2, integrand):
    # MAML's is the surrogate's; FO-MAML's the bias and second-moment
    # audits' draws, at the battery's default D_o
    family, profile, w0 = fig2
    st, rng = profile.sigma_tilde, RngStream(0, ("memory",))
    if integrand == MAML:
        oracle = StochasticOracle(st, profile.sigma_H)
        draw = lambda: mc_grad_F_hat_draws(family, w0, CONFIG["alpha"], 4, N, oracle, rng)
    else:
        sites = {INNER: ("inner", 4, st), OUTER: ("outer", 1_000_000, st)}
        draw = lambda: mc_direction_draws(FOMAML, family, w0, CONFIG["alpha"], N, sites, rng)
    assert peak_mb(draw) < BUDGET_MB


def test_audit_smoothness_ratio_peak_is_bounded(fig2):
    # the pairs are swept in windows of BLOCK_ROWS // n_tasks pairs; one
    # stack of every pair's Hessians would take about 200 MB
    family, profile, w0 = fig2
    peak = peak_mb(lambda: audit_smoothness_ratio(family, profile, CONFIG["alpha"], w0, 1.0, N,
                                                  RngStream(0, ("memory",))))
    assert peak < BUDGET_MB


def test_local_smoothness_peak_is_bounded():
    family = rank1_mf_family(400, 12, RngStream(5, ("memory",)))
    peak = peak_mb(lambda: local_smoothness(family, np.full(12, 0.1), 1.0))
    assert peak < 16.0


def test_noisy_maml_run_peak_is_bounded():
    # 32 slots on 8 tasks: a block is 32 steps, 1024 keys per noise site,
    # and each Hessian key draws d^2 = 100 words; 100 steps are four blocks
    d = 10
    family = rank1_mf_family(8, d, RngStream(3, ("memory",)))
    w0 = np.full(d, 0.1)
    profile = local_smoothness(family, w0, 1.0)
    config = OptimizerConfig(algorithm="maml", alpha=0.01,
                             stepsize=StepsizeRule(kind="constant", beta=0.01),
                             batches=BatchSpec(B=32, D_in=2, D_o=2, D_h=2), max_iters=100,
                             sigma_tilde=0.5, sigma_H=0.5, w0=w0, trust_radius=1.0)
    peak = peak_mb(lambda: run(family, config, profile=profile))
    assert peak < 8 * numerics.BLOCK_ROWS * d * d * 8 / 1e6  # eight (BLOCK_ROWS, d, d) arrays
