"""Exact symmetries of whole runs, bit for bit.

Scale law.  On a rank-1 family f_i(x) = 0.25 ||x x' - g_i g_i'||^2, scale
every target by s = 2 (g_i -> s g_i), and set w0 -> s w0, the trust radius
-> s R, alpha -> alpha / s^2, a constant beta -> beta / s^2,
sigma_tilde -> s^3 sigma_tilde and sigma_H -> s^2 sigma_H.  Every formula
of a run is homogeneous in s, and a power of two scales a float exactly,
so the scaled run is the run times a stated power of s (POWERS) bit for
bit, and local_smoothness gives s^2 L, s rho and s^3 sigma.  A formula
whose units do not match breaks the law, which no moment test or audit
margin sees; the power tests seed three such defects.

Sign flips.  Negating some coordinates of every g_i and of w0 negates the
same coordinates of every iterate of an exact run, and leaves its norms,
losses and stepsizes as they were, for a profile held fixed (the sampled
profile itself depends on the frame).
"""

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from metagrad import meta_gradient, optimizer
from metagrad.cli import load_config, prepare
from metagrad.meta_gradient import ALGORITHMS, FOMAML, HFMAML, MAML
from metagrad.optimizer import run
from metagrad.stepsize import StepsizeRule
from metagrad.stochastic import BatchSpec
from metagrad.tasks import MatrixFactorizationTask, TaskFamily, local_smoothness

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
S = 2.0
POWERS = {"iterates": 1, "grad_norm_F": 3, "loss_F": 4, "beta": -2}  # each record's power of s
ADAPTIVE = {"stepsize": StepsizeRule(kind="adaptive"),
            "batches": BatchSpec(B=20, D_in=4, D_o=4, D_h=4, B_prime=20, D_beta=20)}
FLIP = np.array([1.0, -1.0, 1.0, -1.0, -1.0])  # coordinates 1, 3 and 4


def shipped(name):
    """fig1's or fig2's family, base config and profile, as compare makes them."""
    resolved, config_dir = load_config(str(CONFIGS / f"{name}.json"), argparse.Namespace())
    return prepare(resolved, config_dir)


def mapped(family, factor):
    """The family with every target g_i times factor (a scalar or a vector)."""
    return TaskFamily([MatrixFactorizationTask(factor * t.g) for t in family.tasks],
                      family.weights)


def scaled(config):
    stepsize = config.stepsize
    if stepsize.kind == "constant":
        stepsize = replace(stepsize, beta=stepsize.beta / S**2)
    return replace(config, w0=S * config.w0, trust_radius=S * config.trust_radius,
                   alpha=config.alpha / S**2, stepsize=stepsize,
                   sigma_tilde=S**3 * config.sigma_tilde, sigma_H=S**2 * config.sigma_H)


def assert_scale_law(name, algorithm, adaptive, iters=150):
    family, base, profile = shipped(name)
    config = replace(base, algorithm=algorithm, max_iters=iters, **(ADAPTIVE if adaptive else {}))
    big, big_config = mapped(family, S), scaled(config)
    rec = run(family, config, profile=profile)
    big_profile = local_smoothness(big, big_config.w0, big_config.trust_radius)
    big_rec = run(big, big_config, profile=big_profile)
    for field, power in POWERS.items():
        expected = S**power * getattr(rec, field)
        assert np.array_equal(getattr(big_rec, field), expected, equal_nan=True), field


@pytest.mark.parametrize("name", ["fig1", "fig2"])
def test_local_smoothness_scales_exactly(name):
    family, base, profile = shipped(name)
    big = local_smoothness(mapped(family, S), S * base.w0, S * base.trust_radius)
    assert (big.L, big.rho, big.sigma) == (S**2 * profile.L, S * profile.rho, S**3 * profile.sigma)


@pytest.mark.parametrize("adaptive", [False, True], ids=["constant", "adaptive"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("name", ["fig1", "fig2"])
def test_runs_obey_the_scale_law(name, algorithm, adaptive):
    assert_scale_law(name, algorithm, adaptive)


def probe_width_from_squared_norm(original):
    return lambda rho, alpha, v_norm, w: original(rho, alpha, v_norm * v_norm, w)


def hessian_noise_at_gradient_level(original):
    return lambda n, d, oracle, batches, rows: original(
        n, d, replace(oracle, sigma_H=oracle.sigma_tilde), batches, rows)


def adaptive_estimate_without_alpha(original):
    return lambda family, profile, w, alpha, draw: original(family, profile, w, 1.0, draw)


@pytest.mark.parametrize("module, name, defect, case", [
    (meta_gradient, "probe_delta", probe_width_from_squared_norm, ("fig1", HFMAML, False)),
    (optimizer, "slot_noise", hessian_noise_at_gradient_level, ("fig2", MAML, False)),
    (optimizer, "beta_sample", adaptive_estimate_without_alpha, ("fig2", FOMAML, True)),
], ids=["probe-width", "hessian-noise", "adaptive-alpha"])
def test_a_units_defect_breaks_the_scale_law(monkeypatch, module, name, defect, case):
    monkeypatch.setattr(module, name, defect(getattr(module, name)))
    with pytest.raises(AssertionError, match="iterates"):
        assert_scale_law(*case)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_exact_runs_flip_with_the_frame(algorithm):
    # fig1's exact full-batch runs, 600 iterations, on fig1's own profile
    family, base, profile = shipped("fig1")
    config = replace(base, algorithm=algorithm)
    rec = run(family, config, profile=profile)
    flipped = run(mapped(family, FLIP), replace(config, w0=FLIP * config.w0), profile=profile)
    assert rec.steps_taken == 600
    assert np.array_equal(flipped.iterates, FLIP * rec.iterates)
    for field in ("grad_norm_F", "loss_F", "beta"):
        assert np.array_equal(getattr(flipped, field), getattr(rec, field), equal_nan=True), field
