"""Adaptive stepsize rule: formulas, preconditions, moments."""

import json
import re

import numpy as np
import pytest

from metagrad import cli, numerics, verification
from metagrad.cli import generate_family
from metagrad.errors import InvalidBatchConfig
from metagrad.numerics import RngStream, standard_normals, uniforms
from metagrad.stepsize import (
    ADAPTIVE_FRACTIONS,
    StepsizeRule,
    beta_tilde,
    check_stepsize_batches,
    required_B_prime,
    required_D_beta,
    sample_beta_tilde,
    smoothness_L_of_w,
)
from metagrad.stochastic import STEPSIZE, TASKS, noisy_grad, sample_task_batch
from metagrad.tasks import SmoothnessProfile, local_smoothness, random_quadratic_family, rank1_mf_family
from task_values import task_grad


def mf_setup(seed=90, n=4, d=4):
    fam = rank1_mf_family(n, d, RngStream(seed))
    prof = local_smoothness(fam, np.zeros(d), radius=2.0).with_noise(
        sigma_tilde=1.0, sigma_H=0.0
    )
    return fam, prof


def test_smoothness_L_of_w_manual_sum():
    fam, prof = mf_setup()
    w = np.random.default_rng(91).normal(size=4) * 0.5
    want = 4.0 * prof.L + 2.0 * prof.rho * 0.02 * sum(
        p * np.linalg.norm(task_grad(t, w)) for p, t in zip(fam.weights, fam.tasks)
    )
    assert smoothness_L_of_w(fam, prof, w, 0.02) == pytest.approx(want, rel=1e-12)


def test_smoothness_L_of_w_rho_zero_is_constant():
    fam, prof = mf_setup()
    flat = SmoothnessProfile(L=prof.L, rho=0.0, sigma=prof.sigma)
    w = np.random.default_rng(92).normal(size=4)
    assert smoothness_L_of_w(fam, flat, w, 0.05) == 4.0 * flat.L
    assert smoothness_L_of_w(fam, flat, 10.0 * w, 0.05) == 4.0 * flat.L


@pytest.mark.parametrize("K", [1, 2, 7, 1024])
@pytest.mark.parametrize("kind", ["rank1", "quadratic"])
def test_smoothness_L_of_w_stack_rows_are_one_point_floats(kind, K):
    # each row is the one-point call and the expression 4L + 2 rho alpha
    # weights . norms with the norms taken per point, bit for bit
    if kind == "rank1":
        fam, prof = mf_setup()
    else:
        fam = random_quadratic_family(6, 4, RngStream(93))
        prof = SmoothnessProfile(L=3.0, rho=0.7, sigma=1.0)  # rho > 0 so the norms count
    W = np.random.default_rng(94).normal(size=(K, 4))
    stacked = smoothness_L_of_w(fam, prof, W, 0.02)
    assert stacked.shape == (K,)
    for w, got in zip(W, stacked):
        want = 4.0 * prof.L + 2.0 * prof.rho * 0.02 * float(
            fam.weights @ np.linalg.norm(fam.grads(w), axis=1))
        assert smoothness_L_of_w(fam, prof, w, 0.02) == got == want


def test_smoothness_L_of_w_stays_finite_past_the_squared_norm_range():
    # the task gradients grow as ||w||^3: at 1e60 their norms (about 1e180)
    # are finite, their squares are not
    fam = generate_family({"kind": "rank1mf", "n": 4, "dim": 3, "seed": 1})
    w0 = np.array([0.3, -0.2, 0.1])
    prof = local_smoothness(fam, w0, 1.0)
    u = w0 / np.linalg.norm(w0)
    far, near = (smoothness_L_of_w(fam, prof, s * u, 0.05) for s in (1e60, 1e50))
    assert np.isfinite(far)
    assert far / near == pytest.approx(1e30, rel=1e-12)
    # a gradient that is itself past the float range still gives inf
    with np.errstate(over="ignore", invalid="ignore"):
        assert smoothness_L_of_w(fam, prof, 1e200 * u, 0.05) == np.inf


def test_beta_samples_stay_positive_past_the_squared_norm_range(tmp_path, monkeypatch):
    # the audit battery at w_scale 1e60 on the 4-task rank-1 family: the
    # task-gradient norms (about 1e180) are finite, their squares are not,
    # and every beta sample, vectorized or one-key, is still positive
    samples = []

    def recorded(family, profile, w, *args):
        alpha, B_prime, D_beta, _, rng = args
        one = beta_tilde(family, profile, w, alpha, B_prime, D_beta, rng)  # the optimizer's draw
        samples.append(np.append(sample_beta_tilde(family, profile, w, *args), one))
        return samples[-1][:-1]

    monkeypatch.setattr(verification, "sample_beta_tilde", recorded)
    config = {"family": {"generate": {"kind": "rank1mf", "n": 4, "dim": 3, "seed": 1}},
              "alpha": 0.05, "stepsize": {"kind": "constant", "beta": 0.05},
              "noise": {"sigma_tilde": 0.3, "sigma_H": 0.3}, "trust_radius": 2.0,
              "w0": [0.3, -0.2, 0.1], "audit": {"select": ["stepsize_moments"], "w_scale": 1e60}}
    (tmp_path / "c.json").write_text(json.dumps(config))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        assert cli.main(["audit", "--config", str(tmp_path / "c.json"),
                         "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert len(samples) == 10
    for draws in samples:
        assert np.all(np.isfinite(draws)) and np.all(draws > 0.0)


def test_beta_tilde_deterministic_when_rho_zero():
    fam, prof = mf_setup()
    flat = SmoothnessProfile(L=2.0, rho=0.0, sigma=prof.sigma, sigma_tilde=1.0)
    assert beta_tilde(fam, flat, np.zeros(4), 0.05, 1, 1, RngStream(0)) == 0.125
    draws = sample_beta_tilde(fam, flat, np.zeros(4), 0.05, 1, 1, 100, RngStream(0))
    assert np.all(draws == 0.125)


def test_beta_tilde_never_exceeds_quarter_L_inverse():
    fam, prof = mf_setup()
    alpha = 1.0 / (6.0 * prof.L)
    bp = required_B_prime(prof, alpha)
    db = required_D_beta(prof, alpha)
    w = np.random.default_rng(93).normal(size=4)
    draws = sample_beta_tilde(fam, prof, w, alpha, bp, db, 5000, RngStream(94))
    assert np.all(draws <= 0.25 / prof.L + 1e-15)
    assert np.all(draws > 0.0)


def test_beta_tilde_rejects_undersized_batches():
    fam, prof = mf_setup()
    alpha = 1.0 / (6.0 * prof.L)
    # Inflate dispersion so the preconditions demand more than one sample:
    # rho * alpha * sigma / L = 3 forces B' >= ceil(4.5) = 5.
    prof = SmoothnessProfile(
        L=prof.L,
        rho=prof.rho,
        sigma=3.0 * prof.L / (prof.rho * alpha),
        sigma_tilde=prof.sigma_tilde,
    )
    need = required_B_prime(prof, alpha)
    assert need > 1
    with pytest.raises(InvalidBatchConfig, match=re.escape(f"B_prime={need - 1} < ceil(0.5")):
        check_stepsize_batches(prof, alpha, need - 1, 1)
    with pytest.raises(InvalidBatchConfig):
        beta_tilde(fam, prof, np.zeros(4), alpha, need - 1, 1, RngStream(0))
    with pytest.raises(InvalidBatchConfig):
        sample_beta_tilde(fam, prof, np.zeros(4), alpha, need - 1, 1, 10, RngStream(0))


def test_batch_condition_thresholds():
    # rho*alpha*sigma/L = 2 requires B' >= ceil(0.5 * 4) = 2.
    prof = SmoothnessProfile(L=1.0, rho=2.0, sigma=10.0, sigma_tilde=5.0)
    alpha = 0.1
    assert required_B_prime(prof, alpha) == 2
    # 2*rho*alpha*sigma_tilde/L = 2 requires D_beta >= 4.
    assert required_D_beta(prof, alpha) == 4
    check_stepsize_batches(prof, alpha, 2, 4)
    with pytest.raises(InvalidBatchConfig, match=re.escape("B_prime=1 < ceil(0.5*(rho*alpha*sigma/L)^2)=2")):
        check_stepsize_batches(prof, alpha, 1, 4)
    with pytest.raises(InvalidBatchConfig, match=re.escape("D_beta=3 < ceil((2*rho*alpha*sigma_tilde/L)^2)=4")):
        check_stepsize_batches(prof, alpha, 2, 3)


def test_vectorized_sampler_matches_looped_rule_in_distribution():
    fam, prof = mf_setup(seed=95)
    alpha = 1.0 / (6.0 * prof.L)
    bp = max(2, required_B_prime(prof, alpha))
    db = max(1, required_D_beta(prof, alpha))
    w = 0.5 * np.random.default_rng(96).normal(size=4)

    n_loop = 3000
    root = RngStream(97)
    loop = np.array(
        [
            beta_tilde(fam, prof, w, alpha, bp, db, root.child(i))
            for i in range(n_loop)
        ]
    )
    vec = sample_beta_tilde(fam, prof, w, alpha, bp, db, 30_000, RngStream(98))
    se = np.sqrt(loop.var() / n_loop + vec.var() / vec.size)
    assert abs(loop.mean() - vec.mean()) <= 4.0 * se
    assert loop.max() <= 0.25 / prof.L + 1e-15
    assert vec.std() == pytest.approx(loop.std(), rel=0.15)


def test_sample_beta_tilde_replays_documented_streams(monkeypatch):
    # white box: tasks by inverse CDF on the TASKS stream, one noise draw
    # on the STEPSIZE stream with the scale written out; drawn in one block
    # and in 3-row blocks, 14 windows of which the last has one row
    fam, prof = mf_setup(seed=105)
    alpha = 1.0 / (6.0 * prof.L)
    bp, db, n = 3, 2, 40
    w = 0.5 * np.random.default_rng(106).normal(size=4)
    rng = RngStream(107)

    u = uniforms(rng.child(TASKS), (n, bp))
    idx = np.minimum(np.searchsorted(np.cumsum(fam.weights), u, side="right"), fam.n_tasks - 1)
    d = fam.dim
    z = prof.sigma_tilde / np.sqrt(d * db) * standard_normals(rng.child(STEPSIZE), (n, bp, d))
    norms = np.linalg.norm(fam.grads(w)[idx] + z, axis=2).mean(axis=1)
    want = 1.0 / (4.0 * prof.L + 2.0 * prof.rho * alpha * norms)
    for block_rows in (numerics.BLOCK_ROWS, 3):
        monkeypatch.setattr(numerics, "BLOCK_ROWS", block_rows)
        got = sample_beta_tilde(fam, prof, w, alpha, bp, db, n, rng)
        assert np.array_equal(got, want), block_rows


def test_beta_tilde_replays_slot_loop_bit_for_bit():
    # white box: slot j's gradient is task idx[j]'s at w plus noise on the
    # step key + (STEPSIZE, STEPSIZE, j), its tasks drawn on the step key +
    # (STEPSIZE, TASKS), and the norms are added from zero in slot order
    fam, prof = mf_setup(seed=108)
    # a small L lets the summed norms, not 4L, set the last bits of L_tilde
    prof = SmoothnessProfile(L=1e-3, rho=prof.rho, sigma=0.0, sigma_tilde=1.0)
    alpha, bp, d = 0.05, 20, fam.dim
    db = required_D_beta(prof, alpha)
    gen = np.random.default_rng(109)
    for k in range(20):
        w = gen.normal(size=d)
        rng = RngStream(110).child(k)
        got = beta_tilde(fam, prof, w, alpha, bp, db, rng)
        acc = 0.0
        beta_rng = rng.child(STEPSIZE)
        for slot, i in enumerate(sample_task_batch(fam, bp, beta_rng.child(TASKS).generator())):
            z = prof.sigma_tilde / np.sqrt(d * db) * standard_normals(
                beta_rng.child(STEPSIZE, slot), d)
            acc += float(np.linalg.norm(task_grad(fam.tasks[i], w) + z))
        l_tilde = 4.0 * prof.L + 2.0 * prof.rho * alpha * acc / bp
        assert got == 1.0 / l_tilde


def test_beta_tilde_moment_bounds_light():
    fam, prof = mf_setup(seed=99)
    alpha = 1.0 / (6.0 * prof.L)
    bp = required_B_prime(prof, alpha)
    db = required_D_beta(prof, alpha)
    w = 0.7 * np.random.default_rng(100).normal(size=4)
    draws = sample_beta_tilde(fam, prof, w, alpha, bp, db, 30_000, RngStream(101))
    l_w = smoothness_L_of_w(fam, prof, w, alpha)
    se_mean = draws.std() / np.sqrt(draws.size)
    assert draws.mean() >= 0.8 / l_w - 3.0 * se_mean
    sq = draws**2
    se_sq = sq.std() / np.sqrt(sq.size)
    assert sq.mean() <= 3.125 / l_w**2 + 3.0 * se_sq


def test_inflated_gradient_norms_weakly_decrease_beta_tilde():
    # Rebuild one draw from its streams (the step key + STEPSIZE) and
    # recompute with norms doubled: the implied stepsize must not increase.
    fam, prof = mf_setup(seed=102)
    alpha = 1.0 / (6.0 * prof.L)
    bp, db = 3, 2
    check_stepsize_batches(prof, alpha, bp, db)
    w = 0.5 * np.random.default_rng(103).normal(size=4)
    rng = RngStream(104).child("draw")
    got = beta_tilde(fam, prof, w, alpha, bp, db, rng)

    beta_rng = rng.child(STEPSIZE)
    idx = sample_task_batch(fam, bp, beta_rng.child(TASKS).generator())
    norms = [
        np.linalg.norm(noisy_grad(fam, [i], w[None], db, prof.sigma_tilde,
                                  [beta_rng.child(STEPSIZE, slot)])[0])
        for slot, i in enumerate(idx)
    ]
    rebuilt = 1.0 / (4.0 * prof.L + 2.0 * prof.rho * alpha * np.mean(norms))
    assert rebuilt == pytest.approx(got, rel=1e-12)
    inflated = 1.0 / (4.0 * prof.L + 2.0 * prof.rho * alpha * np.mean(2.0 * np.array(norms)))
    assert inflated <= got


def test_stepsize_rule_validation_and_fractions():
    assert StepsizeRule("constant", beta=0.1).beta == 0.1
    assert StepsizeRule("adaptive").resolve_fraction("maml") == pytest.approx(1.0 / 12.0)
    assert StepsizeRule("adaptive").resolve_fraction("fomaml") == pytest.approx(1.0 / 18.0)
    assert StepsizeRule("adaptive").resolve_fraction("hfmaml") == pytest.approx(1.0 / 25.0)
    assert StepsizeRule("adaptive", fraction=0.5).resolve_fraction("maml") == 0.5
    assert ADAPTIVE_FRACTIONS["maml"] > ADAPTIVE_FRACTIONS["fomaml"] > ADAPTIVE_FRACTIONS["hfmaml"]
    with pytest.raises(ValueError):
        StepsizeRule("constant")
    with pytest.raises(ValueError):
        StepsizeRule("constant", beta=-1.0)
    with pytest.raises(ValueError):
        StepsizeRule("linesearch")
    with pytest.raises(ValueError):
        StepsizeRule("adaptive", fraction=0.0)

