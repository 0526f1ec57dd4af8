"""Noise realization audits: scaling laws, symmetry, batch frequencies."""

import numpy as np
import pytest

from metagrad.numerics import RngStream
from metagrad.stochastic import (
    BatchSpec,
    StochasticOracle,
    noisy_grad,
    noisy_hess,
    sample_task_batch,
)
from metagrad.tasks import (
    RANK1MF,
    MatrixFactorizationTask,
    QuadraticTask,
    TaskFamily,
    rank1_mf_family,
)


def zero_grad_task(d=4):
    # grad is exactly 0 at w=0, so noisy_grad returns pure noise there.
    return QuadraticTask(np.eye(d), np.zeros(d))


def test_noisy_grad_noise_energy_and_mean():
    d = 4
    task = zero_grad_task(d)
    w = np.zeros(d)
    root = RngStream(1000)
    draws = np.empty((100_000, d))
    for i in range(draws.shape[0]):
        draws[i] = noisy_grad(task, w, D=1, sigma_tilde=1.0, rng=root.child(i))
    energy = np.mean(np.sum(draws**2, axis=1))
    assert energy == pytest.approx(1.0, rel=0.02)
    mean = draws.mean(axis=0)
    se = 1.0 / np.sqrt(d * draws.shape[0])
    assert np.max(np.abs(mean)) <= 4.0 * se


def test_noisy_grad_variance_quarters_with_batch():
    d = 4
    task = zero_grad_task(d)
    w = np.zeros(d)
    root = RngStream(1001)
    n = 20_000
    e1 = np.mean(
        [np.sum(noisy_grad(task, w, 1, 1.0, root.child("a", i)) ** 2) for i in range(n)]
    )
    e16 = np.mean(
        [np.sum(noisy_grad(task, w, 16, 1.0, root.child("b", i)) ** 2) for i in range(n)]
    )
    assert e1 / e16 == pytest.approx(16.0, rel=0.10)


def test_noisy_grad_exact_when_sigma_zero():
    task = QuadraticTask(np.diag([1.0, 2.0]), np.array([0.5, -0.5]))
    w = np.array([1.0, 1.0])
    out = noisy_grad(task, w, D=1, sigma_tilde=0.0, rng=RngStream(0))
    assert np.array_equal(out, task.grad(w))


def test_noisy_grad_shared_stream_shares_noise():
    # Same stream at two different points: identical additive noise.
    # This is the shared-batch semantics the probe-based Hessian product relies on.
    task = zero_grad_task(3)
    rng = RngStream(7).child("shared")
    z1 = noisy_grad(task, np.zeros(3), 2, 1.0, rng)
    z2 = noisy_grad(task, np.zeros(3), 2, 1.0, rng)
    assert np.array_equal(z1, z2)
    z3 = noisy_grad(task, np.zeros(3), 2, 1.0, RngStream(7).child("other"))
    assert not np.array_equal(z1, z3)


def test_noisy_hess_symmetric_and_energy():
    d = 5
    task = zero_grad_task(d)
    w = np.zeros(d)
    root = RngStream(1002)
    n = 10_000
    energies = np.empty(n)
    for i in range(n):
        h = noisy_hess(task, w, D=1, sigma_H=1.0, rng=root.child(i))
        e = h - task.hess(w)
        assert np.array_equal(e, e.T)
        energies[i] = np.sum(e * e)
    assert energies.mean() == pytest.approx(1.0, rel=0.05)


def test_noisy_hess_batch_scaling():
    d = 3
    task = zero_grad_task(d)
    w = np.zeros(d)
    root = RngStream(1003)
    n = 10_000
    e4 = np.mean(
        [
            np.sum((noisy_hess(task, w, 4, 1.0, root.child(i)) - task.hess(w)) ** 2)
            for i in range(n)
        ]
    )
    assert e4 == pytest.approx(0.25, rel=0.05)


def test_noisy_hess_exact_when_sigma_zero():
    task = MatrixFactorizationTask(np.array([1.0, -2.0]))
    x = np.array([0.3, 0.7])
    assert np.array_equal(noisy_hess(task, x, 1, 0.0, RngStream(0)), task.hess(x))


def test_oracle_exact_flag_and_validation():
    oracle = StochasticOracle(sigma_tilde=0.5, sigma_H=0.25)
    assert not oracle.exact
    assert StochasticOracle().exact
    with pytest.raises(ValueError):
        StochasticOracle(sigma_tilde=-1.0)


def test_sample_task_batch_uniform_frequencies():
    fam = rank1_mf_family(4, 3, RngStream(2000))
    idx = sample_task_batch(fam, 100_000, RngStream(2001).child("batch"))
    freqs = np.bincount(idx, minlength=4) / idx.size
    assert np.max(np.abs(freqs - 0.25)) <= 0.01


def test_sample_task_batch_weighted_frequencies():
    tasks = [MatrixFactorizationTask(np.array([float(i), 1.0])) for i in range(3)]
    fam = TaskFamily(RANK1MF, tasks, weights=np.array([0.6, 0.3, 0.1]))
    idx = sample_task_batch(fam, 100_000, RngStream(2002).child("batch"))
    freqs = np.bincount(idx, minlength=3) / idx.size
    assert np.max(np.abs(freqs - np.array([0.6, 0.3, 0.1]))) <= 0.01


def test_sample_task_batch_deterministic_and_validated():
    fam = rank1_mf_family(5, 2, RngStream(2003))
    a = sample_task_batch(fam, 64, RngStream(9).child("t"))
    b = sample_task_batch(fam, 64, RngStream(9).child("t"))
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() < 5
    # any shape reads the same stream in row-major order
    grid = sample_task_batch(fam, (8, 8), RngStream(9).child("t"))
    assert np.array_equal(grid, a.reshape(8, 8))
    with pytest.raises(ValueError):
        sample_task_batch(fam, 0, RngStream(9))
    with pytest.raises(ValueError):
        sample_task_batch(fam, (3, 0), RngStream(9))


def test_batch_spec_validation():
    spec = BatchSpec(B=20, D_in=4, D_o=2, D_h=3)
    assert spec.B == 20 and spec.D_test == 1
    with pytest.raises(ValueError):
        BatchSpec(B=0)
    with pytest.raises(ValueError):
        BatchSpec(D_in=-1)
    with pytest.raises(ValueError):
        BatchSpec(D_o=1.5)


def test_noisy_grad_rejects_bad_batch():
    with pytest.raises(ValueError):
        noisy_grad(zero_grad_task(), np.zeros(4), 0, 1.0, RngStream(0))
    with pytest.raises(ValueError):
        noisy_hess(zero_grad_task(), np.zeros(4), 0, 1.0, RngStream(0))
