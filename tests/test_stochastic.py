"""Noise realization audits: scaling laws, symmetry, batch frequencies."""

import numpy as np
import pytest

from metagrad.numerics import (RngStream, keyed_uniforms, normal_words, path_key,
                               standard_normals, uniforms)
from metagrad.stochastic import (
    BatchSpec,
    StochasticOracle,
    grad_noise,
    hess_noise,
    noisy_grad,
    noisy_hess,
    sample_task_batch,
)
from metagrad.tasks import (
    MatrixFactorizationTask,
    QuadraticTask,
    TaskFamily,
    rank1_mf_family,
)
from task_values import task_grad, task_hess


def zero_grad_task(d=4):
    # grad is exactly 0 at w=0, so noisy_grad returns pure noise there.
    return QuadraticTask(np.eye(d), np.zeros(d))


def rows_of(task, n):
    """A one-task family and n slots of its only task."""
    return TaskFamily([task]), np.zeros(n, dtype=int)


def test_noisy_grad_noise_energy_and_mean():
    d = 4
    n = 100_000
    fam, idx = rows_of(zero_grad_task(d), n)
    root = RngStream(1000)
    draws = noisy_grad(fam, idx, np.zeros((n, d)), D=1, sigma_tilde=1.0,
                       rng=[root.child(i) for i in range(n)])
    energy = np.mean(np.sum(draws**2, axis=1))
    assert energy == pytest.approx(1.0, rel=0.02)
    mean = draws.mean(axis=0)
    se = 1.0 / np.sqrt(d * draws.shape[0])
    assert np.max(np.abs(mean)) <= 4.0 * se


def test_noisy_grad_variance_quarters_with_batch():
    d = 4
    n = 20_000
    fam, idx = rows_of(zero_grad_task(d), n)
    W = np.zeros((n, d))
    root = RngStream(1001)
    e1 = np.mean(
        np.sum(noisy_grad(fam, idx, W, 1, 1.0, [root.child("a", i) for i in range(n)]) ** 2, axis=1)
    )
    e16 = np.mean(
        np.sum(noisy_grad(fam, idx, W, 16, 1.0, [root.child("b", i) for i in range(n)]) ** 2, axis=1)
    )
    assert e1 / e16 == pytest.approx(16.0, rel=0.10)


def test_noisy_grad_exact_when_sigma_zero():
    task = QuadraticTask(np.diag([1.0, 2.0]), np.array([0.5, -0.5]))
    fam, idx = rows_of(task, 1)
    w = np.array([1.0, 1.0])
    out = noisy_grad(fam, idx, w[None], D=1, sigma_tilde=0.0, rng=None)
    assert np.array_equal(out[0], task_grad(task, w))


def test_noisy_grad_shared_stream_shares_noise():
    # Same stream at two different points: identical additive noise.
    # This is the shared-batch semantics the probe-based Hessian product relies on.
    fam, idx = rows_of(zero_grad_task(3), 1)
    rng = RngStream(7).child("shared")
    z1 = noisy_grad(fam, idx, np.zeros((1, 3)), 2, 1.0, [rng])
    z2 = noisy_grad(fam, idx, np.zeros((1, 3)), 2, 1.0, [rng])
    assert np.array_equal(z1, z2)
    z3 = noisy_grad(fam, idx, np.zeros((1, 3)), 2, 1.0, [RngStream(7).child("other")])
    assert not np.array_equal(z1, z3)


def test_stacked_rows_equal_slots_drawn_alone():
    # row j of a stacked call is task idx[j] at W[j] with its noise on
    # stream j, the same bits as a one-row call on that stream
    fam = rank1_mf_family(4, 3, RngStream(1004))
    gen = np.random.default_rng(1005)
    idx = np.array([2, 0, 2, 3, 1])
    W = gen.normal(size=(5, 3))
    streams = [RngStream(1006).child("slot", j) for j in range(5)]
    grads = noisy_grad(fam, idx, W, 3, 0.7, streams)
    hess = noisy_hess(fam, idx, W, 3, 0.7, streams)
    for j, i in enumerate(idx):
        assert np.array_equal(grads[j], noisy_grad(fam, [i], W[j:j + 1], 3, 0.7, [streams[j]])[0])
        assert np.array_equal(hess[j], noisy_hess(fam, [i], W[j:j + 1], 3, 0.7, [streams[j]])[0])
        z = 0.7 / np.sqrt(3 * 3) * standard_normals(streams[j], 3)
        assert np.array_equal(grads[j], task_grad(fam.tasks[i], W[j]) + z)


def test_noisy_hess_symmetric_and_energy():
    d = 5
    n = 10_000
    task = zero_grad_task(d)
    fam, idx = rows_of(task, n)
    root = RngStream(1002)
    h = noisy_hess(fam, idx, np.zeros((n, d)), D=1, sigma_H=1.0,
                   rng=[root.child(i) for i in range(n)])
    e = h - task_hess(task, np.zeros(d))
    assert np.array_equal(e, np.swapaxes(e, 1, 2))
    energies = np.sum(e * e, axis=(1, 2))
    assert energies.mean() == pytest.approx(1.0, rel=0.05)


def test_noisy_hess_batch_scaling():
    d = 3
    n = 10_000
    task = zero_grad_task(d)
    fam, idx = rows_of(task, n)
    root = RngStream(1003)
    h = noisy_hess(fam, idx, np.zeros((n, d)), 4, 1.0, [root.child(i) for i in range(n)])
    e4 = np.mean(np.sum((h - task_hess(task, np.zeros(d))) ** 2, axis=(1, 2)))
    assert e4 == pytest.approx(0.25, rel=0.05)


def test_noisy_hess_exact_when_sigma_zero():
    task = MatrixFactorizationTask(np.array([1.0, -2.0]))
    fam, idx = rows_of(task, 1)
    x = np.array([0.3, 0.7])
    assert np.array_equal(noisy_hess(fam, idx, x[None], 1, 0.0, None)[0], task_hess(task, x))


def test_zero_noise_level_is_none():
    # nothing is drawn, so no stream is needed, and noisy adds nothing
    assert grad_noise((2, 3), 1, 0.0, None) is None
    assert hess_noise((2, 3, 3), 1, 0.0, None) is None


def test_oracle_exact_flag_and_validation():
    oracle = StochasticOracle(sigma_tilde=0.5, sigma_H=0.25)
    assert not oracle.exact
    assert StochasticOracle().exact
    with pytest.raises(ValueError):
        StochasticOracle(sigma_tilde=-1.0)
    # a non-finite level would make every draw NaN or inf
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            StochasticOracle(bad, 0.0)
        with pytest.raises(ValueError, match="finite"):
            StochasticOracle(0.0, bad)


def test_sample_task_batch_uniform_frequencies():
    fam = rank1_mf_family(4, 3, RngStream(2000))
    idx = sample_task_batch(fam, 100_000, RngStream(2001).child("batch").generator())
    freqs = np.bincount(idx, minlength=4) / idx.size
    assert np.max(np.abs(freqs - 0.25)) <= 0.01


def test_sample_task_batch_weighted_frequencies():
    tasks = [MatrixFactorizationTask(np.array([float(i), 1.0])) for i in range(3)]
    fam = TaskFamily(tasks, weights=np.array([0.6, 0.3, 0.1]))
    idx = sample_task_batch(fam, 100_000, RngStream(2002).child("batch").generator())
    freqs = np.bincount(idx, minlength=3) / idx.size
    assert np.max(np.abs(freqs - np.array([0.6, 0.3, 0.1]))) <= 0.01


def test_sample_task_batch_deterministic_and_validated():
    fam = rank1_mf_family(5, 2, RngStream(2003))
    stream = RngStream(9).child("t")
    a = sample_task_batch(fam, 64, stream.generator())
    b = sample_task_batch(fam, 64, stream.generator())
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() < 5
    # any shape reads the same stream in row-major order
    grid = sample_task_batch(fam, (8, 8), stream.generator())
    assert np.array_equal(grid, a.reshape(8, 8))
    with pytest.raises(ValueError):
        sample_task_batch(fam, 0, RngStream(9).generator())
    with pytest.raises(ValueError):
        sample_task_batch(fam, (3, 0), RngStream(9).generator())
    # numpy integers are sizes; floats and bools are not
    assert np.array_equal(sample_task_batch(fam, np.int64(64), stream.generator()), a)
    assert np.array_equal(sample_task_batch(fam, (np.int32(8), np.int64(8)), stream.generator()),
                          grid)
    for bad in (4.0, True, (8, 8.0), (np.True_, 8)):
        with pytest.raises(ValueError, match="positive integer"):
            sample_task_batch(fam, bad, RngStream(9).generator())


def test_batch_spec_validation():
    spec = BatchSpec(B=20, D_in=4, D_o=2, D_h=3)
    assert spec.B == 20 and spec.B_prime == 1
    with pytest.raises(ValueError):
        BatchSpec(B=0)
    with pytest.raises(ValueError):
        BatchSpec(D_in=-1)
    with pytest.raises(ValueError):
        BatchSpec(D_o=1.5)
    # numpy integers are stored as ints; floats and bools stay rejected,
    # as the config pass rejects them
    spec = BatchSpec(B=np.int64(20), D_h=np.int32(3))
    assert spec == BatchSpec(B=20, D_h=3) and type(spec.B) is int and type(spec.D_h) is int
    for bad in (20.0, np.float64(20.0), True, np.True_, "20", None):
        with pytest.raises(ValueError, match="B must be a positive integer"):
            BatchSpec(B=bad)


def test_noisy_grad_rejects_bad_batch():
    fam, idx = rows_of(zero_grad_task(), 1)
    with pytest.raises(ValueError):
        noisy_grad(fam, idx, np.zeros((1, 4)), 0, 1.0, [RngStream(0)])
    with pytest.raises(ValueError):
        noisy_hess(fam, idx, np.zeros((1, 4)), 0, 1.0, [RngStream(0)])


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_noise_laws_on_keyed_rows_replay_per_key_draws(d):
    # grad_noise and hess_noise on keyed_uniforms rows give, row for row,
    # the law applied to standard_normals on that row's own key, for odd
    # and even normal counts, keys as streams and as bytes
    streams = [RngStream(1010).child("slot", j, "x") for j in range(7)]
    keys = streams[:4] + [path_key(s) for s in streams[4:]]
    grad_u, hess_u = keyed_uniforms(keys, {"grad": ([b""], normal_words(d)),
                                           "hess": ([b""], normal_words((d, d)))}).values()
    grads = grad_noise((7, d), 3, 0.7, grad_u)
    hess = hess_noise((7, d, d), 2, 0.4, hess_u)
    kappa = 0.4 * np.sqrt(2.0 / (2 * d * (d + 1)))
    for j, stream in enumerate(streams):
        assert np.array_equal(grads[j], 0.7 / np.sqrt(d * 3) * standard_normals(stream, d))
        g = standard_normals(stream, (d, d))
        assert np.array_equal(hess[j], kappa * 0.5 * (g + g.T))


def test_sample_task_batch_on_keyed_rows_replays_per_key_draws():
    # row j of the task indices is the inverse CDF of uniforms(keys[j], B)
    fam = TaskFamily([MatrixFactorizationTask(np.array([float(i), 1.0])) for i in range(5)],
                     weights=np.array([0.1, 0.4, 0.2, 0.05, 0.25]))
    keys = [path_key(RngStream(1011), k, "tasks") for k in range(9)]
    for B in (1, 3, 4, 10):
        (u,) = keyed_uniforms(keys, {0: ([b""], B)}).values()
        idx = sample_task_batch(fam, (9, B), u)
        assert idx.shape == (9, B)
        for j, key in enumerate(keys):
            want = np.minimum(np.searchsorted(fam.cum_weights, uniforms(key, B), side="right"), 4)
            assert np.array_equal(idx[j], want)
