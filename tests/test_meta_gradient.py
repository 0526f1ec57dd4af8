"""Direction estimators against symbolic expansions, MC means, and FD oracles."""

import numpy as np
import pytest

from metagrad import numerics
from metagrad.meta_gradient import (
    ALGORITHMS,
    FOMAML,
    HFMAML,
    MAML,
    adapted_value,
    direction,
    exact_grad_F,
    hessian_stage,
    hvp_finite_diff,
    mc_direction_draws,
    mc_grad_F_hat_draws,
    outer_stage,
    probe_delta,
    value_F,
)
from metagrad.closed_form import analyze_quadratic
from metagrad.numerics import RngStream, keyed_uniforms, normal_words, row_dots, standard_normals
from metagrad.stochastic import (HESS, INNER, OUTER, BatchSpec, StochasticOracle, grad_noise,
                                 noisy)
from metagrad.tasks import (
    MatrixFactorizationTask,
    QuadraticTask,
    TaskFamily,
    local_smoothness,
    random_quadratic_family,
    rank1_mf_family,
)
from task_values import task_grad, task_hess


def quartic_family():
    """The 1-d rank-1 task with g = 0: f(x) = x^4 / 4, f'(x) = x^3, third derivative 6x."""
    return TaskFamily([MatrixFactorizationTask(np.array([0.0]))])


def one_task_hvp(task, w, v, delta, sigma_tilde=0.0, rng=None):
    """hvp_finite_diff on one row of a one-task family, both probe gradients
    with the noise of one batch drawn on rng."""
    rows = None if rng is None else keyed_uniforms([rng], {0: ([b""], normal_words(task.dim))})[0]
    noise = grad_noise((1, task.dim), 1, sigma_tilde, rows)
    return hvp_finite_diff(TaskFamily([task]), [0], w[None], v[None], np.array([delta]),
                           noise)[0]


def one_d_example_family():
    tasks = [
        QuadraticTask(np.array([[1.0]]), np.array([1.0])),
        QuadraticTask(np.array([[2.0]]), np.array([-1.0])),
    ]
    return TaskFamily(tasks)


def make_quad_task(seed, d=4):
    gen = np.random.default_rng(seed)
    g = gen.normal(size=(d, d))
    return QuadraticTask(g @ g.T + d * np.eye(d), gen.normal(size=d))


EXACT = StochasticOracle()


# -------------------------------------------------- noise-free identities


def test_inner_step_exact():
    # FO-MAML's exact direction is the outer gradient at the inner step
    t = make_quad_task(1)
    w = np.random.default_rng(2).normal(size=t.dim)
    out = direction(FOMAML, t, w, 0.05, 0.0, EXACT, BatchSpec(D_in=3), RngStream(0))
    assert np.allclose(out, task_grad(t, w - 0.05 * task_grad(t, w)), atol=1e-14)


def test_maml_direction_exact_quadratic_identity():
    # Noise-free MAML direction collapses to (I - alpha A)^2 (A w + b).
    for seed in range(5):
        t = make_quad_task(seed)
        w = np.random.default_rng(50 + seed).normal(size=t.dim)
        alpha = 0.04
        got = direction(MAML, t, w, alpha, 0.0, EXACT, BatchSpec(), RngStream(seed))
        m = np.eye(t.dim) - alpha * t.A
        want = m @ m @ (t.A @ w + t.b)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_fomaml_direction_exact_quadratic_identity():
    t = make_quad_task(9)
    w = np.random.default_rng(10).normal(size=t.dim)
    alpha = 0.04
    got = direction(FOMAML, t, w, alpha, 0.0, EXACT, BatchSpec(), RngStream(0))
    want = (np.eye(t.dim) - alpha * t.A) @ (t.A @ w + t.b)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_maml_direction_unbiased_given_exact_inner():
    # With the inner step exact, the estimator's mean is the exact
    # per-task meta-gradient: E[(I - aH~)(grad f(w_i) + z)] = exact_grad_F of
    # the one-task family.
    task = MatrixFactorizationTask(np.array([1.0, -0.5, 0.25, 0.8]))
    d = 4
    w = np.array([0.6, 0.2, -0.4, 0.1])
    alpha, sigma_tilde, sigma_H, D = 0.05, 1.0, 2.0, 2
    w_i = w - alpha * task_grad(task, w)
    g_wi = task_grad(task, w_i)
    h = task_hess(task, w)

    n = 40_000
    rng = RngStream(77)
    z = (sigma_tilde / np.sqrt(d * D)) * standard_normals(rng.child("z"), (n, d))
    raw = standard_normals(rng.child("e"), (n, d, d))
    kappa = sigma_H * np.sqrt(2.0 / (D * d * (d + 1)))
    e = kappa * 0.5 * (raw + np.swapaxes(raw, 1, 2))
    go = g_wi + z
    dirs = go - alpha * (go @ h.T + np.einsum("mij,mj->mi", e, go))

    exact = exact_grad_F(TaskFamily([task]), w, alpha)
    err = np.linalg.norm(dirs.mean(axis=0) - exact)
    se = np.sqrt(np.sum(dirs.var(axis=0)) / n)
    assert err <= 4.0 * se


# ------------------------------------------------------------------- hvp


def test_hvp_scalar_quartic_example():
    family = quartic_family()
    w = np.array([1.0])
    v = np.array([1.0])
    got = hvp_finite_diff(family, [0], w[None], v[None], np.array([0.5]))[0]
    assert got[0] == 3.25  # (1.5^3 - 0.5^3) / (2 * 0.5)
    exact = task_hess(family.tasks[0], w) @ v
    # the third derivative is at most 9 on the probe interval [0.5, 1.5].
    assert abs(got[0] - exact[0]) <= 9.0 * 0.5 * 1.0


def test_hvp_exact_on_quadratic_for_any_delta_even_with_noise():
    # Shared-batch probes cancel the noise bit-for-bit; only the linear
    # gradient remains, so the central difference is A v to rounding.
    t = make_quad_task(20)
    gen = np.random.default_rng(21)
    w = gen.normal(size=t.dim)
    v = gen.normal(size=t.dim)
    want = t.A @ v
    for j, delta in enumerate([1e-3, 0.1, 10.0]):
        got = one_task_hvp(t, w, v, delta, sigma_tilde=5.0, rng=RngStream(22).child(j))
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


def test_hvp_error_bound_and_shrinks_on_mf():
    fam = rank1_mf_family(1, 4, RngStream(30))
    task = fam.tasks[0]
    center = np.zeros(4)
    prof = local_smoothness(fam, center, radius=2.0)
    gen = np.random.default_rng(31)
    w = 0.5 * gen.normal(size=4)
    v = gen.normal(size=4)
    v /= np.linalg.norm(v)
    exact = task_hess(task, w) @ v
    errs = []
    for delta in (1e-1, 1e-2, 1e-3):
        got = one_task_hvp(task, w, v, delta)
        err = np.linalg.norm(got - exact)
        assert err <= prof.rho * delta * 1.0**2
        errs.append(err)
    assert errs[0] > errs[1] > errs[2]


def two_call_hvp(family, idx, W, V, delta, noise):
    """hvp_finite_diff's central difference with one gradient call per probe point."""
    delta = delta[:, None]
    gp = noisy(family.grads(W + delta * V, idx), noise)
    gm = noisy(family.grads(W - delta * V, idx), noise)
    return (gp - gm) / (2.0 * delta)


@pytest.mark.parametrize("noised", [False, True], ids=["exact", "noise"])
@pytest.mark.parametrize("shared", [True, False], ids=["shared-w", "per-row-w"])
@pytest.mark.parametrize("tasks", ["array", "slice"])
@pytest.mark.parametrize("kind", ["rank1mf", "quadratic"])
def test_stacked_probe_equals_two_gradient_calls_bit_for_bit(kind, tasks, shared, noised):
    # both probe points go through one (2, B, d) gradient call; each row
    # must be the float the two separate calls give
    make = rank1_mf_family if kind == "rank1mf" else random_quadratic_family
    family, d = make(20, 5, RngStream(12)), 5
    rng = np.random.default_rng(13)
    for _ in range(20):
        idx = rng.integers(0, 20, size=8) if tasks == "array" else slice(None)
        B = 8 if tasks == "array" else 20
        scale = rng.uniform(0.1, 3.0)
        W = scale * rng.normal(size=d if shared else (B, d))
        V = rng.normal(size=(B, d)) * rng.uniform(1e-3, 2.0, size=(B, 1))
        delta = rng.uniform(1e-6, 0.5, size=B)
        noise = rng.normal(size=(B, d)) if noised else None
        assert np.array_equal(hvp_finite_diff(family, idx, W, V, delta, noise),
                              two_call_hvp(family, idx, W, V, delta, noise))


def test_hvp_rejects_bad_delta():
    with pytest.raises(ValueError):
        hvp_finite_diff(quartic_family(), [0], np.ones((1, 1)), np.ones((1, 1)), np.zeros(1))


# ---------------------------------------------------------------- hfmaml


def test_probe_delta_rule():
    w = np.zeros(3)
    assert probe_delta(2.0, 0.1, 5.0, w) == pytest.approx(1.0 / 6.0)
    # Degenerate calibration falls back to an iterate-scaled width.
    assert probe_delta(0.0, 0.1, 5.0, w) == pytest.approx(1e-3)
    w2 = np.array([3.0, 4.0, 0.0])
    assert probe_delta(0.0, 0.1, 5.0, w2) == pytest.approx(1e-3 * 6.0)


def test_probe_delta_past_the_float_range_is_nan():
    # rho alpha ||v|| overflows (or ||v|| did): 1 / inf would be a zero width,
    # which hvp_finite_diff refuses; a NaN width makes the probe NaN instead
    w = np.zeros(2)
    finite = probe_delta(2.0, 0.1, 5.0, w)
    for rho, v_norm in ((1e300, 1e300), (2.0, np.inf), (2.0, np.array([5.0, np.inf]))):
        with np.errstate(over="ignore"):
            delta = np.atleast_1d(probe_delta(rho, 0.1, v_norm, w))
        assert np.isnan(delta[-1]) and np.all(delta[:-1] == finite)
    fam = rank1_mf_family(1, 2, RngStream(3))
    with np.errstate(invalid="ignore"):
        got = hvp_finite_diff(fam, [0], np.ones((1, 2)), np.ones((1, 2)), np.array([np.nan]))
    assert np.isnan(got).all()


def test_hfmaml_within_sixth_of_probe_norm_from_maml():
    # Noise-free: the only difference from MAML is the probe's curvature
    # error, bounded by alpha * rho * delta * ||v||^2 = ||v|| / 6.
    fam = rank1_mf_family(3, 4, RngStream(40))
    prof = local_smoothness(fam, np.zeros(4), radius=2.0)
    alpha = 1.0 / (6.0 * prof.L)
    batches = BatchSpec()
    gen = np.random.default_rng(41)
    for i, task in enumerate(fam.tasks):
        w = 0.8 * gen.normal(size=4)
        hf = direction(HFMAML, task, w, alpha, prof.rho, EXACT, batches, RngStream(42).child(i))
        ml = direction(MAML, task, w, alpha, prof.rho, EXACT, batches, RngStream(42).child(i))
        v = task_grad(task, w - alpha * task_grad(task, w))
        assert np.linalg.norm(hf - ml) <= np.linalg.norm(v) / 6.0 + 1e-12


def test_hfmaml_zero_probe_returns_zero():
    # Start at the task minimizer: the inner step stays put and the
    # outer gradient vanishes, so there is nothing to probe.
    t = make_quad_task(45)
    w_min = np.linalg.solve(t.A, -t.b)
    out = direction(HFMAML, t, w_min, 0.05, 1.0, EXACT, BatchSpec(), RngStream(0))
    assert np.linalg.norm(out) <= 1e-10


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_direction_replays_documented_streams(algorithm):
    # white box: each rule written out on one task with the noise of every
    # site drawn on its documented child stream, slot 0 of the step key, and
    # the scales spelled out
    task = MatrixFactorizationTask(np.array([0.9, -0.4, 0.3, 0.6]))
    d, alpha, rho, st, sH = 4, 0.05, 3.0, 0.7, 0.4
    batches = BatchSpec(D_in=2, D_o=3, D_h=5)
    rng = RngStream(80).child("step", 3)
    for k in range(10):
        w = 0.7 * np.random.default_rng(81 + k).normal(size=d)
        got = direction(algorithm, task, w, alpha, rho, StochasticOracle(st, sH), batches,
                        rng.child(k))
        slot = rng.child(k, "slot", 0)
        z_in = st / np.sqrt(d * 2) * standard_normals(slot.child("inner"), d)
        w_i = w - alpha * (task_grad(task, w) + z_in)
        v = task_grad(task, w_i) + st / np.sqrt(d * 3) * standard_normals(slot.child("outer"), d)
        want = v
        if algorithm == MAML:
            raw = standard_normals(slot.child("hess"), (d, d))
            kappa = sH * np.sqrt(2.0 / (5 * d * (d + 1)))
            want = v - alpha * ((task_hess(task, w) + kappa * 0.5 * (raw + raw.T)) @ v)
        if algorithm == HFMAML:
            delta = 1.0 / (6.0 * (rho * alpha * float(np.linalg.norm(v))))
            z = st / np.sqrt(d * 5) * standard_normals(slot.child("hvp"), d)
            gp, gm = task_grad(task, w + delta * v) + z, task_grad(task, w - delta * v) + z
            want = v - alpha * ((gp - gm) / (2.0 * delta))
        assert np.array_equal(got, want)


def test_hfmaml_below_probe_tolerance_returns_v():
    # at a planted solution the outer gradient is rounding noise below
    # ZERO_PROBE_TOL, and the direction is that gradient itself
    task = rank1_mf_family(1, 4, RngStream(82)).tasks[0]
    w, alpha = task.g, 0.05
    v = task_grad(task, w - alpha * task_grad(task, w))
    assert 0.0 < np.linalg.norm(v) <= 1e-12
    got = direction(HFMAML, task, w, alpha, 20.0, EXACT, BatchSpec(), RngStream(0))
    assert np.array_equal(got, v)


def test_hfmaml_equals_maml_on_quadratic_with_shared_streams():
    # sigma_H = 0 and shared gradient noise: both algorithms see the same
    # probe vector, and the finite difference reproduces A v exactly.
    t = make_quad_task(46)
    oracle = StochasticOracle(sigma_tilde=1.0, sigma_H=0.0)
    batches = BatchSpec(D_in=2, D_o=3, D_h=4)
    gen = np.random.default_rng(47)
    for i in range(5):
        w = gen.normal(size=t.dim)
        rng = RngStream(48).child(i)
        hf = direction(HFMAML, t, w, 0.04, 2.0, oracle, batches, rng)
        ml = direction(MAML, t, w, 0.04, 2.0, oracle, batches, rng)
        assert np.max(np.abs(hf - ml)) <= 1e-10


# ---------------------------------------------------------- exact oracles


def test_exact_grad_F_one_dimensional_example():
    fam = one_d_example_family()
    got = exact_grad_F(fam, np.array([0.0]), alpha=0.1)
    assert got[0] == pytest.approx(0.085, rel=1e-12)


def test_exact_grad_F_matches_weighted_per_task():
    fam = rank1_mf_family(4, 3, RngStream(50))
    w = np.random.default_rng(51).normal(size=3)
    alpha = 0.03
    want = sum(
        p * exact_grad_F(TaskFamily([t]), w, alpha)
        for p, t in zip(fam.weights, fam.tasks)
    )
    assert np.max(np.abs(exact_grad_F(fam, w, alpha) - want)) <= 1e-12


def test_exact_grad_F_is_gradient_of_value_F():
    # Central differences of the meta-objective, h = 1e-5.
    for fam in (
        rank1_mf_family(3, 4, RngStream(52)),
        TaskFamily([make_quad_task(53), make_quad_task(54)]),
    ):
        w = 0.3 * np.random.default_rng(55).normal(size=fam.dim)
        alpha = 0.04
        fd = np.zeros(fam.dim)
        h = 1e-5
        for j in range(fam.dim):
            e = np.zeros(fam.dim)
            e[j] = h
            fd[j] = (value_F(fam, w + e, alpha) - value_F(fam, w - e, alpha)) / (2.0 * h)
        assert np.max(np.abs(exact_grad_F(fam, w, alpha) - fd)) <= 1e-6


def test_exact_grad_F_alpha_zero_is_mean_gradient():
    fam = rank1_mf_family(5, 3, RngStream(56))
    w = np.random.default_rng(57).normal(size=3)
    assert np.allclose(exact_grad_F(fam, w, 0.0), fam.weights @ fam.grads(w), atol=1e-13)


# ----------------------------------------------------------- mc_grad_F_hat


@pytest.mark.parametrize("K", [1, 2, 7, numerics.BLOCK_ROWS])
@pytest.mark.parametrize("kind", ["rank1mf", "quadratic"])
def test_stacked_exact_sweep_is_per_point_bit_for_bit(kind, K):
    # the optimizer logs a block of iterates from one stacked outer stage
    # and Hessian stage, or from one stacked Hessian stage on outer stages
    # taken one iterate at a time: each row, its norm, its loss and (on
    # quadratics) its distances must be the floats of that iterate swept alone
    make = rank1_mf_family if kind == "rank1mf" else random_quadratic_family
    family, alpha = make(20, 5, RngStream(11)), 0.05
    rng = np.random.default_rng(K)
    W = rng.normal(size=(K, 5)) * rng.uniform(0.1, 2.0, size=(K, 1))
    grad_F = exact_grad_F(family, W, alpha)
    adapted, outer = outer_stage(family, W, alpha)
    per_point_outer = np.stack([outer_stage(family, w.copy(), alpha)[1] for w in W])
    assert np.array_equal(hessian_stage(family, W, alpha, outer), grad_F)
    assert np.array_equal(hessian_stage(family, W, alpha, per_point_outer), grad_F)
    loss = adapted_value(family, adapted)
    assert grad_F.shape == (K, 5) and adapted.shape == outer.shape == (K, 20, 5)
    assert loss.shape == (K,)
    norms = np.sqrt(row_dots(grad_F))
    fixed_points = []
    if kind == "quadratic":
        an = analyze_quadratic(family, alpha)
        points = np.stack([an.w_star, an.w_fo])  # one (2, K, d) stack, as run() takes it
        fixed_points = list(zip(points, np.sqrt(row_dots(W - points[:, None]))))
    for k in range(K):
        w = W[k].copy()
        # each stage at the point alone gives that point's rows of the stack
        g = exact_grad_F(family, w, alpha)
        u, o = outer_stage(family, w, alpha)
        assert np.array_equal(hessian_stage(family, w, alpha, o), g)
        assert np.array_equal(grad_F[k], g) and norms[k] == np.linalg.norm(g)
        assert np.array_equal(adapted[k], u) and np.array_equal(outer[k], o)
        assert loss[k] == value_F(family, w, alpha)
        for p, dist in fixed_points:
            assert dist[k] == np.linalg.norm(w - p)


def test_mc_grad_F_hat_zero_noise_equals_exact():
    fam = rank1_mf_family(4, 3, RngStream(60))
    w = np.random.default_rng(61).normal(size=3)
    for n_mc in (1, 7):
        draws = mc_grad_F_hat_draws(fam, w, 0.05, D_test=3, n_mc=n_mc, oracle=EXACT,
                                    rng=RngStream(0))
        got = draws.mean(axis=0)
        assert np.max(np.abs(got - exact_grad_F(fam, w, 0.05))) <= 1e-12


def test_mc_grad_F_hat_gap_within_surrogate_bound():
    # || grad F_hat - grad F || <= 2 a L s~ / sqrt(D) + a^2 L s_H s~ / D,
    # checked with Monte Carlo slack added on top.
    fam = rank1_mf_family(4, 4, RngStream(62), scale=0.8)
    prof = local_smoothness(fam, np.zeros(4), radius=2.0)
    alpha = 1.0 / (6.0 * prof.L)
    oracle = StochasticOracle(sigma_tilde=1.0, sigma_H=1.0)
    w = 0.4 * np.random.default_rng(63).normal(size=4)
    D = 4
    n_mc = 60_000
    draws = mc_grad_F_hat_draws(fam, w, alpha, D_test=D, n_mc=n_mc, oracle=oracle,
                                rng=RngStream(64))
    got = draws.mean(axis=0)
    gap = np.linalg.norm(got - exact_grad_F(fam, w, alpha))
    bound = (
        2.0 * alpha * prof.L * oracle.sigma_tilde / np.sqrt(D)
        + alpha**2 * prof.L * oracle.sigma_H * oracle.sigma_tilde / D
    )
    se_slack = 4.0 * oracle.sigma_tilde / np.sqrt(n_mc)  # loose per-draw spread proxy
    assert gap <= bound + se_slack


def test_mc_grad_F_hat_deterministic():
    fam = rank1_mf_family(3, 3, RngStream(65))
    w = np.zeros(3)
    oracle = StochasticOracle(sigma_tilde=0.7, sigma_H=0.3)
    a = mc_grad_F_hat_draws(fam, w, 0.05, 2, 500, oracle, RngStream(66)).mean(axis=0)
    b = mc_grad_F_hat_draws(fam, w, 0.05, 2, 500, oracle, RngStream(66)).mean(axis=0)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        mc_grad_F_hat_draws(fam, w, 0.05, 2, 0, oracle, RngStream(66))
    with pytest.raises(ValueError):
        mc_grad_F_hat_draws(fam, w, 0.05, 0, 5, oracle, RngStream(66))


@pytest.mark.parametrize("sigma_H", [0.6, 0.0])
def test_mc_direction_draws_replay_documented_streams(monkeypatch, sigma_H):
    # white box: rebuild every row of both integrands from the per-task
    # streams with the noise scales written out.  MAML's (the surrogate's)
    # reads ("task", i, "test_grad") and ("task", i, "test_hess"), and
    # sigma_H = 0 must add no Hessian term at all; FO-MAML's (the bias and
    # second-moment audits') reads ("task", i, "inner") and ("task", i,
    # "outer").  Each squared-norm integrand is rounded as einsum rounds it.
    # Both family kinds, drawn in one block, in 4-row blocks (3 windows of
    # which the last has one row) and in 3-row blocks; at d = 3 a 3-row
    # window holds 27 normals, so the first ends inside a Box-Muller pair
    # and the next opens on its second normal.
    alpha, D, D_o, n_mc, sigma_tilde = 0.05, 3, 2, 9, 0.8
    rng = RngStream(69)
    maml_sites = {INNER: ("test_grad", D, sigma_tilde), HESS: ("test_hess", D, sigma_H)}
    fo_sites = {INNER: ("inner", D, sigma_tilde), OUTER: ("outer", D_o, sigma_tilde)}
    for fam in (rank1_mf_family(3, 4, RngStream(67)), random_quadratic_family(3, 4, RngStream(67)),
                rank1_mf_family(2, 3, RngStream(70)), random_quadratic_family(2, 3, RngStream(5))):
        d = fam.dim
        w = 0.3 * np.random.default_rng(68).normal(size=d)
        want, want_fo = np.zeros((n_mc, d)), np.zeros((n_mc, d))
        want_sq, want_fo_sq = np.zeros(n_mc), np.zeros(n_mc)
        for i, task in enumerate(fam.tasks):
            p, s_in = fam.weights[i], sigma_tilde / np.sqrt(d * D)
            z = s_in * standard_normals(rng.child("task", i, "test_grad"), (n_mc, d))
            go = fam.task_grads(i, w - alpha * (task_grad(task, w) + z))
            corr = np.zeros((n_mc, d))
            if sigma_H > 0.0:
                raw = standard_normals(rng.child("task", i, "test_hess"), (n_mc, d, d))
                kappa = sigma_H * np.sqrt(2.0 / (D * d * (d + 1)))
                corr = np.einsum("mij,mj->mi", kappa * 0.5 * (raw + np.swapaxes(raw, 1, 2)), go)
            row = go - alpha * (go @ task_hess(task, w).T + corr)
            want += p * row
            want_sq += p * np.einsum("md,md->m", row, row)
            z_in = s_in * standard_normals(rng.child("task", i, "inner"), (n_mc, d))
            z_out = sigma_tilde / np.sqrt(d * D_o) * standard_normals(rng.child("task", i, "outer"),
                                                                      (n_mc, d))
            go = fam.task_grads(i, w - alpha * (task_grad(task, w) + z_in)) + z_out
            want_fo += p * go
            want_fo_sq += p * np.einsum("md,md->m", go, go)
        for block_rows in (numerics.BLOCK_ROWS, 4, 3):
            monkeypatch.setattr(numerics, "BLOCK_ROWS", block_rows)
            oracle = StochasticOracle(sigma_tilde, sigma_H)
            got = mc_grad_F_hat_draws(fam, w, alpha, D, n_mc, oracle, rng)
            assert np.array_equal(got, want), (fam.kind, d, block_rows)
            draws = mc_direction_draws(MAML, fam, w, alpha, n_mc, maml_sites, rng)
            sq = mc_direction_draws(MAML, fam, w, alpha, n_mc, maml_sites, rng, squares=True)
            assert np.array_equal(draws, want) and np.array_equal(sq, want_sq)
            draws = mc_direction_draws(FOMAML, fam, w, alpha, n_mc, fo_sites, rng)
            sq = mc_direction_draws(FOMAML, fam, w, alpha, n_mc, fo_sites, rng, squares=True)
            assert np.array_equal(draws, want_fo), (fam.kind, d, block_rows)
            assert np.array_equal(sq, want_fo_sq), (fam.kind, d, block_rows)


def test_mc_direction_draws_build_readers_only_for_noisy_sites(monkeypatch):
    # a NormalRows reader costs two Philox constructions, so a site that is
    # absent or at a zero noise level must build none: the surrogate at
    # sigma_tilde = 0 builds only its Hessian readers, one per task
    built = []
    init = numerics.NormalRows.__init__

    def counted(self, rng, shape):
        built.append(tuple(shape))
        init(self, rng, shape)

    monkeypatch.setattr(numerics.NormalRows, "__init__", counted)
    fam = rank1_mf_family(3, 4, RngStream(67))
    w = 0.3 * np.random.default_rng(68).normal(size=4)
    n, n_mc = fam.n_tasks, 5
    for (sigma_tilde, sigma_H), shapes in {(0.0, 0.6): [(n_mc, 4, 4)],
                                           (0.8, 0.0): [(n_mc, 4)],
                                           (0.8, 0.6): [(n_mc, 4), (n_mc, 4, 4)],
                                           (0.0, 0.0): []}.items():
        built.clear()
        mc_grad_F_hat_draws(fam, w, 0.05, 3, n_mc, StochasticOracle(sigma_tilde, sigma_H),
                            RngStream(1))
        assert built == shapes * n, (sigma_tilde, sigma_H)
    for sites, readers in (({}, 0), ({INNER: ("inner", 3, 0.0), OUTER: ("outer", 2, 0.0)}, 0),
                           ({OUTER: ("outer", 2, 0.8)}, n),
                           ({INNER: ("inner", 3, 0.8), OUTER: ("outer", 2, 0.8)}, 2 * n)):
        built.clear()
        mc_direction_draws(FOMAML, fam, w, 0.05, n_mc, sites, RngStream(1))
        assert built == [(n_mc, 4)] * readers, sites
    with pytest.raises(ValueError):  # HF-MAML has no Monte Carlo integrand here
        mc_direction_draws(HFMAML, fam, w, 0.05, n_mc, {}, RngStream(1))


# -------------------------------------------------------------- dispatch


def test_direction_dispatch_consistency():
    t = make_quad_task(70)
    w = np.random.default_rng(71).normal(size=t.dim)
    oracle = StochasticOracle(sigma_tilde=0.5, sigma_H=0.5)
    batches = BatchSpec(D_in=2, D_o=2, D_h=2)
    for algo in ALGORITHMS:
        rng = RngStream(72).child(algo)
        got = direction(algo, t, w, 0.04, 1.0, oracle, batches, rng)
        assert got.shape == w.shape
        again = direction(algo, t, w, 0.04, 1.0, oracle, batches, rng)
        assert np.array_equal(got, again)
    with pytest.raises(ValueError):
        direction("sgd", t, w, 0.04, 1.0, oracle, batches, RngStream(0))


def test_directions_share_inner_outer_noise_across_algorithms():
    # FO-MAML's direction is exactly MAML's probe vector v when both run
    # on the same stream; the batch alignment is what paired floor
    # comparisons rely on.
    t = make_quad_task(73)
    w = np.random.default_rng(74).normal(size=t.dim)
    oracle = StochasticOracle(sigma_tilde=1.0)
    batches = BatchSpec(D_in=2, D_o=2)
    rng = RngStream(75).child("slot")
    fo = direction(FOMAML, t, w, 0.04, 0.0, oracle, batches, rng)
    ml = direction(MAML, t, w, 0.04, 0.0, oracle, batches, rng)
    # With sigma_H = 0 the Hessian factor is exact: ml = (I - aA) fo.
    want = fo - 0.04 * (t.A @ fo)
    assert np.max(np.abs(ml - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
