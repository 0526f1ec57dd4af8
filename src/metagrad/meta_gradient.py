"""Meta-gradient estimators and exact oracles for the adapted objective.

The meta-objective treats one gradient step of task adaptation as part
of the loss: with inner stepsize alpha,

    F(w) = sum_i p_i f_i(w - alpha grad f_i(w)),

whose exact gradient is

    grad F(w) = sum_i p_i (I - alpha hess f_i(w)) grad f_i(w - alpha grad f_i(w)).

One per-task estimator, ``direction``, serves all three algorithms.
It takes a noisy inner step w_i = w - alpha g~(w) and a noisy outer
gradient v = g~(w_i), then applies the algorithm's rule to v:

  * MAML       returns (I - alpha H~(w)) v with a noisy Hessian H~,
  * FO-MAML    returns v itself, the Hessian factor dropped,
  * HF-MAML    returns v - alpha d, where d estimates H v by a central
               finite difference of two noisy gradients that share one
               data batch.

Sharing the batch means the additive noise cancels in the difference,
so on quadratics the probe reproduces A v exactly for any probe width.
The probe width delta = 1/(6 rho alpha ||v||) calibrates the remaining
curvature error to at most ||v|| / (6 alpha) times alpha, i.e. a sixth
of the correction term's scale.

Everything here is a pure function of its inputs and the RNG stream, so
repeated evaluation is reproducible and parallel evaluation is safe.
"""

from __future__ import annotations

import numpy as np

from .numerics import Mat, RngStream, Vec, row_dots
from .stochastic import (
    HESS,
    INNER,
    OUTER,
    PROBE,
    BatchSpec,
    StochasticOracle,
    grad_noise,
    hess_noise,
    noisy_grad,
    noisy_hess,
)
from .tasks import TaskFamily

MAML = "maml"
FOMAML = "fomaml"
HFMAML = "hfmaml"
ALGORITHMS = (MAML, FOMAML, HFMAML)

ZERO_PROBE_TOL = 1e-12


def hvp_finite_diff(
    task, w: Vec, v: Vec, delta: float, D: int, oracle: StochasticOracle, rng: RngStream
) -> Vec:
    """Central-difference estimate of hess f(w) @ v from two noisy gradients.

    Both probe gradients are evaluated on the same stream, i.e. the same
    data batch, so their additive noise is identical and cancels in the
    difference.  The surviving error is curvature-only: at most
    rho * delta * ||v||^2 for a Hessian with Lipschitz modulus rho.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    probe = rng.child(PROBE)
    gp = noisy_grad(task, w + delta * v, D, oracle.sigma_tilde, probe)
    gm = noisy_grad(task, w - delta * v, D, oracle.sigma_tilde, probe)
    return (gp - gm) / (2.0 * delta)


def probe_norms(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """||v|| = sqrt(v . v), of one vector or of each row of a stack, and
    whether it exceeds ZERO_PROBE_TOL (at or below it there is nothing to
    probe along and the correction is zero).

    Each norm is rounded as np.linalg.norm rounds that row alone, so the
    per-task and the stacked exact HF-MAML sweeps agree bit for bit.
    """
    nv = np.sqrt(row_dots(v))
    return nv, nv > ZERO_PROBE_TOL


def probe_delta(rho: float, alpha: float, v_norm: float, w: Vec) -> float:
    """Probe width for the Hessian-free correction.

    1/(6 rho alpha ||v||) balances the curvature error against the size
    of the correction term.  When the calibration product vanishes (flat
    curvature, zero stepsize, or zero probe vector) fall back to a small
    width scaled to the current iterate.
    """
    base = rho * alpha * v_norm
    if base <= 0.0:
        return 1e-3 * (1.0 + float(np.linalg.norm(w)))
    return 1.0 / (6.0 * base)


def direction(
    algorithm: str,
    task,
    w: Vec,
    alpha: float,
    rho: float,
    oracle: StochasticOracle,
    batches: BatchSpec,
    rng: RngStream,
) -> Vec:
    """Per-task descent direction for the named algorithm (rules in the
    module docstring).  Each noise site draws once, on its own child of
    rng, so algorithms run on one stream share w_i and v bit for bit."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    w_i = w - alpha * noisy_grad(task, w, batches.D_in, oracle.sigma_tilde, rng.child(INNER))
    v = noisy_grad(task, w_i, batches.D_o, oracle.sigma_tilde, rng.child(OUTER))
    if algorithm == MAML:
        h = noisy_hess(task, w, batches.D_h, oracle.sigma_H, rng.child(HESS))
        return v - alpha * (h @ v)
    if algorithm == HFMAML:
        nv, probing = probe_norms(v)
        if probing:  # else there is nothing to probe along and the correction is zero
            delta = probe_delta(rho, alpha, nv, w)
            return v - alpha * hvp_finite_diff(task, w, v, delta, batches.D_h, oracle, rng)
    return v


# --------------------------------------------------------- exact oracles


def exact_grad_F(
    family: TaskFamily, w: Vec, alpha: float, grads: np.ndarray | None = None
) -> Vec:
    """Exact meta-gradient, the weighted sum of per-task meta-gradients.

    grads, when given, are family.grads(w), already computed by the caller.
    """
    g = family.grads(w) if grads is None else grads  # (n, d)
    go = family.grads_rowwise(w - alpha * g)  # (n, d)
    h = family.hessians(w)  # (n, d, d)
    dirs = go - alpha * np.einsum("nij,nj->ni", h, go)
    return family.weights @ dirs


def value_F(
    family: TaskFamily, w: Vec, alpha: float, grads: np.ndarray | None = None
) -> float:
    """Exact meta-objective sum_i p_i f_i(w - alpha grad f_i(w)).

    grads, when given, are family.grads(w), already computed by the caller.
    """
    g = family.grads(w) if grads is None else grads
    return float(family.weights @ family.values_rowwise(w - alpha * g))


def mc_grad_F_hat_draws(
    family: TaskFamily,
    w: Vec,
    alpha: float,
    D_test: int,
    n_mc: int,
    oracle: StochasticOracle,
    rng: RngStream,
) -> Mat:
    """Per-draw realizations of the evaluation-time surrogate gradient.

    Row m is the weighted task sweep under the m-th independent noise
    realization; the mean over rows is the Monte Carlo estimate and the
    row dispersion yields its standard error.  Memory grows as
    n_mc * d^2; intended for desk-scale dimensions.

    The surrogate replaces the exact inner step and Hessian with
    batch-D_test noisy versions while keeping the outer gradient exact:

        grad F_hat(w) = E [ (I - alpha H_tilde(w)) grad f_i(w - alpha g_tilde(w)) ].

    The expectation over tasks is a finite weighted sum and is computed
    exactly; only the data noise is sampled.  A noiseless oracle has no
    noise to sample, so every row is exact_grad_F itself.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    if D_test < 1:
        raise ValueError("D_test must be >= 1")
    if oracle.exact:
        return np.tile(exact_grad_F(family, w, alpha), (n_mc, 1))
    d = family.dim
    draws = np.zeros((n_mc, d))
    for i, task in enumerate(family.tasks):
        g = np.broadcast_to(task.grad(w), (n_mc, d))
        g_in = grad_noise(g, D_test, oracle.sigma_tilde, rng.child("task", i, "test_grad"))
        go = task.grad_many(w - alpha * g_in)  # exact outer gradient, (n_mc, d)
        e = hess_noise((n_mc, d, d), D_test, oracle.sigma_H, rng.child("task", i, "test_hess"))
        dirs = go - alpha * (go @ task.hess(w).T + np.einsum("mij,mj->mi", e, go))
        draws += family.weights[i] * dirs
    return draws
