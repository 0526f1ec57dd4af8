"""Meta-gradient estimators and exact oracles for the adapted objective.

The meta-objective treats one gradient step of task adaptation as part
of the loss: with inner stepsize alpha,

    F(w) = sum_i p_i f_i(w - alpha grad f_i(w)),

whose exact gradient is

    grad F(w) = sum_i p_i (I - alpha hess f_i(w)) grad f_i(w - alpha grad f_i(w)).

One estimator, ``slot_directions``, serves all three algorithms and
every slot of a step at once, as (B, d) stacks.  For each slot it takes
a noisy inner step w_i = w - alpha g~(w) and a noisy outer gradient
v = g~(w_i), then applies the algorithm's rule to v:

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

Slot j's noise is drawn on its own stream, so each row equals that slot
evaluated alone; ``direction`` is the one-slot case.  Everything here is
a pure function of its inputs and the RNG streams, so repeated
evaluation is reproducible and parallel evaluation is safe.
"""

from __future__ import annotations

import numpy as np

from .numerics import Mat, NormalRows, RngStream, Vec, row_blocks, row_dots
from .stochastic import (
    HESS,
    INNER,
    OUTER,
    PROBE,
    BatchSpec,
    StochasticOracle,
    Streams,
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
    family: TaskFamily, idx, W: Mat, V: Mat, delta: np.ndarray, D: int, sigma_tilde: float,
    rng: Streams,
) -> Mat:
    """Central-difference estimates of hess f_idx[j](W[j]) @ V[j] from two
    noisy gradients per row, row j with probe width delta[j].  W is one
    point per row, or one point (d,) shared by every row.

    Both probe gradients are evaluated on the same streams, i.e. the same
    data batch, so their additive noise is identical and cancels in the
    difference.  The surviving error is curvature-only: at most
    rho * delta * ||v||^2 for a Hessian with Lipschitz modulus rho.
    """
    if (delta <= 0.0).any():
        raise ValueError("delta must be positive")
    delta = delta[:, None]
    gp = noisy_grad(family, idx, W + delta * V, D, sigma_tilde, rng)
    gm = noisy_grad(family, idx, W - delta * V, D, sigma_tilde, rng)
    return (gp - gm) / (2.0 * delta)


def probe_norms(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """||v|| = sqrt(v . v), of one vector or of each row of a stack, and
    whether it exceeds ZERO_PROBE_TOL (at or below it there is nothing to
    probe along and the correction is zero).

    Each norm is rounded as np.linalg.norm rounds that row alone, so a
    stacked row's norm equals the norm of that vector on its own.
    """
    nv = np.sqrt(row_dots(v))
    return nv, nv > ZERO_PROBE_TOL


def probe_delta(rho: float, alpha: float, v_norm: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Probe width for the Hessian-free correction, per probe norm.

    1/(6 rho alpha ||v||) balances the curvature error against the size
    of the correction term.  When the calibration product vanishes (flat
    curvature, zero stepsize, or zero probe vector) fall back to a small
    width scaled to the iterate, 1e-3 (1 + ||w||); w is one iterate or
    one per row.
    """
    base = rho * alpha * np.asarray(v_norm, dtype=float)
    flat = base <= 0.0
    if not flat.any():
        return 1.0 / (6.0 * base)
    fallback = 1e-3 * (1.0 + np.sqrt(row_dots(w)))
    return np.where(flat, fallback, 1.0 / (6.0 * np.where(flat, 1.0, base)))


def slot_directions(
    algorithm: str, family: TaskFamily, idx, w: Vec, g: Mat, alpha: float, rho: float,
    oracle: StochasticOracle, batches: BatchSpec, streams: list[RngStream] | None,
) -> Mat:
    """Descent direction of each slot at w for the named algorithm (rules
    in the module docstring), shape (B, d).

    Slot j is task idx[j] (an index array, or a slice for every task in
    order) with task gradient g[j] at w, as family.grads(w)[idx] gives it.
    Each noise site of slot j draws once, on its own child of streams[j],
    so algorithms run on one stream share w_i and v bit for bit.  An
    exact oracle draws nothing and takes streams = None.  Every slot is
    probed; a slot whose ||v|| is at or below ZERO_PROBE_TOL discards its
    probe and returns v.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")

    def site(purpose):
        return None if streams is None else [s.child(purpose) for s in streams]

    w_i = w - alpha * grad_noise(g, batches.D_in, oracle.sigma_tilde, site(INNER))
    v = noisy_grad(family, idx, w_i, batches.D_o, oracle.sigma_tilde, site(OUTER))
    if algorithm == MAML:
        h = noisy_hess(family, idx, w, batches.D_h, oracle.sigma_H, site(HESS))
        return v - alpha * (h @ v[:, :, None])[..., 0]
    if algorithm == HFMAML:
        nv, probing = probe_norms(v)
        delta = probe_delta(rho, alpha, nv, w)
        hv = hvp_finite_diff(family, idx, w, v, delta, batches.D_h, oracle.sigma_tilde,
                             site(PROBE))
        return np.where(probing[:, None], v - alpha * hv, v)
    return v


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
    """One task's direction at w: slot_directions with one slot, its noise
    on rng's children."""
    family = TaskFamily([task])
    return slot_directions(algorithm, family, slice(None), w, family.grads(w), alpha, rho,
                           oracle, batches, [rng])[0]


# --------------------------------------------------------- exact oracles


def exact_sweep(
    family: TaskFamily, w: Vec, alpha: float, grads: np.ndarray
) -> tuple[Vec, Mat, Mat]:
    """Exact grad F(w), the adapted points U = w - alpha grads (row i is
    task i's) and the outer gradients grad f_i(U[i]), shape (n, d) each.

    grads are family.grads(w).  The outer gradients' weighted sum is the
    exact full-batch FO-MAML direction, and ``adapted_value`` reads F(w)
    off U, so a caller that needs several of these sweeps the tasks once.
    """
    adapted = w - alpha * grads
    go = family.grads_rowwise(adapted)
    h = family.hessians(w)  # (n, d, d)
    dirs = go - alpha * np.einsum("nij,nj->ni", h, go)
    return family.weights @ dirs, adapted, go


def adapted_value(family: TaskFamily, adapted: Mat) -> float:
    """F(w) = sum_i p_i f_i(U[i]) from exact_sweep's adapted points U."""
    return float(family.weights @ family.values_rowwise(adapted))


def exact_grad_F(
    family: TaskFamily, w: Vec, alpha: float, grads: np.ndarray | None = None
) -> Vec:
    """Exact meta-gradient, the weighted sum of per-task meta-gradients.

    grads, when given, are family.grads(w), already computed by the caller.
    """
    return exact_sweep(family, w, alpha, family.grads(w) if grads is None else grads)[0]


def value_F(
    family: TaskFamily, w: Vec, alpha: float, grads: np.ndarray | None = None
) -> float:
    """Exact meta-objective sum_i p_i f_i(w - alpha grad f_i(w)).

    grads, when given, are family.grads(w), already computed by the caller.
    """
    g = family.grads(w) if grads is None else grads
    return adapted_value(family, w - alpha * g)


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
    row dispersion yields its standard error.  The (n_mc, d, d) Hessian
    noise is read forward and contracted in windows of ``numerics.BLOCK_ROWS``
    rows, each equal bit for bit to those rows of the whole draw, so
    memory is O(n_mc * d + BLOCK_ROWS * d^2).  The (n_mc, d) products
    stay whole: BLAS may round a row differently by where it falls in a
    call, while the einsum contraction rounds each row alone.

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
    tasks = zip(family.weights, family.grads(w), family.hessians(w))
    for i, (p, g, h) in enumerate(tasks):
        g = np.broadcast_to(g, (n_mc, d))
        g_in = grad_noise(g, D_test, oracle.sigma_tilde, rng.child("task", i, "test_grad"))
        go = family.task_grads(i, w - alpha * g_in)  # exact outer gradient, (n_mc, d)
        corr = go @ h.T
        hess_rows = NormalRows(rng.child("task", i, "test_hess"), (n_mc, d, d))
        for r0, r1 in row_blocks(n_mc):
            e = hess_noise((r1 - r0, d, d), D_test, oracle.sigma_H, hess_rows)
            corr[r0:r1] += np.einsum("mij,mj->mi", e, go[r0:r1])
        draws += p * (go - alpha * corr)
    return draws
