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
               finite difference of two gradients on one data batch.

That batch's noise does not depend on the point and cancels in exact
arithmetic, so the probe draws none and, on quadratics, reproduces A v
for any probe width.
The probe width delta = 1/(6 rho alpha ||v||) calibrates the remaining
curvature error to at most ||v|| / (6 alpha) times alpha, i.e. a sixth
of the correction term's scale.

``slot_sites`` names the sites of a step's slot draws under its key,
("slot", j, site), for ``numerics.keyed_uniforms``, and ``slot_noise``
turns each site's rows into normals (``numerics.box_muller_rows``) and
the normals into noise by the site's law, so a slot's noise is the same
floats in any block.  HF-MAML draws FO-MAML's sites, MAML adds its Hessian's.
``slot_directions`` adds the noise it is given with ``noisy``;
``direction`` is slot 0 of the step on its key.
The audits' one Monte Carlo sampler, ``mc_direction_draws``, draws n_mc
rows per task, each site's normals from a ``numerics.NormalRows`` reader
on a per-task stream: FO-MAML's direction for the bias audit and its
squared norms for the second-moment audit, MAML's direction with an
exact outer gradient for the surrogate (``mc_grad_F_hat_draws``).
``exact_grad_F`` composes the exact sweep's two stages, ``outer_stage``
and ``hessian_stage``.  Everything here is a pure function of its inputs
and the keys, so repeated evaluation is reproducible and parallel
evaluation is safe.
"""

from __future__ import annotations

import numpy as np

from .numerics import (Mat, NormalRows, RngStream, Vec, box_muller_rows, indexed_labels,
                       keyed_uniforms, normal_words, row_blocks)
from .stochastic import (
    HESS,
    INNER,
    OUTER,
    BatchSpec,
    StochasticOracle,
    grad_noise,
    hess_noise,
    noisy,
)
from .tasks import TaskFamily

MAML = "maml"
FOMAML = "fomaml"
HFMAML = "hfmaml"
ALGORITHMS = (MAML, FOMAML, HFMAML)

ZERO_PROBE_TOL = 1e-12
PROBE_SIGNS = np.array([1.0, -1.0])[:, None, None]  # the two probe points of each row


def hvp_finite_diff(family: TaskFamily, idx, W: Mat, V: Mat, delta: np.ndarray) -> Mat:
    """Central-difference estimates of hess f_idx[j](W[j]) @ V[j] from two
    gradients per row, row j with probe width delta[j].  W is one point per
    row, or one point (d,) shared by every row.

    Both probe gradients of a row share its batch, whose noise cancels in
    the difference, so they are taken exact; the error is curvature-only,
    at most rho * delta * ||v||^2 for a Hessian with Lipschitz modulus rho.
    Both are taken in one (2, B, d) gradient call at W + s delta V, s = +-1;
    negation is exact, so each row is the float of W +- delta V.
    """
    if (delta <= 0.0).any():
        raise ValueError("delta must be positive")
    delta = delta[:, None]
    g = family.grads(W + PROBE_SIGNS * (delta * V), idx)
    return (g[0] - g[1]) / (2.0 * delta)


def probe_delta(rho: float, alpha: float, v_norm: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Probe width for the Hessian-free correction, per probe norm.

    1/(6 rho alpha ||v||) balances the curvature error against the size
    of the correction term.  When the calibration product vanishes (flat
    curvature, zero stepsize, or zero probe vector) fall back to a small
    width scaled to the iterate, 1e-3 (1 + ||w||); w is one iterate or
    one per row.  A product past the float range has no width in floats:
    its width is NaN, so the probe and the step it enters are not finite.
    """
    base = rho * alpha * np.asarray(v_norm, dtype=float)
    flat = base <= 0.0
    if flat.any():
        fallback = 1e-3 * (1.0 + np.sqrt(np.vecdot(w, w)))
        delta = np.where(flat, fallback, 1.0 / (6.0 * np.where(flat, 1.0, base)))
    else:
        delta = 1.0 / (6.0 * base)
    return delta if delta.all() else np.where(delta == 0.0, np.nan, delta)  # 1 / inf is 0


def slot_sites(algorithm: str, d: int, oracle: StochasticOracle, slots: int) -> dict:
    """Site label -> (suffixes, words) of the draws slot_noise reads, named
    under a step key: slot j's on ("slot", j, site).  A zero noise level
    draws nothing."""
    sites = [(INNER, d), (OUTER, d)] if oracle.sigma_tilde != 0.0 else []  # (purpose, normals)
    if algorithm == MAML and oracle.sigma_H != 0.0:
        sites.append((HESS, d * d))
    return {purpose: (indexed_labels(("slot",), slots, purpose), normal_words(size))
            for purpose, size in sites}


def slot_noise(d: int, oracle: StochasticOracle, batches: BatchSpec, rows: dict) -> dict:
    """Site label -> noise of each slot site drawn in rows (keyed_uniforms'
    rows of slot_sites, among others), a row per slot: one Box-Muller pass
    of a site's rows into its normals, then the site's noise law."""
    budgets = {INNER: batches.D_in, OUTER: batches.D_o}
    noise = {site: grad_noise(box_muller_rows(rows[site], d), D, oracle.sigma_tilde)
             for site, D in budgets.items() if site in rows}
    if HESS in rows:
        noise[HESS] = hess_noise(box_muller_rows(rows[HESS], (d, d)), batches.D_h, oracle.sigma_H)
    return noise


def slot_directions(
    algorithm: str, family: TaskFamily, idx, w: Vec, alpha: float, rho: float, noise: dict,
) -> Mat:
    """Descent direction of each slot at w for the named algorithm (rules
    in the module docstring), shape (B, d).

    Slot j is task idx[j] (an index array, or a slice for every task in
    order) and row j of each site of a ``slot_noise`` (a site it lacks adds
    no noise), so algorithms run on the same keys share w_i and v bit for
    bit.  Every slot is probed; a slot whose ||v|| is at or below
    ZERO_PROBE_TOL discards its probe and returns v.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    w_i = w - alpha * noisy(family.grads(w, idx), noise.get(INNER))
    v = noisy(family.grads(w_i, idx), noise.get(OUTER))
    if algorithm == MAML:
        h = noisy(family.hessians(w, idx), noise.get(HESS))
        return v - alpha * np.matvec(h, v)
    if algorithm == HFMAML:
        nv = np.sqrt(np.vecdot(v, v))  # each row's norm rounds as np.linalg.norm of it alone
        hv = hvp_finite_diff(family, idx, w, v, probe_delta(rho, alpha, nv, w))
        step, probed = v - alpha * hv, nv > ZERO_PROBE_TOL
        return step if probed.all() else np.where(probed[:, None], step, v)
    return v


def direction(algorithm: str, task, w: Vec, alpha: float, rho: float, oracle: StochasticOracle,
              batches: BatchSpec, rng: RngStream | bytes) -> Vec:
    """One task's direction at w: slot 0 of the step whose key is rng, its
    noise drawn on the slot sites as run() draws that step's."""
    family = TaskFamily([task])
    rows = keyed_uniforms([rng], slot_sites(algorithm, family.dim, oracle, 1))
    noise = slot_noise(family.dim, oracle, batches, rows)
    return slot_directions(algorithm, family, slice(None), w, alpha, rho, noise)[0]


# --------------------------------------------------------- exact oracles


def outer_stage(family: TaskFamily, W: np.ndarray, alpha: float) -> tuple[Mat, Mat]:
    """The first stage of the exact sweep at one point W (d,) or at each row
    of a stack (K, d): the adapted points U = w - alpha grad f_i(w) (row i
    is task i's) and the outer gradients grad f_i(U[i]), (..., n, d) each.

    The outer gradients' weighted sum is the exact full-batch FO-MAML
    direction, and ``adapted_value`` reads F off U; neither needs a Hessian.
    One point is swept as itself, not as a (1, d) stack: each point of a
    stack is the float that point alone gives, since ``np.vecdot`` and
    ``np.matvec`` round a vector as they round a stacked row.
    """
    X = W if W.ndim == 1 else W[:, None, :]  # each point against every task
    adapted = X - alpha * family.grads(X)
    return adapted, family.grads_rowwise(adapted)


def hessian_stage(family: TaskFamily, W: np.ndarray, alpha: float,
                  outer: np.ndarray) -> np.ndarray:
    """The second stage of the exact sweep: grad F (..., d) at W (d,) or at
    each row of a stack (K, d), from outer_stage's outer gradients there.

    One point is swept as itself, as in outer_stage.  Each point of a stack
    is the float that point alone gives, so a caller may sweep a stack of
    points whose outer stages it took one at a time.  Memory is O(K n d^2):
    the Hessians of every task at every point are built at once.
    """
    h = family.hessians(W if W.ndim == 1 else W[:, None, :])  # (..., n, d, d)
    dirs = outer - alpha * np.einsum("...ij,...j->...i", h, outer)
    return np.matmul(family.weights, dirs)


def adapted_value(family: TaskFamily, adapted: np.ndarray) -> np.ndarray:
    """F = sum_i p_i f_i(U[..., i, :]) from outer_stage's adapted points U,
    shape (...): np.vecdot rounds each sweep as the dot product of that
    sweep alone."""
    return np.vecdot(family.values_rowwise(adapted), family.weights)


def exact_grad_F(family: TaskFamily, w: Vec, alpha: float) -> Vec:
    """Exact meta-gradient, the weighted sum of per-task meta-gradients, at
    one point or at each row of a stack: the outer, then the Hessian stage."""
    return hessian_stage(family, w, alpha, outer_stage(family, w, alpha)[1])


def value_F(family: TaskFamily, w: Vec, alpha: float) -> float:
    """Exact meta-objective sum_i p_i f_i(w - alpha grad f_i(w))."""
    return float(adapted_value(family, w - alpha * family.grads(w)))


def mc_direction_draws(algorithm: str, family: TaskFamily, w: Vec, alpha: float, n_mc: int,
                       sites: dict, rng: RngStream, squares: bool = False) -> np.ndarray:
    """n_mc Monte Carlo draws at w of the task-weighted FO-MAML or MAML
    direction, (n_mc, d), or with squares of its weighted per-task squared
    norms, (n_mc,): only the integrand the caller reads is summed.

    Task i's rows take noisy inner steps u = w - alpha (grad f_i(w) + z) and
    the outer gradients grad f_i(u) + z_o in one ``task_grads`` product;
    MAML applies (I - alpha (H_i(w) + E)) to them.  sites maps INNER, OUTER
    and HESS to (label, D, level): the batch-D noise law at that level,
    drawn on rng.child("task", i, label).  A site that is absent or at a
    zero level adds no noise and builds no reader.  With no inner noise u
    is one broadcast row, so every row is the float of the n_mc = 1 draw.
    E is read in windows of ``numerics.BLOCK_ROWS`` rows, each equal bit for
    bit to those rows of the whole draw, so memory is O(n_mc * d +
    BLOCK_ROWS * d^2).  The (n_mc, d) products stay whole: BLAS may round a
    row differently by where it falls in a call.
    """
    if algorithm not in (MAML, FOMAML):
        raise ValueError(f"no Monte Carlo sampler for {algorithm!r}")
    d = family.dim
    acc = np.zeros(n_mc if squares else (n_mc, d))
    hessians = family.hessians(w) if algorithm == MAML else [None] * family.n_tasks
    for i, (p, g, h) in enumerate(zip(family.weights, family.grads(w), hessians)):
        readers = {site: NormalRows(rng.child("task", i, label),
                                    (n_mc, d, d) if site == HESS else (n_mc, d))
                   for site, (label, _, level) in sites.items() if level > 0.0}

        def draw(site, law, k=n_mc):  # the site's noise on its next k rows; None if it has none
            return law(readers[site].take(k), *sites[site][1:]) if site in readers else None

        z = draw(INNER, grad_noise)
        u = np.broadcast_to(w - alpha * g, (n_mc, d)) if z is None else w - alpha * (g + z)
        go = family.task_grads(i, u)
        del z, u  # freed before the outer noise is drawn, which sets the heap peak
        go = noisy(go, draw(OUTER, grad_noise))
        if algorithm == MAML:
            corr = go @ h.T
            if HESS in readers:
                for r0, r1 in row_blocks(n_mc):
                    e = draw(HESS, hess_noise, r1 - r0)
                    corr[r0:r1] += np.einsum("mij,mj->mi", e, go[r0:r1])
            go = go - alpha * corr
        acc += p * (np.einsum("md,md->m", go, go) if squares else go)
    return acc


def mc_grad_F_hat_draws(family: TaskFamily, w: Vec, alpha: float, D_test: int, n_mc: int,
                        oracle: StochasticOracle, rng: RngStream) -> Mat:
    """Per-draw realizations of the evaluation-time surrogate gradient,
    which replaces the exact inner step and Hessian with batch-D_test noisy
    versions while keeping the outer gradient exact:

        grad F_hat(w) = E [ (I - alpha H_tilde(w)) grad f_i(w - alpha g_tilde(w)) ].

    Row m is the weighted task sum under the m-th noise realization, one of
    ``mc_direction_draws``' MAML rows with inner noise on the "test_grad"
    stream, Hessian noise on "test_hess" and no outer noise: the mean over
    rows is the Monte Carlo estimate and their dispersion its standard
    error.  A noiseless oracle has no noise to sample, so every row is
    exact_grad_F itself.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    if D_test < 1:
        raise ValueError("D_test must be >= 1")
    if oracle.exact:
        return np.tile(exact_grad_F(family, w, alpha), (n_mc, 1))
    sites = {INNER: ("test_grad", D_test, oracle.sigma_tilde),
             HESS: ("test_hess", D_test, oracle.sigma_H)}
    return mc_direction_draws(MAML, family, w, alpha, n_mc, sites, rng)
