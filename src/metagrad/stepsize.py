"""State-dependent smoothness estimates and the adaptive stepsize rule.

The meta-objective's gradient Lipschitz modulus grows with the local
task-gradient scale:

    L(w) = 4 L + 2 rho alpha E_i ||grad f_i(w)||.

The adaptive rule estimates this from B' sampled tasks with batch-D_beta
noisy gradients,

    L_tilde(w) = 4 L + (2 rho alpha / B') sum_j ||g_tilde_j(w)||,

and steps with a fixed fraction of beta_tilde(w) = 1 / L_tilde(w).  The
estimate's moments are controlled only when the batches are large enough
to tame gradient dispersion and noise:

    B'     >= ceil(0.5 (rho alpha sigma / L)^2),
    D_beta >= ceil((2 rho alpha sigma_tilde / L)^2),

under which E[beta_tilde] >= 0.8 / L(w) and
E[beta_tilde^2] <= 3.125 / L(w)^2.  ``check_stepsize_batches`` raises
when either inequality fails, or when L, rho or sigma is not finite; the
samplers and the optimizer's config validation all go through it.
``stepsize_sites`` names a step's sample under its key, (STEPSIZE, TASKS)
and (STEPSIZE, STEPSIZE, j), for ``numerics.keyed_uniforms``, and
``stepsize_draws`` turns the rows into tasks and noise; ``beta_tilde`` is
the sample of the step on its key, as the optimizer draws it.  Every
sampler takes task-gradient norms through ``_grad_norms``, so a norm whose square
overflows stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBatchConfig, NumericalFailure
from .numerics import (NormalRows, RngStream, Vec, box_muller_rows, indexed_labels, keyed_uniforms,
                       normal_words, path_key, row_blocks, task_order_sum)
from .stochastic import STEPSIZE, TASKS, grad_noise, noisy, sample_task_batch
from .tasks import SmoothnessProfile, TaskFamily

# Fractions of beta_tilde each algorithm may take per iteration, and the
# inner-stepsize caps (alpha * L at most this) its guarantee assumes.
ADAPTIVE_FRACTIONS = {"maml": 1.0 / 12.0, "fomaml": 1.0 / 18.0, "hfmaml": 1.0 / 25.0}
ALPHA_CAPS = {"maml": 1.0 / 6.0, "fomaml": 1.0 / 10.0, "hfmaml": 1.0 / 6.0}
# A step's stepsize sites, each its labels under the step key.
BETA_TASKS, BETA_NOISE = (STEPSIZE, TASKS), (STEPSIZE, STEPSIZE)


def _ceil(x: float) -> int | float:
    """Ceiling with protection against float-representation overshoot; inf,
    which no batch meets, for inf.  The batch requirements below square by
    multiplication, so a square past the float range is inf (** raises)."""
    return x if x == math.inf else max(0, math.ceil(x - 1e-9 * max(1.0, abs(x))))


@dataclass(frozen=True)
class StepsizeRule:
    """Either a constant stepsize or a fraction of the adaptive estimate.

    kind "constant" uses beta as-is every iteration.  kind "adaptive"
    resamples beta_tilde(w_k) each iteration and multiplies by fraction;
    a None fraction means the algorithm's own default from
    ADAPTIVE_FRACTIONS.
    """

    kind: str = "adaptive"
    beta: float | None = None
    fraction: float | None = None

    def __post_init__(self):
        for name in ("beta", "fraction"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"stepsize {name} must be finite, got {value!r}")
        if self.kind not in ("constant", "adaptive"):
            raise ValueError(f"unknown stepsize kind {self.kind!r}")
        if self.kind == "constant":
            if self.beta is None or self.beta <= 0.0:
                raise ValueError("constant rule needs beta > 0")
        elif self.fraction is not None and self.fraction <= 0.0:
            raise ValueError("fraction must be positive")

    def resolve_fraction(self, algorithm: str) -> float:
        if self.fraction is not None:
            return self.fraction
        return ADAPTIVE_FRACTIONS[algorithm]


def _grad_norms(g: np.ndarray, dots: bool = False) -> np.ndarray:
    """||x|| of each row x of g along the last axis: np.sqrt(np.vecdot(g, g))
    with dots, else np.linalg.norm's float.  A row of finite entries whose
    squares overflow has norm max|x| ||x / max|x|||, so a norm is inf only
    past the float range; every other row keeps its float."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.vecdot(g, g)) if dots else np.linalg.norm(g, axis=-1)
    big = np.isinf(norms)
    if big.any():  # the rows of finite entries among them
        big &= np.isfinite(g).all(axis=-1)
        top = np.abs(g[big]).max(axis=-1)
        norms[big] = top * np.linalg.norm(g[big] / top[:, None], axis=-1)
    return norms


def smoothness_L_of_w(family: TaskFamily, profile: SmoothnessProfile, W: np.ndarray, alpha: float):
    """Exact modulus 4L + 2 rho alpha E_i ||grad f_i(w)||: a float at one point W (d,), one per
    row of a stack (K, d), each the float of that point alone; inf only past the float range."""
    norms = _grad_norms(family.grads(W[..., None, :]))  # (..., n)
    mean = np.vecdot(norms, family.weights)
    return 4.0 * profile.L + 2.0 * profile.rho * alpha * (float(mean) if W.ndim == 1 else mean)


def required_B_prime(profile: SmoothnessProfile, alpha: float) -> int | float:
    r = profile.rho * alpha * profile.sigma / profile.L
    return max(1, _ceil(0.5 * (r * r)))


def required_D_beta(profile: SmoothnessProfile, alpha: float) -> int | float:
    r = 2.0 * profile.rho * alpha * profile.sigma_tilde / profile.L
    return max(1, _ceil(r * r))


def required_D_h(profile: SmoothnessProfile, alpha: float,
                 algorithm: str) -> tuple[int | float, str]:
    """Hessian-side batch the guarantees assume, with the rule it comes from.

    The probe-based variant needs ceil(36 (alpha rho sigma_tilde)^2)
    probe gradients; MAML, which draws a noisy Hessian, needs
    ceil(2 alpha^2 sigma_H^2) draws, alpha sigma_H being taken first so
    that sigma_H = 0 needs one draw at any finite alpha.  FO-MAML drops the
    Hessian factor and needs any batch.  Under the additive noise law no
    HF-MAML draw reads D_h (its probe's noise cancels and is not drawn), so
    the probe rule guards a batch that nothing draws.
    """
    if algorithm not in ADAPTIVE_FRACTIONS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == "fomaml":
        return 1, "1"
    if algorithm == "hfmaml":
        r = alpha * profile.rho * profile.sigma_tilde
        return max(1, _ceil(36.0 * (r * r))), "ceil(36*(alpha*rho*sigma_tilde)^2)"
    r = alpha * profile.sigma_H
    return max(1, _ceil(2.0 * (r * r))), "ceil(2*alpha^2*sigma_H^2)"


def check_stepsize_batches(
    profile: SmoothnessProfile, alpha: float, B_prime: int, D_beta: int
) -> None:
    """Raise InvalidBatchConfig unless B' and D_beta control the moments,
    and NumericalFailure if L, rho or sigma is not finite."""
    if not all(map(math.isfinite, (profile.L, profile.rho, profile.sigma))):
        raise NumericalFailure(f"smoothness constants L={profile.L:.3g}, rho={profile.rho:.3g}, "
                               f"sigma={profile.sigma:.3g} are not all finite; lower trust_radius")
    need_bp = required_B_prime(profile, alpha)
    if B_prime < need_bp:
        raise InvalidBatchConfig(
            f"B_prime={B_prime} < ceil(0.5*(rho*alpha*sigma/L)^2)={need_bp}"
        )
    need_db = required_D_beta(profile, alpha)
    if D_beta < need_db:
        raise InvalidBatchConfig(
            f"D_beta={D_beta} < ceil((2*rho*alpha*sigma_tilde/L)^2)={need_db}"
        )


def beta_tilde(family: TaskFamily, profile: SmoothnessProfile, w: Vec, alpha: float,
               B_prime: int, D_beta: int, rng: RngStream | bytes) -> float:
    """One sample of the adaptive stepsize beta_tilde(w) = 1 / L_tilde(w):
    that of the step whose key is rng, drawn on the stepsize sites as run()
    draws that step's.

    Raises InvalidBatchConfig when the batch sizes cannot control the
    estimate's moments.  With rho = 0 (or alpha = 0) the dispersion term
    vanishes and the sample is deterministically 1 / (4L): no randomness
    is consumed, which keeps exact-oracle runs free of RNG cost.
    """
    check_stepsize_batches(profile, alpha, B_prime, D_beta)
    rows = keyed_uniforms([rng], stepsize_sites(profile, alpha, B_prime, family.dim))
    draw = stepsize_draws(family, profile, B_prime, D_beta, 1, rows)[0]
    return beta_sample(family, profile, w, alpha, draw)


def stepsize_sites(profile: SmoothnessProfile, alpha: float, B_prime: int, d: int) -> dict:
    """Label -> (suffixes, words) of a step's stepsize sample, named under
    the step key: B' task uniforms on BETA_TASKS and, at a nonzero
    sigma_tilde, slot j's noise on BETA_NOISE + (j,).  Nothing when
    rho alpha = 0."""
    if 2.0 * profile.rho * alpha == 0.0:
        return {}
    sites = {BETA_TASKS: ((path_key(b"", *BETA_TASKS),), B_prime)}
    if profile.sigma_tilde != 0.0:
        sites[BETA_NOISE] = (indexed_labels(BETA_NOISE, B_prime), normal_words(d))
    return sites


def stepsize_draws(family: TaskFamily, profile: SmoothnessProfile, B_prime: int, D_beta: int,
                   n: int, rows: dict) -> list:
    """(tasks, noise) of each of n samples from the rows drawn on
    stepsize_sites; None per sample where they name nothing."""
    if BETA_TASKS not in rows:
        return [None] * n
    idx = sample_task_batch(family, rows[BETA_TASKS])
    z = box_muller_rows(rows[BETA_NOISE], family.dim) if BETA_NOISE in rows else None
    noise = grad_noise(z, D_beta, profile.sigma_tilde)
    return list(zip(idx, [None] * n if noise is None else noise.reshape(n, B_prime, -1)))


def beta_sample(family: TaskFamily, profile: SmoothnessProfile, w: Vec, alpha: float,
                draw) -> float:
    """beta_tilde(w) from one entry of stepsize_draws (1 / (4L) for None)."""
    if draw is None:
        return 1.0 / (4.0 * profile.L)
    idx, noise = draw
    g = noisy(family.grads(w, idx), noise)
    # each norm as np.linalg.norm rounds it alone, added from zero in slot order
    acc = float(task_order_sum(_grad_norms(g, dots=True)))
    return 1.0 / (4.0 * profile.L + 2.0 * profile.rho * alpha * acc / len(idx))


def sample_beta_tilde(
    family: TaskFamily,
    profile: SmoothnessProfile,
    w: Vec,
    alpha: float,
    B_prime: int,
    D_beta: int,
    n: int,
    rng: RngStream,
) -> np.ndarray:
    """n independent draws of beta_tilde(w), vectorized for audits.

    Distribution-identical to n calls of ``beta_tilde`` (same inverse-CDF
    task sampling, same noise law), batched so moment audits with 1e5
    samples stay fast.  Draw r's tasks are row r of an (n, B') uniform
    draw on the TASKS stream and its noise row r of an (n, B', d) normal
    draw on the STEPSIZE stream (none at sigma_tilde = 0).  Both are read
    forward in windows of ``numerics.BLOCK_ROWS`` rows, each equal bit for
    bit to those rows of the whole draw, so memory is
    O(BLOCK_ROWS * B' * d) plus the (n,) output.
    """
    check_stepsize_batches(profile, alpha, B_prime, D_beta)
    coeff = 2.0 * profile.rho * alpha
    if coeff == 0.0:
        return np.full(n, 0.25 / profile.L)
    grads = family.grads(w)
    tasks = rng.child(TASKS).generator()
    noise = (NormalRows(rng.child(STEPSIZE), (n, B_prime, family.dim))
             if profile.sigma_tilde != 0.0 else None)
    norms = np.empty(n)
    for r0, r1 in row_blocks(n):
        idx = sample_task_batch(family, tasks.random((r1 - r0, B_prime)))
        z = None if noise is None else noise.take(r1 - r0)
        sel = noisy(grads[idx], grad_noise(z, D_beta, profile.sigma_tilde))
        norms[r0:r1] = _grad_norms(sel).mean(axis=1)
    return 1.0 / (4.0 * profile.L + coeff * norms)

