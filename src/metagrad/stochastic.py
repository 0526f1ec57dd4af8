"""Noisy first- and second-order oracles over task families.

A data batch of size D is realized as additive Gaussian noise scaled by
1/sqrt(D): the estimator is distributed like the mean of D independent
unit-budget estimates.  Concretely,

    noisy_grad:  grad f(w) + z,   z ~ N(0, (sigma_tilde^2 / (d D)) I),

so E||z||^2 = sigma_tilde^2 / D, and

    noisy_hess:  hess f(w) + E,   E symmetric Gaussian with
                 E||E||_F^2 = sigma_H^2 / D.

These two laws live only in ``grad_noise`` and ``hess_noise``, which
scale the standard normals they are handed into the noise of a whole
stack of draws, or give None at a zero noise level, where nothing was
drawn, for ``noisy`` to add; the stacked oracles ``noisy_grad`` and
``noisy_hess``, the optimizer's draws and the vectorized samplers all
call them.  Likewise ``sample_task_batch`` inverts the uniforms it is
handed.  Each caller draws and decodes its own normals and uniforms, in
the module that names their draw sites.

Every normal and uniform is drawn on a keyed stream and nothing else, so
a fixed (seed, path) reproduces the same batch no matter where or when it
is consumed.  It does not depend on the point, so the two probes of a
finite-difference Hessian-vector product, which share a batch, would add
one draw that cancels in exact arithmetic: the probe draws none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, box_muller_rows, keyed_uniforms, normal_words
from .tasks import TaskFamily

# Purpose labels appended to RNG paths; one per draw site so streams
# never collide and paired algorithm runs stay aligned.
INNER = "inner"
OUTER = "outer"
HESS = "hess"
STEPSIZE = "stepsize"
TASKS = "tasks"


@dataclass(frozen=True)
class BatchSpec:
    """Batch sizes for one optimizer configuration.

    B tasks per iteration; D_in, D_o, D_h data budgets for the inner
    step, outer gradient, and Hessian estimates (HF-MAML's probe draws
    none); B_prime and D_beta budgets for the adaptive stepsize estimate.
    """

    B: int = 1
    D_in: int = 1
    D_o: int = 1
    D_h: int = 1
    B_prime: int = 1
    D_beta: int = 1

    def __post_init__(self):
        for name in ("B", "D_in", "D_o", "D_h", "B_prime", "D_beta"):
            object.__setattr__(self, name, positive_int(getattr(self, name), name))


def positive_int(v, name: str) -> int:
    """v as an int >= 1: a Python or numpy integer, never a bool or a float."""
    if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 1:
        raise ValueError(f"{name} must be a positive integer, got {v!r}")
    return int(v)


def _keyed(keys: list[RngStream | bytes] | None, shape: tuple[int, ...], level: float):
    """Standard normals of shape[1:] on each key, (len(keys),) + shape[1:], by
    one ``keyed_uniforms`` call; None at a zero noise level, which draws nothing."""
    if level == 0.0:
        return None
    return box_muller_rows(keyed_uniforms(keys, {0: ([b""], normal_words(shape[1:]))})[0],
                           shape[1:])


def grad_noise(z: np.ndarray | None, D: int, sigma_tilde: float) -> np.ndarray | None:
    """Batch-size-D gradient noise from the standard normals z: i.i.d.
    N(0, sigma_tilde^2 / (d D)) along the last axis, of z's shape.  With
    sigma_tilde = 0 it is None (``noisy`` adds nothing), and z, which
    nothing drew, may be None."""
    if D < 1:
        raise ValueError("D must be >= 1")
    if sigma_tilde == 0.0:
        return None
    return sigma_tilde / np.sqrt(z.shape[-1] * D) * z


def hess_noise(g: np.ndarray | None, D: int, sigma_H: float) -> np.ndarray | None:
    """Symmetric batch-size-D Hessian noise over the last two axes of the
    standard normals g.

    E = kappa (G + G') / 2 with i.i.d. standard normal G has Frobenius
    energy kappa^2 d (d + 1) / 2, so kappa = sigma_H sqrt(2 / (D d (d + 1))).
    With sigma_H = 0 it is None (``noisy`` adds nothing), and g, which
    nothing drew, may be None.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    if sigma_H == 0.0:
        return None
    d = g.shape[-1]
    kappa = sigma_H * np.sqrt(2.0 / (D * d * (d + 1)))
    return kappa * 0.5 * (g + np.swapaxes(g, -1, -2))


def noisy(x: np.ndarray, noise: np.ndarray | None) -> np.ndarray:
    """x plus noise drawn by a noise law, or x itself where none was drawn."""
    return x if noise is None else x + noise


def noisy_grad(family: TaskFamily, idx, W: np.ndarray, D: int, sigma_tilde: float,
               rng: list[RngStream | bytes] | None) -> np.ndarray:
    """Gradient of task idx[j] at W or at row W[j] plus batch-size-D
    Gaussian noise drawn on key rng[j], shape (B, d); row j is that task's
    gradient alone.  rng may be None at sigma_tilde = 0."""
    g = family.grads(W, idx)
    return noisy(g, grad_noise(_keyed(rng, g.shape, sigma_tilde), D, sigma_tilde))


def noisy_hess(family: TaskFamily, idx, W: np.ndarray, D: int, sigma_H: float,
               rng: list[RngStream | bytes] | None) -> np.ndarray:
    """Hessian of task idx[j] at W or at row W[j] plus symmetric Gaussian
    noise drawn on key rng[j], shape (B, d, d).  rng may be None at sigma_H = 0."""
    h = family.hessians(W, idx)
    return noisy(h, hess_noise(_keyed(rng, h.shape, sigma_H), D, sigma_H))


@dataclass(frozen=True)
class StochasticOracle:
    """The noise levels of the gradient and Hessian oracles."""

    sigma_tilde: float = 0.0
    sigma_H: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.sigma_tilde < np.inf and 0.0 <= self.sigma_H < np.inf):
            raise ValueError("noise levels must be finite and nonnegative")

    @property
    def exact(self) -> bool:
        return self.sigma_tilde == 0.0 and self.sigma_H == 0.0


def sample_task_batch(family: TaskFamily, u: np.ndarray) -> np.ndarray:
    """Task indices i.i.d. from the family weights, of u's shape: each
    uniform of u inverted through the weights' CDF."""
    return np.minimum(np.searchsorted(family.cum_weights, u, side="right"), family.n_tasks - 1)
