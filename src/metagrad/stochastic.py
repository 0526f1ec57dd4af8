"""Noisy first- and second-order oracles over task families.

A data batch of size D is realized as additive Gaussian noise scaled by
1/sqrt(D): the estimator is distributed like the mean of D independent
unit-budget estimates.  Concretely,

    noisy_grad:  grad f(w) + z,   z ~ N(0, (sigma_tilde^2 / (d D)) I),

so E||z||^2 = sigma_tilde^2 / D, and

    noisy_hess:  hess f(w) + E,   E symmetric Gaussian with
                 E||E||_F^2 = sigma_H^2 / D.

These two laws live only in ``grad_noise`` and ``hess_noise``, which
return the noise of a whole stack of draws, or None at a zero noise
level, for ``noisy`` to add; the stacked oracles ``noisy_grad`` and
``noisy_hess``, the optimizer's draws and the vectorized samplers all
call them.  A stack's normals come either from uniform rows that
``numerics.keyed_uniforms`` drew for one site on many keys (a block of
optimizer steps), row j through Box-Muller into the normals of the j-th
key, or as the next rows of a ``numerics.NormalRows`` reader of one draw
on one stream, bit for bit those rows of the whole draw.  The Monte Carlo
samplers read their draws so, in windows of at most ``numerics.BLOCK_ROWS``
rows where the sample is large, and read task indices forward from a
stream's own generator.  ``sample_task_batch``
takes either kind of uniforms the same way: keyed rows or a generator.

Noise is drawn from the streams passed in and nothing else, so a fixed
(seed, path) reproduces the same batch no matter where or when it is
consumed.  Two evaluations that share a data batch (the two probes of a
finite-difference Hessian-vector product) add the same one draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import NormalRows, RngStream, box_muller_rows, keyed_uniforms, normal_words
from .tasks import TaskFamily

# Purpose labels appended to RNG paths; one per draw site so streams
# never collide and paired algorithm runs stay aligned.
INNER = "inner"
OUTER = "outer"
HESS = "hess"
PROBE = "hvp"
STEPSIZE = "stepsize"
TASKS = "tasks"


@dataclass(frozen=True)
class BatchSpec:
    """Batch sizes for one optimizer configuration.

    B tasks per iteration; D_in, D_o, D_h data budgets for the inner
    step, outer gradient, and Hessian (or probe) estimates; B_prime and
    D_beta budgets for the adaptive stepsize estimate.
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


Streams = NormalRows | np.ndarray | None


def _normals(rng: Streams, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals of the given shape: the next shape[0] rows of a
    reader, or row j from row j of ``keyed_uniforms`` rows, which hold
    ``normal_words(shape[1:])`` uniforms each, in one Box-Muller pass."""
    return (rng.take(shape[0]) if isinstance(rng, NormalRows)
            else box_muller_rows(rng, shape[1:]).reshape(shape))


def _keyed(keys: list[RngStream | bytes] | None, shape: tuple[int, ...], level: float):
    """The uniform rows of a normal draw of shape[1:] on each key, by one
    ``keyed_uniforms`` call; None at a zero noise level, which draws nothing."""
    return None if level == 0.0 else keyed_uniforms(keys, {0: ([b""], normal_words(shape[1:]))})[0]


def grad_noise(shape: tuple[int, ...], D: int, sigma_tilde: float,
               rng: Streams) -> np.ndarray | None:
    """Batch-size-D gradient noise of the given shape, i.i.d.
    N(0, sigma_tilde^2 / (d D)) along the last axis, drawn on rng as
    ``_normals`` draws them.  With sigma_tilde = 0 it is None (``noisy``
    adds nothing), nothing is drawn and rng may be None."""
    if D < 1:
        raise ValueError("D must be >= 1")
    if sigma_tilde == 0.0:
        return None
    return sigma_tilde / np.sqrt(shape[-1] * D) * _normals(rng, shape)


def hess_noise(shape: tuple[int, ...], D: int, sigma_H: float, rng: Streams) -> np.ndarray | None:
    """Symmetric batch-size-D Hessian noise over the last two axes.

    E = kappa (G + G') / 2 with i.i.d. standard normal G has Frobenius
    energy kappa^2 d (d + 1) / 2, so kappa = sigma_H sqrt(2 / (D d (d + 1))).
    G is drawn on rng as ``_normals`` draws it; with sigma_H = 0 it is None
    (``noisy`` adds nothing), nothing is drawn and rng may be None.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    if sigma_H == 0.0:
        return None
    d = shape[-1]
    kappa = sigma_H * np.sqrt(2.0 / (D * d * (d + 1)))
    g = _normals(rng, shape)
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
    return noisy(g, grad_noise(g.shape, D, sigma_tilde, _keyed(rng, g.shape, sigma_tilde)))


def noisy_hess(family: TaskFamily, idx, W: np.ndarray, D: int, sigma_H: float,
               rng: list[RngStream | bytes] | None) -> np.ndarray:
    """Hessian of task idx[j] at W or at row W[j] plus symmetric Gaussian
    noise drawn on key rng[j], shape (B, d, d).  rng may be None at sigma_H = 0."""
    h = family.hessians(W, idx)
    return noisy(h, hess_noise(h.shape, D, sigma_H, _keyed(rng, h.shape, sigma_H)))


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


def sample_task_batch(family: TaskFamily, shape: int | tuple[int, ...],
                      rng: np.ndarray | np.random.Generator) -> np.ndarray:
    """Task indices of the given shape, i.i.d. from the family weights by
    inverse CDF on the uniforms of rng: ``keyed_uniforms`` rows of that
    shape (row j on the j-th key), or a generator read forward (a stream's
    own, for the next rows of one draw on it)."""
    shape = tuple(positive_int(n, "a batch dimension")
                  for n in (shape if isinstance(shape, (tuple, list)) else (shape,)))
    u = rng.reshape(shape) if isinstance(rng, np.ndarray) else rng.random(shape)
    return np.minimum(np.searchsorted(family.cum_weights, u, side="right"), family.n_tasks - 1)
