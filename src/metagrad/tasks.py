"""Synthetic task families with exact derivative oracles.

Two task kinds are supported.  A quadratic task is

    f(w) = 0.5 w' A w + b' w + c,      A symmetric positive definite,

so gradients and Hessians are exact linear algebra.  A rank-1 matrix
factorization task plants a symmetric target M = g g' and scores

    f(x) = 0.25 * ||x x' - M||_F^2,

whose gradient is (x x' - M) x and whose Hessian is
||x||^2 I + 2 x x' - M.  Quadratics admit closed-form meta-learning
solutions; the factorization family is nonquadratic, so its smoothness
constants must be estimated on a bounded region, which is what
``local_smoothness`` does (conservatively, by sampling and inflating).

A ``TaskFamily`` is a finite weighted collection of tasks of one kind,
and its oracles are the one home of every gradient and Hessian; the task
classes only validate and hold their data.  Expectations over tasks are
exact weighted sums, which is what makes every downstream quantity (the
meta-objective, its gradient, the convergence floors) computable to
machine precision.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalFailure
from .numerics import (
    Mat,
    RngStream,
    Vec,
    box_muller_rows,
    indexed_labels,
    keyed_uniforms,
    max_spectral_norm,
    normal_words,
    row_dots,
    spectral_norms,
    standard_normals,
    uniforms,
)

QUADRATIC = "quadratic"
RANK1MF = "rank1mf"


def _frozen(a) -> np.ndarray:
    """A read-only float copy of a."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(eq=False)
class QuadraticTask:
    """f(w) = 0.5 w'Aw + b'w + c with A symmetric positive definite.

    A and b are read-only copies of the arrays given, so a task stays the
    one that was validated."""

    kind = QUADRATIC
    A: Mat
    b: Vec
    c: float = 0.0

    def __post_init__(self):
        self.A, self.b = _frozen(self.A), _frozen(self.b)
        d = self.b.shape[0]
        if self.A.shape != (d, d):
            raise ValueError(f"A has shape {self.A.shape}, expected {(d, d)}")
        if not (np.isfinite(self.A).all() and np.isfinite(self.b).all() and np.isfinite(self.c)):
            raise ValueError("A, b and c must be finite")
        if np.max(np.abs(self.A - self.A.T)) > 1e-12 * max(1.0, np.max(np.abs(self.A))):
            raise ValueError("A must be symmetric")
        if np.min(np.linalg.eigvalsh(self.A)) <= 0.0:
            raise ValueError("A must be positive definite")

    @property
    def dim(self) -> int:
        return self.b.shape[0]


@dataclass(eq=False)
class MatrixFactorizationTask:
    """f(x) = 0.25 ||x x' - g g'||_F^2, the planted rank-1 recovery loss.

    g is a read-only copy of the vector given, and M = g g' is read-only."""

    kind = RANK1MF
    g: Vec

    def __post_init__(self):
        self.g = _frozen(self.g)
        if self.g.ndim != 1:
            raise ValueError("g must be a vector")
        if not np.isfinite(self.g).all():
            raise ValueError("g must be finite")
        self.M = _frozen(np.outer(self.g, self.g))

    @property
    def dim(self) -> int:
        return self.g.shape[0]


def is_number(v) -> bool:
    """A JSON number a float can hold: not a bool, a string or an integer
    past the float range."""
    if isinstance(v, int) and not isinstance(v, bool):
        return abs(v) <= sys.float_info.max
    return isinstance(v, float)


def is_integer(v) -> bool:
    """An integral JSON number an int64 can hold (seeds are keyed as int64)."""
    return is_number(v) and (isinstance(v, int) or v.is_integer()) and -2**63 <= v < 2**63


def _numbers(value, name: str, ndim: int) -> np.ndarray:
    """A family payload entry as floats: a number for ndim 0, else ndim
    levels of lists of numbers."""
    def numeric(v):
        return all(map(numeric, v)) if isinstance(v, list) else is_number(v)

    if not numeric(value) or np.ndim(value) != ndim:
        what = ("a number", "a list of numbers", "a list of lists of numbers")[ndim]
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return np.array(value, dtype=float)


@dataclass(eq=False)
class TaskFamily:
    """A finite weighted family of tasks of one kind.

    The kind is the tasks' class attribute; mixing classes is an error.
    Weights are the sampling distribution p over tasks (uniform when
    omitted); they must be finite, positive and sum to one.  Stacked
    per-task arrays are precomputed, and are read-only, so family-wide
    expectations are single vectorized expressions.
    """

    tasks: list
    weights: Vec = None

    def __post_init__(self):
        if not self.tasks:
            raise ValueError("family needs at least one task")
        kinds = {t.kind for t in self.tasks}
        if len(kinds) != 1:
            raise ValueError(f"tasks mix kinds: {sorted(kinds)}")
        self.kind = kinds.pop()
        dims = {t.dim for t in self.tasks}
        if len(dims) != 1:
            raise ValueError(f"tasks disagree on dimension: {sorted(dims)}")
        n = len(self.tasks)
        if self.weights is None:
            self.weights = np.full(n, 1.0 / n)
        self.weights = np.array(self.weights, dtype=float)  # a copy: it is frozen below
        if self.weights.shape != (n,):
            raise ValueError("weights length must match task count")
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")
        if np.any(self.weights <= 0.0):
            raise ValueError("weights must be positive")
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        self.cum_weights = np.cumsum(self.weights)  # the inverse-CDF task sampler's table
        if self.kind == QUADRATIC:
            self._As = np.stack([t.A for t in self.tasks])  # (n, d, d)
            self._bs = np.stack([t.b for t in self.tasks])  # (n, d)
            self._cs = np.array([t.c for t in self.tasks])
        else:
            self._Ms = np.stack([t.M for t in self.tasks])  # (n, d, d)
            self._m2 = np.einsum("nij,nij->n", self._Ms, self._Ms)  # ||M_i||_F^2
            self._eye = np.eye(self.dim)  # the Hessians' identity term
        for value in vars(self).values():  # the oracles hand out views of these
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def dim(self) -> int:
        return self.tasks[0].dim

    # ------------------------------------------------ vectorized oracles
    # W is one point (d,) or one per row (B, d); idx is an index array or a
    # slice of the tasks.  Each row is rounded as that task alone would be,
    # so a stacked sweep reproduces a per-task loop bit for bit.

    def grads(self, W: np.ndarray, idx=slice(None)) -> np.ndarray:
        """Gradient of task idx[j] at W or at row W[j], shape (B, d)."""
        X = W[..., None]
        if self.kind == QUADRATIC:
            return (self._As[idx] @ X)[..., 0] + self._bs[idx]
        return row_dots(W)[..., None] * W - (self._Ms[idx] @ X)[..., 0]

    def hessians(self, W: np.ndarray, idx=slice(None)) -> np.ndarray:
        """Hessian of task idx[j] at W or at row W[j], shape (B, d, d).
        Quadratic Hessians are the read-only stacked matrices themselves."""
        if self.kind == QUADRATIC:
            return self._As[idx]
        outer = 2.0 * (W[..., :, None] * W[..., None, :])
        return row_dots(W)[..., None, None] * self._eye + outer - self._Ms[idx]

    def grads_rowwise(self, W: np.ndarray) -> np.ndarray:
        """Gradient of task i at row W[..., i, :], shape (..., n, d).

        The einsum and np.sum here round differently from ``grads(W)`` in
        the last bit.  ``exact_grad_F``, and so every recorded grad_norm_F,
        is built on this form.  A stack of sweeps (..., n, d) rounds each
        row as that sweep alone.
        """
        if self.kind == QUADRATIC:
            return np.einsum("nij,...nj->...ni", self._As, W) + self._bs
        nx2 = np.sum(W * W, axis=-1, keepdims=True)
        return nx2 * W - np.einsum("nij,...nj->...ni", self._Ms, W)

    def task_grads(self, i: int, X: np.ndarray) -> np.ndarray:
        """Gradient of task i at each row of X, shape (m, d).

        One (m, d) @ (d, d) product, which BLAS rounds differently from
        ``grads``' stacked mat-vecs in some rows; the audits' one Monte
        Carlo sampler, ``meta_gradient.mc_direction_draws``, is built on it.
        """
        if self.kind == QUADRATIC:
            return X @ self._As[i].T + self._bs[i]
        nx2 = np.sum(X * X, axis=1, keepdims=True)
        return nx2 * X - X @ self._Ms[i]

    def values_rowwise(self, W: np.ndarray) -> np.ndarray:
        """Value of task i at row W[..., i, :], shape (..., n)."""
        if self.kind == QUADRATIC:
            quad = 0.5 * np.einsum("...ni,nij,...nj->...n", W, self._As, W)
            return quad + np.einsum("ni,...ni->...n", self._bs, W) + self._cs
        nx2 = np.sum(W * W, axis=-1)
        xmx = np.einsum("...ni,nij,...nj->...n", W, self._Ms, W)
        return 0.25 * (nx2 * nx2 - 2.0 * xmx + self._m2)

    # ---------------------------------------------------- serialization

    def to_dict(self) -> dict:
        if self.kind == QUADRATIC:
            payload = [
                {"A": t.A.tolist(), "b": t.b.tolist(), "c": float(t.c)} for t in self.tasks
            ]
        else:
            payload = [{"g": t.g.tolist()} for t in self.tasks]
        return {
            "kind": self.kind,
            "dim": self.dim,
            "tasks": payload,
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TaskFamily":
        kind, dim, weights = data["kind"], data["dim"], data.get("weights")
        if not is_integer(dim):
            raise ValueError(f"dim must be an integer, got {dim!r}")
        if kind == QUADRATIC:
            tasks = [
                QuadraticTask(_numbers(t["A"], "A", 2), _numbers(t["b"], "b", 1),
                              float(_numbers(t.get("c", 0.0), "c", 0)))
                for t in data["tasks"]
            ]
        elif kind == RANK1MF:
            tasks = [MatrixFactorizationTask(_numbers(t["g"], "g", 1)) for t in data["tasks"]]
        else:
            raise ValueError(f"unknown family kind {kind!r}")
        fam = cls(tasks, weights=None if weights is None else _numbers(weights, "weights", 1))
        if fam.dim != dim:
            raise ValueError("dim field disagrees with task payloads")
        return fam

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "TaskFamily":
        return cls.from_dict(json.loads(text))


# ------------------------------------------------------------ generators


def random_quadratic_family(
    n: int,
    d: int,
    rng: RngStream,
    eig_range: tuple[float, float] = (0.5, 2.0),
    b_scale: float = 1.0,
) -> TaskFamily:
    """n random SPD quadratics with eigenvalues drawn in eig_range.

    Task i draws its eigenvalues, its basis and its b on the keys of
    rng.child("quad_task", i, "eigs" | "basis" | "b"), all 3n keys in one
    ``keyed_uniforms`` call: A_i = Q diag(lams) Q' with Q from the QR of a
    (d, d) normal draw.
    """
    lo, hi = eig_range
    if not (0.0 < lo <= hi):
        raise ValueError("eig_range must be positive and ordered")
    eigs, basis, bs = keyed_uniforms([rng], {
        site: (indexed_labels(("quad_task",), n, site), words)
        for site, words in (("eigs", d), ("basis", normal_words((d, d))), ("b", normal_words(d)))
    }).values()
    tasks = []
    for u, z, b in zip(eigs, box_muller_rows(basis, (d, d)), b_scale * box_muller_rows(bs, d)):
        q, _ = np.linalg.qr(z)
        a = (q * (lo + (hi - lo) * u)) @ q.T
        tasks.append(QuadraticTask(0.5 * (a + a.T), b))  # symmetrized: kills rounding asymmetry
    return TaskFamily(tasks)


def rank1_mf_family(n: int, d: int, rng: RngStream, scale: float = 1.0) -> TaskFamily:
    """n planted rank-1 factorization tasks with g_i ~ N(0, scale^2 I).

    g_i is drawn on the key of rng.child("mf_task", i), all n keys in one
    ``keyed_uniforms`` call.  The scale controls task heterogeneity: small
    scale keeps the planted targets close together, large scale spreads
    them out.
    """
    (u,) = keyed_uniforms([rng], {0: (indexed_labels(("mf_task",), n), normal_words(d))}).values()
    return TaskFamily([MatrixFactorizationTask(g) for g in scale * box_muller_rows(u, d)])


# ------------------------------------------------- smoothness profiling


@dataclass(frozen=True)
class SmoothnessProfile:
    """Constants governing a family on a bounded region.

    L bounds every task Hessian norm, rho bounds the Hessian's Lipschitz
    modulus, sigma bounds task-gradient dispersion around the mean.  The
    noise levels sigma_tilde (gradient) and sigma_H (Hessian) describe
    the stochastic oracle, not the tasks; they default to zero and are
    set by the experiment configuration.
    """

    L: float
    rho: float
    sigma: float
    sigma_tilde: float = 0.0
    sigma_H: float = 0.0

    def with_noise(self, sigma_tilde: float, sigma_H: float) -> "SmoothnessProfile":
        return replace(self, sigma_tilde=sigma_tilde, sigma_H=sigma_H)


def ball_points(center: Vec, radius: float, n: int, rng: RngStream) -> np.ndarray:
    """n points spread over the ball, deterministic in the stream."""
    d = center.shape[0]
    dirs = standard_normals(rng.child("dirs"), (n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = radius * uniforms(rng.child("radii"), n) ** (1.0 / d)
    return center + radii[:, None] * dirs


SMOOTHNESS_SAMPLES = 96  # ball points per profile
SMOOTHNESS_INFLATION = 1.5  # hedge from sample maxima to suprema
SMOOTHNESS_SEED = 0


def local_smoothness(family: TaskFamily, center: Vec, radius: float) -> SmoothnessProfile:
    """Conservative smoothness constants on the ball around center.

    Quadratic families get L = max_i ||A_i|| exactly and rho = 0 (their
    Hessians are constant).  Otherwise L and rho come from the sampled
    suprema of Hessian norms and Hessian-difference ratios, and sigma
    from the sampled worst task-vs-mean gradient deviation; each sampled
    estimate is inflated to hedge the gap between a finite sample
    maximum and the true supremum.

    The suprema are exact maxima over the sample, but most matrices are
    never decomposed: ``numerics.max_spectral_norm`` bounds each point's
    (or pair's) Hessian norms by their Frobenius norms and decomposes only
    the points and pairs whose bound can still set the maximum.  The
    skipped ones cannot, so L and rho are the floats a full sweep gives.

    Raises NumericalFailure, before any decomposition, if a sampled
    Hessian has a non-finite entry (a radius too large for float64).
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=float)
    rng = RngStream(SMOOTHNESS_SEED, ("local_smoothness",))
    points = ball_points(center, radius, SMOOTHNESS_SAMPLES, rng)

    if family.kind == QUADRATIC:
        L = float(np.max(spectral_norms(family._As)))
        rho = 0.0
    else:
        # Pair points for Lipschitz ratios three ways: consecutive sample
        # pairs, radially aligned pairs (where the factorization Hessian
        # moves fastest), and tight pairs probing the local modulus.
        offsets = standard_normals(rng.child("tight"), points.shape)
        offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
        tight = points + 0.01 * radius * offsets
        radial_hi = ball_points(center, radius, SMOOTHNESS_SAMPLES, rng.child("radial"))
        radial_lo = center + 0.5 * (radial_hi - center)
        xs = np.concatenate([points[:-1], points, radial_lo])
        ys = np.concatenate([points[1:], tight, radial_hi])

        def hessians(P, s):  # every task's Hessian at each row of P[s], (k, n, d, d)
            return family.hessians(P[s, None, :])

        try:
            hess_sup = max_spectral_norm(lambda s: hessians(points, s), np.ones(len(points)))
            sep = np.linalg.norm(xs - ys, axis=1)  # finite once the L sweep passed the ball
            apart = sep > 0.0  # a pair of one float64 point has no ratio
            xs, ys = xs[apart], ys[apart]
            ratio_sup = max_spectral_norm(lambda s: hessians(xs, s) - hessians(ys, s), sep[apart])
        except NumericalFailure:
            raise NumericalFailure(f"the sampled Hessians overflow on the trust ball of radius "
                                   f"{radius:g}; lower trust_radius") from None
        L = SMOOTHNESS_INFLATION * hess_sup
        rho = SMOOTHNESS_INFLATION * ratio_sup

    # A radius too large for float64 overflows sigma to inf or nan; the
    # adaptive rule's batch precondition refuses it, a constant step never reads it.
    with np.errstate(over="ignore", invalid="ignore"):
        per_task = family.grads(points[:, None, :])  # (m, n, d)
        mean = np.einsum("n,mnd->md", family.weights, per_task)
        dev = np.linalg.norm(per_task - mean[:, None, :], axis=2)
        sigma = SMOOTHNESS_INFLATION * float(np.max(dev))
    return SmoothnessProfile(L=L, rho=rho, sigma=sigma)
