"""Outer-loop optimization with exact-oracle instrumentation.

Every iteration logs the exact meta-gradient norm and meta-objective
value (cheap on finite synthetic families), so convergence floors are
measured against ground truth rather than against the noisy estimates
the algorithm itself consumes.  On quadratic families the per-iterate
distances to both closed-form fixed points are logged as well.  The
task gradients at the iterate are computed once per iteration and
shared by the instrumentation and the step.

Every step but two is one call of the stacked slot estimator
``slot_directions`` (see _slot_direction): sampled task batches, noisy
full batches and HF-MAML's exact full batch.  With full_task_batch and
an exact oracle, MAML's step is the logged exact meta-gradient itself
and FO-MAML's the weighted sum of the same sweep's outer gradients (see
``exact_sweep``); both round differently from the slot sum in the last
bits, and fig1's recorded bytes depend on that rounding.

Randomness is organized so paired runs are comparable: iteration k of a
run with seed s derives the task batch from (s, k, "tasks"), the
stepsize estimate from (s, k, "stepsize"), and the per-task noise for
batch slot j from (s, k, "slot", j, purpose).  Two algorithms run with
the same seed therefore see identical task batches and identical
inner/outer gradient noise, isolating the algorithmic difference.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .closed_form import analyze_quadratic
from .errors import DivergenceDetected, IllConditioned, InvalidBatchConfig, NumericalFailure
from .meta_gradient import (
    ALGORITHMS,
    FOMAML,
    HFMAML,
    MAML,
    adapted_value,
    exact_sweep,
    slot_directions,
)
from .numerics import RngStream, Vec
from .stepsize import ALPHA_CAPS, StepsizeRule, beta_tilde, check_stepsize_batches, required_D_h
from .stochastic import TASKS, BatchSpec, StochasticOracle, sample_task_batch
from .tasks import QUADRATIC, SmoothnessProfile, TaskFamily, local_smoothness

CSV_HEADER = "iter,grad_norm_F,loss_F,beta,dist_wstar,dist_wfo"
DIVERGENCE_FACTOR = 10.0


@dataclass
class OptimizerConfig:
    """Everything one run depends on besides the family itself.

    full_task_batch replaces sampled task batches with the exact
    weighted sweep over all tasks (the deterministic regime in which the
    quadratic fixed points are reached to machine precision).  The trust
    region is a ball of trust_radius around w0; wandering beyond 10x its
    radius raises DivergenceDetected.
    """

    algorithm: str
    alpha: float
    stepsize: StepsizeRule
    batches: BatchSpec = field(default_factory=BatchSpec)
    max_iters: int = 1000
    target_grad_norm: float = 0.0
    seed: int = 0
    w0: Vec | None = None
    trust_radius: float = 10.0
    full_task_batch: bool = False
    sigma_tilde: float = 0.0
    sigma_H: float = 0.0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for name in ("alpha", "target_grad_norm", "trust_radius", "sigma_tilde", "sigma_H"):
            value = getattr(self, name)
            if isinstance(value, int):  # a config's 1 runs, and is reported, as 1.0
                setattr(self, name, value := float(value))
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.trust_radius <= 0.0:
            raise ValueError("trust_radius must be positive")
        if self.sigma_tilde < 0.0 or self.sigma_H < 0.0:
            raise ValueError("noise levels must be nonnegative")
        if self.w0 is not None:
            self.w0 = np.asarray(self.w0, dtype=float)
            if not np.all(np.isfinite(self.w0)):
                raise ValueError("w0 must hold finite numbers")

    def start_point(self, dim: int) -> Vec:
        """w0, or the origin when w0 is None; ValueError unless it has dim entries."""
        w0 = np.zeros(dim) if self.w0 is None else np.asarray(self.w0, dtype=float)
        if w0.shape != (dim,):
            raise ValueError(f"w0 has shape {w0.shape}, family dimension is {dim}")
        return w0


def validate_config(config: OptimizerConfig, profile: SmoothnessProfile) -> None:
    """Enforce the preconditions the adaptive-stepsize guarantees assume.

    Raises InvalidBatchConfig naming the violated inequality.  The inner
    stepsize cap is advisory (constant-stepsize experiments routinely
    exceed it), so ``run`` only warns past it.
    """
    if config.stepsize.kind != "adaptive":
        return
    b = config.batches
    check_stepsize_batches(profile, config.alpha, b.B_prime, b.D_beta)
    if not config.full_task_batch and b.B < 20:
        raise InvalidBatchConfig(f"B={b.B} < 20 (task-batch precondition)")
    need_dh = required_D_h(profile, config.alpha, config.algorithm)
    if b.D_h < need_dh:
        if config.algorithm == HFMAML:
            detail = f"D_h={b.D_h} < ceil(36*(alpha*rho*sigma_tilde)^2)={need_dh}"
        else:
            detail = f"D_h={b.D_h} < ceil(2*alpha^2*sigma_H^2)={need_dh}"
        raise InvalidBatchConfig(detail)


@dataclass
class RunRecord:
    """Per-iteration log plus summary of one optimizer run.

    Arrays share length K + 1 where K is the number of steps taken; row
    k describes iterate w_k = iterates[k] before stepping, and w_final
    is the last row.  beta[k] is the stepsize used to leave w_k, NaN on
    the terminal row.  Distance columns are NaN for families without
    closed-form fixed points.
    """

    algorithm: str
    seed: int
    alpha: float
    grad_norm_F: np.ndarray
    loss_F: np.ndarray
    beta: np.ndarray
    dist_wstar: np.ndarray
    dist_wfo: np.ndarray
    stop_reason: str
    iterates: np.ndarray

    @property
    def steps_taken(self) -> int:
        return len(self.grad_norm_F) - 1

    @property
    def w_final(self) -> Vec:
        return self.iterates[-1]

    @property
    def final_grad_norm(self) -> float:
        return float(self.grad_norm_F[-1])

    @property
    def floor(self) -> float:
        """Best-iterate exact meta-gradient norm over the run."""
        return float(np.min(self.grad_norm_F))

    @property
    def best_iter(self) -> int:
        return int(np.argmin(self.grad_norm_F))

    @property
    def delta_estimate(self) -> float:
        """F(w_0) minus the best objective value seen."""
        return float(self.loss_F[0] - np.min(self.loss_F))

    def to_csv(self) -> str:
        rows = zip(self.grad_norm_F, self.loss_F, self.beta, self.dist_wstar, self.dist_wfo)
        lines = [CSV_HEADER] + ["%d,%.17g,%.17g,%.17g,%.17g,%.17g" % (k, *row)
                                for k, row in enumerate(rows)]
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "alpha": self.alpha,
            "steps_taken": self.steps_taken,
            "stop_reason": self.stop_reason,
            "final_grad_norm": self.final_grad_norm,
            "floor": self.floor,
            "best_iter": self.best_iter,
            "delta_estimate": self.delta_estimate,
            "final_loss": float(self.loss_F[-1]),
        }


def _task_order_sum(weights: Vec, dirs: np.ndarray) -> Vec:
    """sum_i weights[i] * dirs[i], added from zero in task order as a
    per-task loop adds it (a matmul or np.sum would round differently)."""
    terms = np.concatenate([np.zeros((1, dirs.shape[1])), weights[:, None] * dirs])
    return np.add.accumulate(terms)[-1]


def _slot_direction(family, config, w, grads, rho, oracle, rng):
    """sum_j p_j direction_j / B, added from zero in slot order, slot j's
    noise on rng.child("slot", j).  A full batch's slots are tasks 0..n-1
    with task weights p and B = 1; a sampled batch's are B tasks drawn on
    rng.child("tasks"), each with p_j = 1.  grads are family.grads(w)."""
    if config.full_task_batch:
        idx, weights, B = slice(None), family.weights, 1
    else:
        B = config.batches.B
        idx, weights = sample_task_batch(family, B, rng.child(TASKS)), np.ones(B)
    streams = None if oracle.exact else list(map(rng.child("slot").child, range(len(weights))))
    dirs = slot_directions(config.algorithm, family, idx, w, grads[idx], config.alpha, rho,
                           oracle, config.batches, streams)
    return _task_order_sum(weights, dirs) / B


def run(
    family: TaskFamily,
    config: OptimizerConfig,
    profile: SmoothnessProfile | None = None,
) -> RunRecord:
    """Run one algorithm on one family; deterministic in (config, seed).

    The per-iteration log always contains the exact meta-gradient norm,
    so floors read off the record are ground truth.  Raises
    NumericalFailure on non-finite iterates and DivergenceDetected when
    the iterate leaves 10x the trust region.
    """
    d = family.dim
    w0 = config.start_point(d)
    if profile is None:
        profile = local_smoothness(family, w0, config.trust_radius)
    profile = profile.with_noise(config.sigma_tilde, config.sigma_H)
    validate_config(config, profile)
    cap = ALPHA_CAPS[config.algorithm]
    if config.stepsize.kind == "adaptive" and config.alpha * profile.L > cap + 1e-12:
        warnings.warn(
            f"alpha*L = {config.alpha * profile.L:.3g} exceeds the "
            f"{config.algorithm} guarantee cap {cap:.3g}; the adaptive rule "
            "is running outside its analyzed regime",
            stacklevel=2,
        )
    oracle = StochasticOracle(sigma_tilde=config.sigma_tilde, sigma_H=config.sigma_H)

    analysis = None
    if family.kind == QUADRATIC:
        try:
            analysis = analyze_quadratic(family, config.alpha)
        except IllConditioned:
            analysis = None  # degenerate alpha: log NaN distances

    root = RngStream(config.seed)
    w = w0.copy()
    n_rows = config.max_iters + 1
    grad_norms = np.empty(n_rows)
    losses = np.empty(n_rows)
    betas = np.full(n_rows, np.nan)
    d_star = np.full(n_rows, np.nan)
    d_fo = np.full(n_rows, np.nan)
    trail = np.empty((n_rows, d))

    stop_reason = "max_iters"
    k = 0
    while True:
        grads = family.grads(w)  # shared by the instrumentation and the step
        grad_F, adapted, outer = exact_sweep(family, w, config.alpha, grads)
        grad_norms[k] = np.linalg.norm(grad_F)
        losses[k] = adapted_value(family, adapted)
        if analysis is not None:
            d_star[k] = np.linalg.norm(w - analysis.w_star)
            d_fo[k] = np.linalg.norm(w - analysis.w_fo)
        trail[k] = w
        if config.target_grad_norm > 0.0 and grad_norms[k] <= config.target_grad_norm:
            stop_reason = "target"
            break
        if k == config.max_iters:
            break

        if config.stepsize.kind == "constant":
            beta_k = config.stepsize.beta
        else:
            beta_k = config.stepsize.resolve_fraction(config.algorithm) * beta_tilde(
                family, profile, w, config.alpha, config.batches.B_prime,
                config.batches.D_beta, root.child(k, "stepsize"))
        betas[k] = beta_k

        if config.full_task_batch and oracle.exact and config.algorithm == MAML:
            step_dir = grad_F
        elif config.full_task_batch and oracle.exact and config.algorithm == FOMAML:
            step_dir = family.weights @ outer
        else:
            step_dir = _slot_direction(family, config, w, grads, profile.rho, oracle, root.child(k))

        with np.errstate(over="ignore", invalid="ignore"):
            w = w - beta_k * step_dir
            dist = np.linalg.norm(w - w0)  # inf for a finite w far enough out
        k += 1
        if not np.all(np.isfinite(w)):
            raise NumericalFailure(f"non-finite iterate at iteration {k}")
        if dist > DIVERGENCE_FACTOR * config.trust_radius:
            raise DivergenceDetected(
                f"iterate left {DIVERGENCE_FACTOR:g}x trust region at iteration {k} "
                f"(||w - w0|| = {dist:.3g}, "
                f"radius = {config.trust_radius:g})"
            )

    last = k + 1
    return RunRecord(
        algorithm=config.algorithm,
        seed=config.seed,
        alpha=config.alpha,
        grad_norm_F=grad_norms[:last],
        loss_F=losses[:last],
        beta=betas[:last],
        dist_wstar=d_star[:last],
        dist_wfo=d_fo[:last],
        stop_reason=stop_reason,
        iterates=trail[:last],
    )


def run_comparison(
    family: TaskFamily,
    base_config: OptimizerConfig,
    algorithms: tuple[str, ...] = ALGORITHMS,
    profile: SmoothnessProfile | None = None,
) -> dict[str, RunRecord]:
    """Run several algorithms from one seed so their batches align.

    Task batches and gradient noise derive from (seed, k, ...) paths
    that do not mention the algorithm, so every variant sees the same
    draws; differences in the records are differences in the methods.
    Every algorithm's preconditions are checked before the first one runs.
    """
    configs = [replace(base_config, algorithm=algo) for algo in algorithms]
    if profile is None:
        w0 = base_config.start_point(family.dim)
        profile = local_smoothness(family, w0, base_config.trust_radius)
    for config in configs:
        validate_config(config, profile.with_noise(config.sigma_tilde, config.sigma_H))
    return {config.algorithm: run(family, config, profile=profile) for config in configs}
