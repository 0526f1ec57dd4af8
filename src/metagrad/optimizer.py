"""Outer-loop optimization with exact-oracle instrumentation.

Every iteration logs the exact meta-gradient norm and meta-objective
value (cheap on finite synthetic families), so convergence floors are
measured against ground truth rather than against the noisy estimates
the algorithm itself consumes.  On quadratic families the per-iterate
distances to both closed-form fixed points are logged as well.  The
task gradients at the iterate are computed once per iteration and
shared by the instrumentation and the step.

With full_task_batch and an exact oracle, every algorithm's step is one
stacked sweep over all tasks (see _full_batch_direction).  HF-MAML's
matches its per-task oracles bit for bit; MAML's and FO-MAML's round
differently in the last bits.  Noisy full-batch steps and sampled task
batches share one slot loop (_slot_direction) that calls the per-task
estimator ``direction`` once per slot.

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
    direction,
    exact_grad_F,
    probe_delta,
    probe_norms,
    value_F,
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
    record_iterates: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
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


def validate_config(config: OptimizerConfig, profile: SmoothnessProfile) -> None:
    """Enforce the preconditions the adaptive-stepsize guarantees assume.

    Raises InvalidBatchConfig naming the violated inequality.  The inner
    stepsize cap is advisory (constant-stepsize experiments routinely
    exceed it), so it only warns.
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
    cap = ALPHA_CAPS[config.algorithm]
    if config.alpha * profile.L > cap + 1e-12:
        warnings.warn(
            f"alpha*L = {config.alpha * profile.L:.3g} exceeds the "
            f"{config.algorithm} guarantee cap {cap:.3g}; the adaptive rule "
            "is running outside its analyzed regime",
            stacklevel=2,
        )


@dataclass
class RunRecord:
    """Per-iteration log plus summary of one optimizer run.

    Arrays share length K + 1 where K is the number of steps taken; row
    k describes iterate w_k before stepping.  beta[k] is the stepsize
    used to leave w_k, NaN on the terminal row.  Distance columns are
    NaN for families without closed-form fixed points.
    """

    algorithm: str
    seed: int
    alpha: float
    iters: np.ndarray
    grad_norm_F: np.ndarray
    loss_F: np.ndarray
    beta: np.ndarray
    dist_wstar: np.ndarray
    dist_wfo: np.ndarray
    w_final: Vec
    stop_reason: str
    iterates: np.ndarray | None = None

    @property
    def steps_taken(self) -> int:
        return len(self.iters) - 1

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
        lines = [CSV_HEADER]
        for k in range(len(self.iters)):
            lines.append(
                "%d,%.17g,%.17g,%.17g,%.17g,%.17g"
                % (
                    self.iters[k],
                    self.grad_norm_F[k],
                    self.loss_F[k],
                    self.beta[k],
                    self.dist_wstar[k],
                    self.dist_wfo[k],
                )
            )
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse_csv(text: str) -> dict[str, np.ndarray]:
        """Columns of a serialized record, keyed by header name."""
        lines = [ln for ln in text.strip().split("\n") if ln]
        names = lines[0].split(",")
        if names != CSV_HEADER.split(","):
            raise ValueError(f"unexpected CSV header {lines[0]!r}")
        cols = {name: [] for name in names}
        for ln in lines[1:]:
            for name, valtext in zip(names, ln.split(",")):
                cols[name].append(float(valtext))
        out = {name: np.array(vals) for name, vals in cols.items()}
        out["iter"] = out["iter"].astype(int)
        return out

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


def _full_batch_direction(family, w, grads, grad_F, alpha, rho, algorithm):
    """Exact weighted sweep over all tasks at w, for an exact oracle.

    grads are family.grads(w) and grad_F is exact_grad_F there, both
    already computed for the instrumentation.  Each algorithm is one
    stacked sweep.  HF-MAML's equals the task-order sum of its per-task
    directions bit for bit.  MAML's step is grad_F itself and FO-MAML's
    the same einsum form without the Hessian factor; both differ from the
    sum of per-task oracle directions in the last bits, and the recorded
    fig1 bytes depend on that rounding.
    """
    if algorithm == MAML:
        return grad_F
    if algorithm == FOMAML:
        return family.weights @ family.grads_rowwise(w - alpha * grads)
    v = family.task_grads_rowwise(w - alpha * grads)
    nv, probing = probe_norms(v)
    delta = np.array([probe_delta(rho, alpha, x, w) for x in nv.tolist()])[:, None]
    dk = (family.task_grads_rowwise(w + delta * v)
          - family.task_grads_rowwise(w - delta * v)) / (2.0 * delta)
    return _task_order_sum(family.weights, np.where(probing[:, None], v - alpha * dk, v))


def _slot_direction(family, config, w, rho, oracle, rng):
    """sum_j p_j direction_j / B, added from zero in slot order, slot j's
    noise on rng.child("slot", j).  A full batch's slots are tasks 0..n-1
    with task weights p and B = 1; a sampled batch's are B tasks drawn on
    rng.child("tasks"), each with p_j = 1."""
    if config.full_task_batch:
        tasks, weights, B = range(family.n_tasks), family.weights.tolist(), 1
    else:
        B = config.batches.B
        tasks, weights = sample_task_batch(family, B, rng.child(TASKS)).tolist(), [1.0] * B
    acc = np.zeros(family.dim)
    for j, (i, p) in enumerate(zip(tasks, weights)):
        acc += p * direction(config.algorithm, family.tasks[i], w, config.alpha, rho, oracle,
                             config.batches, rng.child("slot", j))
    return acc / B


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
    w0 = np.zeros(d) if config.w0 is None else np.asarray(config.w0, dtype=float)
    if w0.shape != (d,):
        raise ValueError(f"w0 has shape {w0.shape}, family dimension is {d}")
    if profile is None:
        profile = local_smoothness(family, w0, config.trust_radius)
    profile = profile.with_noise(config.sigma_tilde, config.sigma_H)
    validate_config(config, profile)
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
    iters = np.arange(n_rows)
    grad_norms = np.empty(n_rows)
    losses = np.empty(n_rows)
    betas = np.full(n_rows, np.nan)
    d_star = np.full(n_rows, np.nan)
    d_fo = np.full(n_rows, np.nan)
    trail = np.empty((n_rows, d)) if config.record_iterates else None

    stop_reason = "max_iters"
    k = 0
    while True:
        grads = family.grads(w)  # shared by the instrumentation and the step
        grad_F = exact_grad_F(family, w, config.alpha, grads)
        grad_norms[k] = np.linalg.norm(grad_F)
        losses[k] = value_F(family, w, config.alpha, grads)
        if analysis is not None:
            d_star[k] = np.linalg.norm(w - analysis.w_star)
            d_fo[k] = np.linalg.norm(w - analysis.w_fo)
        if trail is not None:
            trail[k] = w
        if config.target_grad_norm > 0.0 and grad_norms[k] <= config.target_grad_norm:
            stop_reason = "target"
            break
        if k == config.max_iters:
            break

        if config.stepsize.kind == "constant":
            beta_k = config.stepsize.beta
        else:
            sample = beta_tilde(
                family,
                profile,
                w,
                config.alpha,
                config.batches.B_prime,
                config.batches.D_beta,
                root.child(k, "stepsize"),
            )
            beta_k = config.stepsize.resolve_fraction(config.algorithm) * sample.beta_tilde
        betas[k] = beta_k

        if config.full_task_batch and oracle.exact:
            step_dir = _full_batch_direction(
                family, w, grads, grad_F, config.alpha, profile.rho, config.algorithm
            )
        else:
            step_dir = _slot_direction(family, config, w, profile.rho, oracle, root.child(k))

        with np.errstate(over="ignore", invalid="ignore"):
            w = w - beta_k * step_dir
        k += 1
        if not np.all(np.isfinite(w)):
            raise NumericalFailure(f"non-finite iterate at iteration {k}")
        if np.linalg.norm(w - w0) > DIVERGENCE_FACTOR * config.trust_radius:
            raise DivergenceDetected(
                f"iterate left {DIVERGENCE_FACTOR:g}x trust region at iteration {k} "
                f"(||w - w0|| = {np.linalg.norm(w - w0):.3g}, "
                f"radius = {config.trust_radius:g})"
            )

    last = k + 1
    return RunRecord(
        algorithm=config.algorithm,
        seed=config.seed,
        alpha=config.alpha,
        iters=iters[:last],
        grad_norm_F=grad_norms[:last],
        loss_F=losses[:last],
        beta=betas[:last],
        dist_wstar=d_star[:last],
        dist_wfo=d_fo[:last],
        w_final=w.copy(),
        stop_reason=stop_reason,
        iterates=trail[:last].copy() if trail is not None else None,
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
    """
    out = {}
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}")
        out[algo] = run(family, replace(base_config, algorithm=algo), profile=profile)
    return out
