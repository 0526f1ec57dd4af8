"""Outer-loop optimization with exact-oracle instrumentation.

Every iteration logs the exact meta-gradient norm and meta-objective
value (cheap on finite synthetic families), so convergence floors are
measured against ground truth rather than against the noisy estimates
the algorithm itself consumes; on quadratic families the kept iterates'
distances to both closed-form fixed points are logged once the loop ends.
The log never steers the run, so ``run`` has one loop over blocks of
iterates: it draws a block's steps, takes them, and logs the block's
iterates from one set of rows of the exact sweep's two stages,
``outer_stage`` and ``hessian_stage``, each row the float of its iterate
swept alone.  A block holds at most BLOCK_ROWS // width iterates, width
being the most rows one iterate puts into a stacked call, so the draws
and the stages share one O(BLOCK_ROWS d^2) memory bound.  The first row
at or below the target ends the run there; a step of the block that left
the trust region or the float range raises only after that check.  A run
with a target grows its blocks from one iterate, so the steps it draws
and discards are at most as many as the steps it keeps, plus one.

Every step but two is one call of the stacked slot estimator
``slot_directions`` (see _slot_direction), which reads the gradients of
its B tasks only; such a block takes the outer stage of its stacked
iterates once it has stepped.  With full_task_batch and an exact oracle,
MAML's step is grad F itself and FO-MAML's the weighted sum of the outer
gradients, which round unlike the slot sum in the last bits that fig1's
bytes record.  So these two fill the block's outer-stage rows as they
step, MAML its Hessian-stage row too, each stage sweeping the one iterate
as a (d,) point; every other run takes the Hessian stage once per block,
on its stacked iterates, and builds none to step.

Randomness is organized so paired runs are comparable: every keyed draw
of iteration k of a run with seed s is a site under the step key (s, k),
the task batch on "tasks", the stepsize estimate on ("stepsize", ...)
and the per-task noise for batch slot j on ("slot", j, purpose).  Two
algorithms run with the same seed therefore see identical task batches
and identical inner/outer gradient noise, isolating the algorithmic
difference.  No site depends on k, so a run resolves its sites once; a
draw depends only on its key, so every site of a block's steps is drawn
at once by one ``numerics.keyed_uniforms`` call on the step keys, and
records do not depend on the block length.  A run that draws nothing
(an exact oracle on a full batch, its stepsize constant or adaptive at
rho alpha = 0) has no site: it builds no step key and calls no drawer.
The loop raises no numpy overflow warning: an overflow ends the run as a
non-finite or diverging iterate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .closed_form import analyze_quadratic
from .errors import DivergenceDetected, IllConditioned, InvalidBatchConfig, NumericalFailure
from .meta_gradient import (
    ALGORITHMS,
    HFMAML,
    MAML,
    adapted_value,
    hessian_stage,
    outer_stage,
    slot_directions,
    slot_noise,
    slot_sites,
)
from .numerics import (RngStream, Vec, keyed_uniforms, path_key, row_blocks, row_dots,
                       task_order_sum)
from .stepsize import (ALPHA_CAPS, StepsizeRule, beta_sample, check_stepsize_batches,
                       required_D_h, stepsize_draws, stepsize_sites)
from .stochastic import TASKS, BatchSpec, StochasticOracle, positive_int, sample_task_batch
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
        self.max_iters = positive_int(self.max_iters, "max_iters")
        if (not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool)
                or not -2**63 <= self.seed < 2**63):
            raise ValueError(f"seed must be an integer that fits an int64, got {self.seed!r}")
        self.seed = int(self.seed)
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


def _slot_direction(family, config, w, rho, draw):
    """sum_j p_j direction_j / B, added from zero in slot order, for a
    slot draw of _drawn_steps: task weights p and B = 1 for a full batch,
    p_j = 1 for a sampled one."""
    idx, noise = draw
    dirs = slot_directions(config.algorithm, family, idx, w, config.alpha, rho, noise)
    if config.full_task_batch:
        return task_order_sum(family.weights[:, None] * dirs)
    return task_order_sum(dirs) / config.batches.B


def _drawn_steps(family, config, profile, oracle, slots, sites, keys):
    """(stepsize draw, slot draw) of the steps on keys, step k's key being
    (seed, k), every site of a step drawn by one ``keyed_uniforms`` call on
    the keys.  A slot draw is (idx, site -> noise rows) of the given number
    of slots: B tasks on key + "tasks" (a full batch's are 0..n-1), slot j's
    noise on key + ("slot", j).  A stepsize draw is None where it draws
    nothing."""
    b, n = config.batches, len(keys)
    rows = keyed_uniforms(keys, sites)
    betas = stepsize_draws(family, profile, b.B_prime, b.D_beta, n, rows)
    if not slots:
        return [(beta, None) for beta in betas]
    tasks = (sample_task_batch(family, (n, slots), rows[TASKS]) if TASKS in rows
             else [slice(None)] * n)
    noise = slot_noise(n * slots, family.dim, oracle, b, rows)
    return [(beta, (idx, {site: a[r * slots:(r + 1) * slots] for site, a in noise.items()}))
            for r, (beta, idx) in enumerate(zip(betas, tasks))]


def run(
    family: TaskFamily,
    config: OptimizerConfig,
    profile: SmoothnessProfile | None = None,
) -> RunRecord:
    """Run one algorithm on one family; deterministic in (config, seed).

    The per-iteration log always contains the exact meta-gradient norm,
    so floors read off the record are ground truth.  Raises
    NumericalFailure on non-finite iterates and DivergenceDetected when
    the iterate leaves 10x the trust region, unless an earlier iterate met
    the target.  Memory is O(max_iters d + BLOCK_ROWS d^2).
    """
    d = family.dim
    w0 = config.start_point(d)
    if profile is None:
        profile = local_smoothness(family, w0, config.trust_radius)
    profile = profile.with_noise(config.sigma_tilde, config.sigma_H)
    validate_config(config, profile)
    cap, adaptive = ALPHA_CAPS[config.algorithm], config.stepsize.kind == "adaptive"
    if adaptive and config.alpha * profile.L > cap + 1e-12:
        warnings.warn(
            f"alpha*L = {config.alpha * profile.L:.3g} exceeds the "
            f"{config.algorithm} guarantee cap {cap:.3g}; the adaptive rule "
            "is running outside its analyzed regime",
            stacklevel=2,
        )
    oracle = StochasticOracle(sigma_tilde=config.sigma_tilde, sigma_H=config.sigma_H)

    fixed_points = np.full((2, d), np.nan)  # w* and w_fo; NaN distances without them
    if family.kind == QUADRATIC:
        try:
            analysis = analyze_quadratic(family, config.alpha)
            fixed_points = np.stack([analysis.w_star, analysis.w_fo])
        except IllConditioned:
            pass  # degenerate alpha: log NaN distances

    # the exact full-batch MAML and FO-MAML steps are read off their iterate's
    # stage rows and draw no slots.  width is the most rows an iterate puts
    # into a stacked call: its stages, slot draws or stepsize draws
    swept = config.full_task_batch and oracle.exact and config.algorithm != HFMAML
    fused = swept and config.algorithm == MAML
    slots = 0 if swept else family.n_tasks if config.full_task_batch else config.batches.B
    width = max(family.n_tasks, slots, config.batches.B_prime if adaptive else 1)
    sites = slot_sites(config.algorithm, d, oracle, slots)  # a step's draws, the same at every k
    if slots and not config.full_task_batch:
        sites[TASKS] = ((path_key(b"", TASKS),), slots)
    if adaptive:
        sites.update(stepsize_sites(profile, config.alpha, config.batches.B_prime, d))
    undrawn = (None, (slice(None), {}) if slots else None)  # a step of a run that draws nothing
    root = RngStream(config.seed)
    w = w0.copy()
    n_rows = config.max_iters + 1
    grad_norms = np.empty(n_rows)
    losses = np.empty(n_rows)
    betas = np.full(n_rows, np.nan)
    trail = np.empty((n_rows, d))

    limit = DIVERGENCE_FACTOR * config.trust_radius
    stop_reason, last, failure = "max_iters", config.max_iters, None
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, k1 in row_blocks(n_rows, width, grow=config.target_grad_norm > 0.0):
            steps = range(k0, min(k1, config.max_iters))  # none in a block of the terminal row
            drawn = (_drawn_steps(family, config, profile, oracle, slots, sites,
                                  [path_key(root, k) for k in steps]) if sites and steps
                     else [undrawn] * len(steps))
            if swept:  # the stage rows of the block, filled as it steps
                adapted, outer = np.empty((2, k1 - k0, family.n_tasks, d))
                grad_F = np.empty((k1 - k0, d))
            for k in range(k0, k1):
                trail[k] = w
                if swept:
                    u, o = outer_stage(family, w, config.alpha)
                    adapted[k - k0], outer[k - k0] = u, o
                    if fused:
                        grad_F[k - k0] = hessian_stage(family, w, config.alpha, o)
                if k == config.max_iters:
                    break

                beta_draw, slot_draw = drawn[k - k0]
                if adaptive:
                    beta_k = config.stepsize.resolve_fraction(config.algorithm) * beta_sample(
                        family, profile, w, config.alpha, beta_draw)
                else:
                    beta_k = config.stepsize.beta
                betas[k] = beta_k

                if swept:
                    step_dir = grad_F[k - k0] if fused else family.weights @ o
                else:
                    step_dir = _slot_direction(family, config, w, profile.rho, slot_draw)

                w = w - beta_k * step_dir
                # inf for a finite w far enough out, non-finite for a non-finite w
                dw = w - w0
                dist = np.sqrt(dw.dot(dw))  # np.linalg.norm's float for a vector
                if not dist <= limit:  # raised once the block's rows before it are logged
                    if not np.all(np.isfinite(w)):
                        failure = NumericalFailure(f"non-finite iterate at iteration {k + 1}")
                    else:
                        failure = DivergenceDetected(
                            f"iterate left {DIVERGENCE_FACTOR:g}x trust region at iteration "
                            f"{k + 1} (||w - w0|| = {dist:.3g}, "
                            f"radius = {config.trust_radius:g})"
                        )
                    k1 = k + 1
                    break

            rows, m = slice(k0, k1), k1 - k0
            if not swept:  # the outer stage of the block's iterates at once
                adapted, outer = outer_stage(family, trail[rows], config.alpha)
            if not fused:  # and their Hessian stage
                grad_F = hessian_stage(family, trail[rows], config.alpha, outer[:m])
            grad_norms[rows] = np.sqrt(row_dots(grad_F[:m]))
            losses[rows] = adapted_value(family, adapted[:m])
            if config.target_grad_norm > 0.0:
                hits = np.flatnonzero(grad_norms[rows] <= config.target_grad_norm)
                if hits.size:
                    stop_reason, last = "target", k0 + int(hits[0])
                    betas[last] = np.nan  # the block stepped on past it
                    break
            if failure is not None:
                raise failure

        rows = slice(last + 1)
        d_star, d_fo = np.sqrt(row_dots(trail[rows] - fixed_points[:, None]))
    return RunRecord(
        algorithm=config.algorithm,
        seed=config.seed,
        alpha=config.alpha,
        grad_norm_F=grad_norms[rows],
        loss_F=losses[rows],
        beta=betas[rows],
        dist_wstar=d_star,
        dist_wfo=d_fo,
        stop_reason=stop_reason,
        iterates=trail[rows],
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
