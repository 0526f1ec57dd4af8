"""Executable audits of the measurable guarantees.

Each audit draws a Monte Carlo (or exhaustive) sample of the quantity a
guarantee controls, computes the stated bound from the smoothness
profile, and reports both with an explicit sampling margin.  Audits are
one-sided: they check measured <= bound + margin, so a loose bound can
never fail, and a failure always indicates a real violation (or an
undersized sample, which the margin accounts for at the 3- or 4-sigma
level).

The audits report through three rules: _gap_audit measures the distance
of a mean vector from an exact value (bias, surrogate gradient gap),
_mean_audit a scalar mean against a bound (second moments), and
_worst_audit the largest of deterministic ratios against 1 (probe error,
smoothness), whose points are (K, d) stacks, each row as that point alone.
The bias and second-moment audits sample FO-MAML's direction, and the
surrogate gap MAML's, through one sampler, meta_gradient.mc_direction_draws.

All audits are deterministic functions of their RngStream argument.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .meta_gradient import (
    FOMAML,
    exact_grad_F,
    hvp_finite_diff,
    mc_direction_draws,
    mc_grad_F_hat_draws,
    outer_stage,
    probe_delta,
)
from .numerics import RngStream, Vec, row_blocks, standard_normals
from .optimizer import OptimizerConfig, RunRecord, run
from .stepsize import sample_beta_tilde, smoothness_L_of_w
from .stochastic import INNER, OUTER, StochasticOracle
from .tasks import SmoothnessProfile, TaskFamily, ball_points


@dataclass(frozen=True)
class BoundAudit:
    """One measured quantity against one theoretical bound.

    passed (a property, in to_dict too) is measured <= bound + mc_margin.
    mc_margin is the sampling allowance (0 for exhaustive or deterministic audits).
    """

    name: str
    measured: float
    bound: float
    mc_margin: float
    samples: int

    def __post_init__(self):
        if self.mc_margin < 0.0:
            raise ValueError("mc_margin must be nonnegative")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")

    @property
    def passed(self) -> bool:
        return bool(self.measured <= self.bound + self.mc_margin)

    def to_dict(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "passed": self.passed}


def _gap_audit(name: str, draws: np.ndarray, exact: Vec, noiseless: bool, bound) -> BoundAudit:
    """||mean - exact|| with 4 standard errors of the mean vector, sqrt(trace(cov) / n).

    Noiseless draws each equal exact bit for bit, so the first row is their mean.
    """
    n = draws.shape[0]
    mean = draws[0] if noiseless else draws.mean(axis=0)
    return BoundAudit(name, float(np.linalg.norm(mean - exact)), float(bound),
                      4.0 * float(np.sqrt(draws.var(axis=0, ddof=1).sum() / n)), n)


def _mean_audit(name: str, values: np.ndarray, bound, k: float) -> BoundAudit:
    """The mean of values against bound, with k standard errors as the margin."""
    n = values.shape[0]
    return BoundAudit(name, float(values.mean()), float(bound),
                      k * float(values.std(ddof=1) / np.sqrt(n)), n)


def _worst_audit(name: str, ratios: np.ndarray) -> BoundAudit:
    """The largest of deterministic ratios against bound 1, with no margin."""
    return BoundAudit(name, float(np.max(ratios)), 1.0, 0.0, len(ratios))


def audit_bias(
    family: TaskFamily,
    w: Vec,
    alpha: float,
    D_in: int,
    D_o: int,
    n_mc: int,
    profile: SmoothnessProfile,
    rng: RngStream,
) -> BoundAudit:
    """Bias of the adapted-point gradient estimate.

    The estimate's conditional mean can differ from the exact adapted
    gradient only through the inner-step noise, which enters through an
    L-Lipschitz gradient scaled by alpha; the bound is therefore
    alpha * L * sigma_tilde / sqrt(D_in).  Outer noise is mean zero and
    only widens the Monte Carlo margin.
    """
    if n_mc < 2:
        raise ValueError("n_mc must be >= 2 to estimate a margin")
    st = profile.sigma_tilde
    sites = {INNER: ("inner", D_in, st), OUTER: ("outer", D_o, st)}
    draws = mc_direction_draws(FOMAML, family, w, alpha, n_mc, sites, rng)
    # reference through the same code path: at sigma_tilde = 0 every draw
    # is this row bit for bit and the measured bias is exactly zero
    exact = mc_direction_draws(FOMAML, family, w, alpha, 1, {}, rng)[0]
    return _gap_audit("estimator_bias", draws, exact, st == 0.0,
                      alpha * profile.L * st / np.sqrt(D_in))


def audit_second_moment(
    family: TaskFamily,
    w: Vec,
    alpha: float,
    D_in: int,
    D_o: int,
    phi: float,
    n_mc: int,
    profile: SmoothnessProfile,
    rng: RngStream,
) -> BoundAudit:
    """Second moment of the adapted-point gradient estimate.

    Splitting the estimate into its exact value plus noise-driven error
    gives, for any phi > 0,

        E||est||^2 <= (1 + 1/phi) ||grad f(w_in)||^2
                      + (1 + phi) alpha^2 L^2 sigma_tilde^2 / D_in
                      + sigma_tilde^2 / D_o

    task-weighted on both sides.
    """
    if phi <= 0.0:
        raise ValueError("phi must be positive")
    if n_mc < 2:
        raise ValueError("n_mc must be >= 2 to estimate a margin")
    st = profile.sigma_tilde
    sites = {INNER: ("inner", D_in, st), OUTER: ("outer", D_o, st)}
    sq = mc_direction_draws(FOMAML, family, w, alpha, n_mc, sites, rng, squares=True)
    exact_sq = np.linalg.norm(outer_stage(family, w, alpha)[1], axis=1) ** 2
    # float_power squares as float ** 2 does, but gives inf past the float range
    st2 = np.float_power(st, 2)
    bound = (
        (1.0 + 1.0 / phi) * float(family.weights @ exact_sq)
        + (1.0 + phi) * np.float_power(alpha * profile.L, 2) * st2 / D_in
        + st2 / D_o
    )
    return _mean_audit("estimator_second_moment", sq, bound, 4.0)


def audit_grad_gap_F_hat(
    family: TaskFamily,
    w: Vec,
    alpha: float,
    D_test: int,
    n_mc: int,
    profile: SmoothnessProfile,
    rng: RngStream,
) -> BoundAudit:
    """Gap between the evaluation-time surrogate gradient and the truth.

    The surrogate evaluates tasks through batch-D_test noisy oracles;
    its gradient deviates from the exact meta-gradient by at most
    2 alpha L sigma_tilde / sqrt(D_test)
    + alpha^2 L sigma_H sigma_tilde / D_test.
    """
    if n_mc < 2:
        raise ValueError("n_mc must be >= 2 to estimate a margin")
    oracle = StochasticOracle(sigma_tilde=profile.sigma_tilde, sigma_H=profile.sigma_H)
    draws = mc_grad_F_hat_draws(family, w, alpha, D_test, n_mc, oracle, rng)
    bound = (
        2.0 * alpha * profile.L * profile.sigma_tilde / np.sqrt(D_test)
        + np.float_power(alpha, 2) * profile.L * profile.sigma_H * profile.sigma_tilde / D_test
    )
    # noiseless rows are exact_grad_F bit for bit
    return _gap_audit("surrogate_grad_gap", draws, exact_grad_F(family, w, alpha), oracle.exact,
                      bound)


def audit_hvp_probe_error(
    family: TaskFamily,
    profile: SmoothnessProfile,
    alpha: float,
    center: Vec,
    radius: float,
    n_probes: int,
    rng: RngStream,
) -> BoundAudit:
    """Worst observed finite-difference curvature-probe error.

    For each probe: a random point in the trust ball, a random direction
    v, the production probe width delta, and the ratio of the actual
    error ||FD - hess(w) v|| to its guarantee rho * delta * ||v||^2.
    The audit is deterministic (the probe draws no noise), so the margin
    is zero and measured is the max ratio against bound 1.
    """
    if n_probes < 1:
        raise ValueError("n_probes must be >= 1")
    if profile.rho <= 0.0:
        raise ValueError("probe-error audit needs a curvature-variation bound rho > 0")
    points = ball_points(center, radius, n_probes, rng.child("points"))
    dirs = standard_normals(rng.child("dirs"), (n_probes, family.dim))
    idx = np.arange(n_probes) % family.n_tasks  # probe j tests task j mod n
    nv = np.sqrt(np.vecdot(dirs, dirs))
    delta = probe_delta(profile.rho, alpha, nv, points)
    fd = hvp_finite_diff(family, idx, points, dirs, delta)
    miss = fd - np.matvec(family.hessians(points, idx), dirs)
    err = np.sqrt(np.vecdot(miss, miss))
    # float_power squares through libm's pow, as float ** 2 does; nv**2 is nv * nv,
    # which rounds differently in about one case in a thousand
    allowed = profile.rho * delta * np.float_power(nv, 2)
    return _worst_audit("hvp_probe_error", err / allowed)


def audit_smoothness_ratio(
    family: TaskFamily,
    profile: SmoothnessProfile,
    alpha: float,
    center: Vec,
    radius: float,
    n_pairs: int,
    rng: RngStream,
) -> BoundAudit:
    """Two-point smoothness of the meta-objective inside the trust ball.

    Checks ||grad F(w) - grad F(u)|| <= min{L(w), L(u)} ||w - u|| on
    random pairs, with the state-dependent modulus
    L(w) = 4L + 2 rho alpha E_i ||grad f_i(w)||.  Deterministic: the
    margin is zero and measured is the worst ratio against bound 1.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    ws = ball_points(center, radius, n_pairs, rng.child("w"))
    us = ball_points(center, radius, n_pairs, rng.child("u"))
    ratios = np.zeros(n_pairs)
    # a window of pairs sweeps every task's Hessian at each of its points
    for r0, r1 in row_blocks(n_pairs, family.n_tasks):
        w, u = ws[r0:r1], us[r0:r1]
        dw = w - u
        sep = np.sqrt(np.vecdot(dw, dw))
        gap = exact_grad_F(family, w, alpha) - exact_grad_F(family, u, alpha)
        modulus = np.minimum(smoothness_L_of_w(family, profile, w, alpha),
                             smoothness_L_of_w(family, profile, u, alpha))
        # coincident draws carry no information: ratio 0
        np.divide(np.sqrt(np.vecdot(gap, gap)), modulus * sep, out=ratios[r0:r1], where=sep > 0.0)
    return _worst_audit("smoothness_ratio", ratios)


def audit_stepsize_moments(
    family: TaskFamily,
    profile: SmoothnessProfile,
    alpha: float,
    points: np.ndarray,
    B_prime: int,
    D_beta: int,
    n_samples: int,
    rng: RngStream,
) -> list[BoundAudit]:
    """First and second moments of the adaptive stepsize at given points.

    At each point w two one-sided checks are emitted: the mean is at
    least 0.8 / L(w) (recast as 0.8 / L(w) - mean <= 0) and the second
    moment is at most 3.125 / L(w)^2.  Margins are 3 standard errors.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2 to estimate a margin")
    audits, points = [], np.atleast_2d(points)
    l_ws = smoothness_L_of_w(family, profile, points, alpha).tolist()  # one float per point
    for j, (w, l_w) in enumerate(zip(points, l_ws)):
        samples = sample_beta_tilde(
            family, profile, w, alpha, B_prime, D_beta, n_samples, rng.child("point", j)
        )
        mean = float(samples.mean())
        se_mean = float(samples.std(ddof=1) / np.sqrt(n_samples))
        audits.append(
            BoundAudit(
                name=f"stepsize_mean_lower[{j}]",
                measured=0.8 / l_w - mean,
                bound=0.0,
                mc_margin=3.0 * se_mean,
                samples=n_samples,
            )
        )
        audits.append(_mean_audit(f"stepsize_second_moment[{j}]", samples**2,
                                  3.125 / np.float_power(l_w, 2), 3.0))
    return audits


def audit_kshot_floor(
    family: TaskFamily,
    alpha: float,
    K_list: list[int],
    config: OptimizerConfig,
    profile: SmoothnessProfile | None = None,
) -> list[tuple[int, float]]:
    """Convergence floor as a function of the inner-adaptation batch K.

    Runs the full second-order method with D_in = K for each K and
    reports the best-iterate exact meta-gradient norm.  With the task
    batch and outer batch sized large, the floor scales as 1/sqrt(K).
    """
    if list(K_list) != sorted(K_list) or len(K_list) == 0:
        raise ValueError("K_list must be nonempty and ascending")
    if any(k < 1 for k in K_list):
        raise ValueError("each K must be >= 1")
    floors = []
    for k in K_list:
        cfg = replace(config, alpha=alpha, batches=replace(config.batches, D_in=int(k)))
        rec: RunRecord = run(family, cfg, profile=profile)
        floors.append((int(k), rec.floor))
    return floors
