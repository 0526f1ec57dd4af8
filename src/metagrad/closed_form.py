"""Closed-form meta-learning solutions on quadratic families.

For f_i(w) = 0.5 w'A_i w + b_i'w + c_i the adapted objective is itself
quadratic, so the stationary point solves a linear system:

    [sum_i p_i (I - a A_i)^2 A_i] w* = -[sum_i p_i (I - a A_i)^2 b_i].

Dropping one (I - a A_i) factor gives the fixed point of the first-order
iteration map, independent of the outer stepsize:

    [sum_i p_i (I - a A_i) A_i] w_fo = -[sum_i p_i (I - a A_i) b_i].

On a heterogeneous family the two differ, and ||grad F(w_fo)|| is the
exact convergence floor that the first-order method cannot descend
below.  Both coefficient matrices are symmetric positive definite when
alpha < 1 / max_i ||A_i||; a Cholesky factorization checks that, and
the solve is refined iteratively down to a 1e-12 residual.  Each sum over
tasks is one stack of task terms, added in task order by task_order_sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned
from .meta_gradient import exact_grad_F
from .numerics import Mat, Vec, task_order_sum
from .tasks import QUADRATIC, TaskFamily

RESIDUAL_TOL = 1e-12


def _solve_spd(h: Mat, rhs: Vec) -> Vec:
    """Solve h x = rhs for symmetric positive definite h to tight residual."""
    if not (np.isfinite(h).all() and np.isfinite(rhs).all()):
        raise IllConditioned("linear system has a non-finite entry")
    try:
        np.linalg.cholesky(h)  # the positive-definiteness check
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"coefficient matrix is not positive definite: {exc}") from exc
    scale = max(1.0, float(np.linalg.norm(rhs)))
    try:  # LU can still meet an exact zero pivot on a matrix that Cholesky passed
        x = np.linalg.solve(h, rhs)
        for _ in range(3):  # iterative refinement, usually a no-op
            r = rhs - h @ x
            if float(np.linalg.norm(r)) <= RESIDUAL_TOL * scale:
                return x
            x = x + np.linalg.solve(h, r)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"linear solve failed: {exc}") from exc
    if float(np.linalg.norm(rhs - h @ x)) > RESIDUAL_TOL * scale:
        raise IllConditioned("linear solve residual exceeds 1e-12 after refinement")
    return x


def _weighted_systems(family: TaskFamily, alpha: float):
    """Coefficient matrices and right-hand sides of both linear systems.

    An alpha too large for float64 overflows them to non-finite entries,
    which _solve_spd refuses.
    """
    if family.kind != QUADRATIC:
        raise ValueError("closed forms exist only for quadratic families")
    A, p = family._As, family.weights[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.eye(family.dim) - alpha * A  # (n, d, d), task i's I - alpha A_i
        m2 = m @ m
        meta_m, fo_m = (task_order_sum(p[:, None] * (x @ A)) for x in (m2, m))
        meta_r, fo_r = (task_order_sum(p * np.matvec(x, family._bs)) for x in (m2, m))
    # Polynomials in symmetric A_i are symmetric; kill rounding skew.
    return 0.5 * (meta_m + meta_m.T), meta_r, 0.5 * (fo_m + fo_m.T), fo_r


@dataclass(frozen=True)
class QuadraticAnalysis:
    """Both fixed points, the floor separating them, and the system matrices."""

    w_star: Vec
    w_fo: Vec
    fo_gap: float
    meta_matrix: Mat
    fo_matrix: Mat


def analyze_quadratic(family: TaskFamily, alpha: float) -> QuadraticAnalysis:
    """Solve both systems once and package the fixed points and floor."""
    meta_m, meta_r, fo_m, fo_r = _weighted_systems(family, alpha)
    w_star = _solve_spd(meta_m, -meta_r)
    w_fo = _solve_spd(fo_m, -fo_r)
    gap = float(np.linalg.norm(exact_grad_F(family, w_fo, alpha)))
    return QuadraticAnalysis(w_star=w_star, w_fo=w_fo, fo_gap=gap, meta_matrix=meta_m,
                             fo_matrix=fo_m)
