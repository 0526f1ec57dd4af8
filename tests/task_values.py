"""Per-task loss values, gradients and Hessians, written out on one task's
own arrays, for tests that check the stacked ``TaskFamily`` oracles
against them."""

import numpy as np

from metagrad.tasks import QuadraticTask


def task_value(task, w) -> float:
    """f(w) of one quadratic or rank-1 factorization task."""
    if isinstance(task, QuadraticTask):
        return float(0.5 * w @ task.A @ w + task.b @ w + task.c)
    # ||xx' - M||_F^2 expands to ||x||^4 - 2 x'Mx + ||M||_F^2.
    nx2 = float(w @ w)
    return 0.25 * (nx2 * nx2 - 2.0 * float(w @ task.M @ w) + float(np.sum(task.M * task.M)))


def task_grad(task, w) -> np.ndarray:
    """grad f(w): A w + b, or (x x' - M) x = ||x||^2 x - M x."""
    if isinstance(task, QuadraticTask):
        return task.A @ w + task.b
    return (w @ w) * w - task.M @ w


def task_hess(task, w) -> np.ndarray:
    """hess f(w): A, or ||x||^2 I + 2 x x' - M."""
    if isinstance(task, QuadraticTask):
        return task.A.copy()
    return (w @ w) * np.eye(task.dim) + 2.0 * np.outer(w, w) - task.M
