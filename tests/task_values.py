"""Per-task loss values, for tests that check the task gradients and the
stacked ``TaskFamily.values_rowwise`` against them."""

import numpy as np

from metagrad.tasks import QuadraticTask


def task_value(task, w) -> float:
    """f(w) of one quadratic or rank-1 factorization task."""
    if isinstance(task, QuadraticTask):
        return float(0.5 * w @ task.A @ w + task.b @ w + task.c)
    # ||xx' - M||_F^2 expands to ||x||^4 - 2 x'Mx + ||M||_F^2.
    nx2 = float(w @ w)
    return 0.25 * (nx2 * nx2 - 2.0 * float(w @ task.M @ w) + float(np.sum(task.M * task.M)))
