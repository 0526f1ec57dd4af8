"""Meta-learning optimizers with exact analysis oracles on synthetic tasks.

The package implements MAML, its first-order variant FO-MAML, and the
Hessian-free variant HF-MAML on finite families of synthetic tasks
(quadratics and rank-1 matrix factorization), together with closed-form
and Monte Carlo oracles that verify the moment bounds, stepsize rules,
and convergence floors the algorithms are built on.
"""

from .errors import (
    DivergenceDetected,
    IllConditioned,
    InvalidBatchConfig,
    MetagradError,
    NumericalFailure,
)
from .numerics import RngStream, spectral_norm

__all__ = [
    "DivergenceDetected",
    "IllConditioned",
    "InvalidBatchConfig",
    "MetagradError",
    "NumericalFailure",
    "RngStream",
    "spectral_norm",
]
