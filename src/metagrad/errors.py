"""Error types shared across the package.

The closed-form quadratic solver raises IllConditioned when a system
matrix is not positive definite or its solve misses the residual
tolerance.  Configuration validation raises InvalidBatchConfig
when batch sizes violate a precondition of the adaptive stepsize rule or
of the convergence guarantees.  The optimizer raises DivergenceDetected
or NumericalFailure when a run leaves its trust region or produces
non-finite iterates.
"""


class MetagradError(Exception):
    """Base class for all package-specific errors."""


class IllConditioned(MetagradError):
    """A linear system is singular, indefinite, or unsolvable to tolerance."""


class InvalidBatchConfig(MetagradError):
    """Batch sizes violate a stated precondition."""


class ConfigError(MetagradError):
    """An experiment configuration is malformed or inconsistent."""


class DivergenceDetected(MetagradError):
    """An optimizer iterate left the allowed region around the start point."""


class NumericalFailure(MetagradError):
    """A non-finite value (NaN or inf) appeared during optimization."""
