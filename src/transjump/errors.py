"""Exception types shared across the package."""

import numpy as np


class TransjumpError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(TransjumpError, ValueError):
    """A parameter is outside its mathematical domain."""


class NumericError(TransjumpError, ArithmeticError):
    """A numerical operation failed (factorization, convergence, overflow)."""


class SingularCovarianceError(NumericError):
    """Covariance matrix is singular; noise injection is required."""


class StructureError(TransjumpError):
    """A chain or matrix violates a structural requirement (e.g. reducibility)."""


class SolverError(NumericError):
    """A root/quantile solver could not bracket or reach its tolerance."""


class GenerationError(TransjumpError):
    """Synthetic data generation failed to satisfy its validity conditions."""


class TraceParseError(TransjumpError):
    """A persisted file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def require_finite(name: str, values: np.ndarray) -> None:
    """Raise ParameterError naming the first non-finite entry of ``values``."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        where = f"row {idx[0]}, column {idx[1]}" if len(idx) == 2 else f"entry {idx[0]}"
        raise ParameterError(f"{name} must be finite; {where} (from 0) is {values[idx]}")
