"""Exception types, and the positivity check, shared across the package."""

import math


class CrestimateError(Exception):
    """Base class for all library errors."""


class ValidationError(CrestimateError, ValueError):
    """Invalid construction data or a violated precondition."""


class ZeroFunctionError(ValidationError):
    """Identically-zero input where a nonzero function is required."""


class ConvergenceError(CrestimateError, RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget."""


def require_positive(name: str, x: float, inf_ok: bool = False) -> None:
    """Reject x unless 0 < x < inf, or x = inf when ``inf_ok``; nan never passes."""
    if inf_ok:
        if not 0.0 < x <= math.inf:
            raise ValidationError(f"{name} must be positive")
    elif not 0.0 < x < math.inf:
        raise ValidationError(f"{name} must be positive and finite")
