"""Exception types, and the scalar argument rules shared across the package.

Each scalar rule is one function here and raises ``ValidationError``:
``require_positive``, ``require_positive_int`` and ``require_not_nan``.
"""

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


def require_positive_int(name: str, n: int) -> None:
    """Reject n unless it is an ``int`` of at least 1; bools and floats never pass."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValidationError(f"{name} must be a positive integer")


def require_not_nan(name: str, x: float) -> None:
    """Reject nan; the infinities pass."""
    if x != x:
        raise ValidationError(f"{name} must not be nan")
