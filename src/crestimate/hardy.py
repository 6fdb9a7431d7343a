"""Weighted running-integral (Hardy) bounds for the transform of a
nonincreasing function.

For f nonnegative and nonincreasing on [0, oo) the pointwise bound
``|fhat(z)| <= (pi/2) sqrt(10) integral_0^{1/z} f`` turns any weighted
estimate of the running integral into a weighted estimate of the transform:

    ( int_0^oo |fhat(z)|^q u(z) dz )^{1/q}
        <= (pi/2) sqrt(10) * ( int_0^oo ( int_0^{1/z} f )^q u(z) dz )^{1/q},

and the right-hand integral equals, after the substitution z -> 1/z,
``int_0^oo ( int_0^z f )^q u(1/z) / z^2 dz`` -- the classical weighted
inequality for the running integral.  Both forms are available and agree.

Weights are compactly supported step functions, so every integral over
(0, oo) truncates exactly at the weight's support; that restriction is the
price of certifiable quadrature (adaptive Gauss-Kronrod 7/15, one call per
weight piece, relative tolerance 1e-8, hard panel cap 2**20, failures
surface as errors rather than inaccurate numbers).
"""

import math
from typing import NamedTuple

from .errors import CrestimateError, ValidationError, require_positive
from .lemmas import HALF_PI_SQRT_10
from .piecewise import (
    PiecewiseFunction,
    StepFunction,
    integrate,
    require_halfline_support,
    require_nonincreasing_on_halfline,
    require_weight,
)
from .quadrature import gauss_kronrod_adaptive
from .rearrange import lorentz_lambda_norm
from .transform import fourier

__all__ = [
    "HardyReport",
    "hardy_operator",
    "hardy_lhs",
    "fourier_weighted_norm",
    "hardy_chain_report",
]

QUADRATURE_REL_TOL = 1e-8
_MAX_PANELS = 2**20
# weights must keep clear of z = 0 when q < 1 (the substituted 1/z^2 form
# is not certifiable arbitrarily close to the origin there)
_ORIGIN_MARGIN = 1e-6


def hardy_operator(f: PiecewiseFunction, z: float) -> float:
    """The running integral int_0^z f, exact, for z > 0 (z = inf gives the mass)."""
    require_positive("z", z, inf_ok=True)
    require_halfline_support(f)
    return integrate(f, 0.0, z)


def _require_weight(u: StepFunction, q: float) -> None:
    # the public entry points call this once; the _..._with_error cores do not
    require_positive("q", q)
    require_weight(u, "u")
    if q < 1.0 and u.support_min < _ORIGIN_MARGIN:
        raise ValidationError(
            f"for q < 1 the weight u support must start at or above {_ORIGIN_MARGIN:g}"
        )


def _panels(lo: float, hi: float, cuts) -> list[tuple[float, float]]:
    """[lo, hi] split at the cuts inside it."""
    pts = [lo, *sorted({x for x in cuts if lo < x < hi}), hi]
    return [(p0, p1) for p0, p1 in zip(pts, pts[1:]) if p1 > p0]


def _weighted_integral(u: StepFunction, integrand, panels_of) -> tuple[float, float]:
    """Weighted sum of adaptive Gauss-Kronrod integrals, as (integral, error estimate).

    Each positive piece [a, b) of u contributes its value times the integral
    of ``integrand`` over the panels ``panels_of(a, b)`` lists.
    """
    acc = err = 0.0
    for a, b, uv in u.pieces():
        if uv > 0.0:
            part, perr = gauss_kronrod_adaptive(
                integrand, panels_of(a, b), rel_tol=QUADRATURE_REL_TOL, max_panels=_MAX_PANELS
            )
            acc += uv * part
            err += uv * perr
    return acc, err


def _hardy_lhs_with_error(
    f: PiecewiseFunction, u: StepFunction, q: float, form: str
) -> tuple[float, float]:
    total_mass = integrate(f, 0.0, math.inf)
    kinks = [x for x in f.edges if x > 0.0]
    if form == "substituted":
        # int ( int_0^{1/z} f )^q u(z) dz ; the inner integral saturates to
        # the total mass as z -> 0, so the integrand extends continuously.
        def integrand(z: float) -> float:
            saturated = total_mass if z == 0.0 else integrate(f, 0.0, 1.0 / z)
            return saturated**q

        def panels_of(a, b):
            return _panels(a, b, [1.0 / x for x in kinks])

    elif form == "printed":
        # int ( int_0^z f )^q u(1/z)/z^2 dz over z in [1/b, 1/a] per piece
        if u.support_min <= 0.0:
            raise ValidationError(
                "the 1/z^2 form needs the weight support to stay away from 0"
            )

        def integrand(z: float) -> float:
            return integrate(f, 0.0, z) ** q / (z * z)

        def panels_of(a, b):
            return _panels(1.0 / b, 1.0 / a, kinks)

    else:
        raise ValidationError(f"unknown form {form!r} (use 'substituted' or 'printed')")
    acc, err = _weighted_integral(u, integrand, panels_of)
    return acc ** (1.0 / q), err


def hardy_lhs(
    f: PiecewiseFunction, u: StepFunction, q: float, form: str = "substituted"
) -> float:
    """Weighted q-norm of the saturating running integral of f.

    ``form='substituted'`` evaluates
    ``( int ( int_0^{1/z} f )^q u(z) dz )^{1/q}``; ``form='printed'``
    evaluates the equivalent ``( int ( int_0^z f )^q u(1/z)/z^2 dz )^{1/q}``
    (which additionally needs the weight support to avoid the origin).
    """
    require_nonincreasing_on_halfline(f)
    _require_weight(u, q)
    value, _ = _hardy_lhs_with_error(f, u, q, form)
    return value


def _fourier_weighted_norm_with_error(
    f: PiecewiseFunction, u: StepFunction, q: float
) -> tuple[float, float]:
    if f.is_zero:
        return 0.0, 0.0
    # |fhat| oscillates on the z-scale pi / x_extent; start below that.
    x_extent = max(abs(f.support_min), abs(f.support_max), 1e-9)

    def integrand(z: float) -> float:
        return abs(fourier(f, z)) ** q

    def panels_of(a, b):
        splits = min(max(1, math.ceil((b - a) * x_extent / (0.5 * math.pi))), 4096)
        edges = [a + (b - a) * i / splits for i in range(splits)] + [b]
        return list(zip(edges, edges[1:]))

    acc, err = _weighted_integral(u, integrand, panels_of)
    return acc ** (1.0 / q), err


def fourier_weighted_norm(f: PiecewiseFunction, u: StepFunction, q: float) -> float:
    """( int |fhat(z)|^q u(z) dz )^{1/q} against a compact step weight."""
    _require_weight(u, q)
    value, _ = _fourier_weighted_norm_with_error(f, u, q)
    return value


class HardyReport(NamedTuple):
    """Both sides of the weighted transform estimate for a decreasing input.

    ``fourier_weighted_norm <= chain_constant * hardy_middle`` is the
    unconditional link; ``hardy_to_lambda_ratio`` = hardy_middle/lambda_rhs
    lets a user who knows a weighted running-integral constant C read off the
    implied transform constant C * (pi/2) sqrt(10).
    """

    fourier_weighted_norm: float
    hardy_middle: float
    lambda_rhs: float
    chain_constant: float
    p: float
    q: float
    chain_ratio: float
    hardy_to_lambda_ratio: float
    fourier_quadrature_error: float
    hardy_quadrature_error: float

    def to_json_dict(self) -> dict:
        return self._asdict()


_CHAIN_TOLERANCE = 1e-6


def hardy_chain_report(
    f: PiecewiseFunction, u: StepFunction, v: StepFunction, p: float, q: float
) -> HardyReport:
    """Evaluate the full chain for a nonincreasing f and weights u, v."""
    require_nonincreasing_on_halfline(f)
    _require_weight(u, q)
    lam = lorentz_lambda_norm(f, v, p)  # checks p and v
    if lam == 0.0:
        raise ValidationError("the weight v must not vanish wherever f* is positive")
    fn, ferr = _fourier_weighted_norm_with_error(f, u, q)
    middle, herr = _hardy_lhs_with_error(f, u, q, "substituted")
    if fn > HALF_PI_SQRT_10 * middle * (1.0 + _CHAIN_TOLERANCE):
        raise CrestimateError(
            "internal inconsistency: the weighted transform norm exceeded "
            f"{HALF_PI_SQRT_10:.6f} times the running-integral norm "
            f"({fn:.12g} > {HALF_PI_SQRT_10 * middle:.12g})"
        )
    return HardyReport(
        fourier_weighted_norm=fn,
        hardy_middle=middle,
        lambda_rhs=lam,
        chain_constant=HALF_PI_SQRT_10,
        p=p,
        q=q,
        chain_ratio=fn / (HALF_PI_SQRT_10 * middle) if middle > 0.0 else math.nan,
        hardy_to_lambda_ratio=middle / lam,
        fourier_quadrature_error=ferr,
        hardy_quadrature_error=herr,
    )
