"""The paper's lemmas with the constant (pi/2) sqrt(10), behind its crest bound
and the weighted estimates of :mod:`crestimate.hardy`: for f nonnegative and
nonincreasing on [0, oo), and for f cresting once, at b,

    |fhat(z)| <= (pi/2) sqrt(10) integral_0^{1/z} f                (z > 0),
    |fhat(z)| <= (pi/2) sqrt(10) integral_{b-1/z}^{b+1/z} f,

and the windows bounding the sine and cosine transforms of a nonincreasing f.
Each lemma's two sides are computed in one place, as lists over z, for the
one-z functions here and the suites of :mod:`crestimate.verify`.

Sf and Cf are computed together from separate real closed forms: per piece,
phases at its uncentred left edge and the four kernels of ``_piece`` (four
trig calls), kept so on purpose.  Their rounding is not the segment loop's, so
``fhat = Cf - i Sf`` is a genuine cross-check of :func:`~crestimate.transform.fourier`.
"""

import math
from typing import NamedTuple

from .errors import ValidationError, require_positive
from .piecewise import PiecewiseFunction, integrate, require_halfline_support
from .piecewise import require_nonincreasing_on_halfline
from .transform import _nonzero_segments, _piece, _require_finite_phase, fourier

__all__ = [
    "HALF_PI_SQRT_10",
    "check_decreasing_bound",
    "check_one_crest_bound",
    "sine_transform",
    "cosine_transform",
    "window_bounds",
    "WindowBoundReport",
]

HALF_PI_SQRT_10 = 0.5 * math.pi * math.sqrt(10.0)


def check_decreasing_bound(f: PiecewiseFunction, z: float) -> tuple[float, float]:
    """(lhs, rhs) of |fhat(z)| <= (pi/2) sqrt(10) integral_0^{1/z} f for f
    nonincreasing on [0, oo); contract: lhs <= rhs."""
    require_nonincreasing_on_halfline(f)
    require_positive("z", z)
    (lhs,), (rhs,) = _halfline_sides(f, [z])
    return lhs, rhs


def check_one_crest_bound(f: PiecewiseFunction, z: float) -> tuple[float, float, float]:
    """(lhs, rhs, b): |fhat(z)| against the window integral around the crest.

    Requires f to crest exactly once at some b; then
    lhs = |fhat(z)| <= (pi/2) sqrt(10) integral_{b-1/z}^{b+1/z} f = rhs.
    """
    from .crests import decompose  # loaded on first use: hardy needs only the constant

    require_positive("z", z)
    report = decompose(f)
    if report.count != 1:
        raise ValidationError(f"input must crest exactly once (found {report.count} crests)")
    b = report.crest_locations[0]
    (lhs,), (rhs,) = _one_crest_sides(f, [z], b)
    return lhs, rhs, b


def _halfline_sides(f: PiecewiseFunction, zs: list) -> tuple[list, list]:
    """|fhat(z)| and (pi/2) sqrt(10) times f's integral over [0, 1/z]."""
    lhs = [abs(fourier(f, z)) for z in zs]
    return lhs, [HALF_PI_SQRT_10 * integrate(f, 0.0, 1.0 / z) for z in zs]


def _one_crest_sides(f: PiecewiseFunction, zs: list, b: float) -> tuple[list, list]:
    """|fhat(z)| and (pi/2) sqrt(10) times f's integral over [b - 1/z, b + 1/z]."""
    windows = [integrate(f, b - 1.0 / z, b + 1.0 / z) for z in zs]
    return [abs(fourier(f, z)) for z in zs], [HALF_PI_SQRT_10 * w for w in windows]


def _sine_cosine(f: PiecewiseFunction, zs: list) -> list:
    """``(Sf(z), Cf(z))`` at each z > 0 of ``zs``: two fsums over the same
    per-piece integrals.  f is on [0, oo), so every start and width is at most
    its ``support_max``: the phases are checked once, at the largest z."""
    _require_finite_phase(f.support_max, max(zs))
    segments = _nonzero_segments(f)
    pairs = []
    for z in zs:
        sine_terms, cosine_terms = [], []
        for a, t1, y0, y1 in segments:
            w = t1 - a
            dy = y1 - y0
            c0, s0, c1, s1 = _piece(w * z)
            az = a * z
            ic = w * (y0 * c0 + dy * c1)
            is_ = w * (y0 * s0 + dy * s1)
            sin_az, cos_az = math.sin(az), math.cos(az)
            sine_terms.append(sin_az * ic + cos_az * is_)
            cosine_terms.append(cos_az * ic - sin_az * is_)
        pairs.append((math.fsum(sine_terms), math.fsum(cosine_terms)))
    return pairs


def sine_transform(f: PiecewiseFunction, z: float) -> float:
    """Sf(z) = integral_0^oo f(x) sin(xz) dx for f supported on [0, oo)."""
    require_halfline_support(f)
    require_positive("z", z)
    return _sine_cosine(f, [z])[0][0]


def cosine_transform(f: PiecewiseFunction, z: float) -> float:
    """Cf(z) = integral_0^oo f(x) cos(xz) dx for f supported on [0, oo)."""
    require_halfline_support(f)
    require_positive("z", z)
    return _sine_cosine(f, [z])[0][1]


class WindowBoundReport(NamedTuple):
    """Sine/cosine transform values next to their window comparisons.

    For a nonincreasing f on [0, oo) the alternating-series argument gives
    ``Sf(z) <= integral_0^{pi/z} f`` and ``|Cf(z)| <= integral_0^{3pi/(2z)} f``.
    The narrow sine window ``integral_0^{pi/(2z)} f`` looks like a natural
    tightening but is false in general: a box on [0, c] with c z = pi
    exceeds it by the factor 4/pi.  It is still recorded here so the
    verification suites can report the violations explicitly.
    """

    z: float
    sine_value: float
    sine_narrow_rhs: float
    sine_wide_rhs: float
    cosine_value: float
    cosine_rhs: float


def window_bounds(f: PiecewiseFunction, z: float) -> WindowBoundReport:
    """Evaluate Sf, Cf and their comparison windows at finite z > 0."""
    require_positive("z", z)
    require_halfline_support(f)
    return _window_bounds(f, [z])[0]


def _window_bounds(f: PiecewiseFunction, zs: list) -> list:
    """:func:`window_bounds` at each z > 0 of ``zs``."""
    reports = []
    for z, (sine, cosine) in zip(zs, _sine_cosine(f, zs)):
        half_pi = math.pi / (2.0 * z)
        windows = integrate(f, 0.0, half_pi), integrate(f, 0.0, math.pi / z)
        cosine_rhs = integrate(f, 0.0, 3.0 * half_pi)
        reports.append(WindowBoundReport(z, sine, *windows, cosine, cosine_rhs))
    return reports
