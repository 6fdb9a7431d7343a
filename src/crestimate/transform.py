"""Closed-form Fourier, sine, and cosine transforms of piecewise functions.

The transform convention is ``fhat(z) = integral f(x) exp(-i x z) dx``.
Every kernel here reads the segments ``(t0, t1, y0, y1)`` of
:mod:`crestimate.piecewise`, so each formula is written once.  A segment of
width ``w = t1 - t0`` contributes
``w * exp(-i t0 z) * (y0 * phi(w z) + (y1 - y0) * psi(w z))``; a step piece
is the case ``y1 - y0 = 0``, where only the ``phi`` term is left.  Here

    phi(u) = (1 - exp(-iu)) / (iu)       = sum_k (-iu)^k / (k+1)!
    psi(u) = (phi(u) - exp(-iu)) / (iu)  = sum_k (-iu)^k / (k! (k+2))

Both kernels switch to their power series when ``|u| = |z| * width`` drops
below 1e-4; the closed forms lose accuracy to cancellation there, the series
keeps the relative error of each piece contribution at or below about 1e-10.
The sine and cosine transforms are computed together, in one pass, from
separate real closed forms (so the identity ``fhat = Cf - i Sf`` is a
genuine cross-check of :func:`fourier`, not a tautology).

An adaptive Gauss-Kronrod oracle with oscillation-aware panel splitting is
included for independent verification of the closed forms; nothing in the
closed-form paths calls it.
"""

import math
from dataclasses import dataclass

from .errors import ValidationError, require_positive
from .piecewise import PiecewiseFunction, evaluate, integrate
from .quadrature import gauss_kronrod_adaptive

__all__ = [
    "fourier",
    "sine_transform",
    "cosine_transform",
    "fourier_quadrature_oracle",
    "window_bounds",
    "WindowBoundReport",
]

# |z| * width below this uses the series branch of phi/psi (keeps the
# cancellation error of each complex kernel below ~1e-10 relative).
PHASE_SERIES_CUTOFF = 1e-4
# the real trig kernels cancel at order u^2, so they switch earlier
_TRIG_SERIES_CUTOFF = 1e-2


def _phase(theta: float) -> complex:
    """exp(-i theta), built from cos/sin so conjugate symmetry is bit-exact."""
    return complex(math.cos(theta), -math.sin(theta))


def _phi(u: float) -> complex:
    if abs(u) < PHASE_SERIES_CUTOFF:
        w = complex(0.0, -u)
        # sum_k w^k / (k+1)!
        return 1.0 + w * (1 / 2 + w * (1 / 6 + w * (1 / 24 + w * (1 / 120 + w / 720))))
    re = 1.0 - math.cos(u)
    im = math.sin(u)
    # (re + i*im) / (i*u) done by hand: multiply by -i/u
    return complex(im / u, -re / u)


def _psi(u: float) -> complex:
    """psi(u) for |u| < PHASE_SERIES_CUTOFF; :func:`fourier` has the closed form."""
    w = complex(0.0, -u)
    # sum_k w^k / (k! (k+2))
    return 0.5 + w * (1 / 3 + w * (1 / 8 + w * (1 / 30 + w * (1 / 144 + w / 840))))


def fourier(f: PiecewiseFunction, z: float) -> complex:
    """Exact transform value fhat(z) for finite z; z = 0 gives the total integral.

    The sum of w exp(-i t0 z) (y0 phi(u) + (y1 - y0) psi(u)) over the
    segments, u = w z.  The closed forms of phi and psi and the complex
    products are spelled out on real and imaginary parts, as the same float
    operations the complex objects perform, less their products with the
    zero imaginary part of a real factor.  Those can only flip the sign of a
    zero, so the value compares equal and its magnitude has the same bits.
    """
    _require_finite(z)
    cutoff = PHASE_SERIES_CUTOFF
    cos, sin = math.cos, math.sin
    re = im = 0.0
    for t0, t1, y0, y1 in f.segments():
        if y0 == 0.0 and y1 == 0.0:
            continue
        w = t1 - t0
        u = w * z
        dy = y1 - y0
        if -cutoff < u < cutoff:
            phi, psi = _phi(u), _psi(u)
            d_re = y0 * phi.real + dy * psi.real
            d_im = y0 * phi.imag + dy * psi.imag
        else:
            cu, su = cos(u), sin(u)
            phi_re = su / u
            phi_im = -(1.0 - cu) / u
            d_re = y0 * phi_re + dy * ((phi_im + su) / u)
            d_im = y0 * phi_im + dy * (-(phi_re - cu) / u)
        a_re = w * cos(t0 * z)
        a_im = w * -sin(t0 * z)
        re += a_re * d_re - a_im * d_im
        im += a_re * d_im + a_im * d_re
    return complex(re, im)


def _require_finite(z: float) -> None:
    if not math.isfinite(z):
        raise ValidationError("z must be finite")


# --- real kernels: integral_0^w (..) over one piece in local coordinates ---
# c0 = int cos(tz)/w, s0 = int sin(tz)/w, c1 = int (t/w) cos(tz)/w, s1 likewise.

def _c0(u: float) -> float:
    if abs(u) < _TRIG_SERIES_CUTOFF:
        u2 = u * u
        return 1.0 - u2 / 6.0 + u2 * u2 / 120.0
    return math.sin(u) / u


def _s0(u: float) -> float:
    if abs(u) < _TRIG_SERIES_CUTOFF:
        u2 = u * u
        return u * (0.5 - u2 / 24.0 + u2 * u2 / 720.0)
    return (1.0 - math.cos(u)) / u


def _c1(u: float) -> float:
    if abs(u) < _TRIG_SERIES_CUTOFF:
        u2 = u * u
        return 0.5 - u2 / 8.0 + u2 * u2 / 144.0
    return (math.cos(u) + u * math.sin(u) - 1.0) / (u * u)


def _s1(u: float) -> float:
    if abs(u) < _TRIG_SERIES_CUTOFF:
        u2 = u * u
        return u * (1.0 / 3.0 - u2 / 30.0 + u2 * u2 / 840.0)
    return (math.sin(u) - u * math.cos(u)) / (u * u)


def _require_halfline(f: PiecewiseFunction) -> None:
    if f.support_min < 0.0:
        raise ValidationError(
            f"input must be supported on [0, oo); support starts at {f.support_min}"
        )


def _trig_pieces(f: PiecewiseFunction):
    """Yield (start, width, left value, value increment) per nonzero segment."""
    for t0, t1, y0, y1 in f.segments():
        if y0 != 0.0 or y1 != 0.0:
            yield t0, t1 - t0, y0, y1 - y0


def _sine_cosine(f: PiecewiseFunction, z: float) -> tuple[float, float]:
    """(Sf(z), Cf(z)) in one pass: two fsums over the same per-piece integrals."""
    sine_terms = []
    cosine_terms = []
    for a, w, y0, dy in _trig_pieces(f):
        u = w * z
        az = a * z
        ic = w * (y0 * _c0(u) + dy * _c1(u))
        is_ = w * (y0 * _s0(u) + dy * _s1(u))
        sin_az, cos_az = math.sin(az), math.cos(az)
        sine_terms.append(sin_az * ic + cos_az * is_)
        cosine_terms.append(cos_az * ic - sin_az * is_)
    return math.fsum(sine_terms), math.fsum(cosine_terms)


def sine_transform(f: PiecewiseFunction, z: float) -> float:
    """Sf(z) = integral_0^oo f(x) sin(xz) dx for f supported on [0, oo)."""
    _require_halfline(f)
    require_positive("z", z)
    return _sine_cosine(f, z)[0]


def cosine_transform(f: PiecewiseFunction, z: float) -> float:
    """Cf(z) = integral_0^oo f(x) cos(xz) dx for f supported on [0, oo)."""
    _require_halfline(f)
    require_positive("z", z)
    return _sine_cosine(f, z)[1]


def fourier_quadrature_oracle(
    f: PiecewiseFunction, z: float, tol: float, max_panels: int = 65536
) -> complex:
    """Independent check of :func:`fourier` by adaptive Gauss-Kronrod.

    The integrand is sampled through :func:`evaluate` only.  Initial panels
    never exceed min(piece width, pi / (4|z|)), so each panel sees at most a
    fraction of an oscillation and the embedded error estimate is reliable;
    panels are then bisected until the estimated absolute error is below
    ``tol`` or the budget of ``max_panels`` panels is exhausted.
    """
    require_positive("tol", tol)
    _require_finite(z)
    cap = math.pi / (4.0 * abs(z)) if z != 0.0 else math.inf
    panels: list[tuple[float, float]] = []
    for a, w, _, _ in _trig_pieces(f):
        k = max(1, math.ceil(w / cap)) if math.isfinite(cap) else 1
        step = w / k
        for i in range(k):
            panels.append((a + i * step, a + (i + 1) * step))
    if not panels:
        return 0.0 + 0.0j

    def integrand(x: float) -> complex:
        return evaluate(f, x) * _phase(x * z)

    value, _ = gauss_kronrod_adaptive(integrand, panels, tol, max_panels=max_panels)
    return value


@dataclass(frozen=True)
class WindowBoundReport:
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
    _require_halfline(f)
    half_pi = math.pi / (2.0 * z)
    sine_value, cosine_value = _sine_cosine(f, z)
    return WindowBoundReport(
        z=z,
        sine_value=sine_value,
        sine_narrow_rhs=integrate(f, 0.0, half_pi),
        sine_wide_rhs=integrate(f, 0.0, math.pi / z),
        cosine_value=cosine_value,
        cosine_rhs=integrate(f, 0.0, 3.0 * half_pi),
    )
