"""Reference quadratures that the tests check the library against.

The Gauss-Kronrod engine is the one ``crestimate.quadrature`` ran before its
refinement became one loop, kept apart from names; it takes an absolute and
a relative tolerance.  On it sit the Hardy integral in both of its forms,
the form the library evaluates and the printed ``1/z^2`` form, and the
transform ``fhat(z)``, which samples f through ``evaluate`` only, so nothing
of the closed-form paths in ``crestimate.transform`` enters it.
"""

import heapq
import math

from crestimate import ConvergenceError, ValidationError, evaluate, integrate
from crestimate.hardy import QUADRATURE_REL_TOL
from crestimate.quadrature import _GK15


def gk_panel(fn, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc_g = 0.0
    acc_k = 0.0
    for xi, wg, wk in _GK15:
        fx = fn(mid + half * xi)
        if wg != 0.0:
            acc_g += wg * fx
        acc_k += wk * fx
    value = acc_k * half
    err = abs((acc_k - acc_g) * half)
    return value, err


def gauss_kronrod(fn, panels, abs_tol, max_panels=65536, rel_tol=0.0):
    if len(panels) > max_panels:
        raise ConvergenceError("initial panel count exceeds the budget")
    heap = []
    counter = 0
    total = 0.0
    total_err = 0.0
    for a, b in panels:
        val, err = gk_panel(fn, a, b)
        heapq.heappush(heap, (-err, counter, a, b, val, err))
        counter += 1
        total += val
        total_err += err
    while total_err > abs_tol + rel_tol * abs(total):
        if len(heap) >= max_panels:
            raise ConvergenceError("panel budget exhausted")
        neg_err, _, a, b, val, err = heapq.heappop(heap)
        total -= val
        total_err -= err
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            v, e = gk_panel(fn, lo, hi)
            heapq.heappush(heap, (-e, counter, lo, hi, v, e))
            counter += 1
            total += v
            total_err += e
    return total, total_err


def split_panels(lo, hi, candidates):
    pts = [lo, *sorted({x for x in candidates if lo < x < hi}), hi]
    return [(p0, p1) for p0, p1 in zip(pts, pts[1:]) if p1 > p0]


def hardy_lhs_with_error(f, u, q, form):
    """``( int ( int_0^{1/z} f )^q u(z) dz )^{1/q}`` and its error estimate
    (``form="substituted"``), or the same integral after z -> 1/z,
    ``( int ( int_0^z f )^q u(1/z)/z^2 dz )^{1/q}`` (``form="printed"``,
    for weights whose support keeps clear of 0)."""
    total_mass = integrate(f, 0.0, math.inf)
    kinks = [x for x in f.edges if x > 0.0]
    acc = 0.0
    err = 0.0
    if form == "substituted":

        def inner(z):
            saturated = total_mass if z == 0.0 else integrate(f, 0.0, 1.0 / z)
            return saturated**q

        for a, b, uv in u.pieces():
            if uv == 0.0:
                continue
            part, perr = gauss_kronrod(
                inner,
                split_panels(a, b, [1.0 / x for x in kinks]),
                0.0,
                2**20,
                rel_tol=QUADRATURE_REL_TOL,
            )
            acc += uv * part
            err += uv * perr
    else:

        def outer(z):
            return integrate(f, 0.0, z) ** q / (z * z)

        for a, b, uv in u.pieces():
            if uv == 0.0:
                continue
            part, perr = gauss_kronrod(
                outer, split_panels(1.0 / b, 1.0 / a, kinks), 0.0, 2**20, rel_tol=QUADRATURE_REL_TOL
            )
            acc += uv * part
            err += uv * perr
    return acc ** (1.0 / q), err


def fourier_quadrature_oracle(f, z, tol):
    """fhat(z) = int f(x) exp(-i x z) dx to the absolute tolerance ``tol``.

    Each nonzero segment of f starts as panels at most pi / (4|z|) wide, so a
    panel sees at most an eighth of an oscillation and its embedded error
    estimate is reliable.
    """
    if not math.isfinite(z):
        raise ValidationError("z must be finite")
    panels = []
    for t0, t1, y0, y1 in f.segments():
        if y0 == 0.0 and y1 == 0.0:
            continue
        k = max(1, math.ceil((t1 - t0) * 4.0 * abs(z) / math.pi))
        step = (t1 - t0) / k
        panels += [(t0 + i * step, t0 + (i + 1) * step) for i in range(k)]
    if not panels:
        return 0j

    def integrand(x):
        return evaluate(f, x) * complex(math.cos(x * z), -math.sin(x * z))

    value, _ = gauss_kronrod(integrand, panels, tol)
    return value
