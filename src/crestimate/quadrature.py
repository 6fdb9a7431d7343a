"""Adaptive Gauss-Kronrod quadrature, used only where no closed form exists:
the transform oracle and the two weighted integrals of :mod:`crestimate.hardy`.

One panel rule, Gauss-Kronrod 7/15, and one refinement loop,
:func:`gauss_kronrod_adaptive`, which runs QUADPACK's global adaptive strategy
(Piessens et al., 1983): bisect the panel with the worst embedded error
estimate first, and raise :class:`ConvergenceError` on budget exhaustion
instead of ever returning a silently inaccurate value.  Callers pre-split
the panels where the integrand is not smooth: the transform oracle below its
oscillation scale, against an absolute tolerance; :mod:`crestimate.hardy` at
the kinks of its integrands, against the relative tolerance 1e-8 with a cap
of 2**20 panels.
"""

import heapq
import math
from typing import Callable

from .errors import ConvergenceError, require_positive
from .piecewise import PiecewiseFunction, evaluate
from .transform import _nonzero_segments, _phase, _require_finite_phase

# node, Gauss weight, Kronrod weight
_GK15 = (
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (0.000000000000000, 0.417959183673469, 0.209482141084728),
    (+0.991455371120813, 0.000000000000000, 0.022935322010529),
    (-0.991455371120813, 0.000000000000000, 0.022935322010529),
    (+0.864864423359769, 0.000000000000000, 0.104790010322250),
    (-0.864864423359769, 0.000000000000000, 0.104790010322250),
    (+0.586087235467691, 0.000000000000000, 0.169004726639267),
    (-0.586087235467691, 0.000000000000000, 0.169004726639267),
    (+0.207784955007898, 0.000000000000000, 0.204432940075298),
    (-0.207784955007898, 0.000000000000000, 0.204432940075298),
)


def _gk_panel(fn, a: float, b: float):
    """(Kronrod value, |Kronrod - Gauss|) on [a, b]; real for a real fn."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc_g = 0.0
    acc_k = 0.0
    for xi, wg, wk in _GK15:
        fx = fn(mid + half * xi)
        if wg != 0.0:
            acc_g += wg * fx
        acc_k += wk * fx
    return acc_k * half, abs((acc_k - acc_g) * half)


def gauss_kronrod_adaptive(
    fn: Callable[[float], complex],
    panels: list[tuple[float, float]],
    abs_tol: float = 0.0,
    rel_tol: float = 0.0,
    max_panels: int = 65536,
) -> tuple[complex, float]:
    """Integrate fn over the given disjoint panels; return (integral, error_estimate).

    The worst panel is bisected until the summed estimate is at most
    ``abs_tol + rel_tol * |integral|``; more than ``max_panels`` panels, at the
    start or from bisection, raise instead.  A real fn gives a float integral.
    """
    _require_budget(len(panels), max_panels)
    heap = []
    total = total_err = 0.0
    pushed = 0  # ties on the error go to the older panel
    while True:
        for a, b in panels:
            val, err = _gk_panel(fn, a, b)
            heapq.heappush(heap, (-err, pushed, val, err, a, b))
            pushed += 1
            total += val
            total_err += err
        if not total_err > abs_tol + rel_tol * abs(total):  # a nan estimate stops too
            return total, total_err
        if len(heap) >= max_panels:
            raise ConvergenceError(
                f"quadrature exceeded its budget of {max_panels} panels before reaching "
                f"tolerance {abs_tol:g} + {rel_tol:g} * |integral| (error estimate {total_err:g})"
            )
        _, _, val, err, a, b = heapq.heappop(heap)
        total -= val
        total_err -= err
        mid = 0.5 * (a + b)
        panels = [(a, mid), (mid, b)]  # the worst panel's halves take its place


def _require_budget(count: int, max_panels: int) -> None:
    """Raise before any panel is evaluated when ``count`` panels are needed at the start."""
    if count > max_panels:
        raise ConvergenceError(
            f"quadrature starts from more panels than its budget of {max_panels} panels"
        )


def fourier_quadrature_oracle(
    f: PiecewiseFunction, z: float, tol: float, max_panels: int = 65536
) -> complex:
    """Independent check of :func:`crestimate.transform.fourier` by adaptive Gauss-Kronrod.

    The integrand is sampled through :func:`evaluate` only, so nothing in the
    closed-form paths enters it.  Initial panels never exceed min(piece width,
    pi / (4|z|)), so each sees at most a fraction of an oscillation and the
    embedded error estimate is reliable; they are counted before any is built
    (a z too large for the budget costs no work) and bisected until the
    estimated absolute error is below ``tol`` or ``max_panels`` are spent.
    """
    require_positive("tol", tol)
    _require_finite_phase(max(-f.support_min, f.support_max), z)  # as fourier does
    cap = math.pi / (4.0 * abs(z)) if z != 0.0 else math.inf
    pieces = [(a, t1 - a) for a, t1, _, _ in _nonzero_segments(f)]
    try:
        counts = [max(1, math.ceil(w / cap)) if math.isfinite(cap) else 1 for _, w in pieces]
    except (ZeroDivisionError, OverflowError):  # 4|z| or some w / cap beyond float range
        counts = [math.inf]
    _require_budget(sum(counts), max_panels)
    panels: list[tuple[float, float]] = []
    for (a, w), k in zip(pieces, counts):
        step = w / k
        panels.extend((a + i * step, a + (i + 1) * step) for i in range(k))
    if not panels:
        return 0.0 + 0.0j

    def integrand(x: float) -> complex:
        return evaluate(f, x) * _phase(x * z)

    value, _ = gauss_kronrod_adaptive(integrand, panels, tol, max_panels=max_panels)
    return value
