"""Adaptive Gauss-Kronrod quadrature for the two weighted integrals of
:mod:`crestimate.hardy`, which have no closed form.

One panel rule, Gauss-Kronrod 7/15, and one refinement loop,
:func:`gauss_kronrod_adaptive`, which runs QUADPACK's global adaptive strategy
(Piessens et al., 1983): bisect the panel with the worst embedded error
estimate first, and raise :class:`ConvergenceError` on budget exhaustion
instead of ever returning a silently inaccurate value.  :mod:`crestimate.hardy`
pre-splits the panels at its integrands' kinks or below their oscillation
scale, and sets the relative tolerance (1e-8) and the panel cap (2**20).
"""

import heapq
from typing import Callable

from .errors import ConvergenceError

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
    rel_tol: float,
    max_panels: int = 65536,
) -> tuple[complex, float]:
    """Integrate fn over the given disjoint panels; return (integral, error_estimate).

    The worst panel is bisected until the summed estimate is at most
    ``rel_tol * |integral|``; more than ``max_panels`` panels, at the start
    (before any is evaluated) or from bisection, raise instead.  A real fn
    gives a float integral.
    """
    if len(panels) > max_panels:
        raise ConvergenceError(
            f"quadrature starts from more panels than its budget of {max_panels} panels"
        )
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
        if not total_err > rel_tol * abs(total):  # a nan estimate stops too
            return total, total_err
        if len(heap) >= max_panels:
            raise ConvergenceError(
                f"quadrature exceeded its budget of {max_panels} panels before reaching "
                f"relative tolerance {rel_tol:g} (error estimate {total_err:g})"
            )
        _, _, val, err, a, b = heapq.heappop(heap)
        total -= val
        total_err -= err
        mid = 0.5 * (a + b)
        panels = [(a, mid), (mid, b)]  # the worst panel's halves take its place
