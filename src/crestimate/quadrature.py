"""Adaptive Gauss-Kronrod quadrature, used only where no closed form exists:
the transform oracle and the two weighted integrals of :mod:`crestimate.hardy`.

One panel rule, Gauss-Kronrod 7/15, and one refinement loop,
:func:`_refine`, which runs QUADPACK's global adaptive strategy (Piessens et
al., 1983): bisect the panel with the worst embedded error estimate first, and
raise :class:`ConvergenceError` on budget exhaustion instead of ever returning
a silently inaccurate value.  Callers pre-split the panels where the integrand
is not smooth: the transform oracle below its oscillation scale, against an
absolute tolerance; :mod:`crestimate.hardy` at the kinks of its integrands,
against the relative tolerance 1e-8 with a cap of 2**20 panels.
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


def _refine(fn, panels, abs_tol: float, rel_tol: float, max_panels: int):
    """Bisect the worst panel first; return (integral, error_estimate).

    Stops once the summed error is at most ``abs_tol + rel_tol * |integral|``;
    raises if that takes more than ``max_panels`` panels, or if ``panels``
    alone exceed the budget.
    """
    heap = []
    counter = 0  # ties on the error go to the older panel
    total = total_err = 0.0

    def push(a, b):
        nonlocal counter, total, total_err
        val, err = _gk_panel(fn, a, b)
        heapq.heappush(heap, (-err, counter, val, err, a, b))
        counter += 1
        total += val
        total_err += err

    for a, b in panels:
        push(a, b)
    while len(heap) > max_panels or total_err > abs_tol + rel_tol * abs(total):
        if len(heap) >= max_panels:
            raise ConvergenceError(
                f"quadrature exceeded its budget of {max_panels} panels before reaching "
                f"tolerance {abs_tol:g} + {rel_tol:g} * |integral| (error estimate {total_err:g})"
            )
        _, _, val, err, a, b = heapq.heappop(heap)
        total -= val
        total_err -= err
        mid = 0.5 * (a + b)
        push(a, mid)
        push(mid, b)
    return total, total_err


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
    ``abs_tol + rel_tol * |integral|``, or the budget of ``max_panels``
    panels is spent.  A real fn gives a float integral.
    """
    return _refine(fn, panels, abs_tol, rel_tol, max_panels)
