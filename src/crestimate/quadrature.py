"""Adaptive quadrature, used only where no closed form exists: the
Gauss-Kronrod transform oracle and the two weighted integrals of
:mod:`crestimate.hardy`.

One refinement loop, :func:`_refine`, runs QUADPACK's global adaptive strategy
(Piessens et al., 1983): bisect the panel with the worst error estimate
first, and raise :class:`ConvergenceError` on budget exhaustion instead of
ever returning a silently inaccurate value.  Two panel rules plug into it:

* Gauss-Kronrod 7/15 with a caller-supplied initial panel list.  Used by the
  transform oracle, where the panels are pre-split below the oscillation
  scale so the embedded error estimate is trustworthy.
* Simpson with a Richardson error estimate, for the weighted-norm
  integrals; a panel hands its samples down to its halves.
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


def _refine(panel_rule, fn, panels, abs_tol: float, rel_tol: float, max_panels: int):
    """Bisect the worst panel first; return (integral, error_estimate).

    ``panel_rule(fn, *panel)`` gives ``(value, error, halves)``, ``halves``
    being the two panels that replace it.  Stops once the summed error is at
    most ``abs_tol + rel_tol * |integral|``; raises if that takes more than
    ``max_panels`` panels, or if ``panels`` alone exceed the budget.
    """
    heap = []
    counter = 0  # ties on the error go to the older panel
    total = total_err = 0.0

    def push(panel):
        nonlocal counter, total, total_err
        val, err, halves = panel_rule(fn, *panel)
        heapq.heappush(heap, (-err, counter, val, err, halves))
        counter += 1
        total += val
        total_err += err

    for panel in panels:
        push(panel)
    while len(heap) > max_panels or total_err > abs_tol + rel_tol * abs(total):
        if len(heap) >= max_panels:
            raise ConvergenceError(
                f"quadrature exceeded its budget of {max_panels} panels before reaching "
                f"tolerance {abs_tol:g} + {rel_tol:g} * |integral| (error estimate {total_err:g})"
            )
        _, _, val, err, halves = heapq.heappop(heap)
        total -= val
        total_err -= err
        for half in halves:
            push(half)
    return total, total_err


def _gk_panel(fn, a: float, b: float):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc_g = 0.0j
    acc_k = 0.0j
    for xi, wg, wk in _GK15:
        fx = fn(mid + half * xi)
        if wg != 0.0:
            acc_g += wg * fx
        acc_k += wk * fx
    value = acc_k * half
    err = abs((acc_k - acc_g) * half)
    return value, err, ((a, mid), (mid, b))


def gauss_kronrod_adaptive(
    fn: Callable[[float], complex],
    panels: list[tuple[float, float]],
    abs_tol: float,
    max_panels: int = 65536,
) -> tuple[complex, float]:
    """Integrate fn over the given disjoint panels to absolute accuracy abs_tol.

    Returns (integral, error_estimate).  The worst panel is bisected until
    the summed estimate drops below abs_tol or the panel budget is exhausted.
    """
    return _refine(_gk_panel, fn, panels, abs_tol, 0.0, max_panels)


def _simpson_panel(fn, a: float, b: float, fa: float, fm: float, fb: float):
    # Richardson: compare one Simpson step against two half-steps.
    mid = 0.5 * (a + b)
    lm = 0.5 * (a + mid)
    rm = 0.5 * (mid + b)
    flm = fn(lm)
    frm = fn(rm)
    h = b - a
    coarse = h / 6.0 * (fa + 4.0 * fm + fb)
    fine = h / 12.0 * (fa + 4.0 * flm + 2.0 * fm + 4.0 * frm + fb)
    err = abs(fine - coarse) / 15.0
    value = fine + (fine - coarse) / 15.0
    return value, err, ((a, mid, fa, flm, fm), (mid, b, fm, frm, fb))


def simpson_adaptive(
    fn: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float,
    max_panels: int = 2**20,
    initial_splits: int = 1,
) -> tuple[float, float]:
    """Adaptive Simpson integral of fn over [a, b].

    Starts from ``initial_splits`` equal panels and stops when the summed
    Richardson estimate is below ``rel_tol * |integral|``; raises on budget
    exhaustion.
    """
    if b <= a:
        return 0.0, 0.0
    initial_splits = max(1, initial_splits)
    edges = [a + (b - a) * i / initial_splits for i in range(initial_splits + 1)]
    edges[-1] = b
    edge_vals = [fn(x) for x in edges]
    panels = [
        (lo, hi, flo, fn(0.5 * (lo + hi)), fhi)
        for lo, hi, flo, fhi in zip(edges, edges[1:], edge_vals, edge_vals[1:])
        if hi > lo
    ]
    return _refine(_simpson_panel, fn, panels, 0.0, rel_tol, max_panels)
