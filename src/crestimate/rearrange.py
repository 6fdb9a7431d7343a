"""Decreasing rearrangement, its distribution function, and weighted norms.

Both representations put a point on f* only where its measure exceeds the
last point's (:func:`_extend`): a level that adds no measure keeps the
previous point, so f* never reads below the exact f*.

The rearrangement of a step function is computed by sorting value/measure
pairs (value descending, ties kept in left-to-right order) and concatenating
the measures from the origin; that is exact in the sense that no arithmetic
beyond sums of the original piece widths is performed.

For a piecewise-linear function the distribution function
``alpha -> |{f > alpha}|`` is itself piecewise linear in alpha, with
breakpoints only at node values, so its generalized inverse -- the
rearrangement -- is piecewise linear in x and is constructed analytically:
a node at measure |{f > lam}| for every level lam, plus a plateau of length
|{f = lam}| where f is flat at lam.  Nothing is sampled.  The levels are
visited in one descending sweep: a segment starts to cross the level when
the level drops below its larger end value and lies wholly above once the
level drops below its smaller one, when its width joins an exact running
sum.  Each |{f > lam}| is the correctly rounded sum of that running sum and
the crossing segments' parts, which is the same number :func:`distribution`
returns.  A segment of width w with larger and smaller end values hi and lo
has ``(hi - lam) * (w / (hi - lo))`` above lam, or ``(hi - lam) / (hi - lo)
* w`` where ``w / (hi - lo)`` overflows (a subnormal rise): the one crossing
term, :func:`_part_above`, both use.  No term reads where a segment sits,
only its width and end values, so an input translated by an offset that
keeps every width the same float has the same f*, the same tail integrals
and the same Q denominator.

:meth:`Rearrangement.integral_up_to` is :func:`~crestimate.piecewise.integrate`
over [0, t] on f*, read off the table of segment integrals f* keeps.  The
one-field record stays, rather than :func:`rearrangement` returning f*
itself, because the benchmark's tracing wraps ``integral_up_to`` on the
class and reads ``.star`` off each result.

:func:`lorentz_lambda_norm` is exact for both representations too: f* is
linear on each overlap of its segments with the step weight's pieces, and
the integral of a linear function's p-th power has a closed form.  Nothing
in this module calls quadrature.
"""

import math
from typing import NamedTuple

from .errors import ValidationError, require_positive
from .piecewise import (
    PiecewiseFunction,
    PiecewiseLinearFunction,
    StepFunction,
    _on_line,
    integrate,
    make_step,
    require_weight,
)

__all__ = [
    "Rearrangement",
    "distribution",
    "rearrangement",
    "lorentz_lambda_norm",
]


def distribution(f: PiecewiseFunction, alpha: float) -> float:
    """Lebesgue measure of the super-level set {x : f(x) > alpha}, alpha > 0.

    Exact closed form per segment; sums are correctly rounded (fsum), so the
    result is independent of segment order.  alpha = inf gives 0.
    """
    require_positive("alpha", alpha, inf_ok=True)
    return math.fsum(
        _segment_superlevel(t0, t1, y0, y1, alpha) for t0, t1, y0, y1 in f.segments()
    )


def _segment_superlevel(t0, t1, y0, y1, alpha) -> float:
    lo, hi = min(y0, y1), max(y0, y1)
    if lo > alpha:
        return t1 - t0
    if hi <= alpha:
        return 0.0
    return _part_above(alpha, hi, lo, t1 - t0)


def _part_above(level: float, hi: float, lo: float, w: float) -> float:
    """Measure above level of a segment of width w rising from lo to hi,
    lo <= level < hi: ``(hi - level) * (w / (hi - lo))``, or where ``w / (hi
    - lo)`` overflows (a subnormal rise), ``(hi - level) / (hi - lo) * w``."""
    rate = w / (hi - lo)
    if rate == math.inf:
        return (hi - level) / (hi - lo) * w
    return (hi - level) * rate


class Rearrangement(NamedTuple):
    """The decreasing rearrangement f*, nonincreasing on [0, oo)."""

    star: PiecewiseFunction

    def integral_up_to(self, t: float) -> float:
        """Integral of f* over [0, t], integrate(star, 0.0, t): t = inf gives
        the total mass; nan and negative t are rejected."""
        if not t >= 0.0:  # inline: this runs once per z in the scan
            raise ValidationError("t must be nonnegative")
        return integrate(self.star, 0.0, t)


def rearrangement(f: PiecewiseFunction) -> Rearrangement:
    """Compute f*, equimeasurable with f and nonincreasing from the origin."""
    if f.is_zero:  # the zero function: f* is 0 on [0, 1)
        return Rearrangement(type(f)((0.0, 1.0), (0.0,) * (1 + f._shift)))
    if isinstance(f, StepFunction):
        return Rearrangement(_step_star(f))
    return Rearrangement(_linear_star(f))


def _step_star(f: StepFunction) -> StepFunction:
    pairs = [(v, b - a) for a, b, v in f.pieces() if v > 0.0]
    _require_finite_measure([m for _, m in pairs])
    pairs.sort(key=lambda p: -p[0])  # stable: equal values keep their order
    breakpoints = [0.0]
    values = []
    for v, m in pairs:
        _extend(breakpoints, values, breakpoints[-1] + m, v)
    return make_step(breakpoints, values)


def _extend(xs: list[float], ys: list[float], x: float, y: float) -> None:
    """Append (x, y) to f* where its measure x exceeds the last point's."""
    if x > xs[-1]:
        xs.append(x)
        ys.append(y)


def _linear_star(f: PiecewiseLinearFunction) -> PiecewiseLinearFunction:
    """f* by one descending sweep over the distinct node values.

    Cost is O(n log n) for the sorts plus, per level, one term for each
    segment crossing it.  On a sampled profile that is two per bump
    reaching above the level, so levels x bumps in all; a zigzag whose
    every segment spans every level stays quadratic.  Each term is the
    crossing term of :func:`distribution`, :func:`_part_above`: inline as
    ``(hi - level) * r`` with ``r = w / (hi - lo)`` stored when the segment
    starts to cross, and by a call for the rare segment whose r overflows.
    No term reads t0 or t1, so an exact translate has the same f*.  Each
    point goes on by :func:`_extend`, so where f is positive at an end of
    its support, |{f > lam}| stops growing below that value and f* ends
    there with its jump to 0, as f does.
    """
    segments = list(f.segments())
    plateaus: dict[float, list[float]] = {}
    for t0, t1, y0, y1 in segments:
        if y0 == y1:
            plateaus.setdefault(y0, []).append(t1 - t0)
    widths = [t1 - t0 for t0, t1, _, _ in segments]
    highs = [max(y0, y1) for _, _, y0, y1 in segments]
    lows = [min(y0, y1) for _, _, y0, y1 in segments]
    _require_finite_measure([w for w, hi in zip(widths, highs) if hi > 0.0])
    sloped = [i for i in range(len(segments)) if highs[i] > lows[i]]
    by_high = sorted(sloped, key=highs.__getitem__, reverse=True)
    by_low = sorted(range(len(segments)), key=lows.__getitem__, reverse=True)
    entered = left = 0
    # (hi, w / (hi - lo)) of each sloped segment crossing the level, or
    # (hi, lo, w) in steep where that rate overflows; flat segments never
    # enter, so leaving pops with a default
    crossing: dict[int, tuple[float, float]] = {}
    steep: dict[int, tuple[float, float, float]] = {}
    above_whole: list[float] = []  # exact sum of the widths wholly above the level

    levels = sorted({0.0, *f.node_values})
    xs = [0.0]
    ys = [levels[-1]]
    # at the top level nothing lies above, so (0, top) stands for its node
    for level in reversed(levels):
        while entered < len(by_high) and highs[by_high[entered]] > level:
            i = by_high[entered]
            rate = widths[i] / (highs[i] - lows[i])
            if rate == math.inf:  # a rise tiny against w, a subnormal one say
                steep[i] = (highs[i], lows[i], widths[i])
            else:
                crossing[i] = (highs[i], rate)
            entered += 1
        while left < len(by_low) and lows[by_low[left]] > level:
            i = by_low[left]
            crossing.pop(i, None) or steep.pop(i, None)
            _exact_add(above_whole, widths[i])
            left += 1
        terms = [(hi - level) * r for hi, r in crossing.values()]
        if steep:
            terms += [_part_above(level, hi, lo, w) for hi, lo, w in steep.values()]
        above = math.fsum(above_whole + terms)
        _extend(xs, ys, above, level)
        if level > 0.0:
            plateau = math.fsum(plateaus.get(level, ()))
            if plateau > 0.0:
                _extend(xs, ys, above + plateau, level)
    return PiecewiseLinearFunction(tuple(xs), tuple(ys))


def _require_finite_measure(widths: list[float]) -> None:
    """Raise OverflowError, naming the measure, where the widths of the
    pieces on which f > 0 (the length of f*) sum beyond float range."""
    try:
        total = math.fsum(widths)
    except OverflowError:  # the partial sums overflowed
        total = math.inf
    if total == math.inf:  # or a width did
        raise OverflowError("the measure of {f > 0}, the length of f*, is beyond float range")


def _exact_add(partials: list[float], x: float) -> None:
    """Add x to the exact sum held as nonoverlapping floats in ``partials``.

    Shewchuk's expansion sum (the ``msum`` recipe behind math.fsum), so
    ``math.fsum(partials + more)`` is the correctly rounded sum of every
    float ever added plus ``more``.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def lorentz_lambda_norm(f: PiecewiseFunction, v: StepFunction, p: float) -> float:
    """Weighted norm ( integral (f*)^p v )^(1/p) against a step weight v, exact.

    v must be a nonzero step function supported in [0, oo).  f* is linear on
    each overlap of its segments with the weight's pieces, so each term is a
    closed form (:func:`_mean_power`); one fsum adds them.  Both lists are
    sorted, so one pass with two pointers finds the overlaps, segment by
    segment: O(n + m) for n segments of f* and m pieces of v.
    """
    require_positive("p", p)
    require_weight(v, "v")
    pieces = [piece for piece in v.pieces() if piece[2] > 0.0]
    k = 0  # the pieces before k end at or before the current segment
    terms = []
    for t0, t1, y0, y1 in rearrangement(f).star.segments():
        while k < len(pieces) and pieces[k][1] <= t0:
            k += 1
        for j in range(k, len(pieces)):
            c, d, wv = pieces[j]
            if c >= t1:
                break
            lo, hi = max(t0, c), min(t1, d)
            # exact node values at the segment's ends; in between, a
            # rounded interpolant must not dip below 0 before ** p
            a = y0 if lo == t0 else max(0.0, _on_line(t0, t1, y0, y1, lo))
            b = y1 if hi == t1 else max(0.0, _on_line(t0, t1, y0, y1, hi))
            terms.append(_mean_power(a, b, p) * wv * (hi - lo))
    return math.fsum(terms) ** (1.0 / p)


def _mean_power(a: float, b: float, p: float) -> float:
    """Mean of y**p as y runs linearly from a to b (both >= 0).

    That is ``(hi**(p+1) - lo**(p+1)) / ((p+1) (hi - lo))``, written as
    ``hi**p * (1 - r**(p+1)) / ((p+1) d)`` with ``r = lo/hi = 1 - d`` so that
    neither the difference of powers nor a small d cancels: ``log1p(-d)``
    carries log r while d < 1/2, ``log(lo/hi)`` beyond.
    """
    if a == b:
        return a**p
    lo, hi = min(a, b), max(a, b)
    if lo == 0.0:
        return hi**p / (p + 1.0)
    d = (hi - lo) / hi
    log_r = math.log1p(-d) if d < 0.5 else math.log(lo / hi)
    return hi**p * -math.expm1((p + 1.0) * log_r) / ((p + 1.0) * d)
