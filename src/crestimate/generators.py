"""Seeded random inputs for the verification suites.

Splitting scheme: every consumer derives its own stream with
``rng_for(seed, label)``; the label is hashed into the stream (sha512 via
``random.Random(str)``), so module-level and command-line runs of the same
suite see identical draws regardless of call order.

All breakpoints, widths and values are dyadic rationals (multiples of 1/32
and 1/1024 respectively, with single-digit integer parts), so products and
partial sums of piece data are exact in double precision.  The exactness
checks (equimeasurability, norm preservation, integral additivity) rely on
that; everything else simply does not mind.
"""

import math
import random
from itertools import accumulate

from .piecewise import StepFunction, make_step

__all__ = [
    "rng_for",
    "random_step_function",
    "random_decreasing_step",
    "random_one_crest_step",
    "random_interval",
    "random_weight",
    "log_uniform",
    "log_uniform_list",
]

_X_SCALE = 32  # breakpoint grid 1/32
_V_SCALE = 1024  # value grid 1/1024


def rng_for(seed: int, label: str) -> random.Random:
    """Deterministic child stream for one purpose."""
    return random.Random(f"{seed}/{label}")


def _dyadic_breakpoints(
    rng: random.Random, start: float, count: int, max_units: int = 128
) -> list[float]:
    """``start`` and its running sums with ``count`` widths drawn from the 1/32 grid."""
    widths = [rng.randint(1, max_units) / _X_SCALE for _ in range(count)]
    return list(accumulate(widths, initial=start))


def random_step_function(
    rng: random.Random,
    min_pieces: int = 1,
    max_pieces: int = 20,
    max_width_units: int = 128,
    start_range_units: int = 1024,
) -> StepFunction:
    """Random nonzero step function with ties and zero gaps included."""
    n = rng.randint(min_pieces, max_pieces)
    start = rng.randint(-start_range_units, start_range_units) / _X_SCALE
    breakpoints = _dyadic_breakpoints(rng, start, n, max_width_units)
    values: list[float] = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.2:
            values.append(0.0)
        elif values and roll < 0.35:
            values.append(values[-1])  # deliberate tie
        else:
            values.append(rng.randint(1, 8 * _V_SCALE) / _V_SCALE)
    if all(v == 0.0 for v in values):
        values[rng.randrange(n)] = rng.randint(1, 8 * _V_SCALE) / _V_SCALE
    return make_step(breakpoints, values)


def random_decreasing_step(
    rng: random.Random, max_pieces: int = 12, max_width_units: int = 128
) -> StepFunction:
    """Random nonincreasing step function supported from the origin."""
    n = rng.randint(1, max_pieces)
    levels = sorted(
        rng.sample(range(1, 8 * _V_SCALE + 1), n), reverse=True
    )
    values = [lv / _V_SCALE for lv in levels]
    return make_step(_dyadic_breakpoints(rng, 0.0, n, max_width_units), values)


def random_one_crest_step(
    rng: random.Random, max_width_units: int = 64
) -> StepFunction:
    """Random step function that crests exactly once.

    A strictly increasing run, a peak, then a strictly decreasing run; the
    support may sit anywhere on the line.
    """
    peak = rng.randint(2 * _V_SCALE, 8 * _V_SCALE)
    up = sorted(rng.sample(range(1, peak), rng.randint(0, 6)))
    down = sorted(rng.sample(range(1, peak), rng.randint(0, 6)), reverse=True)
    values = [lv / _V_SCALE for lv in [*up, peak, *down]]
    start = rng.randint(-256, 256) / _X_SCALE
    return make_step(_dyadic_breakpoints(rng, start, len(values), max_width_units), values)


def random_interval(rng: random.Random, f: StepFunction) -> tuple[float, float]:
    """Random dyadic interval near (and overlapping) the support of f."""
    lo_units = int(f.support_min * _X_SCALE) - 64
    hi_units = int(f.support_max * _X_SCALE) + 64
    a = rng.randint(lo_units, hi_units - 1)
    b = rng.randint(a + 1, hi_units)
    return a / _X_SCALE, b / _X_SCALE


def random_weight(
    rng: random.Random,
    min_start_units: int = 2,
    max_pieces: int = 6,
) -> StepFunction:
    """Random nonnegative step weight supported inside (0, 20]."""
    n = rng.randint(1, max_pieces)
    start = rng.randint(min_start_units, 320) / _X_SCALE
    breakpoints = _dyadic_breakpoints(rng, start, n, max_units=64)
    values = [rng.randint(0, 4 * _V_SCALE) / _V_SCALE for _ in range(n)]
    if all(v == 0.0 for v in values):
        values[rng.randrange(n)] = rng.randint(1, 4 * _V_SCALE) / _V_SCALE
    return make_step(breakpoints, values)


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return log_uniform_list(rng, lo, hi, 1)[0]


def log_uniform_list(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """``count`` successive draws of :func:`log_uniform`, the same bits.

    ``rng.uniform(a, b)`` is documented as ``a + (b - a) * rng.random()``,
    which is written out here to save a call per draw.
    """
    a = math.log10(lo)
    d = math.log10(hi) - a
    draw = rng.random
    return [10.0 ** (a + d * draw()) for _ in range(count)]
