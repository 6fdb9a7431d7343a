"""Reference computations for the benchmark's output checks.

Nothing here imports ``crestimate``: the checks must stay independent of the
code they judge.  A function is handled as a list of segments
``(t0, t1, y0, y1)`` on which it is linear (a step piece has ``y0 == y1``),
zero outside them.

* :func:`crest_count` is the valley count of the zero-padded value profile.
* :func:`q_reference` evaluates ``Q(z) = |fhat(z)| / (pi sqrt(10) int_0^{1/z} f*)``
  with the closed-form per-segment transform in ``mpmath`` at ``REF_DPS``
  digits and the rearrangement tail exactly in ``fractions.Fraction``.
"""

from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction

import mpmath

REF_DPS = 40
# A reported Q passes when |fhat| is off by at most this share of
# sum_k |segment term k|.  Double precision loses about |a z| * 2^-53 per term
# in the phase a*z; with |a| < 10^4 and z <= 10^3 that is below 1e-9.
Q_REL_TOL = 1e-8
# |width * z| below this takes the power-series branch of the transform kernels
SERIES_CUTOFF = 1e-4


def segments_from_json(obj: dict) -> list[tuple[float, float, float, float]]:
    """Segments of a function in the JSON interchange format."""
    if obj["type"] == "step":
        bp, vals = obj["breakpoints"], obj["values"]
        return [(a, b, v, v) for a, b, v in zip(bp, bp[1:], vals)]
    xs, ys = obj["nodes"], obj["node_values"]
    return list(zip(xs, xs[1:], ys, ys[1:]))


def profile_from_json(obj: dict) -> list[float]:
    return obj["values"] if obj["type"] == "step" else obj["node_values"]


def crest_count(profile: list[float]) -> int:
    """One plus the strict valleys of the profile padded with zeros, repeats collapsed."""
    s: list[float] = []
    for v in (0.0, *profile, 0.0):
        if not s or s[-1] != v:
            s.append(v)
    return 1 + sum(1 for i in range(1, len(s) - 1) if s[i - 1] > s[i] < s[i + 1])


def nonzero_widths(segments) -> list[float]:
    """Sorted widths of the segments the transform has to visit."""
    return sorted(t1 - t0 for t0, t1, y0, y1 in segments if y0 != 0.0 or y1 != 0.0)


def series_pairs(widths: list[float], z: float) -> int:
    """How many of the (sorted) widths take the series branch at z."""
    return bisect_left(widths, SERIES_CUTOFF / abs(z))


def fourier_reference(segments, z: float) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(|fhat(z)|, sum of |segment terms|) with fhat(z) = int f(x) exp(-ixz) dx.

    On a segment with slope s the antiderivative of y(x) exp(-ixz) is
    ``(i/z) y(x) E(x) + (s/z^2) E(x)`` with ``E(x) = exp(-ixz)``.
    """
    with mpmath.workdps(REF_DPS):
        zm = mpmath.mpf(z)
        i_over_z = mpmath.mpc(0, 1) / zm
        inv_z2 = 1 / (zm * zm)
        phases: dict[float, mpmath.mpc] = {}

        def phase(x: float) -> mpmath.mpc:
            if x not in phases:
                phases[x] = mpmath.expj(-mpmath.mpf(x) * zm)
            return phases[x]

        total = mpmath.mpc(0)
        magnitude = mpmath.mpf(0)
        for t0, t1, y0, y1 in segments:
            if y0 == 0.0 and y1 == 0.0:
                continue
            e0, e1 = phase(t0), phase(t1)
            slope = (mpmath.mpf(y1) - y0) / (mpmath.mpf(t1) - t0)
            term = i_over_z * (y1 * e1 - y0 * e0) + slope * inv_z2 * (e1 - e0)
            total += term
            magnitude += abs(term)
        return abs(total), magnitude


def tail_reference(segments, t: Fraction) -> Fraction:
    """Exact int_0^t f* by the layer-cake formula int_0^oo min(t, m(lam)) dlam.

    The distribution m(lam) = |{f > lam}| is linear in lam between
    consecutive segment end levels: a segment with lo <= lam < hi contributes
    w (hi - lam) / (hi - lo), one with lam < lo its whole width w.  One sweep
    down the sorted levels keeps m = full + c + d*lam up to date.
    """
    events: dict[Fraction, list[tuple[Fraction, Fraction, Fraction]]] = defaultdict(list)
    for t0, t1, y0, y1 in segments:
        if y0 == 0.0 and y1 == 0.0:
            continue
        w = Fraction(t1) - Fraction(t0)
        lo, hi = sorted((Fraction(y0), Fraction(y1)))
        if lo == hi:
            events[hi].append((w, Fraction(0), Fraction(0)))
        else:
            events[hi].append((Fraction(0), w * hi / (hi - lo), -w / (hi - lo)))
            events[lo].append((w, -w * hi / (hi - lo), w / (hi - lo)))
    levels = sorted(set(events) | {Fraction(0)}, reverse=True)
    full = c = d = Fraction(0)
    total = Fraction(0)
    for upper, lower in zip(levels, levels[1:]):
        for dw, dc, dd in events[upper]:
            full += dw
            c += dc
            d += dd
        a = full + c + d * lower  # m just above `lower`
        b = full + c + d * upper  # m just below `upper`, a >= b
        length = upper - lower
        if b >= t:
            total += t * length
        elif a <= t:
            total += (a + b) / 2 * length
        else:
            above = (a - t) / (a - b)  # share of the interval where m >= t
            total += t * above * length + (t + b) / 2 * (1 - above) * length
    return total


def q_reference(segments, z: float) -> tuple[float, float]:
    """(Q(z), the Q-tolerance) for a reported Q at z.

    The tolerance is ``Q_REL_TOL * sum|segment terms|`` carried through the
    same denominator as Q.
    """
    magnitude, term_sum = fourier_reference(segments, z)
    tail = tail_reference(segments, 1 / Fraction(z))
    with mpmath.workdps(REF_DPS):
        scale = mpmath.pi * mpmath.sqrt(10) * mpmath.mpf(tail.numerator) / tail.denominator
        return float(magnitude / scale), float(Q_REL_TOL * term_sum / scale)
