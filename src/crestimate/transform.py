"""Closed-form Fourier, sine, and cosine transforms of piecewise functions.

The transform convention is ``fhat(z) = integral f(x) exp(-i x z) dx``.
Every kernel here reads the segments ``(t0, t1, y0, y1)`` of
:mod:`crestimate.piecewise`, so each formula is written once; a step piece
is a segment with ``y1 = y0``.  :func:`fourier` runs one kernel per
function on one table built once for it (``_fourier_table``): the edge loop
or the lattice sum.  At z = 0 it runs neither: ``fhat(0)`` is the total
integral, the correctly rounded sum of the segment integrals.

The edge loop takes the phases relative to an edge c of the input (the
middle entry of ``edges``), ``E_k = exp(-i (x_k - c) z)``, one cos and one
sin per edge, and returns ``exp(-icz)`` times the centred sum.  A segment
of width w, slope ``s = (y1 - y0) / w`` and edge phases E0, E1 contributes

* if it is wide, ``|z| w >= 1``, by parts:
  ``(y0 E0 - y1 E1) / (iz) + s (E1 - E0) / z^2``, which summed over
  segments folds into ``sum_k E_k (J_k / (iz) + K_k / z^2)``, ``J_k`` the
  jump of f and ``K_k`` the kink (slope on the left minus slope on the
  right) at edge k;
* if it is narrow, ``|z| w < 1``, its piece form
  ``w E0 (y0 phi(u) + (y1 - y0) psi(u))``, ``u = w z``, where

      phi(u) = (1 - exp(-iu)) / (iu)       = sum_k (-iu)^k / (k+1)!
      psi(u) = (phi(u) - exp(-iu)) / (iu)  = sum_k (-iu)^k / (k! (k+2))

  whose closed form takes ``1 - cos u`` as ``sin^2 u / (1 + cos u)``, as
  ``_piece`` does: with ``|u| < 1`` only ``sin(u) / u - cos(u)`` cancels,
  at right angles to the piece term (on 300 single linear segments with |u|
  log-uniform in [1e-4, 0.9] ``|fhat|`` is within 5.6e-16 of 40 digits).
  Below ``|u| = 1e-4`` phi and psi are ``c0 - i s0`` and ``c1 - i s1``,
  the real kernels of ``_piece``, even and odd in u bit for bit.

The edge form subtracts two phases each rounded on its own, so on one
segment its rounding error is about ``1 / (|z| w)`` times that of the piece
form; ``|z| w >= 1`` keeps that factor at most 1.  A phase argument rounds
by ``2^-53 |x - c| |z|``, ``|x - c|`` at most the support width, and a
translation keeping every ``x - c`` exact keeps the centred sum's bits.

Inputs whose nonzero segments repeat their lengths take a lattice sum
instead: sampled traces on an evenly spaced grid whose steps are exact
floats, and step functions on a coarse dyadic lattice.  The lengths are the
widths of the nonzero segments and the gaps between consecutive left edges;
when there are at least 8 edge rows (one per edge of a nonzero segment)
and at most half as many distinct lengths, fhat is a sum of terms ``c_k``
at left edges of nonzero segments, from the leftmost, a, by Horner's rule:

    fhat(z) = exp(-iaz) S_0,   S_k = S_(k+1) exp(-i g_k z) + c_k,

``g_k`` the gap to the next term.  Each distinct length L costs one
``exp(-iLz)``, one cos and one sin, and the factors of a width,
``L phi(u) = (sin u - i (1 - cos u)) / z``, ``u = L z``, and
``L psi(u) = L (c1 - i s1)``, are read off them as in ``_piece``: no trig
call per term.  A step function is a sum of boxes, ``c_k = y0 w phi(wz)``.
A piecewise-linear f is ``sum_k y_k hat_k`` over its nodes x_k, hat_k the
tent that is 1 at x_k and 0 at the other nodes, one-sided at an end node
(where f jumps to 0).  With ``a_k``, ``b_k`` its gaps to the nodes on the
left and right (0 if absent), and as ``1 - t/b`` on [0, b] and ``1 + t/a``
on [-a, 0] are ``1 - s`` and ``s`` on [0, 1] scaled,

    integral hat_k(x) exp(-ixz) dx = exp(-i x_k z) H(a_k, b_k; z),
    H(a, b; z) = b (phi(bz) - psi(bz)) + exp(iaz) a psi(az),

which for a = b = h is the real ``h sinc^2(hz/2)`` of a tent, Gautschi's
attenuation factor.  The term sits at its hat's left end, ``c_k = y_k
exp(-i a_k z) H(a_k, b_k; z)``: one row per nonzero node, one factor per
distinct (a_k, b_k), an absent side being a width of factors 0.  When all
nonzero nodes share one (a_k, b_k), as on an even grid with zero end
values, the factor multiplies once after the sum of the ``y_k``.  A table
per z costs more than the edge loop saves on the few-piece functions of
``verify`` (8 distinct lengths for 9 rows is typical), hence the rule and
the edge loop below 8 edge rows (``_LATTICE_MIN_ROWS``).  Per call, with
tables built by ``_fourier_table`` under ``_LATTICE_MIN_ROWS`` 1 and 10**9
and the kernels timed in process over the same 50 log-uniform z in
[1e-3, 1e3] (best of 40 interleaved repeats of 100 passes; Python 3.11.7,
2-vCPU Xeon VM), a box takes 1.6 us by the lattice sum and 1.0 us by the
edge loop, 6 equal steps (7 rows) 2.1 and 2.5 us, 7 equal steps (8 rows)
2.2 and 2.8 us, a 7-segment sampled trace (8 rows) 3.0 and 3.5 us, and a
10-box comb (20 rows) 2.3 and 3.0 us.

The lattice sum's error, with u = 2^-53, n nonzero segments,
``M = sum w (|y0| + |y1 - y0| / 2)`` over them and W the span from a to the
right end of the last one:

* a length and its product with z round by at most ``2u |L z|``, and a
  term's phase is the sum of the gaps left of it (and, in a hat, a_k), so
  these move the result by at most ``2u |z| W M``, and ``a z`` by u|a z|M;
* each Horner step multiplies a partial sum, of size at most M, by a phase
  step within ``sqrt(2) u`` of its value (cos and sin within an ulp), with
  a complex product within ``sqrt(5) u``, and adds a term, rounding by u:
  below ``5u M`` per step, one step per term with the anchor factor;
* the bounds of ``_piece`` put ``L phi`` within ``10u L`` and ``L psi``
  within ``18u L``, so with the products a box term is within
  ``12u w |y0|`` and a hat term within ``u |y_k| (31 b_k + 19 a_k)``.

A box term is at most ``w |y0|``.  A hat term is at most ``|y_k| (a_k +
b_k) / 2``, the integral of its hat, so every partial sum is at most
``M' = sum_k |y_k| (a_k + b_k) / 2 = sum w (|y0| + |y1|) / 2 <= M``, as
each segment is a side of the hats at its ends and ``|y1| <= |y0| +
|y1 - y0|``.  At most n + 1 nodes are nonzero (each but f's last node is
the left end of a nonzero segment), and the factor errors sum to
``u sum w (31 |y0| + 19 |y1|) <= 50u M``, whether each row takes its factor
or one factor takes the sum (then one more product, ``sqrt(5) u M'``).  So
the computed value is within ``(5n + 2 |z| W + |a z| + 64) u M`` of fhat.

A step function's lattice table also holds its jumps, and wherever that
bound is the larger one the sum runs over them instead.  By parts,
``fhat(z) = (1 / (iz)) sum_k J_k exp(-i x_k z)`` over the n_e edges x_k of
the nonzero segments, J_k the rise of f across x_k, so with ``h_k`` the gap
from edge k to the next

    fhat(z) = exp(-iaz) T_0 / (iz),   T_k = T_(k+1) exp(-i h_k z) + J_k.

Every partial sum is at most the total variation ``V = sum |J_k|``, so the
steps above, the rounding of each jump (``u |J_k|``), the division by z
and the anchor factor, below ``6u V / |z|`` together, put it within
``(5 n_e + 2 |z| W + |a z| + 8) u V / |z|`` of fhat.  With ``A = 5n + 64``,
``B = 5 n_e + 8`` and ``X = 2 |z| W + |a z|`` that is no larger than the box
sum's bound when ``(B + X) V / |z| <= (A + X) M``, for every ``X >= 0``
exactly when ``V / |z| <= M min(1, A / B)``:

    |z| >= switch = (V / M) max(1, B / A),   inf on a piecewise-linear f.

V/M is at least 2/W, so small z never sums by parts, and where narrow
segments stand apart the jumps cancel and the switch rises with them:
2,000 boxes 2^-20 wide on a 2^-10 pitch switch at 4.2e6.  Under a dilation of f by a power
of two M, and so the switch, scales by that power exactly, and under a
scaling of its values V and M scale alike, so both symmetries of Q stay
exact.  On ``bench`` step-scan seed 1 (1,024 pieces, 1,025 edges) V/M is
0.458 and the switch 0.555: 492 of the 671 default grid points sum by parts.

The phase roundings are those of short lengths times z, not of
``(x - c) z``, and they add along the sum like a random walk: on that step
function the worst relative error of ``|fhat|`` over the default grid
against 40 digits is 9.1e-12 (1.4e-11 by boxes at every z), where the edge
loop's is 2.6e-10 (seed 2: 5.9e-11 and 4.4e-11, both at z = 681.8, against
1.4e-10), and on a 1,601-sample trace (linear-roots seed 1) 5.9e-14 by hats
(6.4e-14 by segments) against 2.9e-12.  The exception is small z on long
runs of one gap, where the same rounded phase step multiplies the sum again
and again, so its rounding adds up in step: 1.1e-14 relative on that trace
at z = 0.01-0.7, where the edge loop gives 2e-15.

The sine and cosine transforms are computed together from separate real
closed forms, so ``fhat = Cf - i Sf`` is a genuine cross-check of
:func:`fourier`; so is an adaptive Gauss-Kronrod oracle with
oscillation-aware panels, which nothing in the closed-form paths calls.
"""

import cmath
import math
import operator
from functools import partial
from typing import NamedTuple

from .errors import ValidationError, require_positive
from .piecewise import PiecewiseFunction, evaluate, integrate, require_halfline_support

__all__ = [
    "fourier",
    "sine_transform",
    "cosine_transform",
    "fourier_quadrature_oracle",
    "window_bounds",
    "WindowBoundReport",
]

# |z| * width below this reads phi/psi off the real kernels' series (keeps
# the cancellation error of each piece term below ~1e-10 relative).
PHASE_SERIES_CUTOFF = 1e-4
# the real trig kernels cancel at order u^2, so they switch earlier
_TRIG_SERIES_CUTOFF = 1e-2
# s1's closed form cancels by 1/u^2, so it keeps its series up to here;
# the coefficients of u^15, u^13, ..., u^1, highest first
_S1_SERIES_CUTOFF = 0.5
_S1_SERIES = tuple((-1) ** (k + 1) * 2 * k / math.factorial(2 * k + 1) for k in range(8, 0, -1))


def _phase(theta: float) -> complex:
    """exp(-i theta), built from cos/sin so conjugate symmetry is bit-exact."""
    return complex(math.cos(theta), -math.sin(theta))


def fourier(f: PiecewiseFunction, z: float) -> complex:
    """Exact transform value fhat(z) for finite z; z = 0 gives the total integral.

    At any other z, f's one kernel reads its one table (``f.fourier_table``,
    see ``_fourier_table``): the lattice sum over boxes or hats or, from a
    ``|z|`` on, over the jumps, or else the edge loop.  Each imaginary part is
    odd in z and built from the same operations for z and -z, so
    ``fourier(f, -z) == fourier(f, z).conjugate()`` holds exactly.  A z so
    large that a phase argument overflows is rejected.
    """
    if not z:
        return complex(f.total_integral)
    kernel, reach, table = f.fourier_table
    if not math.isfinite(reach * z):  # a test here is cheaper than a call
        _require_finite_phase(reach, z)
    return kernel(table, z)


def _edge_sum(table: tuple, z: float) -> complex:
    """fhat(z), z != 0, by one pass over the edge rows: one cos and one sin
    per edge for its centred phase ``E = cos t - i sin t``, ``t = (x - c) z``;
    wide segments enter through their edges' jumps and kinks, narrow ones
    through their piece form at their left edge."""
    centre, rows = table
    wide = 1.0 / abs(z)  # segments at least this wide are wide
    cutoff = PHASE_SERIES_CUTOFF
    cos, sin = math.cos, math.sin
    # z * (a - i b) + (kc - i ks) collects the jump, kink and closed-form
    # piece terms, which all carry 1/z^2; re, im the series pieces, which do not
    a = b = kc = ks = 0.0
    re = im = 0.0
    for d, jump, kink, width, wl, yl, sl, w, y0, dy, s in rows:
        t = d * z
        co = cos(t)
        si = sin(t)
        if width >= wide:
            a -= jump * si
            b += jump * co
            if kink:  # never on step input
                kc += kink * co
                ks += kink * si
            continue
        if wl >= wide:
            a += yl * si
            b -= yl * co
            kc += sl * co
            ks += sl * si
        if w >= wide:
            a -= y0 * si
            b += y0 * co
            kc -= s * co
            ks -= s * si
        elif w:
            u = w * z
            if -cutoff < u < cutoff:
                # y0 phi + dy psi = p - i q, phi = c0 - i s0, psi = c1 - i s1
                c0, s0, c1, s1 = _piece(u)
                p = y0 * c0 + dy * c1
                q = y0 * s0 + dy * s1
                re += w * (co * p - si * q)
                im -= w * (co * q + si * p)
                continue
            cu = cos(u)
            su = sin(u)
            om = su * su / (1.0 + cu)  # 1 - cos u without cancellation; |u| < 1
            # z w (y0 phi + dy psi) = p - i q
            p = y0 * su
            q = y0 * om
            if dy:
                p += dy * (su - om / u)
                q += dy * (su / u - cu)
            a += co * p - si * q
            b += co * q + si * p
    re += (a + kc / z) / z
    im -= (b + ks / z) / z
    pc, ps = cos(centre * z), sin(centre * z)
    return complex(re * pc + im * ps, im * pc - re * ps)


def _horner(rows: tuple, step: list) -> complex:
    """``S_0`` of the module docstring from the rows ``(gap, c_k)``, right to left."""
    acc = 0j
    for gap, c in rows:
        acc = acc * step[gap] + c
    return acc


def _lattice_sum(table: tuple, z: float) -> complex:
    """fhat(z) by Horner's rule from the right, anchored at the leftmost edge,
    over the jumps from ``|z| = switch`` on, else over the boxes or hats."""
    anchor, lengths, widths, shapes, rows, switch, gaps, jumps = table
    mz = complex(0.0, -z)
    if abs(z) >= switch:
        acc = _horner(jumps, [cmath.exp(gap * mz) for gap in gaps])
        # fhat = acc / (iz) times the anchor's phase
        return complex(acc.imag / z, -acc.real / z) * cmath.exp(anchor * mz)
    cutoff = _TRIG_SERIES_CUTOFF
    hats = shapes is not None
    # the argument's real part is a zero, so exp is (cos u, -sin u) to the bit
    step = [cmath.exp(length * mz) for length in lengths]
    phi, psi = [], []  # L phi(u) and, for hats, L psi(u) per width
    for k in range(widths):
        length = lengths[k]
        u = length * z
        if -cutoff < u < cutoff:
            c0, s0, c1, s1 = _piece(u)
            phi.append(complex(length * c0, -length * s0))
        else:
            c, s = step[k].real, -step[k].imag
            om = s * s / (1.0 + c) if c > 0.0 else 1.0 - c  # 1 - cos u
            phi.append(complex(s / z, -om / z))
            if hats:
                c1, s1 = _ramp(u, c, s, om)
        if hats:
            psi.append(complex(length * c1, -length * s1))
    factor = phi  # a box's factor is its width's L phi
    if hats:  # a hat's is H(a, b) times the phase from its left end to its node
        factor = [step[a] * (phi[b] - psi[b]) + psi[a] for a, b in shapes]
        if len(factor) == 1:
            return _horner(rows, step) * factor[0] * cmath.exp(anchor * mz)
    acc = 0j
    for gap, shape, y in rows:
        acc = acc * step[gap] + factor[shape] * y
    return acc * cmath.exp(anchor * mz)


_LATTICE_MIN_ROWS = 8  # fewer edge rows take the edge loop (see the module docstring)


def _fourier_table(f: PiecewiseFunction) -> tuple:
    """``(kernel, reach, table)``: f's one kernel of :func:`fourier`, a bound
    ``reach |z|`` on its phase arguments, and the table the kernel reads,
    plain tuples built once per function (``f.fourier_table``).

    With at least ``_LATTICE_MIN_ROWS`` edge rows (one per edge of a nonzero
    segment) and at most half as many distinct lengths (the widths of the
    nonzero segments and the gaps between consecutive left edges) the kernel
    is ``_lattice_sum`` and the table ``(anchor, lengths, widths, shapes,
    rows, switch, gaps, jumps)``: ``lengths`` distinct, the ``widths`` first.
    A step function has one row ``(gap, width, y0)`` per nonzero segment,
    right to left, ``gap`` the index of the distance to the next left edge
    (0 on the rightmost) and ``width`` that of its width, ``shapes`` None and
    the jump rows of ``_jump_rows``; a piecewise-linear f has ``_hat_rows``.
    ``anchor`` is the leftmost left edge and ``reach`` the largest of
    ``|anchor|`` and the lengths, which bound the gaps between edges too.

    Otherwise the kernel is ``_edge_sum`` and the table ``(c, rows)``, centred
    at the middle entry c of ``edges``, one row per edge x, left to right:
    ``(x - c, jump, kink, width, wl, yl, sl, wr, yr, dyr, sr)``, the rise of
    f across x, the slope just left of x minus the slope just right, the
    narrower of the nonzero segments meeting there, the width, end value and
    slope of the one ending at x, and the width, start value, rise and slope
    of the one starting there (zeros for an absent side).  ``reach`` is the
    largest ``|x - c|`` and ``|c|``.
    """
    segments = _nonzero_segments(f)
    starts = [seg[0] for seg in segments]
    ends = [seg[1] for seg in segments]
    after = starts[1:] + [None]  # the next left edge
    # an edge row per left edge, and per right edge that is no left edge
    count = len(segments) + sum(map(operator.ne, ends, after))
    if count >= _LATTICE_MIN_ROWS:
        widths = set(map(operator.sub, ends, starts))
        lengths = widths.union(map(operator.sub, starts[1:], starts))
        if 2 * len(lengths) <= count:
            if f._shift:
                table = _hat_rows(f)
            else:
                lengths = (*widths, *(lengths - widths))
                index = {length: k for k, length in enumerate(lengths)}
                rows = tuple(
                    (0 if b is None else index[b - t0], index[t1 - t0], y0)
                    for (t0, t1, y0, _), b in zip(reversed(segments), reversed(after))
                )
                table = starts[0], lengths, len(widths), None, rows, *_jump_rows(segments)
            return _lattice_sum, max(abs(table[0]), *table[1]), table
    edges = f.edges
    centre = edges[len(edges) // 2]
    rows = []
    wl = yl = sl = 0.0  # width, end value and slope of the segment ending here
    for (t0, t1, y0, y1), b in zip(segments, after):
        w = t1 - t0
        dy = y1 - y0
        s = dy / w
        width = wl if 0.0 < wl < w else w
        rows.append((t0 - centre, y0 - yl, sl - s, width, wl, yl, sl, w, y0, dy, s))
        if b == t1:
            wl, yl, sl = w, y1, s
        else:  # nothing starts at t1; 0.0 - y1 keeps a zero jump +0.0
            rows.append((t1 - centre, 0.0 - y1, s, w, w, y1, s, 0.0, 0.0, 0.0, 0.0))
            wl = yl = sl = 0.0
    reach = max([abs(centre)] + [abs(row[0]) for row in rows[:1] + rows[-1:]])
    return _edge_sum, reach, (centre, tuple(rows))


def _hat_rows(f: PiecewiseFunction) -> tuple:
    """A piecewise-linear f's lattice table in the hat basis: ``shapes`` the
    distinct ``(a, b)`` of its nonzero nodes, indices into ``lengths`` (0.0
    for an absent side), and one row per nonzero node, right to left, at its
    hat's left end: ``(gap, y)`` with one shape, else ``(gap, shape, y)``."""
    xs = f.edges
    nodes = zip(xs[:1] + xs[:-1], xs, xs[1:] + xs[-1:], f._ys)
    # per nonzero node, its hat's left end, (a, b) and value
    lefts, sides, ys = zip(*[(t, (x - t, t1 - x), y) for t, x, t1, y in nodes if y])
    gaps = list(map(operator.sub, lefts[1:], lefts))
    widths = set().union(*sides)
    lengths = (*widths, *(set(gaps) - widths))
    index = {length: k for k, length in enumerate(lengths)}
    shape = {pair: k for k, pair in enumerate(dict.fromkeys(sides[::-1]))}
    columns = [[0, *map(index.__getitem__, gaps[::-1])], ys[::-1]]
    if len(shape) > 1:
        columns.insert(1, list(map(shape.__getitem__, sides[::-1])))
    shapes = tuple((index[a], index[b]) for a, b in shape)
    return lefts[0], lengths, len(widths), shapes, tuple(zip(*columns)), math.inf, (), ()


def _jump_rows(segments: list) -> tuple:
    """``(switch, gaps, jumps)`` of a step function's lattice table: the
    ``|z|`` from which the sum over its jumps has the smaller error bound,
    the distinct gaps between consecutive edges, and one row ``(gap, jump)``
    per edge, right to left, ``gap`` the index of the distance to the next
    edge on the right (0 on the rightmost)."""
    xs, rises = [], []  # the edges of the nonzero segments and f's rise across each
    for t0, t1, y0, _ in segments:
        if xs and xs[-1] == t0:
            rises[-1] += y0
        else:
            xs.append(t0)
            rises.append(y0)
        xs.append(t1)
        rises.append(-y0)
    edge_gaps = list(map(operator.sub, xs[1:], xs))
    gaps = tuple(set(edge_gaps))
    index = {gap: k for k, gap in enumerate(gaps)}
    jumps = tuple(zip([0, *(index[g] for g in reversed(edge_gaps))], reversed(rises)))
    variation = math.fsum(map(abs, rises))
    mass = math.fsum([(t1 - t0) * abs(y0) for t0, t1, y0, _ in segments])
    if not mass:  # every w |y| underflowed: the box sum's bound is the smaller
        return math.inf, gaps, jumps
    # (V / M) max(1, B / A) of the module docstring
    return variation / mass * max(1.0, (5 * len(xs) + 8) / (5 * len(segments) + 64)), gaps, jumps


def _nonzero_segments(f: PiecewiseFunction) -> list:
    """The segments ``(t0, t1, y0, y1)`` on which f is not zero, left to right."""
    return [seg for seg in f.segments() if seg[2] != 0.0 or seg[3] != 0.0]


def _require_finite(z: float) -> None:
    if not math.isfinite(z):
        raise ValidationError("z must be finite")


def _require_finite_phase(reach: float, z: float) -> None:
    """Reject z unless it and every phase argument, at most ``reach |z|``, are finite."""
    if not math.isfinite(reach * z):
        _require_finite(z)
        raise ValidationError(f"z = {z!r} is too large: a phase argument overflows")


# --- real kernels: integral_0^w (..) over one piece in local coordinates ---
# c0 = int cos(tz)/w, s0 = int sin(tz)/w, c1 = int (t/w) cos(tz)/w, s1 likewise.

def _piece(u: float) -> tuple[float, float, float, float]:
    """(c0, s0, c1, s1) at u = w z: one cos and one sin, or their series.

    Below ``|u| = 1e-2`` (``_TRIG_SERIES_CUTOFF``) each kernel is its power
    series to order u^5, whose first dropped term is below 2e-16.  Above it
    cos u and sin u round to half an ulp each, and with ``1 - cos u`` as
    ``sin^2 u / (1 + cos u)`` while ``cos u > 0``, ``c0``, ``s0`` and
    ``c1 = (u sin u - (1 - cos u)) / u^2`` stay within ``4 * 2^-53`` of exact.
    ``s1 = (sin u - u cos u) / u^2`` cancels down to ``u^3 / 3``, within
    ``4 * 2^-53 * max(1, 1 / u^2)``, so below ``|u| = 0.5``
    (``_S1_SERIES_CUTOFF``) it is its series ``sum_k (-1)^(k+1) 2k
    u^(2k-1) / (2k+1)!`` through ``u^15`` (the rest below 1e-20 relative).
    """
    if abs(u) < _TRIG_SERIES_CUTOFF:
        u2 = u * u
        u4 = u2 * u2
        return (
            1.0 - u2 / 6.0 + u4 / 120.0,
            u * (0.5 - u2 / 24.0 + u4 / 720.0),
            0.5 - u2 / 8.0 + u4 / 144.0,
            u * (1.0 / 3.0 - u2 / 30.0 + u4 / 840.0),
        )
    c, s = math.cos(u), math.sin(u)
    om = s * s / (1.0 + c) if c > 0.0 else 1.0 - c  # 1 - cos u
    return s / u, om / u, *_ramp(u, c, s, om)


def _ramp(u: float, c: float, s: float, om: float) -> tuple[float, float]:
    """(c1, s1) for ``|u| >= 1e-2`` from cos u, sin u and 1 - cos u (see ``_piece``)."""
    if abs(u) < _S1_SERIES_CUTOFF:
        u2 = u * u
        s1 = 0.0
        for coefficient in _S1_SERIES:
            s1 = s1 * u2 + coefficient
        s1 *= u
    else:
        s1 = (s - u * c) / (u * u)
    return (u * s - om) / (u * u), s1


def _sine_cosine(f: PiecewiseFunction, zs: list) -> list:
    """``(Sf(z), Cf(z))`` at each z > 0 of ``zs``: two fsums over the same
    per-piece integrals.  f is on [0, oo), so every start and width is at most
    its ``support_max``: the phases are checked once, at the largest z."""
    _require_finite_phase(f.support_max, max(zs))
    segments = _nonzero_segments(f)
    pairs = []
    for z in zs:
        sine_terms = []
        cosine_terms = []
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


def fourier_quadrature_oracle(
    f: PiecewiseFunction, z: float, tol: float, max_panels: int = 65536
) -> complex:
    """Independent check of :func:`fourier` by adaptive Gauss-Kronrod.

    The integrand is sampled through :func:`evaluate` only.  Initial panels
    never exceed min(piece width, pi / (4|z|)), so each sees at most a
    fraction of an oscillation and the embedded error estimate is reliable;
    they are bisected until the estimated absolute error is below ``tol`` or
    ``max_panels`` panels are spent.
    """
    from .quadrature import gauss_kronrod_adaptive  # loaded on first use: no scan needs it

    require_positive("tol", tol)
    _require_finite(z)
    cap = math.pi / (4.0 * abs(z)) if z != 0.0 else math.inf
    panels: list[tuple[float, float]] = []
    for a, t1, _, _ in _nonzero_segments(f):
        w = t1 - a
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
    return _window_bounds(f, [z], partial(integrate, f, 0.0))[0]


def _window_bounds(f: PiecewiseFunction, zs: list, integral_to) -> list:
    """:func:`window_bounds` at each z > 0 of ``zs``, ``integral_to(x)`` the
    integral of f over [0, x]."""
    reports = []
    for z, (sine, cosine) in zip(zs, _sine_cosine(f, zs)):
        half_pi = math.pi / (2.0 * z)
        windows = integral_to(half_pi), integral_to(math.pi / z)
        reports.append(WindowBoundReport(z, sine, *windows, cosine, integral_to(3.0 * half_pi)))
    return reports
