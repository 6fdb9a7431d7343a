"""Closed-form Fourier transforms of piecewise functions.

The transform convention is ``fhat(z) = integral f(x) exp(-i x z) dx``.
Every kernel here reads the segments ``(t0, t1, y0, y1)`` of
:mod:`crestimate.piecewise`, so each formula is written once; a step piece
is a segment with ``y1 = y0``.  :func:`fourier` runs one kernel per
function on one table built once for it (``_fourier_table``): the segment
loop or the lattice sum.  At z = 0 it runs neither: ``fhat(0)`` is the
total integral, the correctly rounded sum of the segment integrals.

The segment loop takes each nonzero segment about its midpoint m, where
``f = y + (r / h) (x - m)``, h its half-width, y its mean value and r its
half-rise ``(y1 - y0) / 2``.  As exp(-ixz) integrates to ``2 sin(v) / z``
and ``x exp(-ixz)`` to ``-2i h^2 s1(v)`` over [-h, h], ``v = h z``, its
transform is

    (2 / z) exp(-imz) (y sin v - i r v s1(v)),   s1(v) = (sin v - v cos v) / v^2,

the sinc form behind Filon's rule (Filon, Proc. Roy. Soc. Edinburgh 49,
1928).  It subtracts no phases, so no segment is too narrow or too wide for
it.  A row is ``(d, h, y, r)``, ``d = (t0 - c) + h`` the midpoint less c,
the middle entry of ``edges``.  A flat row (r = 0, every row of a step
function) takes the phase pair, cos t and sin t with ``t = d z``, and one
sine, sin v, and adds ``cos t y sin v`` and ``sin t y sin v``; its mean is
y0 itself.  A sloped row also takes ``v s1(v)``, from ``|v| = 1e-2``
(``_TRIG_SERIES_CUTOFF``) on as ``(sin v - v cos v) / v``, one more cos,
and below it as the series ``v^2 (1/3 - v^2/30 + v^4/840)`` of ``_piece``
(first dropped term below 7e-17 of it).  The sum is scaled by
2/z once and turned by ``exp(-icz)``.

With u = 2^-53, n rows, ``T = max(|y0|, |y1|) max(w, 1 / |z|)`` per
segment (a term is at most T, as ``|v s1(v)| <= min(|v| / 2, 1.1)``) and R
the reach, the larger of |c| and the largest ``|d| + h`` (at most twice the
largest |edge| X), the value is within ``(2n + 5R|z| + 30) u sum T <=
(2n + 10X|z| + 30) u sum T`` of fhat:

* t is within 4uR|z| (``t0 - c``, the width, the sum and the product round
  once each) and c z within uR|z|, so with cos and sin within an ulp the
  phases are within ``(4R|z| + 1.5) u`` and ``(R|z| + 1.5) u``;
* y and r round by u and v by 2u|v|, which moves a term by at most 4u T
  (the slopes of sin v and ``v s1(v)`` are at most 1 and 1.5, and
  ``2 |v| / |z| = w``);
* the closed form cancels down to ``v^2 / 3`` but stays within ``u (|sin v /
  v| + 2 |cos v| + 2.2) <= 5.2u`` of ``v s1(v)`` (about u / |v| relative,
  at most 100u from the cutoff on), so with the product by r within 14u T
  after the 2/z, the largest evaluation error; sin v and the series take
  less;
* the products entering a row add 3u of its term, the two running sums
  ``sqrt(2) n u sum T``, and the scaling and the turn ``(1 + sqrt(5)) u``
  of the sum, itself at most sum T.

Two symmetries stay exact.  cos is even, sin odd, t, v and the series odd
or even in z bit for bit and ``(-a) / (-b) = a / b``, so ``fourier(f, -z)``
is the conjugate of ``fourier(f, z)``; a dyadic translation keeping every
``t0 - c`` keeps every row, so only ``exp(-icz)`` differs.  Where some
``h |z|`` would be subnormal, dividing by z would carry the bits v lost, so
a segment is weighed by h instead: ``2h exp(-itz) (y c0(v) - i r s1(v))``.

Inputs whose nonzero segments repeat their lengths take a lattice sum
instead: sampled traces on an evenly spaced grid whose steps are exact
floats, and step functions on a coarse dyadic lattice.  The lengths are the
widths of the nonzero segments and the gaps between consecutive left edges;
with at least 8 edges and at most half as many distinct lengths, f is taken
as ``sum_k y_k B_k`` over the values y_k of ``_ys``, B_k the B-spline of
order ``_shift`` with knots at edges ``k - _shift`` to ``k + 1`` (de Boor,
1978): a box for a step function, a hat for a piecewise-linear one.  fhat
is a sum of terms ``c_k``, one per nonzero y_k at a point of B_k, the
midpoint of a box and the left end of a hat, from the leftmost, a, by
Horner's rule:

    fhat(z) = exp(-iaz) S_0,   S_k = S_(k+1) exp(-i g_k z) + c_k,

``g_k`` the gap to the next term.  Each distinct length L costs one
``cmath.rect(1, -Lz + 0.0)``, the cos and sin that ``cmath.exp(-iLz)``
takes without its complex product (the ``+ 0.0`` gives a product that
underflows to zero the sign it has in exp's argument, so the two agree to
the bit), and every factor is read off these: no trig call per term.  A box of
half-width h has the real ``c_k = y_k 2 sin(hz) / z``, ``2 (-Im
exp(-ihz)) / z``, and below ``|hz| = 1e-2`` ``2h c0(hz)`` of ``_piece``, so
its row costs one complex product, one float product and one add.  A hat
has the factors of its sides, ``L phi(u) = (sin u - i (1 - cos u)) / z``,
``u = L z``, and ``L psi(u) = L (c1 - i s1)``, read off as in ``_piece``.
A hat is the tent that is 1 at its node x_k and 0 at the other nodes,
one-sided at an end node (where f jumps to 0).  With ``a_k``, ``b_k`` its
gaps to the nodes on the left and right (0 if absent), and as ``1 - t/b``
on [0, b] and ``1 + t/a`` on [-a, 0] are ``1 - s`` and ``s`` on [0, 1]
scaled,

    integral hat_k(x) exp(-ixz) dx = exp(-i x_k z) H(a_k, b_k; z),
    H(a, b; z) = b (phi(bz) - psi(bz)) + exp(iaz) a psi(az),

which for a = b = h is the real ``h sinc^2(hz/2)`` of a tent, Gautschi's
attenuation factor, and ``c_k = y_k exp(-i a_k z) H(a_k, b_k; z)``.  Each
distinct shape, the tuple of side lengths (an absent side a width of
factors 0), has one factor; when all terms share one, as on steps of one
width or an even grid with zero end values, it multiplies once after the
sum of the ``y_k``.  A table per z costs more than the segment loop saves
on the few-piece functions of ``verify`` (8 distinct lengths for 9 edges is
typical), hence the rule and the segment loop below 8 edges
(``_LATTICE_MIN_ROWS``).  Per call, with tables built by ``_fourier_table``
under ``_LATTICE_MIN_ROWS`` 1 and 10**9 and the kernels timed in process
over the same 50 log-uniform z in [1e-3, 1e3] (best of 40 interleaved
repeats of 100 passes; Python 3.11.7, 2-vCPU Xeon VM), a box takes 1.4 us
by the lattice sum and 0.7 us by the segment loop, 6 equal steps (7 edges)
1.9 and 1.7 us, 7 equal steps (8 edges) 2.0 and 1.9 us, a 7-segment sampled
trace (8 edges) 3.1 and 3.7 us, and a 10-box comb (20 edges) 2.5 and 2.4
us.  So on step inputs this small the segment loop is the faster kernel
even at 8 edges and more; the threshold stays at 8, as moving it changes
which rounding such inputs get.

The lattice sum's error, with u = 2^-53, n nonzero segments,
``M = sum w (|y0| + |y1 - y0| / 2)`` over them, a the leftmost edge and W
the span from a to the right end of the last one:

* a length and its product with z round by at most ``2u |L z|``, and a
  term's phase is the sum of the gaps left of it (and, in a hat, a_k), so
  these move the result by at most ``2u |z| W M``, and the anchor's phase
  by ``u |a z| M`` (a box's anchor lies h_0 right of a, its gaps span h_0
  less);
* a box's midpoint m and half-width are the sum and the difference of its
  halved edges, each rounded once (halving is exact above 2^-1021).  A
  rounded half-width is in its factor's bound below, and a rounded m moves
  its term by ``u |m z|`` of it: nothing where every ``t0 + t1`` is a
  float, as on a dyadic lattice, and at most ``u |z| (|a| + W) M`` in all;
* each Horner step multiplies a partial sum, of size at most M, by a phase
  step within ``sqrt(2) u`` of its value (cos and sin within an ulp), with
  a complex product within ``sqrt(5) u``, and adds a term, rounding by u:
  below ``5u M`` per step, one step per term with the anchor factor;
* the bounds of ``_piece`` put ``L phi`` within ``10u L`` and ``L psi``
  within ``18u L``, and a box's factor is within ``8u w`` (the half-width,
  its product with z, the sine or c0 and the division round once each, c0
  within 6u), so with the products a box term is within ``9u w |y0|`` and
  a hat term within ``u |y_k| (31 b_k + 19 a_k)``.

A box term is at most ``w |y0|``.  A hat term is at most ``|y_k| (a_k +
b_k) / 2``, the integral of its hat, so every partial sum is at most
``M' = sum_k |y_k| (a_k + b_k) / 2 = sum w (|y0| + |y1|) / 2 <= M``, as
each segment is a side of the hats at its ends and ``|y1| <= |y0| +
|y1 - y0|``.  At most n + 1 nodes are nonzero (each but f's last node is
the left end of a nonzero segment), and the factor errors sum to
``u sum w (31 |y0| + 19 |y1|) <= 50u M``, whether each row takes its factor
or one factor takes the sum (then one more product, ``sqrt(5) u M'``).  So
the computed value is within ``(5n + 2 |z| W + |a z| + 64) u M`` of fhat,
and within ``(5n + 3 |z| W + 2 |a z| + 64) u M`` where a midpoint rounds.

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
exactly when ``V / |z| <= M min(1, A / B)`` (a rounded midpoint only raises
the box sum's bound, so then too):

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
against 40 digits is 9.0e-12 (5.8e-12 by boxes at every z, 1.2e-14 on the
179 points below the switch), where the segment loop's is 2.1e-10 (seed 2:
5.9e-11 at z = 681.8, 3.7e-11 at z = 955.9 and 1.9e-14, against 4.9e-10),
and on a 1,601-sample trace (linear-roots seed 1)
5.9e-14 by hats (6.4e-14 by segments) against 3.9e-12.  The exception is
small z on long runs of one gap, where the same rounded phase step
multiplies the sum again and again, so its rounding adds up in step:
1.1e-14 relative on that trace at z = 0.01-0.7, where the segment loop
gives 1.6e-15.
"""

import cmath
import math
import operator

from .errors import ValidationError
from .piecewise import PiecewiseFunction, _segment_mean

__all__ = ["fourier"]

# below this |u| the real trig kernels, which cancel at order u^2, and the
# segment loop's v s1(v) read their power series
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
    ``|z|`` on, over the jumps, or else the segment loop.  Each imaginary
    part is odd in z and built from the same operations for z and -z, so
    ``fourier(f, -z) == fourier(f, z).conjugate()`` holds exactly.  A z so
    large that a phase argument overflows is rejected.
    """
    if not z:
        return complex(f.total_integral)
    kernel, reach, table = f.fourier_table
    if not math.isfinite(reach * z):  # a test here is cheaper than a call
        _require_finite_phase(reach, z)
    return kernel(table, z)


def _segment_sum(table: tuple, z: float) -> complex:
    """fhat(z), z != 0, by one pass over the segment rows ``(d, h, y, r)``:
    per segment, the phase of its midpoint ``t = d z`` and ``sin v``,
    ``v = h z``, and on a sloped one ``v s1(v)`` (see the module docstring)."""
    centre, floor, rows = table
    if -floor < z < floor:
        return _tiny_segment_sum(centre, rows, z)
    cutoff = _TRIG_SERIES_CUTOFF
    cos, sin = math.cos, math.sin
    re = im = 0.0  # the centred sum is (2 / z) (re - i im)
    for d, h, y, r in rows:
        if r:  # never on step input
            t = d * z
            v = h * z
            sv = sin(v)
            p = y * sv
            co = cos(t)
            si = sin(t)
            if -cutoff < v < cutoff:
                v2 = v * v
                q = r * (v2 * (1.0 / 3.0 - v2 / 30.0 + v2 * v2 / 840.0))
            else:
                q = r * ((sv - v * cos(v)) / v)
            re += co * p - si * q
            im += si * p + co * q
        else:  # flat: the phase pair and one sine
            p = y * sin(h * z)
            t = d * z
            re += cos(t) * p
            im += sin(t) * p
    re = 2.0 * (re / z)  # dividing first: 2 re may overflow where fhat does not
    im = -2.0 * (im / z)
    pc, ps = cos(centre * z), sin(centre * z)
    return complex(re * pc + im * ps, im * pc - re * ps)


def _tiny_segment_sum(centre: float, rows: tuple, z: float) -> complex:
    """fhat(z) with each segment weighed by h, not divided by z (see the module docstring)."""
    acc = 0j
    for d, h, y, r in rows:
        c0, _, _, s1 = _piece(h * z)
        acc += _phase(d * z) * complex(2.0 * h * y * c0, -2.0 * h * r * s1)
    return acc * _phase(centre * z)


def _horner(rows: tuple, step: list) -> complex:
    """``S_0`` of the module docstring from the rows ``(gap, c_k)``, right to left."""
    acc = 0j
    for gap, c in rows:
        acc = acc * step[gap] + c
    return acc


def _lattice_sum(table: tuple, z: float) -> complex:
    """fhat(z) by Horner's rule from the right, over the jumps from ``|z| =
    switch`` on, anchored at the leftmost edge, else over the boxes or hats."""
    anchor, lengths, widths, shapes, rows, switch, edge, gaps, jumps = table
    rect = cmath.rect  # rect(1, t + 0.0) is exp(it) to the bit, zero signs included
    mz = -z
    if abs(z) >= switch:
        acc = _horner(jumps, [rect(1.0, gap * mz + 0.0) for gap in gaps])
        # fhat = acc / (iz) times the anchor's phase
        return complex(acc.imag / z, -acc.real / z) * rect(1.0, edge * mz + 0.0)
    cutoff = _TRIG_SERIES_CUTOFF
    step = [rect(1.0, length * mz + 0.0) for length in lengths]
    if len(shapes[0]) == 1:  # a box's factor is the real 2 sin(hz) / z, h its half-width
        factor = []
        for k in range(widths):
            u = lengths[k] * z
            if -cutoff < u < cutoff:
                factor.append(2.0 * (lengths[k] * _piece(u)[0]))
            else:
                factor.append(2.0 * (-step[k].imag / z))
    else:  # a hat's is H(a, b) times the phase from its left end to its node
        phi, psi = [], []  # L phi(u) and L psi(u) per side length L
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
                c1, s1 = _ramp(u, c, s, om)
            psi.append(complex(length * c1, -length * s1))
        factor = [step[a] * (phi[b] - psi[b]) + psi[a] for a, b in shapes]
    if len(rows[0]) == 2:  # one shape: its factor multiplies the sum
        return _horner(rows, step) * factor[0] * rect(1.0, anchor * mz + 0.0)
    acc = 0j
    for gap, shape, y in rows:
        acc = acc * step[gap] + factor[shape] * y
    return acc * rect(1.0, anchor * mz + 0.0)


_LATTICE_MIN_ROWS = 8  # fewer edges take the segment loop (see the module docstring)


def _fourier_table(f: PiecewiseFunction) -> tuple:
    """``(kernel, reach, table)``: f's one kernel of :func:`fourier`, a bound
    ``reach |z|`` on its phase arguments, and the table the kernel reads,
    plain tuples built once per function (``f.fourier_table``).

    With at least ``_LATTICE_MIN_ROWS`` edges of nonzero segments and at
    most half as many distinct lengths (the widths of the nonzero segments
    and the gaps between consecutive left edges) the kernel is
    ``_lattice_sum`` and the table that of ``_basis_rows`` for either
    representation.  ``reach`` is then the largest of ``|anchor|``,
    ``|edge|``, the lengths and the gaps between edges.

    Otherwise the kernel is ``_segment_sum`` and the table ``(c, floor,
    rows)``: c the middle entry of ``edges``, one row ``(d, h, y, r)`` per
    nonzero segment, left to right, its midpoint less c, half-width, mean
    value and half-rise, and ``floor`` the ``|z|`` below which some ``h |z|``
    is subnormal.  ``reach`` is the largest of ``|c|`` and ``|d| + h`` on the
    first and last rows, which bound every phase argument.
    """
    segments = _nonzero_segments(f)
    starts, ends = [seg[0] for seg in segments], [seg[1] for seg in segments]
    # the edges: every left edge, and every right edge that is not the next left edge
    count = len(segments) + sum(map(operator.ne, ends, starts[1:] + [None]))
    if count >= _LATTICE_MIN_ROWS:
        lengths = set(map(operator.sub, ends, starts)).union(map(operator.sub, starts[1:], starts))
        if 2 * len(lengths) <= count:
            table = _basis_rows(f, segments)
            return _lattice_sum, max(abs(table[0]), abs(table[6]), *table[1], *table[7]), table
    edges = f.edges
    centre = edges[len(edges) // 2]
    rows = []
    for t0, t1, y0, y1 in segments:
        h = (t1 - t0) * 0.5
        y = y0 if y0 == y1 else _segment_mean(y0, y1)  # a flat row's mean is y0 to the bit
        rows.append(((t0 - centre) + h, h, y, (y1 - y0) * 0.5))
    reach = max([abs(centre)] + [abs(d) + h for d, h, _, _ in rows[:1] + rows[-1:]])
    least = min([h for _, h, _, _ in rows], default=1.0)
    floor = 2.0**-1021 / least if least else math.inf  # below it some h |z| is subnormal
    return _segment_sum, reach, (centre, floor, tuple(rows))


def _basis_rows(f: PiecewiseFunction, segments: list) -> tuple:
    """f's lattice table ``(anchor, lengths, widths, shapes, rows, switch,
    edge, gaps, jumps)``, ``segments`` its nonzero segments.  Value k of
    ``_ys`` multiplies the box or hat with knots at edges ``k - _shift`` to
    ``k + 1``.  A hat's row sits at its left end, its sides the gaps between
    its knots (an absent one 0.0); a box's at its midpoint, its one side its
    half-width, both from the halved edges, so neither overflows.  A shape
    is the tuple of sides as indices into ``lengths``, whose first
    ``widths`` are the side lengths, so a box's shape k is ``(k,)``.  One row
    per nonzero value, right to left (the leftmost sits at ``anchor``):
    ``(gap, y)`` with one shape whose y sum to a float, else ``(gap, shape,
    y)``.  One-sided shapes take the jump rows of ``_jump_rows``; two-sided
    ones have none, and their ``edge`` is ``anchor``."""
    xs = f.edges
    if f._shift:  # absent knots repeat the end
        xs = xs[:1] + xs + xs[-1:]
        steps = list(map(operator.sub, xs[1:], xs))
        terms = zip(xs, zip(steps, steps[1:]), f._ys)
    else:
        halves = [x * 0.5 for x in xs]
        sides = zip(map(operator.sub, halves[1:], halves))
        terms = zip(map(operator.add, halves, halves[1:]), sides, f._ys)
    # per nonzero term, where its row sits, its side lengths and its value
    places, sides, ys = zip(*[term for term in terms if term[2]])
    gaps = list(map(operator.sub, places[1:], places))
    shape = {side: k for k, side in enumerate(dict.fromkeys(sides[::-1]))}
    widths = dict.fromkeys(length for side in shape for length in side)  # shape by shape
    lengths = (*widths, *(set(gaps) - widths.keys()))
    index = {length: k for k, length in enumerate(lengths)}
    columns = [[0, *map(index.__getitem__, gaps[::-1])], ys[::-1]]
    if len(shape) > 1 or sum(ys) == math.inf:  # one factor needs the sum of the y to be a float
        columns.insert(1, list(map(shape.__getitem__, sides[::-1])))
    shapes = tuple(tuple(map(index.__getitem__, side)) for side in shape)
    jumps = _jump_rows(segments) if len(sides[0]) == 1 else (math.inf, places[0], (), ())
    return places[0], lengths, len(widths), shapes, tuple(zip(*columns)), *jumps


def _jump_rows(segments: list) -> tuple:
    """``(switch, edge, gaps, jumps)`` of a step function's lattice table:
    the ``|z|`` from which the sum over its jumps has the smaller error
    bound, the leftmost edge, where that sum is anchored, the distinct gaps
    between consecutive edges, and one row ``(gap, jump)`` per edge, right
    to left, ``gap`` the index of the distance to the next edge on the
    right (0 on the rightmost)."""
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
    mass = math.fsum([(t1 - t0) * abs(y0) for t0, t1, y0, _ in segments])
    try:  # (V / M) max(1, B / A) of the module docstring
        ratio = math.fsum(map(abs, rises)) / mass
        switch = ratio * max(1.0, (5 * len(xs) + 8) / (5 * len(segments) + 64))
    except (OverflowError, ZeroDivisionError):  # V overflows, or every w |y| underflowed:
        switch = math.inf  # the box sum's bound is the smaller
    return switch, xs[0], gaps, jumps


def _nonzero_segments(f: PiecewiseFunction) -> list:
    """The segments ``(t0, t1, y0, y1)`` on which f is not zero, left to right."""
    return [seg for seg in f.segments() if seg[2] != 0.0 or seg[3] != 0.0]


def _require_finite_phase(reach: float, z: float) -> None:
    """Reject z unless it and every phase argument, at most ``reach |z|``, are finite."""
    if not math.isfinite(reach * z):
        if not math.isfinite(z):
            raise ValidationError("z must be finite")
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
