"""Differential tests: the single segment kernels against the code they replaced.

The oracles below are the earlier implementations, kept verbatim apart from
names: the per-level rearrangement (one fsum over every segment per distinct
level, O(n^2); its crossing term is the library's, whose exactness
``tests/test_rearrange.py`` checks against rationals), the per-segment
transform kernel (four trig calls per segment, phases uncentred), the
step-only evaluation, integral, distribution, tail table, crest cuts and crest
locations that the segment model replaced, the crest count over the
collapsed value profile, the decomposition that rescanned every piece per
cell, the separate sine and cosine loops, the Gauss-Kronrod engine with the
Hardy loops (moved onto it from adaptive Simpson; both in
``quadrature_oracles``), the Lorentz norm that ran adaptive quadrature on
linear input, the exact Lorentz norm that visited every weight piece per
segment of f*, the loop over every segment that ``integrate`` ran before it
read one table per function, and the segment loop and its rows before a flat
segment took its own arithmetic.  The library must agree with them exactly,
with no tolerance, except for the transform, which now sums each segment's
centred midpoint phase or, on inputs whose segment lengths repeat, runs
Horner's rule over the segments or the jumps (within a derived rounding
bound, and against 40 digits at 10^3 and 10^4 pieces), and the linear
Lorentz norm, which is now exact (see their tests).
"""

import cmath
import math
from bisect import bisect_right
from collections import defaultdict

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crestimate import (
    ConvergenceError,
    PiecewiseLinearFunction,
    StepFunction,
    ValidationError,
    comb_example,
    cosine_transform,
    count_crests,
    decompose,
    default_z_grid,
    distribution,
    evaluate,
    fourier,
    from_samples,
    integrate,
    lorentz_lambda_norm,
    make_step,
    rearrangement,
    sine_transform,
    window_bounds,
)
from crestimate.generators import (
    log_uniform,
    random_decreasing_step,
    random_one_crest_step,
    random_step_function,
    random_weight,
    rng_for,
)
from crestimate.hardy import (
    QUADRATURE_REL_TOL,
    _fourier_weighted_norm_with_error,
    _hardy_lhs_with_error,
)
from crestimate import transform
from crestimate.piecewise import _on_line, _segment_integral, _segment_mean
from crestimate.quadrature import gauss_kronrod_adaptive
from crestimate.rearrange import _mean_power
from crestimate.transform import (
    _TRIG_SERIES_CUTOFF,
    _lattice_sum,
    _piece,
    _segment_sum,
    _tiny_segment_sum,
)

from quadrature_oracles import gauss_kronrod, hardy_lhs_with_error

# --- oracle: the per-level linear rearrangement --------------------------


def _oracle_superlevel(t0, t1, y0, y1, alpha):
    above0 = y0 > alpha
    above1 = y1 > alpha
    if above0 and above1:
        return t1 - t0
    if not above0 and not above1:
        return 0.0
    # the library's crossing term, so that the sweep is checked, not the term
    hi, lo = max(y0, y1), min(y0, y1)
    return (hi - alpha) * ((t1 - t0) / (hi - lo))


def _oracle_plateau_measure(f, level):
    return math.fsum(
        t1 - t0 for t0, t1, y0, y1 in f.segments() if y0 == level and y1 == level
    )


def _oracle_linear_star(f):
    if f.is_zero:
        return PiecewiseLinearFunction((0.0, 1.0), (0.0, 0.0))
    levels = sorted({0.0, *f.node_values})
    top = levels[-1]
    xs = [0.0]
    ys = [top]

    def append(x, y):
        if x > xs[-1]:
            xs.append(x)
            ys.append(y)

    top_plateau = _oracle_plateau_measure(f, top)
    if top_plateau > 0.0:
        append(top_plateau, top)
    for level in reversed(levels[:-1]):
        above = math.fsum(_oracle_superlevel(*seg, level) for seg in f.segments())
        append(above, level)
        if level > 0.0:
            plateau = _oracle_plateau_measure(f, level)
            if plateau > 0.0:
                append(above + plateau, level)
    return PiecewiseLinearFunction(tuple(xs), tuple(ys))


# --- oracle: the per-segment transform kernel ----------------------------

# |z| * width below this reads phi/psi off their power series (keeps the
# cancellation error of each piece term below ~1e-10 relative)
PHASE_SERIES_CUTOFF = 1e-4


def _oracle_phi(u):
    if abs(u) < PHASE_SERIES_CUTOFF:
        w = complex(0.0, -u)
        return 1.0 + w * (1 / 2 + w * (1 / 6 + w * (1 / 24 + w * (1 / 120 + w / 720))))
    re = 1.0 - math.cos(u)
    im = math.sin(u)
    return complex(im / u, -re / u)


def _oracle_psi(u):
    w = complex(0.0, -u)
    return 0.5 + w * (1 / 3 + w * (1 / 8 + w * (1 / 30 + w * (1 / 144 + w / 840))))


def _oracle_fourier(f, z):
    cutoff = PHASE_SERIES_CUTOFF
    cos, sin = math.cos, math.sin
    re = im = 0.0
    for t0, t1, y0, y1 in f.segments():
        if y0 == 0.0 and y1 == 0.0:
            continue
        w = t1 - t0
        u = w * z
        dy = y1 - y0
        if -cutoff < u < cutoff:
            phi, psi = _oracle_phi(u), _oracle_psi(u)
            d_re = y0 * phi.real + dy * psi.real
            d_im = y0 * phi.imag + dy * psi.imag
        else:
            cu, su = cos(u), sin(u)
            phi_re = su / u
            phi_im = -(su * su / (1.0 + cu) if abs(u) < 1.0 else 1.0 - cu) / u
            d_re = y0 * phi_re + dy * ((phi_im + su) / u)
            d_im = y0 * phi_im + dy * (-(phi_re - cu) / u)
        a_re = w * cos(t0 * z)
        a_im = w * -sin(t0 * z)
        re += a_re * d_re - a_im * d_im
        im += a_re * d_im + a_im * d_re
    return complex(re, im)


# --- oracles: the step-only kernels ---------------------------------------


def _oracle_pieces(f):
    for i, v in enumerate(f.values):
        yield f.breakpoints[i], f.breakpoints[i + 1], v


def _oracle_step_evaluate(f, x):
    bp = f.breakpoints
    if x < bp[0] or x >= bp[-1]:
        return 0.0
    return f.values[bisect_right(bp, x) - 1]


def _oracle_step_integrate(f, a, b):
    if a > b:
        return -_oracle_step_integrate(f, b, a)
    terms = []
    for lo, hi, v in _oracle_pieces(f):
        if v == 0.0:
            continue
        width = min(b, hi) - max(a, lo)
        if width > 0.0:
            terms.append(v * width)
    return math.fsum(terms)


def _oracle_step_distribution(f, alpha):
    return math.fsum(b - a for a, b, v in _oracle_pieces(f) if v > alpha)


def _oracle_step_integral_up_to(star, t):
    terms = [v * (b - a) for a, b, v in _oracle_pieces(star)]
    edges = star.breakpoints
    k = bisect_right(edges, t) - 1
    if k < 0:
        return 0.0
    if k == len(terms) or edges[k] == t:
        return math.fsum(terms[:k])
    partial = star.values[k] * (t - edges[k])
    return math.fsum(terms[:k] + [partial])


def _oracle_step_cuts(f):
    vals = f.values
    bp = f.breakpoints
    n = len(vals)
    cuts = []
    for j in range(n):
        left = vals[j - 1] if j > 0 else 0.0
        right = vals[j + 1] if j < n - 1 else 0.0
        if left > vals[j] < right:
            if vals[j] == 0.0:
                cuts.append(0.5 * (bp[j] + bp[j + 1]))
            else:
                cuts.append(bp[j])
    return tuple(cuts)


def _oracle_step_leftmost_max(p):
    best = max(p.values)
    for a, _, v in _oracle_pieces(p):
        if v == best:
            return a
    raise AssertionError("unreachable")


def _oracle_collapse(seq):
    out = []
    for v in seq:
        if not out or out[-1] != v:
            out.append(v)
    return out


def _oracle_valley_count(values):
    s = _oracle_collapse([0.0, *values, 0.0])
    return sum(1 for i in range(1, len(s) - 1) if s[i - 1] > s[i] < s[i + 1])


def _oracle_profile(f):
    if isinstance(f, StepFunction):
        return f.values
    return f.node_values


# --- seeded random linear functions ---------------------------------------


def _random_linear(rng):
    """Dyadic or arbitrary nodes; zero gaps, plateaus, repeated levels, jumps."""
    n = rng.randint(2, 40)
    dyadic = rng.random() < 0.5
    x = rng.randint(-64, 64) / 8 if dyadic else rng.uniform(-5.0, 5.0)
    nodes = []
    for _ in range(n):
        nodes.append(x)
        x += rng.randint(1, 16) / 16 if dyadic else rng.uniform(1e-3, 2.0)
    pool = [rng.randint(0, 8) / 4 if dyadic else rng.uniform(0.0, 3.0) for _ in range(6)]
    vals = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.25:
            vals.append(0.0)
        elif roll < 0.5 and vals:
            vals.append(vals[-1])
        elif roll < 0.75:
            vals.append(rng.choice(pool))
        else:
            vals.append(rng.randint(0, 1024) / 256 if dyadic else rng.uniform(0.0, 5.0))
    if rng.random() < 0.5:
        vals[0] = 0.0
    if rng.random() < 0.5:
        vals[-1] = 0.0
    return PiecewiseLinearFunction(tuple(nodes), tuple(vals))


def _features(f):
    vals = f.node_values
    top = max(vals)
    flat = [y0 for _, _, y0, y1 in f.segments() if y0 == y1]
    return {
        "top plateau": any(y == top > 0.0 for y in flat),
        "interior plateau": any(0.0 < y < top for y in flat),
        "zero gap": any(y == 0.0 for y in flat),
        "jump": vals[0] > 0.0 or vals[-1] > 0.0,
    }


_rng = rng_for(41, "differential/linear")
LINEAR_FAMILY = [_random_linear(_rng) for _ in range(1500)]


def _bump_trace():
    """A sampled train of 25 sin^2 bumps with zero gaps, 1601 samples."""
    rng = rng_for(42, "differential/bumps")
    ys = [0.0] * 1601
    for b in range(25):
        start = 64 * b + rng.randint(0, 47)
        amplitude = 1.0 + 0.5 * (rng.random() - 0.5)
        for j in range(1, 16):
            ys[start + j] = round(amplitude * math.sin(math.pi * j / 16) ** 2 * 2**20) / 2**20
    return from_samples([k / 1024 for k in range(1601)], ys, mode="linear")


def test_family_covers_the_edge_cases():
    seen = {name: 0 for name in _features(LINEAR_FAMILY[0])}
    for f in LINEAR_FAMILY:
        for name, present in _features(f).items():
            seen[name] += present
    assert all(count > 0 for count in seen.values()), seen


def test_linear_star_equals_per_level_oracle():
    for f in LINEAR_FAMILY + [_bump_trace()]:
        assert rearrangement(f).star == _oracle_linear_star(f)


def _fourier_rounding_bound(f, z):
    """How far the segment loop may round away from the per-segment oracle.

    With u = 2^-53, n nonzero segments, X the largest |edge| and T_j =
    Y_j max(w_j, 1/|z|), Y_j = max(|y0|, |y1|), every term either kernel
    adds for segment j is at most 1.5 T_j: a piece term is at most
    (|y0| + |dy|/2) w <= 1.5 Y w, and a midpoint term at most T_j (the
    ``transform`` docstring).  The segment loop is within (2n + 10 X|z| +
    30) u sum T of fhat (its reach is at most 2X), as that docstring
    proves.  The oracle rounds t0 z by u X|z|.  Where psi's closed form
    cancels (from |w z| = 1e-4 up) it loses a few u / |w z| of w |dy|, a
    few u T_j as T_j >= Y_j / |z|, so with cos, sin and the products its
    terms are within a few tens of u T_j, and its one sum of n terms adds
    1.5 n u sum T.  Both stay well inside the bound below, which was set
    for the edge loop before the segment loop (4 T_j per segment, phases
    centred at an edge, four terms per edge) and is kept as it was.  At
    z = 0 both kernels add w (y0 + dy/2) in the same order.
    """
    segments = [seg for seg in f.segments() if seg[2] != 0.0 or seg[3] != 0.0]
    reach = 1.0 / abs(z)
    size = math.fsum(max(abs(y0), abs(y1)) * max(t1 - t0, reach) for t0, t1, y0, y1 in segments)
    x_max = max(abs(x) for x in f.edges)
    return (18 * len(segments) + 22 * x_max * abs(z) + 96) * 2.0**-53 * size


def _branch_zs(halves):
    """z values putting every segment's ``v = h z``, h its half-width, on the
    series of ``v s1(v)`` (``|v| < 1e-2``), its closed form and past 1."""
    narrow, wide = min(halves), max(halves)
    zs = [0.5 * _TRIG_SERIES_CUTOFF / wide, 2.0 / narrow]
    if _TRIG_SERIES_CUTOFF / narrow < 0.5 / wide:
        zs.append(math.sqrt(_TRIG_SERIES_CUTOFF / narrow * 0.5 / wide))
    return zs


def _branches(halves, z):
    """Which of the series, the closed form below ``|v| = 1`` and the closed
    form from 1 on the segments take, v = h z."""
    return (
        any(abs(h * z) < _TRIG_SERIES_CUTOFF for h in halves),
        any(_TRIG_SERIES_CUTOFF <= abs(h * z) < 1.0 for h in halves),
        any(abs(h * z) >= 1.0 for h in halves),
    )


def _check_fourier_family(family, rng):
    """Counts of z taking only the series, the closed form below 1 or the
    closed form from 1 (``_branches``), then of functions taking the segment
    loop and the lattice sum."""
    every = [0, 0, 0, 0, 0]
    for f in family:
        halves = [(t1 - t0) * 0.5 for t0, t1, y0, y1 in f.segments() if y0 != 0.0 or y1 != 0.0]
        if not halves:
            assert fourier(f, 1.0) == 0.0 == _oracle_fourier(f, 1.0)
            continue
        every[4 if f.fourier_table[0] is _lattice_sum else 3] += 1
        zs = [log_uniform(rng, 1e-3, 1e3), -log_uniform(rng, 1e-3, 1e3), *_branch_zs(halves)]
        for z in zs + [-z for z in zs[2:]]:
            value = fourier(f, z)
            assert abs(value - _oracle_fourier(f, z)) <= _fourier_rounding_bound(f, z)
            hits = _branches(halves, z)
            if sum(hits) == 1:
                every[hits.index(True)] += 1
        # fhat(0) is the correctly rounded sum of the segment integrals
        integrals = [(t1 - t0) * (y0 + y1) / 2 for t0, t1, y0, y1 in f.segments()]
        assert fourier(f, 0.0) == complex(math.fsum(integrals))
    return every


def test_linear_fourier_within_rounding_of_segment_kernel():
    every = _check_fourier_family(LINEAR_FAMILY, rng_for(43, "differential/z"))
    assert all(count > 0 for count in every), every


def _lattice_function(rng):
    """Segments on the 1/32 lattice, 1 to 4 cells wide, so a few lengths repeat.

    A step function with zero gaps, a comb, or samples through
    :func:`from_samples` in either mode, with some runs of zeros.
    """
    roll = rng.random()
    if roll < 0.1:
        return comb_example(rng.randint(1, 4))
    n = rng.randint(24, 160)
    x = rng.randint(-256, 256) / 32
    if roll < 0.55:
        breakpoints = [x]
        for _ in range(n):
            breakpoints.append(breakpoints[-1] + rng.randint(1, 4) / 32)
        values = [rng.choice((0.0, rng.randint(1, 64) / 16)) for _ in range(n)]
        values[0] = values[-1] = 1.0
        return make_step(breakpoints, values)
    ys = [0.0 if rng.random() < 0.3 else rng.randint(0, 1024) / 256 for _ in range(n)]
    mode = "linear" if roll < 0.85 else "left-step"
    return from_samples([x + k / 32 for k in range(n)], ys, mode=mode)


_lattice_rng = rng_for(51, "differential/lattice")
LATTICE_FAMILY = [_lattice_function(_lattice_rng) for _ in range(300)]


def test_lattice_fourier_within_rounding_of_segment_kernel():
    every = _check_fourier_family(LATTICE_FAMILY, rng_for(52, "differential/lattice/z"))
    assert every[3] == 0 and all(count > 0 for count in every[:3] + every[4:]), every


def test_linear_fourier_on_a_sampled_trace_within_rounding_of_segment_kernel():
    f = _bump_trace()
    assert f.fourier_table[0] is _lattice_sum
    for k in range(-40, 61):
        z = 10.0 ** (k / 10)
        assert abs(fourier(f, z) - _oracle_fourier(f, z)) <= _fourier_rounding_bound(f, z)


@pytest.mark.parametrize("kind", ["step", "linear"])
def test_integral_up_to_equals_integrate(kind):
    rng = rng_for(44, f"differential/tail/{kind}")
    for _ in range(300):
        f = random_step_function(rng) if kind == "step" else _random_linear(rng)
        if f.is_zero:
            continue
        r = rearrangement(f)
        edges = r.star.breakpoints if kind == "step" else r.star.nodes
        ts = [0.0, *edges, edges[-1] + 1.0, math.inf]
        ts += [0.5 * (a + b) for a, b in zip(edges, edges[1:])]
        ts += [rng.uniform(0.0, edges[-1]) for _ in range(5)]
        for t in ts:
            assert r.integral_up_to(t) == integrate(r.star, 0.0, t)
        assert r.integral_up_to(0.0) == 0.0
        assert r.integral_up_to(math.inf) == integrate(r.star, -math.inf, math.inf)
        for t in (math.nan, -1.0, -5e-324, -math.inf):
            with pytest.raises(ValidationError, match="t must be nonnegative"):
                r.integral_up_to(t)


# --- oracle: the segment loop integrate ran before its table --------------


def _oracle_integrate(f, a, b):
    if a > b:
        return -_oracle_integrate(f, b, a)
    terms = []
    for t0, t1, y0, y1 in f.segments():
        lo = max(a, t0)
        hi = min(b, t1)
        if hi > lo:
            terms.append(_segment_integral(t0, t1, y0, y1, lo, hi))
    return math.fsum(terms)


def _same_float(x, y):
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def _probe_points(draw, edges):
    """Edges, points inside pieces and beyond the support, and +-inf."""
    inside = [a + draw(st.floats(0.0, 1.0)) * (b - a) for a, b in zip(edges, edges[1:])]
    beyond = [edges[0] - draw(st.floats(0.0, 4.0)), edges[-1] + draw(st.floats(0.0, 4.0))]
    return [*edges, *inside, *beyond, -math.inf, math.inf, 0.0, -0.0]


@st.composite
def _function_and_bounds(draw):
    n = draw(st.integers(1, 12))
    widths = draw(st.lists(st.floats(2.0**-10, 4.0), min_size=n, max_size=n))
    edges = [draw(st.floats(-8.0, 8.0))]
    for w in widths:
        edges.append(edges[-1] + w)
    quarters = st.integers(0, 16).map(lambda k: k / 4)
    value = st.one_of(st.just(0.0), st.floats(2.0**-20, 5.0), quarters)
    if draw(st.booleans()):
        f = StepFunction(edges, draw(st.lists(value, min_size=n, max_size=n)))
    else:
        f = PiecewiseLinearFunction(edges, draw(st.lists(value, min_size=n + 1, max_size=n + 1)))
    points = _probe_points(draw, f.edges)
    point = st.sampled_from(points)
    bounds = draw(st.lists(st.tuples(point, point), max_size=40))
    star = rearrangement(f).star
    tails = [t for t in _probe_points(draw, star.edges) if t >= 0.0]
    return f, bounds, tails


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_function_and_bounds())
def test_integrate_equals_the_segment_loop_bit_for_bit(drawn):
    """The table read sums the loop's terms, so every bit agrees, the sign
    of zero included, for bounds at edges, inside pieces, beyond the
    support, at +-inf and reversed; the tails of f* read the same table."""
    f, bounds, tails = drawn
    for a, b in bounds:
        assert _same_float(integrate(f, a, b), _oracle_integrate(f, a, b)), (a, b)
    r = rearrangement(f)
    for t in tails:
        assert _same_float(r.integral_up_to(t), _oracle_integrate(r.star, 0.0, t)), t


# Values where a flat segment's ``(hi - lo) * y0`` could part from the
# segment kernel's mean: signed zeros, subnormals, and values from 2^1023 on,
# where ``y0 + y0`` overflows.
_FLAT_VALUES = st.sampled_from(
    [0.0, -0.0, 5e-324, 2.5e-323, 2.0**-1022 - 5e-324, 2.0**-1022, 0.75, 1.0, 3.0,
     2.0**1023, 1.5 * 2.0**1023, 1.7976931348623157e308]
)


def _outcome(fn, *args):
    """fn(*args), or the type of the error it raised."""
    try:
        return fn(*args)
    except (OverflowError, ValidationError) as exc:
        return type(exc)


def _same_outcome(x, y):
    return x is y if isinstance(y, type) else _same_float(x, y)


@st.composite
def _flat_function_and_bounds(draw):
    """A step function, or a piecewise-linear one whose node values repeat
    half the time, on _FLAT_VALUES; widths up to 1, so a piece at 2^1023
    has a float integral and two such pieces overflow the fsum."""
    n = draw(st.integers(1, 10))
    width = st.one_of(st.sampled_from([2.0**-3, 0.25, 0.5, 0.75, 1.0]), st.floats(2.0**-10, 1.0))
    edges = [draw(st.floats(-4.0, 4.0))]
    for w in draw(st.lists(width, min_size=n, max_size=n)):
        edges.append(edges[-1] + w)
    if draw(st.booleans()):
        f = StepFunction(edges, draw(st.lists(_FLAT_VALUES, min_size=n, max_size=n)))
    else:
        values = [draw(_FLAT_VALUES)]
        for _ in range(n):
            values.append(values[-1] if draw(st.booleans()) else draw(_FLAT_VALUES))
        f = PiecewiseLinearFunction(edges, values)
    point = st.sampled_from(_probe_points(draw, f.edges))
    bounds = draw(st.lists(st.tuples(point, point), max_size=40))
    r = _outcome(rearrangement, f)
    tails = [] if isinstance(r, type) else [t for t in _probe_points(draw, r.star.edges) if t >= 0.0]
    return f, bounds, r, tails


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_flat_function_and_bounds())
def test_flat_pieces_integrate_as_the_segment_loop_bit_for_bit(drawn):
    """A flat piece, whole or partial, is ``(hi - lo) * y0`` without the
    segment kernel: the same float as the kernel's, the sign of zero, a
    subnormal and the overflow of ``y0 + y0`` included, and the same
    OverflowError where the fsum overflows."""
    f, bounds, r, tails = drawn
    for a, b in bounds:
        assert _same_outcome(_outcome(integrate, f, a, b), _outcome(_oracle_integrate, f, a, b)), (a, b)
    for t in tails:
        got, want = _outcome(r.integral_up_to, t), _outcome(_oracle_integrate, r.star, 0.0, t)
        assert _same_outcome(got, want), t


# --- oracle: the segment loop before flat rows took their own branch -----


def _oracle_segment_rows(f):
    """The rows ``(d, h, y, r)`` with every mean through ``_segment_mean``."""
    segments = [seg for seg in f.segments() if seg[2] != 0.0 or seg[3] != 0.0]
    centre = f.edges[len(f.edges) // 2]
    rows = []
    for t0, t1, y0, y1 in segments:
        h = (t1 - t0) * 0.5
        rows.append(((t0 - centre) + h, h, _segment_mean(y0, y1), (y1 - y0) * 0.5))
    return tuple(rows)


def _oracle_segment_sum(table, z):
    centre, floor, rows = table
    if -floor < z < floor:
        return _tiny_segment_sum(centre, rows, z)
    cutoff = _TRIG_SERIES_CUTOFF
    cos, sin = math.cos, math.sin
    re = im = 0.0
    for d, h, y, r in rows:
        t = d * z
        v = h * z
        sv = sin(v)
        p = y * sv
        co = cos(t)
        si = sin(t)
        if r:
            if -cutoff < v < cutoff:
                v2 = v * v
                q = r * (v2 * (1.0 / 3.0 - v2 / 30.0 + v2 * v2 / 840.0))
            else:
                q = r * ((sv - v * cos(v)) / v)
            re += co * p - si * q
            im += si * p + co * q
        else:
            re += co * p
            im += si * p
    re = 2.0 * (re / z)
    im = -2.0 * (im / z)
    pc, ps = cos(centre * z), sin(centre * z)
    return complex(re * pc + im * ps, im * pc - re * ps)


def _sloped_linear(rng):
    """Nodes whose values all differ from their neighbours': no flat row."""
    n = rng.randint(2, 30)
    nodes = [rng.uniform(-5.0, 5.0)]
    for _ in range(n - 1):
        nodes.append(nodes[-1] + rng.uniform(1e-3, 2.0))
    vals = [rng.uniform(0.0, 5.0)]
    for _ in range(n - 1):  # up by at least 1e-3, or down to at most 0.9 times
        up = rng.random() < 0.5 or vals[-1] == 0.0
        vals.append(vals[-1] + rng.uniform(1e-3, 2.0) if up else vals[-1] * rng.uniform(0.0, 0.9))
    return PiecewiseLinearFunction(nodes, vals)


def test_segment_sum_equals_the_loop_before_flat_rows_bit_for_bit(monkeypatch):
    """Step, sloped and mixed tables, every input on the segment loop, at z
    putting each row's ``v = h z`` below and above ``|v| = 1e-2`` and at
    random z of both signs: the table and the sum keep every bit."""
    monkeypatch.setattr(transform, "_LATTICE_MIN_ROWS", 10**9)
    rng = rng_for(45, "differential/segment-sum")
    families = {
        "step": [_random_step(rng) for _ in range(150)],
        "sloped": [_sloped_linear(rng) for _ in range(150)],
        "mixed": LINEAR_FAMILY[:300],
    }
    for name, family in families.items():
        flat = sloped = below = above = 0
        for f in family:
            kernel, _, table = transform._fourier_table(f)
            assert kernel is _segment_sum
            rows = table[2]
            old = _oracle_segment_rows(f)
            assert len(rows) == len(old)
            assert all(map(_same_float, sum(rows, ()), sum(old, ())))
            if not rows:
                continue
            halves = [h for _, h, _, _ in rows]
            zs = [log_uniform(rng, 1e-3, 1e3), *_branch_zs(halves), 5e-324]
            for z in zs + [-z for z in zs]:
                got, want = _segment_sum(table, z), _oracle_segment_sum(table, z)
                assert _same_float(got.real, want.real) and _same_float(got.imag, want.imag), (f, z)
                below += any(abs(h * z) < _TRIG_SERIES_CUTOFF for h in halves)
                above += any(abs(h * z) >= _TRIG_SERIES_CUTOFF for h in halves)
            flat += sum(not r for _, _, _, r in rows)
            sloped += sum(bool(r) for _, _, _, r in rows)
        assert below and above, name
        expected = {"step": (True, False), "sloped": (False, True), "mixed": (True, True)}[name]
        assert (flat > 0, sloped > 0) == expected, name


# --- seeded random step functions -----------------------------------------


def _random_step(rng):
    """Dyadic draws from the library's generators, or arbitrary floats."""
    roll = rng.random()
    if roll < 0.3:
        return random_step_function(rng, max_pieces=40)
    if roll < 0.4:
        return random_decreasing_step(rng)
    if roll < 0.5:
        return random_one_crest_step(rng)
    n = rng.randint(1, 40)
    x = rng.uniform(-5.0, 5.0)
    breakpoints = [x]
    for _ in range(n):
        x += rng.uniform(1e-3, 2.0)
        breakpoints.append(x)
    pool = [rng.uniform(0.0, 3.0) for _ in range(4)]
    values = [
        0.0 if r < 0.2 else rng.choice(pool) if r < 0.5 else rng.uniform(0.0, 5.0)
        for r in (rng.random() for _ in range(n))
    ]
    if not any(values):
        values[0] = 1.0
    return make_step(breakpoints, values)


_step_rng = rng_for(46, "differential/step")
STEP_FAMILY = [_random_step(_step_rng) for _ in range(1500)]


def test_step_evaluate_integrate_distribution_equal_step_kernels():
    rng = rng_for(47, "differential/step/points")
    for f in STEP_FAMILY:
        bp = f.breakpoints
        lo, hi = bp[0], bp[-1]
        xs = [lo - 1.0, *bp, hi + 1.0, *(0.5 * (a + b) for a, b in zip(bp, bp[1:]))]
        xs += [rng.uniform(lo, hi) for _ in range(5)]
        for x in xs:
            assert evaluate(f, x) == _oracle_step_evaluate(f, x)
        bounds = [(-math.inf, math.inf), (hi, lo), *zip(bp, bp[2:])]
        bounds += [(rng.uniform(lo - 1.0, hi + 1.0), rng.uniform(lo - 1.0, hi + 1.0)) for _ in range(5)]
        for a, b in bounds:
            assert integrate(f, a, b) == _oracle_step_integrate(f, a, b)
        for alpha in [*set(f.values) - {0.0}, rng.uniform(1e-3, 5.0), math.inf]:
            assert distribution(f, alpha) == _oracle_step_distribution(f, alpha)


def test_step_tail_table_equals_step_kernel():
    rng = rng_for(48, "differential/step/tail")
    for f in STEP_FAMILY:
        r = rearrangement(f)
        edges = r.star.breakpoints
        ts = [0.0, *edges, edges[-1] + 1.0, math.inf]
        ts += [0.5 * (a + b) for a, b in zip(edges, edges[1:])]
        ts += [rng.uniform(0.0, edges[-1]) for _ in range(5)]
        for t in ts:
            assert r.integral_up_to(t) == _oracle_step_integral_up_to(r.star, t)


def test_step_decompose_equals_step_cuts():
    for f in STEP_FAMILY:
        report = decompose(f)
        assert report.cut_points == _oracle_step_cuts(f)
        assert report.crest_locations == tuple(
            _oracle_step_leftmost_max(p) for p in report.pieces
        )


def test_count_crests_equals_collapsed_profile_count():
    for f in STEP_FAMILY + LINEAR_FAMILY:
        if not f.is_zero:
            assert count_crests(f) == 1 + _oracle_valley_count(_oracle_profile(f))


def test_star_keeps_the_mass():
    """f* is equimeasurable with f, so their integrals agree; a positive end
    of a linear f (a jump to 0) is where a star that loses its end jump
    loses up to half the mass."""
    for f in LINEAR_FAMILY + STEP_FAMILY:
        mass = f.total_integral
        assert math.isclose(rearrangement(f).star.total_integral, mass, rel_tol=1e-12), f


def test_step_fourier_within_rounding_of_segment_kernel():
    rng = rng_for(49, "differential/step/z")
    family = STEP_FAMILY + [
        random_step_function(rng, min_pieces=1024, max_pieces=1024) for _ in range(4)
    ]
    every = _check_fourier_family(family, rng)
    assert all(count > 0 for count in every), every


def _lattice_step(rng, pieces):
    """Breakpoints on the 1/32 lattice, values k/16, no two equal neighbours."""
    values = [0.0]
    for k in range(pieces):
        low = 1 if k in (0, pieces - 1) else 0  # nonzero ends: nothing to trim
        v = values[-1]
        while v == values[-1]:
            v = rng.randint(low, 16) / 16
        values.append(v)
    values.pop(0)
    breakpoints = [0.0]
    for _ in range(pieces):
        breakpoints.append(breakpoints[-1] + rng.randint(1, 80) / 32)
    return make_step(breakpoints, values)


def _mp_fourier_magnitude(f, z):
    """|fhat(z)| to 40 digits, by parts: the sum over the edges x of
    ``exp(-ixz) (J / (iz) + K / z^2)``, J the rise of f across x and K the
    slope left of x minus the slope right of it."""
    with mpmath.workdps(40):
        zz = mpmath.mpf(z)
        rise = defaultdict(mpmath.mpf)
        kink = defaultdict(mpmath.mpf)
        for t0, t1, y0, y1 in f.segments():
            rise[t0] += y0
            rise[t1] -= y1
            if y1 != y0:
                slope = (mpmath.mpf(y1) - y0) / (mpmath.mpf(t1) - t0)
                kink[t0] -= slope
                kink[t1] += slope
        inverse = 1 / zz
        total = mpmath.fsum(
            mpmath.expj(-mpmath.mpf(x) * zz) * mpmath.mpc(kink[x] * inverse**2, -rise[x] * inverse)
            for x in rise
        )
        return abs(total)


def test_step_fourier_matches_40_digit_reference_at_10k_pieces():
    """Relative error of |fhat| at most 1e-9 on 10^4 pieces out to x = 12,700.

    The phase argument (x - c) z of an edge rounds by up to u |x - c| |z|,
    about 7e-10 at z = 934.64; centring on the middle edge halves |x|.
    """
    f = _lattice_step(rng_for(50, "differential/reference"), 10_000)
    assert len(f.values) == 10_000
    for z in (0.7, 31.4159, 333.3, 934.64):
        exact = _mp_fourier_magnitude(f, z)
        assert abs(abs(fourier(f, z)) - exact) <= 1e-9 * exact


def _lattice_error_bound(f, z):
    """The lattice sum's error bound of the ``transform`` docstring."""
    segments = [seg for seg in f.segments() if seg[2] != 0.0 or seg[3] != 0.0]
    anchor, span = segments[0][0], segments[-1][1] - segments[0][0]
    mass = math.fsum((t1 - t0) * (abs(y0) + abs(y1 - y0) / 2) for t0, t1, y0, y1 in segments)
    return (5 * len(segments) + 2 * abs(z) * span + abs(anchor * z) + 64) * 2.0**-53 * mass


def test_lattice_fourier_within_its_error_bound_at_bench_scale():
    """1,024 pieces on the 1/32 lattice and 1,601 samples, against 40 digits.

    The z values run from every width on the series branch through widths on
    both sides of 1/z to every width past it.
    """
    step = _lattice_step(rng_for(53, "differential/bench-scale"), 1024)
    trace = _bump_trace()
    zs = (1e-3, 0.01, 0.1, 0.35, 1.0, 3.3, 10.0, 31.4159, 40.0, 100.0, 333.3, 934.64)
    for f, extra in ((step, ()), (trace, (2048.0,))):
        assert f.fourier_table[0] is _lattice_sum
        for z in zs + extra:
            exact = _mp_fourier_magnitude(f, z)
            assert abs(abs(fourier(f, z)) - exact) <= _lattice_error_bound(f, z), z


def _by_parts_error_bound(f, z):
    """The error bound of the sum over a step function's jumps, of the
    ``transform`` docstring: ``(5 n_e + 2 |z| W + |a z| + 8) u V / |z|``."""
    segments = [seg for seg in f.segments() if seg[2] != 0.0]
    rise = defaultdict(float)
    for t0, t1, y0, _ in segments:
        rise[t0] += y0
        rise[t1] -= y0
    anchor, span = segments[0][0], segments[-1][1] - segments[0][0]
    variation = math.fsum(map(abs, rise.values()))
    terms = 5 * len(rise) + 2 * abs(z) * span + abs(anchor * z) + 8
    return terms * 2.0**-53 * variation / abs(z)


def _one_form(f, switch):
    """f's lattice table with the sum over the jumps from ``|z| = switch`` on."""
    table = f.fourier_table[2]
    return table[:5] + (switch,) + table[6:]


def test_step_lattice_fourier_on_both_sides_of_the_by_parts_switch():
    """1,024 dyadic pieces against 40 digits at z around the switch: each
    form within its own bound, and the sum over the jumps only where its
    bound is no larger than the segment form's."""
    f = _lattice_step(rng_for(54, "differential/by-parts"), 1024)
    switch = f.fourier_table[2][5]
    taken = set()
    for ratio in (0.05, 0.5, 0.999, 1.001, 2.0, 10.0, 100.0, 1000.0):
        z = ratio * switch
        by_parts = abs(z) >= switch
        taken.add(by_parts)
        value = fourier(f, z)
        assert value == _lattice_sum(_one_form(f, 0.0 if by_parts else math.inf), z)
        bound = _lattice_error_bound(f, z)
        if by_parts:
            parts_bound = _by_parts_error_bound(f, z)
            assert parts_bound <= bound, z
            bound = parts_bound
        assert abs(abs(value) - _mp_fourier_magnitude(f, z)) <= bound, z
    assert taken == {True, False}


def test_a_narrow_comb_keeps_the_segment_form_at_small_z():
    """2,000 boxes 2^-20 wide on a 2^-10 pitch: 4,000 unit jumps that
    cancel to |fhat| below 2,000 * 2^-20, so by parts would lose about
    21 bits; the sum over the segments stays within its bound."""
    pitch, width = 2.0**-10, 2.0**-20
    f = make_step(
        [x for k in range(2000) for x in (k * pitch, k * pitch + width)], [1.0, 0.0] * 1999 + [1.0]
    )
    assert f.fourier_table[0] is _lattice_sum
    for z in (1.0, 100.0):
        exact = _mp_fourier_magnitude(f, z)
        assert abs(abs(fourier(f, z)) - exact) <= _lattice_error_bound(f, z), z


def test_most_of_the_default_grid_sums_a_step_function_by_parts():
    """The sum over the jumps is the cheaper loop; on 1,024 dyadic pieces it
    runs at 70% of the default grid or more."""
    f = _lattice_step(rng_for(53, "differential/bench-scale"), 1024)
    switch = f.fourier_table[2][5]
    zs = default_z_grid()
    assert sum(z >= switch for z in zs) >= 0.7 * len(zs)


# --- oracle: the decomposition that rescanned every piece per cell --------


def _oracle_split_step(f, cuts):
    edges = [-math.inf, *cuts, math.inf]
    out = []
    for lo, hi in zip(edges, edges[1:]):
        breakpoints = []
        values = []
        for a, b, v in f.pieces():
            s, e = max(a, lo), min(b, hi)
            if e <= s:
                continue
            if not breakpoints:
                breakpoints.append(s)
            values.append(v)
            breakpoints.append(e)
        out.append(make_step(breakpoints, values))
    return tuple(out)


def _oracle_value_on_line(f, x):
    nd = f.nodes
    if x <= nd[0]:
        return f.node_values[0]
    if x >= nd[-1]:
        return f.node_values[-1]
    return evaluate(f, x)


def _oracle_split_linear(f, cuts):
    edges = [f.nodes[0], *cuts, f.nodes[-1]]
    out = []
    for lo, hi in zip(edges, edges[1:]):
        xs = [lo]
        for t in f.nodes:
            if lo < t < hi:
                xs.append(t)
        xs.append(hi)
        ys = [_oracle_value_on_line(f, x) for x in xs]
        out.append(PiecewiseLinearFunction(tuple(xs), tuple(ys)))
    return tuple(out)


def test_decompose_pieces_equal_rescanning_split():
    family = STEP_FAMILY + LINEAR_FAMILY + [_bump_trace(), comb_example(40)]
    many_cells = 0
    for f in family:
        if f.is_zero:
            continue
        report = decompose(f)
        split = _oracle_split_step if isinstance(f, StepFunction) else _oracle_split_linear
        assert report.pieces == split(f, report.cut_points)
        many_cells += len(report.pieces) > 2
    assert many_cells > 100


# --- oracle: the separate sine and cosine loops ---------------------------


def _oracle_trig_terms(f, z):
    for t0, t1, y0, y1 in f.segments():
        if y0 == 0.0 and y1 == 0.0:
            continue
        w, dy = t1 - t0, y1 - y0
        c0, s0, c1, s1 = _piece(w * z)
        ic = w * (y0 * c0 + dy * c1)
        is_ = w * (y0 * s0 + dy * s1)
        yield t0 * z, ic, is_


def _oracle_sine(f, z):
    return math.fsum(math.sin(az) * ic + math.cos(az) * is_ for az, ic, is_ in _oracle_trig_terms(f, z))


def _oracle_cosine(f, z):
    return math.fsum(math.cos(az) * ic - math.sin(az) * is_ for az, ic, is_ in _oracle_trig_terms(f, z))


def test_sine_cosine_equal_separate_loops():
    rng = rng_for(53, "differential/trig")
    checked = 0
    for f in STEP_FAMILY + LINEAR_FAMILY:
        if f.support_min < 0.0:
            continue
        for z in (log_uniform(rng, 1e-3, 1e3), 0.5e-2 / (f.support_max - f.support_min)):
            sf, cf = _oracle_sine(f, z), _oracle_cosine(f, z)
            assert sine_transform(f, z) == sf
            assert cosine_transform(f, z) == cf
            wb = window_bounds(f, z)
            assert (wb.sine_value, wb.cosine_value) == (sf, cf)
            checked += 1
    assert checked > 1000


# --- oracles: the adaptive engine and the Hardy loops ---------------------
# The engine and the Hardy integral's loop are in quadrature_oracles, beside
# the printed form and the transform oracle that other tests use.


def _oracle_fourier_weighted_norm(f, u, q):
    x_extent = max(abs(f.support_min), abs(f.support_max), 1e-9)
    acc = 0.0
    err = 0.0
    for a, b, uv in u.pieces():
        if uv == 0.0:
            continue
        splits = min(max(1, math.ceil((b - a) * x_extent / (0.5 * math.pi))), 4096)
        edges = [a + (b - a) * i / splits for i in range(splits + 1)]
        edges[-1] = b
        part, perr = gauss_kronrod(
            lambda z: abs(fourier(f, z)) ** q,
            list(zip(edges, edges[1:])),
            0.0,
            2**20,
            rel_tol=QUADRATURE_REL_TOL,
        )
        acc += uv * part
        err += uv * perr
    return acc ** (1.0 / q), err


def _oscillatory(x):
    return (1.0 + x * x) * cmath.exp(-37.0j * x)


def _kinked(x):
    return math.sqrt(abs(x - 1.0 / 3.0)) + abs(math.sin(5.0 * x))


def test_refinement_loop_equals_old_engines():
    panels = [(k / 8, (k + 1) / 8) for k in range(-8, 24)]
    for tol in (1e-6, 1e-10):
        assert gauss_kronrod_adaptive(_oscillatory, panels, tol) == gauss_kronrod(
            _oscillatory, panels, 0.0, rel_tol=tol
        )
        assert gauss_kronrod_adaptive(_kinked, [(0.0, 2.0)], tol) == gauss_kronrod(
            _kinked, [(0.0, 2.0)], 0.0, rel_tol=tol
        )


def _hardy_instances():
    rng = rng_for(50, "differential/hardy")
    for i in range(24):
        if i % 3 == 2:  # a decreasing linear input: the rearrangement of a linear one
            g = _random_linear(rng)
            f = rearrangement(g).star if not g.is_zero else make_step([0, 1], [1])
        else:
            f = random_decreasing_step(rng, max_pieces=6, max_width_units=32)
        yield f, random_weight(rng, max_pieces=4), (0.5, 1.0, 2.0, 3.5)[i % 4]


def test_hardy_integrals_equal_old_loops():
    for f, u, q in _hardy_instances():
        assert _hardy_lhs_with_error(f, u, q) == hardy_lhs_with_error(f, u, q, "substituted")
        assert _fourier_weighted_norm_with_error(f, u, q) == _oracle_fourier_weighted_norm(
            f, u, q
        )


def test_both_engines_raise_on_budget():
    with pytest.raises(ConvergenceError, match="panel"):
        gauss_kronrod_adaptive(_oscillatory, [(0.0, 8.0)], 1e-14, max_panels=16)
    # more initial panels than the budget raises, however good their estimate
    unit_panels = [(float(k), k + 1.0) for k in range(9)]
    with pytest.raises(ConvergenceError, match="panel"):
        gauss_kronrod_adaptive(lambda x: 1.0, unit_panels, 1.0, max_panels=8)
    # a zero integrand stops at once; a converged start exactly at the budget is fine
    assert gauss_kronrod_adaptive(lambda x: 0.0, [(0.0, 1.0)], 0.0, max_panels=1) == (0.0, 0.0)
    value, _ = gauss_kronrod_adaptive(lambda x: 1.0, unit_panels[:8], 1.0, max_panels=8)
    assert abs(value - 8.0) < 1e-12


# --- oracle: the Lorentz norm with adaptive quadrature on linear input ----


def _oracle_lorentz(f, v, p):
    star = rearrangement(f).star
    if isinstance(star, StepFunction):
        total = math.fsum(
            (sv**p) * wv * (min(b, d) - max(a, c))
            for a, b, sv in star.pieces()
            if sv > 0.0
            for c, d, wv in v.pieces()
            if wv > 0.0 and min(b, d) > max(a, c)
        )
        return total ** (1.0 / p)
    total = 0.0
    cut_candidates = list(star.nodes)
    for c, d, wv in v.pieces():
        if wv == 0.0:
            continue
        lo = max(c, 0.0)
        hi = min(d, star.support_max)
        if hi <= lo:
            continue
        cuts = [lo] + [x for x in cut_candidates if lo < x < hi] + [hi]
        for s0, s1 in zip(cuts, cuts[1:]):
            part, _ = gauss_kronrod(
                lambda x: _oracle_value_on_line(star, x) ** p, [(s0, s1)], 0.0, rel_tol=1e-9
            )
            total += wv * part
    return total ** (1.0 / p)


def _mpmath_lorentz(f, v, p):
    """40-digit quadrature of (f*)^p v over each overlap, f* exact between its nodes."""
    with mpmath.workdps(40):
        mp_p = mpmath.mpf(p)
        total = mpmath.mpf(0)
        for t0, t1, y0, y1 in rearrangement(f).star.segments():
            width = mpmath.mpf(t1) - t0
            for c, d, wv in v.pieces():
                lo, hi = max(t0, c), min(t1, d)
                if wv > 0.0 and hi > lo:
                    # a convex combination, so no rounding turns it negative
                    part = mpmath.quad(
                        lambda x: ((y0 * (t1 - x) + y1 * (x - t0)) / width) ** mp_p,
                        [mpmath.mpf(lo), mpmath.mpf(hi)],
                    )
                    total += wv * part
        return total ** (1 / mp_p)


LORENTZ_P = (0.3, 1.0, 2.0, 2.5, 7.0)


def _linear_lorentz_cases():
    triangle = PiecewiseLinearFunction((0.0, 1.0, 2.0), (0.0, 1.0, 0.0))
    plateau = PiecewiseLinearFunction((0.0, 1.0, 2.0, 3.0, 5.0), (0.0, 2.0, 2.0, 0.5, 0.0))
    almost_flat = PiecewiseLinearFunction((0.0, 1.0, 3.0, 4.0), (0.0, 1.0 + 2.0**-30, 1.0, 0.0))
    # f* here is f; one ulp before 3.535 its interpolant rounds to -8.9e-16
    to_zero = PiecewiseLinearFunction((0.0, 0.53, 3.535), (7.814, 6.814, 0.0))
    cases = [
        (triangle, make_step([0, 10], [1])),  # f* jumps to 1 at 0 and ends at 0
        (triangle, make_step([0, 0.25, 1.5, 3], [2, 1, 3])),
        (plateau, make_step([0.5, 1.5, 2.5], [1, 3])),  # cuts the top plateau of f*
        (plateau, make_step([1.9, 2.1], [1])),  # straddles the node leaving the plateau
        (almost_flat, make_step([0, 5], [1])),  # a segment whose ends differ by 2^-30
        (to_zero, make_step([1.0, math.nextafter(3.535, 0.0)], [1])),
    ]
    rng = rng_for(52, "differential/lorentz")
    while len(cases) < 30:
        f = _random_linear(rng)
        v = random_weight(rng, min_start_units=0, max_pieces=5)
        if not f.is_zero and any(
            wv > 0.0 and c < rearrangement(f).star.support_max for c, _, wv in v.pieces()
        ):
            cases.append((f, v))
    return cases


LINEAR_LORENTZ_CASES = _linear_lorentz_cases()


def test_linear_lorentz_matches_40_digit_quadrature():
    for f, v in LINEAR_LORENTZ_CASES:
        for p in LORENTZ_P:
            value = lorentz_lambda_norm(f, v, p)
            reference = _mpmath_lorentz(f, v, p)
            assert reference > 0.0
            assert abs(value - reference) <= 1e-13 * reference


def test_linear_lorentz_within_simpson_tolerance_of_old_branch():
    for f, v in LINEAR_LORENTZ_CASES:
        for p in LORENTZ_P:
            old = _oracle_lorentz(f, v, p)
            assert abs(lorentz_lambda_norm(f, v, p) - old) <= 1.1e-9 * max(1.0, 1.0 / p) * old


def test_step_lorentz_equals_product_kernel():
    rng = rng_for(54, "differential/lorentz/step")
    for i, f in enumerate(STEP_FAMILY[:500]):
        v = random_weight(rng, min_start_units=0, max_pieces=5)
        p = LORENTZ_P[i % len(LORENTZ_P)]
        assert lorentz_lambda_norm(f, v, p) == _oracle_lorentz(f, v, p)


# --- oracle: the exact Lorentz norm as a nested loop, O(n * m) -------------


def _oracle_nested_lorentz(f, v, p):
    terms = []
    for t0, t1, y0, y1 in rearrangement(f).star.segments():
        if y0 == 0.0 and y1 == 0.0:
            continue
        for c, d, wv in v.pieces():
            lo, hi = max(t0, c), min(t1, d)
            if wv > 0.0 and hi > lo:
                # exact node values at the segment's ends; in between, the
                # line as every segment reads it, not below 0 before ** p
                a = y0 if lo == t0 else max(0.0, _on_line(t0, t1, y0, y1, lo))
                b = y1 if hi == t1 else max(0.0, _on_line(t0, t1, y0, y1, hi))
                terms.append(_mean_power(a, b, p) * wv * (hi - lo))
    return math.fsum(terms) ** (1.0 / p)


def _weight_with_interior_zeros(rng):
    """A step weight on [0, oo) of 3 to 24 pieces, at least one interior piece zero."""
    n = rng.randint(3, 24)
    dyadic = rng.random() < 0.5
    x = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 4.0)
    breakpoints = [x]
    for _ in range(n):
        x += rng.randint(1, 32) / 16 if dyadic else rng.uniform(1e-3, 1.5)
        breakpoints.append(x)
    values = [0.0 if rng.random() < 0.3 else rng.randint(1, 64) / 16 for _ in range(n)]
    values[0] = values[-1] = 1.0 + rng.randint(0, 8) / 4
    values[rng.randint(1, n - 2)] = 0.0
    return make_step(breakpoints, values)


def test_lorentz_norm_equals_nested_loop():
    rng = rng_for(59, "differential/lorentz/nested")
    functions = [f for f in STEP_FAMILY[:400] + LINEAR_FAMILY[:400] if not f.is_zero]
    for i, f in enumerate(functions):
        v = _weight_with_interior_zeros(rng)
        assert 0.0 in v.values[1:-1]
        p = LORENTZ_P[i % len(LORENTZ_P)]
        assert lorentz_lambda_norm(f, v, p) == _oracle_nested_lorentz(f, v, p)
