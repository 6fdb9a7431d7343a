"""Differential tests: the single segment kernels against the code they replaced.

The oracles below are the earlier implementations, kept verbatim apart from
names: the per-level rearrangement (one fsum over every segment per distinct
level, O(n^2)), the complex-object transform kernel for linear and for step
input, the step-only evaluation, integral, distribution, tail table, crest
cuts and crest locations that the segment model replaced, and the crest
count over the collapsed value profile.  The library must agree with them
exactly, with no tolerance, except for the step transform, which now
multiplies in a different order (see its test).
"""

import math
from bisect import bisect_right

import pytest

from crestimate import (
    PiecewiseLinearFunction,
    StepFunction,
    count_crests,
    decompose,
    distribution,
    evaluate,
    fourier,
    from_samples,
    integrate,
    make_step,
    rearrangement,
)
from crestimate.generators import (
    log_uniform,
    random_decreasing_step,
    random_one_crest_step,
    random_step_function,
    rng_for,
)
from crestimate.transform import PHASE_SERIES_CUTOFF

# --- oracle: the per-level linear rearrangement --------------------------


def _oracle_superlevel(t0, t1, y0, y1, alpha):
    above0 = y0 > alpha
    above1 = y1 > alpha
    if above0 and above1:
        return t1 - t0
    if not above0 and not above1:
        return 0.0
    crossing = t0 + (alpha - y0) * (t1 - t0) / (y1 - y0)
    return t1 - crossing if above1 else crossing - t0


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
        if x <= xs[-1]:
            ys[-1] = y
            return
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


# --- oracle: the complex-object linear transform kernel ------------------


def _oracle_phase(theta):
    return complex(math.cos(theta), -math.sin(theta))


def _oracle_phi(u):
    if abs(u) < PHASE_SERIES_CUTOFF:
        w = complex(0.0, -u)
        return 1.0 + w * (1 / 2 + w * (1 / 6 + w * (1 / 24 + w * (1 / 120 + w / 720))))
    re = 1.0 - math.cos(u)
    im = math.sin(u)
    return complex(im / u, -re / u)


def _oracle_psi(u):
    if abs(u) < PHASE_SERIES_CUTOFF:
        w = complex(0.0, -u)
        return 0.5 + w * (1 / 3 + w * (1 / 8 + w * (1 / 30 + w * (1 / 144 + w / 840))))
    num = _oracle_phi(u) - _oracle_phase(u)
    return complex(num.imag / u, -num.real / u)


def _oracle_fourier_linear(f, z):
    total = 0.0 + 0.0j
    for t0, t1, y0, y1 in f.segments():
        if y0 == 0.0 and y1 == 0.0:
            continue
        w = t1 - t0
        u = w * z
        total += w * _oracle_phase(t0 * z) * (y0 * _oracle_phi(u) + (y1 - y0) * _oracle_psi(u))
    return total


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


def _oracle_fourier_step(f, z):
    total = 0.0 + 0.0j
    for a, b, v in _oracle_pieces(f):
        if v == 0.0:
            continue
        w = b - a
        total += (v * w) * _oracle_phase(a * z) * _oracle_phi(w * z)
    return total


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


def test_linear_fourier_equals_complex_kernel():
    rng = rng_for(43, "differential/z")
    series_hits = 0
    for f in LINEAR_FAMILY:
        widest = max(b - a for a, b in zip(f.nodes, f.nodes[1:]))
        narrowest = min(b - a for a, b in zip(f.nodes, f.nodes[1:]))
        zs = [
            log_uniform(rng, 1e-3, 1e3),
            -log_uniform(rng, 1e-3, 1e3),
            0.5 * PHASE_SERIES_CUTOFF / widest,  # every segment on the series branch
            2.0 * PHASE_SERIES_CUTOFF / narrowest,  # none
            0.0,
        ]
        for z in zs:
            series_hits += any(
                abs((b - a) * z) < PHASE_SERIES_CUTOFF for a, b in zip(f.nodes, f.nodes[1:])
            )
            expected = _oracle_fourier_linear(f, z)
            value = fourier(f, z)
            assert value == expected
            assert abs(value) == abs(expected)
    assert series_hits > 0


def test_linear_fourier_on_a_sampled_trace_equals_complex_kernel():
    f = _bump_trace()
    for k in range(-40, 61):
        z = 10.0 ** (k / 10)
        assert fourier(f, z) == _oracle_fourier_linear(f, z)


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


def test_step_fourier_within_rounding_of_complex_kernel():
    """The step transform multiplies w e^(-i t0 z) by (v phi), not (v w) e^(-i t0 z) by phi.

    Phase and phi have the same bits on both sides, so the difference is
    rounding alone.  Per piece, the old product is off by at most about
    (1 + 2 sqrt 5) u |v w| and the new one by (2 + sqrt 5) u |v w|, with
    u = 2^-53 and the sqrt 5 u bound of a complex product (Brent, Percival
    and Zimmermann, 2007); summing n terms adds at most (n - 1) u sum |v w|
    on each side.  So |difference| <= (2 n + 8) u sum |v w|.
    """
    rng = rng_for(49, "differential/step/z")
    family = STEP_FAMILY + [
        random_step_function(rng, min_pieces=1024, max_pieces=1024) for _ in range(4)
    ]
    series_hits = 0
    for f in family:
        widths = [b - a for a, b in zip(f.breakpoints, f.breakpoints[1:])]
        mass = math.fsum(v * w for v, w in zip(f.values, widths))
        bound = (2 * len(widths) + 8) * 2.0**-53 * mass
        zs = [
            log_uniform(rng, 1e-3, 1e3),
            -log_uniform(rng, 1e-3, 1e3),
            0.5 * PHASE_SERIES_CUTOFF / max(widths),
            2.0 * PHASE_SERIES_CUTOFF / min(widths),
            0.0,
        ]
        for z in zs:
            series_hits += any(abs(w * z) < PHASE_SERIES_CUTOFF for w in widths)
            assert abs(fourier(f, z) - _oracle_fourier_step(f, z)) <= bound
    assert series_hits > 0
