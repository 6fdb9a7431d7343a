"""Differential tests: the linear-input fast paths against the code they replaced.

The oracles below are the earlier implementations, kept verbatim apart from
names: the per-level rearrangement (one fsum over every segment per distinct
level, O(n^2)) and the complex-object transform kernel.  The library must
agree with them exactly, with no tolerance.
"""

import math

import pytest

from crestimate import (
    PiecewiseLinearFunction,
    fourier,
    from_samples,
    integrate,
    rearrangement,
)
from crestimate.generators import log_uniform, random_step_function, rng_for
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
