import cmath
import math
import sys

import mpmath
import pytest

from crestimate import (
    ConvergenceError,
    PiecewiseLinearFunction,
    ValidationError,
    comb_example,
    cosine_transform,
    fourier,
    fourier_quadrature_oracle,
    from_samples,
    make_step,
    sine_transform,
    window_bounds,
)
from crestimate.generators import (
    log_uniform,
    random_decreasing_step,
    random_step_function,
    rng_for,
)
from crestimate import transform
from crestimate.transform import (
    _S1_SERIES_CUTOFF,
    _TRIG_SERIES_CUTOFF,
    _edge_sum,
    _lattice_sum,
    _piece,
)

BOX = make_step([0, 1], [1])
TRIANGLE = PiecewiseLinearFunction((0.0, 1.0, 2.0), (0.0, 1.0, 0.0))


def _lattice_inputs(rng):
    """Inputs whose segment lengths repeat, so ``fourier`` sums by Horner's
    rule: combs, step functions of 1 to 4 cells of 1/32, sampled bumps.
    The first entry of ``fourier_table`` is the kernel."""
    inputs = [comb_example(n) for n in (1, 3)]
    inputs += [
        random_step_function(rng, min_pieces=64, max_pieces=256, max_width_units=4)
        for _ in range(20)
    ]
    ys = [math.sin(math.pi * k / 16) ** 2 if k % 32 < 16 else 0.0 for k in range(257)]
    inputs.append(from_samples([k / 64 for k in range(257)], ys, mode="linear"))
    assert all(f.fourier_table[0] is _lattice_sum for f in inputs)
    return inputs


def test_few_edge_rows_take_the_edge_loop():
    # below 8 edge rows the lattice sum's set-up costs more than it saves
    for f in (BOX, make_step([0, 1.5], [1]), make_step([0, 1, 2, 3], [1, 2, 1]), TRIANGLE):
        assert f.fourier_table[0] is _edge_sum
    f = make_step([k * 1.5 for k in range(8)], [1 + k % 2 for k in range(7)])
    assert f.fourier_table[0] is _lattice_sum


def test_a_step_lattice_whose_mass_underflows_keeps_the_segment_sum():
    # every w |y| rounds to zero, so V / M has no value and the switch is inf
    f = make_step([k * 2.0**-100 for k in range(17)], [2.0**-1000 * (1 + k % 2) for k in range(16)])
    assert f.fourier_table[0] is _lattice_sum and f.fourier_table[2][5] == math.inf
    assert fourier(f, 1.0) == 0j


def test_fourier_at_zero_is_total_integral():
    rng = rng_for(31, "zero-frequency")
    for f in [random_step_function(rng) for _ in range(50)] + _lattice_inputs(rng):
        assert fourier(f, 0.0) == complex(f.total_integral)
        assert fourier(f, -0.0) == complex(f.total_integral)


def test_quadrature_oracle_of_the_zero_function():
    value = fourier_quadrature_oracle(make_step([0, 1], [0]), 2.0, 1e-9)
    assert type(value) is complex and value == 0j


def test_a_lattice_function_builds_no_edge_rows(monkeypatch):
    """Its one table is the lattice table.  On a step function that is one
    ``(gap, width, y0)`` row per nonzero segment and one ``(gap, jump)`` row
    per edge of a nonzero segment; on a piecewise-linear function one row per
    nonzero node, ``(gap, y)`` when every hat has the same shape and
    ``(gap, shape, y)`` otherwise, and no jump rows.  No z, 0 included,
    takes the edge loop."""

    def no_edge_loop(table, z):
        raise AssertionError("the edge loop ran")

    monkeypatch.setattr(transform, "_edge_sum", no_edge_loop)  # before any table is built
    kinds = set()
    for f in _lattice_inputs(rng_for(34, "lattice/no-edge-rows")) + _hat_inputs():
        kernel, _, (anchor, lengths, widths, shapes, rows, switch, gaps, jumps) = f.fourier_table
        assert kernel is _lattice_sum
        segments = [seg for seg in f.segments() if seg[2] != 0.0 or seg[3] != 0.0]
        assert anchor == segments[0][0]
        if shapes is None:
            kinds.add("step")
            assert len(rows) == len(segments) and all(len(row) == 3 for row in rows)
            edges = {x for t0, t1, _, _ in segments for x in (t0, t1)}
            assert len(jumps) == len(edges) and all(len(row) == 2 for row in jumps)
        else:
            kinds.add(len(shapes) == 1)
            nodes = [y for y in f.node_values if y]
            assert [row[-1] for row in rows] == nodes[::-1]
            assert all(len(row) == (2 if len(shapes) == 1 else 3) for row in rows)
            assert (switch, gaps, jumps) == (math.inf, (), ())
        assert fourier(f, 0.0) == complex(f.total_integral)
        for z in (1e-3, 1.3, -27.0):
            fourier(f, z)
    assert kinds == {"step", True, False}  # boxes, one hat shape and many
    assert make_step([0, 1], [1]).fourier_table[0] is no_edge_loop  # the patch was in effect


def _hat_inputs():
    """Piecewise-linear inputs that take the lattice sum in the hat basis.

    Nodes 1/64 apart with runs of zeros between bumps (one shape); nodes 1 to
    4 cells of 1/32 apart with nonzero end values (one-sided hats), interior
    zero runs and isolated nonzero nodes (many shapes); and isolated nonzero
    nodes 1/32 apart, the first node nonzero (two shapes).  Each starts at 3
    or beyond, so its phase reach exceeds 2.
    """
    rng = rng_for(38, "hat-inputs")
    even = [0.0] * 97
    for start in (3, 30, 61):
        for j in range(1, 12):
            even[start + j] = rng.randint(1, 1024) / 256
    xs = [3.0 + rng.randint(0, 64) / 32]
    for _ in range(79):
        xs.append(xs[-1] + rng.randint(1, 4) / 32)
    uneven = [0.0 if rng.random() < 0.3 else rng.randint(1, 1024) / 256 for _ in xs]
    uneven[0], uneven[-1] = 1.5, 0.75
    uneven[40:45] = [0.0, 0.0, 2.0, 0.0, 0.0]
    isolated = [0.0] * 41
    isolated[0] = 1.0
    isolated[4:40:5] = [rng.randint(1, 1024) / 256 for _ in range(4, 40, 5)]
    return [
        PiecewiseLinearFunction([3.0 + k / 64 for k in range(97)], even),
        PiecewiseLinearFunction(xs, uneven),
        PiecewiseLinearFunction([3.0 + k / 32 for k in range(41)], isolated),
    ]


def _mp_fourier(f, z):
    """fhat(z) to 40 digits, the sum of its segments' transforms."""
    with mpmath.workdps(40):
        return sum(_mp_segment_fourier(*seg, z) for seg in f.segments() if seg[2] or seg[3])


def test_hat_sum_within_its_error_bound_against_40_digits():
    """Each input against 40 digits within the lattice sum's bound of the
    ``transform`` docstring, from z with every width on the series branch
    of ``_piece`` (``|u| < 1e-2``), through ``s1``'s series (``|u| < 0.5``),
    to 1e8, with ``fourier(f, -z)`` the exact conjugate; and at half the
    largest z whose phase arguments stay finite a finite value of the same
    symmetry, no larger than the mass, and twice that largest z rejected."""
    for f in _hat_inputs():
        assert f.fourier_table[0] is _lattice_sum
        segments = [seg for seg in f.segments() if seg[2] != 0.0 or seg[3] != 0.0]
        anchor, span = segments[0][0], segments[-1][1] - segments[0][0]
        mass = math.fsum((t1 - t0) * (abs(y0) + abs(y1 - y0) / 2) for t0, t1, y0, y1 in segments)
        widths = {t1 - t0 for t0, t1, _, _ in segments}
        zs = [10.0 ** (k / 4) for k in range(-16, 33)]
        assert any(max(widths) * z < _TRIG_SERIES_CUTOFF for z in zs)
        assert any(_TRIG_SERIES_CUTOFF <= w * z < _S1_SERIES_CUTOFF for w in widths for z in zs)
        for z in zs:
            value = fourier(f, z)
            bound = (5 * len(segments) + 2 * z * span + abs(anchor * z) + 64) * 2.0**-53 * mass
            assert abs(value - complex(_mp_fourier(f, z))) <= bound, z
            assert fourier(f, -z) == value.conjugate()
        z = 0.5 * sys.float_info.max / f.fourier_table[1]
        value = fourier(f, z)
        assert abs(value) <= f.total_integral * (1.0 + 1e-12)
        assert fourier(f, -z) == value.conjugate()
        with pytest.raises(ValidationError, match="too large"):
            fourier(f, 4.0 * z)


def test_fourier_box_at_pi():
    fh = fourier(BOX, math.pi)
    assert abs(abs(fh) - 2.0 / math.pi) < 1e-15
    oracle = fourier_quadrature_oracle(BOX, math.pi, 1e-9)
    assert abs(fh - oracle) < 1e-8


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("l", [1, 7, 50])
def test_fourier_comb_resonances(n, l):
    f = comb_example(n)
    z_odd = (2 * l + 1) * math.pi
    fh = fourier(f, z_odd)
    assert abs(fh.real) < 1e-11
    assert math.isclose(fh.imag, -10.0 * n / z_odd, rel_tol=1e-9)
    assert abs(fourier(f, 2 * l * math.pi)) < 1e-12


def test_fourier_triangle_against_closed_form():
    # the triangle is the autocorrelation of a box: |that(z)| = (2 sin(z/2)/z)^2
    for z in (0.5, 1.0, 3.3, 20.0):
        assert math.isclose(
            abs(fourier(TRIANGLE, z)), (2.0 * math.sin(z / 2.0) / z) ** 2, rel_tol=1e-12
        )


def test_conjugate_symmetry_is_exact():
    rng = rng_for(32, "conjugate")
    for _ in range(100):
        f = random_step_function(rng)
        z = log_uniform(rng, 1e-3, 1e3)
        assert fourier(f, -z) == fourier(f, z).conjugate()
    # z from the series branch of every width to past every width's 1/z, and
    # on a step function past the switch to the sum over its jumps
    for f in _lattice_inputs(rng_for(32, "conjugate/lattice")):
        switch = f.fourier_table[2][5]
        past = () if switch == math.inf else (switch, switch * log_uniform(rng, 1.0, 1e3))
        for z in (1e-4, *(log_uniform(rng, 1e-3, 1e3) for _ in range(5)), *past):
            assert fourier(f, -z) == fourier(f, z).conjugate()


@pytest.mark.parametrize(
    "f, lattice",
    [(make_step([0, 1, 3], [1, 2]), False), (comb_example(1), True)],
    ids=["edges", "lattice"],
)
def test_phase_arguments_beyond_float_range_are_rejected(f, lattice):
    assert (f.fourier_table[0] is _lattice_sum) == lattice
    for z in (1e308, -1e308):
        with pytest.raises(ValidationError, match="too large"):
            fourier(f, z)
    for transform in (sine_transform, cosine_transform, window_bounds):
        with pytest.raises(ValidationError, match="too large"):
            transform(f, 1e308)
    # the unit box's phases stay finite there
    assert abs(fourier(BOX, 1e308)) < 1e-307
    assert abs(sine_transform(BOX, 1e308)) < 1e-307


def test_transform_magnitude_bounded_by_mass():
    rng = rng_for(33, "mass-bound")
    for _ in range(100):
        f = random_step_function(rng)
        z = log_uniform(rng, 1e-3, 1e3)
        assert abs(fourier(f, z)) <= f.total_integral * (1.0 + 1e-12)


def test_small_phase_series_branch_agrees_with_stable_form():
    # reference: for the unit box, fhat(z) = exp(-iz/2) * sin(z/2)/(z/2),
    # which stays accurate for small z (no cancellation); the naive
    # (1 - exp(-iz))/(iz) loses ~5 digits at z = 1e-6.
    f = make_step([0, 1], [1])
    for z in (9e-5, 1.1e-4, 1e-6, 1e-8):
        value = fourier(f, z)
        stable = cmath.exp(-0.5j * z) * (math.sin(0.5 * z) / (0.5 * z))
        assert abs(value - stable) <= 1e-12 * abs(stable)


def _mp_segment_fourier(t0, t1, y0, y1, z):
    """fhat of one linear segment to 40 digits: w E0 (y0 phi + dy psi)."""
    with mpmath.workdps(40):
        t0, t1, y0, y1, z = map(mpmath.mpf, (t0, t1, y0, y1, z))
        w = t1 - t0
        iu = 1j * w * z
        e = mpmath.exp(-iu)
        phi = (1 - e) / iu
        psi = (phi - e) / iu
        return w * mpmath.exp(-1j * t0 * z) * (y0 * phi + (y1 - y0) * psi)


@pytest.mark.parametrize("u", [1.01e-4, 1.5e-4, 3e-4, 1e-3, 0.3])
def test_narrow_ramp_just_above_series_cutoff(u):
    # the narrow closed form takes 1 - cos u as sin^2 u / (1 + cos u); as
    # 1.0 - cos(u) it carried the rounding of cos u / u into the ramp term,
    # a relative error near 1e-8 at u = 1e-4
    for t0, width in ((0.0, 1.0), (3.0, 1 / 32), (-0.5, 0.3)):
        z = u / width
        for y0, y1 in ((0.25, 1.0), (2.0, 0.5), (0.0, 1.0)):
            f = PiecewiseLinearFunction((t0, t0 + width), (y0, y1))
            exact = abs(_mp_segment_fourier(t0, t0 + width, y0, y1, z))
            assert abs(abs(fourier(f, z)) - float(exact)) <= 1e-11 * float(exact)


def _mp_piece(u):
    with mpmath.workdps(40):
        x = mpmath.mpf(u)
        c, s = mpmath.cos(x), mpmath.sin(x)
        return (s / x, (1 - c) / x, (c + x * s - 1) / x**2, (s - x * c) / x**2)


def test_piece_kernels_match_40_digit_reference():
    # the bounds of the _piece docstring: u^6 / 5040 plus a few ulps of 1 on
    # the series; on the closed forms 4 * 2^-53 for c0, s0 and c1; for s1
    # 4 * 2^-53 relative on its long series and 4 * 2^-53 * max(1, 1/u^2)
    # on its closed form, at most 16 * 2^-53 since |u| >= 0.5 there
    ulp = 2.0**-53
    cut = _TRIG_SERIES_CUTOFF
    spread = [10.0 ** (-8 + k / 20) for k in range(201)]
    edges = [c * (1 + e) for c in (cut, _S1_SERIES_CUTOFF) for e in (-1e-3, 1e-3)]
    for u0 in spread + edges:
        for u in (u0, -u0):
            exact = [float(x) for x in _mp_piece(u)]
            if abs(u) < cut:
                bounds = [4 * ulp + u**6 / 5040] * 4
            elif abs(u) < _S1_SERIES_CUTOFF:
                bounds = [4 * ulp] * 3 + [4 * ulp * abs(exact[3])]
            else:
                bounds = [4 * ulp] * 3 + [4 * ulp / min(1.0, u * u)]
            for got, want, bound in zip(_piece(u), exact, bounds):
                assert abs(got - want) <= bound, (u, got)


def test_sine_cosine_box_at_pi():
    assert math.isclose(sine_transform(BOX, math.pi), 2.0 / math.pi, rel_tol=1e-14)
    assert abs(cosine_transform(BOX, math.pi)) < 1e-15


def test_sine_transform_positive_for_decreasing():
    rng = rng_for(34, "sine-positive")
    for _ in range(100):
        f = random_decreasing_step(rng)
        z = log_uniform(rng, 1e-3, 1e3)
        assert sine_transform(f, z) > 0.0


def test_sine_transform_small_z_branch():
    z = 1e-9
    assert math.isclose(sine_transform(BOX, z), z / 2.0, rel_tol=1e-6)


def test_fourier_equals_cosine_minus_i_sine():
    rng = rng_for(35, "split-identity")
    for _ in range(100):
        f = random_step_function(rng, min_pieces=1, max_pieces=10)
        if f.support_min < 0.0:
            f = make_step(
                [b - f.support_min for b in f.breakpoints], f.values
            )
        z = log_uniform(rng, 1e-3, 1e3)
        fh = fourier(f, z)
        split = complex(cosine_transform(f, z), -sine_transform(f, z))
        assert abs(fh - split) <= 1e-12 * max(1.0, abs(fh))


def test_sine_cosine_reject_negative_support():
    shifted = make_step([-1, 1], [1])
    with pytest.raises(ValidationError, match=r"supported on \[0, oo\)"):
        sine_transform(shifted, 1.0)
    with pytest.raises(ValidationError, match=r"supported on \[0, oo\)"):
        cosine_transform(shifted, 1.0)


def test_sine_cosine_reject_nonpositive_z():
    with pytest.raises(ValidationError, match="z must be positive"):
        sine_transform(BOX, 0.0)


def test_oracle_self_consistency():
    assert abs(
        fourier_quadrature_oracle(BOX, math.pi, 1e-9) - fourier(BOX, math.pi)
    ) < 1e-8
    f = comb_example(2)
    assert abs(fourier_quadrature_oracle(f, 7.3, 1e-9) - fourier(f, 7.3)) < 1e-8
    assert abs(fourier_quadrature_oracle(TRIANGLE, 0.0, 1e-9) - 1.0) < 1e-9


def test_oracle_validation_and_budget():
    with pytest.raises(ValidationError, match="tol"):
        fourier_quadrature_oracle(BOX, 1.0, 0.0)
    with pytest.raises(ConvergenceError, match="panel"):
        fourier_quadrature_oracle(comb_example(4), 90.0, 1e-12, max_panels=8)


def test_closed_form_matches_oracle_random():
    f_rng = rng_for(36, "oracle/functions")
    z_rng = rng_for(36, "oracle/z")
    for _ in range(50):
        f = random_step_function(
            f_rng, max_pieces=8, max_width_units=16, start_range_units=64
        )
        z = log_uniform(z_rng, 1e-2, 100.0) * z_rng.choice([-1.0, 1.0])
        mass = f.total_integral
        oracle = fourier_quadrature_oracle(f, z, 1e-9 * (1.0 + mass))
        closed = fourier(f, z)
        assert abs(closed - oracle) <= 1e-6 * max(abs(closed), 1e-3 * mass)


def test_window_bounds_narrow_sine_counterexample():
    # Sf(pi) = 2/pi for the unit box, but the pi/(2z) window only holds 1/2.
    wb = window_bounds(BOX, math.pi)
    assert wb.sine_value > wb.sine_narrow_rhs
    assert wb.sine_value <= wb.sine_wide_rhs + 1e-12
    assert abs(wb.cosine_value) <= wb.cosine_rhs + 1e-12


def test_window_bounds_hold_for_random_decreasing():
    rng = rng_for(37, "windows")
    for _ in range(100):
        f = random_decreasing_step(rng)
        z = log_uniform(rng, 1e-3, 1e3)
        wb = window_bounds(f, z)
        assert wb.sine_value <= wb.sine_wide_rhs + 1e-12
        assert abs(wb.cosine_value) <= wb.cosine_rhs + 1e-12
