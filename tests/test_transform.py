import cmath
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest

from crestimate import (
    ConvergenceError,
    PiecewiseLinearFunction,
    ValidationError,
    comb_example,
    cosine_transform,
    fourier,
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
from crestimate import quadrature, transform
from crestimate.transform import (
    _S1_SERIES_CUTOFF,
    _TRIG_SERIES_CUTOFF,
    _lattice_sum,
    _piece,
    _segment_sum,
)

from quadrature_oracles import fourier_quadrature_oracle

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


def test_few_edges_take_the_segment_loop():
    # below 8 edges of nonzero segments the lattice sum is not tried
    for f in (BOX, make_step([0, 1.5], [1]), make_step([0, 1, 2, 3], [1, 2, 1]), TRIANGLE):
        assert f.fourier_table[0] is _segment_sum
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


def test_a_lattice_function_builds_no_segment_rows(monkeypatch):
    """Its one table is the lattice table: one row per nonzero value, right
    to left, ``(gap, y)`` when every term has the same shape and ``(gap,
    shape, y)`` otherwise.  A step function's shapes are one-sided, ``(k,)``
    for its k-th half-width, its rows sit at the midpoints of its boxes, and
    it has one ``(gap, jump)`` row per edge of a nonzero segment, anchored at
    the leftmost; a piecewise-linear function's are two-sided, its rows sit
    at the left ends of its hats, and it has no jump rows.  No z, 0
    included, takes the segment loop."""

    def no_segment_loop(table, z):
        raise AssertionError("the segment loop ran")

    monkeypatch.setattr(transform, "_segment_sum", no_segment_loop)  # before any table is built
    kinds = set()
    for f in _lattice_inputs(rng_for(34, "lattice/no-edge-rows")) + _hat_inputs():
        anchor, lengths, widths, shapes, rows, switch, edge, gaps, jumps = f.fourier_table[2]
        assert f.fourier_table[0] is _lattice_sum
        segments = [seg for seg in f.segments() if seg[2] != 0.0 or seg[3] != 0.0]
        assert edge == segments[0][0]
        assert [row[-1] for row in rows] == [y for y in f._ys if y][::-1]
        assert all(len(row) == (2 if len(shapes) == 1 else 3) for row in rows)
        sides = {len(shape) for shape in shapes}
        kinds.add((*sides, len(shapes) == 1))
        if sides == {1}:
            assert len(rows) == len(segments)
            assert shapes == tuple((k,) for k in range(widths))
            assert anchor == (segments[0][0] + segments[0][1]) / 2
            assert set(lengths[:widths]) == {(t1 - t0) / 2 for t0, t1, _, _ in segments}
            edges = {x for t0, t1, _, _ in segments for x in (t0, t1)}
            assert len(jumps) == len(edges) and all(len(row) == 2 for row in jumps)
        else:
            assert anchor == edge and (switch, gaps, jumps) == (math.inf, (), ())
        assert fourier(f, 0.0) == complex(f.total_integral)
        for z in (1e-3, 1.3, -27.0):
            fourier(f, z)
    # boxes of one width and of many, hats of one shape and of many
    assert kinds == {(1, True), (1, False), (2, True), (2, False)}
    assert make_step([0, 1], [1]).fourier_table[0] is no_segment_loop  # the patch was in effect


def test_steps_and_hats_on_the_same_breakpoints_share_one_builder(monkeypatch):
    """A step function and a piecewise-linear function on the same 41
    breakpoints, 1 to 3 cells of 1/32 apart from 3 on, both build their
    lattice table in ``_basis_rows`` and stay within the lattice sum's bound
    against 40 digits, z from every width on the series branch to 1e4."""
    built = []

    def recorded(f, segments, real=transform._basis_rows):
        built.append(f)
        return real(f, segments)

    monkeypatch.setattr(transform, "_basis_rows", recorded)
    rng = rng_for(39, "one-builder")
    xs = [3.0]
    for _ in range(40):
        xs.append(xs[-1] + rng.randint(1, 3) / 32)
    ys = [rng.randint(0, 1024) / 256 for _ in xs]
    step, hats = make_step(xs, ys[:-1]), PiecewiseLinearFunction(xs, ys)
    for f in (step, hats):
        assert f.fourier_table[0] is _lattice_sum
        for z in (1e-3, 0.05, 0.7, 3.3, 31.4159, 333.3, 1e4):
            assert abs(fourier(f, z) - complex(_mp_fourier(f, z))) <= _lattice_bound(f, z), z
    assert built == [step, hats]


def test_boxes_of_one_width_take_the_one_shape_horner(monkeypatch):
    """A step function whose nonzero pieces share one width has one shape
    and ``(gap, y)`` rows, so below the switch its factor multiplies once,
    after ``_horner`` has summed the values; a second width puts the
    factor on each row."""
    calls = []

    def counted(rows, step, real=transform._horner):
        calls.append(rows)
        return real(rows, step)

    monkeypatch.setattr(transform, "_horner", counted)
    xs = [k / 8 for k in range(17)]
    ys = [1.0 + k % 3 if k % 4 else 0.0 for k in range(16)]
    one, two = make_step(xs, ys), make_step(xs + [2.25], ys + [5.0])
    for f, shapes in ((one, ((0,),)), (two, ((0,), (1,)))):
        table = f.fourier_table[2]
        assert f.fourier_table[0] is _lattice_sum and table[3] == shapes
        assert all(len(row) == 1 + len(shapes) for row in table[4])
        for z in (0.01, 0.9, 0.99 * table[5]):
            del calls[:]
            value = fourier(f, z)
            assert calls == ([table[4]] if len(shapes) == 1 else [])
            assert abs(value - complex(_mp_fourier(f, z))) <= _lattice_bound(f, z), z


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


def _lattice_bound(f, z):
    """The lattice sum's error bound of the ``transform`` docstring,
    ``(5n + 2 |z| W + |a z| + 64) u M``."""
    segments = [seg for seg in f.segments() if seg[2] != 0.0 or seg[3] != 0.0]
    anchor, span = segments[0][0], segments[-1][1] - segments[0][0]
    mass = math.fsum((t1 - t0) * (abs(y0) + abs(y1 - y0) / 2) for t0, t1, y0, y1 in segments)
    return (5 * len(segments) + 2 * abs(z) * span + abs(anchor * z) + 64) * 2.0**-53 * mass


def test_hat_sum_within_its_error_bound_against_40_digits():
    """Each input against 40 digits within the lattice sum's bound of the
    ``transform`` docstring, from z with every width on the series branch
    of ``_piece`` (``|u| < 1e-2``), through ``s1``'s series (``|u| < 0.5``),
    to 1e8, with ``fourier(f, -z)`` the exact conjugate; and at half the
    largest z whose phase arguments stay finite a finite value of the same
    symmetry, no larger than the mass, and twice that largest z rejected."""
    for f in _hat_inputs():
        assert f.fourier_table[0] is _lattice_sum
        widths = {t1 - t0 for t0, t1, y0, y1 in f.segments() if y0 or y1}
        zs = [10.0 ** (k / 4) for k in range(-16, 33)]
        assert any(max(widths) * z < _TRIG_SERIES_CUTOFF for z in zs)
        assert any(_TRIG_SERIES_CUTOFF <= w * z < _S1_SERIES_CUTOFF for w in widths for z in zs)
        for z in zs:
            value = fourier(f, z)
            assert abs(value - complex(_mp_fourier(f, z))) <= _lattice_bound(f, z), z
            assert fourier(f, -z) == value.conjugate()
        z = 0.5 * sys.float_info.max / f.fourier_table[1]
        value = fourier(f, z)
        assert abs(value) <= f.total_integral * (1.0 + 1e-12)
        assert fourier(f, -z) == value.conjugate()
        with pytest.raises(ValidationError, match="too large"):
            fourier(f, 4.0 * z)


def test_transforms_near_the_largest_float_do_not_overflow():
    """Values near 1e308 whose transforms are floats: a box of height 1e308
    on [0, 2^-7] by the segment loop, where ``2 re`` alone would overflow;
    a comb of such boxes whose jumps sum past float range, so it never
    sums by parts; boxes of one width and hats of one shape whose values sum
    past float range, so each row takes its factor.  Each within its
    kernel's bound against 40 digits."""
    box = make_step([0, 2**-7], [1e308])
    assert fourier(box, 0.0) == complex(1e308 / 128)
    for z in (1.0, 400.0):
        exact = complex(_mp_fourier(box, z))
        assert abs(fourier(box, z) - exact) <= 40 * 2.0**-53 * abs(exact), z
    assert math.isclose(abs(fourier(box, 400.0)), 4.9998279e305, rel_tol=1e-8)
    pitch = [x for k in range(10) for x in (k * 2**-9, k * 2**-9 + 2**-10)]
    comb = make_step(pitch, [1e308, 0.0] * 9 + [1e308])
    even = make_step([k * 2**-10 for k in range(17)], [0.8e308, 0.80001e308] * 8)
    hats = PiecewiseLinearFunction([k / 64 for k in range(20)], [0.0] + [1e308] * 18 + [0.0])
    for f in (comb, even, hats):
        kernel, _, table = f.fourier_table
        assert kernel is _lattice_sum and len(table[3]) == 1 and len(table[4][0]) == 3
        for z in (1e-3, 3.0, 1e5):
            assert abs(fourier(f, z) - complex(_mp_fourier(f, z))) <= _lattice_bound(f, z), z
    assert comb.fourier_table[2][5] == math.inf


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
    # (1 - exp(-iz))/(iz) loses ~5 digits at z = 1e-6.  The unit ramp adds
    # -i exp(-iz/2) s1(z/2) / 2 to half of it, s1 by its series below
    # v = z/2 = 1e-2 and by its closed form above; 40 digits stand for it.
    box = make_step([0, 1], [1])
    ramp = PiecewiseLinearFunction((0.0, 1.0), (0.0, 1.0))
    zs = (1.8e-2, 2.2e-2, 9e-5, 1.1e-4, 1e-6, 1e-8)
    assert 0.5 * zs[0] < _TRIG_SERIES_CUTOFF < 0.5 * zs[1]
    for z in zs:
        value = fourier(box, z)
        stable = cmath.exp(-0.5j * z) * (math.sin(0.5 * z) / (0.5 * z))
        assert abs(value - stable) <= 1e-12 * abs(stable)
        value = fourier(ramp, z)
        stable = complex(_mp_segment_fourier(0.0, 1.0, 0.0, 1.0, z))
        assert abs(value - stable) <= 1e-12 * abs(stable)


def _mp_segment_fourier(t0, t1, y0, y1, z):
    """fhat of one linear segment to 40 digits: w E0 (y0 phi + dy psi), with
    phi(u) = integral_0^1 e^(-ius) ds and psi(u) = integral_0^1 s e^(-ius) ds.
    Their closed forms cancel about 2 log10(1/|u|) digits, so below |u| =
    1e-3 they are their power series sum_k (-iu)^k / (k! (k + 1)), resp.
    (k! (k + 2)), whose 20 terms leave less than 1e-60."""
    with mpmath.workdps(40):
        t0, t1, y0, y1, z = map(mpmath.mpf, (t0, t1, y0, y1, z))
        w = t1 - t0
        iu = 1j * w * z
        if abs(iu) >= 1e-3:
            e = mpmath.exp(-iu)
            phi = (1 - e) / iu
            psi = (phi - e) / iu
        else:
            phi = psi = 0
            term = mpmath.mpc(1)
            for k in range(20):
                phi += term / (k + 1)
                psi += term / (k + 2)
                term *= -iu / (k + 1)
        return w * mpmath.exp(-1j * t0 * z) * (y0 * phi + (y1 - y0) * psi)


def _exact_moments(f):
    """integral f and integral x f as exact fractions."""
    exact = [[Fraction(t) for t in seg] for seg in f.segments()]
    total = sum((t1 - t0) * (y0 + y1) / 2 for t0, t1, y0, y1 in exact)
    moment = sum(
        (t1 - t0) * (t0 * (2 * y0 + y1) + t1 * (y0 + 2 * y1)) / 6 for t0, t1, y0, y1 in exact
    )
    return total, moment


def test_mp_reference_keeps_its_digits_where_wz_is_tiny():
    """Where every |wz| is at most 1e-40 the 40-digit reference is integral
    f - iz integral x f (the rest is below (zX)^2 of the mass): the real
    part to 1e-38 of it and the imaginary part to 1e-38 of -z integral x f."""
    inputs = (
        PiecewiseLinearFunction((0.5, 1.25, 3.0, 4.0), (1.5, 2.0, 0.25, 3.0)),
        make_step([-2.0, 0.5, 1.0, 3.5], [0.75, 4.0, 1.25]),
        TRIANGLE,
    )
    for f in inputs:
        total, moment = _exact_moments(f)
        widest = max(t1 - t0 for t0, t1, _, _ in f.segments())
        for z in (5e-324, 1e-300, 1e-41 / widest, -1e-41 / widest):
            with mpmath.workdps(60):
                value = _mp_fourier(f, z)
                real = mpmath.mpf(total.numerator) / total.denominator
                imag = -mpmath.mpf(z) * moment.numerator / moment.denominator
                assert abs(value.real - real) <= 1e-38 * abs(real), (f, z)
                assert abs(value.imag - imag) <= 1e-38 * abs(imag), (f, z)


@pytest.mark.parametrize("u", [1.01e-4, 1.5e-4, 3e-4, 1e-3, 0.3, 1.01e-2, 1.5e-2, 3e-2])
def test_narrow_ramp_just_above_series_cutoff(u):
    # u = h z, h the half-width: from 1e-2 on a ramp's v s1(v) is its closed
    # form (sin v - v cos v) / v, which cancels down to v^2 / 3 but at right
    # angles to the mean-value term y sin v; below it, its series
    for t0, width in ((0.0, 1.0), (3.0, 1 / 32), (-0.5, 0.3)):
        z = u / (0.5 * width)
        for y0, y1 in ((0.25, 1.0), (2.0, 0.5), (0.0, 1.0)):
            f = PiecewiseLinearFunction((t0, t0 + width), (y0, y1))
            (_, h, _, _), = f.fourier_table[2][2]
            assert (h * z >= _TRIG_SERIES_CUTOFF) == (u > 1e-2)
            exact = abs(_mp_segment_fourier(t0, t0 + width, y0, y1, z))
            assert abs(abs(fourier(f, z)) - float(exact)) <= 1e-11 * float(exact)


def _segment_inputs():
    """Inputs that take the segment loop, each with ``(f, far)``, far true
    when some segment lies far from the centre c: irregular steps; a
    piecewise-linear f with nonzero end values, a plateau, a run of zeros
    and ramps up and down; 40 ramps of unrelated widths; two steps 2^20 on
    either side of 0; and two ramps with a long one between, 10^6 apart."""
    rng = rng_for(39, "segment-inputs")
    xs = [rng.uniform(-1.0, 1.0)]
    for _ in range(40):
        xs.append(xs[-1] + log_uniform(rng, 1e-3, 1.0))
    return [
        (make_step([-0.3, 0.1, 1.7, 2.0, 4.5], [1.5, 0.25, 3.0, 0.5]), False),
        (
            PiecewiseLinearFunction(
                (0.5, 0.9, 2.4, 2.6, 3.7, 5.0), (1.25, 3.0, 3.0, 0.0, 0.0, 0.75)
            ),
            False,
        ),
        (PiecewiseLinearFunction(xs, [rng.uniform(0.0, 4.0) for _ in xs]), False),
        (make_step([-(2.0**20) - 0.75, -(2.0**20), 2.0**20, 2.0**20 + 0.375], [2, 0, 1]), True),
        (PiecewiseLinearFunction((-3e5, -3e5 + 0.6, 7e5, 7e5 + 1.1), (0.5, 2.0, 0.0, 1.5)), True),
    ]


def test_segment_loop_within_its_error_bound_against_40_digits():
    """Each input against 40 digits within the segment loop's bound of the
    ``transform`` docstring, ``(2n + 5R|z| + 30) u sum_j T_j``, at z putting
    each of its half-widths h at ``|h z|`` from 1e-12 through both sides of
    1e-2 to 1e4, with ``fourier(f, -z)`` the exact conjugate; and at half
    the largest z whose phase arguments stay finite a finite value of the
    same symmetry, no larger than the mass, and twice that largest z
    rejected."""
    hit = set()
    for f, far in _segment_inputs():
        kernel, reach, (_, _, rows) = f.fourier_table
        assert kernel is _segment_sum and (reach > 1e5) == far
        segments = [seg for seg in f.segments() if seg[2] != 0.0 or seg[3] != 0.0]
        assert len(rows) == len(segments)
        halves = sorted({(t1 - t0) * 0.5 for t0, t1, _, _ in segments})
        targets = (1e-12, 5e-3, 0.99e-2, 1.01e-2, 0.3, 1.0, 1e3, 1e4)
        for z in sorted({v / h for h in halves[:3] + halves[-2:] for v in targets}):
            for t0, t1, y0, y1 in segments:
                hit.add((y0 != y1, abs((t1 - t0) * 0.5 * z) >= _TRIG_SERIES_CUTOFF))
            size = math.fsum(
                max(abs(y0), abs(y1)) * max(t1 - t0, 1.0 / z) for t0, t1, y0, y1 in segments
            )
            bound = (2 * len(segments) + 5 * reach * z + 30) * 2.0**-53 * size
            value = fourier(f, z)
            assert abs(value - complex(_mp_fourier(f, z))) <= bound, z
            assert fourier(f, -z) == value.conjugate()
        z = 0.5 * sys.float_info.max / reach
        value = fourier(f, z)
        assert abs(value) <= f.total_integral * (1.0 + 1e-12)
        assert fourier(f, -z) == value.conjugate()
        with pytest.raises(ValidationError, match="too large"):
            fourier(f, 4.0 * z)
    assert hit == {(False, False), (False, True), (True, False), (True, True)}


def test_a_z_whose_h_z_is_subnormal_weighs_each_segment_by_h():
    """Below ``floor`` some ``h |z|`` is subnormal, and dividing by z would
    carry the bits it lost: each input is within ``(n + 10) u sum w
    max(|y0|, |y1|)`` of ``integral f - iz integral x f`` (the rest is below
    ``(z X)^2`` of the mass) down to the smallest float, with the exact
    conjugate at -z, and the unit box's fhat is 1 there."""
    for f in [f for f, _ in _segment_inputs()] + [BOX, TRIANGLE]:
        _, _, (_, floor, rows) = f.fourier_table
        segments = [seg for seg in f.segments() if seg[2] != 0.0 or seg[3] != 0.0]
        mass = math.fsum((t1 - t0) * max(abs(y0), abs(y1)) for t0, t1, y0, y1 in segments)
        total, moment = _exact_moments(f)
        for z in (5e-324, 1e-310, 0.5 * floor, floor):
            value = fourier(f, z)
            reference = complex(float(total), float(-Fraction(z) * moment))
            assert abs(value - reference) <= (len(rows) + 10) * 2.0**-53 * mass
            assert fourier(f, -z) == value.conjugate()
    assert fourier(BOX, 5e-324).real == 1.0
    # a segment 2^-1000 wide puts floor near 1e-6, where the other segments'
    # terms, ramps included, are far from subnormal and 40 digits stand for them
    f = PiecewiseLinearFunction((0.0, 2.0**-1000, 0.75, 2.0), (0.5, 1.0, 3.0, 0.25))
    _, _, (_, floor, rows) = f.fourier_table
    mass = math.fsum((t1 - t0) * max(y0, y1) for t0, t1, y0, y1 in f.segments())
    assert 1e-7 < floor < 1e-5
    for z in (0.5 * floor, -0.9 * floor):
        value = fourier(f, z)
        assert abs(value - complex(_mp_fourier(f, z))) <= (len(rows) + 10) * 2.0**-53 * mass


def test_segment_rows_keep_their_bits_under_a_dyadic_translation():
    """Edges on 1/64 translated by a multiple of 2^-6 up to 2^40: every
    ``x - c``, so every row, keeps its bits, and only the factor
    ``exp(-icz)`` differs (the bound of ``tests/test_properties.py``)."""
    rng = rng_for(40, "segment-translation")
    for _ in range(50):
        xs = [rng.randint(-640, 640) / 64]
        for _ in range(rng.randint(1, 6)):
            xs.append(xs[-1] + rng.randint(1, 200) / 64)
        ys = [rng.randint(0, 1024) / 256 for _ in xs]
        f = PiecewiseLinearFunction(xs, ys) if rng.random() < 0.5 else make_step(xs, ys[1:])
        offset = math.ldexp(rng.randint(-64, 64), rng.randint(-6, 40))
        g = type(f)([x + offset for x in f.edges], f._ys)
        assert f.fourier_table[0] is g.fourier_table[0] is _segment_sum
        assert g.fourier_table[2][2] == f.fourier_table[2][2]
        for z in (log_uniform(rng, 1e-3, 1e3) for _ in range(5)):
            m_f, m_g = abs(fourier(f, z)), abs(fourier(g, z))
            assert abs(m_g - m_f) <= 12 * 2.0**-53 * m_f


def test_each_kernel_keeps_its_trig_budget(monkeypatch):
    """Per call at z != 0 the segment loop takes one cos and one sin for the
    centre's phase, then per nonzero segment a cos and a sin for its phase
    and sin v, v = h z, and on a sloped one from ``|v| = 1e-2`` on one more
    cos; the lattice sum takes no cos, sin or ``cmath.exp`` at all and one
    ``cmath.rect`` per distinct length (per distinct gap on the sum over the
    jumps) and one for its anchor, however many rows it has."""
    trig = []
    rects = []
    exps = []
    patched = (
        (math, "cos", trig), (math, "sin", trig), (cmath, "rect", rects), (cmath, "exp", exps)
    )
    for module, name, calls in patched:

        def counted(*args, real=getattr(module, name), calls=calls):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    loop = [f for f, _ in _segment_inputs()] + [BOX, TRIANGLE]
    lattice = _lattice_inputs(rng_for(35, "trig-budget")) + _hat_inputs()
    for f in loop + lattice:
        f.fourier_table  # built before counting
    for z in (1e-9, 1e-3, 0.7, 30.0, -4e3):
        for f in loop:
            segments = [seg for seg in f.segments() if seg[2] != 0.0 or seg[3] != 0.0]
            sloped = [
                abs((t1 - t0) * 0.5 * z) >= _TRIG_SERIES_CUTOFF
                for t0, t1, y0, y1 in segments
                if y0 != y1
            ]
            del trig[:], rects[:], exps[:]
            fourier(f, z)
            assert (len(trig), len(rects), len(exps)) == (
                2 + 3 * len(segments) + sum(sloped), 0, 0
            )
        for f in lattice:
            _, _, (_, lengths, _, _, _, switch, _, gaps, _) = f.fourier_table
            del trig[:], rects[:], exps[:]
            fourier(f, z)
            assert not trig and not exps
            assert len(rects) == 1 + len(gaps if abs(z) >= switch else lengths)
    del trig[:], rects[:], exps[:]
    for f in loop + lattice:
        fourier(f, 0.0)
    assert not trig and not rects and not exps


def test_rect_phase_tables_equal_the_exp_ones_to_the_bit():
    """The lattice sum's phases, ``cmath.rect(1.0, L * -z + 0.0)``, are
    ``cmath.exp(L * complex(0.0, -z))`` in both parts, zero signs included:
    on lattice lengths (multiples of 2^-10 and of 0.1) and anchors of both
    signs, an absent side 0.0, products that are subnormal or underflow to
    zero, products near the largest float, and z of both signs."""
    rng = random.Random("rect-phase-tables")

    def sign(z):
        return z if rng.random() < 0.5 else -z

    cases = []
    for _ in range(20000):
        length = rng.randint(1, 4096) * (2.0**-10 if rng.random() < 0.5 else 0.1)
        cases.append((sign(length), sign(log_uniform(rng, 1e-3, 1e3))))
    for _ in range(10000):  # products from 2^-1100 to 2^-1000: zero, subnormal, the smallest normals
        e = rng.randint(-1100, -1000)
        length = math.ldexp(rng.uniform(0.5, 1.0), e // 2)
        cases.append((sign(length), sign(math.ldexp(rng.uniform(0.5, 1.0), e - e // 2))))
    for _ in range(10000):  # products up to 2^1022
        length = math.ldexp(rng.uniform(0.5, 1.0), rng.randint(0, 511))
        cases.append((sign(length), sign(math.ldexp(rng.uniform(0.5, 1.0), 511))))
    cases += [(0.0, sign(log_uniform(rng, 1e-3, 1e3))) for _ in range(100)]
    cases += [(sign(1.0), sign(5e-324)), (sign(2.0**-60), sign(2.0**-1000))]
    for length, z in cases:
        assert math.isfinite(length * z)
        got, want = cmath.rect(1.0, length * -z + 0.0), cmath.exp(length * complex(0.0, -z))
        for a, b in ((got.real, want.real), (got.imag, want.imag)):
            assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b), (length, z)


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


def test_quadrature_past_its_budget_evaluates_no_panel(monkeypatch):
    evaluated = []
    panel = quadrature._gk_panel

    def counted(fn, a, b):
        evaluated.append((a, b))
        return panel(fn, a, b)

    monkeypatch.setattr(quadrature, "_gk_panel", counted)
    unit_panels = [(float(k), k + 1.0) for k in range(9)]
    with pytest.raises(ConvergenceError, match="budget of 8 panels"):
        quadrature.gauss_kronrod_adaptive(lambda x: 1.0, unit_panels, 1.0, max_panels=8)
    assert evaluated == []


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
