"""End-to-end acceptance suite.

Each test prints one PASS line for its criterion; run with ``pytest -v`` (or
``-s``) to see them.  Criterion 3d, marked ``KNOWN_FALSE`` in its name,
concerns the narrow sine-window inequality in its tight pi/(2z) form; that
inequality is mathematically false (a box on [0, c] with c*z = pi violates it
by the factor 4/pi), so the test checks that the counterexamples exist and
that 4/pi is their sharp factor: attained by boxes, exceeded by none.  Every
criterion passes at the stated tolerances.
"""

import math
import time
from pathlib import Path

import pytest

from crestimate import (
    PI_SQRT_10,
    HALF_PI_SQRT_10,
    PiecewiseLinearFunction,
    comb_example,
    comb_resonance,
    count_crests,
    crest_lower_bound,
    distribution,
    fourier,
    fourier_weighted_norm,
    hardy_chain_report,
    hardy_lhs,
    integrate,
    make_step,
    rearrangement,
    window_bounds,
)
from crestimate.bounds import CERTIFICATE_GUARD
from crestimate.generators import (
    log_uniform,
    random_decreasing_step,
    random_interval,
    random_one_crest_step,
    random_step_function,
    random_weight,
    rng_for,
)

from oracles import brute_force_crests
from quadrature_oracles import fourier_quadrature_oracle

SEED = 20260808

# 50 log-spaced z values on [1e-3, 1e3]
Z_GRID_50 = [10.0 ** (-3.0 + 6.0 * k / 49.0) for k in range(50)]

# ground truth for the fixed weighted-norm instance, frozen from two
# independent high-precision quadratures (adaptive 1e-10 and tighter) of
# sqrt( int_0^1 (2 sin(z/2)/z)^2 dz ) run before the closed-form build
BOX_WEIGHTED_NORM_ORACLE = 0.9862914135642901

TRIANGLE = PiecewiseLinearFunction((0.0, 1.0, 2.0), (0.0, 1.0, 0.0))


def _announce(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})", flush=True)


# --------------------------------------------------------------------------
# criterion 1: comb sharpness ratio, and the vanishing even-multiple record


def test_criterion_1_comb_sharpness():
    start = time.monotonic()
    l = 50
    for n in (1, 2, 4):
        res = comb_resonance(n, l=l)
        expected = math.sqrt(10.0) * n / math.pi
        assert res.odd.z == (2 * l + 1) * math.pi
        assert math.isclose(res.odd.q_value, expected, rel_tol=1e-9)
        assert res.odd.q_value > n  # the certificate content: Q exceeds n
        # the even multiples are recorded and carry a vanishing transform
        assert res.even.z == 2 * l * math.pi
        assert res.even.transform_magnitude < 1e-8
        assert "odd multiples" in res.note
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _announce(
        "criterion 1 (comb sharpness)",
        f"Q = sqrt(10)n/pi to 1e-9 for n in (1,2,4); even multiples vanish; {elapsed:.2f}s",
    )


# --------------------------------------------------------------------------
# criteria 2 and 8: the crest-count bound on a large random family, and the
# soundness of the certificates extracted from the very same scan


@pytest.fixture(scope="module")
def step_family_scan():
    rng = rng_for(SEED, "acceptance/step-family")
    start = time.monotonic()
    bound_violations = []
    soundness_failures = []
    max_ratio = 0.0
    instances = 0
    for _ in range(1000):
        f = random_step_function(rng, min_pieces=1, max_pieces=20)
        n = count_crests(f)
        star = rearrangement(f)
        best_q = 0.0
        for z in Z_GRID_50:
            magnitude = abs(fourier(f, z))
            tail = star.integral_up_to(1.0 / z)
            bound = n * PI_SQRT_10 * tail
            max_ratio = max(max_ratio, magnitude / bound)
            if magnitude > bound * (1.0 + 1e-9):
                bound_violations.append((f, z, magnitude, bound))
            best_q = max(best_q, magnitude / (PI_SQRT_10 * tail))
        certified = max(1, math.floor(best_q - CERTIFICATE_GUARD) + 1)
        if certified > n:
            soundness_failures.append((f, best_q, n))
        instances += 1
    elapsed = time.monotonic() - start
    return {
        "bound_violations": bound_violations,
        "soundness_failures": soundness_failures,
        "max_ratio": max_ratio,
        "instances": instances,
        "elapsed": elapsed,
    }


def test_criterion_2_crest_count_bound_suite(step_family_scan):
    scan = step_family_scan
    assert scan["instances"] == 1000
    assert not scan["bound_violations"], scan["bound_violations"][:3]
    assert scan["elapsed"] < 30.0
    _announce(
        "criterion 2 (crest-count bound, 1000 x 50)",
        f"0 violations, max |fhat|/bound = {scan['max_ratio']:.6f}, {scan['elapsed']:.1f}s",
    )


def test_criterion_8_certificate_soundness(step_family_scan):
    assert not step_family_scan["soundness_failures"]
    cert = crest_lower_bound(comb_example(1), [101 * math.pi])
    assert cert.crest_lower_bound == 2
    assert cert.root_lower_bound == 2 * 1 - 1 == 1
    assert cert.derived_root_bound == 3
    assert cert.crest_lower_bound <= count_crests(comb_example(1))
    _announce(
        "criterion 8 (certificate soundness)",
        "lower bound <= true count on all 1000 instances; comb(1) -> 2 crests, "
        "roots >= 1 (derived 3)",
    )


# --------------------------------------------------------------------------
# criterion 3: the monotone half-line bound, the sine/cosine windows on the
# same family, and the single-crest window bound

ABS_GUARD = 1e-12


@pytest.fixture(scope="module")
def decreasing_family_scan():
    f_rng = rng_for(SEED, "acceptance/decreasing-family")
    z_rng = rng_for(SEED, "acceptance/decreasing-z")
    start = time.monotonic()
    halfline_violations = []
    positivity_violations = []
    narrow_violations = []
    wide_violations = []
    cosine_violations = []
    comparisons = 0
    for _ in range(500):
        f = random_decreasing_step(f_rng)
        for _ in range(50):
            z = log_uniform(z_rng, 1e-3, 1e3)
            comparisons += 1
            lhs = abs(fourier(f, z))
            rhs = HALF_PI_SQRT_10 * integrate(f, 0.0, 1.0 / z)
            if lhs > rhs + ABS_GUARD:
                halfline_violations.append((f, z, lhs, rhs))
            wb = window_bounds(f, z)
            if wb.sine_value <= 0.0:
                positivity_violations.append((f, z, wb.sine_value))
            if wb.sine_value > wb.sine_narrow_rhs + ABS_GUARD:
                narrow_violations.append((f, z, wb.sine_value, wb.sine_narrow_rhs))
            if wb.sine_value > wb.sine_wide_rhs + ABS_GUARD:
                wide_violations.append((f, z, wb.sine_value, wb.sine_wide_rhs))
            if abs(wb.cosine_value) > wb.cosine_rhs + ABS_GUARD:
                cosine_violations.append((f, z, wb.cosine_value, wb.cosine_rhs))
    elapsed = time.monotonic() - start
    return {
        "halfline": halfline_violations,
        "positivity": positivity_violations,
        "narrow": narrow_violations,
        "wide": wide_violations,
        "cosine": cosine_violations,
        "comparisons": comparisons,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def one_crest_family_scan():
    from crestimate import decompose

    f_rng = rng_for(SEED, "acceptance/one-crest-family")
    z_rng = rng_for(SEED, "acceptance/one-crest-z")
    start = time.monotonic()
    violations = []
    comparisons = 0
    for _ in range(500):
        f = random_one_crest_step(f_rng)
        b = decompose(f).crest_locations[0]
        for _ in range(50):
            z = log_uniform(z_rng, 1e-3, 1e3)
            comparisons += 1
            lhs = abs(fourier(f, z))
            rhs = HALF_PI_SQRT_10 * integrate(f, b - 1.0 / z, b + 1.0 / z)
            if lhs > rhs + ABS_GUARD:
                violations.append((f, z, lhs, rhs))
    elapsed = time.monotonic() - start
    return {"violations": violations, "comparisons": comparisons, "elapsed": elapsed}


def test_criterion_3a_monotone_halfline_bound(decreasing_family_scan):
    scan = decreasing_family_scan
    assert scan["comparisons"] == 500 * 50
    assert not scan["halfline"], scan["halfline"][:3]
    _announce(
        "criterion 3a (half-line bound, 500 x 50)",
        f"0 violations at 1e-12 absolute guard, {scan['elapsed']:.1f}s",
    )


def test_criterion_3b_sine_positivity_and_wide_window(decreasing_family_scan):
    scan = decreasing_family_scan
    assert not scan["positivity"], scan["positivity"][:3]
    assert not scan["wide"], scan["wide"][:3]
    _announce(
        "criterion 3b (sine positivity + pi/z window)",
        "0 violations on 500 x 50",
    )


def test_criterion_3c_cosine_window(decreasing_family_scan):
    assert not decreasing_family_scan["cosine"], decreasing_family_scan["cosine"][:3]
    _announce("criterion 3c (cosine 3pi/(2z) window)", "0 violations on 500 x 50")


def test_criterion_3d_sine_window_narrow_KNOWN_FALSE(decreasing_family_scan):
    """The narrow window ``Sf(z) <= integral_0^{pi/(2z)} f`` fails, by 4/pi.

    A nonincreasing step function is a positive mixture of boxes on [0, c].
    For one box with t = c*z the ratio Sf / integral_0^{pi/(2z)} f is
    (1 - cos t)/t for t <= pi/2 and 2(1 - cos t)/pi beyond, and a ratio of
    positive sums is at most its largest term's ratio, so the supremum over
    the family is exactly 4/pi, attained at t an odd multiple of pi.  This
    test checks that the decreasing family does violate the narrow window,
    that no violation exceeds 4/pi, and that boxes attain and approach 4/pi.
    The wide window pi/z, which the alternating-series argument actually
    yields, passes in criterion 3b.  See the README for discussion.
    """
    sharp = 4.0 / math.pi
    scan = decreasing_family_scan
    assert scan["narrow"], "the narrow window is false and must be violated"
    worst = 0.0
    for f, z, sf, rhs in scan["narrow"]:
        assert rhs > 0.0, (f, z, sf, rhs)
        assert sf / rhs <= sharp * (1.0 + 1e-9), (f, z, sf, rhs)
        worst = max(worst, sf / rhs)

    unit_box = make_step((0.0, 1.0), (1.0,))
    for f, z in (
        (unit_box, math.pi),
        (unit_box, 3.0 * math.pi),
        (make_step((0.0, 2.0), (1.0,)), math.pi / 2.0),
        (make_step((0.0, 3.0), (1.0,)), 3.0 * math.pi),
    ):
        wb = window_bounds(f, z)
        assert math.isclose(wb.sine_value / wb.sine_narrow_rhs, sharp, rel_tol=1e-12), (f, z)

    # c*z = pi(1 + 2^-k): the ratio is 2(1 + cos(pi/2^k))/pi, rising to 4/pi
    # from below with a gap of 2(1 - cos(pi/2^k))/pi <= pi/4^k
    previous = 0.0
    for k in range(1, 8):
        wb = window_bounds(unit_box, math.pi * (1.0 + 2.0 ** -k))
        ratio = wb.sine_value / wb.sine_narrow_rhs
        assert previous < ratio < sharp, (k, ratio)
        assert sharp - ratio <= math.pi / 4.0 ** k, (k, ratio)
        previous = ratio
    _announce(
        "criterion 3d (narrow pi/(2z) window fails by exactly 4/pi)",
        f"{len(scan['narrow'])} of {scan['comparisons']} violate, worst ratio "
        f"{worst:.7f} <= 4/pi; boxes attain 4/pi",
    )


def test_criterion_3e_single_crest_window(one_crest_family_scan):
    scan = one_crest_family_scan
    assert scan["comparisons"] == 500 * 50
    assert not scan["violations"], scan["violations"][:3]
    _announce(
        "criterion 3e (single-crest window, 500 x 50)",
        f"0 violations at 1e-12 absolute guard, {scan['elapsed']:.1f}s",
    )


def test_criterion_3_total_runtime(decreasing_family_scan, one_crest_family_scan):
    total = decreasing_family_scan["elapsed"] + one_crest_family_scan["elapsed"]
    assert total < 30.0
    _announce("criterion 3 runtime", f"{total:.1f}s < 30s")


# --------------------------------------------------------------------------
# criterion 4: rearrangement exactness


def test_criterion_4_rearrangement_exactness():
    f_rng = rng_for(SEED, "acceptance/rearrangement")
    a_rng = rng_for(SEED, "acceptance/alphas")
    e_rng = rng_for(SEED, "acceptance/intervals")
    for _ in range(200):
        f = random_step_function(f_rng)
        star = rearrangement(f).star
        assert star.total_integral == f.total_integral
        for _ in range(20):
            alpha = a_rng.randint(1, 9 * 1024) / 1024.0
            assert distribution(f, alpha) == distribution(star, alpha)
        a, b = random_interval(e_rng, f)
        assert integrate(f, a, b) <= integrate(star, 0.0, b - a)
    for n in (1, 2, 4):
        assert rearrangement(comb_example(n)).star == make_step([0, 5 * n], [1])
    g_star = rearrangement(TRIANGLE).star
    assert g_star.nodes == (0.0, 2.0) and g_star.node_values == (1.0, 0.0)
    _announce(
        "criterion 4 (rearrangement exactness)",
        "equimeasurability, mass preservation and the set bound exact on 200 "
        "functions; comb and triangle vectors reproduced exactly",
    )


# --------------------------------------------------------------------------
# criterion 5: greedy crest count == exhaustive minimum


def test_criterion_5_crest_count_oracle_equivalence():
    start = time.monotonic()
    rng = rng_for(SEED, "acceptance/crest-oracle")
    for _ in range(500):
        f = random_step_function(rng, min_pieces=1, max_pieces=8)
        assert count_crests(f) == brute_force_crests(f)
    assert count_crests(make_step([0, 1, 2, 3], [1, 0, 1])) == 2
    assert count_crests(make_step([0, 5], [3])) == 1
    for n in (1, 2, 4):
        assert count_crests(comb_example(n)) == 5 * n
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _announce(
        "criterion 5 (crest-count oracle equivalence)",
        f"greedy == exhaustive on 500 instances, fixed vectors hold, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# criterion 6: closed-form transform == adaptive quadrature


def test_criterion_6_transform_oracle_equivalence():
    f_rng = rng_for(SEED, "acceptance/transform-oracle/f")
    z_rng = rng_for(SEED, "acceptance/transform-oracle/z")
    worst = 0.0
    for _ in range(500):
        f = random_step_function(
            f_rng, max_pieces=8, max_width_units=16, start_range_units=64
        )
        z = log_uniform(z_rng, 1e-2, 100.0) * z_rng.choice([-1.0, 1.0])
        mass = f.total_integral
        closed = fourier(f, z)
        oracle = fourier_quadrature_oracle(f, z, 1e-9 * (1.0 + mass))
        scale = max(abs(closed), 1e-3 * mass)
        worst = max(worst, abs(closed - oracle) / scale)
        assert abs(closed - oracle) <= 1e-6 * scale
        assert fourier(f, -z) == closed.conjugate()
    _announce(
        "criterion 6 (transform oracle equivalence)",
        f"500 pairs within 1e-6 relative (worst {worst:.2e}); conjugate "
        "symmetry bit-exact",
    )


# --------------------------------------------------------------------------
# criterion 7: the weighted chain


def test_criterion_7_weighted_chain():
    f_rng = rng_for(SEED, "acceptance/chain/f")
    u_rng = rng_for(SEED, "acceptance/chain/u")
    exponents = (0.5, 1.0, 2.0, 3.0)
    for i in range(200):
        f = random_decreasing_step(f_rng, max_pieces=6, max_width_units=32)
        u = random_weight(u_rng, max_pieces=4)
        q = exponents[i % 4]
        lhs = fourier_weighted_norm(f, u, q)
        middle = hardy_lhs(f, u, q)
        assert lhs <= HALF_PI_SQRT_10 * middle * (1.0 + 1e-6), (f, u, q, lhs, middle)
    box = make_step([0, 1], [1])
    u01 = make_step([0, 1], [1])
    report = hardy_chain_report(box, u01, u01, 2.0, 2.0)
    assert math.isclose(
        report.fourier_weighted_norm, BOX_WEIGHTED_NORM_ORACLE, rel_tol=1e-6
    )
    assert abs(report.hardy_middle - 1.0) < 1e-9
    assert math.isclose(
        report.chain_constant * report.hardy_middle, HALF_PI_SQRT_10, rel_tol=1e-9
    )
    _announce(
        "criterion 7 (weighted chain)",
        f"0 violations on 200 instances; fixed instance "
        f"{report.fourier_weighted_norm:.4f} <= {HALF_PI_SQRT_10:.4f}",
    )


# --------------------------------------------------------------------------
# the README's library example


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md (Library example)", "exec"), {})  # its asserts are the checks
