"""Randomized verification suites for the transform inequalities.

Each suite draws seeded random functions, evaluates an inequality family on
a spread of z values, and reports every violation verbatim (the offending
function serialized in the interchange format, so a failure can be replayed
exactly).  The checks are:

* family ``step``: the crest-count bound |fhat(z)| <= N pi sqrt(10)
  integral_0^{1/z} f*, plus soundness of the certificate extracted from the
  same Q values.
* family ``decreasing``: the half-line bound with constant (pi/2) sqrt(10),
  strict positivity of the sine transform, the wide sine window pi/z, the
  cosine window 3pi/(2z) -- and the narrow sine window pi/(2z), which is
  false in general and is reported so the counterexamples are visible rather
  than hidden.
* family ``one-crest``: the window bound around the single crest.

A relative slack of 1e-9 guards the crest-count bound; the window checks use
an absolute slack of 1e-12.
"""

from .bounds import HALF_PI_SQRT_10, PI_SQRT_10, certified_crests
from .crests import count_crests, decompose
from .generators import (
    log_uniform,
    random_decreasing_step,
    random_one_crest_step,
    random_step_function,
    rng_for,
)
from .errors import ValidationError, require_positive_int
from .piecewise import function_to_json_dict, integrate
from .rearrange import rearrangement
from .transform import fourier, window_bounds

__all__ = ["CheckResult", "SuiteResult", "run_suite", "FAMILIES"]

RELATIVE_SLACK = 1e-9
ABSOLUTE_SLACK = 1e-12

Z_RANGE = (1e-3, 1e3)
Z_PER_FUNCTION = 50


class CheckResult:
    """One inequality: its comparisons, largest lhs/rhs ratio and violations."""

    def __init__(self, name: str, expected_to_hold: bool = True):
        self.name = name
        self.comparisons = 0
        self.max_ratio = 0.0
        self.violations: list[dict] = []
        self.expected_to_hold = expected_to_hold

    def record(self, lhs: float, rhs: float, slack: float, payload: dict) -> None:
        self.comparisons += 1
        if rhs > 0.0:
            self.max_ratio = max(self.max_ratio, lhs / rhs)
        if lhs > rhs + slack:
            self.violations.append({**payload, "lhs": lhs, "rhs": rhs})

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "comparisons": self.comparisons,
            "max_ratio": self.max_ratio,
            "violation_count": len(self.violations),
            "violations": self.violations[:20],
            "expected_to_hold": self.expected_to_hold,
            "passed": self.passed,
        }


class SuiteResult:
    """The checks of one family run, with the trials and seed that replay it."""

    def __init__(self, family: str, trials: int, seed: int, checks: list[CheckResult]):
        self.family = family
        self.trials = trials
        self.seed = seed
        self.checks = checks

    @property
    def violations_total(self) -> int:
        return sum(len(c.violations) for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "trials": self.trials,
            "seed": self.seed,
            "violations_total": self.violations_total,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def _suite_step(trials: int, seed: int) -> SuiteResult:
    f_rng = rng_for(seed, "step/functions")
    z_rng = rng_for(seed, "step/z")
    bound_check = CheckResult("crest-count-bound")
    certificate_check = CheckResult("certificate-soundness")
    for _ in range(trials):
        f = random_step_function(f_rng)
        n = count_crests(f)
        star = rearrangement(f)
        payload = {"function": function_to_json_dict(f), "crest_count": n}
        best_q = 0.0
        for _ in range(Z_PER_FUNCTION):
            z = log_uniform(z_rng, *Z_RANGE)
            magnitude = abs(fourier(f, z))
            tail = star.integral_up_to(1.0 / z)
            bound = n * PI_SQRT_10 * tail
            bound_check.record(magnitude, bound, RELATIVE_SLACK * bound, {**payload, "z": z})
            best_q = max(best_q, magnitude / (PI_SQRT_10 * tail))
        certificate_check.record(
            float(certified_crests(best_q)), float(n), 0.0, {**payload, "best_q": best_q}
        )
    return SuiteResult("step", trials, seed, [bound_check, certificate_check])


def _suite_decreasing(trials: int, seed: int) -> SuiteResult:
    f_rng = rng_for(seed, "decreasing/functions")
    z_rng = rng_for(seed, "decreasing/z")
    halfline = CheckResult("monotone-halfline-bound")
    positive = CheckResult("sine-positive")
    narrow = CheckResult("sine-window-narrow", expected_to_hold=False)
    wide = CheckResult("sine-window-wide")
    cosine = CheckResult("cosine-window")
    for _ in range(trials):
        f = random_decreasing_step(f_rng)
        payload = {"function": function_to_json_dict(f)}
        for _ in range(Z_PER_FUNCTION):
            z = log_uniform(z_rng, *Z_RANGE)
            zp = {**payload, "z": z}
            lhs = abs(fourier(f, z))
            rhs = HALF_PI_SQRT_10 * integrate(f, 0.0, 1.0 / z)
            halfline.record(lhs, rhs, ABSOLUTE_SLACK, zp)
            wb = window_bounds(f, z)
            # strict positivity of the sine transform, margin 0
            positive.comparisons += 1
            if wb.sine_value <= 0.0:
                positive.violations.append({**zp, "lhs": wb.sine_value, "rhs": 0.0})
            narrow.record(wb.sine_value, wb.sine_narrow_rhs, ABSOLUTE_SLACK, zp)
            wide.record(wb.sine_value, wb.sine_wide_rhs, ABSOLUTE_SLACK, zp)
            cosine.record(abs(wb.cosine_value), wb.cosine_rhs, ABSOLUTE_SLACK, zp)
    return SuiteResult(
        "decreasing", trials, seed, [halfline, positive, narrow, wide, cosine]
    )


def _suite_one_crest(trials: int, seed: int) -> SuiteResult:
    f_rng = rng_for(seed, "one-crest/functions")
    z_rng = rng_for(seed, "one-crest/z")
    window = CheckResult("single-crest-window-bound")
    for _ in range(trials):
        f = random_one_crest_step(f_rng)
        b = decompose(f).crest_locations[0]
        payload = {"function": function_to_json_dict(f), "crest_location": b}
        for _ in range(Z_PER_FUNCTION):
            z = log_uniform(z_rng, *Z_RANGE)
            lhs = abs(fourier(f, z))
            rhs = HALF_PI_SQRT_10 * integrate(f, b - 1.0 / z, b + 1.0 / z)
            window.record(lhs, rhs, ABSOLUTE_SLACK, {**payload, "z": z})
    return SuiteResult("one-crest", trials, seed, [window])


FAMILIES = {
    "step": _suite_step,
    "decreasing": _suite_decreasing,
    "one-crest": _suite_one_crest,
}


def run_suite(family: str, trials: int, seed: int) -> SuiteResult:
    """Run one randomized family; deterministic for a given (family, seed)."""
    if family not in FAMILIES:
        raise ValidationError(
            f"unknown family {family!r} (choose from {sorted(FAMILIES)})"
        )
    require_positive_int("trials", trials)
    return FAMILIES[family](trials, seed)
