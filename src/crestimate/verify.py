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

Each check also reports the comparison that attains its largest ratio
(``max_ratio_witness``), in the same form as a violation.  A trial draws its
50 z at once, evaluates both sides of every check as lists and hands each
check the lists in one call; the function's JSON is built only for a
violation or a new largest ratio.
"""

import functools
from typing import NamedTuple

from .bounds import PI_SQRT_10, certified_crests
from .crests import count_crests, decompose
from .generators import (
    log_uniform_list,
    random_decreasing_step,
    random_one_crest_step,
    random_step_function,
    rng_for,
)
from .errors import ValidationError, require_positive_int
from .piecewise import function_to_json_dict
from .rearrange import rearrangement
from .transform import fourier

__all__ = ["CheckResult", "SuiteResult", "run_suite", "FAMILIES"]

RELATIVE_SLACK = 1e-9
ABSOLUTE_SLACK = 1e-12

Z_RANGE = (1e-3, 1e3)
Z_PER_FUNCTION = 50


class _Trial:
    """One drawn function and the fields its payloads carry besides it.

    The function's JSON is built on first need, for a violation or a new
    largest ratio, and shared by every payload of the trial.
    """

    def __init__(self, f, **fields):
        self.f = f
        self.fields = fields

    @functools.cached_property
    def _head(self) -> dict:
        return {"function": function_to_json_dict(self.f), **self.fields}

    def payload(self, key: str, at: float, lhs: float, rhs: float) -> dict:
        return {**self._head, key: at, "lhs": lhs, "rhs": rhs}


class CheckResult:
    """One inequality: its comparisons, largest lhs/rhs ratio and violations.

    A pair violates when ``lhs > rhs + slack``, with ``slack`` scaled by
    ``rhs`` when ``relative``.  ``max_ratio_witness`` is the payload of the
    first comparison that attains ``max_ratio``, so it can be replayed.
    """

    def __init__(
        self, name: str, slack: float, relative: bool = False, expected_to_hold: bool = True
    ):
        self.name = name
        self.slack = slack
        self.relative = relative
        self.comparisons = 0
        self.max_ratio = 0.0
        self.max_ratio_witness: dict | None = None
        self.violations: list[dict] = []
        self.expected_to_hold = expected_to_hold

    def record(self, lhs: list, rhs: list, trial: _Trial, at: list, key: str = "z") -> None:
        """Compare ``lhs[i]`` with ``rhs[i]`` at ``at[i]`` for every i.

        ``max_ratio`` runs left to right over the pairs with ``rhs > 0``;
        a payload is built only for a failing pair or a new maximum.
        """
        self.comparisons += len(lhs)
        # 0.0 for rhs <= 0 never raises the maximum, which starts at 0.0
        ratios = [a / b if b > 0.0 else 0.0 for a, b in zip(lhs, rhs)]
        top = max(ratios)
        if top > self.max_ratio:
            self.max_ratio = top
            i = ratios.index(top)
            self.max_ratio_witness = trial.payload(key, at[i], lhs[i], rhs[i])
        slack = self.slack
        if self.relative:
            failing = [i for i, (a, b) in enumerate(zip(lhs, rhs)) if a > b + slack * b]
        else:
            failing = [i for i, (a, b) in enumerate(zip(lhs, rhs)) if a > b + slack]
        for i in failing:
            self.violations.append(trial.payload(key, at[i], lhs[i], rhs[i]))

    def record_positive(self, values: list, trial: _Trial, at: list) -> None:
        """Check ``values[i] > 0`` at ``at[i]``; a ratio has no meaning here."""
        self.comparisons += len(values)
        for v, z in zip(values, at):
            if v <= 0.0:
                self.violations.append(trial.payload("z", z, v, 0.0))

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "comparisons": self.comparisons,
            "max_ratio": self.max_ratio,
            "max_ratio_witness": self.max_ratio_witness,
            "violation_count": len(self.violations),
            "violations": self.violations[:20],
            "expected_to_hold": self.expected_to_hold,
            "passed": self.passed,
        }


class SuiteResult(NamedTuple):
    """The checks of one family run, with the trials and seed that replay it."""

    family: str
    trials: int
    seed: int
    violations_total: int
    checks: list[CheckResult]

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "checks": [c.to_json_dict() for c in self.checks]}


def _suite_step(trials: int, seed: int) -> list[CheckResult]:
    f_rng = rng_for(seed, "step/functions")
    z_rng = rng_for(seed, "step/z")
    bound_check = CheckResult("crest-count-bound", RELATIVE_SLACK, relative=True)
    certificate_check = CheckResult("certificate-soundness", 0.0)
    for _ in range(trials):
        f = random_step_function(f_rng)
        n = count_crests(f)
        star = rearrangement(f)
        trial = _Trial(f, crest_count=n)
        zs = log_uniform_list(z_rng, *Z_RANGE, Z_PER_FUNCTION)
        magnitudes = [abs(fourier(f, z)) for z in zs]
        tails = [star.integral_up_to(1.0 / z) for z in zs]
        bounds = [n * PI_SQRT_10 * tail for tail in tails]
        bound_check.record(magnitudes, bounds, trial, zs)
        best_q = max(0.0, *[m / (PI_SQRT_10 * t) for m, t in zip(magnitudes, tails)])
        certificate_check.record(
            [float(certified_crests(best_q))], [float(n)], trial, [best_q], key="best_q"
        )
    return [bound_check, certificate_check]


def _suite_decreasing(trials: int, seed: int) -> list[CheckResult]:
    from .lemmas import _halfline_sides, _window_bounds  # loaded on first use: `step` needs neither

    f_rng = rng_for(seed, "decreasing/functions")
    z_rng = rng_for(seed, "decreasing/z")
    halfline = CheckResult("monotone-halfline-bound", ABSOLUTE_SLACK)
    positive = CheckResult("sine-positive", 0.0)
    narrow = CheckResult("sine-window-narrow", ABSOLUTE_SLACK, expected_to_hold=False)
    wide = CheckResult("sine-window-wide", ABSOLUTE_SLACK)
    cosine = CheckResult("cosine-window", ABSOLUTE_SLACK)
    for _ in range(trials):
        f = random_decreasing_step(f_rng)
        trial = _Trial(f)
        zs = log_uniform_list(z_rng, *Z_RANGE, Z_PER_FUNCTION)
        halfline.record(*_halfline_sides(f, zs), trial, zs)
        reports = _window_bounds(f, zs)
        sines = [wb.sine_value for wb in reports]
        positive.record_positive(sines, trial, zs)
        narrow.record(sines, [wb.sine_narrow_rhs for wb in reports], trial, zs)
        wide.record(sines, [wb.sine_wide_rhs for wb in reports], trial, zs)
        cosine.record(
            [abs(wb.cosine_value) for wb in reports], [wb.cosine_rhs for wb in reports], trial, zs
        )
    return [halfline, positive, narrow, wide, cosine]


def _suite_one_crest(trials: int, seed: int) -> list[CheckResult]:
    from .lemmas import _one_crest_sides  # loaded on first use, as in _suite_decreasing

    f_rng = rng_for(seed, "one-crest/functions")
    z_rng = rng_for(seed, "one-crest/z")
    window = CheckResult("single-crest-window-bound", ABSOLUTE_SLACK)
    for _ in range(trials):
        f = random_one_crest_step(f_rng)
        b = decompose(f).crest_locations[0]
        zs = log_uniform_list(z_rng, *Z_RANGE, Z_PER_FUNCTION)
        window.record(*_one_crest_sides(f, zs, b), _Trial(f, crest_location=b), zs)
    return [window]


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
    checks = FAMILIES[family](trials, seed)
    return SuiteResult(family, trials, seed, sum(len(c.violations) for c in checks), checks)
