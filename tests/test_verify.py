import hashlib
import json
import math

import pytest

from crestimate import ValidationError, make_step, run_suite
from crestimate import verify
from crestimate.bounds import PI_SQRT_10, certified_crests
from crestimate.cli import main
from crestimate.crests import count_crests, decompose
from crestimate.generators import random_decreasing_step, random_step_function, rng_for
from crestimate.piecewise import function_from_json_dict, function_to_json_dict, integrate
from crestimate.rearrange import rearrangement
from crestimate.lemmas import HALF_PI_SQRT_10, sine_transform, window_bounds
from crestimate.transform import fourier

# The README's verify runs.  Each digest is the sha256 of the compact JSON
# report without its ``max_ratio_witness`` keys.  The step digest was taken
# on the code that compared one pair at a time, before the witnesses
# existed; the decreasing and one-crest digests on the segment loop of
# ``fourier``, whose rounding moved each run's half-line or window max_ratio
# by one ulp (0.4026313043496729 -> 0.40263130434967287 and
# 0.4026288836712575 -> 0.40262888367125754) and no other field.
README_RUNS = {
    ("step", "1000", "42"): "9a1d9b990eb4e07d01ce94c88f2d5c9c0e641e527f0891872e0820174bab7cda",
    ("decreasing", "500", "7"): "d33998ea9f9548ee2b3bf88b441b23689db9e95b8c8ddc2c8994f1934bb65c5f",
    ("one-crest", "500", "7"): "2d539ede207e6c5b1e73e3712b6ebd00e6ac9e3deb1d9ceac6e87ba8c8d3714e",
}


@pytest.fixture(scope="module")
def readme_reports(tmp_path_factory):
    """The README runs through the CLI: {(family, trials, seed): report text}."""
    out = tmp_path_factory.mktemp("verify") / "report.json"
    reports = {}
    for family, trials, seed in README_RUNS:
        assert main(["verify", family, "--trials", trials, "--seed", seed, "--out", str(out)]) == 0
        reports[family, trials, seed] = out.read_text(encoding="utf-8")
    return reports


def test_suites_are_deterministic():
    a = run_suite("step", 20, 9)
    b = run_suite("step", 20, 9)
    assert a.to_json_dict() == b.to_json_dict()


def test_unknown_family_and_bad_trials():
    with pytest.raises(ValidationError, match="unknown family"):
        run_suite("smooth", 10, 0)
    with pytest.raises(ValidationError, match="trials"):
        run_suite("step", 0, 0)


def test_suite_check_by_unknown_name():
    with pytest.raises(KeyError, match="sine-positive"):
        run_suite("one-crest", 1, 1).check("sine-positive")


def test_record_positive_reports_each_nonpositive_value():
    f = make_step([0, 1], [1])
    check = verify.CheckResult("sine-positive", 0.0)
    check.record_positive([0.5, 0.0, -1e-3], verify._Trial(f, note=1), [1.0, 2.0, 3.0])
    assert check.comparisons == 3
    assert check.max_ratio == 0.0 and check.max_ratio_witness is None
    head = {"function": function_to_json_dict(f), "note": 1}
    assert check.violations == [
        {**head, "z": 2.0, "lhs": 0.0, "rhs": 0.0},
        {**head, "z": 3.0, "lhs": -1e-3, "rhs": 0.0},
    ]
    # the function is serialized once and shared by the trial's payloads
    assert check.violations[0]["function"] is check.violations[1]["function"]


def test_step_suite_is_clean():
    result = run_suite("step", 50, 3)
    assert result.violations_total == 0
    bound = result.check("crest-count-bound")
    assert bound.comparisons == 50 * 50
    assert 0.0 < bound.max_ratio < 1.0
    assert result.check("certificate-soundness").passed


def test_decreasing_suite_flags_only_the_narrow_window():
    result = run_suite("decreasing", 50, 3)
    narrow = result.check("sine-window-narrow")
    assert not narrow.expected_to_hold
    assert narrow.violations, "the narrow window is false and must be reported"
    assert narrow.max_ratio <= 4.0 / math.pi + 1e-9
    for name in ("monotone-halfline-bound", "sine-positive", "sine-window-wide", "cosine-window"):
        check = result.check(name)
        assert check.expected_to_hold and check.passed


def test_decreasing_draws_are_their_own_rearrangement():
    """The decreasing suite's integrals over [0, x] are integrate(f, 0.0, x),
    as they were when it read them off f*: f* is f, so both agree bit for bit."""
    rng = rng_for(7, "decreasing/functions")
    for _ in range(300):
        f = random_decreasing_step(rng)
        star = rearrangement(f)
        assert star.star == f
        for x in (*f.breakpoints, 0.3, 2.5, 100.0):
            assert star.integral_up_to(x) == integrate(f, 0.0, x)


def test_one_crest_suite_is_clean():
    result = run_suite("one-crest", 50, 3)
    assert result.violations_total == 0
    assert result.check("single-crest-window-bound").max_ratio < 1.0


def test_violations_are_replayable():
    result = run_suite("decreasing", 50, 3)
    violation = result.check("sine-window-narrow").violations[0]
    f = function_from_json_dict(violation["function"])
    z = violation["z"]
    sf = sine_transform(f, z)
    narrow = integrate(f, 0.0, math.pi / (2.0 * z))
    assert sf > narrow
    assert math.isclose(sf, violation["lhs"], rel_tol=1e-12)
    assert math.isclose(narrow, violation["rhs"], rel_tol=1e-12)


def test_suite_json_shape():
    payload = run_suite("one-crest", 5, 1).to_json_dict()
    assert payload["family"] == "one-crest"
    assert payload["trials"] == 5
    assert payload["seed"] == 1
    assert payload["violations_total"] == 0
    assert payload["checks"][0]["name"] == "single-crest-window-bound"
    assert payload["checks"][0]["passed"] is True


def test_readme_runs_keep_every_field_but_the_witness(readme_reports):
    for run, digest in README_RUNS.items():
        text = readme_reports[run]
        report = json.loads(text)
        assert text == json.dumps(report, separators=(",", ":")) + "\n"
        for check in report["checks"]:
            assert "max_ratio_witness" in check
            del check["max_ratio_witness"]
        stripped = json.dumps(report, separators=(",", ":"))
        assert hashlib.sha256(stripped.encode()).hexdigest() == digest, run


def test_witnesses_replay_the_readme_ratios(readme_reports):
    """Each witness gives back its check's max_ratio from the library's own
    transforms and integrals, bit for bit; the decreasing run holds the
    README's 0.4026313... and 0.7246038...."""
    report = json.loads(readme_reports["decreasing", "500", "7"])
    checks = {c["name"]: c for c in report["checks"]}
    halfline = checks["monotone-halfline-bound"]
    wide = checks["sine-window-wide"]
    assert repr(halfline["max_ratio"]).startswith("0.4026313")
    assert repr(wide["max_ratio"]).startswith("0.7246038")
    assert checks["sine-positive"]["max_ratio_witness"] is None  # a sign check has no ratio

    def replay(witness):
        return function_from_json_dict(witness["function"]), witness["z"]

    f, z = replay(halfline["max_ratio_witness"])
    assert abs(fourier(f, z)) / (HALF_PI_SQRT_10 * integrate(f, 0.0, 1.0 / z)) == halfline["max_ratio"]
    for name, lhs, rhs in (
        ("sine-window-narrow", "sine_value", "sine_narrow_rhs"),
        ("sine-window-wide", "sine_value", "sine_wide_rhs"),
        ("cosine-window", "cosine_value", "cosine_rhs"),
    ):
        f, z = replay(checks[name]["max_ratio_witness"])
        wb = window_bounds(f, z)
        assert abs(getattr(wb, lhs)) / getattr(wb, rhs) == checks[name]["max_ratio"], name

    report = json.loads(readme_reports["step", "1000", "42"])
    bound, certificate = report["checks"]
    f, z = replay(bound["max_ratio_witness"])
    n = count_crests(f)
    assert bound["max_ratio_witness"]["crest_count"] == n
    tail = rearrangement(f).integral_up_to(1.0 / z)
    assert abs(fourier(f, z)) / (n * PI_SQRT_10 * tail) == bound["max_ratio"]
    witness = certificate["max_ratio_witness"]
    assert certified_crests(witness["best_q"]) / witness["crest_count"] == certificate["max_ratio"]

    report = json.loads(readme_reports["one-crest", "500", "7"])
    (window,) = report["checks"]
    f, z = replay(window["max_ratio_witness"])
    b = window["max_ratio_witness"]["crest_location"]
    assert b == decompose(f).crest_locations[0]
    rhs = HALF_PI_SQRT_10 * integrate(f, b - 1.0 / z, b + 1.0 / z)
    assert abs(fourier(f, z)) / rhs == window["max_ratio"]
    for check in (*report["checks"], bound, certificate, halfline, wide):
        w = check["max_ratio_witness"]
        assert w["lhs"] / w["rhs"] == check["max_ratio"]


def _reference_step_suite(trials: int, seed: int) -> tuple[dict, set[int]]:
    """The step suite one comparison at a time, as a plain loop: its report,
    and the trials in which some check's largest ratio rose."""
    f_rng = rng_for(seed, "step/functions")
    z_rng = rng_for(seed, "step/z")
    lo, hi = math.log10(1e-3), math.log10(1e3)
    checks = [
        {"name": name, "comparisons": 0, "max_ratio": 0.0, "max_ratio_witness": None, "violations": []}
        for name in ("crest-count-bound", "certificate-soundness")
    ]
    raised = set()

    def compare(check, k, payload, lhs, rhs, slack):
        check["comparisons"] += 1
        if rhs > 0.0 and lhs / rhs > check["max_ratio"]:
            check["max_ratio"] = lhs / rhs
            check["max_ratio_witness"] = {**payload, "lhs": lhs, "rhs": rhs}
            raised.add(k)
        if lhs > rhs + slack:
            check["violations"].append({**payload, "lhs": lhs, "rhs": rhs})

    for k in range(trials):
        f = random_step_function(f_rng)
        n = count_crests(f)
        star = rearrangement(f)
        payload = {"function": function_to_json_dict(f), "crest_count": n}
        best_q = 0.0
        for _ in range(50):
            z = 10.0 ** z_rng.uniform(lo, hi)
            magnitude = abs(fourier(f, z))
            tail = star.integral_up_to(1.0 / z)
            bound = n * PI_SQRT_10 * tail
            compare(checks[0], k, {**payload, "z": z}, magnitude, bound, 1e-9 * bound)
            best_q = max(best_q, magnitude / (PI_SQRT_10 * tail))
        compare(
            checks[1], k, {**payload, "best_q": best_q}, float(certified_crests(best_q)), float(n), 0.0
        )
    for check in checks:
        violations = check.pop("violations")
        check.update(
            violation_count=len(violations),
            violations=violations[:20],
            expected_to_hold=True,
            passed=not violations,
        )
    total = sum(c["violation_count"] for c in checks)
    report = {"family": "step", "trials": trials, "seed": seed, "violations_total": total, "checks": checks}
    return report, raised


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_suite_matches_a_per_comparison_loop(seed):
    expected, _ = _reference_step_suite(200, seed)
    assert run_suite("step", 200, seed).to_json_dict() == expected


def test_clean_step_suite_serializes_a_function_only_for_a_new_maximum(monkeypatch):
    _, raised = _reference_step_suite(200, 5)
    calls = []

    def counting(f):
        calls.append(f)
        return function_to_json_dict(f)

    monkeypatch.setattr(verify, "function_to_json_dict", counting)
    result = run_suite("step", 200, 5)
    assert result.violations_total == 0
    assert result.check("crest-count-bound").comparisons == 50 * 200
    # one serialization per trial that raised a maximum, shared by its checks
    assert len(calls) == len(raised) < 200
