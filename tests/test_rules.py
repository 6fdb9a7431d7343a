"""The input rules: each is written once, raises ValidationError, and runs once per input."""

import math

import mpmath
import pytest

from crestimate import (
    PiecewiseLinearFunction,
    ValidationError,
    ZeroFunctionError,
    bound_report,
    check_decreasing_bound,
    check_one_crest_bound,
    comb_example,
    comb_resonance,
    cosine_transform,
    count_crests,
    crest_lower_bound,
    decompose,
    default_z_grid,
    distribution,
    evaluate,
    fourier,
    hardy_chain_report,
    hardy_lhs,
    integrate,
    lorentz_lambda_norm,
    make_step,
    rearrangement,
    run_suite,
    sine_transform,
    window_bounds,
)
from crestimate import hardy, piecewise, rearrange
from crestimate.cli import main

from oracles import brute_force_crests, hardy_operator, rearrangement_integral

BOX = make_step([0, 1], [1])
HAT = PiecewiseLinearFunction((0.0, 1.0, 2.0), (0.0, 1.0, 0.0))
ZERO = make_step([0, 1], [0])
WEIGHT = make_step([1, 2], [1])
NAN = math.nan

BAD_ARGUMENTS = {
    "fourier": lambda: fourier(BOX, NAN),
    "evaluate": lambda: evaluate(BOX, NAN),
    "integrate-a": lambda: integrate(BOX, NAN, 1.0),
    "integrate-b": lambda: integrate(BOX, 0.0, NAN),
    "distribution": lambda: distribution(BOX, NAN),
    "rearrangement_integral": lambda: rearrangement_integral(BOX, NAN),
    "integral_up_to": lambda: rearrangement(BOX).integral_up_to(NAN),
    "sine_transform": lambda: sine_transform(BOX, NAN),
    "cosine_transform": lambda: cosine_transform(BOX, NAN),
    "window_bounds": lambda: window_bounds(BOX, NAN),
    "check_decreasing_bound": lambda: check_decreasing_bound(BOX, NAN),
    "check_one_crest_bound": lambda: check_one_crest_bound(BOX, NAN),
    "bound_report": lambda: bound_report(BOX, NAN),
    "crest_lower_bound": lambda: crest_lower_bound(BOX, [NAN]),
    "default_z_grid-min": lambda: default_z_grid(NAN, 10.0),
    "default_z_grid-max": lambda: default_z_grid(1.0, NAN),
    "hardy_operator": lambda: hardy_operator(BOX, NAN),
    "hardy_lhs-q": lambda: hardy_lhs(BOX, WEIGHT, NAN),
    "lorentz_lambda_norm-p": lambda: lorentz_lambda_norm(BOX, WEIGHT, NAN),
}
for count in (2.5, True):
    BAD_ARGUMENTS |= {
        f"comb_example-n={count}": lambda c=count: comb_example(c),
        f"comb_resonance-l={count}": lambda c=count: comb_resonance(1, c),
        f"default_z_grid-count={count}": lambda c=count: default_z_grid(count=c),
        f"run_suite-trials={count}": lambda c=count: run_suite("step", c, 0),
        f"crest_lower_bound-refine_depth={count}": (
            lambda c=count: crest_lower_bound(BOX, [1.0], refine_depth=c)
        ),
    }


@pytest.mark.parametrize("call", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_public_entry_points_reject_bad_arguments(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("count", [2.5, True])
def test_counts_name_the_positive_integer_rule(count):
    with pytest.raises(ValidationError, match="positive integer"):
        comb_example(count)


@pytest.mark.parametrize("depth", [0, -3])
def test_nonpositive_refine_depth_means_no_refinement(depth):
    assert crest_lower_bound(BOX, [1.0, 2.0], refine_depth=depth) == crest_lower_bound(
        BOX, [1.0, 2.0]
    )


@pytest.mark.parametrize("f", [BOX, HAT], ids=["step", "linear"])
def test_evaluation_and_integration_reject_nan_keep_infinities(f):
    for call in (lambda: evaluate(f, NAN), lambda: f(NAN)):
        with pytest.raises(ValidationError, match="nan"):
            call()
    for a, b in ((NAN, 1.0), (0.0, NAN), (NAN, NAN)):
        with pytest.raises(ValidationError, match="nan"):
            integrate(f, a, b)
    assert evaluate(f, math.inf) == evaluate(f, -math.inf) == 0.0
    assert integrate(f, -math.inf, math.inf) == 1.0
    assert integrate(f, math.inf, -math.inf) == -1.0


def test_comb_resonance_rejects_l_beyond_float_range():
    with pytest.raises(ValidationError, match="float range"):
        comb_resonance(1, 10**400)


def test_comb_cli_l_beyond_float_range_is_a_validation_error(capsys):
    assert main(["comb", "1", "--l", str(10**400)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "float range" in err


def test_comb_resonance_rejects_non_integer_l():
    # 2.5 used to return the rows swapped: "odd" at 6 pi, where the comb's
    # transform vanishes, and "even" at 5 pi
    with pytest.raises(ValidationError, match="l must be a positive integer"):
        comb_resonance(1, 2.5)


@pytest.mark.parametrize(
    "call",
    [
        count_crests,
        decompose,
        brute_force_crests,
        lambda f: crest_lower_bound(f, [1.0]),
        lambda f: bound_report(f, 1.0),
        lambda f: check_decreasing_bound(f, 1.0),
        lambda f: hardy_lhs(f, WEIGHT, 1.0),
        lambda f: hardy_chain_report(f, WEIGHT, WEIGHT, 2.0, 2.0),
        lambda f: hardy_lhs(BOX, f, 1.0),
    ],
    ids=[
        "count_crests",
        "decompose",
        "brute_force_crests",
        "crest_lower_bound",
        "bound_report",
        "check_decreasing_bound",
        "hardy_lhs-f",
        "hardy_chain_report",
        "hardy_lhs-u",
    ],
)
def test_zero_function_is_always_a_zero_function_error(call):
    with pytest.raises(ZeroFunctionError, match="zero function"):
        call(ZERO)


@pytest.mark.parametrize("weight", ["u", "v"])
def test_weight_messages_name_the_weight(weight):
    u, v = (HAT, WEIGHT) if weight == "u" else (WEIGHT, HAT)
    with pytest.raises(ValidationError, match=f"the weight {weight} must be a step function"):
        hardy_chain_report(BOX, u, v, 2.0, 2.0)


def test_hardy_command_checks_each_input_once(monkeypatch, capsys):
    calls = []

    def count(name, *modules):
        rule = getattr(piecewise, name)

        def wrapped(f, *args):
            calls.append((name, f.values))
            return rule(f, *args)

        for module in modules:
            monkeypatch.setattr(module, name, wrapped)

    count("require_nonincreasing_on_halfline", hardy)
    count("require_weight", hardy, rearrange)
    count("require_nonzero", piecewise)
    f = '{"type":"step","breakpoints":[0,1,3],"values":[2,1]}'
    u = '{"type":"step","breakpoints":[0.5,2],"values":[3]}'
    v = '{"type":"step","breakpoints":[0,4],"values":[4]}'
    assert main(["hardy", f, u, v, "--p", "2", "--q", "2"]) == 0
    capsys.readouterr()
    assert sorted(calls) == [
        ("require_nonincreasing_on_halfline", (2.0, 1.0)),
        ("require_nonzero", (2.0, 1.0)),
        ("require_nonzero", (3.0,)),
        ("require_nonzero", (4.0,)),
        ("require_weight", (3.0,)),
        ("require_weight", (4.0,)),
    ]


@pytest.mark.parametrize(
    "v, error, message",
    [
        (ZERO, ZeroFunctionError, "the weight v must not be the zero function"),
        (make_step([-1, 1], [1]), ValidationError, r"the weight v must be supported on \[0, oo\)"),
    ],
    ids=["zero", "left-of-0"],
)
def test_lorentz_norm_holds_v_to_the_weight_rule(v, error, message):
    with pytest.raises(error, match=message):
        lorentz_lambda_norm(BOX, v, 2.0)


@pytest.mark.parametrize(
    "build, names",
    [
        (lambda xs, ys: piecewise.from_samples(xs, ys), ("xs", "ys")),
        (lambda xs, ys: make_step([*xs, xs[-1] + 1.0], ys), ("breakpoints", "values")),
        (lambda xs, ys: PiecewiseLinearFunction(xs, ys), ("nodes", "node_values")),
    ],
    ids=["from_samples", "StepFunction", "PiecewiseLinearFunction"],
)
def test_data_messages_name_the_fields(build, names):
    x_name, y_name = names
    cases = [
        ((0.0, math.inf), (1.0, 1.0), f"{x_name} must be finite"),
        ((1.0, 0.0), (1.0, 1.0), f"{x_name} must be strictly increasing"),
        ((0.0, 1.0), (1.0, NAN), f"{y_name} must be finite"),
        ((0.0, 1.0), (1.0, -1.0), f"{y_name} must be nonnegative"),
    ]
    for xs, ys, message in cases:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            build(xs, ys)


def test_sine_transform_of_box_at_small_z_matches_40_digits():
    # Sf(z) = (1 - cos z) / z for the unit box; 1 - cos z used to cancel
    with mpmath.workdps(40):
        for k in range(101):
            z = 10.0 ** (-2 + k / 100)
            exact = float((1 - mpmath.cos(mpmath.mpf(z))) / z)
            assert abs(sine_transform(BOX, z) - exact) <= 4 * 2.0**-53 * exact, z
