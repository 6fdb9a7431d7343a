"""Certified lower bounds on the number of local maxima of a nonnegative
function, computed from pointwise estimates of its Fourier transform.

The library works on exact piecewise representations (step and piecewise
linear): crest counting and decompositions, decreasing rearrangements, exact
closed-form transforms, the bound |fhat(z)| <= N pi sqrt(10) integral_0^{1/z}
f*, its contrapositive as a crest/root certificate, and weighted
running-integral estimates.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it, imported on the first
# access to one of its names: a request loads only the modules its subcommand
# runs (a scan loads none of verify, generators, hardy, lemmas, quadrature).
_SOURCES = {
    "BoundCertificate": "bounds",
    "CombResonance": "bounds",
    "ConvergenceError": "errors",
    "CrestimateError": "errors",
    "CrestReport": "crests",
    "HALF_PI_SQRT_10": "lemmas",
    "HardyReport": "hardy",
    "PI_SQRT_10": "bounds",
    "PiecewiseFunction": "piecewise",
    "PiecewiseLinearFunction": "piecewise",
    "QReport": "bounds",
    "Rearrangement": "rearrange",
    "StepFunction": "piecewise",
    "SuiteResult": "verify",
    "ValidationError": "errors",
    "WindowBoundReport": "lemmas",
    "ZeroFunctionError": "errors",
    "bound_report": "bounds",
    "check_decreasing_bound": "lemmas",
    "check_one_crest_bound": "lemmas",
    "comb_example": "bounds",
    "comb_resonance": "bounds",
    "cosine_transform": "lemmas",
    "count_crests": "crests",
    "crest_lower_bound": "bounds",
    "decompose": "crests",
    "default_z_grid": "bounds",
    "distribution": "rearrange",
    "evaluate": "piecewise",
    "fourier": "transform",
    "fourier_weighted_norm": "hardy",
    "from_samples": "piecewise",
    "function_from_json_dict": "piecewise",
    "function_to_json_dict": "piecewise",
    "hardy_chain_report": "hardy",
    "hardy_lhs": "hardy",
    "integrate": "piecewise",
    "lorentz_lambda_norm": "rearrange",
    "make_step": "piecewise",
    "rearrangement": "rearrange",
    "run_suite": "verify",
    "sine_transform": "lemmas",
    "window_bounds": "lemmas",
}

__all__ = ["__version__", *_SOURCES]


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value  # later lookups do not come back here
    return value


def __dir__():
    return list(__all__)
