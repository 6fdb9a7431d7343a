"""Certified lower bounds on the number of local maxima of a nonnegative
function, computed from pointwise estimates of its Fourier transform.

The library works on exact piecewise representations (step and piecewise
linear): crest counting and decompositions, decreasing rearrangements, exact
closed-form transforms with independent quadrature oracles, the bound
|fhat(z)| <= N pi sqrt(10) integral_0^{1/z} f*, its contrapositive as a
crest/root certificate, and weighted running-integral estimates.
"""

from .bounds import (
    HALF_PI_SQRT_10,
    PI_SQRT_10,
    BoundCertificate,
    CombResonance,
    QReport,
    bound_report,
    check_decreasing_bound,
    check_one_crest_bound,
    comb_example,
    comb_resonance,
    crest_lower_bound,
    default_z_grid,
)
from .crests import CrestReport, brute_force_crests, count_crests, decompose
from .errors import ConvergenceError, CrestimateError, ValidationError, ZeroFunctionError
from .piecewise import (
    PiecewiseFunction,
    PiecewiseLinearFunction,
    StepFunction,
    evaluate,
    from_samples,
    function_from_json_dict,
    function_to_json_dict,
    integrate,
    make_step,
)
from .rearrange import (
    Rearrangement,
    distribution,
    lorentz_lambda_norm,
    rearrangement,
    rearrangement_integral,
)
from .transform import (
    WindowBoundReport,
    cosine_transform,
    fourier,
    fourier_quadrature_oracle,
    sine_transform,
    window_bounds,
)
from .verify import SuiteResult, run_suite

__version__ = "0.1.0"

# hardy (and the quadrature it uses) loads on first use of one of its names,
# so a scan does not pay for importing it
_HARDY_NAMES = frozenset(
    ("HardyReport", "fourier_weighted_norm", "hardy_chain_report", "hardy_lhs", "hardy_operator")
)


def __getattr__(name: str):
    if name in _HARDY_NAMES:
        from . import hardy

        return getattr(hardy, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "BoundCertificate",
    "CombResonance",
    "ConvergenceError",
    "CrestimateError",
    "CrestReport",
    "HALF_PI_SQRT_10",
    "HardyReport",
    "PI_SQRT_10",
    "PiecewiseFunction",
    "PiecewiseLinearFunction",
    "QReport",
    "Rearrangement",
    "StepFunction",
    "SuiteResult",
    "ValidationError",
    "WindowBoundReport",
    "ZeroFunctionError",
    "bound_report",
    "brute_force_crests",
    "check_decreasing_bound",
    "check_one_crest_bound",
    "comb_example",
    "comb_resonance",
    "cosine_transform",
    "count_crests",
    "crest_lower_bound",
    "decompose",
    "default_z_grid",
    "distribution",
    "evaluate",
    "fourier",
    "fourier_quadrature_oracle",
    "fourier_weighted_norm",
    "from_samples",
    "function_from_json_dict",
    "function_to_json_dict",
    "hardy_chain_report",
    "hardy_lhs",
    "hardy_operator",
    "integrate",
    "lorentz_lambda_norm",
    "make_step",
    "rearrangement",
    "rearrangement_integral",
    "run_suite",
    "sine_transform",
    "window_bounds",
]
