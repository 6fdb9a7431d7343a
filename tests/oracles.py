"""References the tests compare the package against, kept out of it.

:func:`brute_force_crests` is the crest oracle for ``count_crests``: it
minimizes over every contiguous-cell partition at piece boundaries.  For
step functions cells at piece boundaries suffice, because a once-cresting
summand has an interval of positivity and a cell edge inside a constant
piece can always be slid to the piece boundary without breaking
unimodality of either neighbour.  :func:`rearrangement_integral` and
:func:`hardy_operator` are the running integrals of f* and of f, each a
rule check and one package call.
"""

from crestimate.errors import ValidationError, require_positive
from crestimate.piecewise import (
    PiecewiseFunction,
    StepFunction,
    integrate,
    require_halfline_support,
    require_nonzero,
)
from crestimate.rearrange import rearrangement


def _is_unimodal(values) -> bool:
    # nondecreasing then nonincreasing, as a function (zero outside the cell)
    falling = False
    prev = 0.0
    for v in [*values, 0.0]:
        if v > prev:
            if falling:
                return False
        elif v < prev:
            falling = True
        prev = v
    return True


def brute_force_crests(f: StepFunction, max_pieces: int = 10) -> int:
    """Exhaustive minimum over contiguous-cell partitions at piece boundaries.

    Ground truth for ``count_crests`` on small step functions; the
    combinatorial budget rejects inputs with more than ``max_pieces``
    canonical pieces.
    """
    if not isinstance(f, StepFunction):
        raise ValidationError("the brute-force oracle handles step functions only")
    require_nonzero(f)
    vals = f.values
    n = len(vals)
    if n > max_pieces:
        raise ValidationError(
            f"too many pieces for the brute-force oracle ({n} > {max_pieces})"
        )
    best = n  # each piece alone is unimodal, so n cells always work
    for mask in range(1 << (n - 1)):
        cells = []
        start = 0
        for j in range(n - 1):
            if mask >> j & 1:
                cells.append(vals[start : j + 1])
                start = j + 1
        cells.append(vals[start:])
        if len(cells) < best and all(_is_unimodal(c) for c in cells):
            best = len(cells)
    return best


def rearrangement_integral(f: PiecewiseFunction, t: float) -> float:
    """Exact integral of f* over [0, t] for t > 0 (t = inf gives the mass)."""
    require_positive("t", t, inf_ok=True)
    return rearrangement(f).integral_up_to(t)


def hardy_operator(f: PiecewiseFunction, z: float) -> float:
    """The running integral int_0^z f, exact, for z > 0 (z = inf gives the mass)."""
    require_positive("z", z, inf_ok=True)
    require_halfline_support(f)
    return integrate(f, 0.0, z)
