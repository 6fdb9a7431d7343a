"""Pointwise transform bounds, the diagnostic ratio Q, and certificates.

For a nonnegative integrable f with crest count N the transform obeys

    |fhat(z)| <= N * pi * sqrt(10) * integral_0^{1/z} f*(x) dx      (z > 0),

so the ratio ``Q(z) = |fhat(z)| / (pi sqrt(10) integral_0^{1/z} f*)`` never
exceeds N.  Contrapositively, observing Q(z) > N at any z certifies that f
crests more than N times; that is what :func:`crest_lower_bound` turns into a
certificate, together with the derived count of roots of f' for smooth-like
inputs.

The constant ``pi*sqrt(10)`` is computed, never a hard-coded decimal, so any
slack observed in the verification suites is attributable to the mathematics
alone.  The lemmas behind it, with ``(pi/2)*sqrt(10)``, are in ``lemmas``.
"""

import math
import sys
from typing import NamedTuple

from .crests import count_crests
from .errors import ValidationError, require_positive, require_positive_int
from .piecewise import PiecewiseFunction, StepFunction, make_step
from .rearrange import rearrangement
from .transform import fourier

__all__ = [
    "PI_SQRT_10",
    "QReport",
    "BoundCertificate",
    "CombResonance",
    "bound_report",
    "comb_example",
    "comb_resonance",
    "certified_crests",
    "crest_lower_bound",
    "default_z_grid",
    "grid_csv_lines",
]

PI_SQRT_10 = math.pi * math.sqrt(10.0)

# Strict-threshold guard: Q must exceed an integer by more than this before
# the certificate counts an extra crest, so float noise can never do it.
CERTIFICATE_GUARD = 1e-9
# default_z_grid adds at most this many odd multiples of pi (159 by default)
_MAX_PI_MULTIPLES = 100_000


class QReport(NamedTuple):
    """One grid point: transform size against the rearrangement tail."""

    z: float
    transform_magnitude: float
    tail_integral: float
    bound: float
    q_value: float
    crest_count: int

    def to_json_dict(self) -> dict:
        return self._asdict()


class BoundCertificate(NamedTuple):
    """Certified lower bounds extracted from a grid of Q values.

    ``crest_lower_bound`` is floor(best_q - guard) + 1, at least 1 (a nonzero
    function crests at least once).  ``root_lower_bound`` is 2M - 1 for M the
    largest integer strictly exceeded by best_q, clamped at zero.  The
    stronger ``derived_root_bound`` = 2 * crest_lower_bound - 1 follows from
    the crest bound itself (k maxima of a smooth-like profile interleave with
    k - 1 minima, so f' crosses zero at least 2k - 1 times); it is reported
    separately, clearly labeled, and never substituted for
    ``root_lower_bound``.
    """

    best_z: float
    best_q: float
    crest_lower_bound: int
    root_lower_bound: int
    derived_root_bound: int
    grid: tuple[QReport, ...]

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "grid": [r.to_json_dict() for r in self.grid]}


def bound_report(f: PiecewiseFunction, z: float) -> QReport:
    """Evaluate the crest-count bound and the ratio Q at one z > 0 (a one-point scan)."""
    return crest_lower_bound(f, [z]).grid[0]


def comb_example(n: int) -> StepFunction:
    """5n unit boxes at even offsets: sum of boxes on [2j, 2j+1), j < 5n.

    The sharpness witness: it crests 5n times, its rearrangement is the
    single box on [0, 5n), and at z an odd multiple of pi its transform has
    magnitude 10n/z, so Q(z) = sqrt(10) n / pi (about 1.007 n).
    """
    require_positive_int("n", n)
    breakpoints = [float(k) for k in range(10 * n)]
    values = [1.0 if k % 2 == 0 else 0.0 for k in range(10 * n - 1)]
    return make_step(breakpoints, values)


class CombResonance(NamedTuple):
    """Q of a comb at one odd and one even multiple of pi.

    The transform of the comb vanishes identically at even multiples of pi;
    the stated peak magnitude 10n/z holds at odd multiples.  Both evaluations
    are recorded so reports make the distinction explicit.
    """

    size: int
    odd: QReport
    even: QReport
    peak_ratio_expected: float
    note: str = (
        "the transform of this comb vanishes at even multiples of pi; the peak "
        "ratio sqrt(10)*n/pi is attained at odd multiples z = (2l+1)*pi"
    )

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "odd": self.odd.to_json_dict(), "even": self.even.to_json_dict()}


def comb_resonance(n: int, l: int = 50, comb: StepFunction | None = None) -> CombResonance:
    """Q of ``comb_example(n)`` at ``(2l+1) pi`` and ``2l pi``.

    ``comb`` is that comb when the caller already holds it; it is built here
    otherwise.
    """
    require_positive_int("l", l)
    if 2 * l + 1 > sys.float_info.max / math.pi:  # exact int-float comparison
        raise ValidationError("l is too large: (2l+1)*pi is beyond float range")
    f = comb if comb is not None else comb_example(n)
    # the scan sorts and deduplicates its grid, so the even row comes first
    rows = crest_lower_bound(f, [(2 * l + 1) * math.pi, 2 * l * math.pi]).grid
    if len(rows) != 2:
        raise ValidationError("l is too large: 2l*pi and (2l+1)*pi are the same float")
    even, odd = rows
    return CombResonance(
        size=n, odd=odd, even=even, peak_ratio_expected=math.sqrt(10.0) * n / math.pi
    )


def default_z_grid(
    z_min: float = 1e-2, z_max: float = 1e3, count: int = 512, odd_pi_multiples: bool = True
) -> list[float]:
    """Log-spaced grid plus the odd multiples of pi (the comb resonances)."""
    if not 0.0 < z_min < z_max < math.inf:
        raise ValidationError("need 0 < z_min < z_max < inf")
    require_positive_int("count", count)
    if count == 1:
        zs = {z_min}
    else:
        lo, hi = math.log10(z_min), math.log10(z_max)
        zs = {10.0 ** (lo + (hi - lo) * i / (count - 1)) for i in range(count)}
    if odd_pi_multiples:
        # odd k from below z_min / pi on, counted before any multiple is built
        k = max(1, 2 * (math.floor(z_min / math.pi) // 2) - 1)
        multiples = (math.floor(z_max / math.pi) - k) // 2 + 1
        if multiples > _MAX_PI_MULTIPLES:
            raise ValidationError(
                f"z_max admits {multiples:.3g} odd multiples of pi, more than {_MAX_PI_MULTIPLES}"
            )
        while k * math.pi <= z_max:
            if k * math.pi >= z_min:
                zs.add(k * math.pi)
            k += 2
    return sorted(zs)


def certified_crests(best_q: float) -> int:
    """Crests certified by a best Q: floor(best_q - guard) + 1, at least 1."""
    return max(1, math.floor(best_q - CERTIFICATE_GUARD) + 1)


def crest_lower_bound(
    f: PiecewiseFunction, z_grid: list[float], refine_depth: int = 0
) -> BoundCertificate:
    """Scan Q over the grid and certify lower bounds on crests and roots.

    Each round of ``refine_depth`` evaluates 16 points between the
    neighbours of the running maximum, so refinement converges to a local
    maximum of Q near the best grid point, not to its supremum.  Reports
    are kept in ascending z order and ties break to the leftmost z.  This
    is the only place that evaluates Q.  A ``refine_depth`` of 0 or below
    means no refinement.
    """
    crests = count_crests(f)  # rejects the zero function
    if not z_grid:
        raise ValidationError("the z grid must not be empty")
    if refine_depth > 0:
        require_positive_int("refine_depth", refine_depth)
    star = rearrangement(f)

    def evaluate_grid(zs: list[float]) -> list[QReport]:
        reports = []
        for z in sorted(set(zs)):
            # also catches refinement brackets that round to 0 or overflow to inf
            require_positive("z", z)
            magnitude = abs(fourier(f, z))
            tail = star.integral_up_to(1.0 / z)
            scale = PI_SQRT_10 * tail
            bound = crests * scale
            if not 0.0 < bound < math.inf:  # a mass beyond float range, or a tail underflowed
                raise OverflowError(f"the bound at z = {z!r} is {bound!r}, not a positive float")
            if scale < sys.float_info.min:  # subnormal: rounded by up to 50%, Q reads high
                raise OverflowError(
                    f"Q's denominator at z = {z!r} is {scale!r}, not a normal float"
                )
            reports.append(QReport(z, magnitude, tail, bound, magnitude / scale, crests))
        return reports

    def best_index(reports: list[QReport]) -> int:
        # max keeps the first of equal keys, so ties go to the leftmost z
        return max(range(len(reports)), key=lambda k: reports[k].q_value)

    reports = evaluate_grid(list(z_grid))
    for _ in range(max(0, refine_depth)):
        i = best_index(reports)
        lo = reports[i - 1].z if i > 0 else reports[i].z * 0.5
        hi = reports[i + 1].z if i + 1 < len(reports) else reports[i].z * 2.0
        fresh = [lo + (hi - lo) * j / 17.0 for j in range(1, 17)]
        known = {r.z for r in reports}
        extra = evaluate_grid([z for z in fresh if z not in known])
        reports = sorted(reports + extra, key=lambda r: r.z)

    best = reports[best_index(reports)]
    lower = certified_crests(best.q_value)
    m = lower - 1
    return BoundCertificate(
        best_z=best.z,
        best_q=best.q_value,
        crest_lower_bound=lower,
        root_lower_bound=max(0, 2 * m - 1),
        derived_root_bound=2 * lower - 1,
        grid=tuple(reports),
    )


def grid_csv_lines(reports) -> list[str]:
    """Fixed CSV schema for plotting pipelines, 17 significant digits."""
    lines = ["z,abs_fhat,tail_integral,bound,q"]
    for r in reports:
        lines.append(
            f"{r.z:.17g},{r.transform_magnitude:.17g},{r.tail_integral:.17g},"
            f"{r.bound:.17g},{r.q_value:.17g}"
        )
    return lines
