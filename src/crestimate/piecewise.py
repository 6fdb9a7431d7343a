"""Exact piecewise-constant and piecewise-linear functions on the line.

Both representations are lists of segments ``(t0, t1, y0, y1)``: the
function runs linearly from ``y0`` at ``t0`` to ``y1`` at ``t1``, and a step
piece is a segment with ``y0 == y1``.  A representation is four things: its
``_fields`` (the JSON field names, in order), its JSON type tag ``_kind``,
its ``_shift`` and its constructor's rules.  The constructor stores the
breakpoints or nodes as ``edges`` and the value tuple as ``_ys``, and
segment ``i`` runs from ``_ys[i]`` to ``_ys[i + _shift]``: ``_shift`` is 0
for a step function, whose pieces are flat, and 1 for a piecewise-linear
one, whose neighbouring segments share a node.  Everything else, from
``segments()`` and ``segment(i)`` to the JSON format, is written once
against that protocol; only the rearrangement algorithm still tells the two
apart.  Each function also keeps two tables, each a cached property built
on first use: ``fourier_table`` for :mod:`crestimate.transform`, and
``_integral_table``, the integral of each segment, which :func:`integrate`
reads.  A point inside a sloped segment is read by one function,
``_on_line``, for :func:`evaluate`, :func:`integrate` and the Lorentz norm.
The two representations share conventions:

* Half-open evaluation.  A step function takes ``values[i]`` on
  ``[breakpoints[i], breakpoints[i+1])`` and is zero outside
  ``[breakpoints[0], breakpoints[-1])``.  A piecewise-linear function
  interpolates its nodes for ``nodes[0] <= x < nodes[-1]`` and is zero
  outside; a nonzero boundary node value therefore denotes a jump at that
  endpoint (such functions arise as decreasing rearrangements, which live on
  ``[0, oo)`` and may start at a positive value).
* Everything is immutable, nonnegative and compactly supported, so every
  integral below is finite and computed in closed form per piece.  No
  quadrature is involved anywhere in this module.

Step functions are kept canonical: adjacent pieces with equal values are
merged and zero-valued leading/trailing pieces are trimmed (an identically
zero function keeps a single zero piece).  Canonical form makes equality
comparisons and structural monotonicity checks reliable.

The rules on input functions are one function each, raising ``ValidationError``:
``require_nonzero`` (as ``ZeroFunctionError``), ``require_halfline_support``,
``require_nonincreasing_on_halfline`` and ``require_weight`` (a nonzero step
function supported in [0, oo), for both weights ``u`` and ``v``).  The data
of every function, sampled or built, passes one check, ``_check_data``.
"""

import functools
import math
import operator
from bisect import bisect_left, bisect_right
from typing import Iterator, Sequence

from .errors import ValidationError, ZeroFunctionError, require_not_nan

__all__ = [
    "StepFunction",
    "PiecewiseLinearFunction",
    "PiecewiseFunction",
    "make_step",
    "evaluate",
    "integrate",
    "from_samples",
    "require_nonzero",
    "require_halfline_support",
    "require_nonincreasing_on_halfline",
    "require_weight",
    "function_to_json_dict",
    "function_from_json_dict",
    "samples_from_csv_text",
]


def _check_data(x_name: str, xs: Sequence[float], y_name: str, ys: Sequence[float]) -> None:
    """Reject xs unless finite and strictly increasing, ys unless finite and nonnegative."""
    if not all(map(math.isfinite, xs)):
        raise ValidationError(f"{x_name} must be finite")
    if any(map(operator.ge, xs, xs[1:])):
        raise ValidationError(f"{x_name} must be strictly increasing")
    if not all(map(math.isfinite, ys)):
        raise ValidationError(f"{y_name} must be finite")
    if any(y < 0.0 for y in ys):
        raise ValidationError(f"{y_name} must be nonnegative")


class _Segments:
    """What both representations share, read off ``edges`` and ``_ys``.

    A subclass declares ``_fields`` (its edge and value field names),
    ``_kind`` (its JSON type tag) and ``_shift``, and its constructor applies
    its own rules and then calls ``_store``.  Segment ``i`` runs from
    ``_ys[i]`` at ``edges[i]`` to ``_ys[i + _shift]`` at ``edges[i + 1]``.
    A function is an immutable value: equality, hash and repr read its two
    fields, and assigning or deleting any attribute raises.
    """

    _fields: tuple[str, ...]
    _kind: str
    _shift: int
    edges: tuple[float, ...]
    _ys: tuple[float, ...]

    def _store(self, edges: tuple[float, ...], ys: tuple[float, ...]) -> None:
        """Set the two fields, and ``edges`` and ``_ys`` to the same tuples."""
        edge_name, ys_name = self._fields
        object.__setattr__(self, edge_name, edges)
        object.__setattr__(self, ys_name, ys)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_ys", ys)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.edges == other.edges and self._ys == other._ys
        return NotImplemented

    def __hash__(self):
        return hash((self.edges, self._ys))

    def __repr__(self):
        edge_name, ys_name = self._fields
        return f"{type(self).__name__}({edge_name}={self.edges!r}, {ys_name}={self._ys!r})"

    def segments(self) -> Iterator[tuple[float, float, float, float]]:
        """Yield (left, right, left_value, right_value) for each segment."""
        edges, ys = self.edges, self._ys
        return zip(edges, edges[1:], ys, ys[self._shift :])

    def segment(self, i: int) -> tuple[float, float, float, float]:
        edges, ys = self.edges, self._ys
        return edges[i], edges[i + 1], ys[i], ys[i + self._shift]

    def __call__(self, x: float) -> float:
        return evaluate(self, x)

    @property
    def is_zero(self) -> bool:
        return not any(self._ys)

    @property
    def support_min(self) -> float:
        return self.edges[0]

    @property
    def support_max(self) -> float:
        return self.edges[-1]

    @functools.cached_property
    def total_integral(self) -> float:
        # summed apart from the table: only a read that covers a mass
        # beyond float range raises the fsum's OverflowError
        return math.fsum(self._integral_table[1])

    @functools.cached_property
    def _integral_table(self) -> tuple:
        """``(segments, terms)``: ``terms[i]`` is the integral of segment ``i``,
        the term :func:`integrate` adds for a segment its bounds cover whole;
        a flat one's is ``(t1 - t0) * y0``, as ``_segment_integral`` gives it."""
        segments = tuple(self.segments())
        terms = [
            (t1 - t0) * y0 if y0 == y1 else _segment_integral(t0, t1, y0, y1, t0, t1)
            for t0, t1, y0, y1 in segments
        ]
        return segments, terms

    @functools.cached_property
    def fourier_table(self) -> tuple:
        """The kernel of :func:`crestimate.transform.fourier` and its table, built once."""
        return transform._fourier_table(self)


class StepFunction(_Segments):
    """Nonnegative step function, canonical and zero outside its breakpoints."""

    _fields = ("breakpoints", "values")
    _kind = "step"
    _shift = 0
    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __init__(self, breakpoints: Sequence[float], values: Sequence[float]):
        bp = tuple(map(float, breakpoints))
        vals = tuple(map(float, values))
        if len(bp) != len(vals) + 1:
            raise ValidationError(
                "expected len(breakpoints) == len(values) + 1, got "
                f"{len(bp)} breakpoints for {len(vals)} values"
            )
        if not vals:
            raise ValidationError("a step function needs at least one piece")
        _check_data("breakpoints", bp, "values", vals)
        self._store(*_canonical_step(bp, vals))

    def pieces(self) -> Iterator[tuple[float, float, float]]:
        """Yield (left, right, value) for each piece."""
        bp = self.breakpoints
        return zip(bp, bp[1:], self.values)


def _canonical_step(bp, vals):
    # merge equal adjacent values
    new_bp = [bp[0]]
    new_vals = []
    for i, v in enumerate(vals):
        if new_vals and new_vals[-1] == v:
            new_bp[-1] = bp[i + 1]
            continue
        new_vals.append(v)
        new_bp.append(bp[i + 1])
    # trim zero-valued ends, but keep one piece for the zero function
    while len(new_vals) > 1 and new_vals[0] == 0.0:
        new_vals.pop(0)
        new_bp.pop(0)
    while len(new_vals) > 1 and new_vals[-1] == 0.0:
        new_vals.pop()
        new_bp.pop()
    return tuple(new_bp), tuple(new_vals)


class PiecewiseLinearFunction(_Segments):
    """Nonnegative piecewise-linear function, zero outside its node range.

    Node values at the boundary are usually zero, which makes the function
    continuous on the whole line; ingestion through :func:`from_samples`
    guarantees this.  A positive boundary value is permitted and represents a
    jump there (decreasing rearrangements need it).
    """

    _fields = ("nodes", "node_values")
    _kind = "linear"
    _shift = 1
    nodes: tuple[float, ...]
    node_values: tuple[float, ...]

    def __init__(self, nodes: Sequence[float], node_values: Sequence[float]):
        nd = tuple(map(float, nodes))
        vals = tuple(map(float, node_values))
        if len(nd) != len(vals):
            raise ValidationError(
                f"expected len(nodes) == len(node_values), got {len(nd)} != {len(vals)}"
            )
        if len(nd) < 2:
            raise ValidationError("a piecewise-linear function needs at least two nodes")
        _check_data("nodes", nd, "node_values", vals)
        self._store(nd, vals)


PiecewiseFunction = StepFunction | PiecewiseLinearFunction


make_step = StepFunction  # the canonical step function with the given pieces


def evaluate(f: PiecewiseFunction, x: float) -> float:
    """f(x) under the half-open convention; zero outside the support, nan rejected."""
    edges = f.edges
    if not edges[0] <= x < edges[-1]:  # nan lands here too
        require_not_nan("x", x)
        return 0.0
    t0, t1, y0, y1 = f.segment(bisect_right(edges, x) - 1)
    return y0 if y0 == y1 else _on_line(t0, t1, y0, y1, x)


def integrate(f: PiecewiseFunction, a: float, b: float) -> float:
    """Exact integral of f over [a, b], closed form per piece.

    If a > b the bounds are swapped and the result negated.  Infinite bounds
    are fine: the support is compact, so they clip to it; nan is rejected.
    Two bisects, at most two partial pieces and one fsum of table terms.
    A flat partial piece is ``(hi - lo) * y0`` inline, the value
    ``_segment_integral`` returns for it: a tail read on a step function
    runs no Python frame below this one.
    """
    if not a <= b:  # reversed bounds, or a nan
        require_not_nan("a", a)
        require_not_nan("b", b)
        return -integrate(f, b, a)
    segments, terms = f._integral_table
    edges, n = f.edges, len(terms)
    # the segments from i on start at or after a, those before j end at or
    # before b; a tail integral starts at edges[0] and skips a bisect
    i = bisect_left(edges, a) if a > edges[0] else 0
    j = bisect_right(edges, b) - 1
    if i == 0 and j == n:
        return f.total_integral
    if j < 0 or i > n:  # [a, b] misses the support
        return 0.0
    parts = terms[i:j]
    if i:  # segment i - 1 starts before a
        t0, t1, y0, y1 = segments[i - 1]
        hi = min(b, t1)
        if hi > a:
            parts.append((hi - a) * y0 if y0 == y1 else _segment_integral(t0, t1, y0, y1, a, hi))
    if i <= j < n:  # segment j starts at or after a and ends after b
        t0, t1, y0, y1 = segments[j]
        if b > t0:
            parts.append((b - t0) * y0 if y0 == y1 else _segment_integral(t0, t1, y0, y1, t0, b))
    return math.fsum(parts)


def _segment_integral(t0, t1, y0, y1, lo, hi) -> float:
    """Integral over [lo, hi] of the line through (t0, y0) and (t1, y1); an end
    at t0 or t1 takes the stored value, so a step piece gives ``(hi - lo) * y0``."""
    ylo = y0 if lo == t0 else _on_line(t0, t1, y0, y1, lo)
    yhi = y1 if hi == t1 else _on_line(t0, t1, y0, y1, hi)
    return (hi - lo) * _segment_mean(ylo, yhi)


def _on_line(t0, t1, y0, y1, x) -> float:
    """The line through (t0, y0) and (t1, y1) at x in [t0, t1]: ``y0 + (x - t0)
    / (t1 - t0) * (y1 - y0)``.  The fraction lies in [0, 1], so nothing
    overflows or underflows on a steep or tiny segment; where the width
    ``t1 - t0`` itself overflows, the fraction is taken on the halved ends."""
    w = t1 - t0
    if w == math.inf:
        return y0 + (0.5 * x - 0.5 * t0) / (0.5 * t1 - 0.5 * t0) * (y1 - y0)
    return y0 + (x - t0) / w * (y1 - y0)


def _segment_mean(y0: float, y1: float) -> float:
    """(y0 + y1) / 2 for y0, y1 >= 0, y0 if equal: halved first only where the sum overflows."""
    mean = (y0 + y1) * 0.5
    return mean if mean < math.inf else y0 * 0.5 + y1 * 0.5


def from_samples(
    xs: Sequence[float], ys: Sequence[float], mode: str = "left-step"
) -> PiecewiseFunction:
    """Turn sampled data into an exact representable function.

    ``left-step``: sample i becomes a box of height ys[i] whose width is the
    gap to the next sample; the final sample's box reuses the previous gap.
    ``linear``: nodes are interpolated; if an endpoint value is nonzero, one
    zero-valued padding node is appended there, offset by the median sample
    spacing, so the result is continuous on the line.

    Either way the returned function agrees with ys at every sample abscissa.
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys):
        raise ValidationError(f"expected len(xs) == len(ys), got {len(xs)} != {len(ys)}")
    if len(xs) < 2:
        raise ValidationError("need at least two samples")
    _check_data("xs", xs, "ys", ys)
    if mode == "left-step":
        last_gap = xs[-1] - xs[-2]
        return make_step(xs + [xs[-1] + last_gap], ys)
    if mode == "linear":
        # the median gap, as statistics.median takes it (mean of the middle two)
        gaps = sorted(b - a for a, b in zip(xs, xs[1:]))
        m = len(gaps) // 2
        pad = gaps[m] if len(gaps) % 2 else (gaps[m - 1] + gaps[m]) / 2
        nodes = list(xs)
        vals = list(ys)
        if vals[0] != 0.0:
            nodes.insert(0, nodes[0] - pad)
            vals.insert(0, 0.0)
        if vals[-1] != 0.0:
            nodes.append(nodes[-1] + pad)
            vals.append(0.0)
        return PiecewiseLinearFunction(tuple(nodes), tuple(vals))
    raise ValidationError(f"unknown sampling mode {mode!r} (use 'left-step' or 'linear')")


def require_nonzero(f: PiecewiseFunction, name: str = "the input") -> None:
    if f.is_zero:
        raise ZeroFunctionError(f"{name} must not be the zero function")


def require_halfline_support(f: PiecewiseFunction, name: str = "the input") -> None:
    if f.support_min < 0.0:
        raise ValidationError(
            f"{name} must be supported on [0, oo); support starts at {f.support_min}"
        )


def require_nonincreasing_on_halfline(f: PiecewiseFunction) -> None:
    """Reject f unless it is nonzero and nonincreasing on [0, oo) in the wider sense.

    The support must start exactly at 0 (else f rises from 0 somewhere on the
    positive axis) and the piece/node values must never increase.
    """
    require_nonzero(f)
    if f.support_min != 0.0:
        raise ValidationError(
            "a nonincreasing input on [0, oo) must have its support start at 0 "
            f"(support starts at {f.support_min})"
        )
    prev = math.inf
    for _, _, y0, y1 in f.segments():
        if not prev >= y0 >= y1:
            raise ValidationError("input values must be nonincreasing")
        prev = y1


def require_weight(w: PiecewiseFunction, name: str) -> None:
    """Reject a weight (``name`` is ``u`` or ``v``) unless it is a nonzero
    step function supported in [0, oo)."""
    if not isinstance(w, StepFunction):
        raise ValidationError(f"the weight {name} must be a step function")
    require_halfline_support(w, f"the weight {name}")
    require_nonzero(w, f"the weight {name}")


# ---------------------------------------------------------------------------
# interchange formats

def function_to_json_dict(f: PiecewiseFunction) -> dict:
    return {"type": f._kind, **{name: list(getattr(f, name)) for name in f._fields}}


_BY_KIND = {cls._kind: cls for cls in (StepFunction, PiecewiseLinearFunction)}


def function_from_json_dict(obj: object) -> PiecewiseFunction:
    if not isinstance(obj, dict):
        raise ValidationError("function JSON must be an object")
    if "type" not in obj:
        raise ValidationError("function JSON is missing field 'type'")
    kind = obj["type"]
    cls = _BY_KIND.get(kind) if isinstance(kind, str) else None  # a list or dict is unhashable
    if cls is None:
        raise ValidationError(f"unknown function type {kind!r} (use 'step' or 'linear')")
    for field in cls._fields:
        if field not in obj:
            raise ValidationError(f"{kind} function JSON is missing field '{field}'")
    return cls(*(_number_list(obj, field) for field in cls._fields))


def _number_list(obj: dict, field: str) -> list[float]:
    raw = obj[field]
    if not isinstance(raw, list):
        raise ValidationError(f"field '{field}' must be a list of numbers")
    out = []
    for item in raw:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ValidationError(f"field '{field}' must be a list of numbers")
        try:
            out.append(float(item))
        except OverflowError:
            raise ValidationError(f"field '{field}' holds a number beyond float range") from None
    return out


def samples_from_csv_text(text: str) -> tuple[list[float], list[float]]:
    """Parse the two-column x,y sample format; blank rows are skipped, and the
    first nonblank row may be a header.  An error names the line its row ends
    on, blank lines and a quoted field's newlines counted."""
    import csv  # loaded on first use: JSON inputs never need it
    import io

    xs: list[float] = []
    ys: list[float] = []
    reader = csv.reader(io.StringIO(text))
    first = 0  # the line of the first nonblank row, the only one that may be a header
    try:
        for row in reader:
            lineno = reader.line_num
            if not any(map(str.strip, row)):  # blank or whitespace-only
                continue
            first = first or lineno
            if len(row) != 2:
                raise ValidationError(f"CSV line {lineno}: expected two columns, got {len(row)}")
            try:
                x, y = float(row[0]), float(row[1])
            except ValueError:
                if lineno == first:
                    continue  # header
                raise ValidationError(f"CSV line {lineno}: could not parse numbers from {row!r}")
            xs.append(x)
            ys.append(y)
    except csv.Error as exc:  # a field past the size limit; a NUL byte before 3.11
        raise ValidationError(f"CSV line {reader.line_num}: {exc}") from None
    if not xs:
        raise ValidationError("CSV contained no samples")
    return xs, ys


# transform imports this module: importing a module, not a name, works either way round
from . import transform  # noqa: E402
