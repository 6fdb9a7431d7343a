"""Crest counting and minimal unimodal decompositions.

A function crests once when it is nondecreasing left of some point b and
nonincreasing right of it (monotone in the wider sense: plateaus are fine).
The crest count of a piecewise function is the least number of nonnegative
summands with almost disjoint supports, each cresting once, that add up to
it.

For the representations used here the count has a closed form: collapse the
sequence of segment end values into runs of equal values, with zero beyond
both ends; a valley is a run lower than both its neighbors, and the count is
one plus the number of valleys.  A step piece, whose two end values agree,
is one run, and a node shared by two linear segments counts once.  Plateaus
never create or terminate a valley.  :func:`decompose` cuts once per valley,
so its summands are exactly as many as the count.  The tests check the count
against an independent brute-force minimum over contiguous-cell partitions.
"""

from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .piecewise import PiecewiseFunction, require_nonzero

__all__ = [
    "CrestReport",
    "count_crests",
    "decompose",
]


class CrestReport(NamedTuple):
    """A witness decomposition achieving the minimal crest count."""

    count: int
    cut_points: tuple[float, ...]
    crest_locations: tuple[float, ...]
    pieces: tuple[PiecewiseFunction, ...]

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "cut_points": list(self.cut_points),
            "crest_locations": list(self.crest_locations),
        }


def _end_points(f: PiecewiseFunction):
    """Yield (x, y) for both ends of every segment, left to right."""
    for t0, t1, y0, y1 in f.segments():
        yield t0, y0
        yield t1, y1


def count_crests(f: PiecewiseFunction) -> int:
    """Minimal number of once-cresting summands for a nonzero input."""
    require_nonzero(f)
    return 1 + len(_cuts(f))


def decompose(f: PiecewiseFunction) -> CrestReport:
    """Cut f at one point per valley and report the resulting summands.

    Cuts sit at the midpoint of a zero-valued valley and at the leftmost
    minimizing point otherwise; each summand's crest location is its leftmost
    maximizer.  The summands restrict f to the cells between cuts, so they
    are nonnegative, sum to f, and overlap only at the cuts themselves.
    """
    require_nonzero(f)
    cuts = _cuts(f)
    pieces = _split(f, cuts)
    return CrestReport(
        count=len(pieces),
        cut_points=cuts,
        crest_locations=tuple(_leftmost_max(p) for p in pieces),
        pieces=pieces,
    )


def _cuts(f: PiecewiseFunction) -> tuple[float, ...]:
    """One cut per valley: a run of equal end values below both neighbors."""
    # collapse runs of equal segment end values, remembering where each starts and ends
    runs: list[tuple[float, float, float]] = []
    for x, y in _end_points(f):
        if runs and runs[-1][2] == y:
            runs[-1] = (runs[-1][0], x, y)
        else:
            runs.append((x, x, y))
    cuts = []
    for k, (x0, x1, v) in enumerate(runs):
        left = runs[k - 1][2] if k > 0 else 0.0
        right = runs[k + 1][2] if k < len(runs) - 1 else 0.0
        if left > v < right:
            cuts.append(0.5 * x0 + 0.5 * x1 if v == 0.0 else x0)  # halved first: no overflow
    return tuple(cuts)


def _split(f: PiecewiseFunction, cuts) -> tuple[PiecewiseFunction, ...]:
    """Restrict f to the cells between consecutive cuts.

    Each cut is bisected into ``f.edges``, so a cell reads only its own
    pieces: O(pieces + cuts log pieces).  A cut is an edge or lies inside a
    zero run, so a linear cell's end values are node values too, and a cell
    of either representation is built from its edges and ``_shift`` more
    values than segments.
    """
    edges = f.edges
    bounds = [edges[0], *cuts, edges[-1]]
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        i, j = bisect_right(edges, lo), bisect_left(edges, hi)
        out.append(type(f)((lo, *edges[i:j], hi), f._ys[i - 1 : j + f._shift]))
    return tuple(out)


def _leftmost_max(p: PiecewiseFunction) -> float:
    points = list(_end_points(p))
    best = max(y for _, y in points)
    return next(x for x, y in points if y == best)
