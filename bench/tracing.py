"""Traced in-process pass: a span around every call into each crestimate layer.

The benchmark, not the library, places the spans: each public function is
wrapped at every module attribute it is called through (``bounds.fourier``,
``verify.fourier``, ...).  A wrapper on the defining module alone would miss
the calls made through names that other modules imported.  Spans live in
flat arrays in memory and are written once, at the end of the run.
"""

import contextlib
import gzip
import importlib
import io
import statistics
from array import array
from time import perf_counter_ns

import oracle

ROOT_SPAN = "cli.main"

# (owner, attribute, span name, what the layer metrics keep from the call)
SITES = (
    ("crestimate.bounds", "fourier", "transform.fourier", "args"),
    ("crestimate.verify", "fourier", "transform.fourier", "args"),
    ("crestimate.cli", "fourier", "transform.fourier", "args"),
    ("crestimate.bounds", "rearrangement", "rearrange.star", "result"),
    ("crestimate.verify", "rearrangement", "rearrange.star", "result"),
    ("crestimate.cli", "rearrangement", "rearrange.star", "result"),
    ("crestimate.rearrange:Rearrangement", "integral_up_to", "rearrange.tail", None),
    ("crestimate.bounds", "count_crests", "crests.count", None),
    ("crestimate.verify", "count_crests", "crests.count", None),
    ("crestimate.cli", "count_crests", "crests.count", None),
    ("crestimate.cli", "crest_lower_bound", "bounds.scan", None),
    ("crestimate.cli", "run_suite", "verify.suite", None),
    ("crestimate.verify", "random_step_function", "generators.draw", None),
    ("crestimate.cli", "function_from_json_dict", "piecewise.ingest", "result"),
    ("crestimate.cli", "samples_from_csv_text", "piecewise.ingest", None),
    ("crestimate.cli", "from_samples", "piecewise.ingest", "result"),
)
NAMES = (ROOT_SPAN, *dict.fromkeys(name for _, _, name, _ in SITES))

# Self time below zero by more than this means spans overlap wrongly.
_SELF_NS_SLACK = -1000
# The root span must cover at least this share of the traced wall time.
MIN_COVERAGE = 0.95


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans: name, start, end, parent span and request id."""

    def __init__(self):
        self.name = array("B")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.request = array("l")
        self.kept: dict[int, object] = {}
        self._stack: list[int] = []
        self._current = -1

    def wrap(self, fn, name: str, keep: str | None):
        name_id = NAMES.index(name)

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.request.append(self._current)
            self.start.append(0)
            self.end.append(0)
            self._stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self.start[idx] = t0
                self._stack.pop()
            if keep == "args":
                self.kept[idx] = args
            elif keep == "result":
                self.kept[idx] = result
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore it.

        A site the library no longer has is skipped, so a refactor that
        renames a binding shows up as a missing layer, not as a crash.
        """
        saved = []
        try:
            for owner_path, attr, name, keep in SITES:
                owner = _owner(owner_path)
                if hasattr(owner, attr):
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(original, name, keep))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def run(self, request_id: int, main, argv: list[str]) -> tuple[int, str, float, range]:
        """Call ``main(argv)`` under a root span; (exit code, stdout, wall s, span indices)."""
        self._current = request_id
        first = len(self.name)
        root = self.wrap(main, ROOT_SPAN, None)
        buf = io.StringIO()
        with self.installed(), contextlib.redirect_stdout(buf):
            t0 = perf_counter_ns()
            code = root(argv)
            wall = (perf_counter_ns() - t0) / 1e9
        return code, buf.getvalue(), wall, range(first, len(self.name))

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as out:
            out.write("request,span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.name)):
                out.write(
                    f"{self.request[i]},{i},{self.parent[i]},{NAMES[self.name[i]]},"
                    f"{self.start[i]},{self.end[i]}\n"
                )


def run_plain(main, argv: list[str]) -> tuple[int, str, float]:
    """The same call without spans: (exit code, stdout, wall s)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = perf_counter_ns()
        code = main(argv)
        wall = (perf_counter_ns() - t0) / 1e9
    return code, buf.getvalue(), wall


def layer_metrics(
    tracer: Tracer, spans: range, wall: float, to_json, comparisons: int
) -> tuple[dict, list[str]]:
    """Per-layer figures of one traced request, and any fault in its span tree.

    ``to_json`` is the library's interchange serializer; it turns the
    functions the transform received into segments, so piece counts and the
    series-branch share come from the inputs themselves.
    """
    total = dict.fromkeys(NAMES, 0)
    calls = dict.fromkeys(NAMES, 0)
    child = dict.fromkeys(spans, 0)
    for i in spans:
        dur = tracer.end[i] - tracer.start[i]
        name = NAMES[tracer.name[i]]
        total[name] += dur
        calls[name] += 1
        if tracer.parent[i] >= 0:
            child[tracer.parent[i]] += dur
    self_ns = dict.fromkeys(NAMES, 0)
    min_self = 0
    for i in spans:
        own = tracer.end[i] - tracer.start[i] - child[i]
        self_ns[NAMES[tracer.name[i]]] += own
        min_self = min(min_self, own)

    widths_of: dict[int, list[float]] = {}
    piece_evals = series = 0
    scan_zs: list[float] = []
    star_nodes = ingest_pieces = 0
    scan_id = NAMES.index("bounds.scan")
    for i in spans:
        if i not in tracer.kept:
            continue
        name = NAMES[tracer.name[i]]
        kept = tracer.kept[i]
        if name == "transform.fourier":
            f, z = kept[0], kept[1]
            if id(f) not in widths_of:
                widths_of[id(f)] = oracle.nonzero_widths(oracle.segments_from_json(to_json(f)))
            widths = widths_of[id(f)]
            piece_evals += len(widths)
            series += oracle.series_pairs(widths, z)
            parent = tracer.parent[i]
            if parent >= 0 and tracer.name[parent] == scan_id:
                scan_zs.append(z)
        elif name == "rearrange.star":
            star_nodes += len(oracle.segments_from_json(to_json(kept.star))) + 1
        elif name == "piecewise.ingest":
            ingest_pieces += len(oracle.segments_from_json(to_json(kept)))
    first_batch = next(
        (k for k in range(1, len(scan_zs)) if scan_zs[k] < scan_zs[k - 1]), len(scan_zs)
    )
    s = 1e-9  # seconds per nanosecond
    metrics = {
        "transform.fourier_s": total["transform.fourier"] * s,
        "transform.fourier_calls": calls["transform.fourier"],
        "transform.piece_evals": piece_evals,
        "transform.ns_per_piece_eval": total["transform.fourier"] / piece_evals if piece_evals else 0.0,
        "transform.series_frac": series / piece_evals if piece_evals else 0.0,
        "rearrange.tail_s": total["rearrange.tail"] * s,
        "rearrange.tail_calls": calls["rearrange.tail"],
        "rearrange.star_s": total["rearrange.star"] * s,
        "rearrange.star_calls": calls["rearrange.star"],
        "rearrange.star_nodes": star_nodes,
        "crests.count_s": total["crests.count"] * s,
        "crests.calls": calls["crests.count"],
        "piecewise.ingest_s": total["piecewise.ingest"] * s,
        "piecewise.ingest_calls": calls["piecewise.ingest"],
        "piecewise.pieces": ingest_pieces,
        "bounds.scan_s": total["bounds.scan"] * s,
        "bounds.self_s": self_ns["bounds.scan"] * s,
        "bounds.q_evals": len(scan_zs),
        "bounds.refine_evals": len(scan_zs) - first_batch,
        "verify.suite_s": total["verify.suite"] * s,
        "verify.self_s": self_ns["verify.suite"] * s,
        "verify.comparisons": comparisons,
        "generators.draw_s": total["generators.draw"] * s,
        "generators.calls": calls["generators.draw"],
        "cli.self_s": self_ns[ROOT_SPAN] * s,
        "trace.coverage_frac": sum(self_ns.values()) * s / wall,
    }
    problems = []
    if not MIN_COVERAGE <= metrics["trace.coverage_frac"] <= 1.0:
        problems.append(
            f"trace.coverage_frac {metrics['trace.coverage_frac']:.4f} outside "
            f"[{MIN_COVERAGE}, 1]: a span is missing or unclosed"
        )
    if min_self < _SELF_NS_SLACK:
        problems.append("a child span outlasts its parent: spans overlap")
    return metrics, problems


def median_metrics(per_request: list[dict]) -> dict:
    return {k: statistics.median(m[k] for m in per_request) for k in per_request[0]}
