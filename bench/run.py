#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the crestimate CLI.

    python3 bench/run.py --workload step-scan --seed 1 --seconds 25 --trace 0

The tree measured is the one this file sits in: its ``src/`` is put on the
child's PYTHONPATH, and there is no installed copy to fall back on.

``--trace 0`` runs a closed loop with one client and one request in flight:
each request is a fresh ``python -m crestimate ...`` process on the
workload's input, timed from spawn to exit, with the child's CPU time and
peak RSS read from ``os.wait4``.  It prints the end-to-end metrics.

``--trace 1`` calls ``crestimate.cli.main`` in-process on the same input,
alternately plain and with a span around every call into each layer (see
``tracing.py``), and prints the per-layer metrics.

Every output is checked against references independent of the library
(``oracle.py``).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  BENCHMARK.json at the repository
root lists the workloads, metrics, units and regression bounds; README.md
next to this file says which end-to-end metric each layer metric moves.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

# Requests last about a second, so a run holds dozens of them and its fastest
# request is steady (see README.md); "tiny" is for the self-test.
SIZES = {
    "default": {"pieces": 1024, "bumps": 25, "period": 64, "width": 16, "trials": 1000},
    "tiny": {"pieces": 64, "bumps": 20, "period": 16, "width": 8, "trials": 20},
}
WORKLOADS = ("step-scan", "linear-roots", "verify-small")
MIN_REQUESTS = 3
REQUEST_TIMEOUT_S = 120.0
Z_PER_FUNCTION = 50  # z values per random function in `verify`

END_TO_END_UNITS = {
    "request_s_min": "s",
    "cpu_s_min": "s",
    "evals_per_s_max": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "transform.fourier_s": "s",
    "transform.fourier_calls": "count",
    "transform.piece_evals": "count",
    "transform.ns_per_piece_eval": "ns",
    "transform.series_frac": "frac",
    "rearrange.tail_s": "s",
    "rearrange.tail_calls": "count",
    "rearrange.star_s": "s",
    "rearrange.star_calls": "count",
    "rearrange.star_nodes": "count",
    "crests.count_s": "s",
    "crests.calls": "count",
    "piecewise.ingest_s": "s",
    "piecewise.ingest_calls": "count",
    "piecewise.pieces": "count",
    "bounds.scan_s": "s",
    "bounds.self_s": "s",
    "bounds.q_evals": "count",
    "bounds.refine_evals": "count",
    "verify.suite_s": "s",
    "verify.self_s": "s",
    "verify.comparisons": "count",
    "generators.draw_s": "s",
    "generators.calls": "count",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}


class SetupError(Exception):
    """The tree cannot be measured: no result is printed."""


@dataclass
class Input:
    workload: str
    args: list[str]  # CLI arguments after `python -m crestimate`
    provenance: dict
    function: dict | None = None  # interchange JSON of what the program ingests
    trials: int = 0
    # bound-roots' JSON report omits the grid; its CSV format is that grid
    grid_rows: int = 0
    grid_best_q: float | None = None


@dataclass
class Outcome:
    """Checked output of one request."""

    evals: int = 0
    problems: list[str] = field(default_factory=list)


# --- inputs -----------------------------------------------------------------

def build_input(workload: str, seed: int, size: dict) -> Input:
    """Write the seeded input file and return what the checks need to know."""
    rng = gen.rng_for(workload, seed)
    inputs = OUT / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "step-scan":
        breakpoints, values = gen.step_function(rng, size["pieces"])
        function = {"type": "step", "breakpoints": breakpoints, "values": values}
        text = json.dumps(function)
        path = inputs / f"step-scan-{seed}.json"
        args = ["analyze", str(path), "--refine-depth", "2"]
        extent = {"pieces": len(values)}
    elif workload == "linear-roots":
        xs, ys = gen.bump_train(rng, size["bumps"], size["period"], size["width"])
        # zero end samples: the linear CSV mode adds no padding nodes
        function = {"type": "linear", "nodes": xs, "node_values": ys}
        text = "x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs, ys))
        path = inputs / f"linear-roots-{seed}.csv"
        args = ["bound-roots", str(path), "--csv-mode", "linear", "--refine-depth", "2"]
        extent = {"samples": len(xs)}
    else:
        trials = size["trials"]
        args = ["verify", "step", "--trials", str(trials), "--seed", str(gen.derived_seed(workload, seed))]
        provenance = {"sha256": gen.sha256_hex(" ".join(args)), "trials": trials}
        return Input(workload, args, provenance, trials=trials)
    path.write_text(text, encoding="ascii")
    provenance = {"file": str(path.relative_to(ROOT)), "sha256": gen.sha256_hex(text), **extent}
    return Input(workload, args, provenance, function=function)


# --- output checks ----------------------------------------------------------

def check_output(inp: Input, code: int, stdout: str) -> Outcome:
    """Check one report against the benchmark's own references."""
    out = Outcome()
    if code != 0:
        out.problems.append(f"exit code {code}")
        return out
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        out.problems.append(f"report is not JSON: {exc}")
        return out
    try:
        if inp.workload == "verify-small":
            _check_verify(inp, report, out)
        else:
            _check_certificate(inp, report, out)
    except (KeyError, TypeError, ValueError) as exc:
        out.problems.append(f"report lacks an expected field: {exc!r}")
    return out


def _check_verify(inp: Input, report: dict, out: Outcome) -> None:
    checks = report["checks"]
    for c in checks:
        if c["expected_to_hold"] and c["violation_count"] != 0:
            out.problems.append(f"{c['name']}: {c['violation_count']} violations")
    bound = [c for c in checks if c["name"] == "crest-count-bound"]
    if not bound or bound[0]["comparisons"] != Z_PER_FUNCTION * inp.trials:
        out.problems.append(f"crest-count-bound must make {Z_PER_FUNCTION} x {inp.trials} comparisons")
    if report["trials"] != inp.trials or str(report["seed"]) != inp.args[-1]:
        out.problems.append("report names other trials or seed than requested")
    out.evals = sum(c["comparisons"] for c in checks)


def _check_certificate(inp: Input, report: dict, out: Outcome) -> None:
    own_crests = oracle.crest_count(oracle.profile_from_json(inp.function))
    if inp.workload == "step-scan":
        cert = report["certificate"]
        if report["crest_count"] != own_crests:
            out.problems.append(f"crest_count {report['crest_count']} != valley count {own_crests}")
        out.evals = len(cert["grid"])
    else:
        cert = report
        out.evals = inp.grid_rows
        if cert["best_q"] <= 1.0:
            out.problems.append(f"best_q {cert['best_q']} <= 1: the workload lost its certificate")
        if inp.grid_best_q is not None and inp.grid_best_q != cert["best_q"]:
            out.problems.append(f"CSV grid best q {inp.grid_best_q!r} differs from best_q")
    if cert["crest_lower_bound"] > own_crests:
        out.problems.append(f"crest_lower_bound {cert['crest_lower_bound']} > valley count {own_crests}")
    q_ref, tol = oracle.q_reference(oracle.segments_from_json(inp.function), cert["best_z"])
    if not abs(cert["best_q"] - q_ref) <= tol:
        out.problems.append(f"best_q {cert['best_q']!r} vs reference {q_ref!r} (tolerance {tol:.3g})")


# --- subprocess requests ----------------------------------------------------

@dataclass
class Sample:
    wall: float
    cpu: float
    maxrss_kb: int
    code: int
    stdout: str


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def spawn(argv: list[str], env: dict) -> Sample:
    """One child process, timed from spawn to exit; rusage from os.wait4."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            stdout, wall = b"", REQUEST_TIMEOUT_S
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace")[-2000:])
    return Sample(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        code=proc.returncode,
        stdout=stdout.decode(),
    )


def child_env() -> tuple[dict, list[str]]:
    """The caller's environment without CRESTIMATE_*, with PYTHONPATH at src/."""
    scrubbed = sorted(k for k in os.environ if k.startswith("CRESTIMATE_"))
    env = {k: v for k, v in os.environ.items() if k not in scrubbed}
    env["PYTHONPATH"] = str(SRC)
    return env, scrubbed


def _probe_grid(inp: Input, env: dict) -> None:
    """Read the grid of a bound-roots request from its CSV format, untimed."""
    sample = spawn([sys.executable, "-m", "crestimate", *inp.args, "--format", "csv"], env)
    rows = [line.split(",") for line in sample.stdout.splitlines()[1:]]
    if sample.code != 0 or not rows:
        raise SetupError(f"CSV grid request exited {sample.code}")
    inp.grid_rows = len(rows)
    inp.grid_best_q = max(float(r[4]) for r in rows)


def measure(inp: Input, seconds: float) -> tuple[dict, list[Outcome], dict]:
    env, scrubbed = child_env()
    probe = spawn([sys.executable, "-c", "import crestimate; print(crestimate.__file__)"], env)
    resolved = probe.stdout.strip()
    if probe.code != 0 or not Path(resolved).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"crestimate does not resolve under {SRC}: {resolved or 'import failed'}")
    start = time.perf_counter()  # the grid probe counts against the run's time
    if inp.workload == "linear-roots":
        _probe_grid(inp, env)

    # One import-only process before each request, so set-up time is sampled
    # across the run like the requests are.
    setup: list[Sample] = []
    samples: list[Sample] = []
    argv = [sys.executable, "-m", "crestimate", *inp.args]
    while len(samples) < MIN_REQUESTS or (
        time.perf_counter() - start + setup[-1].wall + samples[-1].wall <= seconds
    ):
        setup.append(spawn([sys.executable, "-c", "import crestimate.cli"], env))
        if setup[-1].code != 0:
            raise SetupError("importing crestimate.cli failed")
        samples.append(spawn(argv, env))
        if samples[-1].code != 0:
            break
    outcomes = check_repeats([(s.code, s.stdout) for s in samples], inp)

    # The fastest request of a run, not the median: on a shared machine the
    # CPU slows by up to 1.7x for seconds to minutes at a time, which moves a
    # run's median between runs far more than its fastest request (README.md).
    walls = [s.wall for s in samples]
    cpus = [s.cpu for s in samples]
    rates = [o.evals / s.wall for o, s in zip(outcomes, samples)]
    metrics = {
        "request_s_min": min(walls),
        "cpu_s_min": min(cpus),
        "evals_per_s_max": max(rates),
        "setup_s": statistics.median(s.wall for s in setup),
        "peak_rss_mb": statistics.median(s.maxrss_kb for s in samples) / 1024.0,
    }
    medians = {
        "request_s_p50": statistics.median(walls),
        "cpu_s_p50": statistics.median(cpus),
        "evals_per_s_p50": statistics.median(rates),
    }
    env_info = {
        "crestimate_file": resolved,
        "scrubbed_env": scrubbed,
        "child_env_has_crestimate_vars": any(k.startswith("CRESTIMATE_") for k in env),
        "requests": len(samples),
        "setup_samples": len(setup),
        "medians": medians,
        "request_walls_s": walls,
        "setup_walls_s": [s.wall for s in setup],
    }
    return metrics, outcomes, env_info


def check_repeats(results: list[tuple[int, str]], inp: Input) -> list[Outcome]:
    """Check the first output fully; every repeat must match it byte for byte."""
    first = check_output(inp, *results[0])
    outcomes = [first]
    for code, stdout in results[1:]:
        out = Outcome(first.evals)
        if code != 0:
            out.problems.append(f"exit code {code}")
        elif stdout != results[0][1]:
            out.problems.append("stdout differs from the first request on the same input")
        outcomes.append(out)
    return outcomes


# --- traced pass ------------------------------------------------------------

def measure_traced(inp: Input, seconds: float) -> tuple[dict, list[Outcome], dict]:
    _, scrubbed = child_env()
    for k in scrubbed:
        del os.environ[k]
    sys.path.insert(0, str(SRC))
    import crestimate
    import crestimate.cli
    import tracing

    if not Path(crestimate.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"crestimate does not resolve under {SRC}: {crestimate.__file__}")

    plain_walls, traced_walls, results, per_request = [], [], [], []
    problems: list[str] = []
    start = time.perf_counter()
    while not traced_walls or (
        time.perf_counter() - start + plain_walls[-1] + traced_walls[-1] <= seconds
    ):
        # one tracer per request bounds memory; the last one's spans are written
        tracer = tracing.Tracer()
        # alternate which goes first, so warm-up from the other does not bias
        # trace.overhead_frac
        plain_first = len(traced_walls) % 2 == 0
        if plain_first:
            plain = tracing.run_plain(crestimate.cli.main, inp.args)
        code, traced_out, wall, spans = tracer.run(len(traced_walls), crestimate.cli.main, inp.args)
        if not plain_first:
            plain = tracing.run_plain(crestimate.cli.main, inp.args)
        plain_walls.append(plain[2])
        traced_walls.append(wall)
        results += [plain[:2], (code, traced_out)]
        comparisons = 0
        if inp.workload == "verify-small":
            comparisons = check_output(inp, code, traced_out).evals
        metrics, span_problems = tracing.layer_metrics(
            tracer, spans, wall, crestimate.function_to_json_dict, comparisons
        )
        tracer.kept.clear()
        metrics["cli.out_bytes"] = len(traced_out.encode())
        per_request.append(metrics)
        problems += span_problems
    tracer.write(OUT / f"spans-{inp.workload}-{inp.provenance['sha256'][:12]}.csv.gz")

    outcomes = check_repeats(results, inp)
    metrics = tracing.median_metrics(per_request)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    )
    series = metrics["transform.series_frac"]
    if inp.workload == "step-scan" and series != 0.0:
        problems.append(f"transform.series_frac {series} must be 0 on step-scan")
    if inp.workload == "linear-roots" and not series > 0.0:
        problems.append("transform.series_frac must be > 0 on linear-roots")
    outcomes[0].problems += problems
    env_info = {
        "crestimate_file": crestimate.__file__,
        "scrubbed_env": scrubbed,
        "child_env_has_crestimate_vars": any(k.startswith("CRESTIMATE_") for k in os.environ),
        "requests": len(traced_walls),
        "plain_walls_s": plain_walls,
        "traced_walls_s": traced_walls,
    }
    return metrics, outcomes, env_info


# --- reporting --------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "tree": str(ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="default",
                        help="input sizes; 'tiny' is for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "crestimate" / "cli.py").is_file():
        print(f"error: no crestimate package under {SRC}; nothing to measure", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        inp = build_input(args.workload, args.seed, SIZES[args.size])
        if args.trace:
            metrics, outcomes, env_info = measure_traced(inp, args.seconds)
            units = PER_LAYER_UNITS
        else:
            metrics, outcomes, env_info = measure(inp, args.seconds)
            units = END_TO_END_UNITS
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = sum(1 for o in outcomes if o.problems)
    correct = failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "load": "closed loop, 1 client, 1 request in flight",
        "environment": {**environment(), **env_info},
        "input": {"args": inp.args, **inp.provenance},
        "problems": sorted({p for o in outcomes for p in o.problems}),
        "metrics": metrics,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2)
    )

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: input sha256 "
          f"{inp.provenance['sha256'][:16]} {json.dumps(inp.provenance)}")
    print(f"# python {record['environment']['python']}, nproc {record['environment']['nproc']}, "
          f"commit {record['environment']['git_commit']}, crestimate from "
          f"{env_info['crestimate_file']}, CRESTIMATE_* scrubbed: {env_info['scrubbed_env'] or 'none set'}")
    n = len(outcomes)
    for name, value in metrics.items():
        count = env_info["setup_samples"] if name == "setup_s" else env_info["requests"]
        how = "best" if name.endswith(("_min", "_max")) else "median"
        print(f"{name:28s} {value:.6g} {units[name]}  ({how} of {count})")
    for name, value in env_info.get("medians", {}).items():
        unit = units[name.replace("_p50", "_max" if name.startswith("evals") else "_min")]
        print(f"{name:28s} {value:.6g} {unit}  (median of {env_info['requests']}; not gated)")
    print(f"{'failed_frac':28s} {failed / n:.6g} frac  ({failed} of {n} requests)")
    for problem in record["problems"]:
        print(f"# FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
