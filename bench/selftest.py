#!/usr/bin/env python3
"""Self-test of the benchmark at tiny input sizes (about ten seconds).

    python3 bench/selftest.py

For every workload, in both modes, it runs ``run.py --size tiny`` and checks
that the result line is correct and carries exactly the metrics that
BENCHMARK.json names for that mode, each with its unit, plus a few counts
the span tree must show.  Last, it runs the benchmark in a directory that
holds only BENCHMARK.json and bench/, where it must fail without a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


def expect(condition: bool, what: str, failures: list[str]) -> None:
    if not condition:
        failures.append(what)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            tag = f"{workload} trace {trace}"
            proc = run(ROOT, workload, trace)
            if proc.returncode != 0:
                failures.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys {sorted(result)}", failures)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: not correct: {proc.stdout[-800:]}", failures)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace], f"{tag}: metrics/units {got} != {wanted[trace]}", failures)
            for name, metric in result["metrics"].items():
                expect(isinstance(metric["value"], (int, float)), f"{tag}: {name} not a number", failures)
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                check_layers(workload, m, tag, failures)

    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, "step-scan", 0)
        expect(proc.returncode != 0, "bare directory: exit code 0", failures)
        expect('"metrics"' not in proc.stdout, "bare directory: printed a result", failures)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


def check_layers(workload: str, m: dict, tag: str, failures: list[str]) -> None:
    """Counts every wrapped call site must produce on this commit."""
    expect(m["trace.overhead_frac"] > -1.0, f"{tag}: no overhead figure", failures)
    if workload == "verify-small":
        trials = m["generators.calls"]
        expect(trials > 0, f"{tag}: no generator spans", failures)
        expect(m["transform.fourier_calls"] == 50 * trials, f"{tag}: fourier spans", failures)
        expect(m["rearrange.tail_calls"] == 50 * trials, f"{tag}: tail spans", failures)
        expect(m["rearrange.star_calls"] == trials, f"{tag}: rearrangement spans", failures)
        expect(m["crests.calls"] == trials, f"{tag}: crest-count spans", failures)
        expect(m["verify.comparisons"] == 51 * trials, f"{tag}: comparisons", failures)
        return
    expect(m["transform.fourier_calls"] == m["bounds.q_evals"] > 0, f"{tag}: fourier spans", failures)
    expect(m["rearrange.tail_calls"] == m["bounds.q_evals"], f"{tag}: tail spans", failures)
    expect(m["bounds.refine_evals"] > 0, f"{tag}: no refinement seen", failures)
    expect(m["rearrange.star_calls"] == 1, f"{tag}: rearrangement spans", failures)
    expect(m["piecewise.pieces"] > 0, f"{tag}: no ingestion span", failures)
    if workload == "step-scan":
        expect(m["crests.calls"] == 2, f"{tag}: crest-count spans", failures)
        expect(m["transform.series_frac"] == 0.0, f"{tag}: series branch taken", failures)
    else:
        expect(m["piecewise.ingest_calls"] == 2, f"{tag}: CSV ingestion spans", failures)
        expect(m["transform.series_frac"] > 0.0, f"{tag}: series branch never taken", failures)


if __name__ == "__main__":
    sys.exit(main())
