import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crestimate
from crestimate import (
    PiecewiseLinearFunction,
    bound_report,
    comb_example,
    comb_resonance,
    crest_lower_bound,
    decompose,
    default_z_grid,
    function_from_json_dict,
    function_to_json_dict,
    hardy_chain_report,
    make_step,
    rearrangement,
    window_bounds,
)
from crestimate import crests
from crestimate.cli import main
from crestimate.errors import ConvergenceError, ValidationError

BOX_JSON = '{"type":"step","breakpoints":[0,1],"values":[1]}'


def _reject_constant(token):
    raise AssertionError(f"{token} in a JSON report")


def run_cli(capsys, *argv):
    """Run the CLI; a successful JSON report on stdout must be strict JSON."""
    code = main(list(argv))
    captured = capsys.readouterr()
    if code == 0 and captured.out.startswith("{"):
        json.loads(captured.out, parse_constant=_reject_constant)
    return code, captured.out, captured.err


def test_analyze_inline_json(capsys):
    code, out, err = run_cli(capsys, "analyze", BOX_JSON, "--grid", "1:10:16:log")
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["crest_count"] == 1
    assert payload["certificate"]["crest_lower_bound"] == 1
    assert payload["certificate"]["best_q"] < 1.0


def test_analyze_file_and_out(tmp_path, capsys):
    src = tmp_path / "comb.json"
    src.write_text(
        json.dumps(
            {
                "type": "step",
                "breakpoints": list(range(10)),
                "values": [1 - k % 2 for k in range(9)],
            }
        )
    )
    dst = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", str(src), "--out", str(dst))
    assert code == 0 and out == ""
    payload = json.loads(dst.read_text())
    assert payload["crest_count"] == 5
    assert payload["certificate"]["crest_lower_bound"] == 2
    assert payload["certificate"]["root_lower_bound"] == 1
    assert payload["certificate"]["derived_root_bound"] == 3


def test_analyze_csv_format_output(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", BOX_JSON, "--grid", "1:10:5:log", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "z,abs_fhat,tail_integral,bound,q"
    assert len(lines) == 6


def test_analyze_csv_input(tmp_path, capsys):
    src = tmp_path / "samples.csv"
    src.write_text("x,y\n0,1\n1,0\n2,1\n")
    code, out, _ = run_cli(capsys, "analyze", str(src), "--grid", "1:10:4:log")
    assert code == 0
    assert json.loads(out)["crest_count"] == 2


def test_analyze_malformed_json(capsys):
    code, out, err = run_cli(capsys, "analyze", '{"type":"step","breakpoints":[0,1]}')
    assert code == 1
    assert "missing field 'values'" in err


def test_byte_order_mark_is_not_data(tmp_path, capsys):
    """A UTF-8 byte-order mark at the start of a file is skipped, not parsed."""
    for name, text in (("samples.csv", "0,1\n1,2\n2,0\n"), ("box.json", BOX_JSON)):
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        code, expected, _ = run_cli(capsys, "rearrange", str(plain))
        assert code == 0
        assert run_cli(capsys, "rearrange", str(marked)) == (0, expected, "")
    assert json.loads(expected) == json.loads(BOX_JSON)
    code, out, _ = run_cli(capsys, "rearrange", str(tmp_path / "bom-samples.csv"))
    assert json.loads(out)["values"] == [2.0, 1.0]


@pytest.mark.parametrize(
    "argv, spaced",
    [
        (("analyze", BOX_JSON, "--grid", "1:2:2:lin", "--extra-z", "2.5,4"), "2.5, ,4,"),
        (("comb", "1", "--z", "3.0,1.5"), " 3.0,,1.5 "),
    ],
)
def test_float_lists_skip_blank_tokens(capsys, argv, spaced):
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv[:-1], spaced) == (0, expected, "")


def test_analyze_zero_function(capsys):
    code, _, err = run_cli(
        capsys, "analyze", '{"type":"step","breakpoints":[0,1],"values":[0]}'
    )
    assert code == 1
    assert "zero function" in err


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "does-not-exist.json")
    assert code == 1
    assert "no such input file" in err


def test_inline_json_longer_than_a_file_name(tmp_path, capsys):
    spec = json.dumps(
        {"type": "step", "breakpoints": list(range(60)), "values": [1 + k % 3 for k in range(59)]}
    )
    assert len(spec) > 255  # NAME_MAX on common file systems
    src = tmp_path / "f.json"
    src.write_text(spec)
    grid = ("--grid", "1:10:8:log")
    code, inline, err = run_cli(capsys, "analyze", spec, *grid)
    assert code == 0 and not err
    code, from_file, _ = run_cli(capsys, "analyze", str(src), *grid)
    assert code == 0
    assert inline == from_file


HOT_BOX = '{"type":"step","breakpoints":[0,1],"values":[3]}'
HOT_WEIGHT = '{"type":"step","breakpoints":[0.5,2],"values":[3]}'
HUGE_INT_JSON = '{"type":"step","breakpoints":[0,1],"values":[1' + "0" * 400 + "]}"
# two boxes of height 1e308: their mass is beyond float range
MASS_OVERFLOW_JSON = '{"type":"step","breakpoints":[0,1,2,3],"values":[1e308,0,1e308]}'
# its lengths do not repeat, so fourier takes the segment loop; the comb's do
TWO_STEPS_JSON = '{"type":"step","breakpoints":[0,1,3],"values":[1,2]}'


@pytest.mark.parametrize(
    "argv, code, fragment",
    [
        (("analyze", "{dir}"), 1, "cannot read"),
        (("analyze", "{dir}/latin1.json"), 1, "codec can't decode"),
        (("analyze", "x" * 300), 1, "cannot read"),
        (("analyze", BOX_JSON, "--out", "{dir}/missing/report.json"), 1, "cannot write"),
        (("analyze", HUGE_INT_JSON), 1, "beyond float range"),
        (("hardy", HOT_BOX, HOT_WEIGHT, HOT_WEIGHT, "--p", "2000", "--q", "2"), 2, "overflow"),
        (("hardy", HOT_BOX, HOT_WEIGHT, HOT_WEIGHT, "--p", "2", "--q", "2000"), 2, "overflow"),
        (("analyze", MASS_OVERFLOW_JSON), 2, "overflow error"),
        (("analyze", TWO_STEPS_JSON, "--extra-z", "1e308"), 1, "too large"),
        (("comb", "1", "--z", "1e308"), 1, "too large"),
        (("analyze", '{"type": "step",'), 1, "malformed JSON: Expecting property name"),
        (("analyze", BOX_JSON, "--extra-z", "1.5,x2"), 1, "bad --extra-z value 'x2'"),
        (("comb", "1", "--z", "1.5,x2"), 1, "bad --z value 'x2'"),
    ],
    ids=[
        "directory",
        "not-utf8",
        "name-too-long",
        "out-dir-missing",
        "huge-int",
        "p-2000",
        "q-2000",
        "mass-overflow",
        "phase-overflow-edges",
        "phase-overflow-lattice",
        "json-syntax",
        "extra-z-not-a-number",
        "z-not-a-number",
    ],
)
def test_failures_exit_with_one_line(argv, code, fragment, tmp_path, capsys):
    (tmp_path / "latin1.json").write_bytes(b'{"type":"step","breakpoints":[0,1],"values":[1]}\xe9')
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    if argv[0] == "analyze":
        argv += ["--grid", "1:2:2:lin"]
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert fragment in err


def test_values_near_the_largest_float_give_finite_reports(tmp_path, capsys):
    """A box of height 1e308 on [0, 2^-7], and a linear profile that rises
    to 1e308 over 2^-7, have finite masses and transforms: both scans exit
    0 with strict JSON, and every tail integral on the grid is finite and
    positive."""
    box = '{"type":"step","breakpoints":[0,0.0078125],"values":[1e308]}'
    samples = tmp_path / "steep.csv"
    samples.write_text("0,0\n0.0078125,1e308\n0.015625,1e308\n0.0234375,0\n")
    for argv in (("analyze", box), ("bound-roots", str(samples), "--csv-mode", "linear")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and not err
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0 and not err
        for row in out.splitlines()[1:]:
            values = [float(x) for x in row.split(",")]
            assert all(map(math.isfinite, values)) and values[2] > 0.0, row


def test_extra_z_order_and_duplicates_do_not_matter(capsys):
    base = ("analyze", BOX_JSON, "--grid", "1:3:3:lin", "--format", "csv")
    code, shuffled, _ = run_cli(capsys, *base, "--extra-z", "4,2.5,1,2.5,0.5")
    assert code == 0
    _, ordered, _ = run_cli(capsys, *base, "--extra-z", "0.5,2.5,4")
    assert shuffled == ordered
    assert len(shuffled.strip().splitlines()) == 7  # header + 0.5, 1, 2, 2.5, 3, 4


def test_repeat_runs_give_identical_bytes(capsys, tmp_path):
    # a train of sin^2 bumps with zero gaps, sampled every 1/64
    ys = [math.sin(math.pi * k / 16) ** 2 if k % 32 < 16 else 0.0 for k in range(257)]
    trace = tmp_path / "trace.csv"
    trace.write_text("".join(f"{k / 64},{y}\n" for k, y in enumerate(ys)))
    step = '{"type":"step","breakpoints":[0,1,2,3,5],"values":[1,0,2,0.5]}'
    scan = ("--grid", "1:100:64:log", "--refine-depth", "2")
    for args in (
        ("analyze", step, *scan),
        ("bound-roots", str(trace), "--csv-mode", "linear", *scan),
    ):
        code, first, _ = run_cli(capsys, *args)
        assert code == 0 and first
        _, second, _ = run_cli(capsys, *args)
        assert first == second


def test_rearrange_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "rearrange", BOX_JSON.replace("[0,1]", "[2,3]"))
    assert code == 0
    star = function_from_json_dict(json.loads(out))
    assert star == make_step([0, 1], [1])

    tri = tmp_path / "tri.json"
    tri.write_text('{"type":"linear","nodes":[0,1,2],"node_values":[0,1,0]}')
    code, out, _ = run_cli(capsys, "rearrange", str(tri))
    assert code == 0
    star = function_from_json_dict(json.loads(out))
    assert star == PiecewiseLinearFunction((0.0, 2.0), (1.0, 0.0))
    expected = rearrangement(
        PiecewiseLinearFunction((0.0, 1.0, 2.0), (0.0, 1.0, 0.0))
    ).star
    assert star == expected


def test_comb_command_magnitudes(capsys):
    z_list = f"{math.pi},{2 * math.pi},{3 * math.pi}"
    code, out, _ = run_cli(capsys, "comb", "1", "--z", z_list)
    assert code == 0
    payload = json.loads(out)
    mags = [p["magnitude"] for p in payload["requested_points"]]
    assert math.isclose(mags[0], 10.0 / math.pi, rel_tol=1e-9)
    assert mags[1] < 1e-12
    assert math.isclose(mags[2], 10.0 / (3.0 * math.pi), rel_tol=1e-9)
    assert payload["crest_count"] == 5
    assert "vanishes" in payload["resonance"]["note"]


def test_comb_command_builds_the_comb_once(monkeypatch, capsys):
    calls = []

    def counting(n):
        calls.append(n)
        return comb_example(n)

    monkeypatch.setattr("crestimate.cli.comb_example", counting)
    monkeypatch.setattr("crestimate.bounds.comb_example", counting)
    code, _, _ = run_cli(capsys, "comb", "2", "--z", "3.0")
    assert code == 0
    assert calls == [2]


def test_comb_rejects_nonpositive_size(capsys):
    code, _, err = run_cli(capsys, "comb", "0")
    assert code == 1
    assert "positive integer" in err


def test_verify_command_deterministic(capsys):
    code, first, _ = run_cli(capsys, "verify", "one-crest", "--trials", "5", "--seed", "7")
    assert code == 0
    payload = json.loads(first)
    assert payload["violations_total"] == 0
    code, second, _ = run_cli(capsys, "verify", "one-crest", "--trials", "5", "--seed", "7")
    assert first == second


def test_verify_decreasing_reports_narrow_window(capsys):
    code, out, _ = run_cli(capsys, "verify", "decreasing", "--trials", "20", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["sine-window-narrow"]["violation_count"] > 0
    assert by_name["sine-window-narrow"]["expected_to_hold"] is False
    assert by_name["sine-window-wide"]["violation_count"] == 0
    assert by_name["cosine-window"]["violation_count"] == 0


def test_hardy_command(tmp_path, capsys):
    f = tmp_path / "f.json"
    u = tmp_path / "u.json"
    f.write_text(BOX_JSON)
    u.write_text(BOX_JSON)
    code, out, _ = run_cli(
        capsys, "hardy", str(f), str(u), str(u), "--p", "2", "--q", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fourier_weighted_norm"] <= payload["chain_constant"]
    assert abs(payload["hardy_middle"] - 1.0) < 1e-9


def test_hardy_exits_2_with_one_line_when_quadrature_runs_out_of_panels(capsys, monkeypatch):
    from crestimate import hardy

    monkeypatch.setattr(hardy, "_MAX_PANELS", 1)
    two_steps = '{"type":"step","breakpoints":[0,1,2],"values":[2,1]}'
    code, out, err = run_cli(capsys, "hardy", two_steps, BOX_JSON, BOX_JSON, "--p", "2", "--q", "2")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("convergence error: ")
    assert "budget of 1 panels" in err


def test_hardy_rejects_nondecreasing_input(capsys):
    rising = '{"type":"step","breakpoints":[0,1,2],"values":[1,2]}'
    code, _, err = run_cli(capsys, "hardy", rising, BOX_JSON, BOX_JSON, "--p", "2", "--q", "2")
    assert code == 1
    assert "nonincreasing" in err


def test_analyze_report_keys_do_not_depend_on_the_input(capsys):
    keys = []
    for spec in (COMB_2_JSON, BOX_JSON):
        code, out, _ = run_cli(capsys, "analyze", spec, "--grid", "1:10:4:log")
        assert code == 0
        keys.append(list(json.loads(out)))
    assert keys == [["input", "crest_count", "certificate"]] * 2


# weights v that the Lorentz side cannot use: zero, supported left of 0, and
# vanishing wherever f* = (2 on [0, 1), 1 on [1, 3)) is positive
HARDY_F = '{"type":"step","breakpoints":[0,1,3],"values":[2,1]}'
HARDY_U = '{"type":"step","breakpoints":[0.5,3],"values":[1]}'
BAD_V = {
    "zero": '{"type":"step","breakpoints":[0,1],"values":[0]}',
    "left-of-0": '{"type":"step","breakpoints":[-2,-1],"values":[1]}',
    "past-f-star": '{"type":"step","breakpoints":[5,6],"values":[1]}',
}


@pytest.mark.parametrize("v", BAD_V.values(), ids=BAD_V.keys())
def test_hardy_rejects_a_weight_v_the_lorentz_side_cannot_use(v, capsys):
    code, out, err = run_cli(capsys, "hardy", HARDY_F, HARDY_U, v, "--p", "2", "--q", "2")
    assert code == 1 and not out
    assert err.startswith("error:") and "the weight v" in err
    f, u, v = (function_from_json_dict(json.loads(spec)) for spec in (HARDY_F, HARDY_U, v))
    with pytest.raises(ValidationError, match="the weight v"):
        hardy_chain_report(f, u, v, 2.0, 2.0)


def test_hardy_rejects_bad_exponent(capsys):
    for bad_p in ("0", "nan"):
        code, _, err = run_cli(capsys, "hardy", BOX_JSON, BOX_JSON, BOX_JSON, "--p", bad_p, "--q", "2")
        assert code == 1
        assert "p must be positive" in err


def test_bound_roots_bump_train(tmp_path, capsys):
    delta = 1.0 / 4096.0
    nodes, vals = [], []
    for j in range(10):
        a = 2.0 * j
        nodes += [a, a + delta, a + 1.0 - delta, a + 1.0]
        vals += [0.0, 1.0, 1.0, 0.0]
    src = tmp_path / "train.json"
    src.write_text(json.dumps({"type": "linear", "nodes": nodes, "node_values": vals}))
    code, out, _ = run_cli(capsys, "bound-roots", str(src))
    assert code == 0
    payload = json.loads(out)
    assert payload["best_q"] > 2.0
    assert payload["root_lower_bound"] >= 3
    assert payload["derived_root_bound"] == 2 * payload["crest_lower_bound"] - 1


def test_bound_roots_triangle_has_no_certificate(capsys):
    tri = '{"type":"linear","nodes":[0,1,2],"node_values":[0,1,0]}'
    code, out, _ = run_cli(capsys, "bound-roots", tri, "--grid", "0.1:100:64:log")
    assert code == 0
    payload = json.loads(out)
    assert payload["root_lower_bound"] == 0
    assert "no nontrivial certificate" in payload["note"]


def test_bound_roots_report_is_the_certificate_without_its_grid(capsys):
    tri = '{"type":"linear","nodes":[0,1,2],"node_values":[0,1,0]}'
    code, out, _ = run_cli(capsys, "bound-roots", tri, "--grid", "0.1:100:64:log")
    assert code == 0
    f = function_from_json_dict(json.loads(tri))
    grid = default_z_grid(0.1, 100.0, 64, odd_pi_multiples=False)
    fields = crest_lower_bound(f, grid).to_json_dict()
    del fields["grid"]
    expected = {"input": function_to_json_dict(f), **fields, "note": json.loads(out)["note"]}
    assert out == json.dumps(expected, separators=(",", ":")) + "\n"


def test_bound_roots_csv_grid_holds_the_reported_best_q(tmp_path, capsys):
    # the JSON report leaves its grid out; the CSV format is that grid
    ys = [math.sin(math.pi * k / 16) ** 2 if k % 32 < 16 else 0.0 for k in range(257)]
    trace = tmp_path / "trace.csv"
    trace.write_text("".join(f"{k / 64},{y}\n" for k, y in enumerate(ys)))
    scan = ("bound-roots", str(trace), "--csv-mode", "linear", "--refine-depth", "2")
    code, out, _ = run_cli(capsys, *scan)
    assert code == 0
    report = json.loads(out)
    code, csv_out, err = run_cli(capsys, *scan, "--format", "csv")
    assert code == 0 and not err
    header, *lines = csv_out.splitlines()
    assert header == "z,abs_fhat,tail_integral,bound,q"
    rows = [[float(cell) for cell in line.split(",")] for line in lines]
    assert len(rows) > 64
    best = max(rows, key=lambda row: row[4])
    assert best[4] == report["best_q"] > 1.0
    assert best[0] == report["best_z"]


@pytest.mark.parametrize("kind", [[], {}, ["step"], {"type": "step"}])
def test_a_function_type_that_is_no_string_is_unknown(kind, capsys):
    function = {"type": kind, "breakpoints": [0, 1], "values": [1]}
    with pytest.raises(ValidationError, match="unknown function type"):
        function_from_json_dict(function)
    code, out, err = run_cli(capsys, "analyze", json.dumps(function))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "unknown function type" in err


def test_bound_roots_rejects_step_input(capsys):
    code, _, err = run_cli(capsys, "bound-roots", BOX_JSON)
    assert code == 1
    assert "piecewise-linear" in err


@pytest.mark.parametrize(
    "spec, fragment",
    [
        ("1:10:5", "min:max:count"),
        ("0:10:5:log", "0 < min < max"),
        ("1:10:0:log", "count"),
        ("1:10:5:cubic", "log"),
        ("a:10:5:log", "bad --grid"),
        ("1:inf:4:lin", "< inf"),
        ("nan:10:4:log", "< inf"),
        ("--extra-z inf", "not finite"),
    ],
)
def test_grid_spec_validation(capsys, spec, fragment):
    flags = spec.split() if spec.startswith("--") else ["--grid", spec]
    code, _, err = run_cli(capsys, "analyze", BOX_JSON, *flags)
    assert code == 1
    assert fragment in err


def test_extra_z_merges_into_grid(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze",
        BOX_JSON,
        "--grid", "1:2:2:lin",
        "--extra-z", f"{math.pi}",
        "--format", "csv",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 4  # header + 3 grid points


def test_unknown_subcommand_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "invalid choice" in err


def test_convergence_failure_exit_code(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ConvergenceError("synthetic non-convergence")

    monkeypatch.setattr("crestimate.cli.run_suite", boom)
    code, _, err = run_cli(capsys, "verify", "step", "--trials", "1")
    assert code == 2
    assert "synthetic non-convergence" in err


def test_report_keys_are_record_fields_in_order():
    box = make_step([0, 1], [1])
    records = (
        bound_report(box, 2.0),
        crest_lower_bound(box, [1.0, 2.0]),
        comb_resonance(1),
        hardy_chain_report(box, box, box, 2.0, 2.0),
    )
    for record in records:
        assert list(record.to_json_dict()) == list(record._fields)


def test_report_records_are_immutable_and_named_in_repr():
    box = make_step([0, 1], [1])
    records = (
        bound_report(box, 2.0),
        crest_lower_bound(box, [1.0, 2.0]),
        comb_resonance(1),
        decompose(box),
        hardy_chain_report(box, box, box, 2.0, 2.0),
        window_bounds(box, 2.0),
    )
    for record in records:
        first = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, first, 0)
        assert repr(record).startswith(f"{type(record).__name__}({first}=")


def _python(*args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on this checkout's package; it must succeed."""
    src = str(Path(crestimate.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_loads_only_what_a_scan_runs():
    # one process: the modules it holds before the import are those a bare
    # interpreter (and any site hook) already loaded, so they do not count
    script = (
        "import sys; before = set(sys.modules); import crestimate.cli; "
        "print(*sorted(set(sys.modules) - before)); "
        "import crestimate; crestimate.hardy_chain_report; print('crestimate.hardy' in sys.modules)"
    )
    loaded, hardy_on_first_use = _python("-c", script).stdout.splitlines()
    assert "crestimate.cli" in loaded.split()
    unwanted = {
        "dataclasses",
        "statistics",
        "inspect",
        "csv",
        "crestimate.generators",
        "crestimate.hardy",
        "crestimate.lemmas",
        "crestimate.quadrature",
        "crestimate.verify",
    }
    assert unwanted.isdisjoint(loaded.split()), loaded
    assert hardy_on_first_use == "True"


def _modules_loaded_by(*argv) -> set[str]:
    """Every module ``python -m crestimate argv`` imports beyond those a bare
    interpreter (and any site hook) imports, read off ``-X importtime``."""

    def imported(*args):
        lines = _python("-X", "importtime", *args).stderr.splitlines()
        return {line.rsplit("|", 1)[-1].strip() for line in lines if line.startswith("import time:")}

    return imported("-m", "crestimate", *argv) - imported("-c", "pass")


_NOT_IN_A_SCAN = {
    "crestimate.generators",
    "crestimate.hardy",
    "crestimate.lemmas",
    "crestimate.quadrature",
    "crestimate.verify",
}


def test_scan_subcommands_load_only_what_they_run(tmp_path):
    step = tmp_path / "step.json"
    step.write_text('{"type":"step","breakpoints":[0,1,2,3],"values":[1,0,2]}')
    loaded = _modules_loaded_by("analyze", str(step), "--grid", "1:10:8:log")
    assert "crestimate.bounds" in loaded
    assert loaded.isdisjoint(_NOT_IN_A_SCAN | {"csv", "_csv"}), loaded
    samples = tmp_path / "bump.csv"
    samples.write_text("x,y\n0,0\n1,1\n2,0\n3,2\n4,0\n")
    loaded = _modules_loaded_by("bound-roots", str(samples), "--csv-mode", "linear")
    assert {"crestimate.bounds", "csv"} <= loaded
    assert loaded.isdisjoint(_NOT_IN_A_SCAN), loaded


def test_hardy_loads_neither_the_scan_nor_the_crest_count():
    # hardy needs only the constant (pi/2) sqrt(10) of lemmas, not bounds
    script = "import sys; import crestimate.hardy; print(*sorted(sys.modules))"
    loaded = set(_python("-c", script).stdout.split())
    assert {"crestimate.hardy", "crestimate.lemmas", "crestimate.quadrature"} <= loaded
    assert loaded.isdisjoint({"crestimate.bounds", "crestimate.crests"}), loaded


def test_verify_loads_verify_on_first_use():
    loaded = _modules_loaded_by("verify", "step", "--trials", "1")
    assert {"crestimate.verify", "crestimate.generators"} <= loaded


def test_public_names_resolve_to_their_modules_objects():
    # a fresh process, so each name goes through the package's lazy lookup
    script = (
        "import importlib, crestimate; star = {}; exec('from crestimate import *', star); "
        "print(sorted(set(star) - {'__builtins__'}) == sorted(crestimate.__all__)); "
        "print(all(star[name] is getattr(importlib.import_module('crestimate.' + module), name) "
        "for name, module in crestimate._SOURCES.items())); "
        "print(dir(crestimate) == sorted(crestimate.__all__))"
    )
    assert _python("-c", script).stdout.split() == ["True", "True", "True"]
    assert crestimate.__all__[0] == "__version__"
    for name in crestimate.__all__[1:]:
        value = getattr(crestimate, name)
        home = getattr(value, "__module__", "")
        # a class or function is named after the module that defines it
        assert not home.startswith("crestimate") or home == f"crestimate.{crestimate._SOURCES[name]}"
    with pytest.raises(AttributeError, match="no attribute 'hardy_chain'"):
        crestimate.hardy_chain


COMB_2_JSON = json.dumps(function_to_json_dict(comb_example(2)))


@pytest.mark.parametrize(
    "command, crest_count", [("analyze", 2), ("comb", 10), ("analyze-comb", 10)]
)
def test_crests_counted_once_per_command(command, crest_count, tmp_path, monkeypatch, capsys):
    # the scan counts the crests; the report reads the count off its records,
    # and an input equal to a comb is analyzed like any other
    calls = []
    cuts = crests._cuts

    def counting(f):
        calls.append(f)
        return cuts(f)

    monkeypatch.setattr(crests, "_cuts", counting)
    src = tmp_path / "two-crests.json"
    src.write_text('{"type":"step","breakpoints":[0,1,2,3],"values":[1,0,2]}')
    argv = {
        "analyze": ["analyze", str(src)],
        "comb": ["comb", "2"],
        "analyze-comb": ["analyze", COMB_2_JSON],
    }[command]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["crest_count"] == crest_count
    assert len(calls) == 1
