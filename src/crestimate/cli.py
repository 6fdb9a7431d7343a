"""Command-line front end.

Subcommands: analyze, comb, verify, hardy, rearrange, bound-roots.  Inputs
are function files in the JSON interchange format ({"type": "step", ...} or
{"type": "linear", ...}), two-column x,y CSV samples (mapped through
from_samples; for CSV the box width of a sample is the gap to the next
sample and the final sample reuses the previous gap), or inline JSON.

Reports are emitted as compact JSON (``python -m json.tool`` indents it),
or as CSV rows ``z,abs_fhat,tail_integral,bound,q`` with 17 significant
digits for plotting pipelines.  Identical configuration and seed produce
identical output bytes.

Exit codes: 0 success; 1 validation error (bad arguments, an unreadable,
undecodable or malformed input, a number beyond float range, an unwritable
``--out``); 2 numerical failure (quadrature did not converge, or arithmetic
overflowed).  Either failure prints one line to stderr.
"""

import argparse
import json
import math
import sys
from pathlib import Path

from .bounds import (
    BoundCertificate,
    comb_example,
    comb_resonance,
    crest_lower_bound,
    default_z_grid,
    grid_csv_lines,
)
from .errors import ConvergenceError, ValidationError, require_positive_int
from .piecewise import (
    PiecewiseLinearFunction,
    from_samples,
    function_from_json_dict,
    function_to_json_dict,
    samples_from_csv_text,
)
from .rearrange import rearrangement
from .transform import fourier

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors (exit 1), not argparse's exit 2
    def error(self, message):
        raise ValidationError(message)


def _load_function(spec: str, csv_mode: str):
    # inline JSON first: it may be longer than the longest file name
    if spec.lstrip().startswith("{"):
        return _function_from_json_text(spec)
    path = Path(spec)
    try:
        text = path.read_text(encoding="utf-8-sig")  # a byte-order mark is not data
    except (FileNotFoundError, NotADirectoryError):
        raise ValidationError(f"no such input file: {spec}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {spec}: {exc}") from exc
    if path.suffix.lower() == ".csv":
        xs, ys = samples_from_csv_text(text)
        return from_samples(xs, ys, mode=csv_mode)
    return _function_from_json_text(text)


def _function_from_json_text(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON: {exc}") from exc
    return function_from_json_dict(obj)


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 4:
        raise ValidationError("--grid expects min:max:count:log|lin")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"bad --grid value: {exc}") from exc
    if not 0.0 < lo < hi < math.inf:
        raise ValidationError("--grid needs 0 < min < max < inf")
    require_positive_int("--grid count", count)
    if parts[3] == "log":
        return default_z_grid(lo, hi, count, odd_pi_multiples=False)
    if parts[3] == "lin":
        return [lo + (hi - lo) * i / max(1, count - 1) for i in range(count)]
    raise ValidationError("--grid scale must be 'log' or 'lin'")


def _parse_float_list(spec: str, flag: str) -> list[float]:
    out = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError as exc:
            raise ValidationError(f"bad {flag} value {token!r}") from exc
        if not math.isfinite(value):
            raise ValidationError(f"bad {flag} value {token!r}: not finite")
        out.append(value)
    return out


def _grid_from_args(args) -> list[float]:
    grid = _parse_grid(args.grid) if args.grid else default_z_grid()
    if args.extra_z:
        grid += _parse_float_list(args.extra_z, "--extra-z")  # the scan sorts and deduplicates
    return grid


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if getattr(args, "out", None):
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    # compact: json's C encoder only runs without indent
    _emit(args, json.dumps(payload, separators=(",", ":")))


def _scan(args, f) -> BoundCertificate | None:
    """Q of f over the requested grid; in CSV format, emit its rows and return None."""
    certificate = crest_lower_bound(f, _grid_from_args(args), refine_depth=args.refine_depth)
    if args.format == "csv":
        _emit(args, "\n".join(grid_csv_lines(certificate.grid)))
        return None
    return certificate


def _cmd_analyze(args) -> int:
    f = _load_function(args.input, args.csv_mode)
    certificate = _scan(args, f)
    if certificate is not None:
        payload = {
            "input": function_to_json_dict(f),
            "crest_count": certificate.grid[0].crest_count,
            "certificate": certificate.to_json_dict(),
        }
        _emit_json(args, payload)
    return 0


def _cmd_comb(args) -> int:
    f = comb_example(args.n)
    resonance = comb_resonance(args.n, args.l, f)
    zs = _parse_float_list(args.z, "--z") if args.z else []
    payload = {
        "input": function_to_json_dict(f),
        "crest_count": resonance.odd.crest_count,
        "requested_points": [{"z": z, "magnitude": abs(fourier(f, z))} for z in zs],
        "resonance": resonance.to_json_dict(),
    }
    _emit_json(args, payload)
    return 0


def run_suite(family: str, trials: int, seed: int):
    """``verify.run_suite``, imported on the first call: no scan needs it."""
    from . import verify

    return verify.run_suite(family, trials, seed)


def _cmd_verify(args) -> int:
    result = run_suite(args.family, args.trials, args.seed)
    _emit_json(args, result.to_json_dict())
    return 0


def _cmd_hardy(args) -> int:
    from .hardy import hardy_chain_report  # loaded on first use: no scan needs it

    f, u, v = (_load_function(spec, args.csv_mode) for spec in (args.function, args.u, args.v))
    report = hardy_chain_report(f, u, v, args.p, args.q)  # checks every input once
    _emit_json(args, report.to_json_dict())
    return 0


def _cmd_rearrange(args) -> int:
    f = _load_function(args.input, args.csv_mode)
    star = rearrangement(f).star
    _emit_json(args, function_to_json_dict(star))
    return 0


def _cmd_bound_roots(args) -> int:
    f = _load_function(args.input, args.csv_mode)
    if not isinstance(f, PiecewiseLinearFunction):
        raise ValidationError(
            "root bounds need a piecewise-linear input (a smooth-like profile); "
            "step inputs have no pointwise derivative to count roots of -- "
            "resample with the linear CSV mode or supply a 'linear' JSON function"
        )
    certificate = _scan(args, f)
    if certificate is None:
        return 0
    fields = certificate._asdict()
    del fields["grid"]  # the report leaves the grid out: CSV format is the grid
    payload = {"input": function_to_json_dict(f), **fields}
    if certificate.root_lower_bound == 0:
        payload["note"] = "no nontrivial certificate (best Q never exceeded 1)"
    _emit_json(args, payload)
    return 0


def _add_io_arguments(sub, grid: bool = True):
    sub.add_argument(
        "--csv-mode",
        choices=("left-step", "linear"),
        default="left-step",
        help="how CSV samples become a function (default: left-step boxes)",
    )
    sub.add_argument("--out", help="write the report to this path instead of stdout")
    if grid:
        sub.add_argument(
            "--grid",
            help="z grid as min:max:count:log|lin "
            "(default: 1e-2:1e3:512:log plus the odd multiples of pi)",
        )
        sub.add_argument("--extra-z", help="comma-separated extra z values")
        sub.add_argument(
            "--refine-depth",
            type=int,
            default=0,
            help="rounds of local grid refinement around the best Q "
            "(converges to a local maximum of Q near the best grid point)",
        )
        sub.add_argument("--format", choices=("json", "csv"), default="json")


def _build_parser() -> _Parser:
    parser = _Parser(prog="crestimate", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser(
        "analyze", help="crest/root certificate for a function file or inline JSON"
    )
    analyze.add_argument("input", help="JSON/CSV path or inline JSON")
    _add_io_arguments(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    comb = commands.add_parser(
        "comb", help="the sharpness comb: 5n unit boxes at even offsets"
    )
    comb.add_argument("n", type=int, help="comb size parameter (5n crests)")
    comb.add_argument("--z", help="comma-separated z values to evaluate")
    comb.add_argument(
        "--l",
        type=int,
        default=50,
        help="resonance index: reports z=(2l+1)*pi and z=2l*pi (default 50)",
    )
    comb.add_argument("--out")
    comb.set_defaults(func=_cmd_comb)

    verify = commands.add_parser(
        "verify", help="randomized inequality suites with replayable violations"
    )
    verify.add_argument("family", choices=("step", "decreasing", "one-crest"))
    verify.add_argument("--trials", type=int, default=500)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out")
    verify.set_defaults(func=_cmd_verify)

    hardy = commands.add_parser(
        "hardy", help="weighted transform estimate for a nonincreasing input"
    )
    hardy.add_argument("function", help="nonincreasing function (JSON/CSV path or inline)")
    hardy.add_argument("u", help="step weight for the transform side")
    hardy.add_argument("v", help="step weight for the rearrangement side")
    hardy.add_argument("--p", type=float, required=True)
    hardy.add_argument("--q", type=float, required=True)
    _add_io_arguments(hardy, grid=False)
    hardy.set_defaults(func=_cmd_hardy)

    rearrange = commands.add_parser(
        "rearrange", help="emit the decreasing rearrangement in the JSON format"
    )
    rearrange.add_argument("input")
    _add_io_arguments(rearrange, grid=False)
    rearrange.set_defaults(func=_cmd_rearrange)

    bound_roots = commands.add_parser(
        "bound-roots",
        help="lower bound on the roots of f' for a piecewise-linear input "
        "(assumes the input stands in for a smooth profile whose critical "
        "points are nondegenerate)",
    )
    bound_roots.add_argument("input")
    _add_io_arguments(bound_roots)
    bound_roots.set_defaults(func=_cmd_bound_roots)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"overflow error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
