"""The scans' and the verification suites' stdout, byte for byte.

Each input is drawn here from a seeded ``random.Random``: a 1,024-piece step
function on the 1/32 lattice with values on the 1/1024 lattice, a 200-piece
nonincreasing step function on the same lattices, and a 1,601-sample train
of 25 sin^2 bumps.  Every number is a dyadic rational, so the JSON and CSV
texts carry them exactly.  Each digest is the sha256 of a command's stdout,
taken before the step and piecewise-linear lattice tables became one basis
table, each ``verify`` digest before the lemmas with the constant
(pi/2) sqrt(10) moved into one module, and each ``hardy`` digest (the
packaging smoke test's instance and the 200-piece input) before
``integrate`` read a per-function table in place of its loop over every
segment; a change to the rounding of any reported number moves it.
"""

import hashlib
import json
import math
import random

import pytest

from crestimate.cli import main

DIGESTS = {
    "analyze": "487cbfe1bdf15c1ad8837394e5a6e628763dd7d58b70875203a46f33ad9162e3",
    "bound-roots": "9cd0337a5f5595cadb9608528aaed649aaa07f30548659818611bd1fe47e5b59",
    "bound-roots-csv": "4bee8d2bda28e0da9d57d4704a57000b386ba933e2c2db950c010aaf2ef8eee5",
    "comb": "169c4ac06e7973444667ae1dd89595ac82e755293d9d4a132535a0786fcb18af",
    "hardy": "4e4bfa539c8be4fe036b237b608f17af76af488767e4668e8b9c15498767811d",
    "hardy-decreasing": "8e153fc84007c2d5685bcf7da3f1dd86520ae8f1b66f05ee74fb74b608b1d314",
    "verify-decreasing": "bf7091e0f49cf54049c0c4eb86be9e6ee74f73b88dff58ade806b31e3633c305",
    "verify-one-crest": "10f23a4ec493a32d5a20a8df6367e7b0931c9a2b0171822f2873725f143c3481",
    "verify-step": "eef5a8079f519fe39b56cc505de328e2e66b08eb8beba4aa6f32cbdd57708efb",
}


def _step_json(rng: random.Random, pieces: int = 1024) -> str:
    """Pieces 1 to 128 cells of 1/32 wide from a start in [-32, 32], values
    k / 1024 for k in 1..8192 with about a quarter zero gaps, and never two
    equal neighbours, so every piece survives canonical form."""
    values = []
    for i in range(pieces):
        prev = values[-1] if values else 0.0
        if 0 < i < pieces - 1 and prev and rng.random() < 0.25:
            values.append(0.0)
            continue
        v = prev
        while v == prev:
            v = rng.randint(1, 8192) / 1024
        values.append(v)
    breakpoints = [rng.randint(-1024, 1024) / 32]
    for _ in range(pieces):
        breakpoints.append(breakpoints[-1] + rng.randint(1, 128) / 32)
    return json.dumps({"type": "step", "breakpoints": breakpoints, "values": values})


def _decreasing_json(rng: random.Random, pieces: int = 200) -> str:
    """A nonincreasing step function from 0: pieces 1 to 128 cells of 1/32
    wide, values k / 1024 for distinct k in 1..8192, largest first."""
    values = sorted((k / 1024 for k in rng.sample(range(1, 8193), pieces)), reverse=True)
    breakpoints = [0.0]
    for _ in range(pieces):
        breakpoints.append(breakpoints[-1] + rng.randint(1, 128) / 32)
    return json.dumps({"type": "step", "breakpoints": breakpoints, "values": values})


def _bump_csv(rng: random.Random, bumps: int = 25, period: int = 64, width: int = 16) -> str:
    """Samples 1/1024 apart of sin^2 bumps ``width`` samples wide, one at a
    jittered offset in each period, amplitudes in [0.75, 1.25], values on the
    2^-20 lattice and zero between bumps and at both ends."""
    ys = [0.0] * (bumps * period + 1)
    for b in range(bumps):
        start = b * period + rng.randint(0, period - width - 1)
        amplitude = 0.75 + 0.5 * rng.random()
        for j in range(1, width):
            ys[start + j] = round(amplitude * math.sin(math.pi * j / width) ** 2 * 2**20) / 2**20
    return "x,y\n" + "".join(f"{k / 1024!r},{y!r}\n" for k, y in enumerate(ys))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("scan-inputs")
    step, samples = folder / "step.json", folder / "bumps.csv"
    step.write_text(_step_json(random.Random("scan-digests/step")), encoding="ascii")
    decreasing = folder / "decreasing.json"
    decreasing_text = _decreasing_json(random.Random("scan-digests/decreasing"))
    decreasing.write_text(decreasing_text, encoding="ascii")
    support = json.loads(decreasing_text)["breakpoints"][-1]
    u = json.dumps({"type": "step", "breakpoints": [0.001, 1, 5], "values": [1, 0.5]})
    v = json.dumps({"type": "step", "breakpoints": [0, support], "values": [1]})
    unit_box = '{"type":"step","breakpoints":[0,1],"values":[1]}'
    samples.write_text(_bump_csv(random.Random("scan-digests/bumps")), encoding="ascii")
    return {
        "analyze": ["analyze", str(step), "--refine-depth", "2"],
        "bound-roots": ["bound-roots", str(samples), "--csv-mode", "linear", "--refine-depth", "2"],
        "bound-roots-csv": [
            "bound-roots", str(samples), "--csv-mode", "linear", "--refine-depth", "2",
            "--format", "csv",
        ],
        "comb": ["comb", "2"],
        "hardy": [
            "hardy", '{"type":"step","breakpoints":[0,1,2],"values":[2,1]}', unit_box, unit_box,
            "--p", "2", "--q", "2",
        ],
        "hardy-decreasing": ["hardy", str(decreasing), u, v, "--p", "2", "--q", "2"],
        **{
            f"verify-{family}": ["verify", family, "--trials", "100", "--seed", "7"]
            for family in ("step", "decreasing", "one-crest")
        },
    }


@pytest.mark.parametrize("run", sorted(DIGESTS))
def test_scan_stdout_keeps_its_bytes(run, inputs, capsys):
    assert main(inputs[run]) == 0
    out, err = capsys.readouterr()
    assert not err
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[run]
