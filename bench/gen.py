"""Seeded benchmark inputs, built from the standard library's ``random`` only.

The generators never import ``crestimate``: a change to the library cannot
change what the benchmark feeds it.  Breakpoints, sample positions and values
are dyadic rationals, so the inputs survive the JSON/CSV round trip bit for
bit and the exact reference in ``oracle.py`` sees the same numbers as the
program.
"""

import hashlib
import math
import random

X_SCALE = 32  # step breakpoints on the 1/32 grid
V_SCALE = 1024  # step values on the 1/1024 grid
SAMPLE_SPACING = 1.0 / 1024.0  # about 1e-3
Y_SCALE = 2**20  # linear sample values on the 2^-20 grid


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"bench/{workload}/{seed}")


def derived_seed(workload: str, seed: int) -> int:
    """Seed handed to the program itself (verify), derived from the workload seed."""
    digest = hashlib.sha256(f"bench/{workload}/{seed}/program".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def step_function(rng: random.Random, pieces: int) -> tuple[list[float], list[float]]:
    """Exactly ``pieces`` canonical pieces: about 20% isolated zero gaps and
    ties between non-adjacent pieces, but never two equal neighbours, so the
    program's canonical form keeps every piece and the work per seed is fixed.
    """
    values: list[float] = []
    for i in range(pieces):
        prev = values[-1] if values else 0.0
        roll = rng.random()
        if 0 < i < pieces - 1 and prev != 0.0 and roll < 0.25:
            values.append(0.0)
            continue
        recent = [v for v in values[-16:] if v != 0.0 and v != prev]
        if recent and roll < 0.45:
            values.append(rng.choice(recent))
            continue
        v = prev
        while v == prev:
            v = rng.randint(1, 8 * V_SCALE) / V_SCALE
        values.append(v)
    start = rng.randint(-1024, 1024) / X_SCALE
    breakpoints = [start]
    for _ in range(pieces):
        breakpoints.append(breakpoints[-1] + rng.randint(1, 128) / X_SCALE)
    return breakpoints, values


def bump_train(
    rng: random.Random, bumps: int, period: int, width: int
) -> tuple[list[float], list[float]]:
    """Samples of ``bumps`` sin^2 bumps ``width`` samples wide, one per ``period`` samples.

    Each bump starts at a jittered offset within its period and has a
    jittered amplitude; everything between bumps is exactly zero, as are the
    first and last samples.  The near-regular spacing is what makes the
    Fourier ratio Q exceed 1, so the root certificate is nontrivial.
    """
    count = bumps * period + 1
    ys = [0.0] * count
    for b in range(bumps):
        start = b * period + rng.randint(0, period - width - 1)
        amplitude = 1.0 + 0.5 * (rng.random() - 0.5)
        for j in range(1, width):
            y = amplitude * math.sin(math.pi * j / width) ** 2
            ys[start + j] = round(y * Y_SCALE) / Y_SCALE
    xs = [k * SAMPLE_SPACING for k in range(count)]
    return xs, ys


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
