"""Workloads of the stage benchmark: selection pools, command lists, output gates.

Each workload is two rungs (a smaller and a larger problem size).  A rung runs
one CLI command over a pool of level selections.  Every selection in a pool
has the same Wronskian degree sum(k_i) - N(N-1)/2, so every seed does
comparable work; the seed only fixes the order in which a pass visits them.
The program receives nothing but the generated ``--levels`` strings and the
rung's fixed flags.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

NMAX = 8  # the CLI default, used by the verify and transform rungs
GRID_POINTS = 2401  # the reference grid, used by every command

# `spectrum` fails its gate when any level misses its integer energy by more
# than this.  At nmax 16 the worst error on the reference grid is 8.5e-4.
SPECTRUM_TOLERANCE = 2e-3


def krein_ok(levels: tuple[int, ...]) -> bool:
    """Krein sign criterion by a plain integer scan over 0..max(levels)."""
    for k in range(max(levels) + 1):
        sign = 1
        for level in levels:
            sign *= k - level
        if sign < 0:
            return False
    return True


def wronskian_degree(levels: tuple[int, ...]) -> int:
    n = len(levels)
    return sum(levels) - n * (n - 1) // 2


def selection_pool(order: int, degree: int, top: int | None = None,
                   below: int | None = None) -> list[tuple[int, ...]]:
    """Every admissible selection of one order and Wronskian degree.

    ``top`` fixes the highest level (so every member needs the same Hermite
    degrees); ``below`` fixes how many levels are <= NMAX (so every member
    leaves the same number of surviving levels to verify or sample).
    """
    total = degree + order * (order - 1) // 2
    if top is None:
        candidates = itertools.combinations(range(total + 1), order)
    else:
        candidates = (c + (top,) for c in itertools.combinations(range(top), order - 1))
    return [
        levels for levels in candidates
        if wronskian_degree(levels) == degree
        and (below is None or sum(1 for k in levels if k <= NMAX) == below)
        and krein_ok(levels)
    ]


@dataclass(frozen=True)
class Rung:
    command: str
    nmax: int
    pool: tuple[tuple[int, ...], ...]
    per_pass: int  # commands in one pass; a multiple of the pool size


@dataclass(frozen=True)
class Command:
    rung: int
    levels: tuple[int, ...]
    nmax: int
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    rungs: tuple[Rung, Rung]  # the smaller problem size first

    def commands(self, seed: int, out_dir: Path, tiny: bool = False) -> list[Command]:
        """One pass: each rung's ``per_pass`` commands, in a seeded order.

        Every pass of a run repeats this list, so per-pass counts repeat.
        ``tiny`` keeps one seeded selection per rung, for smoke tests.
        """
        rng = random.Random(seed)
        out: list[Command] = []
        for index, rung in enumerate(self.rungs):
            pool = list(rung.pool)
            rng.shuffle(pool)
            picks = pool[:1] if tiny else pool * (rung.per_pass // len(pool))
            out.extend(Command(index, levels, rung.nmax, _argv(rung, levels, out_dir))
                       for levels in picks)
        rng.shuffle(out)
        return out


def _argv(rung: Rung, levels: tuple[int, ...], out_dir: Path) -> tuple[str, ...]:
    argv = [rung.command, "--levels", ",".join(map(str, levels)), "--nmax", str(rung.nmax)]
    if rung.command == "transform":
        argv += ["--out", str(out_dir / "transform")]
    elif rung.command == "spectrum":
        argv += ["--out", str(out_dir / "spectrum.json")]
    return tuple(argv)


ORDER2 = tuple(selection_pool(2, 2))  # (1,2)
ORDER4 = tuple(selection_pool(4, 8))  # (0,1,6,7) (1,2,5,6) (2,3,4,5)
ORDER6 = tuple(selection_pool(6, 24, top=11, below=4))
ORDER8 = tuple(selection_pool(8, 32, top=12, below=4))
# Order-2 selections are juxtaposed pairs, one per degree, so this pool takes
# two degrees; the exact layer is under 1% of a spectrum run either way.
PAIRS = tuple(selection_pool(2, 2) + selection_pool(2, 4))  # (1,2) (2,3)

# Why each workload and pool was chosen: bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-ladder", (
            Rung("verify", NMAX, ORDER2, 6),
            Rung("verify", NMAX, ORDER4, 3),
        )),
        Workload("transform-high-order", (
            Rung("transform", NMAX, ORDER6, 3),
            Rung("transform", NMAX, ORDER8, 3),
        )),
        Workload("spectrum-grid", (
            Rung("spectrum", 8, PAIRS, 4),
            Rung("spectrum", 16, PAIRS, 2),
        )),
    )
}


# -- output gates ---------------------------------------------------------------
#
# A gate returns None when the command's output is correct, else the reason.

# SHA-256 of the JSON that `transform` writes, frozen from the exact layer as
# it stood when the benchmark was introduced.  A rewrite of the exact layer
# must keep every one of these bit-identical.
TRANSFORM_DIGESTS = {
    (1, 2, 7, 8, 10, 11):
        "4b0c62ae6fe354d28c67add0412dfd2c91a509ad87b8649423b6ce279ae5e6a9",
    (2, 3, 6, 7, 10, 11):
        "d0352a71a3fe6abc5c630550396b048a9ba4e10022687b57bc0dadef54da725a",
    (3, 4, 5, 6, 10, 11):
        "204b6cb7d039afcfca11a727f4d381ca10dcd834cc37afb8e6fdc39dca6b41d4",
    (1, 2, 7, 8, 9, 10, 11, 12):
        "f2a007218c5534b8892c01be011ad4b187206d0e0e4a5e1e159f6db97b3140c7",
    (2, 3, 6, 7, 9, 10, 11, 12):
        "b4967a6b072391190932ee1dd50aa5941997fcf5141b73895b50c8a230d142b5",
    (3, 4, 5, 6, 9, 10, 11, 12):
        "50e19807da01cbccbd3639ccf8bb5ea639e40ea66af52731e504817da110c7c8",
}


@dataclass(frozen=True)
class Outcome:
    error: str | None
    output_bytes: int
    level_error: float = 0.0  # worst |E_numeric - n| of a spectrum run


def check(cmd: Command, code: int, stdout: str, out_dir: Path) -> Outcome:
    size = len(stdout.encode())
    if code != 0:
        return Outcome(f"exit code {code}", size)
    try:
        if cmd.argv[0] == "verify":
            return Outcome(_check_verify(cmd, stdout), size)
        if cmd.argv[0] == "transform":
            json_bytes = (out_dir / "transform.json").read_bytes()
            csv_text = (out_dir / "transform.csv").read_text(encoding="utf-8")
            error = _check_transform(cmd, stdout, json_bytes, csv_text)
            return Outcome(error, size + len(json_bytes) + len(csv_text.encode()))
        report_bytes = (out_dir / "spectrum.json").read_bytes()
        error, worst = _check_spectrum(cmd, json.loads(report_bytes))
        return Outcome(error, size + len(report_bytes), worst)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome(f"unreadable output: {exc!r}", size)


def _check_verify(cmd: Command, stdout: str) -> str | None:
    report = json.loads(stdout)
    if tuple(report["levels"]) != cmd.levels or not report["checks"]:
        return "report does not match the request"
    failing = [c["name"] for c in report["checks"] if c["status"] != "pass"]
    return f"checks failed: {failing}" if failing else None


def _check_transform(cmd: Command, stdout: str, json_bytes: bytes, csv_text: str) -> str | None:
    digest = hashlib.sha256(json_bytes).hexdigest()
    if digest != TRANSFORM_DIGESTS.get(cmd.levels):
        return f"JSON digest {digest} differs from the frozen one"
    if stdout.encode() != json_bytes:
        return "stdout differs from the written JSON"
    lines = csv_text.splitlines()
    survivors = [n for n in range(cmd.nmax + 1) if n not in cmd.levels]
    header = ",".join(["x", "V0", "VN"] + [f"psi_{n}" for n in survivors])
    if lines[0] != header or len(lines) != GRID_POINTS + 1:
        return "CSV shape differs from the request"
    if not all(math.isfinite(float(v)) for line in lines[1:] for v in line.split(",")):
        return "CSV holds a non-finite value"
    return None


def _check_spectrum(cmd: Command, report: dict) -> tuple[str | None, float]:
    rows = report["rows"]
    deleted = tuple(r["level"] for r in rows if r["hN"] == "deleted")
    errors = [r["h0_err"] for r in rows] + [r["hN_err"] for r in rows if r["hN"] != "deleted"]
    worst = max(errors)
    if [r["level"] for r in rows] != list(range(cmd.nmax + 1)) or deleted != cmd.levels:
        return "deleted rows differ from the selection", worst
    if worst != report["max_error"] or not worst <= SPECTRUM_TOLERANCE:
        return f"level error {worst!r} exceeds {SPECTRUM_TOLERANCE}", worst
    return None, worst
