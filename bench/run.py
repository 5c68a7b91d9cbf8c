"""Stage benchmark of the darboux CLI.

Drives ``darboux.cli.main(argv)`` in-process as one closed-loop caller (one
process, no extra threads): each command starts when the previous one has
returned and passed its output gate.  A run repeats passes over the
workload's seeded command list for ``--seconds`` seconds.

    python3 bench/run.py --workload verify-ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 0    # one table row per workload

``--trace 0`` reports the end-to-end metrics, timed from outside each call.
``--trace 1`` also runs passes with every public function of the package
wrapped in a span, and reports the per-layer metrics derived from them.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "small_p50_s": "s",
    "large_p50_s": "s",
    "peak_rss_mib": "MiB",
}

# A fresh interpreter up to darboux.cli imported and its parser built.
COLD_START = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from darboux.cli import main; main(['--help'])"
)


def load_cli():
    """Import darboux.cli from this checkout's sources, never from elsewhere."""
    if not (SRC / "darboux" / "cli.py").is_file():
        raise SystemExit(f"bench: no darboux sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import darboux.cli

    if Path(darboux.cli.__file__).resolve().parent != SRC / "darboux":
        raise SystemExit(f"bench: darboux was imported from {darboux.cli.__file__}")
    return darboux.cli


def cold_start_seconds() -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", COLD_START, str(SRC)], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return perf_counter() - start


class Runner:
    """Runs passes over one command list and gates every output."""

    def __init__(self, cli, commands: list[workloads.Command], out_dir: Path):
        self.cli = cli
        self.commands = commands
        self.out_dir = out_dir
        self.attempted = 0
        self.errors: list[str] = []

    def run_pass(self, tracer: spans.Tracer | None = None) -> list[tuple]:
        """One pass; returns (rung, seconds, outcome) per command."""
        results = []
        for cmd in self.commands:
            if tracer is not None:
                tracer.command = self.attempted
            self.attempted += 1
            for stale in self.out_dir.iterdir():
                stale.unlink()
            stdout, stderr = io.StringIO(), io.StringIO()
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = self.cli.main(list(cmd.argv))
            except Exception as exc:  # a traceback is a failed command, not a dead run
                seconds = perf_counter() - start
                outcome = workloads.Outcome(f"raised {exc!r}", 0)
            else:
                seconds = perf_counter() - start
                outcome = workloads.check(cmd, code, stdout.getvalue(), self.out_dir)
            if outcome.error is not None:
                detail = stderr.getvalue().strip().splitlines()[-1:] or [""]
                self.errors.append(f"{' '.join(cmd.argv)}: {outcome.error} {detail[0]}")
            results.append((cmd.rung, seconds, outcome))
        return results


def more_passes(done: int, minimum: int, elapsed: float, last: float, seconds: float) -> bool:
    """Start another pass while at least half of it fits in the budget."""
    return done < minimum or elapsed + last / 2 < seconds


def run_passes(runner: Runner, seconds: float) -> list[list[tuple]]:
    passes = []
    start = perf_counter()
    while more_passes(len(passes), 1, perf_counter() - start,
                      pass_wall(passes[-1]) if passes else 0.0, seconds):
        passes.append(runner.run_pass())
    return passes


def pass_wall(results: list[tuple]) -> float:
    return sum(seconds for _, seconds, _ in results)


def end_to_end(passes: list[list[tuple]], setup: list[float]) -> tuple[dict, dict]:
    """Metric values and their sample counts."""
    by_rung = {0: [], 1: []}
    for results in passes:
        for rung, seconds, _ in results:
            by_rung[rung].append(seconds)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(pass_wall(r) for r in passes),
        "small_p50_s": statistics.median(by_rung[0]),
        "large_p50_s": statistics.median(by_rung[1]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = {"setup_s": len(setup), "wall_s": len(passes),
              "small_p50_s": len(by_rung[0]), "large_p50_s": len(by_rung[1])}
    return values, counts


def traced_metrics(runner: Runner, seconds: float,
                   tracer: spans.Tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over traced passes, pure counts checked.

    Traced and untraced passes alternate T U U T, so a machine that speeds up
    or slows down during the run shifts both sides alike.
    """
    per_pass: list[dict] = []
    untraced: list[float] = []
    start = last = perf_counter()
    while more_passes(len(per_pass) + len(untraced), 4, perf_counter() - start,
                      perf_counter() - last, seconds):
        last = perf_counter()
        if (len(per_pass) + len(untraced)) % 4 in (1, 2):
            untraced.append(pass_wall(runner.run_pass()))
            continue
        first_span, first_fact = len(tracer.spans), len(tracer.facts)
        with tracer:
            results = runner.run_pass(tracer)
        metrics = spans.layer_metrics(tracer.spans, first_span, tracer.facts[first_fact:])
        metrics["cli.output_bytes"] = sum(o.output_bytes for _, _, o in results)
        metrics["spectral.max_level_err"] = max(o.level_error for _, _, o in results)
        metrics["trace.wall_s"] = pass_wall(results)
        per_pass.append(metrics)
    problems = [
        f"{key} differs between traced passes: {[m[key] for m in per_pass]}"
        for key in spans.PURE_COUNTS
        if len({m[key] for m in per_pass}) != 1
    ]
    values = spans.median_metrics(per_pass)
    values["trace.overhead_s"] = (statistics.median(m["trace.wall_s"] for m in per_pass)
                                  - statistics.median(untraced))
    return values, problems


def run_workload(args) -> int:
    cli = load_cli()
    workload = workloads.WORKLOADS[args.workload]
    out_dir = OUT_DIR / f"{workload.name}-{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, workload.commands(args.seed, out_dir, tiny=args.tiny), out_dir)

    if args.trace:
        tracer = spans.Tracer()
        values, problems = traced_metrics(runner, args.seconds, tracer)
        tracer.write(OUT_DIR / f"spans-{workload.name}-{args.seed}.jsonl")
        units, counts = spans.METRIC_UNITS, {}
    else:
        setup = [cold_start_seconds() for _ in range(SETUP_SAMPLES)]
        values, counts = end_to_end(run_passes(runner, args.seconds), setup)
        units, problems = END_TO_END_UNITS, []

    for output in out_dir.iterdir():
        output.unlink()
    out_dir.rmdir()

    failed = len(runner.errors)
    for message in runner.errors + problems:
        print(f"bench: {message}", file=sys.stderr)
    summary = " ".join(
        f"{name}={values[name]:.6g} {units[name]}" + (f"(n={counts[name]})" if name in counts else "")
        for name in units
    )
    print(f"{workload.name} seed={args.seed} fail_ratio={failed}/{runner.attempted} {summary}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table row per workload."""
    names = list(END_TO_END_UNITS)
    print(f"{'workload':22}" + "".join(f"{n + ' [' + END_TO_END_UNITS[n] + ']':>20}" for n in names)
          + f"{'fail_ratio':>14}")
    status = 0
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0"] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload:22} failed: {proc.stderr.strip()}")
            status = 1
            continue
        result = json.loads(lines[-1])
        metrics = result["metrics"]
        print(f"{workload:22}" + "".join(f"{metrics[n]['value']:>20.6g}" for n in names)
              + f"{result['failed'] / result['attempted']:>14.3g}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one command per rung in a pass (smoke tests)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
