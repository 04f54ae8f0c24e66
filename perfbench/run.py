"""grainforge benchmark: one workload per process, driven through the CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-rice --seed 1 --seconds 25 --trace 0

The process pins BLAS and OpenMP to one thread before numpy loads, starts
no other thread or process, and calls ``grainforge.cli.main(argv)``
in-process as one closed-loop client: each command is issued after the
previous one returned.  One set-up is a fresh import of grainforge, inputs
generated from the seed, ``ingest``, weights files and a warm-up forward
pass.  It comes first; rounds of the workload's commands then run for
``--seconds``, and for at least two rounds.  An untraced run repeats the
set-up in a scratch directory after every command and reports the median
of all set-ups as ``setup_s``.  Every command is checked after it returns,
outside its timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced rounds and reports per-layer metrics per traced round,
plus the tracing overhead as the ratio of median round times.  The last
stdout line is the result object; the line before it carries the
environment fingerprint and the per-command samples.  Results and span
dumps are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 2  # a traced run needs one traced and one untraced round
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def parse_args(argv=None) -> argparse.Namespace:
    with open(ROOT / "BENCHMARK.json") as fh:
        workload_names = [w["name"] for w in json.load(fh)["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Runner:
    """Issues CLI commands, times them and keeps the operation tally."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, command, tracer=None, cmd_id=0) -> float:
        out, err = io.StringIO(), io.StringIO()
        scope = tracer.command(cmd_id) if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            with scope:
                code = self.cli.main(command.argv)
            seconds = time.perf_counter() - start
        self.attempted += 1
        try:
            if code != 0:
                raise AssertionError(f"exit code {code}: {err.getvalue().strip()[-300:]}")
            lines = out.getvalue().splitlines()
            if lines != command.expect_stdout:
                raise AssertionError(f"stdout {lines} != {command.expect_stdout}")
            command.check()
        except Exception as exc:  # noqa: BLE001 - every failure counts against the run
            self.failed += 1
            self.failures.append(f"{command.argv[0]}: {type(exc).__name__}: {exc}")
        return seconds


def _grainforge_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "grainforge" or n.startswith("grainforge.")}


def timed_import() -> float:
    """Seconds to import grainforge afresh (numpy stays loaded).

    The modules loaded before the call are put back afterwards, so the
    running CLI and the wrappers of the traced run keep seeing one copy.
    """
    loaded = _grainforge_modules()
    for name in loaded:
        del sys.modules[name]
    start = time.perf_counter()
    for name in ("grainforge.cli", "grainforge.synthetic"):
        importlib.import_module(name)
    seconds = time.perf_counter() - start
    for name in _grainforge_modules():
        del sys.modules[name]
    sys.modules.update(loaded)
    return seconds


def fingerprint(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        **{k: os.environ[k] for k in PINNED_THREADS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "grainforge" / "cli.py").is_file():
        print(f"perfbench: no grainforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    from grainforge import cli

    import layers
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    runner = Runner(cli)
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer = Tracer()
    setup_times: list[float] = []

    def set_up():
        """One timed set-up in a fresh directory, starting with a fresh import."""
        seconds = timed_import()
        start = time.perf_counter()
        prepared, setup_commands = workload.setup(work / f"setup{len(setup_times)}", args.seed)
        for command in setup_commands:
            runner.run(command)
        setup_times.append(seconds + time.perf_counter() - start)
        return prepared

    try:
        prepared = set_up()
        workload.prepare(prepared, args.seed)

        rounds = []  # (traced, seconds, {kind: [seconds]})
        walls = []
        deadline = time.perf_counter() + args.seconds
        # a round starts only if a median-length round still ends by the deadline
        while len(rounds) < MIN_ROUNDS or time.perf_counter() + statistics.median(walls) <= deadline:
            round_start = time.perf_counter()
            traced = bool(args.trace) and len(rounds) % 2 == 0
            if traced:
                layers.install(tracer)
            samples: dict[str, list[float]] = {}
            try:
                for command in workload.round(prepared, args.seed):
                    seconds = runner.run(command, tracer if traced else None, runner.attempted)
                    samples.setdefault(command.kind, []).append(seconds)
                    if not args.trace:
                        # further set-up samples are spread over the run, so that a
                        # slow spell of the shared host moves a few of them, not all
                        shutil.rmtree(set_up().root)
            finally:
                tracer.uninstall()
            rounds.append((traced, sum(sum(v) for v in samples.values()), samples))
            walls.append(time.perf_counter() - round_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def pooled(kind, traced=False):
        return [s for t, _, per in rounds if t == traced for s in per.get(kind, [])]

    primary, secondary = pooled("primary"), pooled("secondary")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": fingerprint(np),
        "counts": workload.counts(),
        "rounds": len(rounds),
        "samples": {"setup_s": setup_times, "primary_s": primary, "secondary_s": secondary},
        "named": workload.named_metrics(
            prepared, statistics.median(primary), statistics.median(secondary)
        ),
        "error_rate": runner.failed / runner.attempted,
        "failures": runner.failures[:10],
    }

    if args.trace:
        traced_rounds = [s for t, s, _ in rounds if t]
        untraced_rounds = [s for t, s, _ in rounds if not t]
        overhead = statistics.median(traced_rounds) / statistics.median(untraced_rounds)
        values = layers.layer_metrics(tracer.spans, len(traced_rounds), overhead)
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in layers.PER_LAYER
        }
        tracer.dump(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl.gz")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "primary_s": {"value": statistics.median(primary), "unit": "s"},
            "secondary_s": {"value": statistics.median(secondary), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
