#!/usr/bin/env python3
"""Benchmark two git revisions against each other in alternating pairs.

Usage, from the repository root:

    python3 scripts/bench_pairs.py PARENT CHANGE --workload explain-rice-50 \\
        --seeds 901-910 [--workload train-rice ...] [--seconds 25] [--json BENCH.json]

Each revision is exported with ``git archive`` into its own temporary
directory (under ``$TMPDIR``), so the benchmark runs on committed files
only and writes its ``.bench_out/`` and ``.bench_work/`` there, never in
this checkout.  For every workload and seed, ``perfbench/run.py --trace 0``
runs once on each side; even pairs run the parent first, odd pairs the
change first.  To benchmark uncommitted work, pass the revision printed by
``git add -A && git stash create``.

The script prints each run's result line to stderr as it finishes, then
one line per end-to-end metric and workload: the per-run values
``parent | change``, the medians, the median ratio change/parent, the
parent's quartiles and in how many pairs the change was better.
``--json PATH`` also writes the run to PATH: the two revisions as commit
ids, the seeds and the run length; the environment fingerprint of each
side, from the line ``perfbench/run.py`` prints before its result; and
per workload the failed and attempted command counts and, per end-to-end
metric, each side's per-pair values and median, the parent's quartiles
and the pair wins.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def commit_id(rev: str) -> str:
    argv = ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"]
    return subprocess.run(argv, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` into ``dest`` with ``git archive``."""
    data = subprocess.run(
        ["git", "archive", "--format=tar", rev], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The info line and the result line of one ``perfbench/run.py`` run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, check=True, capture_output=True, text=True)
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def fmt(value: float) -> str:
    return f"{value:.3g}"


def compare(unit: str, better: str, runs: dict[str, list[float]]) -> dict:
    """One metric's per-pair values, medians, parent quartiles (None for one pair) and wins."""
    parent, change = runs["parent"], runs["change"]
    if better == "lower":
        wins = sum(c < p for p, c in zip(parent, change))
    else:
        wins = sum(c > p for p, c in zip(parent, change))
    quartiles = statistics.quantiles(parent, n=4)[::2] if len(parent) > 1 else None
    return {
        "unit": unit, "better": better, **runs, "wins": wins, "parent_quartiles": quartiles,
        "median": {side: statistics.median(runs[side]) for side in SIDES},
    }


def summary(metric: str, c: dict) -> str:
    parent, unit = c["parent"], c["unit"]
    p_med, c_med = c["median"]["parent"], c["median"]["change"]
    line = (
        f"`{metric}` {' '.join(map(fmt, parent))} | {' '.join(map(fmt, c['change']))}, "
        f"median {p_med:.4g} → {c_med:.4g} {unit} (×{c_med / p_med:.3f}), "
    )
    if c["parent_quartiles"]:
        q1, q3 = c["parent_quartiles"]
        line += f"parent quartiles {q1:.4g}-{q3:.4g} (IQR {q3 - q1:.3g} {unit}), "
    return line + f"change {c['better']} in {c['wins']} of {len(parent)} pairs"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision of the parent side")
    parser.add_argument("change", help="git revision of the change side")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="N or N-M")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--json", type=Path, metavar="PATH", help="also write the run here")
    args = parser.parse_args(argv)

    revs = [commit_id(rev) for rev in (args.parent, args.change)]
    record = {
        "revisions": dict(zip(SIDES, revs)), "seeds": args.seeds, "seconds": args.seconds,
        "fingerprint": {}, "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side, rev in zip(SIDES, revs):
            export(rev, trees[side])
        end_to_end = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]

        for workload in args.workload:
            runs = {m["name"]: {side: [] for side in SIDES} for m in end_to_end}
            failed = {side: 0 for side in SIDES}
            attempted = {side: 0 for side in SIDES}
            for k, seed in enumerate(args.seeds):
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    info, result = run_once(trees[side], workload, seed, args.seconds)
                    print(f"{workload} seed {seed} {side}: {json.dumps(result)}", file=sys.stderr)
                    record["fingerprint"][side] = info["fingerprint"]
                    failed[side] += result["failed"]
                    attempted[side] += result["attempted"]
                    for name, entry in result["metrics"].items():
                        runs[name][side].append(entry["value"])
            seeds = args.seeds
            print(f"- `{workload}`, {len(seeds)} pairs (seeds {seeds[0]}-{seeds[-1]}), "
                  f"failed commands parent {failed['parent']}/{attempted['parent']}, "
                  f"change {failed['change']}/{attempted['change']}:")
            metrics = {m["name"]: compare(m["unit"], m["better"], runs[m["name"]])
                       for m in end_to_end}
            for name, c in metrics.items():
                print("  - " + summary(name, c))
            record["workloads"][workload] = {
                "failed": failed, "attempted": attempted, "metrics": metrics
            }
    if args.json:
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
