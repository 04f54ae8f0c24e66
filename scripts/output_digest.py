#!/usr/bin/env python3
"""Print the SHA-256 of every file the benchmark workloads write, to compare two trees.

Usage, from the repository root:

    python3 scripts/output_digest.py > digest.txt

For each workload in ``perfbench/workloads.py`` the script runs the
set-up, ``prepare`` and one round of commands through
``grainforge.cli.main`` in a temporary directory, with seed 11 for the
train workloads and 7 for the explain workloads, and BLAS pinned to one
thread as the benchmark pins it.  After a train workload's round it also
runs ``report`` on the round's history and metrics, from inside the
temporary directory so that the report names the same relative paths on
every run.  After the ``train-rice`` report it also runs one epoch of
``train --augment`` on that round's manifest and data, the one
preprocessing flag no workload sets, then one epoch of ``train --segment``
without ``--canny``, the one path where Otsu segments many-valued RGB
images rather than edge maps.  Every command must exit 0, print
the paths the workload expects and pass the workload's check.  The
script then prints one ``workload relative-path sha256`` line for every
file in that directory, sorted by path.  A change that must not alter
any output runs the script on the parent tree and on its own tree and
diffs the two outputs.  The exit status is 1 if any command or check
failed, else 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = {"train": 11, "explain": 7}  # by the workload name's first word
# the files a train workload's round writes, relative to its directory
REPORT_ARGV = [
    "report", "--history", "history.csv", "--metrics", "eval/metrics.csv", "--out", "report.txt"
]
# the one-epoch runs after the train-rice report: (flag, weights file, history file)
EXTRA_TRAINS = (
    ("--augment", "augment.gfw", "augment.csv"),
    ("--segment", "segment.gfw", "segment.csv"),
)


def run(cli, command) -> str | None:
    """Run one workload command; the reason it failed, or None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command.argv)
    if code != 0:
        return f"exit code {code}: {err.getvalue().strip()}"
    if out.getvalue().splitlines() != command.expect_stdout:
        return f"stdout {out.getvalue().splitlines()} != {command.expect_stdout}"
    try:
        command.check()
    except Exception as exc:  # noqa: BLE001 - a check that cannot run has failed too
        return f"check failed: {type(exc).__name__}: {exc}"
    return None


def report(workload: str, command, failure: str | None) -> int:
    """Print a failure to stderr; 1 if there was one, else 0."""
    if failure is None:
        return 0
    print(f"{workload}: {command.argv[0]} failed: {failure}", file=sys.stderr)
    return 1


def main() -> int:
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from grainforge import cli
    from workloads import WORKLOADS, Command

    failures = 0
    for name, workload in WORKLOADS.items():
        seed = SEEDS[name.split("-")[0]]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            prepared, commands = workload.setup(root, seed)
            for command in commands:
                failures += report(name, command, run(cli, command))
            workload.prepare(prepared, seed)
            for command in workload.round(prepared, seed):
                failures += report(name, command, run(cli, command))
            if name.startswith("train"):
                extra = [Command("report", REPORT_ARGV, ["report.txt"])]
                if name == "train-rice":
                    for flag, weights, history in EXTRA_TRAINS:
                        argv = [
                            "train", "--manifest", "manifest.csv", "--data-root", "data",
                            "--epochs", "1", flag, "--out", weights, "--history", history,
                            "--seed", str(seed),
                        ]
                        extra.append(Command("train", argv, [weights, history]))
                cwd = os.getcwd()
                os.chdir(root)  # contextlib.chdir needs Python 3.11
                try:
                    for command in extra:
                        failures += report(name, command, run(cli, command))
                finally:
                    os.chdir(cwd)
            for path in sorted(p for p in root.rglob("*") if p.is_file()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(name, path.relative_to(root).as_posix(), digest)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
