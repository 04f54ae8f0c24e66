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
images rather than edge maps.  Last it runs ``explain`` with LIME and with
KernelSHAP, on the round's weights, on two shapes images rendered from
the seed whose size differs from the model's 50 px input: a 40 px P5 image
(so preprocessing resizes up and repeats the gray plane) and a 64 px P6
image (resized down).  Then one more ``explain`` on the 64 px image takes
every setting from a ``--config`` file: KernelSHAP, so its calls are
patched, the sample and segment counts, the seed, and ``canny``, which
the weights record too.  After the ``train-rice-preproc`` report it runs
the same two explains on that round's ``--canny --segment`` weights and
one 50 px image, where a coalition's change spreads past its segments
through the edge map and the Otsu threshold.  Every command must exit 0,
print the paths the workload expects and pass the workload's check.  The
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
import json
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
# the explain runs after a train workload's report, on its round's weights:
# (image file, shape class, size in px, gray) by workload
EXTRA_EXPLAINS = {
    "train-rice": (("gray40.pgm", "disc", 40, True), ("rgb64.ppm", "cross", 64, False)),
    "train-rice-preproc": (("edges50.ppm", "ring", 50, False),),
}
EXPLAIN_SAMPLES = "200"
# the settings file of the train-rice explain run that takes no setting flag; the seed is added
CONFIG_EXPLAIN = ("rgb64.ppm", {"method": "shap", "samples": 300, "segments": 30, "canny": False})


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


def write_explain_images(root: Path, seed: int, images) -> None:
    """Write ``images``, entries of ``EXTRA_EXPLAINS``, under ``root``, rendered from ``seed``."""
    from grainforge import imaging, synthetic
    from grainforge.rng import Rng

    for name, kind, size, gray in images:
        pixels = synthetic.render_shape(kind, size, Rng(seed).child(name))
        if gray:
            pixels = pixels[:, :, 1]  # the green plane, as a P5 image
        imaging.write_image(pixels, root / name)


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
                write_explain_images(root, seed, EXTRA_EXPLAINS[name])
                for image, *_ in EXTRA_EXPLAINS[name]:
                    stem = image.rsplit(".", 1)[0]
                    for method in ("lime", "shap"):
                        argv = [
                            "explain", "--weights", "rice.gfw", "--image", image,
                            "--method", method, "--samples", EXPLAIN_SAMPLES,
                            "--seed", str(seed), "--out-dir", "explain",
                        ]
                        outputs = [f"explain/{stem}.{method}.{ext}" for ext in ("csv", "ppm")]
                        extra.append(Command("explain", argv, outputs))
                if name == "train-rice":
                    image, settings = CONFIG_EXPLAIN
                    (root / "explain.json").write_text(json.dumps({**settings, "seed": seed}))
                    argv = [
                        "explain", "--weights", "rice.gfw", "--image", image,
                        "--config", "explain.json", "--out-dir", "explain-config",
                    ]
                    stem = image.rsplit(".", 1)[0]
                    outputs = [f"explain-config/{stem}.shap.{ext}" for ext in ("csv", "ppm")]
                    extra.append(Command("explain", argv, outputs))
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
