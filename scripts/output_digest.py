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
every setting from a ``--config`` file: KernelSHAP, the sample and
segment counts, the seed, and ``canny``, which the weights record too.
Then three LIME runs at the benchmark's 1,000 samples, where the window
memo serves most windows of most calls: on a 50 px image, on the 64 px
image resized to the 50 px input, and on the 50 px image through a model
trained for one epoch with ``--canny`` (a third extra ``train``).  After
the ``train-rice-preproc`` report it runs the same two explains on that
round's ``--canny --segment`` weights and one 50 px image, where a coalition's change spreads past its segments
through the edge map and the Otsu threshold.  Every command must exit 0,
print the paths the workload expects and pass the workload's check.  The
script then prints one ``workload relative-path sha256`` line for every
file in that directory, sorted by path.  A change that must not alter
any output runs the script on the parent tree and on its own tree and
diffs the two outputs.

After the workloads it writes a fixed corpus of malformed weights files
into a temporary directory and runs ``explain`` on each, with a valid
50 px image, and prints one ``malformed case exit-code first-stderr-line``
line per file.  The corpus starts from a rice weights file that records
its preprocessing and class names: ``MUTATIONS`` headers with one to three
values replaced, deleted or joined by an extra key, drawn from a seeded
``random.Random``; edits of the recorded parts, the version and the dtype;
faults of the recorded preprocessing, which ``explain`` checks after
loading; headers that are not objects; and faults of the framing.  So a
change to a parser can show that every error it reports is unchanged.
The exit status is 1 if any workload command or check failed, else 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import struct
import sys
import tempfile
from dataclasses import replace
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
    ("--canny", "canny.gfw", "canny.csv"),
)
# the explain runs after a train workload's report, on its round's weights:
# (image file, shape class, size in px, gray) by workload
EXTRA_EXPLAINS = {
    "train-rice": (("gray40.pgm", "disc", 40, True), ("rgb64.ppm", "cross", 64, False)),
    "train-rice-preproc": (("edges50.ppm", "ring", 50, False),),
}
EXPLAIN_SAMPLES = "200"
# the LIME runs at 1,000 samples after the train-rice explains: (weights, image, output
# directory), on LIME_IMAGE, written as an EXTRA_EXPLAINS entry is, or on the 64 px image
LIME_IMAGE = ("lime50.ppm", "square", 50, False)
LIME_EXPLAINS = (
    ("rice.gfw", "lime50.ppm", "lime-50"),
    ("rice.gfw", "rgb64.ppm", "lime-resize"),
    ("canny.gfw", "lime50.ppm", "lime-canny"),
)
LIME_SAMPLES = "1000"
# the settings file of the train-rice explain run that takes no setting flag; the seed is added
CONFIG_EXPLAIN = ("rgb64.ppm", {"method": "shap", "samples": 300, "segments": 30, "canny": False})
# the malformed-weights corpus: its seed, its count of seeded header mutations, and
# the values a mutation puts in place of a value or under an extra key.  They are small:
# explain runs a recorded canny_sigma that passes its checks, and Canny's blur pads each
# image by 3 sigma on every side
MALFORMED_SEED = 25
MUTATIONS = 240
MUTATION_VALUES = (None, True, False, 0, 1, -1, 2, 3.0, 0.5, "x", "relu", [], [1, 2], {}, {"k": 1})
# the recorded preprocessing of the corpus's base file
BASE_PREPROCESS = {
    "canny": False, "segment": False, "canny_sigma": 1.0, "canny_low": 50.0, "canny_high": 100.0
}


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


def json_paths(node, prefix=()):
    """The key/index path of every value below the root of a parsed JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield (*prefix, key)
        yield from json_paths(child, (*prefix, key))


def mutate(header: dict, rng: random.Random) -> None:
    """Replace, delete or add beside one value of ``header``, chosen by ``rng``."""
    *parents, last = rng.choice(list(json_paths(header)))
    node = header
    for key in parents:
        node = node[key]
    action = rng.choice(("replace", "delete", "extra"))
    value = json.loads(json.dumps(rng.choice(MUTATION_VALUES)))  # a fresh copy
    if action == "replace":
        node[last] = value
    elif action == "delete":
        del node[last]
    elif isinstance(node, dict):
        node["extra"] = value
    else:
        node.insert(last, value)


def malformed_weights(base: bytes, seed: int) -> dict[str, bytes]:
    """The corpus, by case name, made from the bytes of a valid weights file."""
    (header_len,) = struct.unpack("<Q", base[4:12])
    header = json.loads(base[12 : 12 + header_len])
    payload = base[12 + header_len :]

    def framed(text: bytes) -> bytes:
        return b"GFW1" + struct.pack("<Q", len(text)) + text + payload

    def edited(edit) -> bytes:
        copy = json.loads(json.dumps(header))
        edit(copy)
        return framed(json.dumps(copy).encode())

    rng = random.Random(seed)
    cases = {}
    for i in range(MUTATIONS):
        copy = json.loads(json.dumps(header))
        for _ in range(rng.randint(1, 3)):
            mutate(copy, rng)
        cases[f"mutation-{i:03d}"] = framed(json.dumps(copy).encode())
    for name, edit in {
        "classes-unsorted": lambda h: h["classes"].reverse(),
        "classes-short": lambda h: h["classes"].pop(),
        "classes-repeated": lambda h: h["classes"].__setitem__(1, h["classes"][0]),
        "classes-number": lambda h: h["classes"].__setitem__(0, 1),
        "classes-string": lambda h: h.update(classes="abcde"),
        "preprocess-null": lambda h: h.update(preprocess=None),
        "preprocess-list": lambda h: h.update(preprocess=[]),
        "version-2": lambda h: h.update(version=2),
        "version-missing": lambda h: h.pop("version"),
        "dtype-f64": lambda h: h.update(dtype="f64"),
        "dtype-missing": lambda h: h.pop("dtype"),
        "format-missing": lambda h: h.pop("format"),
        "recorded-canny-1": lambda h: h["preprocess"].update(canny=1),
        "recorded-sigma-0": lambda h: h["preprocess"].update(canny_sigma=0),
        "recorded-missing-key": lambda h: h["preprocess"].pop("canny_high"),
        "recorded-extra-key": lambda h: h["preprocess"].update(blur=1.5),
        "recorded-low-above-high": lambda h: h["preprocess"].update(canny_low=200.0),
        "recorded-segment-string": lambda h: h["preprocess"].update(segment="yes"),
    }.items():
        cases[name] = edited(edit)
    for name, text in {"list": b"[]", "string": b'"x"', "number": b"1", "null": b"null"}.items():
        cases[f"header-{name}"] = framed(text)
    size = 12 + header_len
    cases.update({
        "bad-magic": b"NOPE" + base[4:],
        "other-version": b"GFW2" + base[4:],
        "short-length-field": base[:7],
        "length-past-end": base[:4] + struct.pack("<Q", len(base)) + base[12:],
        "truncated-payload": base[:-17],
        "trailing-bytes": base + b"\x00\x00",
        "bad-json": framed(b"{not json"),
        "bad-utf8": framed(b'{"a": "\xff"}'),
        "non-finite-value": base[: size + 8] + struct.pack("<f", float("nan")) + base[size + 12 :],
        "unmutated": base,
    })
    return cases


def digest_malformed(cli, seed: int) -> None:
    """Run ``explain`` on each file of the malformed-weights corpus and print how it ended."""
    from grainforge import imaging, network, synthetic
    from grainforge.rng import Rng

    spec = replace(
        network.build_rice_cnn(), preprocess=BASE_PREPROCESS, classes=("a", "b", "c", "d", "e")
    )
    params = network.init_parameters(spec, Rng(seed), "float32")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # so that no message names the temporary directory
        try:
            network.save_weights(spec, params, "base.gfw")
            imaging.write_image(synthetic.render_shape("ring", 50, Rng(seed)), "grain.ppm")
            for case, data in malformed_weights(Path("base.gfw").read_bytes(), seed).items():
                Path("case.gfw").write_bytes(data)
                argv = [
                    "explain", "--weights", "case.gfw", "--image", "grain.ppm",
                    "--samples", "8", "--seed", str(seed), "--out-dir", "out",
                ]
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                first = err.getvalue().partition("\n")[0]
                print("malformed", case, code, first)
        finally:
            os.chdir(cwd)


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
                    write_explain_images(root, seed, [LIME_IMAGE])
                    for weights, image, out_dir in LIME_EXPLAINS:
                        argv = [
                            "explain", "--weights", weights, "--image", image,
                            "--method", "lime", "--samples", LIME_SAMPLES,
                            "--seed", str(seed), "--out-dir", out_dir,
                        ]
                        stem = image.rsplit(".", 1)[0]
                        outputs = [f"{out_dir}/{stem}.lime.{ext}" for ext in ("csv", "ppm")]
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
    digest_malformed(cli, MALFORMED_SEED)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
