"""The benchmark's workloads: inputs made from the seed, command rounds, checks.

Every workload is a closed loop of rounds.  A round is a fixed list of two
kinds of CLI command, ``primary`` and ``secondary``; each command is
checked after it returns, outside its timed region.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from grainforge import explain, imaging, network, synthetic, training
from grainforge.rng import Rng


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Command:
    kind: str  # primary | secondary | setup
    argv: list[str]
    expect_stdout: list[str]
    check: Callable[[], None] = lambda: None


@dataclass
class Prepared:
    """Files one set-up wrote, plus oracles filled in before the timed loop."""

    root: Path
    files: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# train-rice and train-rice-preproc
# ---------------------------------------------------------------------------


class TrainWorkload:
    """``train --model rice`` then ``evaluate --split train`` on 50 px shapes."""

    per_class = 60  # 48 train, 6 val, 6 test images per class after the 80/10/10 split
    epochs = 2
    size = 50
    def __init__(self, preproc: bool):
        self.flags = ["--canny", "--segment"] if preproc else []

    def counts(self) -> dict:
        return {
            "images": self.per_class * len(synthetic.SHAPE_CLASSES),
            "image_px": self.size,
            "epochs": self.epochs,
            "batch_size": 32,
            "evaluate_split": "train",
            "preprocessing": self.flags,
        }

    def setup(self, root: Path, seed: int) -> tuple[Prepared, list[Command]]:
        data = root / "data"
        synthetic.generate_shape_dataset(
            data, per_class_train=self.per_class, per_class_val=0, seed=seed, size=self.size
        )
        manifest = root / "manifest.csv"
        prepared = Prepared(root, {"data": data, "manifest": manifest})
        spec = network.build_rice_cnn()
        params = network.init_parameters(spec, Rng(seed).child("warm-up"), dtype=np.float32)
        network.forward(spec, params, np.zeros((32, *spec.input_shape), dtype=np.float32))

        def check_manifest() -> None:
            records = training.read_manifest(manifest).records
            require(len(records) == self.counts()["images"], f"manifest has {len(records)} rows")

        ingest = Command("setup", ["ingest", str(data), "--out", str(manifest)], [str(manifest)],
                         check_manifest)
        return prepared, [ingest]

    def prepare(self, prepared: Prepared, seed: int) -> None:
        manifest = training.read_manifest(prepared.files["manifest"])
        split = training.split(manifest, seed)
        prepared.oracle["train_images"] = len(split.indices("train"))

    def named_metrics(self, prepared: Prepared, primary_s: float, secondary_s: float) -> dict:
        images = prepared.oracle["train_images"]
        return {
            "train.images_per_s": images * self.epochs / primary_s,
            "evaluate.images_per_s": images / secondary_s,
        }

    def round(self, prepared: Prepared, seed: int) -> list[Command]:
        root, files = prepared.root, prepared.files
        weights, history = root / "rice.gfw", root / "history.csv"
        out_dir = root / "eval"
        train_argv = [
            "train", "--manifest", str(files["manifest"]), "--data-root", str(files["data"]),
            "--model", "rice", "--epochs", str(self.epochs), "--patience", str(self.epochs + 100),
            "--seed", str(seed), "--out", str(weights), "--history", str(history), *self.flags,
        ]
        eval_argv = [
            "evaluate", "--weights", str(weights), "--manifest", str(files["manifest"]),
            "--data-root", str(files["data"]), "--split", "train", "--seed", str(seed),
            "--out-dir", str(out_dir), *self.flags,
        ]

        def check_train() -> None:
            with open(history, newline="") as fh:
                rows = list(csv.DictReader(fh))
            require(len(rows) == self.epochs, f"history has {len(rows)} epochs, not {self.epochs}")
            losses = [float(r[k]) for r in rows for k in ("train_loss", "val_loss")]
            require(all(math.isfinite(v) for v in losses), f"non-finite loss in {losses}")
            train_loss = [float(r["train_loss"]) for r in rows]
            require(train_loss[-1] < train_loss[0], f"train loss did not fall: {train_loss}")
            spec, _ = network.load_weights(weights)
            require(tuple(spec.input_shape) == (self.size, self.size, 3), "weights reload shape")

        def check_evaluate() -> None:
            with open(out_dir / "confusion.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            total = sum(int(v) for row in rows for v in row[1:])
            expected = prepared.oracle["train_images"]
            require(total == expected, f"confusion counts {total} images, not {expected}")

        return [
            Command("primary", train_argv, [str(weights), str(history)], check_train),
            Command(
                "secondary",
                eval_argv,
                [str(out_dir / n) for n in ("metrics.csv", "confusion.csv", "roc_points.csv")],
                check_evaluate,
            ),
        ]


# ---------------------------------------------------------------------------
# explain-rice-50 and explain-disease-224
# ---------------------------------------------------------------------------

SLIC_COMPACTNESS = 10.0
SLIC_ITERS = 10
SHAP_TOLERANCE = 1e-6


def _read_attribution(path: Path) -> tuple[np.ndarray, int]:
    """Segment weights (ids 0..n-1, in order) and the explained class."""
    weights, target = [], None
    with open(path) as fh:
        require(fh.readline().strip() == "segment_id,weight", f"{path.name}: bad header")
        for line in fh:
            key, _, value = line.strip().partition(",")
            if key.isdigit():
                require(int(key) == len(weights), f"{path.name}: segment id {key} out of order")
                weights.append(float(value))
            elif key == "class":
                target = int(value)
    require(target is not None, f"{path.name}: no class row")
    return np.array(weights), target


class ExplainWorkload:
    """``explain --method lime`` and ``--method shap`` on seeded weights."""

    def __init__(self, model: str, size: int, images: int, samples: int, segments: int):
        self.model = model
        self.size = size
        self.images = images
        self.samples = samples
        self.segments = segments

    def counts(self) -> dict:
        return {
            "model": self.model,
            "images": self.images,
            "image_px": self.size,
            "samples": self.samples,
            "segments": self.segments,
        }

    def named_metrics(self, prepared: Prepared, primary_s: float, secondary_s: float) -> dict:
        return {"explain.lime_s": primary_s, "explain.shap_s": secondary_s, "samples": self.samples}

    def _spec(self) -> network.NetworkSpec:
        return network.build_rice_cnn() if self.model == "rice" else network.build_disease_cnn()

    def setup(self, root: Path, seed: int) -> tuple[Prepared, list[Command]]:
        root.mkdir(parents=True, exist_ok=True)
        spec = self._spec()
        # explanation cost does not depend on the weight values
        params = network.init_parameters(spec, Rng(seed).child("weights"), dtype=np.float32)
        weights = root / f"{self.model}.gfw"
        network.save_weights(spec, params, weights)
        images = []
        for i in range(self.images):
            kind = synthetic.SHAPE_CLASSES[i % len(synthetic.SHAPE_CLASSES)]
            image = synthetic.render_shape(kind, self.size, Rng(seed).child(f"image-{i}"))
            path = root / f"image{i}.ppm"
            imaging.write_image(image, path)
            images.append(path)
        warm_up = imaging.normalize(imaging.read_image(images[0])).astype(np.float32)
        network.forward(spec, params, warm_up)
        return Prepared(root, {"weights": weights, "images": images}), []

    def _model(self, spec, params, image: imaging.Image) -> np.ndarray:
        h, w, _ = spec.input_shape
        x = imaging.normalize(imaging.resize(image, w, h)).astype(np.float32)
        probs, _ = network.forward(spec, params, x)
        return np.asarray(probs, dtype=np.float64)

    def prepare(self, prepared: Prepared, seed: int) -> None:
        """Reference segment counts and v(full), v(empty) for every image."""
        spec, params = network.load_weights(prepared.files["weights"])
        for path in prepared.files["images"]:
            image = imaging.read_image(path)
            superpixels = explain.slic_superpixels(
                image, self.segments, compactness=SLIC_COMPACTNESS, iters=SLIC_ITERS
            )
            empty = explain.perturb(
                image, superpixels, np.zeros(superpixels.count), explain.mean_baseline(image)
            )
            prepared.oracle[path] = {
                "size": (image.width, image.height),
                "segments": superpixels.count,
                "v_full": self._model(spec, params, image),
                "v_empty": self._model(spec, params, empty),
            }

    def round(self, prepared: Prepared, seed: int) -> list[Command]:
        out_dir = prepared.root / "out"
        commands = []
        for path in prepared.files["images"]:
            oracle = prepared.oracle[path]
            for kind, method in (("primary", "lime"), ("secondary", "shap")):
                csv_path = out_dir / f"{path.stem}.{method}.csv"
                heatmap = out_dir / f"{path.stem}.{method}.ppm"
                argv = [
                    "explain", "--weights", str(prepared.files["weights"]), "--image", str(path),
                    "--method", method, "--samples", str(self.samples),
                    "--segments", str(self.segments), "--compactness", str(SLIC_COMPACTNESS),
                    "--slic-iters", str(SLIC_ITERS), "--seed", str(seed), "--out-dir", str(out_dir),
                ]
                commands.append(
                    Command(kind, argv, [str(csv_path), str(heatmap)],
                            self._checker(csv_path, heatmap, oracle, method))
                )
        return commands

    @staticmethod
    def _checker(csv_path: Path, heatmap: Path, oracle: dict, method: str):
        def check() -> None:
            rendered = imaging.read_image(heatmap)
            require((rendered.width, rendered.height) == oracle["size"],
                    f"{heatmap.name} is {rendered.width}x{rendered.height}")
            phi, target = _read_attribution(csv_path)
            require(len(phi) == oracle["segments"],
                    f"{csv_path.name}: {len(phi)} rows for {oracle['segments']} segments")
            require(bool(np.all(np.isfinite(phi))), f"{csv_path.name}: non-finite weight")
            if method == "shap":
                delta = oracle["v_full"][target] - oracle["v_empty"][target]
                residual = abs(float(phi.sum()) - delta)
                require(residual <= SHAP_TOLERANCE, f"SHAP local accuracy residual {residual:.3g}")

        return check


WORKLOADS = {
    "train-rice": TrainWorkload(preproc=False),
    "train-rice-preproc": TrainWorkload(preproc=True),
    "explain-rice-50": ExplainWorkload("rice", size=50, images=3, samples=1000, segments=40),
    "explain-disease-224": ExplainWorkload("disease", size=224, images=1, samples=100, segments=100),
}
