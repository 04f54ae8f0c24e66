"""Command-line interface: ingest, train, evaluate, explain, report.

Every setting is a field of ``RunConfig`` (``training.TrainConfig`` plus
the model, split and explanation fields).  The field's metadata names the
subcommands that take it as a flag (``--`` plus the name with dashes, or
``--class`` for ``target_class``), and the field name is its key in the
JSON config file.  Option precedence is CLI flag, then config file
(``--config``), then built-in defaults; the environment variable
``GRAINFORGE_SEED`` acts as a seed fallback below all three.  The merged
settings are validated before any file is read.  ``evaluate`` and
``explain`` then take the preprocessing settings that the weights file
records; a flag or config value that differs from them is a usage error.
Every command prints the paths of the files it wrote, one per line, and
exits 0 on success, 1 on runtime failure, 2 on usage or validation errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import explain as explain_mod
from . import imaging, metrics, network, training
from .rng import Rng
from .training import option

SEED_ENV_VAR = "GRAINFORGE_SEED"
IMAGE_EXTENSIONS = (".ppm", ".pgm")


class UsageError(ValueError):
    pass


# Python type of each annotation part of a config field
_TYPES = {"int": int, "float": float, "str": str, "bool": bool, "None": type(None)}


@dataclass
class RunConfig(training.TrainConfig):
    """Every setting of a command: the training settings plus model, split and explanation."""

    model: str = option("rice", "train", choices=tuple(network.ARCHITECTURES))
    split: str = option("test", "evaluate", choices=training.SPLIT_TAGS)
    method: str = option("lime", "explain", choices=("lime", "shap"))
    target_class: int | None = option(
        None, "explain", flag="--class", help="class to explain (default: the argmax class)", low=0
    )
    segments: int | None = option(None, "explain", help="target superpixel count", low=1)
    compactness: float = option(10.0, "explain", low=0)
    slic_iters: int = option(10, "explain", help="SLIC iterations", low=1, high=1000)
    samples: int = option(1000, "explain", help="perturbation sample budget", low=1, high=10**6)
    kernel_width: float = option(0.25, "explain", above=0)
    ridge: float = option(1.0, "explain", low=0)
    top_k: int = option(5, "explain", low=0)
    baseline: str = option("mean", "explain", choices=("mean", "gray"))


# the annotation of each setting that a config file or a weights header may hold
_SETTINGS = {f.name: f.type for f in fields(RunConfig) if f.metadata}


def resolve_config(args: argparse.Namespace, recorded: dict | None = None) -> RunConfig:
    """Merge CLI flags over a JSON config file over defaults.

    ``recorded`` holds the preprocessing settings of a weights file: each one
    replaces its default, and a flag or config value that differs is a
    UsageError.  A recorded object that a config file could not hold, or whose
    values fail ``validate``, is a WeightsFormatError.
    """
    file_cfg = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        # bad UTF-8 or JSON, an integer of over 4300 digits, or deep nesting
        except (ValueError, RecursionError) as exc:
            raise UsageError(f"config file {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
    _check_settings(file_cfg, "config")

    # data_root, the one field without metadata, can only come from --data-root
    given = dict(file_cfg)
    for f in fields(RunConfig):
        if getattr(args, f.name, None) is not None:
            given[f.name] = getattr(args, f.name)
    cfg = RunConfig(**given)
    if "seed" not in given and os.environ.get(SEED_ENV_VAR):
        try:
            cfg.seed = int(os.environ[SEED_ENV_VAR])
        except ValueError as exc:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer") from exc
    try:
        cfg.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if recorded is None:
        return cfg
    try:
        if set(recorded) != set(training.RECORDED_SETTINGS):
            raise ValueError(
                f"preprocess must hold {list(training.RECORDED_SETTINGS)}, got {list(recorded)}"
            )
        _check_settings(recorded, "preprocess")
        cfg = replace(cfg, **recorded)
        cfg.validate()
    except ValueError as exc:
        raise network.WeightsFormatError(f"recorded preprocessing: {exc}", 12) from exc
    for name, value in recorded.items():
        if name in given and given[name] != value:
            raise UsageError(
                f"{name} is {given[name]!r} here but {value!r} in the weights file"
            )
    return cfg


def _check_settings(settings: dict, source: str) -> None:
    """Reject a key that is no setting, or a JSON value its field cannot hold.

    An integer within the float range is a valid float, but a bool is never a
    number and a float is never an integer.
    """
    unknown = set(settings) - set(_SETTINGS)
    if unknown:
        raise UsageError(f"unknown {source} keys: {sorted(unknown)}")
    for name, value in settings.items():
        annotation = _SETTINGS[name]
        allowed = {_TYPES[part] for part in annotation.split(" | ")}
        as_float = type(value) is int and float in allowed and abs(value) <= sys.float_info.max
        if type(value) not in allowed and not as_float:
            raise UsageError(
                f"{source} key {name!r} must be {annotation}, got {type(value).__name__} {value!r}"
            )


def _emit(path) -> None:
    print(path)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    root = Path(args.directory)
    if not root.is_dir():
        raise UsageError(f"dataset directory {root} does not exist")
    records = []
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    populated = 0
    for class_dir in class_dirs:
        files = sorted(
            p.name for p in class_dir.iterdir()
            if p.is_file() and p.suffix.lower() in IMAGE_EXTENSIONS
        )
        if not files:
            print(f"warning: class directory {class_dir.name!r} has no images", file=sys.stderr)
            continue
        populated += 1
        for name in files:
            records.append(
                training.ManifestRecord(path=f"{class_dir.name}/{name}", label=class_dir.name)
            )
    if populated == 0:
        raise UsageError(f"no class directories with images under {root}")
    manifest = training.manifest_from_records(records)
    training.write_manifest(manifest, args.out)
    _emit(args.out)
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    manifest = training.read_manifest(args.manifest)
    spec = network.ARCHITECTURES[cfg.model]()
    assignment = training.split(manifest, cfg.seed)
    params, history = training.train(spec, manifest, assignment, cfg)
    spec = replace(
        spec,
        preprocess={name: getattr(cfg, name) for name in training.RECORDED_SETTINGS},
        classes=manifest.classes,
    )
    network.save_weights(spec, params, args.out)
    training.write_history(history, args.history)
    _emit(args.out)
    _emit(args.history)
    return 0


def _load_model(args) -> tuple[RunConfig, network.NetworkSpec, network.Parameters]:
    """Validate the settings, read the weights, then adopt the preprocessing they record."""
    resolve_config(args)  # a bad setting exits 2 before any file is read
    spec, params = network.load_weights(args.weights)
    return resolve_config(args, spec.preprocess), spec, params


def cmd_evaluate(args) -> int:
    cfg, spec, params = _load_model(args)
    manifest = training.read_manifest(args.manifest)
    if spec.classes is not None and manifest.classes != spec.classes:
        raise UsageError(
            f"manifest classes {list(manifest.classes)} differ from the "
            f"model's {list(spec.classes)}"
        )
    if len(manifest.classes) != spec.num_classes:
        raise UsageError(
            f"manifest has {len(manifest.classes)} classes but the model has {spec.num_classes}"
        )
    assignment = training.split(manifest, cfg.seed)
    indices = assignment.indices(cfg.split)
    result = training.evaluate(spec, params, manifest, indices, cfg)
    curve = metrics.roc_micro(result.probabilities, result.labels)
    scores = metrics.class_report(result.confusion)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.csv"
    confusion_path = out_dir / "confusion.csv"
    roc_path = out_dir / "roc_points.csv"
    metrics.write_metrics_csv(metrics_path, manifest.classes, scores)
    metrics.write_confusion_csv(confusion_path, manifest.classes, result.confusion)
    metrics.write_roc_csv(roc_path, curve)
    for path in (metrics_path, confusion_path, roc_path):
        _emit(path)
    return 0


def _model_closure(spec, params, cfg):
    """Class probabilities of one raw image, through the model's own preprocessing."""
    dtype = training.DTYPES[cfg.dtype]

    def model(image: imaging.Image) -> np.ndarray:
        x = imaging.normalize(training.preprocess(image, spec, cfg)).astype(dtype)
        probs, _ = network.forward(spec, params, x, train=False)
        if not np.isfinite(probs).all():  # finite weights can still overflow float32
            raise ValueError("class probabilities are not finite")
        return np.asarray(probs, dtype=np.float64)

    return model


def cmd_explain(args) -> int:
    cfg, spec, params = _load_model(args)
    image_path = Path(args.image)
    image = imaging.read_image(image_path)
    model = _model_closure(spec, params, cfg)

    target = cfg.target_class
    if target is None:
        target = int(np.argmax(model(image)))
    if not 0 <= target < spec.num_classes:
        raise UsageError(
            f"class {target} out of range for {spec.num_classes}-class model"
        )

    segments = cfg.segments
    if segments is None:
        segments = 40 if max(spec.input_shape[:2]) <= 64 else 100
    pixels = image.width * image.height
    if segments > pixels:
        raise UsageError(f"segments {segments} exceeds the {pixels} pixels of {image_path}")
    superpixels = explain_mod.slic_superpixels(
        image, segments, compactness=cfg.compactness, iters=cfg.slic_iters
    )
    baseline = explain_mod.mean_baseline(image) if cfg.baseline == "mean" else (128,) * image.channels
    rng = Rng(cfg.seed)

    out_dir = Path(args.out_dir) if args.out_dir else image_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = image_path.name
    for ext in IMAGE_EXTENSIONS:
        if stem.lower().endswith(ext):
            stem = stem[: -len(ext)]
            break

    if cfg.method == "lime":
        weights, highlight = explain_mod.lime_explain(
            model,
            image,
            superpixels,
            target,
            n_samples=cfg.samples,
            kernel_width=cfg.kernel_width,
            ridge=cfg.ridge,
            top_k=cfg.top_k,
            rng=rng,
            baseline=baseline,
        )
        heatmap = explain_mod.render_lime_heatmap(image, superpixels, highlight)
        method = "lime"
    else:
        weights = explain_mod.kernel_shap(
            model, image, superpixels, target, baseline=baseline, n_samples=cfg.samples, rng=rng
        )
        heatmap = explain_mod.render_shap_heatmap(image, superpixels, weights)
        method = "kernel_shap"

    csv_path = out_dir / f"{stem}.{cfg.method}.csv"
    heatmap_path = out_dir / f"{stem}.{cfg.method}.ppm"
    explain_mod.write_attribution_csv(csv_path, weights, target, method)
    imaging.write_image(heatmap, heatmap_path)
    _emit(csv_path)
    _emit(heatmap_path)
    return 0


def cmd_report(args) -> int:
    lines = []
    history = training.read_history(args.history)
    if not history.epochs:
        raise UsageError(f"history {args.history} holds no epochs")
    lines.append(f"Training history: {args.history}")
    lines.append("epoch  train_loss  train_acc  val_loss  val_acc")
    for i, rec in enumerate(history.epochs, start=1):
        marker = "  <- best" if i - 1 == history.best_epoch else ""
        lines.append(
            f"{i:5d}  {rec.train_loss:10.6f}  {rec.train_acc:9.6f}  "
            f"{rec.val_loss:8.6f}  {rec.val_acc:7.6f}{marker}"
        )
    if history.best_epoch is None:
        lines.append("best epoch: none (no finite validation loss)")
    else:
        lines.append(
            f"best epoch: {history.best_epoch + 1} "
            f"(val loss {history.epochs[history.best_epoch].val_loss:.6f})"
        )
    if args.metrics:
        lines.append("")
        lines.append(f"Metrics: {args.metrics}")
        try:
            with open(args.metrics, encoding="utf-8") as fh:
                lines.extend(line.rstrip("\n") for line in fh)
        except UnicodeDecodeError as exc:
            raise ValueError(f"metrics {args.metrics}: not UTF-8 text ({exc.reason})") from None
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _emit(args.out)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_config_flag(parser: argparse.ArgumentParser, f) -> None:
    """Add the flag of config field ``f``; an unset flag parses to None."""
    if f.type == "bool":
        kind = {"action": "store_const", "const": True}
    else:
        kind = {"type": _TYPES[f.type.split(" | ")[0]], "choices": f.metadata["choices"]}
    flag = f.metadata["flag"] or "--" + f.name.replace("_", "-")
    help = f.metadata["help"]
    if f.metadata["high"] is not None:
        bounds = f"{f.metadata['low']} to {f.metadata['high']}"
        help = f"{help}, {bounds}" if help else bounds
    parser.add_argument(flag, dest=f.name, help=help, **kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grainforge",
        description="Crop-image CNN training and explanation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="scan class directories into a manifest CSV")
    p_ingest.add_argument("directory", help="dataset root with one subdirectory per class")
    p_ingest.add_argument("--out", default="manifest.csv", help="manifest path to write")
    p_ingest.set_defaults(func=cmd_ingest)

    p_train = sub.add_parser("train", help="train a model from a manifest")
    p_train.add_argument("--manifest", required=True)
    p_train.add_argument("--data-root", required=True)
    p_train.add_argument("--out", default="weights.gfw", help="weights file to write")
    p_train.add_argument("--history", default="history.csv", help="history CSV to write")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="score saved weights on a manifest split")
    p_eval.add_argument("--weights", required=True)
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--data-root", required=True)
    p_eval.add_argument("--out-dir", default=".")
    p_eval.set_defaults(func=cmd_evaluate)

    p_explain = sub.add_parser("explain", help="attribute one prediction to superpixels")
    p_explain.add_argument("--weights", required=True)
    p_explain.add_argument("--image", required=True)
    p_explain.add_argument("--out-dir", default=None,
                           help="output directory (default: next to the image)")
    p_explain.set_defaults(func=cmd_explain)

    for command, p in (("train", p_train), ("evaluate", p_eval), ("explain", p_explain)):
        p.add_argument("--config", help="JSON config file (flags override it)")
        for f in fields(RunConfig):
            if command in f.metadata.get("commands", ()):
                _add_config_flag(p, f)

    p_report = sub.add_parser("report", help="summarize history and metrics as text")
    p_report.add_argument("--history", required=True)
    p_report.add_argument("--metrics", help="metrics.csv to append")
    p_report.add_argument("--out", help="write the report here instead of stdout")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # overflow to inf/NaN is caught by the commands' own finite checks,
        # which name the weights, scores or gradient; numpy's warnings would
        # only name kernel lines
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
