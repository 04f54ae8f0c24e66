"""Dataset manifests, stratified splitting, the training loop, evaluation.

Manifests are CSV files (`path,label`) with paths relative to a dataset
root.  Splitting is stratified per class with largest-remainder rounding,
so the 80/10/10 ratios hold within one record for every class.  The epoch
loop shuffles with seeded streams, keeps the parameters from the epoch
that ``best_epoch`` picks (the first minimum of the validation loss, never
a NaN), and records per-epoch curves; identical (seed, config, dataset)
triples reproduce histories and weights exactly.  Images arrive as
(N, h, w, c) uint8 stacks, and ``preprocess`` turns a whole stack into
network inputs in one call.

A training history is an (E, 4) float64 array, one row per epoch, whose
columns are ``HISTORY_COLUMNS``: train loss, train accuracy, validation
loss and validation accuracy.  ``evaluate_arrays`` returns the (n, K)
float64 class probabilities and the mean loss.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import imaging
from .network import (
    NetworkSpec,
    Parameters,
    backward,
    forward,
    init_parameters,
    l2_penalty,
    loss as loss_fn,
)
from .optimizer import ALGORITHMS, OptimizerState, step
from .rng import Rng

SPLIT_TAGS = ("train", "val", "test")
SPLIT_RATIOS = (0.8, 0.1, 0.1)  # train, val, test share of each class
MIN_CLASS_SIZE = 10


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    label: str


@dataclass(frozen=True)
class Manifest:
    records: tuple[ManifestRecord, ...]
    classes: tuple[str, ...]  # sorted lexicographically


def manifest_from_records(records) -> Manifest:
    records = tuple(records)
    seen = set()
    for rec in records:
        if rec.path in seen:
            raise ValueError(f"duplicate manifest path {rec.path!r}")
        seen.add(rec.path)
    classes = tuple(sorted({rec.label for rec in records}))
    return Manifest(records=records, classes=classes)


def _read_csv_rows(path, kind: str) -> list[tuple[int, list[str]]]:
    """(line number, fields) of every row of the UTF-8 CSV file at ``path``.

    Bytes that are not UTF-8 and content the csv module rejects, such as a
    field over its size limit, raise ValueError naming the ``kind`` of file
    and its path.  The line number is that of the row's last line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            return [(reader.line_num, row) for row in reader]
        except UnicodeDecodeError as exc:
            raise ValueError(f"{kind} {path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise ValueError(f"{kind} {path}, line {reader.line_num}: {exc}") from None


def read_manifest(path) -> Manifest:
    rows = _read_csv_rows(path, "manifest")
    header = rows[0][1] if rows else None
    if header != ["path", "label"]:
        raise ValueError(f"manifest {path} must start with 'path,label', got {header}")
    records = []
    for line, row in rows[1:]:
        if not row:
            continue
        if len(row) != 2:
            raise ValueError(
                f"manifest {path}, line {line}, column {min(len(row), 2) + 1}: "
                f"expected the 2 columns path,label, got {len(row)}"
            )
        records.append(ManifestRecord(path=row[0], label=row[1]))
    try:
        return manifest_from_records(records)
    except ValueError as exc:
        raise ValueError(f"manifest {path}: {exc}") from None


def write_manifest(manifest: Manifest, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "label"])
        for rec in manifest.records:
            writer.writerow([rec.path, rec.label])


@dataclass(frozen=True)
class SplitAssignment:
    tags: tuple[str, ...]  # per-record, aligned with manifest.records

    def indices(self, tag: str) -> list[int]:
        if tag not in SPLIT_TAGS:
            raise ValueError(f"unknown split tag {tag!r}")
        return [i for i, t in enumerate(self.tags) if t == tag]


def _largest_remainder_counts(n: int) -> list[int]:
    ideals = [n * r for r in SPLIT_RATIOS]
    base = [math.floor(v) for v in ideals]
    leftover = n - sum(base)
    order = sorted(range(len(ideals)), key=lambda i: (-(ideals[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def split(manifest: Manifest, seed: int) -> SplitAssignment:
    """Stratified train/val/test assignment with largest-remainder rounding."""
    rng = Rng(seed).child("split")
    tags = [""] * len(manifest.records)
    for label in manifest.classes:
        members = [i for i, rec in enumerate(manifest.records) if rec.label == label]
        if len(members) < MIN_CLASS_SIZE:
            raise ValueError(
                f"class {label!r} has only {len(members)} records; "
                f"at least {MIN_CLASS_SIZE} required"
            )
        perm = rng.child(f"class-{label}").permutation(len(members))
        shuffled = [members[j] for j in perm]
        counts = _largest_remainder_counts(len(members))
        cursor = 0
        for tag, count in zip(SPLIT_TAGS, counts):
            for idx in shuffled[cursor : cursor + count]:
                tags[idx] = tag
            cursor += count
    return SplitAssignment(tags=tuple(tags))


# ---------------------------------------------------------------------------
# Example loading
# ---------------------------------------------------------------------------


# numpy type of each ``dtype`` setting
DTYPES = {"f32": np.float32, "f64": np.float64}


def option(
    default, *commands: str, help: str | None = None, choices=None, flag: str | None = None,
    low=None, high=None, above=None,
):
    """A config field: a config-file key and a flag of each CLI subcommand in ``commands``.

    ``choices`` lists the allowed values for both the flag and ``validate``;
    ``flag`` overrides the flag name derived from the field name.  ``validate``
    checks the bounds: ``low`` and ``high`` are inclusive (``high`` needs
    ``low`` or ``above``), ``above`` is exclusive.
    """
    metadata = dict(
        commands=commands, help=help, choices=choices, flag=flag, low=low, high=high, above=above
    )
    return field(default=default, metadata=metadata)


@dataclass
class TrainConfig:
    """The settings that training and evaluation read.

    ``data_root`` is set by the caller; every other field is made by ``option``.
    """

    data_root: Path | str = "."
    optimizer: str = option("adam", "train", choices=ALGORITHMS)
    learning_rate: float = option(1e-3, "train", low=0)
    batch_size: int = option(32, "train", "evaluate", low=1)
    epochs: int = option(30, "train", low=1)
    patience: int = option(10, "train", low=1)
    seed: int = option(0, "train", "evaluate", "explain", low=0, high=2**64 - 1)
    l2: float = option(1e-4, "train", help="L2 regularization coefficient", low=0)
    canny: bool = option(False, "train", "evaluate", help="replace inputs with Canny edge maps")
    segment: bool = option(False, "train", "evaluate", help="zero background via Otsu segmentation")
    augment: bool = option(False, "train", help="expand training data with rotations and flips")
    # Canny's blur pads each image by 3 sigma on every side, so its memory grows with sigma^2
    canny_sigma: float = option(1.0, "train", "evaluate", above=0, high=50)
    canny_low: float = option(50.0, "train", "evaluate", low=0)
    canny_high: float = option(100.0, "train", "evaluate")
    dtype: str = option("f32", "train", "evaluate", "explain", choices=tuple(DTYPES))

    def validate(self) -> None:
        """Raise ValueError for the first setting outside its allowed values."""
        for f in fields(self):
            value, meta = getattr(self, f.name), f.metadata
            if meta.get("choices") and value not in meta["choices"]:
                choices = ", ".join(meta["choices"])
                raise ValueError(f"{f.name} must be one of {choices}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if value is None:
                continue
            low, high, above = meta.get("low"), meta.get("high"), meta.get("above")
            if above is not None and value <= above:
                raise ValueError(f"{f.name} must be > {above}, got {value}")
            if high is not None and not (value <= high and (low is None or low <= value)):
                opening = f"[{low}" if above is None else f"({above}"
                raise ValueError(f"{f.name} must be in {opening}, {high}], got {value}")
            if low is not None and value < low:
                raise ValueError(f"{f.name} must be >= {low}, got {value}")
        if not self.canny_low < self.canny_high:
            raise ValueError(
                "canny thresholds need canny_low < canny_high, "
                f"got {self.canny_low}, {self.canny_high}"
            )


# the settings that ``preprocess`` reads; a trained model's weights file records them
RECORDED_SETTINGS = ("canny", "segment", "canny_sigma", "canny_low", "canny_high")


# most pixels in one stack that ``load_dataset`` preprocesses, each image counted at the larger
# of its own and the input size: 52 images of 50 px, or 2 at 224 px, keep temporaries near 1 MB
CHUNK_PIXELS = 1 << 17


def preprocess(images: np.ndarray, spec: NetworkSpec, config: TrainConfig) -> np.ndarray:
    """The network's (N, H, W, C) inputs for an (N, h, w, c) uint8 stack of raw images.

    Runs the Canny and segmentation stages that ``config`` selects, resizes
    to the network's input size, matches its channel count (BT.601 luma for
    one channel, the gray plane repeated for three) and normalizes, each on
    the whole stack, then casts to ``config.dtype``.  Training, evaluation
    and the explained model all call it, so none of them can build the
    input another way; one image is a stack of one.
    """
    if config.canny:
        edges = imaging.canny(images, config.canny_sigma, config.canny_low, config.canny_high)
        images = edges[..., None].astype(np.uint8) * 255  # white edges on black
    if config.segment:
        images = images * imaging.segment_grain(images)[..., None]  # zero the background
    h, w, c = spec.input_shape
    images = imaging.resize(images, w, h)
    if images.shape[-1] != c:
        images = imaging.luma(images)[..., None] if c == 1 else np.repeat(images, c, axis=-1)
    return imaging.normalize(images).astype(DTYPES[config.dtype], copy=False)


def _image_stacks(paths, input_pixels: int):
    """The images at ``paths``, read into stacks of consecutive same-shape images.

    A stack ends before an image of another shape, or before an image that
    would take it past ``CHUNK_PIXELS`` pixels, each counted at the larger of
    its own size and ``input_pixels``; it holds one image at least.
    """
    stack = []
    for path in paths:
        try:
            pixels = imaging.read_image(path).pixels
        except (OSError, ValueError) as exc:
            raise TrainingError(f"failed to read image {path}: {exc}") from exc
        h, w, _ = pixels.shape
        size = max(h * w, input_pixels)
        if stack and (pixels.shape != stack[0].shape or (len(stack) + 1) * size > CHUNK_PIXELS):
            yield np.stack(stack)
            stack = []
        stack.append(pixels)
    if stack:
        yield np.stack(stack)


def load_dataset(
    manifest: Manifest,
    indices,
    spec: NetworkSpec,
    config: TrainConfig,
    augment: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Stack the selected records into (examples, label indices) arrays.

    The images are read and preprocessed in stacks of consecutive
    same-size records, each of at most ``CHUNK_PIXELS`` pixels before or
    after resizing, one ``preprocess`` call per stack; every example is what ``preprocess``
    makes of its image alone.  With ``augment``, each example is followed
    by its other ``imaging.augment`` variants.
    """
    root = Path(config.data_root)
    class_index = {label: k for k, label in enumerate(manifest.classes)}
    records = [manifest.records[i] for i in indices]
    xs = np.empty((len(records), *spec.input_shape), dtype=DTYPES[config.dtype])
    h, w, _ = spec.input_shape
    start = 0
    for stack in _image_stacks((root / rec.path for rec in records), h * w):
        xs[start : start + len(stack)] = preprocess(stack, spec, config)
        start += len(stack)
    ys = np.array([class_index[rec.label] for rec in records], dtype=np.int64)
    if augment:
        variants = [imaging.augment(x) for x in xs]
        xs = np.stack([v for family in variants for v in family])
        ys = np.repeat(ys, [len(family) for family in variants])
    return xs, ys


def onehot(labels: np.ndarray, num_classes: int, dtype) -> np.ndarray:
    out = np.zeros((len(labels), num_classes), dtype=dtype)
    out[np.arange(len(labels)), labels] = 1
    return out


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


HISTORY_COLUMNS = ("train_loss", "train_acc", "val_loss", "val_acc")
VAL_LOSS = HISTORY_COLUMNS.index("val_loss")


def best_epoch(val_losses) -> int | None:
    """Index of the first strict minimum of ``val_losses``; None if none is below +inf.

    A NaN compares below nothing, so a NaN epoch is never the best one.
    Training keeps the parameters of this epoch and ``report`` marks it.
    """
    best, best_loss = None, math.inf
    for i, loss in enumerate(val_losses):
        if loss < best_loss:
            best, best_loss = i, loss
    return best


def write_history(history: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", *HISTORY_COLUMNS])
        for i, row in enumerate(history.tolist(), start=1):
            writer.writerow([i, *(f"{v:.6f}" for v in row)])


def read_history(path) -> np.ndarray:
    rows = _read_csv_rows(path, "history")
    header = rows[0][1] if rows else []
    history = []
    for line, row in rows[1:]:
        if not row:
            continue
        cells = dict(zip(header, row))
        values = []
        for column in HISTORY_COLUMNS:
            try:
                values.append(float(cells.get(column)))
            except (TypeError, ValueError):  # None when the column is missing
                raise ValueError(
                    f"history {path}, line {line}, column {column!r}: "
                    f"expected a number, got {cells.get(column)!r}"
                ) from None
        history.append(values)
    return np.array(history, dtype=np.float64).reshape(-1, len(HISTORY_COLUMNS))


def evaluate_arrays(
    spec: NetworkSpec,
    params: Parameters,
    xs: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
    lam: float = 0.0,
) -> tuple[np.ndarray, float]:
    """Class probabilities of stacked examples and their mean loss.

    A prediction is the argmax of its row; ``argmax`` resolves ties to the
    lowest class index.
    """
    if len(xs) == 0:
        raise TrainingError("evaluation subset is empty")
    k = spec.num_classes
    probs = np.zeros((len(xs), k), dtype=np.float64)
    total_ce = 0.0
    for start in range(0, len(xs), batch_size):
        batch = xs[start : start + batch_size]
        batch_labels = labels[start : start + batch_size]
        p, _ = forward(spec, params, batch, train=False)
        probs[start : start + len(batch)] = p
        y = onehot(batch_labels, k, p.dtype)
        total_ce += loss_fn(p, y, params, 0.0) * len(batch)
    mean_loss = total_ce / len(xs) + l2_penalty(params, lam)
    return probs, float(mean_loss)


def train_arrays(
    spec: NetworkSpec,
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    config: TrainConfig,
) -> tuple[Parameters, np.ndarray]:
    """Core epoch loop over preloaded arrays; returns the kept parameters and the history."""
    config.validate()
    if len(train_x) == 0 or len(val_x) == 0:
        raise TrainingError("train and validation splits must be non-empty")
    k = spec.num_classes
    base_rng = Rng(config.seed)
    params = init_parameters(spec, base_rng.child("init"), dtype=DTYPES[config.dtype])
    state = OptimizerState(
        algorithm=config.optimizer, learning_rate=config.learning_rate
    )

    history = np.empty((config.epochs, len(HISTORY_COLUMNS)))
    best_params = params
    stale_epochs = 0

    for epoch in range(config.epochs):
        perm = base_rng.child(f"shuffle-epoch-{epoch}").permutation(len(train_x))
        loss_sum = 0.0
        correct = 0
        for start in range(0, len(perm), config.batch_size):
            take = perm[start : start + config.batch_size]
            batch = train_x[take]
            batch_labels = train_y[take]
            y = onehot(batch_labels, k, batch.dtype)
            probs, cache = forward(spec, params, batch)
            loss_sum += loss_fn(probs, y, params, config.l2) * len(take)
            correct += int((probs.argmax(axis=1) == batch_labels).sum())
            grads = backward(spec, params, cache, y, config.l2)
            params, state = step(state, params, grads)

        val_probs, val_loss = evaluate_arrays(
            spec, params, val_x, val_y, config.batch_size, lam=config.l2
        )
        val_acc = float((val_probs.argmax(axis=1) == val_y).mean())
        history[epoch] = loss_sum / len(train_x), correct / len(train_x), val_loss, val_acc

        if best_epoch(history[: epoch + 1, VAL_LOSS]) == epoch:
            best_params = params
            stale_epochs = 0
        else:
            stale_epochs += 1
            if stale_epochs >= config.patience:
                break
    return best_params, history[: epoch + 1]


def train(
    spec: NetworkSpec,
    manifest: Manifest,
    assignment: SplitAssignment,
    config: TrainConfig,
) -> tuple[Parameters, np.ndarray]:
    """Load the split's examples from disk and run the epoch loop.

    A manifest whose class count differs from the network's raises
    ValueError before any image is read.
    """
    if len(manifest.classes) != spec.num_classes:
        raise ValueError(
            f"manifest has {len(manifest.classes)} classes but the network has "
            f"{spec.num_classes}"
        )
    train_x, train_y = load_dataset(
        manifest, assignment.indices("train"), spec, config, augment=config.augment
    )
    val_x, val_y = load_dataset(manifest, assignment.indices("val"), spec, config)
    return train_arrays(spec, train_x, train_y, val_x, val_y, config)
