"""Procedural shape datasets for end-to-end runs without external downloads.

Each example is a bright geometric figure (cross, disc, ring, square, or
triangle) on a dark noisy background, with jittered position, size, and
colors.  Class identity is carried by shape alone, so a classifier must
actually learn geometry rather than color statistics.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .imaging import to_uint8, write_image
from .rng import Rng
from .training import Manifest, ManifestRecord, SplitAssignment, manifest_from_records

SHAPE_CLASSES = ("cross", "disc", "ring", "square", "triangle")


def _shape_mask(kind: str, size: int, rng: Rng) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    cy = size / 2 + float(rng.uniform(-size * 0.12, size * 0.12))
    cx = size / 2 + float(rng.uniform(-size * 0.12, size * 0.12))
    r = float(rng.uniform(size * 0.22, size * 0.34))
    dy, dx = yy - cy, xx - cx
    dist = np.hypot(dy, dx)
    if kind == "disc":
        return dist <= r
    if kind == "ring":
        return (dist <= r) & (dist >= r * 0.55)
    if kind == "square":
        return np.maximum(np.abs(dy), np.abs(dx)) <= r * 0.9
    if kind == "triangle":
        top = cy - r
        frac = np.clip((yy - top) / (2 * r), 0, 1)
        return (yy >= top) & (yy <= cy + r) & (np.abs(dx) <= frac * r)
    if kind == "cross":
        t = r * 0.35
        return ((np.abs(dx) <= t) & (np.abs(dy) <= r)) | (
            (np.abs(dy) <= t) & (np.abs(dx) <= r)
        )
    raise ValueError(f"unknown shape kind {kind!r}")


def render_shape(kind: str, size: int, rng: Rng) -> np.ndarray:
    mask = _shape_mask(kind, size, rng)
    background = rng.uniform(0, 70, 3)
    foreground = rng.uniform(150, 255, 3)
    canvas = np.empty((size, size, 3), dtype=np.float64)
    canvas[:] = background
    canvas[mask] = foreground
    canvas += rng.uniform(-12, 12, canvas.shape)
    return to_uint8(canvas)


def generate_shape_dataset(
    root,
    per_class_train: int = 200,
    per_class_val: int = 40,
    seed: int = 7,
    size: int = 50,
) -> tuple[Manifest, SplitAssignment]:
    """Write a labeled PPM dataset under ``root`` and return its manifest.

    The split is explicit: the first ``per_class_train`` images of each
    class are tagged train, the rest val.
    """
    root = Path(root)
    base = Rng(seed)
    records = []
    tags = []
    for kind in SHAPE_CLASSES:
        (root / kind).mkdir(parents=True, exist_ok=True)
        stream = base.child(f"class-{kind}")
        for i in range(per_class_train + per_class_val):
            image = render_shape(kind, size, stream.child(f"image-{i}"))
            rel = f"{kind}/{kind}_{i:04d}.ppm"
            write_image(image, root / rel)
            records.append(ManifestRecord(path=rel, label=kind))
            tags.append("train" if i < per_class_train else "val")
    manifest = manifest_from_records(records)
    return manifest, SplitAssignment(tags=tuple(tags))
