#!/usr/bin/env python3
"""Generate the procedural 5-class shape dataset used by the demo runs.

Writes class-per-directory PPM images only; `grainforge ingest` then builds
the manifest CSV that `grainforge train` reads.
"""

import argparse
from pathlib import Path

from grainforge.synthetic import generate_shape_dataset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", type=Path, help="directory to populate")
    parser.add_argument("--train-per-class", type=int, default=200)
    parser.add_argument("--val-per-class", type=int, default=40)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--size", type=int, default=50, help="image side length")
    args = parser.parse_args()

    manifest, _ = generate_shape_dataset(
        args.out_dir,
        per_class_train=args.train_per_class,
        per_class_val=args.val_per_class,
        seed=args.seed,
        size=args.size,
    )
    print(f"{len(manifest.records)} images across {len(manifest.classes)} classes")
    print(args.out_dir)


if __name__ == "__main__":
    main()
