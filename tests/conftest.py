import numpy as np
import pytest

from grainforge.imaging import Image
from grainforge.rng import Rng


@pytest.fixture
def rng():
    return Rng(20240917)


def random_image(rng: Rng, width: int, height: int, channels: int = 3) -> Image:
    pixels = rng.integers(0, 256, (height, width, channels)).astype(np.uint8)
    return Image.from_array(pixels)


def flood_components(
    mask: np.ndarray, connectivity: int = 8, values: np.ndarray | None = None
) -> list[set[tuple[int, int]]]:
    """Independent stack-based flood fill used as the component oracle.

    Components come in row-major order of their first pixel; with ``values``
    two neighbours join only where their values are equal.
    """
    h, w = mask.shape
    steps = [
        (dy, dx)
        for dy in (-1, 0, 1)
        for dx in (-1, 0, 1)
        if (dy, dx) != (0, 0) and (connectivity == 8 or 0 in (dy, dx))
    ]
    seen = np.zeros_like(mask, dtype=bool)
    comps = []
    for sy in range(h):
        for sx in range(w):
            if not mask[sy, sx] or seen[sy, sx]:
                continue
            comp = set()
            stack = [(sy, sx)]
            seen[sy, sx] = True
            while stack:
                y, x = stack.pop()
                comp.add((y, x))
                for dy, dx in steps:
                    ny, nx = y + dy, x + dx
                    if (
                        0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]
                        and (values is None or values[ny, nx] == values[y, x])
                    ):
                        seen[ny, nx] = True
                        stack.append((ny, nx))
            comps.append(comp)
    return comps


@pytest.fixture(scope="session")
def tiny_shape_dataset(tmp_path_factory):
    """Small on-disk shape dataset shared by CLI and training tests."""
    from grainforge.synthetic import generate_shape_dataset

    root = tmp_path_factory.mktemp("shapes")
    manifest, assignment = generate_shape_dataset(
        root, per_class_train=16, per_class_val=4, seed=3
    )
    return root, manifest, assignment
