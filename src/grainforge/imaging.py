"""Image I/O and the preprocessing chain.

Covers binary PPM/PGM parsing, grayscale conversion, Gaussian blur, Canny
edge extraction, Otsu thresholding with largest-component segmentation,
bilinear resize, [0,1] normalization, and the fixed five-way augmentation
set.  Below the file boundary an image is an (H, W, C) uint8 array:
``decode_netpbm`` is the one place that builds an ``Image``, and
``encode_netpbm`` applies the same checks before anything is written.  An
``Image`` passes as an array through ``__array__``.  ``to_uint8`` is the
one float-to-8-bit rounding.  No function writes into its input;
``augment``'s variants are views of the array it is given, and ``resize``
returns its input when the size already matches.

``luma``, ``resize``, ``normalize``, ``canny``, ``segment_grain`` and
``label_components`` work on stacks: an (N, H, W, C) uint8 array of
same-size images (an (N, H, W) mask for labelling) gives one result per
image, each equal to that of the image alone, so one call pays numpy's
per-call overhead for a whole stack.  ``canny`` suppresses and links only
the pixels that can become edges, and Otsu visits only the occupied gray
levels.

JPEG and PNG are deliberately not decoded here; datasets are expected to
be converted to netpbm (P6/P5, maxval 255) with standard tooling before
ingestion, which keeps parsing bit-exact and dependency-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NetpbmError(ValueError):
    """Malformed netpbm data; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True, eq=False)
class Image:
    """8-bit raster: read-only (height, width, channels) uint8 pixels, which give its size."""

    pixels: np.ndarray

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.pixels, dtype=dtype, copy=copy)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Image":
        """An (H, W) or (H, W, C) array as read-only uint8, C 1 or 3 and H, W positive.

        A uint8 array needs no value check; an array of another integer or bool
        dtype must hold values in [0, 255], and any other dtype is rejected,
        so no value is wrapped or truncated into a pixel.  Only the view that
        ``pixels`` holds is made read-only, never the caller's array.
        """
        if arr.ndim not in (2, 3):
            raise ValueError(f"image array must be (H, W) or (H, W, C), got shape {arr.shape}")
        if arr.dtype.kind not in "biu":
            raise ValueError(f"image array must hold integers, got dtype {arr.dtype}")
        if arr.dtype != np.uint8 and arr.size and not 0 <= arr.min() <= arr.max() <= 255:
            raise ValueError(
                f"image values must lie in [0, 255], got {arr.min()} to {arr.max()} ({arr.dtype})"
            )
        if arr.ndim == 2:
            arr = arr[:, :, None]
        arr = np.ascontiguousarray(arr, dtype=np.uint8).view()
        h, w, c = arr.shape
        if c not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {c}")
        if w < 1 or h < 1:
            raise ValueError(f"degenerate image size {w}x{h}")
        arr.flags.writeable = False
        return cls(pixels=arr)


# ---------------------------------------------------------------------------
# Netpbm (PPM P6 / PGM P5) codec
# ---------------------------------------------------------------------------


def _read_header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next whitespace-delimited token, skipping '#' comments."""
    n = len(data)
    while pos < n:
        ch = data[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise NetpbmError("unexpected end of header", pos)
    start = pos
    while pos < n and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
        pos += 1
    return data[start:pos], pos


def _read_header_int(
    data: bytes, pos: int, what: str, expected: int | None = None
) -> tuple[int, int]:
    """Next header token as a positive integer, equal to ``expected`` if given."""
    token, end = _read_header_token(data, pos)
    start = end - len(token)
    if not token.isdigit():
        raise NetpbmError(f"malformed {what} token {token!r}", start)
    if int(token) == 0:
        raise NetpbmError(f"{what} must be positive, got {token!r}", start)
    if expected is not None and int(token) != expected:
        raise NetpbmError(f"{what} must be {expected}, got {int(token)}", start)
    return int(token), end


def decode_netpbm(data: bytes) -> Image:
    magic = data[:2]
    if magic == b"P6":
        channels = 3
    elif magic == b"P5":
        channels = 1
    else:
        raise NetpbmError(f"unsupported magic {magic!r}, expected P6 or P5", 0)
    width, pos = _read_header_int(data, 2, "width")
    height, pos = _read_header_int(data, pos, "height")
    _, pos = _read_header_int(data, pos, "maxval", expected=255)
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise NetpbmError("missing whitespace byte after maxval", pos)
    pos += 1
    payload = width * height * channels
    if len(data) - pos < payload:
        raise NetpbmError(
            f"truncated payload: expected {payload} bytes, found {len(data) - pos}",
            len(data),
        )
    arr = np.frombuffer(data, dtype=np.uint8, count=payload, offset=pos)
    return Image.from_array(arr.reshape(height, width, channels))


def encode_netpbm(pixels: np.ndarray) -> bytes:
    """P6 or P5 bytes of an (H, W) or (H, W, C) array that ``Image.from_array`` accepts."""
    image = Image.from_array(np.asarray(pixels))
    magic = b"P6" if image.pixels.shape[2] == 3 else b"P5"
    header = b"%s\n%d %d\n255\n" % (magic, image.width, image.height)
    return header + image.pixels.tobytes()


def read_image(path) -> Image:
    with open(path, "rb") as fh:
        return decode_netpbm(fh.read())


def write_image(pixels: np.ndarray, path) -> None:
    """Write ``pixels`` as netpbm; an array ``encode_netpbm`` rejects leaves no file."""
    data = encode_netpbm(pixels)
    with open(path, "wb") as fh:
        fh.write(data)


# ---------------------------------------------------------------------------
# Preprocessing chain
# ---------------------------------------------------------------------------


def to_uint8(values: np.ndarray) -> np.ndarray:
    """Round half up (floor(x + 0.5)), clamp to [0, 255] and cast to uint8."""
    return np.clip(np.floor(values + 0.5), 0, 255).astype(np.uint8)


def luma(pixels: np.ndarray) -> np.ndarray:
    """BT.601 luma of (..., H, W, C) uint8 pixels as (..., H, W) uint8, rounded by ``to_uint8``."""
    if pixels.shape[-1] == 1:
        return pixels[..., 0]
    rgb = pixels.astype(np.float64)
    return to_uint8(0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2])


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Discretized Gaussian of radius ceil(3*sigma), renormalized to sum 1."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


def _pad_planes(arr: np.ndarray, width: int, mode: str) -> np.ndarray:
    """``arr`` padded by ``width`` on both sides of its last two axes only."""
    return np.pad(arr, [(0, 0)] * (arr.ndim - 2) + [(width, width)] * 2, mode=mode)


def blur_array(arr: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of each (H, W) plane of a float array, clamp-to-border."""
    kernel = gaussian_kernel_1d(sigma)
    padded = _pad_planes(arr.astype(np.float64), len(kernel) // 2, "edge")
    # rows then columns; replicated padding makes the two passes independent
    rows = np.lib.stride_tricks.sliding_window_view(padded, len(kernel), axis=-1) @ kernel
    cols = np.lib.stride_tricks.sliding_window_view(rows, len(kernel), axis=-2) @ kernel
    return cols


def sobel_gradients(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """3x3 Sobel responses (gx, gy) of the (H, W) planes of ``arr``, clamp-to-border.

    Slices of the edge-padded planes are summed in one order: each kernel
    row's outer terms, then its middle one; rows top to bottom.  On planes
    with no negative value or -0.0 (Canny's blurred intensities) that gives
    the bits einsum gave, and they no longer depend on einsum's SIMD kernel.
    """
    padded = _pad_planes(arr, 1, "edge")
    h, w = arr.shape[-2:]
    p = [[padded[..., k : k + h, l : l + w] for l in range(3)] for k in range(3)]
    gx = ((p[0][2] - p[0][0]) + 2 * (p[1][2] - p[1][0])) + (p[2][2] - p[2][0])
    gy = ((p[2][0] + p[2][2]) + 2 * p[2][1]) - ((p[0][0] + p[0][2]) + 2 * p[0][1])
    return gx, gy


# offsets of the neighbor pair to compare against, per direction bin:
# 0 deg, 45 deg, 90 deg, 135 deg
_NMS_OFFSETS = ((0, 1), (1, 1), (1, 0), (1, -1))
# the gradient angles, in [0, 180) deg, at which bins 1, 2, 3 and then 0 again begin
_DIRECTION_EDGES = (22.5, 67.5, 112.5, 157.5)


def canny(images: np.ndarray, sigma: float, low: float, high: float) -> np.ndarray:
    """Classical Canny on each image of an (N, H, W, C) uint8 stack; (N, H, W) bool edges.

    Thresholds apply to the un-normalized Sobel magnitude of 8-bit
    intensities (a full black-to-white step peaks near 4*255).
    Non-maximum suppression keeps a magnitude or zeroes it, so a pixel
    below ``low`` never becomes an edge: direction bins and suppression
    are computed at the other pixels (candidates) only.  A suppressed
    candidate stays one for hysteresis exactly when ``low`` is 0.
    """
    if not 0 <= low < high:
        raise ValueError(f"thresholds must satisfy 0 <= low < high, got {low}, {high}")
    smoothed = blur_array(luma(images), sigma)
    gx, gy = sobel_gradients(smoothed)
    magnitude = np.hypot(gx, gy)
    n, h, w = magnitude.shape
    candidates = np.flatnonzero(magnitude >= low)
    m = magnitude.ravel()[candidates]
    angle = np.degrees(np.arctan2(gy.ravel()[candidates], gx.ravel()[candidates])) % 180.0
    bins = np.digitize(angle, _DIRECTION_EDGES) % len(_NMS_OFFSETS)
    # flat index of each candidate, and flat step to its neighbors, in the zero-padded stack
    image, y, x = np.unravel_index(candidates, (n, h, w))
    at = (image * (h + 2) + y + 1) * (w + 2) + x + 1
    step = np.array([dy * (w + 2) + dx for dy, dx in _NMS_OFFSETS])[bins]
    padded = _pad_planes(magnitude, 1, "constant").ravel()
    kept = (m >= padded[at + step]) & (m >= padded[at - step])
    # hysteresis: keep each 8-connected candidate component that holds a strong pixel
    mask = np.zeros(n * h * w, dtype=bool)
    mask[candidates[kept | (low == 0)]] = True
    labels, count = label_components(mask.reshape(n, h, w), connectivity=8)
    keep = np.zeros(count + 1, dtype=bool)  # the last slot, read by label -1, stays False
    keep[labels.ravel()[candidates[kept & (m >= high)]]] = True
    return keep[labels]


def otsu_threshold(gray: np.ndarray) -> int:
    """Threshold of the uint8 gray levels ``gray`` maximizing between-class variance.

    The smallest t wins ties.  The variance ordering is evaluated in exact
    integer arithmetic ((s0*w1 - s1*w0)^2 / (w0*w1) compared by
    cross-multiplication), so the result always equals the
    exhaustive-search optimum.  Only occupied levels are visited: between
    two of them w0 and s0 do not change, so no other t can win.  A
    single-valued array returns that value.
    """
    hist = np.bincount(gray.ravel(), minlength=256)
    levels = np.flatnonzero(hist).tolist()
    counts = hist[levels].tolist()
    if len(levels) == 1:
        return levels[0]
    total = sum(counts)
    total_sum = sum(v * c for v, c in zip(levels, counts))

    best_t = 0
    best_num, best_den = -1, 1
    w0 = 0
    s0 = 0
    for t, c in zip(levels[:-1], counts):  # the last level leaves w1 == 0
        w0 += c
        s0 += t * c
        w1 = total - w0
        s1 = total_sum - s0
        num = (s0 * w1 - s1 * w0) ** 2
        den = w0 * w1
        if num * best_den > best_num * den:
            best_num, best_den, best_t = num, den, t
    return best_t


def overlap(arr: np.ndarray, dy: int, dx: int) -> tuple[np.ndarray, np.ndarray]:
    """``arr`` and ``arr`` shifted by (dy, dx) in its last two axes, cut to where they overlap."""
    h, w = arr.shape[-2:]
    return (
        arr[..., : h - dy, max(-dx, 0) : w - max(dx, 0)],
        arr[..., dy:, max(dx, 0) : w + min(dx, 0)],
    )


def label_components(
    mask: np.ndarray, connectivity: int = 8, values: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Label the connected True regions of each (H, W) plane of an (N, H, W) bool mask.

    Two mask pixels of one plane are joined when they are 4- or
    8-neighbours and, if ``values`` (shaped as ``mask``) is given, hold
    equal values there.  The joined pairs are listed once with array
    slices.  Union-find runs over the mask's pixels only, numbered in flat
    order: it hooks the larger root of every pair whose ends differ onto
    the smaller one and pointer-jumps (parent = parent[parent]) until each
    pair shares a root, so a component's root is its first pixel.  Ranking
    the roots gives (labels, count): labels are 0..count-1 in plane order,
    then in row-major order of each component's first pixel, so each
    plane's labels form one contiguous block; -1 outside the mask.
    """
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    inside = mask.ravel()
    # each mask pixel's position among the mask's pixels
    position = (np.cumsum(inside) - 1).reshape(mask.shape)
    a, b = [], []
    # right and down, plus both lower diagonals for 8-connectivity
    for dy, dx in ((0, 1), (1, 0), (1, 1), (1, -1))[: connectivity // 2]:
        joined = np.logical_and(*overlap(mask, dy, dx))
        if values is not None:
            joined &= np.equal(*overlap(values, dy, dx))
        first, second = overlap(position, dy, dx)
        a.append(first[joined])
        b.append(second[joined])
    a, b = np.concatenate(a), np.concatenate(b)
    own = np.arange(np.count_nonzero(inside))
    parent = own.copy()
    while (split := parent[a] != parent[b]).any():
        a, b = a[split], b[split]
        ra, rb = parent[a], parent[b]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(parent[parent], parent):
            parent = parent[parent]
    is_root = parent == own
    rank = np.cumsum(is_root, dtype=np.int32) - 1
    labels = np.full(mask.shape, -1, dtype=np.int32)
    labels[mask] = rank[parent]
    return labels, int(is_root.sum())


def segment_grain(images: np.ndarray) -> np.ndarray:
    """Foreground masks of the largest bright region of each image, (N, H, W) bool.

    ``images`` is an (N, H, W, C) uint8 stack.  Otsu splits each image's
    grayscale histogram; the brighter side is foreground (grains
    photograph light on dark backgrounds) and only its largest 8-connected
    component is kept, the first in row-major order on a tie.  A constant
    nonzero image is entirely foreground; a pure black image has none and
    gives an all-False mask.
    """
    gray = luma(images)
    t = np.array([otsu_threshold(g) for g in gray], dtype=np.int64).reshape(-1, 1, 1)
    fg = gray > t
    bright = ~fg.any(axis=(1, 2)) & (t[:, 0, 0] > 0)
    fg[bright] = gray[bright] >= t[bright]  # single-valued bright frames
    labels, count = label_components(fg, connectivity=8)
    ids = labels[fg]
    sizes = np.bincount(ids, minlength=count)
    image_of = np.empty(count, dtype=np.int64)
    image_of[ids] = np.nonzero(fg)[0]
    # by image, then by size descending; the sort is stable, so the first label wins a tie
    order = np.lexsort((-sizes, image_of))
    largest = order[np.flatnonzero(np.diff(image_of[order], prepend=-1))]
    keep = np.zeros(count + 1, dtype=bool)  # the last slot, read by label -1, stays False
    keep[largest] = True
    return keep[labels]


def resize(images: np.ndarray, target_w: int, target_h: int) -> np.ndarray:
    """Bilinear resampling of (..., H, W, C) uint8 pixels on a center-aligned grid."""
    if target_w < 1 or target_h < 1:
        raise ValueError(f"target size must be positive, got {target_w}x{target_h}")
    images = np.asarray(images)
    height, width = images.shape[-3:-1]
    if target_w == width and target_h == height:
        return images
    src = images.astype(np.float64)
    sy = np.clip((np.arange(target_h) + 0.5) * height / target_h - 0.5, 0, height - 1)
    sx = np.clip((np.arange(target_w) + 0.5) * width / target_w - 0.5, 0, width - 1)
    y0 = np.floor(sy).astype(int)
    x0 = np.floor(sx).astype(int)
    y1 = np.minimum(y0 + 1, height - 1)
    x1 = np.minimum(x0 + 1, width - 1)
    wy = (sy - y0)[:, None, None]
    wx = (sx - x0)[None, :, None]
    top, bottom = src[..., y0, :, :], src[..., y1, :, :]
    top = top[..., x0, :] * (1 - wx) + top[..., x1, :] * wx
    bottom = bottom[..., x0, :] * (1 - wx) + bottom[..., x1, :] * wx
    blended = top * (1 - wy) + bottom * wy
    return to_uint8(blended)


def normalize(images: np.ndarray) -> np.ndarray:
    """(..., H, W, C) uint8 pixels scaled to [0, 1] as float64."""
    return np.asarray(images, dtype=np.float64) / 255.0


def augment(x: np.ndarray) -> list[np.ndarray]:
    """The fixed augmentation family of a square (H, W, C) array, as views of ``x``.

    Original, quarter turn counterclockwise, half turn, horizontal and
    vertical flip.
    """
    if x.shape[0] != x.shape[1]:
        raise ValueError(
            f"90 degree rotation needs a square image, got {x.shape[1]}x{x.shape[0]}"
        )
    return [x, np.rot90(x, 1, axes=(0, 1)), np.rot90(x, 2, axes=(0, 1)), x[:, ::-1], x[::-1]]
