"""Image I/O and the preprocessing chain.

Covers binary PPM/PGM parsing, grayscale conversion, Gaussian blur, Canny
edge extraction, Otsu thresholding with largest-component segmentation,
bilinear resize, [0,1] normalization, and the fixed five-way augmentation
set.  All operations are pure: images are read-only once constructed and
every function returns fresh buffers.

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


class SegmentationError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Image:
    """8-bit raster, (height, width, channels) uint8, channels interleaved."""

    width: int
    height: int
    channels: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.channels not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {self.channels}")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"degenerate image size {self.width}x{self.height}")
        expected = (self.height, self.width, self.channels)
        if self.pixels.shape != expected or self.pixels.dtype != np.uint8:
            raise ValueError(
                f"pixel buffer must be uint8 with shape {expected}, "
                f"got {self.pixels.dtype} {self.pixels.shape}"
            )
        self.pixels.flags.writeable = False

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Image":
        if arr.ndim == 2:
            arr = arr[:, :, None]
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        h, w, c = arr.shape
        return cls(width=w, height=h, channels=c, pixels=arr)


@dataclass(frozen=True, eq=False)
class EdgeMap:
    width: int
    height: int
    mask: np.ndarray  # bool, (height, width)


@dataclass(frozen=True, eq=False)
class SegmentMask:
    width: int
    height: int
    mask: np.ndarray  # bool, (height, width); True = foreground
    foreground_pixels: int


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


def encode_netpbm(image: Image) -> bytes:
    magic = b"P6" if image.channels == 3 else b"P5"
    header = b"%s\n%d %d\n255\n" % (magic, image.width, image.height)
    return header + image.pixels.tobytes()


def read_image(path) -> Image:
    with open(path, "rb") as fh:
        return decode_netpbm(fh.read())


def write_image(image: Image, path) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_netpbm(image))


# ---------------------------------------------------------------------------
# Preprocessing chain
# ---------------------------------------------------------------------------


def to_grayscale(image: Image) -> Image:
    """ITU-R BT.601 luma; grayscale inputs pass through unchanged.

    Rounding is half-up (floor(x + 0.5)), then clamped to [0, 255].
    """
    if image.channels == 1:
        return image
    rgb = image.pixels.astype(np.float64)
    luma = 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]
    out = np.clip(np.floor(luma + 0.5), 0, 255).astype(np.uint8)
    return Image.from_array(out)


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Discretized Gaussian of radius ceil(3*sigma), renormalized to sum 1."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


def blur_array(arr: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of a float (H,W) array, clamp-to-border."""
    kernel = gaussian_kernel_1d(sigma)
    radius = len(kernel) // 2
    padded = np.pad(arr.astype(np.float64), radius, mode="edge")
    # rows then columns; replicated padding makes the two passes independent
    rows = np.lib.stride_tricks.sliding_window_view(padded, len(kernel), axis=1) @ kernel
    cols = np.lib.stride_tricks.sliding_window_view(rows, len(kernel), axis=0) @ kernel
    return cols


def gaussian_blur(image: Image, sigma: float) -> Image:
    """Gaussian blur of a grayscale image; output re-quantized to uint8."""
    gray = to_grayscale(image)
    blurred = blur_array(gray.pixels[:, :, 0].astype(np.float64), sigma)
    return Image.from_array(np.clip(np.floor(blurred + 0.5), 0, 255).astype(np.uint8))


_SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64)
_SOBEL_Y = np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]], dtype=np.float64)


def _correlate3(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    padded = np.pad(arr, 1, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3))
    return np.einsum("ijkl,kl->ij", windows, kernel)


def sobel_gradients(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """3x3 Sobel responses (gx, gy) with clamp-to-border padding."""
    return _correlate3(arr, _SOBEL_X), _correlate3(arr, _SOBEL_Y)


# offsets of the neighbor pair to compare against, per direction bin:
# 0 deg, 45 deg, 90 deg, 135 deg
_NMS_OFFSETS = ((0, 1), (1, 1), (1, 0), (1, -1))


def _quantize_direction(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    angle = np.degrees(np.arctan2(gy, gx)) % 180.0
    bins = np.zeros(angle.shape, dtype=np.int8)
    bins[(angle >= 22.5) & (angle < 67.5)] = 1
    bins[(angle >= 67.5) & (angle < 112.5)] = 2
    bins[(angle >= 112.5) & (angle < 157.5)] = 3
    return bins


def non_maximum_suppression(magnitude: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Zero out pixels that are not local maxima along their gradient axis."""
    h, w = magnitude.shape
    out = np.zeros_like(magnitude)
    padded = np.pad(magnitude, 1, mode="constant")
    for b, (dy, dx) in enumerate(_NMS_OFFSETS):
        fwd = padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
        bwd = padded[1 - dy : 1 - dy + h, 1 - dx : 1 - dx + w]
        keep = (bins == b) & (magnitude >= fwd) & (magnitude >= bwd)
        out[keep] = magnitude[keep]
    return out


def canny(image: Image, sigma: float = 1.0, low: float = 50.0, high: float = 100.0) -> EdgeMap:
    """Classical Canny pipeline on the raw Sobel magnitude scale.

    Thresholds apply to the un-normalized gradient magnitude of 8-bit
    intensities (a full black-to-white step peaks near 4*255).
    """
    if not 0 <= low < high:
        raise ValueError(f"thresholds must satisfy 0 <= low < high, got {low}, {high}")
    gray = to_grayscale(image)
    smoothed = blur_array(gray.pixels[:, :, 0].astype(np.float64), sigma)
    gx, gy = sobel_gradients(smoothed)
    magnitude = np.hypot(gx, gy)
    suppressed = non_maximum_suppression(magnitude, _quantize_direction(gx, gy))
    # hysteresis: keep each 8-connected candidate component that holds a strong pixel
    labels, count = label_components(suppressed >= low, connectivity=8)
    keep = np.zeros(count + 1, dtype=bool)  # the last slot, read by label -1, stays False
    keep[labels[suppressed >= high]] = True
    return EdgeMap(width=image.width, height=image.height, mask=keep[labels])


def edge_map_to_image(edges: EdgeMap) -> Image:
    """Render an edge mask as a grayscale image (edges white), PGM-ready."""
    return Image.from_array(edges.mask.astype(np.uint8) * 255)


def otsu_threshold(image: Image) -> int:
    """Threshold maximizing between-class variance; smallest t wins ties.

    The variance ordering is evaluated in exact integer arithmetic
    ((s0*w1 - s1*w0)^2 / (w0*w1) compared by cross-multiplication), so the
    result always equals the exhaustive-search optimum.  A single-valued
    image returns that value.
    """
    gray = to_grayscale(image)
    hist = [int(c) for c in np.bincount(gray.pixels.ravel(), minlength=256)]
    total = sum(hist)
    total_sum = sum(v * c for v, c in enumerate(hist))

    nonzero = [v for v, c in enumerate(hist) if c]
    if len(nonzero) == 1:
        return nonzero[0]

    best_t = 0
    best_num, best_den = -1, 1
    w0 = 0
    s0 = 0
    for t in range(256):
        w0 += hist[t]
        s0 += t * hist[t]
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        s1 = total_sum - s0
        num = (s0 * w1 - s1 * w0) ** 2
        den = w0 * w1
        if num * best_den > best_num * den:
            best_num, best_den, best_t = num, den, t
    return best_t


def _overlap(arr: np.ndarray, dy: int, dx: int) -> tuple[np.ndarray, np.ndarray]:
    """``arr`` and ``arr`` shifted by (dy, dx), both cut to where they overlap."""
    h, w = arr.shape
    return arr[: h - dy, max(-dx, 0) : w - max(dx, 0)], arr[dy:, max(dx, 0) : w + min(dx, 0)]


def label_components(
    mask: np.ndarray, connectivity: int = 8, values: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Label connected True regions of a boolean mask.

    Two mask pixels are joined when they are 4- or 8-neighbours and, if
    ``values`` is given, hold equal values there.  The joined pairs are
    listed once with array slices.  Union-find then hooks the larger root
    of every pair whose ends differ onto the smaller one and pointer-jumps
    (parent = parent[parent]) until each pair shares a root, so a
    component's root is its smallest flat index.  Ranking the roots gives
    (labels, count): labels are 0..count-1 in row-major order of each
    component's first pixel, -1 outside the mask.
    """
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    h, w = mask.shape
    flat = np.arange(h * w)
    index = flat.reshape(h, w)
    pairs = []
    # right and down, plus both lower diagonals for 8-connectivity
    for dy, dx in ((0, 1), (1, 0), (1, 1), (1, -1))[: connectivity // 2]:
        joined = np.logical_and(*_overlap(mask, dy, dx))
        if values is not None:
            joined &= np.equal(*_overlap(values, dy, dx))
        pairs.append(np.stack(_overlap(index, dy, dx))[:, joined])
    a, b = np.concatenate(pairs, axis=1)
    parent = flat.copy()
    while (split := parent[a] != parent[b]).any():
        a, b = a[split], b[split]
        ra, rb = parent[a], parent[b]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(parent[parent], parent):
            parent = parent[parent]
    inside = mask.ravel()
    is_root = inside & (parent == flat)
    rank = np.cumsum(is_root, dtype=np.int32) - 1
    labels = np.where(inside, rank[parent], -1).reshape(h, w)
    return labels, int(is_root.sum())


def segment_grain(image: Image) -> SegmentMask:
    """Foreground mask of the largest bright region.

    Otsu splits the grayscale histogram; the brighter side is foreground
    (grains photograph light on dark backgrounds) and only its largest
    8-connected component is kept.  A constant nonzero image is entirely
    foreground; a pure black image has none and raises.
    """
    gray = to_grayscale(image)
    t = otsu_threshold(gray)
    fg = gray.pixels[:, :, 0] > t
    if not fg.any() and t > 0:
        fg = gray.pixels[:, :, 0] >= t  # single-valued bright frame
    if not fg.any():
        raise SegmentationError("no foreground component")
    labels, count = label_components(fg, connectivity=8)
    sizes = np.bincount(labels[labels >= 0].ravel(), minlength=count)
    keep = int(sizes.argmax())
    mask = labels == keep
    return SegmentMask(
        width=image.width,
        height=image.height,
        mask=mask,
        foreground_pixels=int(sizes[keep]),
    )


def apply_segment_mask(image: Image, mask: SegmentMask) -> Image:
    """Zero every background pixel, keeping foreground untouched."""
    out = image.pixels.copy()
    out[~mask.mask] = 0
    return Image.from_array(out)


def resize(image: Image, target_w: int, target_h: int) -> Image:
    """Bilinear resampling on a center-aligned grid."""
    if target_w < 1 or target_h < 1:
        raise ValueError(f"target size must be positive, got {target_w}x{target_h}")
    if target_w == image.width and target_h == image.height:
        return image
    src = image.pixels.astype(np.float64)
    sy = (np.arange(target_h) + 0.5) * image.height / target_h - 0.5
    sx = (np.arange(target_w) + 0.5) * image.width / target_w - 0.5
    sy = np.clip(sy, 0, image.height - 1)
    sx = np.clip(sx, 0, image.width - 1)
    y0 = np.floor(sy).astype(int)
    x0 = np.floor(sx).astype(int)
    y1 = np.minimum(y0 + 1, image.height - 1)
    x1 = np.minimum(x0 + 1, image.width - 1)
    wy = (sy - y0)[:, None, None]
    wx = (sx - x0)[None, :, None]
    top = src[y0][:, x0] * (1 - wx) + src[y0][:, x1] * wx
    bottom = src[y1][:, x0] * (1 - wx) + src[y1][:, x1] * wx
    blended = top * (1 - wy) + bottom * wy
    return Image.from_array(np.clip(np.floor(blended + 0.5), 0, 255).astype(np.uint8))


def normalize(image: Image) -> np.ndarray:
    """Pixel values scaled to [0,1] as a float64 (H,W,C) tensor."""
    return image.pixels.astype(np.float64) / 255.0


def rotate90(image: Image) -> Image:
    """Quarter turn counterclockwise; requires a square image."""
    if image.width != image.height:
        raise ValueError(
            f"90 degree rotation needs a square image, got {image.width}x{image.height}"
        )
    return Image.from_array(np.rot90(image.pixels, 1, axes=(0, 1)))


def rotate180(image: Image) -> Image:
    return Image.from_array(np.rot90(image.pixels, 2, axes=(0, 1)))


def flip_horizontal(image: Image) -> Image:
    return Image.from_array(image.pixels[:, ::-1])


def flip_vertical(image: Image) -> Image:
    return Image.from_array(image.pixels[::-1, :])


def augment(image: Image) -> list[Image]:
    """The fixed augmentation family: original, rot90, rot180, both flips."""
    return [
        image,
        rotate90(image),
        rotate180(image),
        flip_horizontal(image),
        flip_vertical(image),
    ]
