"""Superpixel attribution: SLIC segmentation, LIME surrogates, Shapley values.

Attributions are computed per superpixel of an (H, W, C) uint8 image for one
designated class.  Both explainers estimate one coalition game, built by
``coalition_value``: a mask over the M segments keeps the included regions'
pixels and paints the rest with a baseline color, and the value is the
model's probability of the class on that image.  LIME rejects a kernel width
at which the masks that drop a segment weigh nothing beside the full mask;
KernelSHAP samples coalition sizes by the closed-form kernel mass
(M - 1) / (s (M - s)), which, unlike C(M, s), fits a float at any M.

Both are weighted least squares on the masks, summed chunk by chunk into
one M x M system.  KernelSHAP eliminates its last coefficient through
sum(phi) = v(full) - v(empty) and solves by minimum-norm least squares, so
local accuracy holds exactly even on a rank-deficient sample; with full
enumeration it is the factorial-weighted Shapley value, the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .imaging import label_components, overlap, to_uint8
from .rng import Rng

Model = Callable[[np.ndarray], np.ndarray]
Game = Callable[[np.ndarray], float]


@dataclass(frozen=True, eq=False)
class SuperpixelMap:
    labels: np.ndarray  # (H,W) int32, values in [0, count)
    count: int


# ---------------------------------------------------------------------------
# SLIC-style superpixels
# ---------------------------------------------------------------------------


def _grid_centers(width: int, height: int, target: int) -> tuple[np.ndarray, float]:
    spacing = math.sqrt(width * height / target)
    gx = max(1, round(width / spacing))
    gy = max(1, round(height / spacing))
    ys = (np.arange(gy) + 0.5) * height / gy - 0.5
    xs = (np.arange(gx) + 0.5) * width / gx - 0.5
    centers = np.array([(y, x) for y in ys for x in xs])
    return centers, spacing


def _color_features(image: np.ndarray) -> np.ndarray:
    # scaled-RGB stand-in for Lab: each channel mapped to [0, 100]
    return np.asarray(image, dtype=np.float64) * (100.0 / 255.0)


def slic_superpixels(
    image: np.ndarray, target: int, compactness: float, iters: int
) -> SuperpixelMap:
    """Windowed k-means over (color, position) with connectivity cleanup.

    This is SLIC as published (Achanta et al., TPAMI 2012).  Centers start
    on a regular grid with spacing S = sqrt(h*w / target); the distance is
    color distance plus ``compactness`` times spatial distance over S.
    Each iteration compares every center only with the pixels of its
    2S x 2S window, ``[cy - S, cy + S] x [cx - S, cx + S]`` with S rounded
    up and the window clipped to the image, and keeps per pixel the best
    distance seen so far.  Centers are visited in id order and a pixel
    moves only to a strictly closer center, so on a tie the lowest id wins.
    The initial grid puts every pixel inside some window; a pixel that no
    window reaches on a later iteration keeps its previous label.  Each
    center then moves to the mean color and position of its pixels; a
    center left with no pixels keeps its last color and position.  Each
    pixel lies in about four windows, so memory and the array work are
    O(iters * h * w) and no pixel x center matrix is built; the loop over
    centers runs in Python, so time is O(iters * (h * w + target)): 0.10 s
    at 100 segments and 2.8 s at 1,000 on a 224 px image.

    After iteration, fragments disconnected from their segment's largest
    component are folded into the biggest adjacent segment, then ids are
    compacted to 0..count-1.
    """
    color = _color_features(image)
    h, w = color.shape[:2]
    if target < 1:
        raise ValueError(f"superpixel target must be >= 1, got {target}")
    if target > h * w:
        raise ValueError(f"cannot split {h * w} pixels into {target} superpixels")
    if iters < 1:
        raise ValueError(f"iteration count must be >= 1, got {iters}")

    centers_pos, spacing = _grid_centers(w, h, target)
    idx = np.clip(np.rint(centers_pos), 0, [h - 1, w - 1]).astype(int)
    # one row per center and per pixel: y, x, then the color channels
    centers = np.hstack([centers_pos, color[idx[:, 0], idx[:, 1]]])
    yy, xx = np.indices((h, w))
    points = np.column_stack([yy.ravel(), xx.ravel(), color.reshape(h * w, -1)])
    radius = math.ceil(spacing)
    scale = compactness / spacing

    labels = np.zeros((h, w), dtype=np.int32)
    for _ in range(iters):
        best = np.full((h, w), np.inf)
        for c, center in enumerate(centers):
            cy, cx = center[:2]
            y0, y1 = max(0, math.ceil(cy - radius)), min(h, math.floor(cy + radius) + 1)
            x0, x1 = max(0, math.ceil(cx - radius)), min(w, math.floor(cx + radius) + 1)
            dy = np.arange(y0, y1) - cy
            dx = np.arange(x0, x1) - cx
            diff = color[y0:y1, x0:x1] - center[2:]
            dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            dist += scale * np.sqrt(dy[:, None] ** 2 + dx**2)
            window = (slice(y0, y1), slice(x0, x1))
            closer = dist < best[window]
            best[window][closer] = dist[closer]
            labels[window][closer] = c

        flat = labels.ravel()
        sizes = np.bincount(flat, minlength=len(centers))
        sums = np.stack(
            [np.bincount(flat, weights=p, minlength=len(centers)) for p in points.T], axis=1
        )
        filled = sizes > 0
        centers[filled] = sums[filled] / sizes[filled, None]

    labels = _enforce_connectivity(labels)
    return SuperpixelMap(labels=labels, count=int(labels.max()) + 1)


def _first_occurrence_ids(values: np.ndarray) -> np.ndarray:
    """Renumber values 0..n-1 in row-major order of first occurrence."""
    _, first, inverse = np.unique(values.ravel(), return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int32)
    rank[np.argsort(first)] = np.arange(len(first), dtype=np.int32)
    return rank[inverse].reshape(values.shape)


def _enforce_connectivity(labels: np.ndarray) -> np.ndarray:
    """Merge orphan fragments into their largest adjacent segment.

    Each segment keeps its largest 4-connected component, the first in
    row-major order on a tie.  The other components (orphans), taken in
    row-major first-pixel order, join the 4-adjacent settled segment with
    the largest running size, the lowest id on a tie; an orphan with no
    settled neighbor waits for the next pass.
    """
    # every 4-connected region of one label, numbered in row-major first-pixel order
    stack = labels[None]
    comp, count = label_components(np.ones(stack.shape, dtype=bool), 4, values=stack)
    comp = comp[0]
    sizes = np.bincount(comp.ravel()).tolist()
    seg_of = np.empty(count, dtype=np.int64)
    seg_of[comp.ravel()] = labels.ravel()
    seg_of = seg_of.tolist()

    a = np.concatenate([comp[:, :-1].ravel(), comp[:-1].ravel()]).astype(np.int64)
    b = np.concatenate([comp[:, 1:].ravel(), comp[1:].ravel()]).astype(np.int64)
    neighbors: list[set[int]] = [set() for _ in range(count)]
    for edge in np.unique((a * count + b)[a != b]).tolist():
        x, y = divmod(edge, count)
        neighbors[x].add(y)
        neighbors[y].add(x)

    anchor: dict[int, int] = {}
    for cid, seg in enumerate(seg_of):
        if seg not in anchor or sizes[cid] > sizes[anchor[seg]]:
            anchor[seg] = cid
    settled = set(anchor.values())
    seg_sizes = {seg: sizes[cid] for seg, cid in anchor.items()}

    orphans = [cid for cid in range(count) if cid not in settled]
    while orphans:
        remaining = []
        for cid in orphans:
            neighbor_segs = {seg_of[n] for n in neighbors[cid] if n in settled}
            if not neighbor_segs:
                remaining.append(cid)
                continue
            target = max(neighbor_segs, key=lambda s: (seg_sizes[s], -s))
            seg_of[cid] = target
            seg_sizes[target] += sizes[cid]
            settled.add(cid)
        if len(remaining) == len(orphans):
            raise RuntimeError("connectivity enforcement failed to converge")
        orphans = remaining

    return _first_occurrence_ids(np.array(seg_of)[comp])


# ---------------------------------------------------------------------------
# Perturbation
# ---------------------------------------------------------------------------


def mean_baseline(image: np.ndarray) -> tuple[int, ...]:
    means = np.mean(image, axis=(0, 1))
    return tuple(int(v) for v in to_uint8(means))


def perturb(
    image: np.ndarray, superpixels: SuperpixelMap, mask: np.ndarray, baseline: tuple[int, ...]
) -> np.ndarray:
    """A copy of ``image`` whose excluded segments are painted the baseline color."""
    mask = np.asarray(mask)
    if mask.shape != (superpixels.count,):
        raise ValueError(f"mask length {mask.shape} does not match {superpixels.count} segments")
    out = np.array(image)
    # putmask repeats the C baseline values along the C-order pixels, one per channel
    excluded = np.repeat((~mask.astype(bool)).take(superpixels.labels), out.shape[2])
    np.putmask(out, excluded.reshape(out.shape), np.array(baseline, dtype=np.uint8))
    return out


def coalition_value(
    model: Model,
    image: np.ndarray,
    superpixels: SuperpixelMap,
    class_index: int,
    baseline: tuple[int, ...],
) -> Game:
    """The game both explainers estimate: a segment mask to the class probability."""

    def value(mask: np.ndarray) -> float:
        return float(model(perturb(image, superpixels, mask, baseline))[class_index])

    return value


# ---------------------------------------------------------------------------
# LIME and KernelSHAP: one streamed weighted least-squares core
# ---------------------------------------------------------------------------

# mask values per chunk: 2**20 float64 values (8 MB), so a chunk has at most 2**20 // M rows
CHUNK_VALUES = 2**20


def _row_ranges(n: int, m: int):
    """(start, stop) ranges covering n rows in as few even chunks of at most CHUNK_VALUES // m."""
    chunks = -(-n // max(1, CHUNK_VALUES // m))
    step = -(-n // chunks) if chunks else 1
    return ((a, min(a + step, n)) for a in range(0, n, step))


def _id_masks(start: int, stop: int, m: int):
    """Masks of ids start .. stop - 1 in chunks: segment i is kept when bit i of the id is set."""
    for a, b in _row_ranges(stop - start, m):
        yield ((np.arange(start + a, start + b)[:, None] >> np.arange(m)) & 1).astype(np.float64)


def _normal_equations(chunks, value: Game, design, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Sums of d.T @ (w * d) and (w * d).T @ t over (masks, weights) chunks.

    ``value`` is called once per mask, in order; ``design`` maps a chunk's
    masks and values to its ``width`` regressors d and targets t.  One chunk
    is held at a time: O(M^2 + one chunk) floats at any number of masks.
    """
    gram, rhs = np.zeros((width, width)), np.zeros(width)
    for masks, weights in chunks:
        rows, targets = design(masks, np.array([float(value(z)) for z in masks]))
        weighted = rows * weights[:, None]
        gram += rows.T @ weighted
        rhs += weighted.T @ targets
        del masks, weights, rows, weighted  # free this chunk before the next is made
    return gram, rhs


def _proximity_weights(masks: np.ndarray, kernel_width: float) -> np.ndarray:
    m = masks.shape[1]
    kept = masks.sum(axis=1)
    distance = np.where(kept > 0, 1.0 - np.sqrt(kept / m), 1.0)
    # a width with a subnormal square sends d^2 / w^2 to inf, a weight of exactly 0
    with np.errstate(over="ignore"):
        return np.exp(-(distance**2) / kernel_width**2)


def _drawn_masks(draws: Rng, n: int, m: int):
    """The full mask, then n - 1 masks keeping each segment with probability 1/2, in chunks."""
    for a, b in _row_ranges(n, m):
        masks = (draws.random((b - max(a, 1), m)) < 0.5).astype(np.float64)
        yield np.vstack([np.ones((1, m)), masks]) if a == 0 else masks


def lime_explain(
    value: Game, m: int, n_samples: int, kernel_width: float, ridge: float, rng: Rng
) -> np.ndarray:
    """Per-segment coefficients of a weighted ridge surrogate of ``value``.

    An ``n_samples`` below M + 2 is raised to M + 2, so the surrogate (M
    coefficients and an intercept) has more samples than unknowns.  When
    2^M fits inside ``n_samples`` the full mask space is enumerated instead
    of sampled.  A kernel width at which the masks dropping a segment weigh
    so little in sum that 1.0 (the full mask's weight) plus the sum is 1.0
    is rejected before ``value`` is called: the fit would see no other mask.
    """
    n_samples = max(n_samples, m + 2)
    # a width whose square underflows to 0 would weigh the full mask exp(-0/0)
    if not (kernel_width > 0 and kernel_width * kernel_width > 0):
        raise ValueError(
            f"kernel width must be positive with a positive square, got {kernel_width}"
        )
    if ridge < 0:
        raise ValueError(f"ridge strength must be non-negative, got {ridge}")

    # made twice, for the width check and for the fit: drawn masks restart their stream
    def chunks():
        if m <= 30 and 2**m <= n_samples:
            blocks = _id_masks(0, 2**m, m)
        else:
            blocks = _drawn_masks(rng.child("lime-masks"), n_samples, m)
        for masks in blocks:
            yield masks, _proximity_weights(masks, kernel_width)

    if 1.0 + sum(w[masks.sum(axis=1) < m].sum() for masks, w in chunks()) == 1.0:
        raise ValueError(
            f"kernel width {kernel_width} gives every mask that drops a segment weight 0"
        )

    # weighted ridge with free intercept: penalty applies to coefficients only
    gram, rhs = _normal_equations(
        chunks(), value, lambda masks, y: (np.hstack([np.ones((len(masks), 1)), masks]), y), m + 1
    )
    penalty = np.eye(m + 1) * ridge
    penalty[0, 0] = 0.0
    try:
        beta = np.linalg.solve(gram + penalty, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular regression system; retry with ridge > 0") from exc
    return beta[1:]


def _shapley_kernel_weight(m: int, size: int) -> float:
    return (m - 1) / (math.comb(m, size) * size * (m - size))


def kernel_shap(value: Game, m: int, n_samples: int, rng: Rng) -> np.ndarray:
    """Shapley values of a coalition game over ``m`` players.

    All 2^m - 2 proper coalitions are enumerated when they fit inside
    ``n_samples``; otherwise coalitions are sampled proportional to the
    Shapley kernel weight in complementary pairs.  The empty and full
    coalitions enter as constraints, never as regression rows, so local
    accuracy holds exactly either way.
    """
    if m < 1:
        raise ValueError(f"need at least one player, got {m}")
    v_empty = float(value(np.zeros(m)))
    delta = float(value(np.ones(m))) - v_empty

    if 2**m - 2 <= n_samples:
        # ids 1 .. 2^m - 2: every coalition but the empty and the full one
        size_weight = np.array([_shapley_kernel_weight(m, s) for s in range(1, m)])
        chunks = (
            (z, size_weight[z.sum(axis=1).astype(int) - 1]) for z in _id_masks(1, 2**m - 1, m)
        )
    else:
        packed, counts = _sample_coalitions(m, n_samples, rng.child("shap-masks"))
        chunks = (
            (np.unpackbits(packed[a:b], axis=1, count=m).astype(np.float64), counts[a:b])
            for a, b in _row_ranges(len(packed), m)
        )

    def design(masks: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z_last = masks[:, -1]  # the last player is eliminated through sum(phi) = delta
        return masks[:, :-1] - z_last[:, None], targets - v_empty - z_last * delta

    psi = np.linalg.lstsq(*_normal_equations(chunks, value, design, m - 1), rcond=None)[0]
    return np.append(psi, delta - psi.sum())


def _sample_coalitions(m: int, n_samples: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw coalitions proportional to kernel weight, in complement pairs.

    Returns the distinct coalitions as ``np.packbits`` rows (M/8 bytes each)
    in the order they were first drawn, and how often each was drawn.
    """
    sizes = np.arange(1, m)
    # the kernel mass of all C(m, s) coalitions of size s, without the binomial
    size_weight = (m - 1) / (sizes * (m - sizes))
    cumulative = np.cumsum(size_weight / size_weight.sum())
    pairs = max(1, n_samples // 2)
    drawn = np.empty((2 * pairs, (m + 7) // 8), dtype=np.uint8)
    for i in range(pairs):
        size = 1 + int(np.searchsorted(cumulative, rng.random()))
        mask = np.zeros(m, dtype=bool)
        mask[rng.permutation(m)[:size]] = True
        drawn[2 * i], drawn[2 * i + 1] = np.packbits(mask), np.packbits(~mask)
    # one void field per row: a byte compare per row, not a structured sort of M/8 fields
    rows = drawn.view(np.dtype((np.void, drawn.shape[1]))).ravel()
    order = np.argsort(rows, kind="stable")  # equal rows keep the order they were drawn in
    # a row that differs from its predecessor in sorted order is a new coalition's first draw;
    # the rows are compared through the permutation a chunk at a time, never copied whole
    starts = np.ones(len(rows), dtype=bool)
    for a, b in _row_ranges(len(rows) - 1, drawn.shape[1]):
        starts[a + 1 : b + 1] = rows.take(order[a + 1 : b + 1]) != rows.take(order[a:b])
    first = order[starts]
    counts = np.diff(np.append(np.flatnonzero(starts), len(rows)))
    del order, starts
    keep = np.argsort(first)  # first-drawn order
    return drawn[first[keep]], counts[keep].astype(np.float64)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _ensure_rgb(image: np.ndarray) -> np.ndarray:
    if image.shape[2] == 3:
        return image.copy()
    return np.repeat(image, 3, axis=2)


def _highlight_boundary(superpixels: SuperpixelMap, highlight: np.ndarray) -> np.ndarray:
    """Pixels inside highlighted segments with a 4-neighbor outside them."""
    hl = highlight[superpixels.labels]
    boundary = np.zeros_like(hl)
    for dy, dx in ((0, 1), (1, 0)):
        a, b = overlap(hl, dy, dx)
        edge_a, edge_b = overlap(boundary, dy, dx)  # views: |= writes into boundary
        edge_a |= a & ~b
        edge_b |= b & ~a
    return boundary


def render_lime_heatmap(
    image: np.ndarray, superpixels: SuperpixelMap, weights: np.ndarray, top_k: int
) -> np.ndarray:
    """Original image with a 1-pixel yellow outline on the ``top_k`` most positive segments.

    Segments are ranked by a stable sort of their weights, so a tie keeps
    the lower id; a segment whose weight is not positive is never outlined.
    """
    top = np.argsort(-weights, kind="stable")[:top_k]
    highlight = np.zeros(superpixels.count, dtype=bool)
    highlight[top[weights[top] > 0]] = True
    rgb = _ensure_rgb(image)
    rgb[_highlight_boundary(superpixels, highlight)] = (255, 255, 0)
    return rgb


def render_shap_heatmap(
    image: np.ndarray, superpixels: SuperpixelMap, weights: np.ndarray
) -> np.ndarray:
    """Red-positive / blue-negative overlay scaled by |weight| / max |weight|.

    The per-pixel blend factor is 0.5 at the strongest segment, fading to
    0 for zero-weight segments, so an all-zero attribution is a no-op.
    """
    rgb = _ensure_rgb(image).astype(np.float64)
    peak = float(np.max(np.abs(weights))) if len(weights) else 0.0
    if peak > 0:
        norm = weights / peak
        strength = np.abs(norm)[superpixels.labels]
        color = np.where(
            (norm > 0)[superpixels.labels][:, :, None],
            np.array([255.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 255.0]),
        )
        alpha = 0.5 * strength[:, :, None]
        rgb = (1 - alpha) * rgb + alpha * color
    return to_uint8(rgb)


def write_attribution_csv(path, weights: np.ndarray, class_index: int, method: str) -> None:
    """One weight per segment, then the explained class and the method (lime | kernel_shap)."""
    with open(path, "w", newline="") as fh:
        fh.write("segment_id,weight\n")
        for i, weight in enumerate(weights):
            fh.write(f"{i},{float(weight)!r}\n")
        fh.write(f"class,{class_index}\n")
        fh.write(f"method,{method}\n")
