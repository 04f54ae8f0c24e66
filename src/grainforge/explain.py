"""Superpixel attribution: SLIC segmentation, LIME surrogates, Shapley values.

Attributions are computed per superpixel for one designated class.  Both
explainers share the same perturbation semantics: a binary mask over
segments selects which regions keep their pixels and which are replaced
by a baseline color (per-image mean unless overridden).

The KernelSHAP solver enforces local accuracy exactly: the last
coefficient is eliminated through the constraint sum(phi) = v(full) -
v(empty), and the reduced system is solved by minimum-norm least squares,
so the attributions sum to the model delta even when the sampled
coalitions leave that system rank-deficient.  With full coalition
enumeration the solution coincides with the factorial-weighted Shapley
definition, and :func:`exact_shapley` provides that brute-force form as
an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .imaging import Image, label_components
from .rng import Rng

MAX_EXACT_PLAYERS = 12

Model = Callable[[Image], np.ndarray]


@dataclass(frozen=True, eq=False)
class SuperpixelMap:
    width: int
    height: int
    labels: np.ndarray  # (H,W) int32, values in [0, count)
    count: int


@dataclass(frozen=True, eq=False)
class Attribution:
    weights: np.ndarray  # one weight per segment
    class_index: int
    method: str  # lime | kernel_shap | exact_shapley
    baseline: str


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


def _color_features(image: Image) -> np.ndarray:
    # scaled-RGB stand-in for Lab: each channel mapped to [0, 100]
    return image.pixels.astype(np.float64) * (100.0 / 255.0)


def slic_superpixels(
    image: Image, target: int, compactness: float = 10.0, iters: int = 10
) -> SuperpixelMap:
    """k-means over (color, position) with connectivity cleanup.

    Centers start on a regular grid; the distance is color distance plus
    ``compactness`` times spatial distance over the grid spacing.  After
    iteration, fragments disconnected from their segment's largest
    component are folded into the biggest adjacent segment, then ids are
    compacted to 0..count-1.
    """
    h, w = image.height, image.width
    if target < 1:
        raise ValueError(f"superpixel target must be >= 1, got {target}")
    if target > h * w:
        raise ValueError(f"cannot split {h * w} pixels into {target} superpixels")
    if iters < 1:
        raise ValueError(f"iteration count must be >= 1, got {iters}")

    color = _color_features(image).reshape(h * w, -1)
    yy, xx = np.mgrid[0:h, 0:w]
    pos = np.stack([yy.ravel(), xx.ravel()], axis=1).astype(np.float64)

    centers_pos, spacing = _grid_centers(w, h, target)
    idx = np.clip(np.rint(centers_pos), 0, [h - 1, w - 1]).astype(int)
    centers_color = color[idx[:, 0] * w + idx[:, 1]]

    def pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = (a**2).sum(axis=1)[:, None] - 2.0 * (a @ b.T) + (b**2).sum(axis=1)[None]
        return np.sqrt(np.maximum(sq, 0.0))

    assignment = None
    for _ in range(iters):
        color_d = pairwise(color, centers_color)
        spatial_d = pairwise(pos, centers_pos)
        assignment = np.argmin(color_d + compactness * spatial_d / spacing, axis=1)
        for c in range(len(centers_pos)):
            members = assignment == c
            if members.any():
                centers_color[c] = color[members].mean(axis=0)
                centers_pos[c] = pos[members].mean(axis=0)

    labels = assignment.reshape(h, w).astype(np.int32)
    labels = _enforce_connectivity(labels)
    return SuperpixelMap(width=w, height=h, labels=labels, count=int(labels.max()) + 1)


def _first_occurrence_ids(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Renumber values 0..n-1 in row-major order of first occurrence."""
    _, first, inverse = np.unique(values.ravel(), return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int32)
    rank[np.argsort(first)] = np.arange(len(first), dtype=np.int32)
    return rank[inverse].reshape(values.shape), len(first)


def _enforce_connectivity(labels: np.ndarray) -> np.ndarray:
    """Merge orphan fragments into their largest adjacent segment.

    Each segment keeps its largest 4-connected component, the first in
    row-major order on a tie.  The other components (orphans), taken in
    row-major first-pixel order, join the 4-adjacent settled segment with
    the largest running size, the lowest id on a tie; an orphan with no
    settled neighbor waits for the next pass.
    """
    # every 4-connected region of one label, numbered in row-major first-pixel order
    comp, count = label_components(np.ones(labels.shape, dtype=bool), 4, values=labels)
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

    return _first_occurrence_ids(np.array(seg_of)[comp])[0]


# ---------------------------------------------------------------------------
# Perturbation
# ---------------------------------------------------------------------------


def mean_baseline(image: Image) -> tuple[int, ...]:
    means = image.pixels.reshape(-1, image.channels).mean(axis=0)
    return tuple(int(v) for v in np.clip(np.floor(means + 0.5), 0, 255))


def perturb(
    image: Image,
    superpixels: SuperpixelMap,
    mask: np.ndarray,
    baseline: tuple[int, ...] | None = None,
) -> Image:
    """Replace the pixels of every excluded segment with the baseline color."""
    mask = np.asarray(mask)
    if mask.shape != (superpixels.count,):
        raise ValueError(
            f"mask length {mask.shape} does not match {superpixels.count} segments"
        )
    if baseline is None:
        baseline = mean_baseline(image)
    excluded = ~mask.astype(bool)
    out = image.pixels.copy()
    out[excluded[superpixels.labels]] = np.array(baseline, dtype=np.uint8)
    return Image.from_array(out)


# ---------------------------------------------------------------------------
# LIME
# ---------------------------------------------------------------------------


def _enumerate_masks(m: int) -> np.ndarray:
    ids = np.arange(2**m, dtype=np.uint32)
    return ((ids[:, None] >> np.arange(m)) & 1).astype(np.float64)


def _proximity_weights(masks: np.ndarray, kernel_width: float) -> np.ndarray:
    m = masks.shape[1]
    kept = masks.sum(axis=1)
    distance = np.where(kept > 0, 1.0 - np.sqrt(kept / m), 1.0)
    return np.exp(-(distance**2) / kernel_width**2)


def lime_explain(
    model: Model,
    image: Image,
    superpixels: SuperpixelMap,
    class_index: int,
    n_samples: int = 1000,
    kernel_width: float = 0.25,
    ridge: float = 1.0,
    top_k: int = 5,
    rng: Rng | None = None,
    baseline: tuple[int, ...] | None = None,
) -> tuple[Attribution, np.ndarray]:
    """Weighted ridge surrogate over mask perturbations.

    Returns the per-segment coefficients and the highlight mask of the
    ``top_k`` most positive segments.  When 2^M fits inside ``n_samples``
    the full mask space is enumerated instead of sampled.
    """
    m = superpixels.count
    if n_samples < m + 2:
        raise ValueError(f"need at least {m + 2} samples for {m} segments")
    if kernel_width <= 0:
        raise ValueError(f"kernel width must be positive, got {kernel_width}")
    if ridge < 0:
        raise ValueError(f"ridge strength must be non-negative, got {ridge}")
    if rng is None:
        rng = Rng(0)

    if m <= 30 and 2**m <= n_samples:
        masks = _enumerate_masks(m)
    else:
        draws = (rng.child("lime-masks").random((n_samples - 1, m)) < 0.5).astype(np.float64)
        masks = np.vstack([np.ones((1, m)), draws])

    if baseline is None:
        baseline = mean_baseline(image)
    targets = np.array(
        [model(perturb(image, superpixels, mask, baseline))[class_index] for mask in masks]
    )
    weights = _proximity_weights(masks, kernel_width)

    # weighted ridge with free intercept: penalty applies to coefficients only
    design = np.hstack([np.ones((len(masks), 1)), masks])
    wx = design * weights[:, None]
    gram = design.T @ wx
    penalty = np.eye(m + 1) * ridge
    penalty[0, 0] = 0.0
    rhs = wx.T @ targets
    try:
        beta = np.linalg.solve(gram + penalty, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "singular regression system; retry with ridge > 0"
        ) from exc

    coefficients = beta[1:]
    order = np.argsort(-coefficients, kind="stable")
    highlight = np.zeros(m, dtype=bool)
    for idx in order[:top_k]:
        if coefficients[idx] > 0:
            highlight[idx] = True
    attribution = Attribution(
        weights=coefficients,
        class_index=class_index,
        method="lime",
        baseline=f"rgb{tuple(baseline)}",
    )
    return attribution, highlight


# ---------------------------------------------------------------------------
# Shapley values
# ---------------------------------------------------------------------------


def exact_shapley(value_fn: Callable[[np.ndarray], float], m: int) -> np.ndarray:
    """Brute-force Shapley values over all 2^m coalitions.

    phi_i = sum over S not containing i of
            |S|! (m-|S|-1)! / m! * (v(S + i) - v(S))
    """
    if m > MAX_EXACT_PLAYERS:
        raise ValueError(
            f"exact enumeration refused for {m} > {MAX_EXACT_PLAYERS} players"
        )
    values = {}
    for s in range(2**m):
        mask = np.array([(s >> i) & 1 for i in range(m)], dtype=np.float64)
        values[s] = float(value_fn(mask))
    fact = [math.factorial(i) for i in range(m + 1)]
    phi = np.zeros(m)
    for i in range(m):
        for s in range(2**m):
            if s & (1 << i):
                continue
            size = bin(s).count("1")
            weight = fact[size] * fact[m - size - 1] / fact[m]
            phi[i] += weight * (values[s | (1 << i)] - values[s])
    return phi


def _shapley_kernel_weight(m: int, size: int) -> float:
    return (m - 1) / (math.comb(m, size) * size * (m - size))


def kernel_shap_values(
    value_fn: Callable[[np.ndarray], float],
    m: int,
    n_samples: int = 2048,
    rng: Rng | None = None,
) -> np.ndarray:
    """Shapley values of an arbitrary coalition value function.

    All 2^m - 2 proper coalitions are enumerated when they fit inside
    ``n_samples``; otherwise coalitions are sampled proportional to the
    Shapley kernel weight in complementary pairs.  The empty and full
    coalitions enter as constraints, never as regression rows, so local
    accuracy holds exactly either way.
    """
    if m < 1:
        raise ValueError(f"need at least one player, got {m}")
    if rng is None:
        rng = Rng(0)
    v_empty = float(value_fn(np.zeros(m)))
    v_full = float(value_fn(np.ones(m)))
    delta = v_full - v_empty
    if m == 1:
        return np.array([delta])

    if 2**m - 2 <= n_samples:
        masks = _enumerate_masks(m)
        keep = (masks.sum(axis=1) > 0) & (masks.sum(axis=1) < m)
        masks = masks[keep]
        weights = np.array(
            [_shapley_kernel_weight(m, int(z.sum())) for z in masks]
        )
    else:
        masks, weights = _sample_coalitions(m, n_samples, rng.child("shap-masks"))

    targets = np.array([float(value_fn(z)) for z in masks])
    return _constrained_solve(masks, weights, targets, v_empty, delta)


def kernel_shap(
    model: Model,
    image: Image,
    superpixels: SuperpixelMap,
    class_index: int,
    baseline: tuple[int, ...] | None = None,
    n_samples: int = 2048,
    rng: Rng | None = None,
) -> Attribution:
    """Per-superpixel Shapley attributions of one class probability."""
    if baseline is None:
        baseline = mean_baseline(image)

    def value(mask: np.ndarray) -> float:
        return float(model(perturb(image, superpixels, mask, baseline))[class_index])

    phi = kernel_shap_values(value, superpixels.count, n_samples=n_samples, rng=rng)
    return Attribution(
        weights=phi,
        class_index=class_index,
        method="kernel_shap",
        baseline=f"rgb{tuple(baseline)}",
    )


def _sample_coalitions(m: int, n_samples: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw coalitions proportional to kernel weight, in complement pairs."""
    size_weight = np.array(
        [math.comb(m, s) * _shapley_kernel_weight(m, s) for s in range(1, m)]
    )
    size_prob = size_weight / size_weight.sum()
    counts: dict[tuple, float] = {}
    pairs = max(1, n_samples // 2)
    for _ in range(pairs):
        size = 1 + int(np.searchsorted(np.cumsum(size_prob), rng.random()))
        members = rng.permutation(m)[:size]
        mask = np.zeros(m, dtype=np.float64)
        mask[members] = 1.0
        for z in (mask, 1.0 - mask):
            key = tuple(int(b) for b in z)
            counts[key] = counts.get(key, 0.0) + 1.0
    masks = np.array([list(k) for k in counts], dtype=np.float64)
    weights = np.array(list(counts.values()))
    return masks, weights


def _constrained_solve(
    masks: np.ndarray,
    weights: np.ndarray,
    targets: np.ndarray,
    v_empty: float,
    delta: float,
) -> np.ndarray:
    """WLS with the efficiency constraint eliminated through the last player.

    The reduced normal equations are solved by minimum-norm least squares,
    so coalition samples that do not pin down every player give the
    smallest consistent psi instead of an ill-conditioned exact solve.
    """
    m = masks.shape[1]
    z_last = masks[:, -1]
    design = masks[:, :-1] - z_last[:, None]
    rhs_vec = targets - v_empty - z_last * delta
    wx = design * weights[:, None]
    gram = design.T @ wx
    rhs = wx.T @ rhs_vec
    psi = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    phi = np.empty(m)
    phi[:-1] = psi
    phi[-1] = delta - psi.sum()
    return phi


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _ensure_rgb(image: Image) -> np.ndarray:
    if image.channels == 3:
        return image.pixels.copy()
    return np.repeat(image.pixels, 3, axis=2)


def _highlight_boundary(superpixels: SuperpixelMap, highlight: np.ndarray) -> np.ndarray:
    """Pixels inside highlighted segments with a 4-neighbor outside them."""
    hl = highlight[superpixels.labels]
    boundary = np.zeros_like(hl)
    h, w = hl.shape
    for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        shifted = np.zeros_like(hl)
        ys = slice(max(dy, 0), h + min(dy, 0))
        ye = slice(max(-dy, 0), h + min(-dy, 0))
        xs = slice(max(dx, 0), w + min(dx, 0))
        xe = slice(max(-dx, 0), w + min(-dx, 0))
        shifted[ye, xe] = ~hl[ys, xs]
        boundary |= hl & shifted
    return boundary


def render_lime_heatmap(
    image: Image, superpixels: SuperpixelMap, highlight: np.ndarray
) -> Image:
    """Original image with a 1-pixel yellow outline on highlighted segments."""
    rgb = _ensure_rgb(image)
    boundary = _highlight_boundary(superpixels, np.asarray(highlight, dtype=bool))
    rgb[boundary] = (255, 255, 0)
    return Image.from_array(rgb)


def render_shap_heatmap(
    image: Image, superpixels: SuperpixelMap, attribution: Attribution
) -> Image:
    """Red-positive / blue-negative overlay scaled by |weight| / max |weight|.

    The per-pixel blend factor is 0.5 at the strongest segment, fading to
    0 for zero-weight segments, so an all-zero attribution is a no-op.
    """
    rgb = _ensure_rgb(image).astype(np.float64)
    peak = float(np.max(np.abs(attribution.weights))) if len(attribution.weights) else 0.0
    if peak > 0:
        norm = attribution.weights / peak
        strength = np.abs(norm)[superpixels.labels]
        color = np.where(
            (norm > 0)[superpixels.labels][:, :, None],
            np.array([255.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 255.0]),
        )
        alpha = 0.5 * strength[:, :, None]
        rgb = (1 - alpha) * rgb + alpha * color
    return Image.from_array(np.clip(np.floor(rgb + 0.5), 0, 255).astype(np.uint8))


def write_attribution_csv(path, attribution: Attribution) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("segment_id,weight\n")
        for i, weight in enumerate(attribution.weights):
            fh.write(f"{i},{float(weight)!r}\n")
        fh.write(f"class,{attribution.class_index}\n")
        fh.write(f"method,{attribution.method}\n")
