import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grainforge import explain, network
from grainforge.explain import SuperpixelMap
from grainforge.rng import Rng
from grainforge.synthetic import SHAPE_CLASSES, render_shape
from grainforge.training import TrainConfig, preprocess

from conftest import flood_components, random_image

BASELINE = (0, 0, 0)


def banded_setup(m: int, h: int = 8, w_per_band: int = 2):
    """m vertical bands with distinct nonzero colors; baseline black."""
    w = m * w_per_band
    labels = np.repeat(np.arange(m, dtype=np.int32), w_per_band)[None, :].repeat(h, 0)
    pixels = np.zeros((h, w, 3), dtype=np.uint8)
    for s in range(m):
        pixels[:, s * w_per_band : (s + 1) * w_per_band] = (20 + 15 * s, 80, 200 - 10 * s)
    spmap = SuperpixelMap(labels=labels, count=m)
    return pixels, spmap


def mask_reading_model(image: np.ndarray, spmap: SuperpixelMap, fn):
    """Model that recovers the inclusion mask by comparing to the original."""
    base = np.array(BASELINE, dtype=np.uint8)

    def model(perturbed: np.ndarray) -> np.ndarray:
        z = np.zeros(spmap.count)
        for s in range(spmap.count):
            region = perturbed[spmap.labels == s]
            z[s] = float(not np.all(region == base))
        return np.atleast_1d(np.asarray(fn(z), dtype=np.float64))

    return model


def slic_global_reference(
    image: np.ndarray, target: int, compactness: float = 10.0, iters: int = 10
) -> np.ndarray:
    """The global k-means search that the windowed SLIC replaced, kept as the reference.

    Every iteration compares every pixel with every center through two full
    pixel x center distance matrices and moves each center to the mean of
    its members with one boolean mask per center.
    """
    h, w = image.shape[:2]
    color = explain._color_features(image).reshape(h * w, -1)
    yy, xx = np.mgrid[0:h, 0:w]
    pos = np.stack([yy.ravel(), xx.ravel()], axis=1).astype(np.float64)

    centers_pos, spacing = explain._grid_centers(w, h, target)
    idx = np.clip(np.rint(centers_pos), 0, [h - 1, w - 1]).astype(int)
    centers_color = color[idx[:, 0] * w + idx[:, 1]]

    def pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = (a**2).sum(axis=1)[:, None] - 2.0 * (a @ b.T) + (b**2).sum(axis=1)[None]
        return np.sqrt(np.maximum(sq, 0.0))

    for _ in range(iters):
        color_d = pairwise(color, centers_color)
        spatial_d = pairwise(pos, centers_pos)
        assignment = np.argmin(color_d + compactness * spatial_d / spacing, axis=1)
        for c in range(len(centers_pos)):
            members = assignment == c
            if members.any():
                centers_color[c] = color[members].mean(axis=0)
                centers_pos[c] = pos[members].mean(axis=0)

    return explain._enforce_connectivity(assignment.reshape(h, w).astype(np.int32))


def slic_window_loop_reference(
    image: np.ndarray, target: int, compactness: float = 10.0, iters: int = 10
) -> np.ndarray:
    """Pixel-by-pixel loop form of the windowed SLIC search, kept as the oracle.

    A pixel within ceil(S) of a center along both axes is in its window; it
    moves to a strictly closer center, taken in id order.  Sums run in
    row-major pixel order, as the vectorized update accumulates them.
    """
    h, w = image.shape[:2]
    color = explain._color_features(image)
    centers_pos, spacing = explain._grid_centers(w, h, target)
    idx = np.clip(np.rint(centers_pos), 0, [h - 1, w - 1]).astype(int)
    centers = [[*pos, *color[y, x]] for pos, (y, x) in zip(centers_pos.tolist(), idx)]
    radius = math.ceil(spacing)
    labels = np.zeros((h, w), dtype=np.int32)
    for _ in range(iters):
        best = np.full((h, w), np.inf)
        for c, (cy, cx, *center_color) in enumerate(centers):
            for y in range(h):
                for x in range(w):
                    if abs(y - cy) > radius or abs(x - cx) > radius:
                        continue
                    color_d = math.sqrt(
                        sum((v - m) * (v - m) for v, m in zip(color[y, x], center_color))
                    )
                    spatial_d = math.sqrt((y - cy) ** 2 + (x - cx) ** 2)
                    d = color_d + compactness / spacing * spatial_d
                    if d < best[y, x]:
                        best[y, x] = d
                        labels[y, x] = c
        sums = [[0.0] * len(centers[0]) for _ in centers]
        sizes = [0] * len(centers)
        for y in range(h):
            for x in range(w):
                c = labels[y, x]
                sizes[c] += 1
                for k, v in enumerate((y, x, *color[y, x])):
                    sums[c][k] += v
        for c, size in enumerate(sizes):
            if size:
                centers[c] = [total / size for total in sums[c]]
    return explain._enforce_connectivity(labels)


def label_agreement(labels: np.ndarray, reference: np.ndarray) -> float:
    """Share of pixels that agree once each segment maps to its most-overlapped reference.

    Ids are numbered in first-occurrence order, so one early difference
    shifts every later id; this measure does not depend on the numbering.
    """
    overlap = np.zeros((labels.max() + 1, reference.max() + 1), dtype=np.int64)
    np.add.at(overlap, (labels.ravel(), reference.ravel()), 1)
    return overlap.max(axis=1).sum() / labels.size


def segment_extent(labels: np.ndarray) -> int:
    """The longest side of any segment's bounding box."""
    extent = 0
    for s in range(labels.max() + 1):
        ys, xs = np.nonzero(labels == s)
        extent = max(extent, np.ptp(ys) + 1, np.ptp(xs) + 1)
    return int(extent)


def benchmark_image(size: int, seed: int, index: int) -> np.ndarray:
    """The ``index``-th image that the explain benchmark renders from ``seed``."""
    kind = SHAPE_CLASSES[index % len(SHAPE_CLASSES)]
    return render_shape(kind, size, Rng(seed).child(f"image-{index}"))


class TestSlic:
    def test_single_segment(self, rng):
        img = random_image(rng, 9, 7)
        spmap = explain.slic_superpixels(img, 1, compactness=10.0, iters=10)
        assert spmap.count == 1
        assert np.all(spmap.labels == 0)

    def test_uniform_image_gives_equal_quadrants(self):
        img = np.full((32, 32, 3), 90, dtype=np.uint8)
        spmap = explain.slic_superpixels(img, 4, compactness=10.0, iters=10)
        assert spmap.count == 4
        quads = {
            spmap.labels[:16, :16].ravel()[0],
            spmap.labels[:16, 16:].ravel()[0],
            spmap.labels[16:, :16].ravel()[0],
            spmap.labels[16:, 16:].ravel()[0],
        }
        assert quads == {0, 1, 2, 3}
        for q in range(4):
            assert (spmap.labels == q).sum() == 256
        # each quadrant is uniform
        assert np.all(spmap.labels[:16, :16] == spmap.labels[0, 0])
        assert np.all(spmap.labels[16:, 16:] == spmap.labels[16, 16])

    def test_invariants_on_random_images(self, rng):
        for trial in range(5):
            img = random_image(rng, 20, 14)
            spmap = explain.slic_superpixels(img, 6, compactness=10.0, iters=4)
            labels = spmap.labels
            # coverage with contiguous ids
            present = np.unique(labels)
            assert present[0] == 0 and present[-1] == spmap.count - 1
            assert len(present) == spmap.count
            # every segment 4-connected
            for s in range(spmap.count):
                count = len(flood_components(labels == s, connectivity=4))
                assert count == 1, f"segment {s} split into {count} pieces"

    def test_distance_tie_goes_to_lower_center_id(self):
        # centers start at x = 0.25 and 1.75, so the middle pixel is 0.75 from both
        img = np.full((1, 3, 3), 90, dtype=np.uint8)
        spmap = explain.slic_superpixels(img, 2, compactness=10.0, iters=10)
        assert np.array_equal(spmap.labels, [[0, 0, 1]])

    def test_target_larger_than_pixel_count_rejected(self, rng):
        with pytest.raises(ValueError, match="cannot split"):
            explain.slic_superpixels(random_image(rng, 3, 3), 10, compactness=10.0, iters=10)

    @pytest.mark.parametrize("size, segments, images", [(224, 100, 1), (50, 40, 3)])
    def test_agrees_with_global_reference_on_benchmark_images(self, size, segments, images):
        window = 2 * math.ceil(math.sqrt(size * size / segments)) + 1
        for seed in range(401, 411):
            for index in range(images):
                image = benchmark_image(size, seed, index)
                spmap = explain.slic_superpixels(image, segments, compactness=10.0, iters=10)
                reference = slic_global_reference(image, segments, compactness=10.0, iters=10)
                agreement = label_agreement(spmap.labels, reference)
                assert agreement >= 0.8, (seed, index, agreement)
                if segment_extent(reference) <= window:
                    assert spmap.count == reference.max() + 1, (seed, index)
                else:
                    # the global search let one center take pixels beyond any
                    # window (a whole ring at 50 px, seed 404); the windowed
                    # search splits that segment
                    assert spmap.count > reference.max() + 1, (seed, index)

    @settings(max_examples=150, deadline=None)
    @given(
        height=st.integers(1, 40),
        width=st.integers(1, 40),
        channels=st.sampled_from([1, 3]),
        levels=st.sampled_from([1, 2, 256]),
        target_share=st.floats(0.0, 1.0),
        iters=st.integers(1, 3),
        compactness=st.sampled_from([0.0, 1.0, 10.0, 40.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_properties_on_random_images(
        self, height, width, channels, levels, target_share, iters, compactness, seed
    ):
        # few levels make flat images: distance ties and centers left with no pixels
        values = Rng(seed).integers(0, levels, (height, width, channels))
        image = (values * (255 // max(levels - 1, 1))).astype(np.uint8)
        target = 1 + math.floor(target_share * (height * width - 1))
        spmap = explain.slic_superpixels(image, target, compactness=compactness, iters=iters)
        labels = spmap.labels
        assert labels.shape == (height, width)
        assert np.array_equal(np.unique(labels), np.arange(spmap.count))
        # one 4-connected piece per segment: as many equal-value components as segments
        pieces = flood_components(np.ones(labels.shape, dtype=bool), connectivity=4, values=labels)
        assert len(pieces) == spmap.count
        again = explain.slic_superpixels(image, target, compactness=compactness, iters=iters)
        assert np.array_equal(again.labels, labels)

    def test_matches_window_loop_reference(self, rng):
        for trial in range(60):
            height, width = (int(v) for v in rng.integers(1, 21, 2))
            channels = 1 if trial % 4 == 0 else 3
            levels = (2, 256)[trial % 2]
            values = rng.integers(0, levels, (height, width, channels))
            image = (values * (255 // (levels - 1))).astype(np.uint8)
            target = int(rng.integers(1, height * width + 1))
            iters = int(rng.integers(1, 5))
            compactness = (0.0, 1.0, 10.0, 40.0)[trial % 4]
            spmap = explain.slic_superpixels(image, target, compactness=compactness, iters=iters)
            expected = slic_window_loop_reference(image, target, compactness, iters)
            assert np.array_equal(spmap.labels, expected), (trial, height, width, target)

    def test_peak_memory_stays_below_a_pixel_by_center_matrix(self):
        # one N x K float64 matrix at 224 px / 100 segments is 40 MB
        image = benchmark_image(224, 401, 0)
        tracemalloc.start()
        try:
            explain.slic_superpixels(image, 100, compactness=10.0, iters=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"


def connectivity_reference(labels: np.ndarray) -> np.ndarray:
    """Per-pixel loop form of the orphan-merge policy, kept as the oracle."""
    h, w = labels.shape
    comp_of = np.full((h, w), -1)
    pixels: list[list[tuple[int, int]]] = []
    for sy, sx in np.ndindex(h, w):
        if comp_of[sy, sx] != -1:
            continue
        comp_of[sy, sx] = len(pixels)
        stack, members = [(sy, sx)], [(sy, sx)]
        while stack:
            y, x = stack.pop()
            for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                if (0 <= ny < h and 0 <= nx < w and comp_of[ny, nx] == -1
                        and labels[ny, nx] == labels[sy, sx]):
                    comp_of[ny, nx] = len(pixels)
                    stack.append((ny, nx))
                    members.append((ny, nx))
        pixels.append(members)
    anchor: dict[int, int] = {}
    for cid, members in enumerate(pixels):
        seg = int(labels[members[0]])
        if seg not in anchor or len(members) > len(pixels[anchor[seg]]):
            anchor[seg] = cid
    settled = set(anchor.values())
    sizes = {seg: len(pixels[cid]) for seg, cid in anchor.items()}
    out = labels.copy()
    orphans = [cid for cid in range(len(pixels)) if cid not in settled]
    while orphans:
        remaining = []
        for cid in orphans:
            segs = {
                int(out[ny, nx])
                for y, x in pixels[cid]
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1))
                if 0 <= ny < h and 0 <= nx < w and comp_of[ny, nx] in settled
            }
            if not segs:
                remaining.append(cid)
                continue
            target = max(segs, key=lambda s: (sizes[s], -s))
            for y, x in pixels[cid]:
                out[y, x] = target
            sizes[target] += len(pixels[cid])
            settled.add(cid)
        assert len(remaining) < len(orphans)
        orphans = remaining
    remap: dict[int, int] = {}
    for v in out.ravel():
        remap.setdefault(int(v), len(remap))
    return np.vectorize(remap.get)(out).astype(np.int32)


class TestEnforceConnectivity:
    def test_orphan_joins_larger_neighbor_and_ids_compact(self):
        # the lone 9 touches segment 5 (6 px) and segment 2 (5 px)
        labels = np.array(
            [[5, 5, 5, 2],
             [5, 9, 2, 2],
             [5, 5, 2, 2],
             [9, 9, 9, 9]], dtype=np.int32
        )
        expected = np.array(
            [[0, 0, 0, 1],
             [0, 0, 1, 1],
             [0, 0, 1, 1],
             [2, 2, 2, 2]]
        )
        out = explain._enforce_connectivity(labels)
        assert out.dtype == np.int32
        assert np.array_equal(out, expected)

    def test_equal_size_tie_goes_to_lower_id(self):
        # the lone 6 touches segments 4 and 1 (4 px each) and 5 (1 px)
        labels = np.array(
            [[4, 4, 6, 1, 1],
             [4, 4, 5, 1, 1],
             [6, 6, 6, 6, 6]], dtype=np.int32
        )
        expected = np.array(
            [[0, 0, 1, 1, 1],
             [0, 0, 2, 1, 1],
             [3, 3, 3, 3, 3]]
        )
        assert np.array_equal(explain._enforce_connectivity(labels), expected)

    def test_orphan_enclosed_by_orphan_settles_on_second_pass(self):
        # the corner 3 touches only the 8-orphan; that one joins segment 1
        # (6 px, larger than segment 3's 5 px) and the corner follows it
        labels = np.array(
            [[3, 8, 1, 1, 1],
             [8, 8, 1, 1, 1],
             [3, 3, 3, 3, 3],
             [8, 8, 8, 8, 8]], dtype=np.int32
        )
        expected = np.repeat(np.array([0, 0, 1, 2])[:, None], 5, axis=1)
        assert np.array_equal(explain._enforce_connectivity(labels), expected)

    def test_matches_reference_on_random_label_maps(self):
        gen = np.random.default_rng(7)
        for _ in range(60):
            h, w = (int(v) for v in gen.integers(1, 14, 2))
            labels = gen.integers(0, int(gen.integers(1, 6)), (h, w)).astype(np.int32)
            out = explain._enforce_connectivity(labels)
            assert np.array_equal(out, connectivity_reference(labels))


class TestPerturb:
    def test_all_ones_identity(self, rng):
        image, spmap = banded_setup(4)
        out = explain.perturb(image, spmap, np.ones(4), BASELINE)
        assert np.array_equal(out, image)

    def test_all_zeros_full_baseline(self):
        image, spmap = banded_setup(4)
        out = explain.perturb(image, spmap, np.zeros(4), BASELINE)
        assert np.all(out == 0)

    def test_single_exclusion_diff_matches_segment(self):
        image, spmap = banded_setup(5)
        mask = np.ones(5)
        mask[2] = 0
        out = explain.perturb(image, spmap, mask, BASELINE)
        diff = np.any(out != image, axis=2)
        assert np.array_equal(diff, spmap.labels == 2)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_each_channel_gets_its_own_baseline_value(self, rng, channels):
        image = random_image(rng, 7, 9, channels)
        spmap = SuperpixelMap(rng.integers(0, 6, (9, 7)).astype(np.int32), 6)
        baseline = (11, 222, 93)[:channels]
        for mask in (rng.random(6) < 0.5, rng.integers(0, 2, 6), rng.random(6).round()):
            out = explain.perturb(image, spmap, mask, baseline)
            excluded = ~mask.astype(bool)[spmap.labels]
            assert np.all(out[excluded] == baseline)
            assert np.array_equal(out[~excluded], image[~excluded])

    def test_default_baseline_is_mean_color(self, rng):
        image = random_image(rng, 6, 6)
        spmap = SuperpixelMap(np.zeros((6, 6), dtype=np.int32), 1)
        expected = explain.mean_baseline(image)
        out = explain.perturb(image, spmap, np.zeros(1), expected)
        assert np.all(out.reshape(-1, 3) == expected)


class TestCoalitionValue:
    def test_scores_the_perturbed_image_for_the_class(self):
        image, spmap = banded_setup(4)
        c = np.array([0.5, -0.4, 0.3, 0.1])
        model = mask_reading_model(image, spmap, lambda z: [float(c @ z), 1.0 + float(z.sum())])
        value = explain.coalition_value(model, image, spmap, 1, BASELINE)
        for z in itertools.product((0.0, 1.0), repeat=4):
            assert value(np.array(z)) == 1.0 + sum(z)


class TestLime:
    def test_flat_model_gives_zero_coefficients(self):
        weights = explain.lime_explain(lambda z: 0.37, 4, 16, 0.25, 1e-8, Rng(0))
        assert np.abs(weights).max() < 1e-9

    def test_linear_model_recovered_exactly(self):
        m = 6
        c = np.array([0.05, -0.2, 0.4, 0.0, 0.15, -0.1])
        weights = explain.lime_explain(lambda z: 0.1 + float(c @ z), m, 64, 0.25, 1e-8, Rng(1))
        assert np.abs(weights - c).max() < 1e-6

    def test_two_segment_normal_equations(self):
        # hand-specified value table over all four masks
        table = {(0, 0): 0.2, (1, 0): 0.5, (0, 1): 0.9, (1, 1): 1.0}
        sigma, lam = 0.25, 1e-8
        weights = explain.lime_explain(
            lambda z: table[(int(z[0]), int(z[1]))], 2, 4, sigma, lam, Rng(2)
        )
        # oracle: solve the 3-unknown weighted normal equations directly
        masks = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
        f = np.array([table[(int(a), int(b))] for a, b in masks])
        kept = masks.sum(axis=1)
        dist = np.where(kept > 0, 1 - np.sqrt(kept / 2), 1.0)
        wts = np.exp(-(dist**2) / sigma**2)
        design = np.hstack([np.ones((4, 1)), masks])
        gram = design.T @ (design * wts[:, None]) + lam * np.diag([0.0, 1.0, 1.0])
        beta = np.linalg.solve(gram, design.T @ (wts * f))
        assert np.abs(weights - beta[1:]).max() < 1e-9

    def test_highlight_holds_most_positive_segments(self):
        m = 5
        image, spmap = banded_setup(m)
        c = np.array([0.5, -0.4, 0.3, 0.0, 0.1])
        weights = explain.lime_explain(lambda z: float(c @ z), m, 32, 0.25, 1e-8, Rng(3))
        out = explain.render_lime_heatmap(image, spmap, weights, 2)
        outlined = spmap.labels[np.all(out == (255, 255, 0), axis=2)]
        assert set(outlined.tolist()) == {0, 2}

    def test_sample_budget_below_floor_is_raised(self):
        # 4 segments need 4 + 2 samples; a budget of 5 runs as 6
        c = np.array([0.5, -0.4, 0.3, 0.1])
        raised, exact = (
            explain.lime_explain(lambda z: float(c @ z), 4, n, 0.25, 1.0, Rng(4)) for n in (5, 6)
        )
        assert np.array_equal(raised, exact)

    @pytest.mark.parametrize("width", [0.0, -0.25, math.nan, 1e-200])
    def test_kernel_width_without_a_positive_square_rejected(self, width):
        # 1e-200 ** 2 underflows to 0.0, which weighs the full mask exp(-0/0)
        calls = []
        with pytest.raises(ValueError, match=f"kernel width .*got {width}$"):
            explain.lime_explain(lambda z: calls.append(z) or 0.5, 4, 16, width, 1.0, Rng(0))
        assert calls == []

    @pytest.mark.parametrize("width", [1e-3, 1e-100, 1e-160])
    def test_kernel_width_that_zeroes_every_dropped_segment_rejected(self, width):
        # 6 segments: the nearest mask that drops one is 1 - sqrt(5/6) = 0.087 from the full
        # mask; exp(-0.087^2 / 1e-6) is 0.0, and 1e-160 ** 2 is subnormal, so d^2 / w^2 is inf
        calls = []
        with pytest.raises(ValueError, match=f"kernel width {width} gives every mask"):
            explain.lime_explain(lambda z: calls.append(z) or 0.5, 6, 64, width, 1e-8, Rng(1))
        assert calls == []

    def test_kernel_width_rejected_exactly_where_the_dropped_mass_vanishes_beside_1(self):
        # 6 segments, all 64 masks: the six that drop one segment weigh exp(-k) each at width
        # d / sqrt(k); 1.0 + 6 exp(-38) = 1.0 + 1.9e-16 is above 1.0, 1.0 + 6 exp(-39) is not
        m = 6
        c = np.array([0.05, -0.2, 0.4, 0.0, 0.15, -0.1])
        nearest = 1.0 - math.sqrt((m - 1) / m)
        kept = explain.lime_explain(
            lambda z: 0.1 + float(c @ z), m, 64, nearest / math.sqrt(38), 1e-8, Rng(1)
        )
        assert np.all(np.isfinite(kept))
        with pytest.raises(ValueError, match="gives every mask"):
            explain.lime_explain(lambda z: 0.5, m, 64, nearest / math.sqrt(39), 1e-8, Rng(1))

    def test_kernel_width_that_zeroes_every_sampled_dropped_mask_rejected(self):
        # 36 segments, 200 sampled masks: almost none drops a single segment, so at width
        # 0.01 the 199 drawn masks weigh 2.3e-121 in all and every coefficient would be 0.0
        c = Rng(5).uniform(-0.5, 0.5, 36)
        calls = []

        def value(z):
            calls.append(z)
            return 0.1 + c @ z

        with pytest.raises(ValueError, match="kernel width 0.01 gives every mask"):
            explain.lime_explain(value, 36, 200, 0.01, 1.0, Rng(0))
        assert calls == []
        assert np.abs(explain.lime_explain(value, 36, 200, 0.05, 1.0, Rng(0))).max() > 0

    def test_singular_system_suggests_ridge(self):
        # seed chosen so one segment is kept in every sampled mask, making
        # its column collinear with the intercept under ridge = 0
        for seed in range(200):
            masks = (Rng(seed).child("lime-masks").random((4, 3)) < 0.5)
            if np.any(np.vstack([np.ones(3, bool), masks]).all(axis=0)):
                with pytest.raises(ValueError, match="ridge > 0"):
                    explain.lime_explain(lambda z: float(z.sum()), 3, 5, 0.25, 0.0, Rng(seed))
                return
        pytest.fail("no singular seed found in range")

    def test_deterministic_under_seed(self):
        m = 12  # big enough to force the sampling path
        a1, a2 = (
            explain.lime_explain(lambda z: float(z[0] - z[5]), m, 64, 0.25, 1.0, Rng(9))
            for _ in range(2)
        )
        assert np.array_equal(a1, a2)


MAX_EXACT_PLAYERS = 12


def exact_shapley(value_fn, m: int) -> np.ndarray:
    """Brute-force Shapley values over all 2^m coalitions, the KernelSHAP oracle.

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


class TestExactShapley:
    def test_additive_game(self):
        a = np.array([0.5, -1.5, 2.0, 0.25])
        phi = exact_shapley(lambda z: float(a @ z), 4)
        assert np.abs(phi - a).max() < 1e-12

    def test_hand_worked_two_players(self):
        table = {(0, 0): 0.0, (1, 0): 1.0, (0, 1): 2.0, (1, 1): 5.0}
        phi = exact_shapley(
            lambda z: table[(int(z[0]), int(z[1]))], 2
        )
        assert phi == pytest.approx([2.0, 3.0])

    def test_efficiency_on_random_tables(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 7))
            table = rng.normal(0, 1, 2**m)

            def v(z, table=table):
                return float(table[int(sum(int(b) << i for i, b in enumerate(z)))])

            phi = exact_shapley(v, m)
            assert phi.sum() == pytest.approx(
                v(np.ones(m)) - v(np.zeros(m)), abs=1e-9
            )

    def test_cost_guard(self):
        with pytest.raises(ValueError, match="refused"):
            exact_shapley(lambda z: 0.0, 13)


def table_game(table: np.ndarray):
    """The coalition game whose value at mask z is table[z read as binary, bit i = z[i]]."""

    def value(z):
        return float(table[int(sum(int(b) << i for i, b in enumerate(z)))])

    return value


class TestKernelShap:
    def test_symmetric_model_equal_values(self):
        m = 5
        weights = explain.kernel_shap(lambda z: float(z.sum() ** 2), m, 2**m, Rng(0))
        assert np.abs(weights - weights[0]).max() < 1e-9

    def test_null_player_gets_zero(self):
        m = 4
        weights = explain.kernel_shap(
            lambda z: float(z[0] + 0.5 * z[2] * z[3]), m, 2**m, Rng(1)
        )
        assert abs(weights[1]) < 1e-9

    def test_full_enumeration_matches_exact_shapley(self, rng):
        m = 8
        value = table_game(rng.normal(0, 1, 2**m))
        weights = explain.kernel_shap(value, m, 2**m, Rng(2))
        exact = exact_shapley(value, m)
        assert np.abs(weights - exact).max() < 1e-6

    def test_sampled_mode_keeps_local_accuracy(self, rng):
        m = 12
        value = table_game(rng.normal(0, 1, 2**m))
        weights = explain.kernel_shap(value, m, 256, Rng(3))
        delta = value(np.ones(m)) - value(np.zeros(m))
        assert weights.sum() == pytest.approx(delta, abs=1e-9)

    def test_sampled_sizes_follow_the_binomial_kernel_mass(self):
        # each pair draws size s with probability proportional to C(m, s) times the
        # per-coalition kernel weight, then adds the coalition of size s and of m - s
        m, pairs = 6, 20000
        packed, counts = explain._sample_coalitions(m, 2 * pairs, Rng(5))
        masks = np.unpackbits(packed, axis=1, count=m)
        drawn = np.bincount(masks.sum(axis=1), weights=counts, minlength=m + 1)
        sizes = range(1, m)
        mass = np.array([math.comb(m, s) * explain._shapley_kernel_weight(m, s) for s in sizes])
        expected = (mass + mass[::-1]) / mass.sum() * pairs
        assert np.abs(drawn[1:m] - expected).max() < 0.02 * pairs

    def test_sampled_coalitions_keep_their_first_drawn_order(self):
        # oracle: the draws kept as M-int tuples in a dict, in insertion order
        m, pairs = 11, 400
        packed, counts = explain._sample_coalitions(m, 2 * pairs, Rng(6))
        rng = Rng(6)
        sizes = np.arange(1, m)
        size_weight = (m - 1) / (sizes * (m - sizes))
        cumulative = np.cumsum(size_weight / size_weight.sum())
        seen: dict[tuple, float] = {}
        for _ in range(pairs):
            size = 1 + int(np.searchsorted(cumulative, rng.random()))
            mask = np.zeros(m, dtype=int)
            mask[rng.permutation(m)[:size]] = 1
            for z in (tuple(mask), tuple(1 - mask)):
                seen[z] = seen.get(z, 0.0) + 1.0
        assert np.array_equal(np.unpackbits(packed, axis=1, count=m), np.array(list(seen)))
        assert np.array_equal(counts, np.array(list(seen.values())))

    def test_sampled_at_1100_players_keeps_local_accuracy(self):
        # C(1100, 550) does not fit a float, so the size weights need their closed form
        m = 1100
        c = Rng(11).normal(0, 1, m)

        def value(z):
            return 0.1 + float(c @ z)

        weights = explain.kernel_shap(value, m, 20, Rng(11))
        delta = value(np.ones(m)) - value(np.zeros(m))
        assert weights.shape == (m,)
        assert abs(weights.sum() - delta) <= 1e-9

    def test_rank_deficient_samples_keep_local_accuracy_on_a_cnn(self):
        # 100 sampled coalitions for 100 segments leave the reduced normal
        # equations rank-deficient; an exact solve returned |psi| ~ 1e27 here
        spec = network.build_disease_cnn()
        params = network.init_parameters(spec, Rng(51).child("weights"), dtype=np.float32)
        image = render_shape(SHAPE_CLASSES[0], 224, Rng(51).child("image-0"))

        def model(img: np.ndarray) -> np.ndarray:
            x = preprocess(img[None], spec, TrainConfig(dtype="f32"))[0]
            return np.asarray(network.forward(spec, params, x)[0], dtype=np.float64)

        spmap = explain.slic_superpixels(image, 100, compactness=10.0, iters=10)
        target = int(np.argmax(model(image)))
        baseline = explain.mean_baseline(image)
        value = explain.coalition_value(model, image, spmap, target, baseline)
        weights = explain.kernel_shap(value, spmap.count, 100, Rng(51))
        empty = explain.perturb(image, spmap, np.zeros(spmap.count), baseline)
        delta = model(image)[target] - model(empty)[target]
        assert abs(weights.sum() - delta) <= 1e-6
        assert np.abs(weights).max() <= 1.0

    def test_single_segment_gets_the_delta(self):
        weights = explain.kernel_shap(lambda z: 0.25 + 0.5 * float(z[0]), 1, 2048, Rng(4))
        assert weights[0] == pytest.approx(0.5, abs=1e-12)

    def test_deterministic_under_seed(self, rng):
        m = 12
        a1, a2 = (
            explain.kernel_shap(lambda z: float(z[:4].sum()), m, 200, Rng(7)) for _ in range(2)
        )
        assert np.array_equal(a1, a2)


def recording_game(c: np.ndarray):
    """A non-additive game over len(c) players that records every mask it is called with."""
    calls = []

    def value(z):
        calls.append(np.array(z))
        return float(np.tanh(c @ z) + 0.1 * z[0] * z[-1])

    return value, calls


class TestStreamedCore:
    # explainer(value, m, n) and (segments, samples): each path that makes masks
    CASES = {
        "lime-drawn": ("lime", 9, 100),
        "lime-enumerated": ("lime", 6, 64),
        "shap-sampled": ("shap", 12, 200),
        "shap-enumerated": ("shap", 7, 126),
    }

    @staticmethod
    def explain_with(method, value, m, n):
        if method == "lime":
            return explain.lime_explain(value, m, n, 0.25, 1.0, Rng(3))
        return explain.kernel_shap(value, m, n, Rng(3))

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("case", list(CASES))
    def test_chunks_keep_the_calls_and_the_fit(self, monkeypatch, case, rows):
        method, m, n = self.CASES[case]
        c = Rng(4).normal(0, 1, m)
        whole_value, whole_calls = recording_game(c)
        whole = self.explain_with(method, whole_value, m, n)
        monkeypatch.setattr(explain, "CHUNK_VALUES", rows * m)
        chunked_value, chunked_calls = recording_game(c)
        chunked = self.explain_with(method, chunked_value, m, n)
        assert len(chunked_calls) == len(whole_calls) > 3 * rows  # several chunks
        for a, b in zip(chunked_calls, whole_calls):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.abs(chunked - whole).max() <= 1e-12
        if method == "shap":
            delta = whole_value(np.ones(m)) - whole_value(np.zeros(m))
            assert abs(chunked.sum() - delta) <= 1e-12

    def test_chunk_rows_are_even_and_bounded(self, monkeypatch):
        monkeypatch.setattr(explain, "CHUNK_VALUES", 40)
        for n, m in ((1, 1), (7, 4), (20, 4), (21, 4), (1000, 3), (5, 100)):
            ranges = list(explain._row_ranges(n, m))
            sizes = [b - a for a, b in ranges]
            assert ranges[0][0] == 0 and ranges[-1][1] == n
            assert all(a == prev for (a, _), (_, prev) in zip(ranges[1:], ranges))
            # as few chunks as the bound allows, all of one size but a last, smaller one
            assert len(ranges) == -(-n // max(1, 40 // m))
            assert len(set(sizes[:-1])) <= 1 and sizes[0] <= max(1, 40 // m)
            assert 0 <= sizes[0] - sizes[-1] < len(ranges)

    def test_peak_memory_does_not_grow_with_samples(self):
        # at 500 segments one n x M float64 array is 8 MB at n = 2,000 and 80 MB at 20,000
        m = 500
        c = Rng(1).normal(0, 1, m)

        def value(z):
            return 0.1 + float(c @ z)

        for method in ("lime", "shap"):
            peaks = []
            for n in (2000, 20000):
                tracemalloc.start()
                try:
                    self.explain_with(method, value, m, n)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            mib = [round(peak / 2**20, 1) for peak in peaks]
            assert peaks[1] <= 1.1 * peaks[0], f"{method}: {mib[0]} -> {mib[1]} MiB"


class TestRendering:
    def test_empty_highlight_is_identity(self, rng):
        image = random_image(rng, 8, 8)
        spmap = explain.slic_superpixels(image, 4, compactness=10.0, iters=10)
        out = explain.render_lime_heatmap(image, spmap, np.zeros(spmap.count), spmap.count)
        assert np.array_equal(out, image)

    def test_rectangle_inner_boundary(self):
        labels = np.zeros((10, 12), dtype=np.int32)
        labels[2:6, 3:8] = 1
        spmap = SuperpixelMap(labels, 2)
        image = np.full((10, 12, 3), 40, dtype=np.uint8)
        out = explain.render_lime_heatmap(image, spmap, np.array([0.0, 1.0]), 1)
        yellow = np.all(out == (255, 255, 0), axis=2)
        # oracle: rectangle pixels adjacent (4-way) to a pixel outside it
        expected = np.zeros((10, 12), dtype=bool)
        for y in range(2, 6):
            for x in range(3, 8):
                if y in (2, 5) or x in (3, 7):
                    expected[y, x] = True
        assert np.array_equal(yellow, expected)

    def test_outline_matches_per_pixel_oracle(self, rng):
        for _ in range(50):
            h, w, m = int(rng.integers(1, 9)), int(rng.integers(1, 9)), int(rng.integers(1, 5))
            labels = rng.integers(0, m, (h, w)).astype(np.int32)
            highlight = rng.uniform(0, 1, m) < 0.5
            out = explain.render_lime_heatmap(
                np.zeros((h, w, 3), dtype=np.uint8),
                SuperpixelMap(labels, m),
                highlight.astype(np.float64),
                m,
            )
            inside = highlight[labels]
            # oracle: a highlighted pixel with a 4-neighbour inside the image that is not
            expected = np.zeros((h, w), dtype=bool)
            for y in range(h):
                for x in range(w):
                    for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                        if 0 <= ny < h and 0 <= nx < w and inside[y, x] and not inside[ny, nx]:
                            expected[y, x] = True
            assert np.array_equal(np.all(out == (255, 255, 0), axis=2), expected)

    def test_zero_attribution_is_identity(self, rng):
        image = random_image(rng, 8, 8)
        spmap = explain.slic_superpixels(image, 4, compactness=10.0, iters=10)
        out = explain.render_shap_heatmap(image, spmap, np.zeros(spmap.count))
        assert np.array_equal(out, image)

    def test_signed_overlay_colors(self):
        image, spmap = banded_setup(2, h=4)
        out = explain.render_shap_heatmap(image, spmap, np.array([1.0, -1.0]))
        pos = out[spmap.labels == 0].astype(int)
        neg = out[spmap.labels == 1].astype(int)
        orig_pos = image[spmap.labels == 0].astype(int)
        orig_neg = image[spmap.labels == 1].astype(int)
        assert np.all(pos[:, 0] > orig_pos[:, 0])  # pulled toward red
        assert np.all(neg[:, 2] > orig_neg[:, 2])  # pulled toward blue

    def test_attribution_csv_format(self, tmp_path):
        path = tmp_path / "attr.csv"
        explain.write_attribution_csv(path, np.array([0.25, -0.5]), 3, "lime")
        lines = path.read_text().splitlines()
        assert lines[0] == "segment_id,weight"
        assert lines[1].startswith("0,") and float(lines[1].split(",")[1]) == 0.25
        assert lines[-2] == "class,3"
        assert lines[-1] == "method,lime"
