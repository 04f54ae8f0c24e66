import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grainforge import imaging
from grainforge.imaging import Image
from grainforge.rng import Rng
from grainforge.synthetic import SHAPE_CLASSES, render_shape

from conftest import flood_components, random_image


def exhaustive_otsu(gray: np.ndarray) -> int:
    """Try all 256 thresholds with exact rational arithmetic."""
    values = gray.ravel().astype(int)
    best_t, best_score = 0, Fraction(-1)
    if len(set(values.tolist())) == 1:
        return int(values[0])
    for t in range(256):
        lo = values[values <= t]
        hi = values[values > t]
        if len(lo) == 0 or len(hi) == 0:
            continue
        w0, w1 = Fraction(len(lo)), Fraction(len(hi))
        mu0 = Fraction(int(lo.sum()), len(lo))
        mu1 = Fraction(int(hi.sum()), len(hi))
        score = w0 * w1 * (mu0 - mu1) ** 2
        if score > best_score:
            best_score, best_t = score, t
    return best_t


class TestNetpbm:
    def test_round_trip_rgb(self, rng, tmp_path):
        image = random_image(rng, 7, 5, 3)
        path = tmp_path / "img.ppm"
        imaging.write_image(image, path)
        back = imaging.read_image(path)
        assert back.width == 7 and back.height == 5 and back.channels == 3
        assert np.array_equal(back.pixels, image.pixels)

    def test_round_trip_gray(self, rng, tmp_path):
        image = random_image(rng, 4, 6, 1)
        path = tmp_path / "img.pgm"
        imaging.write_image(image, path)
        assert np.array_equal(imaging.read_image(path).pixels, image.pixels)

    def test_minimal_p6(self):
        data = b"P6\n2 2\n255\n" + bytes(range(12))
        image = imaging.decode_netpbm(data)
        assert (image.width, image.height, image.channels) == (2, 2, 3)
        assert image.pixels[0, 0, 0] == 0 and image.pixels[1, 1, 2] == 11

    def test_minimal_p5(self):
        data = b"P5\n3 1\n255\n" + bytes([0, 128, 255])
        image = imaging.decode_netpbm(data)
        assert image.channels == 1
        assert list(image.pixels[0, :, 0]) == [0, 128, 255]

    def test_header_comments_and_whitespace(self):
        data = b"P5 # a comment\n# another\n 3\t1 \n255 " + bytes([9, 8, 7])
        image = imaging.decode_netpbm(data)
        assert list(image.pixels[0, :, 0]) == [9, 8, 7]

    def test_bad_magic(self):
        with pytest.raises(imaging.NetpbmError, match="offset 0"):
            imaging.decode_netpbm(b"P3\n1 1\n255\n\x00")

    def test_wrong_maxval_reports_offset(self):
        with pytest.raises(imaging.NetpbmError, match="maxval.*byte offset 7\\)") as info:
            imaging.decode_netpbm(b"P5\n1 1\n65535\n\x00\x00")
        assert info.value.offset == 7

    @pytest.mark.parametrize(
        "data, offset", [(b"P5 1 1 0256 \x00", 7), (b"P5 1 1 # c\n00065535\n\x00", 11)]
    )
    def test_leading_zero_maxval_reports_token_start(self, data, offset):
        with pytest.raises(imaging.NetpbmError, match="maxval must be 255") as info:
            imaging.decode_netpbm(data)
        assert info.value.offset == offset

    def test_truncated_payload_reports_offset(self):
        data = b"P6\n2 2\n255\n" + bytes(5)
        with pytest.raises(imaging.NetpbmError, match="truncated"):
            imaging.decode_netpbm(data)

    def test_malformed_header_token(self):
        with pytest.raises(imaging.NetpbmError, match="width"):
            imaging.decode_netpbm(b"P6\nxx 2\n255\n")

    @pytest.mark.parametrize(
        "data, what, offset",
        [(b"P6\n0 3\n255\n", "width", 3), (b"P5 2 00 255 \x00\x00", "height", 5)],
    )
    def test_zero_size_reports_token_offset(self, data, what, offset):
        with pytest.raises(imaging.NetpbmError, match=f"{what}.*byte offset {offset}\\)") as info:
            imaging.decode_netpbm(data)
        assert info.value.offset == offset

    @staticmethod
    def _decodes_or_raises_netpbm_error(data: bytes) -> None:
        try:
            image = imaging.decode_netpbm(data)
        except imaging.NetpbmError:
            return
        assert image.pixels.size == image.width * image.height * image.channels > 0

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64))
    def test_fuzz_arbitrary_bytes(self, data):
        self._decodes_or_raises_netpbm_error(data)

    @settings(max_examples=300, deadline=None)
    @given(
        magic=st.sampled_from([b"P5", b"P6", b"P3"]),
        sizes=st.lists(
            st.integers(0, 4) | st.integers(0, 2**70) | st.sampled_from([255, 256, 65535]),
            min_size=3, max_size=3,
        ),
        separator=st.sampled_from([b" ", b"\n", b"\t", b" # note\n", b""]),
        payload=st.binary(max_size=60),
    )
    def test_fuzz_headers(self, magic, sizes, separator, payload):
        header = magic + b"".join(separator + b"%d" % n for n in sizes) + b"\n"
        self._decodes_or_raises_netpbm_error(header + payload)


class TestGrayscale:
    def test_white(self):
        img = Image.from_array(np.full((1, 1, 3), 255, dtype=np.uint8))
        assert imaging.to_grayscale(img).pixels[0, 0, 0] == 255

    def test_pure_red(self):
        arr = np.zeros((1, 1, 3), dtype=np.uint8)
        arr[0, 0, 0] = 255
        gray = imaging.to_grayscale(Image.from_array(arr))
        assert gray.pixels[0, 0, 0] == 76  # round(0.299 * 255)

    def test_gray_passthrough(self, rng):
        img = random_image(rng, 4, 4, 1)
        assert imaging.to_grayscale(img) is img


class TestGaussianBlur:
    def test_constant_preserved(self):
        img = Image.from_array(np.full((9, 9, 1), 77, dtype=np.uint8))
        out = imaging.gaussian_blur(img, sigma=1.5)
        assert np.all(out.pixels == 77)

    def test_impulse_reproduces_kernel(self):
        sigma = 1.0
        arr = np.zeros((15, 15), dtype=np.float64)
        arr[7, 7] = 1.0
        out = imaging.blur_array(arr, sigma)
        # closed-form separable response at integer offsets
        radius = math.ceil(3 * sigma)
        taps = np.exp(-np.arange(-radius, radius + 1) ** 2 / (2 * sigma**2))
        taps /= taps.sum()
        for dy in range(-radius, radius + 1):
            for dx in range(-radius, radius + 1):
                expected = taps[dy + radius] * taps[dx + radius]
                assert out[7 + dy, 7 + dx] == pytest.approx(expected, abs=1e-12)

    def test_separable_equals_full_2d(self, rng):
        sigma = 1.2
        arr = rng.uniform(0, 255, (12, 10))
        got = imaging.blur_array(arr, sigma)
        # full 2-D kernel convolution with clamped borders, done by loops
        taps = imaging.gaussian_kernel_1d(sigma)
        radius = len(taps) // 2
        kernel2d = np.outer(taps, taps)
        full = np.zeros_like(arr)
        h, w = arr.shape
        for y in range(h):
            for x in range(w):
                acc = 0.0
                for dy in range(-radius, radius + 1):
                    for dx in range(-radius, radius + 1):
                        sy = min(max(y + dy, 0), h - 1)
                        sx = min(max(x + dx, 0), w - 1)
                        acc += arr[sy, sx] * kernel2d[dy + radius, dx + radius]
                full[y, x] = acc
        assert np.abs(got - full).max() < 1e-9


def square_fixture() -> Image:
    arr = np.zeros((32, 32), dtype=np.uint8)
    arr[8:24, 8:24] = 255
    return Image.from_array(arr)


def square_perimeter() -> set[tuple[int, int]]:
    ring = set()
    for i in range(8, 24):
        ring.update({(8, i), (23, i), (i, 8), (i, 23)})
    return ring


def suppressed_magnitude(image: Image, sigma: float) -> np.ndarray:
    """Canny's gradient magnitude after non-maximum suppression."""
    smoothed = imaging.blur_array(
        imaging.to_grayscale(image).pixels[:, :, 0].astype(float), sigma
    )
    gx, gy = imaging.sobel_gradients(smoothed)
    return imaging.non_maximum_suppression(
        np.hypot(gx, gy), imaging._quantize_direction(gx, gy)
    )


def seeded_flood(strong: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    """Canny hysteresis as a seeded 8-connected flood, the reference for ``canny``."""
    h, w = strong.shape
    visited = strong.copy()
    queue = deque(zip(*np.nonzero(strong)))
    while queue:
        y, x = queue.popleft()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and candidate[ny, nx] and not visited[ny, nx]:
                    visited[ny, nx] = True
                    queue.append((ny, nx))
    return visited


class TestCanny:
    def test_uniform_image_no_edges(self):
        img = Image.from_array(np.full((16, 16, 1), 130, dtype=np.uint8))
        edges = imaging.canny(img, 1.0, 20, 60)
        assert not edges.mask.any()

    def test_square_fixture_localization(self):
        edges = imaging.canny(square_fixture(), sigma=1.0, low=20, high=60)
        perimeter = square_perimeter()
        edge_points = set(zip(*np.nonzero(edges.mask)))
        assert edge_points, "square must produce edges"
        # every edge pixel within Chebyshev distance 1 of the perimeter
        for y, x in edge_points:
            assert any(
                max(abs(y - py), abs(x - px)) <= 1 for py, px in perimeter
            ), (y, x)
        # at least 90% of perimeter pixels have an edge within distance 1
        covered = sum(
            1
            for py, px in perimeter
            if any(max(abs(py - y), abs(px - x)) <= 1 for y, x in edge_points)
        )
        assert covered / len(perimeter) >= 0.90

    def test_raising_high_never_adds_edges(self, rng):
        img = random_image(rng, 24, 24, 1)
        lo_mask = imaging.canny(img, 1.0, 10, 40).mask
        hi_mask = imaging.canny(img, 1.0, 10, 80).mask
        assert not (hi_mask & ~lo_mask).any()

    def test_threshold_order_enforced(self):
        with pytest.raises(ValueError, match="low < high"):
            imaging.canny(square_fixture(), 1.0, 60, 60)

    def test_edge_map_round_trips_as_pgm(self, tmp_path):
        edges = imaging.canny(square_fixture(), 1.0, 20, 60)
        path = tmp_path / "edges.pgm"
        imaging.write_image(imaging.edge_map_to_image(edges), path)
        back = imaging.read_image(path)
        assert np.array_equal(back.pixels[:, :, 0] == 255, edges.mask)

    def test_no_edge_below_low(self, rng):
        img = random_image(rng, 20, 20, 1)
        low = 30.0
        edges = imaging.canny(img, 1.0, low, 90.0)
        gray = imaging.to_grayscale(img)
        smoothed = imaging.blur_array(gray.pixels[:, :, 0].astype(float), 1.0)
        gx, gy = imaging.sobel_gradients(smoothed)
        magnitude = np.hypot(gx, gy)
        assert np.all(magnitude[edges.mask] >= low)

    def test_every_edge_component_touches_a_strong_pixel(self, rng):
        img = random_image(rng, 24, 24, 1)
        low, high = 20.0, 70.0
        edges = imaging.canny(img, 1.0, low, high)
        if not edges.mask.any():
            pytest.skip("fixture produced no edges")
        strong = suppressed_magnitude(img, 1.0) >= high
        for comp in flood_components(edges.mask):
            assert any(strong[y, x] for y, x in comp)

    def test_hysteresis_matches_seeded_flood(self, rng):
        images = [render_shape(kind, 50, Rng(401).child(kind)) for kind in SHAPE_CLASSES]
        images += [random_image(rng, 5 + 3 * i, 30 - 2 * i, 1 + 2 * (i % 2)) for i in range(10)]
        for image in images:
            for sigma, low, high in ((1.0, 50.0, 100.0), (1.5, 10.0, 40.0), (0.7, 0.0, 250.0)):
                edges = imaging.canny(image, sigma, low, high)
                suppressed = suppressed_magnitude(image, sigma)
                expected = seeded_flood(suppressed >= high, suppressed >= low)
                assert edges.mask.dtype == bool
                assert np.array_equal(edges.mask, expected)


class TestOtsu:
    def test_bimodal_halves(self):
        arr = np.concatenate([np.full(50, 50), np.full(50, 200)]).astype(np.uint8)
        img = Image.from_array(arr.reshape(10, 10, 1))
        t = imaging.otsu_threshold(img)
        assert 50 <= t <= 199
        assert t == exhaustive_otsu(img.pixels[:, :, 0])

    def test_all_zero(self):
        img = Image.from_array(np.zeros((4, 4, 1), dtype=np.uint8))
        assert imaging.otsu_threshold(img) == 0

    def test_single_value_convention(self):
        img = Image.from_array(np.full((3, 3, 1), 173, dtype=np.uint8))
        assert imaging.otsu_threshold(img) == 173

    def test_matches_exhaustive_search(self, rng):
        for _ in range(25):
            img = random_image(rng, 9, 7, 1)
            assert imaging.otsu_threshold(img) == exhaustive_otsu(img.pixels[:, :, 0])

    def test_matches_exhaustive_on_few_levels(self, rng):
        # few distinct values exercise tie-breaking
        for _ in range(25):
            levels = rng.integers(0, 256, 3)
            arr = levels[rng.integers(0, 3, (6, 6))].astype(np.uint8)
            img = Image.from_array(arr[:, :, None])
            assert imaging.otsu_threshold(img) == exhaustive_otsu(arr)


def serpentine(h: int, w: int) -> np.ndarray:
    """Full even rows joined by one pixel at alternating ends: one long path."""
    mask = np.zeros((h, w), dtype=bool)
    mask[::2] = True
    for row in range(1, h, 2):
        mask[row, w - 1 if row % 4 == 1 else 0] = True
    return mask


def spiral(n: int) -> np.ndarray:
    """A one-pixel-wide square spiral from the top-left corner inwards."""
    mask = np.zeros((n, n), dtype=bool)
    y = x = dy = 0
    dx = 1
    mask[0, 0] = True
    for length in [n - 1] + [k for k in range(n - 1, 0, -2) for _ in range(2)]:
        for _ in range(length):
            y, x = y + dy, x + dx
            mask[y, x] = True
        dy, dx = dx, -dy  # turn clockwise
    return mask


def oracle_labels(mask: np.ndarray, connectivity: int, values=None) -> tuple[np.ndarray, int]:
    """``label_components`` output built from the flood-fill oracle."""
    labels = np.full(mask.shape, -1)
    comps = flood_components(mask, connectivity, values)
    for i, comp in enumerate(comps):
        for y, x in comp:
            labels[y, x] = i
    return labels, len(comps)


class TestLabelComponents:
    @staticmethod
    def _assert_matches_oracle(mask, values=None):
        for connectivity in (4, 8):
            labels, count = imaging.label_components(mask, connectivity, values=values)
            expected, expected_count = oracle_labels(mask, connectivity, values)
            assert labels.shape == mask.shape
            assert count == expected_count
            assert np.array_equal(labels, expected), connectivity

    def test_random_masks_match_flood_oracle(self, rng):
        for _ in range(200):
            h, w = (int(v) for v in rng.integers(1, 15, 2))
            self._assert_matches_oracle(rng.random((h, w)) < rng.uniform(0.1, 0.9))

    @pytest.mark.parametrize(
        "mask, count4, count8",
        [
            (np.zeros((5, 7), dtype=bool), 0, 0),
            (np.ones((5, 7), dtype=bool), 1, 1),
            (np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1]], dtype=bool), 4, 4),
            (np.array([[1], [0], [1], [1], [0], [0], [1]], dtype=bool), 3, 3),
            (np.eye(6, dtype=bool), 6, 1),
            (serpentine(11, 13), 1, 1),
            (spiral(15), 1, 1),
            (~spiral(15), 1, 1),
        ],
        ids=["empty", "full", "row", "column", "diagonal", "serpentine", "spiral", "spiral-gap"],
    )
    def test_shapes(self, mask, count4, count8):
        assert imaging.label_components(mask, 4)[1] == count4
        assert imaging.label_components(mask, 8)[1] == count8
        self._assert_matches_oracle(mask)

    def test_ids_follow_first_pixel_in_row_major_order(self):
        mask = np.array([[0, 1, 0, 1], [1, 0, 0, 1], [0, 0, 1, 0]], dtype=bool)
        labels4, count4 = imaging.label_components(mask, 4)
        labels8, count8 = imaging.label_components(mask, 8)
        assert count4 == 4 and count8 == 2
        assert labels4.tolist() == [[-1, 0, -1, 1], [2, -1, -1, 1], [-1, -1, 3, -1]]
        assert labels8.tolist() == [[-1, 0, -1, 1], [0, -1, -1, 1], [-1, -1, 1, -1]]

    def test_equal_values_split_regions(self, rng):
        for _ in range(100):
            h, w = (int(v) for v in rng.integers(1, 13, 2))
            values = rng.integers(0, int(rng.integers(1, 5)), (h, w))
            self._assert_matches_oracle(np.ones((h, w), dtype=bool), values)
            self._assert_matches_oracle(rng.random((h, w)) < 0.7, values)

    @pytest.mark.parametrize("connectivity", [0, 2, 6])
    def test_other_connectivity_rejected(self, connectivity):
        with pytest.raises(ValueError, match="connectivity must be 4 or 8"):
            imaging.label_components(np.ones((3, 3), dtype=bool), connectivity)


class TestSegmentGrain:
    def test_disc_recovered(self):
        arr = np.zeros((32, 32), dtype=np.uint8)
        yy, xx = np.mgrid[0:32, 0:32]
        disc = (yy - 16) ** 2 + (xx - 16) ** 2 <= 8**2
        arr[disc] = 220
        mask = imaging.segment_grain(Image.from_array(arr[:, :, None]))
        # within a 1-pixel band of the analytic boundary
        dist = np.sqrt((yy - 16) ** 2 + (xx - 16) ** 2)
        assert np.all(mask.mask[dist <= 7])
        assert not np.any(mask.mask[dist >= 9])

    def test_largest_blob_wins(self):
        arr = np.zeros((20, 20), dtype=np.uint8)
        arr[2:12, 2:12] = 255  # 100 px
        arr[14:19, 14:20] = 255  # 30 px
        mask = imaging.segment_grain(Image.from_array(arr[:, :, None]))
        comps = flood_components(mask.mask)
        assert len(comps) == 1
        assert comps[0] == {(y, x) for y in range(2, 12) for x in range(2, 12)}
        assert mask.foreground_pixels == 100

    def test_full_white(self):
        img = Image.from_array(np.full((5, 5, 1), 255, dtype=np.uint8))
        mask = imaging.segment_grain(img)
        assert mask.mask.all() and mask.foreground_pixels == 25

    def test_constant_bright_is_full_frame(self):
        img = Image.from_array(np.full((5, 5, 1), 9, dtype=np.uint8))
        assert imaging.segment_grain(img).mask.all()

    def test_no_foreground_raises(self):
        img = Image.from_array(np.zeros((5, 5, 1), dtype=np.uint8))
        with pytest.raises(imaging.SegmentationError, match="no foreground"):
            imaging.segment_grain(img)

    def test_apply_mask_zeroes_background(self, rng):
        arr = np.zeros((10, 10), dtype=np.uint8)
        arr[2:5, 2:5] = 200
        img = Image.from_array(arr[:, :, None])
        mask = imaging.segment_grain(img)
        out = imaging.apply_segment_mask(img, mask)
        assert np.array_equal(out.pixels[mask.mask], img.pixels[mask.mask])
        assert np.all(out.pixels[~mask.mask] == 0)


class TestResize:
    def test_constant(self):
        img = Image.from_array(np.full((3, 5, 3), 42, dtype=np.uint8))
        out = imaging.resize(img, 11, 7)
        assert out.width == 11 and out.height == 7
        assert np.all(out.pixels == 42)

    def test_identity(self, rng):
        img = random_image(rng, 6, 4)
        out = imaging.resize(img, 6, 4)
        assert np.array_equal(out.pixels, img.pixels)

    def test_checkerboard_upscale_matches_formula(self):
        arr = np.array([[0, 255], [255, 0]], dtype=np.uint8)
        img = Image.from_array(arr[:, :, None])
        out = imaging.resize(img, 4, 4)
        # per-pixel bilinear formula on the center-aligned grid
        src = arr.astype(float)
        for i in range(4):
            for j in range(4):
                sy = min(max((i + 0.5) * 2 / 4 - 0.5, 0), 1)
                sx = min(max((j + 0.5) * 2 / 4 - 0.5, 0), 1)
                y0, x0 = int(math.floor(sy)), int(math.floor(sx))
                y1, x1 = min(y0 + 1, 1), min(x0 + 1, 1)
                wy, wx = sy - y0, sx - x0
                value = (
                    src[y0, x0] * (1 - wy) * (1 - wx)
                    + src[y0, x1] * (1 - wy) * wx
                    + src[y1, x0] * wy * (1 - wx)
                    + src[y1, x1] * wy * wx
                )
                assert out.pixels[i, j, 0] == int(math.floor(value + 0.5))


class TestNormalize:
    def test_endpoints(self):
        arr = np.array([[[0], [255]]], dtype=np.uint8)
        out = imaging.normalize(Image.from_array(arr))
        assert out[0, 0, 0] == 0.0 and out[0, 1, 0] == 1.0

    def test_midpoint(self):
        arr = np.array([[[128]]], dtype=np.uint8)
        assert imaging.normalize(Image.from_array(arr))[0, 0, 0] == pytest.approx(
            128 / 255
        )

    def test_range(self, rng):
        out = imaging.normalize(random_image(rng, 8, 8))
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestAugment:
    def test_count_and_original_first(self, rng):
        img = random_image(rng, 6, 6)
        family = imaging.augment(img)
        assert len(family) == 5
        assert family[0] is img

    def test_rot90_twice_is_rot180(self, rng):
        img = random_image(rng, 5, 5)
        twice = imaging.rotate90(imaging.rotate90(img))
        assert np.array_equal(twice.pixels, imaging.rotate180(img).pixels)

    def test_flips_are_involutions(self, rng):
        img = random_image(rng, 6, 4)
        assert np.array_equal(
            imaging.flip_horizontal(imaging.flip_horizontal(img)).pixels, img.pixels
        )
        assert np.array_equal(
            imaging.flip_vertical(imaging.flip_vertical(img)).pixels, img.pixels
        )

    def test_rot90_index_permutation(self):
        arr = np.arange(9, dtype=np.uint8).reshape(3, 3)
        img = Image.from_array(arr[:, :, None])
        rotated = imaging.rotate90(img).pixels[:, :, 0]
        # counterclockwise quarter turn: out[i, j] = in[j, N-1-i]
        expected = np.empty_like(arr)
        for i in range(3):
            for j in range(3):
                expected[i, j] = arr[j, 3 - 1 - i]
        assert np.array_equal(rotated, expected)

    def test_rotation_requires_square(self, rng):
        with pytest.raises(ValueError, match="square"):
            imaging.augment(random_image(rng, 4, 6))
