import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grainforge import explain, imaging
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


class TestImage:
    @pytest.mark.parametrize("shape, channels", [((5, 7, 3), 3), ((5, 7, 1), 1), ((5, 7), 1)])
    def test_size_is_the_pixels_shape(self, rng, shape, channels):
        image = Image.from_array(rng.integers(0, 256, shape))
        assert image.pixels.shape[:2] == (image.height, image.width)
        assert image.pixels.shape == (5, 7, channels) and image.pixels.dtype == np.uint8

    def test_pixels_are_read_only(self, rng):
        image = Image.from_array(rng.integers(0, 256, (4, 4, 3)))
        with pytest.raises(ValueError, match="read-only"):
            image.pixels[0, 0, 0] = 1

    @pytest.mark.parametrize("channels", [2, 4])
    def test_channel_count_other_than_1_or_3_rejected(self, channels):
        with pytest.raises(ValueError, match=f"channels must be 1 or 3, got {channels}"):
            Image.from_array(np.zeros((4, 4, channels), dtype=np.uint8))

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0, 3), (3, 0, 1)])
    def test_zero_size_rejected(self, shape):
        with pytest.raises(ValueError, match="degenerate image size"):
            Image.from_array(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize(
        "arr, message",
        [
            (np.full((2, 2), 300), r"\[0, 255\], got 300 to 300 \(int64\)"),
            (np.full((2, 2, 3), -1, dtype=np.int16), r"\[0, 255\], got -1 to -1 \(int16\)"),
            (np.full((2, 2), 256, dtype=np.uint16), r"\[0, 255\], got 256 to 256 \(uint16\)"),
            (np.full((2, 2, 3), -1.5), "integers, got dtype float64"),
            (np.full((2, 2), 2.7), "integers, got dtype float64"),
            (np.full((2, 2), np.nan, dtype=np.float32), "integers, got dtype float32"),
            (np.zeros(4, dtype=np.uint8), r"got shape \(4,\)"),
            (np.zeros((2, 2, 3, 1), dtype=np.uint8), r"got shape \(2, 2, 3, 1\)"),
        ],
        ids=["300", "int16 -1", "uint16 256", "-1.5", "2.7", "nan", "1-d", "4-d"],
    )
    def test_values_that_are_no_pixels_rejected(self, arr, message):
        with pytest.raises(ValueError, match=message):
            Image.from_array(arr)

    @pytest.mark.parametrize(
        "arr",
        [
            np.array([[0, 1], [128, 255]]),
            np.array([[0, 255]], dtype=np.uint16),
            np.array([[0, 127]], dtype=np.int8),
            np.array([[True, False]]),
        ],
    )
    def test_in_range_integers_and_bools_kept(self, arr):
        assert Image.from_array(arr).pixels[:, :, 0].tolist() == arr.astype(int).tolist()

    def test_an_image_and_its_pixels_give_the_same_bytes(self, tmp_path):
        # callers outside the package may still pass a decoded Image where an array is expected
        image = Image.from_array(render_shape("ring", 30, Rng(3)))
        pixels = image.pixels
        assert imaging.normalize(image).tobytes() == imaging.normalize(pixels).tobytes()
        for w, h in ((30, 30), (41, 17)):
            out = imaging.resize(image, w, h)
            assert type(out) is np.ndarray
            assert out.tobytes() == imaging.resize(pixels, w, h).tobytes()
        superpixels = explain.slic_superpixels(image, 9, compactness=10.0, iters=3)
        expected = explain.slic_superpixels(pixels, 9, compactness=10.0, iters=3)
        assert superpixels.count == expected.count
        assert np.array_equal(superpixels.labels, expected.labels)
        baseline = explain.mean_baseline(image)
        assert baseline == explain.mean_baseline(pixels)
        mask = np.arange(superpixels.count) % 2
        out = explain.perturb(image, superpixels, mask, baseline)
        assert type(out) is np.ndarray
        assert out.tobytes() == explain.perturb(pixels, superpixels, mask, baseline).tobytes()
        imaging.write_image(image, tmp_path / "image.ppm")
        imaging.write_image(pixels, tmp_path / "pixels.ppm")
        assert (tmp_path / "image.ppm").read_bytes() == (tmp_path / "pixels.ppm").read_bytes()

    def test_to_uint8_rounds_half_up_and_clamps(self):
        values = np.array([-3.0, 0.49, 0.5, 1.5, 2.5, 254.5, 300.0])
        out = imaging.to_uint8(values)
        assert out.dtype == np.uint8
        assert out.tolist() == [0, 0, 1, 2, 3, 255, 255]


class TestNetpbm:
    def test_round_trip_rgb(self, rng, tmp_path):
        image = random_image(rng, 7, 5, 3)
        path = tmp_path / "img.ppm"
        imaging.write_image(image, path)
        back = imaging.read_image(path)
        assert back.width == 7 and back.height == 5 and back.pixels.shape[2] == 3
        assert np.array_equal(back.pixels, image)
        assert image.flags.writeable  # the check sees a read-only view, not the caller's array

    def test_round_trip_gray(self, rng, tmp_path):
        image = random_image(rng, 4, 6, 1)
        path = tmp_path / "img.pgm"
        imaging.write_image(image, path)
        assert np.array_equal(imaging.read_image(path).pixels, image)

    @pytest.mark.parametrize(
        "arr",
        [np.full((4, 4, 3), 0.5), np.zeros((4, 4, 2), dtype=np.uint8)],
        ids=["float", "2 channels"],
    )
    def test_unreadable_array_is_rejected_before_the_file_is_opened(self, arr, tmp_path):
        path = tmp_path / "img.ppm"
        with pytest.raises(ValueError):
            imaging.write_image(arr, path)
        assert not path.exists()

    def test_two_dimensional_array_round_trips_as_p5(self, rng, tmp_path):
        arr = rng.integers(0, 256, (5, 6)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        imaging.write_image(arr, path)
        assert path.read_bytes().startswith(b"P5\n6 5\n255\n")
        assert np.array_equal(imaging.read_image(path).pixels, arr[:, :, None])

    def test_minimal_p6(self):
        data = b"P6\n2 2\n255\n" + bytes(range(12))
        image = imaging.decode_netpbm(data)
        assert (image.width, image.height, image.pixels.shape[2]) == (2, 2, 3)
        assert image.pixels[0, 0, 0] == 0 and image.pixels[1, 1, 2] == 11

    def test_minimal_p5(self):
        data = b"P5\n3 1\n255\n" + bytes([0, 128, 255])
        image = imaging.decode_netpbm(data)
        assert image.pixels.shape[2] == 1
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
        assert image.pixels.size == image.width * image.height * image.pixels.shape[2] > 0

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
        img = np.full((1, 1, 3), 255, dtype=np.uint8)
        assert imaging.luma(img)[0, 0] == 255

    def test_pure_red(self):
        arr = np.zeros((1, 1, 3), dtype=np.uint8)
        arr[0, 0, 0] = 255
        gray = imaging.luma(arr)
        assert gray[0, 0] == 76  # round(0.299 * 255)

    def test_gray_passthrough(self, rng):
        img = random_image(rng, 4, 4, 1)
        gray = imaging.luma(img)
        assert np.shares_memory(gray, img) and np.array_equal(gray, img[:, :, 0])


class TestGaussianBlur:
    def test_constant_preserved(self):
        out = imaging.blur_array(np.full((9, 9), 77.0), sigma=1.5)
        assert np.allclose(out, 77.0, rtol=0, atol=1e-12)

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


def sobel_loop(plane: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel Sobel of one clamp-to-border plane, the kernel weights summed by scalars.

    In each kernel row the two outer terms are added first, then the middle
    one; the row sums are added top to bottom.
    """
    h, w = plane.shape
    out = []
    for kernel in (((-1, 0, 1), (-2, 0, 2), (-1, 0, 1)), ((-1, -2, -1), (0, 0, 0), (1, 2, 1))):
        g = np.empty((h, w))
        for y, x in np.ndindex(h, w):
            rows = []
            for k, weights in enumerate(kernel):
                sy = min(max(y + k - 1, 0), h - 1)
                sxs = [min(max(x + l - 1, 0), w - 1) for l in range(3)]
                terms = [wt * float(plane[sy, sx]) for wt, sx in zip(weights, sxs)]
                rows.append((terms[0] + terms[2]) + terms[1])
            g[y, x] = (rows[0] + rows[1]) + rows[2]
        out.append(g)
    return out[0], out[1]


class TestSobel:
    def test_matches_the_scalar_loop_in_every_bit(self, rng):
        # flat runs of 0 and of one repeated value put exact zeros in the sums
        noisy = rng.uniform(0, 255, (3, 11, 13))
        noisy[rng.random(noisy.shape) < 0.3] = 0.0
        noisy[rng.random(noisy.shape) < 0.2] = 97.25
        blurred = imaging.blur_array(imaging.luma(random_image(rng, 9, 8)), 1.3)
        for stack in (noisy, blurred[None], imaging.blur_array(noisy, 0.7)):
            gx, gy = imaging.sobel_gradients(stack)
            for plane, px, py in zip(stack, gx, gy):
                ex, ey = sobel_loop(plane)
                # int64 views compare bits, so -0.0 and +0.0 differ
                assert np.array_equal(px.view(np.int64), ex.view(np.int64))
                assert np.array_equal(py.view(np.int64), ey.view(np.int64))


def square_fixture() -> np.ndarray:
    arr = np.zeros((32, 32, 1), dtype=np.uint8)
    arr[8:24, 8:24] = 255
    return arr


def square_perimeter() -> set[tuple[int, int]]:
    ring = set()
    for i in range(8, 24):
        ring.update({(8, i), (23, i), (i, 8), (i, 23)})
    return ring


# offsets of the neighbor pair to compare against, per direction bin:
# 0 deg, 45 deg, 90 deg, 135 deg
NMS_OFFSETS = ((0, 1), (1, 1), (1, 0), (1, -1))


def quantize_direction(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    angle = np.degrees(np.arctan2(gy, gx)) % 180.0
    bins = np.zeros(angle.shape, dtype=np.int8)
    bins[(angle >= 22.5) & (angle < 67.5)] = 1
    bins[(angle >= 67.5) & (angle < 112.5)] = 2
    bins[(angle >= 112.5) & (angle < 157.5)] = 3
    return bins


def non_maximum_suppression(magnitude: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Zero out pixels that are not local maxima along their gradient axis, at every pixel."""
    h, w = magnitude.shape
    out = np.zeros_like(magnitude)
    padded = np.pad(magnitude, 1, mode="constant")
    for b, (dy, dx) in enumerate(NMS_OFFSETS):
        fwd = padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
        bwd = padded[1 - dy : 1 - dy + h, 1 - dx : 1 - dx + w]
        keep = (bins == b) & (magnitude >= fwd) & (magnitude >= bwd)
        out[keep] = magnitude[keep]
    return out


def suppressed_magnitude(image: np.ndarray, sigma: float) -> np.ndarray:
    """Canny's gradient magnitude after dense non-maximum suppression, the oracle for ``canny``."""
    smoothed = imaging.blur_array(
        imaging.luma(image).astype(float), sigma
    )
    gx, gy = imaging.sobel_gradients(smoothed)
    return non_maximum_suppression(np.hypot(gx, gy), quantize_direction(gx, gy))


def canny(image: np.ndarray, sigma: float, low: float, high: float) -> np.ndarray:
    """``imaging.canny`` of one image, as a stack of one."""
    return imaging.canny(image[None], sigma, low, high)[0]


def segment_grain(image: np.ndarray) -> np.ndarray:
    """``imaging.segment_grain`` of one image, as a stack of one."""
    return imaging.segment_grain(image[None])[0]


def label_components(mask: np.ndarray, connectivity: int, values=None) -> tuple[np.ndarray, int]:
    """``imaging.label_components`` of one (H, W) mask, as a stack of one."""
    labels, count = imaging.label_components(
        mask[None], connectivity, values=None if values is None else values[None]
    )
    return labels[0], count


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
        img = np.full((16, 16, 1), 130, dtype=np.uint8)
        edges = canny(img, 1.0, 20, 60)
        assert not edges.any()

    def test_square_fixture_localization(self):
        edges = canny(square_fixture(), sigma=1.0, low=20, high=60)
        perimeter = square_perimeter()
        edge_points = set(zip(*np.nonzero(edges)))
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
        lo_mask = canny(img, 1.0, 10, 40)
        hi_mask = canny(img, 1.0, 10, 80)
        assert not (hi_mask & ~lo_mask).any()

    def test_threshold_order_enforced(self):
        with pytest.raises(ValueError, match="low < high"):
            imaging.canny(square_fixture()[None], 1.0, 60, 60)

    def test_edge_map_round_trips_as_pgm(self, tmp_path):
        edges = canny(square_fixture(), 1.0, 20, 60)
        path = tmp_path / "edges.pgm"
        imaging.write_image(edges.astype(np.uint8) * 255, path)
        back = imaging.read_image(path)
        assert np.array_equal(back.pixels[:, :, 0] == 255, edges)

    def test_no_edge_below_low(self, rng):
        img = random_image(rng, 20, 20, 1)
        low = 30.0
        edges = canny(img, 1.0, low, 90.0)
        smoothed = imaging.blur_array(imaging.luma(img).astype(float), 1.0)
        gx, gy = imaging.sobel_gradients(smoothed)
        magnitude = np.hypot(gx, gy)
        assert np.all(magnitude[edges] >= low)

    def test_every_edge_component_touches_a_strong_pixel(self, rng):
        img = random_image(rng, 24, 24, 1)
        low, high = 20.0, 70.0
        edges = canny(img, 1.0, low, high)
        if not edges.any():
            pytest.skip("fixture produced no edges")
        strong = suppressed_magnitude(img, 1.0) >= high
        for comp in flood_components(edges):
            assert any(strong[y, x] for y, x in comp)

    def test_hysteresis_matches_seeded_flood(self, rng):
        images = [render_shape(kind, 50, Rng(401).child(kind)) for kind in SHAPE_CLASSES]
        images += [random_image(rng, 5 + 3 * i, 30 - 2 * i, 1 + 2 * (i % 2)) for i in range(10)]
        for image in images:
            for sigma, low, high in ((1.0, 50.0, 100.0), (1.5, 10.0, 40.0), (0.7, 0.0, 250.0)):
                edges = canny(image, sigma, low, high)
                suppressed = suppressed_magnitude(image, sigma)
                expected = seeded_flood(suppressed >= high, suppressed >= low)
                assert edges.dtype == bool
                assert np.array_equal(edges, expected)


class TestOtsu:
    def test_bimodal_halves(self):
        arr = np.concatenate([np.full(50, 50), np.full(50, 200)]).astype(np.uint8)
        img = arr.reshape(10, 10, 1)
        t = imaging.otsu_threshold(img)
        assert 50 <= t <= 199
        assert t == exhaustive_otsu(img[:, :, 0])

    def test_all_zero(self):
        img = np.zeros((4, 4, 1), dtype=np.uint8)
        assert imaging.otsu_threshold(img) == 0

    def test_single_value_convention(self):
        img = np.full((3, 3, 1), 173, dtype=np.uint8)
        assert imaging.otsu_threshold(img) == 173

    def test_matches_exhaustive_search(self, rng):
        for _ in range(25):
            img = random_image(rng, 9, 7, 1)
            assert imaging.otsu_threshold(img) == exhaustive_otsu(img[:, :, 0])

    def test_matches_exhaustive_on_few_levels(self, rng):
        # few distinct values exercise tie-breaking
        for _ in range(25):
            levels = rng.integers(0, 256, 3)
            arr = levels[rng.integers(0, 3, (6, 6))].astype(np.uint8)
            img = arr[:, :, None]
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
            labels, count = label_components(mask, connectivity, values=values)
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
        assert label_components(mask, 4)[1] == count4
        assert label_components(mask, 8)[1] == count8
        self._assert_matches_oracle(mask)

    def test_ids_follow_first_pixel_in_row_major_order(self):
        mask = np.array([[0, 1, 0, 1], [1, 0, 0, 1], [0, 0, 1, 0]], dtype=bool)
        labels4, count4 = label_components(mask, 4)
        labels8, count8 = label_components(mask, 8)
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
            imaging.label_components(np.ones((1, 3, 3), dtype=bool), connectivity)


class TestSegmentGrain:
    def test_disc_recovered(self):
        arr = np.zeros((32, 32), dtype=np.uint8)
        yy, xx = np.mgrid[0:32, 0:32]
        disc = (yy - 16) ** 2 + (xx - 16) ** 2 <= 8**2
        arr[disc] = 220
        mask = segment_grain(arr[:, :, None])
        # within a 1-pixel band of the analytic boundary
        dist = np.sqrt((yy - 16) ** 2 + (xx - 16) ** 2)
        assert np.all(mask[dist <= 7])
        assert not np.any(mask[dist >= 9])

    def test_largest_blob_wins(self):
        arr = np.zeros((20, 20), dtype=np.uint8)
        arr[2:12, 2:12] = 255  # 100 px
        arr[14:19, 14:20] = 255  # 30 px
        mask = segment_grain(arr[:, :, None])
        comps = flood_components(mask)
        assert len(comps) == 1
        assert comps[0] == {(y, x) for y in range(2, 12) for x in range(2, 12)}
        assert mask.sum() == 100

    def test_full_white(self):
        img = np.full((5, 5, 1), 255, dtype=np.uint8)
        mask = segment_grain(img)
        assert mask.all() and mask.sum() == 25

    def test_constant_bright_is_full_frame(self):
        img = np.full((5, 5, 1), 9, dtype=np.uint8)
        assert segment_grain(img).all()

    def test_no_foreground_gives_an_empty_mask(self):
        for channels in (1, 3):
            img = np.zeros((5, 5, channels), dtype=np.uint8)
            mask = segment_grain(img)
            assert mask.shape == (5, 5) and mask.dtype == bool and not mask.any()



class TestStacks:
    """``canny``, ``segment_grain`` and ``label_components`` treat each image of a stack alone."""

    @staticmethod
    def frames(rng) -> np.ndarray:
        """Shapes, noise, two equal blobs, all-black and constant frames, interleaved."""
        shapes = [render_shape(kind, 24, Rng(9).child(kind)) for kind in SHAPE_CLASSES]
        twins = np.zeros((24, 24, 3), dtype=np.uint8)
        twins[2:8, 2:8] = twins[14:20, 14:20] = 180
        black = np.zeros((24, 24, 3), dtype=np.uint8)
        flat = np.full((24, 24, 3), 90, dtype=np.uint8)
        noise = [rng.integers(0, 256, (24, 24, 3), dtype=np.uint8) for _ in range(2)]
        return np.stack([black, *shapes[:3], flat, twins, black, noise[0], *shapes[3:], noise[1]])

    def test_canny_of_a_stack_is_canny_of_each_image(self, rng):
        stack = self.frames(rng)
        for sigma, low, high in ((1.0, 50.0, 100.0), (1.5, 10.0, 40.0), (0.7, 0.0, 250.0)):
            edges = imaging.canny(stack, sigma, low, high)
            assert edges.shape == stack.shape[:3] and edges.dtype == bool
            for frame, got in zip(stack, edges, strict=True):
                assert np.array_equal(got, canny(frame, sigma, low, high))
            assert not edges[0].any() and not edges[4].any()

    def test_segment_grain_of_a_stack_is_segment_grain_of_each_image(self, rng):
        stack = self.frames(rng)
        masks = imaging.segment_grain(stack)
        assert masks.shape == stack.shape[:3] and masks.dtype == bool
        for frame, got in zip(stack, masks, strict=True):
            assert np.array_equal(got, segment_grain(frame))
        assert not masks[0].any() and masks[4].all()
        assert masks[5].sum() == 36 and masks[5][2:8, 2:8].all()  # the first of two equal blobs

    def test_labels_of_a_stack_are_numbered_plane_by_plane(self, rng):
        for _ in range(50):
            n, h, w = (int(v) for v in rng.integers(1, 9, 3))
            masks = rng.random((n, h, w)) < rng.uniform(0.1, 0.9)
            masks[rng.random(n) < 0.3] = False  # empty planes
            values = rng.integers(0, 3, (n, h, w))
            for connectivity in (4, 8):
                for vals in (None, values):
                    labels, count = imaging.label_components(masks, connectivity, values=vals)
                    assert labels.shape == masks.shape
                    offset = 0
                    for k in range(n):
                        expected, plane_count = oracle_labels(
                            masks[k], connectivity, None if vals is None else vals[k]
                        )
                        assert np.array_equal(labels[k], np.where(masks[k], expected + offset, -1))
                        offset += plane_count
                    assert count == offset


class TestResize:
    def test_constant(self):
        img = np.full((3, 5, 3), 42, dtype=np.uint8)
        out = imaging.resize(img, 11, 7)
        assert out.shape == (7, 11, 3)
        assert np.all(out == 42)

    def test_identity(self, rng):
        img = random_image(rng, 6, 4)
        out = imaging.resize(img, 6, 4)
        assert np.array_equal(out, img)

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("target", [(13, 11), (4, 5), (11, 7)], ids=["up", "down", "mixed"])
    def test_a_stack_resizes_to_each_image_resized(self, rng, channels, target):
        stack = rng.integers(0, 256, (4, 9, 6, channels)).astype(np.uint8)
        out = imaging.resize(stack, *target)
        assert out.shape == (4, target[1], target[0], channels) and out.dtype == np.uint8
        for image, got in zip(stack, out, strict=True):
            assert got.tobytes() == imaging.resize(image, *target).tobytes()

    def test_checkerboard_upscale_matches_formula(self):
        arr = np.array([[0, 255], [255, 0]], dtype=np.uint8)
        img = arr[:, :, None]
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
                assert out[i, j, 0] == int(math.floor(value + 0.5))


class TestNormalize:
    def test_endpoints(self):
        arr = np.array([[[0], [255]]], dtype=np.uint8)
        out = imaging.normalize(arr)
        assert out[0, 0, 0] == 0.0 and out[0, 1, 0] == 1.0

    def test_midpoint(self):
        arr = np.array([[[128]]], dtype=np.uint8)
        assert imaging.normalize(arr)[0, 0, 0] == pytest.approx(
            128 / 255
        )

    def test_range(self, rng):
        out = imaging.normalize(random_image(rng, 8, 8))
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestAugment:
    def test_count_and_original_first(self, rng):
        x = rng.random((6, 6, 3))
        family = imaging.augment(x)
        assert len(family) == 5
        assert family[0] is x
        assert all(np.shares_memory(variant, x) for variant in family)

    def test_rot90_twice_is_rot180(self, rng):
        r = imaging.augment(rng.random((5, 5, 3)))
        assert np.array_equal(imaging.augment(r[1])[1], r[2])

    def test_flips_are_involutions(self, rng):
        x = rng.random((6, 6, 3))
        r = imaging.augment(x)
        assert np.array_equal(imaging.augment(r[3])[3], x)
        assert np.array_equal(imaging.augment(r[4])[4], x)

    def test_rot90_index_permutation(self):
        arr = np.arange(9, dtype=np.uint8).reshape(3, 3)
        rotated = imaging.augment(arr[:, :, None])[1][:, :, 0]
        # counterclockwise quarter turn: out[i, j] = in[j, N-1-i]
        expected = np.empty_like(arr)
        for i in range(3):
            for j in range(3):
                expected[i, j] = arr[j, 3 - 1 - i]
        assert np.array_equal(rotated, expected)

    def test_rotation_requires_square(self, rng):
        with pytest.raises(ValueError, match="square"):
            imaging.augment(rng.random((6, 4, 3)))
