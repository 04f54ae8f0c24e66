import numpy as np
import pytest

from grainforge import explain, network
from grainforge.explain import SuperpixelMap
from grainforge.imaging import Image, normalize
from grainforge.rng import Rng
from grainforge.synthetic import SHAPE_CLASSES, render_shape
from grainforge.training import fit_to_input

from conftest import flood_components, random_image

BASELINE = (0, 0, 0)


def banded_setup(m: int, h: int = 8, w_per_band: int = 2):
    """m vertical bands with distinct nonzero colors; baseline black."""
    w = m * w_per_band
    labels = np.repeat(np.arange(m, dtype=np.int32), w_per_band)[None, :].repeat(h, 0)
    pixels = np.zeros((h, w, 3), dtype=np.uint8)
    for s in range(m):
        pixels[:, s * w_per_band : (s + 1) * w_per_band] = (20 + 15 * s, 80, 200 - 10 * s)
    image = Image.from_array(pixels)
    spmap = SuperpixelMap(width=w, height=h, labels=labels, count=m)
    return image, spmap


def mask_reading_model(image: Image, spmap: SuperpixelMap, fn):
    """Model that recovers the inclusion mask by comparing to the original."""
    base = np.array(BASELINE, dtype=np.uint8)

    def model(perturbed: Image) -> np.ndarray:
        z = np.zeros(spmap.count)
        for s in range(spmap.count):
            region = perturbed.pixels[spmap.labels == s]
            z[s] = float(not np.all(region == base))
        return np.atleast_1d(np.asarray(fn(z), dtype=np.float64))

    return model


class TestSlic:
    def test_single_segment(self, rng):
        img = random_image(rng, 9, 7)
        spmap = explain.slic_superpixels(img, 1)
        assert spmap.count == 1
        assert np.all(spmap.labels == 0)

    def test_uniform_image_gives_equal_quadrants(self):
        img = Image.from_array(np.full((32, 32, 3), 90, dtype=np.uint8))
        spmap = explain.slic_superpixels(img, 4)
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
            spmap = explain.slic_superpixels(img, 6, iters=4)
            labels = spmap.labels
            # coverage with contiguous ids
            present = np.unique(labels)
            assert present[0] == 0 and present[-1] == spmap.count - 1
            assert len(present) == spmap.count
            # every segment 4-connected
            for s in range(spmap.count):
                count = len(flood_components(labels == s, connectivity=4))
                assert count == 1, f"segment {s} split into {count} pieces"

    def test_target_larger_than_pixel_count_rejected(self, rng):
        with pytest.raises(ValueError, match="cannot split"):
            explain.slic_superpixels(random_image(rng, 3, 3), 10)


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
        assert np.array_equal(out.pixels, image.pixels)

    def test_all_zeros_full_baseline(self):
        image, spmap = banded_setup(4)
        out = explain.perturb(image, spmap, np.zeros(4), BASELINE)
        assert np.all(out.pixels == 0)

    def test_single_exclusion_diff_matches_segment(self):
        image, spmap = banded_setup(5)
        mask = np.ones(5)
        mask[2] = 0
        out = explain.perturb(image, spmap, mask, BASELINE)
        diff = np.any(out.pixels != image.pixels, axis=2)
        assert np.array_equal(diff, spmap.labels == 2)

    def test_default_baseline_is_mean_color(self, rng):
        image = random_image(rng, 6, 6)
        spmap = SuperpixelMap(6, 6, np.zeros((6, 6), dtype=np.int32), 1)
        out = explain.perturb(image, spmap, np.zeros(1))
        expected = explain.mean_baseline(image)
        assert np.all(out.pixels.reshape(-1, 3) == expected)


class TestLime:
    def test_flat_model_gives_zero_coefficients(self):
        image, spmap = banded_setup(4)
        model = mask_reading_model(image, spmap, lambda z: [0.37])
        attribution, _ = explain.lime_explain(
            model, image, spmap, 0, n_samples=16, ridge=1e-8, rng=Rng(0),
            baseline=BASELINE,
        )
        assert np.abs(attribution.weights).max() < 1e-9

    def test_linear_model_recovered_exactly(self):
        m = 6
        image, spmap = banded_setup(m)
        c = np.array([0.05, -0.2, 0.4, 0.0, 0.15, -0.1])
        model = mask_reading_model(image, spmap, lambda z: [0.1 + float(c @ z)])
        attribution, _ = explain.lime_explain(
            model, image, spmap, 0, n_samples=64, ridge=1e-8, rng=Rng(1),
            baseline=BASELINE,
        )
        assert np.abs(attribution.weights - c).max() < 1e-6

    def test_two_segment_normal_equations(self):
        # hand-specified value table over all four masks
        table = {(0, 0): 0.2, (1, 0): 0.5, (0, 1): 0.9, (1, 1): 1.0}
        image, spmap = banded_setup(2)
        model = mask_reading_model(
            image, spmap, lambda z: [table[(int(z[0]), int(z[1]))]]
        )
        sigma, lam = 0.25, 1e-8
        attribution, _ = explain.lime_explain(
            model, image, spmap, 0, n_samples=4, kernel_width=sigma, ridge=lam,
            rng=Rng(2), baseline=BASELINE,
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
        assert np.abs(attribution.weights - beta[1:]).max() < 1e-9

    def test_highlight_holds_most_positive_segments(self):
        m = 5
        image, spmap = banded_setup(m)
        c = np.array([0.5, -0.4, 0.3, 0.0, 0.1])
        model = mask_reading_model(image, spmap, lambda z: [float(c @ z)])
        _, highlight = explain.lime_explain(
            model, image, spmap, 0, n_samples=32, ridge=1e-8, top_k=2,
            rng=Rng(3), baseline=BASELINE,
        )
        assert set(np.nonzero(highlight)[0]) == {0, 2}

    def test_sample_budget_precondition(self):
        image, spmap = banded_setup(4)
        with pytest.raises(ValueError, match="at least"):
            explain.lime_explain(
                lambda img: np.array([0.0]), image, spmap, 0, n_samples=5
            )

    def test_singular_system_suggests_ridge(self):
        image, spmap = banded_setup(3)
        model = mask_reading_model(image, spmap, lambda z: [float(z.sum())])
        # seed chosen so one segment is kept in every sampled mask, making
        # its column collinear with the intercept under ridge = 0
        for seed in range(200):
            masks = (Rng(seed).child("lime-masks").random((4, 3)) < 0.5)
            if np.any(np.vstack([np.ones(3, bool), masks]).all(axis=0)):
                with pytest.raises(ValueError, match="ridge > 0"):
                    explain.lime_explain(
                        model, image, spmap, 0, n_samples=5, ridge=0.0,
                        rng=Rng(seed), baseline=BASELINE,
                    )
                return
        pytest.fail("no singular seed found in range")

    def test_deterministic_under_seed(self):
        m = 12  # big enough to force the sampling path
        image, spmap = banded_setup(m)
        model = mask_reading_model(image, spmap, lambda z: [float(z[0] - z[5])])
        a1, _ = explain.lime_explain(
            model, image, spmap, 0, n_samples=64, rng=Rng(9), baseline=BASELINE
        )
        a2, _ = explain.lime_explain(
            model, image, spmap, 0, n_samples=64, rng=Rng(9), baseline=BASELINE
        )
        assert np.array_equal(a1.weights, a2.weights)


class TestExactShapley:
    def test_additive_game(self):
        a = np.array([0.5, -1.5, 2.0, 0.25])
        phi = explain.exact_shapley(lambda z: float(a @ z), 4)
        assert np.abs(phi - a).max() < 1e-12

    def test_hand_worked_two_players(self):
        table = {(0, 0): 0.0, (1, 0): 1.0, (0, 1): 2.0, (1, 1): 5.0}
        phi = explain.exact_shapley(
            lambda z: table[(int(z[0]), int(z[1]))], 2
        )
        assert phi == pytest.approx([2.0, 3.0])

    def test_efficiency_on_random_tables(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 7))
            table = rng.normal(0, 1, 2**m)

            def v(z, table=table):
                return float(table[int(sum(int(b) << i for i, b in enumerate(z)))])

            phi = explain.exact_shapley(v, m)
            assert phi.sum() == pytest.approx(
                v(np.ones(m)) - v(np.zeros(m)), abs=1e-9
            )

    def test_cost_guard(self):
        with pytest.raises(ValueError, match="refused"):
            explain.exact_shapley(lambda z: 0.0, 13)


class TestKernelShap:
    def test_symmetric_model_equal_values(self):
        m = 5
        image, spmap = banded_setup(m)
        model = mask_reading_model(image, spmap, lambda z: [float(z.sum() ** 2)])
        attribution = explain.kernel_shap(
            model, image, spmap, 0, baseline=BASELINE, n_samples=2**m, rng=Rng(0)
        )
        assert np.abs(attribution.weights - attribution.weights[0]).max() < 1e-9

    def test_null_player_gets_zero(self):
        m = 4
        image, spmap = banded_setup(m)
        model = mask_reading_model(
            image, spmap, lambda z: [float(z[0] + 0.5 * z[2] * z[3])]
        )
        attribution = explain.kernel_shap(
            model, image, spmap, 0, baseline=BASELINE, n_samples=2**m, rng=Rng(1)
        )
        assert abs(attribution.weights[1]) < 1e-9

    def test_full_enumeration_matches_exact_shapley(self, rng):
        m = 8
        image, spmap = banded_setup(m)
        table = rng.normal(0, 1, 2**m)

        def lookup(z):
            return [float(table[int(sum(int(b) << i for i, b in enumerate(z)))])]

        model = mask_reading_model(image, spmap, lookup)
        attribution = explain.kernel_shap(
            model, image, spmap, 0, baseline=BASELINE, n_samples=2**m, rng=Rng(2)
        )
        exact = explain.exact_shapley(lambda z: lookup(z)[0], m)
        assert np.abs(attribution.weights - exact).max() < 1e-6

    def test_sampled_mode_keeps_local_accuracy(self, rng):
        m = 12
        image, spmap = banded_setup(m)
        table = rng.normal(0, 1, 2**m)

        def lookup(z):
            return [float(table[int(sum(int(b) << i for i, b in enumerate(z)))])]

        model = mask_reading_model(image, spmap, lookup)
        attribution = explain.kernel_shap(
            model, image, spmap, 0, baseline=BASELINE, n_samples=256, rng=Rng(3)
        )
        delta = lookup(np.ones(m))[0] - lookup(np.zeros(m))[0]
        assert attribution.weights.sum() == pytest.approx(delta, abs=1e-9)

    def test_rank_deficient_samples_keep_local_accuracy_on_a_cnn(self):
        # 100 sampled coalitions for 100 segments leave the reduced normal
        # equations rank-deficient; an exact solve returned |psi| ~ 1e27 here
        spec = network.build_disease_cnn()
        params = network.init_parameters(spec, Rng(51).child("weights"), dtype=np.float32)
        image = render_shape(SHAPE_CLASSES[0], 224, Rng(51).child("image-0"))

        def model(img: Image) -> np.ndarray:
            x = normalize(fit_to_input(img, spec)).astype(np.float32)
            return np.asarray(network.forward(spec, params, x)[0], dtype=np.float64)

        spmap = explain.slic_superpixels(image, 100)
        target = int(np.argmax(model(image)))
        baseline = explain.mean_baseline(image)
        attribution = explain.kernel_shap(
            model, image, spmap, target, baseline=baseline, n_samples=100, rng=Rng(51)
        )
        empty = explain.perturb(image, spmap, np.zeros(spmap.count), baseline)
        delta = model(image)[target] - model(empty)[target]
        assert abs(attribution.weights.sum() - delta) <= 1e-6
        assert np.abs(attribution.weights).max() <= 1.0

    def test_single_segment_gets_the_delta(self):
        image, spmap = banded_setup(1)
        model = mask_reading_model(image, spmap, lambda z: [0.25 + 0.5 * float(z[0])])
        attribution = explain.kernel_shap(
            model, image, spmap, 0, baseline=BASELINE, rng=Rng(4)
        )
        assert attribution.weights[0] == pytest.approx(0.5, abs=1e-12)

    def test_deterministic_under_seed(self, rng):
        m = 12
        image, spmap = banded_setup(m)
        model = mask_reading_model(image, spmap, lambda z: [float(z[:4].sum())])
        a1 = explain.kernel_shap(
            model, image, spmap, 0, baseline=BASELINE, n_samples=200, rng=Rng(7)
        )
        a2 = explain.kernel_shap(
            model, image, spmap, 0, baseline=BASELINE, n_samples=200, rng=Rng(7)
        )
        assert np.array_equal(a1.weights, a2.weights)


class TestRendering:
    def test_empty_highlight_is_identity(self, rng):
        image = random_image(rng, 8, 8)
        spmap = explain.slic_superpixels(image, 4)
        out = explain.render_lime_heatmap(image, spmap, np.zeros(spmap.count, bool))
        assert np.array_equal(out.pixels, image.pixels)

    def test_rectangle_inner_boundary(self):
        labels = np.zeros((10, 12), dtype=np.int32)
        labels[2:6, 3:8] = 1
        spmap = SuperpixelMap(12, 10, labels, 2)
        image = Image.from_array(np.full((10, 12, 3), 40, dtype=np.uint8))
        highlight = np.array([False, True])
        out = explain.render_lime_heatmap(image, spmap, highlight)
        yellow = np.all(out.pixels == (255, 255, 0), axis=2)
        # oracle: rectangle pixels adjacent (4-way) to a pixel outside it
        expected = np.zeros((10, 12), dtype=bool)
        for y in range(2, 6):
            for x in range(3, 8):
                if y in (2, 5) or x in (3, 7):
                    expected[y, x] = True
        assert np.array_equal(yellow, expected)

    def test_zero_attribution_is_identity(self, rng):
        image = random_image(rng, 8, 8)
        spmap = explain.slic_superpixels(image, 4)
        attribution = explain.Attribution(
            weights=np.zeros(spmap.count), class_index=0, method="kernel_shap",
            baseline="rgb(0, 0, 0)",
        )
        out = explain.render_shap_heatmap(image, spmap, attribution)
        assert np.array_equal(out.pixels, image.pixels)

    def test_signed_overlay_colors(self):
        image, spmap = banded_setup(2, h=4)
        attribution = explain.Attribution(
            weights=np.array([1.0, -1.0]), class_index=0, method="kernel_shap",
            baseline="rgb(0, 0, 0)",
        )
        out = explain.render_shap_heatmap(image, spmap, attribution)
        pos = out.pixels[spmap.labels == 0].astype(int)
        neg = out.pixels[spmap.labels == 1].astype(int)
        orig_pos = image.pixels[spmap.labels == 0].astype(int)
        orig_neg = image.pixels[spmap.labels == 1].astype(int)
        assert np.all(pos[:, 0] > orig_pos[:, 0])  # pulled toward red
        assert np.all(neg[:, 2] > orig_neg[:, 2])  # pulled toward blue

    def test_attribution_csv_format(self, tmp_path):
        attribution = explain.Attribution(
            weights=np.array([0.25, -0.5]), class_index=3, method="lime",
            baseline="rgb(1, 2, 3)",
        )
        path = tmp_path / "attr.csv"
        explain.write_attribution_csv(path, attribution)
        lines = path.read_text().splitlines()
        assert lines[0] == "segment_id,weight"
        assert lines[1].startswith("0,") and float(lines[1].split(",")[1]) == 0.25
        assert lines[-2] == "class,3"
        assert lines[-1] == "method,lime"
