import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from grainforge import imaging, network, training
from grainforge.metrics import confusion_from_pairs
from grainforge.network import LayerSpec, NetworkSpec
from grainforge.rng import Rng
from grainforge.synthetic import SHAPE_CLASSES, render_shape
from grainforge.training import (
    Manifest,
    ManifestRecord,
    TrainConfig,
    manifest_from_records,
    split,
)

from test_network import param_count, scalar_count


def synthetic_manifest(per_class: dict[str, int]) -> Manifest:
    records = []
    for label, count in per_class.items():
        for i in range(count):
            records.append(ManifestRecord(path=f"{label}/{i}.ppm", label=label))
    return manifest_from_records(records)


def flat_spec(num_classes=2, side=4):
    """Smallest legal network: flatten straight into the softmax layer."""
    return NetworkSpec(
        input_shape=(side, side, 1),
        layers=(
            LayerSpec("flatten"),
            LayerSpec("dense", units=num_classes, activation="softmax"),
        ),
        num_classes=num_classes,
    )


class TestSplit:
    def test_paper_scale_rice_counts(self):
        manifest = synthetic_manifest({f"c{i}": 15000 for i in range(5)})
        assignment = split(manifest, seed=1)
        tags = list(assignment.tags)
        assert tags.count("train") == 60000
        assert tags.count("val") == 7500
        assert tags.count("test") == 7500

    def test_paper_scale_disease_counts(self):
        manifest = synthetic_manifest({f"d{i}": 1500 for i in range(4)})
        assignment = split(manifest, seed=1)
        tags = list(assignment.tags)
        assert tags.count("train") == 4800
        assert tags.count("val") == 600
        assert tags.count("test") == 600

    def test_stratified_per_class(self):
        manifest = synthetic_manifest({"a": 20, "b": 30})
        assignment = split(manifest, seed=5)
        for label, n in (("a", 20), ("b", 30)):
            idx = [i for i, r in enumerate(manifest.records) if r.label == label]
            tags = [assignment.tags[i] for i in idx]
            assert tags.count("train") == int(n * 0.8)
            assert tags.count("val") == n // 10
            assert tags.count("test") == n // 10

    def test_largest_remainder_on_odd_sizes(self):
        # 17 records: ideals 13.6/1.7/1.7 -> floors 13/1/1; the two leftover
        # records go to the largest fractional parts, val and test (0.7 each)
        manifest = synthetic_manifest({"a": 17})
        assignment = split(manifest, seed=9)
        tags = list(assignment.tags)
        assert tags.count("train") == 13
        assert tags.count("val") == 2
        assert tags.count("test") == 2

    def test_partition_property(self):
        manifest = synthetic_manifest({"a": 25, "b": 13, "c": 40})
        assignment = split(manifest, seed=11)
        assert len(assignment.tags) == len(manifest.records)
        assert all(t in training.SPLIT_TAGS for t in assignment.tags)

    def test_same_seed_reproduces_different_seed_differs(self):
        manifest = synthetic_manifest({"a": 50, "b": 50})
        a = split(manifest, seed=21)
        b = split(manifest, seed=21)
        c = split(manifest, seed=22)
        assert a.tags == b.tags
        assert a.tags != c.tags

    def test_small_class_rejected_by_name(self):
        manifest = synthetic_manifest({"ok": 15, "tiny": 9})
        with pytest.raises(ValueError, match="tiny"):
            split(manifest, seed=1)


class TestManifestIo:
    def test_round_trip(self, tmp_path):
        manifest = synthetic_manifest({"b": 3, "a": 2})
        path = tmp_path / "m.csv"
        # relax the class-size floor: write/read at any size
        training.write_manifest(manifest, path)
        back = training.read_manifest(path)
        assert back == manifest
        assert back.classes == ("a", "b")

    def test_duplicate_paths_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            manifest_from_records(
                [ManifestRecord("x.ppm", "a"), ManifestRecord("x.ppm", "b")]
            )

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("file,class\nx.ppm,a\n")
        with pytest.raises(ValueError, match="path,label"):
            training.read_manifest(path)

    @pytest.mark.parametrize("row, column", [("x.ppm", 2), ("x.ppm,a,extra", 3)])
    def test_wrong_field_count_names_line_and_column(self, tmp_path, row, column):
        path = tmp_path / "bad.csv"
        path.write_text(f"path,label\ny.ppm,a\n{row}\n")
        with pytest.raises(ValueError, match=f"bad.csv, line 3, column {column}:"):
            training.read_manifest(path)


class TestHistoryIo:
    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("epoch,train_acc,val_loss,val_acc\n1,0.5,0.7,0.5\n", 2, "train_loss"),
            ("epoch,train_loss,train_acc,val_loss,val_acc\n1,0.9,0.5,0.7,0.5\n2,x,0.5,0.6,0.5\n",
             3, "train_loss"),
            ("epoch,train_loss,train_acc,val_loss,val_acc\n1,0.9,0.5\n", 2, "val_loss"),
        ],
    )
    def test_bad_cell_names_file_line_and_column(self, tmp_path, text, line, column):
        path = tmp_path / "history.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"history.csv, line {line}, column '{column}':"):
            training.read_history(path)


HISTORY_HEADER = "epoch," + ",".join(training.HISTORY_COLUMNS) + "\n"
# characters that CSV parsing and number parsing branch on, then any UTF-8 character
CSV_TEXT = st.tuples(
    st.sampled_from(["", "path,label\n", HISTORY_HEADER]),
    st.text(st.sampled_from(list(',"\n\r\x00 .-+0123456789einfa')) | st.characters(codec="utf-8")),
).map("".join)
FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestParserErrors:
    """A manifest or history file of any content reads, or raises ValueError naming it."""

    @staticmethod
    def parse(reader, path):
        try:
            reader(path)
        except ValueError as exc:
            assert str(path) in str(exc)

    @pytest.mark.parametrize("reader", [training.read_manifest, training.read_history])
    @FUZZ
    @given(data=st.binary())
    @example(data=b"path,label\n" + b"x" * 200_000 + b",a\n")  # over the csv field limit
    @example(data=b"path,label\nx.ppm,\xff\n")  # not UTF-8
    def test_fuzz_bytes(self, tmp_path, reader, data):
        path = tmp_path / "fuzz.csv"
        path.write_bytes(data)
        self.parse(reader, path)

    @pytest.mark.parametrize("reader", [training.read_manifest, training.read_history])
    @FUZZ
    @given(text=CSV_TEXT)
    @example(text="path,label\nx.ppm,a\nx.ppm,b\n")  # duplicate manifest path
    @example(text="file,class\n")  # wrong manifest header
    @example(text=HISTORY_HEADER + "1," + "9" * 200_000 + ",0.5,0.4,0.5\n")
    def test_fuzz_text(self, tmp_path, reader, text):
        path = tmp_path / "fuzz.csv"
        path.write_text(text, encoding="utf-8")
        self.parse(reader, path)


class TestBestEpoch:
    @pytest.mark.parametrize(
        "losses, best",
        [
            ([0.5, 0.4, 0.4, 0.6], 1),
            ([math.nan, 0.5, math.nan, 0.5], 1),
            ([math.nan, math.nan], None),
            ([math.inf, math.inf], None),
            ([math.inf, 2.0], 1),
            ([], None),
        ],
    )
    def test_first_strict_minimum_never_nan(self, losses, best):
        assert training.best_epoch(losses) == best

    def test_read_history_skips_nan_epoch(self, tmp_path):
        path = tmp_path / "history.csv"
        path.write_text(HISTORY_HEADER + "1,0.9,0.5,nan,0.5\n2,0.8,0.6,0.7,0.6\n")
        history = training.read_history(path)
        assert training.best_epoch(history[:, training.VAL_LOSS]) == 1


class TestTrainLoop:
    @pytest.mark.parametrize("optimizer", ["sgd", "adam", "adamax"])
    def test_lr_zero_keeps_initialization(self, optimizer, rng):
        spec = flat_spec()
        x = rng.normal(0, 1, (12, 4, 4, 1))
        y = rng.integers(0, 2, 12)
        cfg = TrainConfig(epochs=1, batch_size=4, seed=3, optimizer=optimizer,
                          learning_rate=0.0, dtype="f64")
        params, _ = training.train_arrays(spec, x, y, x[:4], y[:4], cfg)
        fresh = network.init_parameters(spec, Rng(3).child("init"), dtype=np.float64)
        for a, b in zip(params, fresh, strict=True):
            assert np.array_equal(a, b)

    def test_determinism_same_seed(self, rng):
        spec = flat_spec()
        x = rng.normal(0, 1, (20, 4, 4, 1))
        y = rng.integers(0, 2, 20)
        cfg = TrainConfig(epochs=3, batch_size=5, seed=7, dtype="f64")
        p1, h1 = training.train_arrays(spec, x, y, x[:6], y[:6], cfg)
        p2, h2 = training.train_arrays(spec, x, y, x[:6], y[:6], cfg)
        assert len(h1) == 3
        assert np.array_equal(h1, h2)
        for a, b in zip(p1, p2, strict=True):
            assert np.array_equal(a, b)

    def test_best_params_reproduce_best_val_loss(self, rng):
        spec = flat_spec()
        x = rng.normal(0, 1, (24, 4, 4, 1))
        y = rng.integers(0, 2, 24)
        cfg = TrainConfig(epochs=4, batch_size=6, seed=13, l2=1e-3, dtype="f64")
        params, history = training.train_arrays(spec, x, y, x[:8], y[:8], cfg)
        val_losses = history[:, training.VAL_LOSS]
        best = val_losses[training.best_epoch(val_losses)]
        _, loss = training.evaluate_arrays(
            spec, params, x[:8], y[:8], lam=cfg.l2, batch_size=cfg.batch_size
        )
        assert loss == pytest.approx(best, abs=1e-12)
        assert all(best <= v for v in val_losses)

    def test_val_acc_is_the_argmax_agreement_of_the_kept_parameters(self, rng):
        spec = flat_spec(num_classes=3)
        x = rng.normal(0, 1, (30, 4, 4, 1))
        y = x.reshape(30, -1)[:, :3].argmax(axis=1)  # learnable, so one epoch gets some right
        cfg = TrainConfig(epochs=1, batch_size=7, seed=3, learning_rate=0.05, dtype="f64")
        params, history = training.train_arrays(spec, x, y, x[:11], y[:11], cfg)
        probs, _ = training.evaluate_arrays(spec, params, x[:11], y[:11], cfg.batch_size)
        agreement = float((probs.argmax(axis=1) == y[:11]).mean())
        assert 0 < agreement < 1
        assert history[0, training.HISTORY_COLUMNS.index("val_acc")] == agreement

    def test_history_length_and_early_stop(self, rng):
        spec = flat_spec()
        x = rng.normal(0, 1, (16, 4, 4, 1))
        y = rng.integers(0, 2, 16)
        cfg = TrainConfig(epochs=50, patience=2, batch_size=8, seed=5, dtype="f64")
        _, history = training.train_arrays(spec, x, y, x[:4], y[:4], cfg)
        assert len(history) <= 50
        # stopping rule: best epoch is at least patience epochs before the end
        if len(history) < 50:
            assert len(history) - 1 - training.best_epoch(history[:, training.VAL_LOSS]) >= 2

    def test_empty_split_rejected(self, rng):
        spec = flat_spec()
        x = rng.normal(0, 1, (4, 4, 4, 1))
        y = rng.integers(0, 2, 4)
        cfg = TrainConfig(epochs=1, dtype="f64")
        with pytest.raises(training.TrainingError, match="non-empty"):
            training.train_arrays(spec, x[:0], y[:0], x, y, cfg)

    def test_end_to_end_from_disk(self, tiny_shape_dataset):
        root, manifest, assignment = tiny_shape_dataset
        spec = network.build_rice_cnn()
        cfg = TrainConfig(data_root=root, epochs=2, seed=2, dtype="f32")
        params, history = training.train(spec, manifest, assignment, cfg)
        assert len(history) == 2
        assert scalar_count(params) == param_count(spec)

    def test_class_count_mismatch_is_named_before_any_image_is_read(self, tmp_path):
        manifest = synthetic_manifest({label: 10 for label in "abcde"})  # no file exists
        cfg = TrainConfig(data_root=tmp_path, epochs=1)
        with pytest.raises(ValueError, match="manifest has 5 classes but the network has 4"):
            training.train(network.build_disease_cnn(), manifest, split(manifest, 0), cfg)

    def test_unreadable_image_identifies_path(self, tmp_path):
        manifest = manifest_from_records([ManifestRecord("ghost.ppm", "a")])
        spec = flat_spec()
        cfg = TrainConfig(data_root=tmp_path, dtype="f64")
        with pytest.raises(training.TrainingError, match="ghost.ppm"):
            training.load_dataset(manifest, [0], spec, cfg)


def fit_to_input(image: np.ndarray, spec: NetworkSpec) -> np.ndarray:
    """One (H, W, C) image resized to the network's input and matched to its channel count."""
    h, w, c = spec.input_shape
    image = imaging.resize(image, w, h)
    if image.shape[2] == c:
        return image
    if c == 1:
        return imaging.luma(image)[:, :, None]
    return np.repeat(image, 3, axis=2)


def preprocess_one(image: np.ndarray, spec: NetworkSpec, config: TrainConfig) -> np.ndarray:
    """The per-image oracle of ``training.preprocess``: stages, ``fit_to_input``, normalize."""
    if config.canny:
        edges = imaging.canny(image[None], config.canny_sigma, config.canny_low, config.canny_high)
        image = edges[0, :, :, None].astype(np.uint8) * 255
    if config.segment:
        image = image * imaging.segment_grain(image[None])[0, :, :, None]
    x = imaging.normalize(fit_to_input(image, spec))
    return x.astype(training.DTYPES[config.dtype])


def input_spec(h: int, w: int, c: int) -> NetworkSpec:
    return NetworkSpec(
        input_shape=(h, w, c),
        layers=(LayerSpec("flatten"), LayerSpec("dense", units=2, activation="softmax")),
        num_classes=2,
    )


class TestLoaderStages:
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize(
        "stages",
        [{}, {"segment": True}, {"canny": True, "segment": True}],
        ids=["raw", "segment", "canny-segment"],
    )
    @pytest.mark.parametrize("shape", [(50, 50, 3), (24, 40, 1)], ids=["rgb-input", "gray-input"])
    def test_preprocess_of_a_stack_equals_the_per_image_oracle(self, dtype, stages, shape):
        spec = input_spec(*shape)
        config = TrainConfig(dtype=dtype, **stages)
        for h, w in ((37, 61), (13, 7), (80, 80), (50, 50), (24, 40)):
            for channels in (1, 3):
                images = [
                    render_shape(kind, 80, Rng(h * w + i))[:h, :w]
                    for i, kind in enumerate(SHAPE_CLASSES[:3])
                ]
                if channels == 1:
                    images = [imaging.luma(image)[:, :, None] for image in images]
                xs = training.preprocess(np.stack(images), spec, config)
                expected = np.stack([preprocess_one(image, spec, config) for image in images])
                assert xs.shape == (3, *shape) and xs.dtype == expected.dtype
                assert xs.tobytes() == expected.tobytes(), (h, w, channels)

    def test_canny_stage_yields_binary_channels(self, tiny_shape_dataset):
        root, manifest, _ = tiny_shape_dataset
        spec = network.build_rice_cnn()
        cfg = TrainConfig(data_root=root, canny=True, dtype="f64")
        xs, _ = training.load_dataset(manifest, [0], spec, cfg)
        assert xs.shape == (1, 50, 50, 3)
        assert set(np.unique(xs)) <= {0.0, 1.0}
        # edge map replicated across the three channels
        assert np.array_equal(xs[0, :, :, 0], xs[0, :, :, 1])

    def test_segment_stage_zeroes_background(self, tiny_shape_dataset):
        root, manifest, _ = tiny_shape_dataset
        spec = network.build_rice_cnn()
        cfg = TrainConfig(data_root=root, segment=True, dtype="f64")
        xs, _ = training.load_dataset(manifest, [0], spec, cfg)
        plain = training.load_dataset(
            manifest, [0], spec, TrainConfig(data_root=root, dtype="f64")
        )[0]
        # some background was zeroed, the rest kept
        assert (xs == 0).sum() > (plain == 0).sum()

    def test_segment_stage_keeps_the_grain_and_zeroes_the_rest(self):
        arr = np.full((1, 10, 10, 1), 30, dtype=np.uint8)
        arr[0, 2:5, 2:5] = 200
        arr[0, 7:9, 7:9] = 220  # a smaller bright blob, dropped with the background
        spec = flat_spec(side=10)
        xs = training.preprocess(arr, spec, TrainConfig(segment=True, dtype="f64"))
        kept = np.zeros_like(arr)
        kept[0, 2:5, 2:5] = 200
        assert np.array_equal(xs, kept / 255.0)

    def test_stacks_hold_same_size_runs_up_to_the_pixel_limit(self, tmp_path, monkeypatch):
        full = training.CHUNK_PIXELS // (50 * 50)  # 50 px images in a full stack
        sizes = [50] * (full + 2) + [40] * 3 + [50] * 2
        records = []
        for i, size in enumerate(sizes):
            kind = SHAPE_CLASSES[i % len(SHAPE_CLASSES)]
            imaging.write_image(render_shape(kind, size, Rng(i)), tmp_path / f"{i}.ppm")
            records.append(ManifestRecord(f"{i}.ppm", kind))
        manifest = manifest_from_records(records)
        spec = network.build_rice_cnn()
        cfg = TrainConfig(data_root=tmp_path, canny=True, segment=True, dtype="f32")
        preprocess, stacks = training.preprocess, []

        def spy(images, *args):
            stacks.append(images.shape[:3])
            return preprocess(images, *args)

        monkeypatch.setattr(training, "preprocess", spy)
        xs, ys = training.load_dataset(manifest, range(len(sizes)), spec, cfg)
        assert stacks == [(full, 50, 50), (2, 50, 50), (3, 40, 40), (2, 50, 50)]
        one_by_one = [
            preprocess(imaging.read_image(tmp_path / rec.path).pixels[None], spec, cfg)[0]
            for rec in records
        ]
        assert xs.dtype == np.float32 and xs.tobytes() == np.stack(one_by_one).tobytes()
        assert ys.tolist() == [manifest.classes.index(rec.label) for rec in records]

    def test_stacks_count_an_input_size_above_the_image_size(self, tmp_path, monkeypatch):
        # 50 px images resized to the 224 px disease input: each counts as 224 x 224 pixels
        spec = network.build_disease_cnn()
        assert training.CHUNK_PIXELS // (224 * 224) == 2
        records = []
        for i in range(5):
            kind = SHAPE_CLASSES[i % len(SHAPE_CLASSES)]
            imaging.write_image(render_shape(kind, 50, Rng(i)), tmp_path / f"{i}.ppm")
            records.append(ManifestRecord(f"{i}.ppm", kind))
        manifest = manifest_from_records(records)
        cfg = TrainConfig(data_root=tmp_path, dtype="f32")
        preprocess, stacks = training.preprocess, []

        def spy(images, *args):
            stacks.append(images.shape[:3])
            return preprocess(images, *args)

        monkeypatch.setattr(training, "preprocess", spy)
        xs, _ = training.load_dataset(manifest, range(5), spec, cfg)
        assert stacks == [(2, 50, 50), (2, 50, 50), (1, 50, 50)]
        one_by_one = [
            preprocess(imaging.read_image(tmp_path / rec.path).pixels[None], spec, cfg)[0]
            for rec in records
        ]
        assert xs.tobytes() == np.stack(one_by_one).tobytes()

    def test_augment_expands_fivefold(self, tiny_shape_dataset):
        root, manifest, _ = tiny_shape_dataset
        spec = network.build_rice_cnn()
        cfg = TrainConfig(data_root=root, augment=True, dtype="f64")
        xs, ys = training.load_dataset(manifest, [0, 1], spec, cfg, augment=True)
        assert len(xs) == 10
        assert list(ys) == [ys[0]] * 5 + [ys[5]] * 5
        plain, _ = training.load_dataset(manifest, [0, 1], spec, cfg)
        for i, x in enumerate(plain):
            # counterclockwise quarter turn: out[i, j] = in[j, N-1-i]
            expected = [x, x.transpose(1, 0, 2)[::-1], x[::-1, ::-1], x[:, ::-1], x[::-1]]
            for variant, want in zip(xs[5 * i : 5 * i + 5], expected, strict=True):
                assert np.array_equal(variant, want)


def confusion(spec, params, x, y):
    """Confusion matrix of the argmax predictions, built as the ``evaluate`` command builds it."""
    probs, _ = training.evaluate_arrays(spec, params, x, y, 32)
    return confusion_from_pairs(y, probs.argmax(axis=1), spec.num_classes)


class TestEvaluate:
    def test_constant_class0_model_on_balanced_set(self, rng):
        spec = flat_spec(num_classes=2)
        params = network.init_parameters(spec, Rng(1), dtype=np.float64)
        weight, bias = params
        weight[:] = 0
        bias[:] = np.array([5.0, 0.0])  # always predicts class 0
        x = rng.normal(0, 1, (10, 4, 4, 1))
        y = np.array([0, 1] * 5)
        assert confusion(spec, params, x, y).tolist() == [[5, 0], [5, 0]]

    def test_perfect_oracle_is_diagonal(self):
        spec = flat_spec(num_classes=2)
        params = network.init_parameters(spec, Rng(2), dtype=np.float64)
        weight, bias = params
        # brightness readout: dark images to class 0, bright to class 1
        weight[:, 0] = -1.0
        weight[:, 1] = 1.0
        bias[:] = 0.0
        dark = np.full((3, 4, 4, 1), -1.0)
        bright = np.full((3, 4, 4, 1), 1.0)
        x = np.concatenate([dark, bright])
        y = np.array([0, 0, 0, 1, 1, 1])
        assert np.array_equal(confusion(spec, params, x, y), np.diag([3, 3]))

    def test_row_sums_equal_class_counts(self, rng):
        spec = flat_spec(num_classes=3)
        params = network.init_parameters(spec, Rng(3), dtype=np.float64)
        x = rng.normal(0, 1, (30, 4, 4, 1))
        y = rng.integers(0, 3, 30)
        cm = confusion(spec, params, x, y)
        for k in range(3):
            assert cm[k].sum() == int((y == k).sum())

    def test_argmax_tie_goes_to_lowest_class(self):
        spec = flat_spec(num_classes=2)
        params = network.init_parameters(spec, Rng(4), dtype=np.float64)
        weight, bias = params
        weight[:] = 0.0
        bias[:] = 0.0  # exact 0.5/0.5 tie
        x = np.zeros((4, 4, 4, 1))
        y = np.array([1, 1, 1, 1])
        assert confusion(spec, params, x, y)[1, 0] == 4  # all predicted class 0


class TestHistoryCsv:
    def test_six_decimal_format_and_round_trip(self, tmp_path):
        history = np.array([[1.23456789, 0.5, 0.99999999, 0.25], [0.5, 0.75, 0.4, 0.8]])
        path = tmp_path / "history.csv"
        training.write_history(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert lines[1] == "1,1.234568,0.500000,1.000000,0.250000"
        back = training.read_history(path)
        assert back.dtype == np.float64 and back.shape == (2, len(training.HISTORY_COLUMNS))
        assert training.best_epoch(back[:, training.VAL_LOSS]) == 1
        assert back[1, training.HISTORY_COLUMNS.index("val_acc")] == pytest.approx(0.8)
