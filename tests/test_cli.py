import argparse
import csv
import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from grainforge import explain, imaging, network, synthetic, tensor, training
from grainforge.cli import RunConfig, UsageError, build_parser, main, resolve_config
from grainforge.rng import Rng

from conftest import random_image, time_limit

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def train_tiny(out, root, *flags):
    """Ingest the tiny shapes set and train the rice model on it for 2 epochs."""
    manifest = out / "manifest.csv"
    weights = out / "weights.gfw"
    history = out / "history.csv"
    assert main(["ingest", str(root), "--out", str(manifest)]) == 0
    code = main(
        [
            "train",
            "--manifest", str(manifest),
            "--data-root", str(root),
            "--model", "rice",
            "--epochs", "2",
            "--seed", "5",
            "--out", str(weights),
            "--history", str(history),
            *flags,
        ]
    )
    assert code == 0
    return root, manifest, weights, history


@pytest.fixture(scope="session")
def trained(tmp_path_factory, tiny_shape_dataset):
    """One CLI training run shared by the evaluate/explain/report tests."""
    return train_tiny(tmp_path_factory.mktemp("trained"), tiny_shape_dataset[0])


@pytest.fixture(scope="session")
def trained_canny(tmp_path_factory, tiny_shape_dataset):
    """The same training run on Canny edge maps."""
    return train_tiny(tmp_path_factory.mktemp("trained_canny"), tiny_shape_dataset[0], "--canny")


def rewrite_header(src, dst, edit):
    """Copy weights file ``src`` to ``dst`` with ``edit`` applied to its JSON header."""
    data = src.read_bytes()
    (header_len,) = struct.unpack("<Q", data[4:12])
    header = json.loads(data[12 : 12 + header_len])
    edit(header)
    header_bytes = json.dumps(header, sort_keys=True).encode()
    dst.write_bytes(
        data[:4] + struct.pack("<Q", len(header_bytes)) + header_bytes + data[12 + header_len :]
    )
    return dst


def without_recorded_keys(header):
    del header["preprocess"], header["classes"]


class TestIngest:
    def make_tree(self, tmp_path, rng, classes=5, files=3):
        for c in range(classes):
            d = tmp_path / f"class{c}"
            d.mkdir()
            for i in range(files):
                imaging.write_image(random_image(rng, 4, 4), d / f"img{i}.ppm")
        return tmp_path

    def test_counts_and_classes(self, tmp_path, rng, capsys):
        root = self.make_tree(tmp_path, rng)
        out = tmp_path / "manifest.csv"
        code, stdout, _ = run_cli(capsys, "ingest", str(root), "--out", str(out))
        assert code == 0
        assert stdout.strip() == str(out)
        rows = list(csv.reader(out.open()))
        assert len(rows) == 16  # header + 15
        labels = {r[1] for r in rows[1:]}
        assert len(labels) == 5

    def test_non_images_ignored(self, tmp_path, rng, capsys):
        root = self.make_tree(tmp_path, rng, classes=2, files=2)
        (root / "class0" / "notes.txt").write_text("skip me")
        (root / "class0" / "thing.jpg").write_bytes(b"\xff\xd8")
        out = tmp_path / "manifest.csv"
        code, _, _ = run_cli(capsys, "ingest", str(root), "--out", str(out))
        assert code == 0
        rows = list(csv.reader(out.open()))[1:]
        assert len(rows) == 4
        assert all(r[0].endswith(".ppm") for r in rows)

    def test_rerun_is_byte_identical(self, tmp_path, rng, capsys):
        root = self.make_tree(tmp_path, rng, classes=3, files=2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "ingest", str(root), "--out", str(a))
        run_cli(capsys, "ingest", str(root), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_empty_class_warns_not_fails(self, tmp_path, rng, capsys):
        root = self.make_tree(tmp_path, rng, classes=2, files=2)
        (root / "empty_class").mkdir()
        out = tmp_path / "manifest.csv"
        code, _, stderr = run_cli(capsys, "ingest", str(root), "--out", str(out))
        assert code == 0
        assert "empty_class" in stderr

    def test_zero_classes_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "ingest", str(tmp_path), "--out", str(tmp_path / "m.csv")
        )
        assert code == 2
        assert "no class directories" in stderr


class TestTrain:
    def test_zero_epochs_usage_error(self, tmp_path, tiny_shape_dataset, capsys):
        root, _, _ = tiny_shape_dataset
        manifest = tmp_path / "m.csv"
        run_cli(capsys, "ingest", str(root), "--out", str(manifest))
        code, _, stderr = run_cli(
            capsys,
            "train", "--manifest", str(manifest), "--data-root", str(root),
            "--epochs", "0",
        )
        assert code == 2
        assert "epochs" in stderr

    def test_manifest_that_does_not_match_the_model(self, tmp_path, capsys):
        # the listed images do not exist, so reading any of them would exit 1
        manifest = tmp_path / "m.csv"
        labels = ["cross", "disc", "ring", "square", "triangle"]
        rows = [f"{label}/{i}.ppm,{label}" for label in labels for i in range(10)]
        manifest.write_text("\n".join(["path,label", *rows]) + "\n")
        weights, history = tmp_path / "w.gfw", tmp_path / "h.csv"
        code, stdout, stderr = run_cli(
            capsys,
            "train", "--manifest", str(manifest), "--data-root", str(tmp_path / "nowhere"),
            "--model", "disease", "--out", str(weights), "--history", str(history),
        )
        assert code == 2
        assert stdout == ""
        assert "manifest has 5 classes but the model has 4" in stderr
        assert not weights.exists() and not history.exists()

    def test_artifacts_listed_on_stdout(self, trained, capsys):
        # the fixture already ran; re-run to observe stdout
        root, manifest, weights, history = trained
        code, stdout, _ = run_cli(
            capsys,
            "train", "--manifest", str(manifest), "--data-root", str(root),
            "--model", "rice", "--epochs", "1", "--seed", "5",
            "--out", str(weights.parent / "w2.gfw"),
            "--history", str(history.parent / "h2.csv"),
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines == [str(weights.parent / "w2.gfw"), str(history.parent / "h2.csv")]

    def test_identical_seeds_identical_history(self, tiny_shape_dataset, tmp_path, capsys):
        root, _, _ = tiny_shape_dataset
        manifest = tmp_path / "m.csv"
        run_cli(capsys, "ingest", str(root), "--out", str(manifest))
        histories = []
        for name in ("h1.csv", "h2.csv"):
            code, _, _ = run_cli(
                capsys,
                "train", "--manifest", str(manifest), "--data-root", str(root),
                "--epochs", "2", "--seed", "33",
                "--out", str(tmp_path / f"{name}.gfw"),
                "--history", str(tmp_path / name),
            )
            assert code == 0
            histories.append((tmp_path / name).read_bytes())
        assert histories[0] == histories[1]

    def test_config_file_and_flag_precedence(self, tiny_shape_dataset, tmp_path, capsys):
        root, _, _ = tiny_shape_dataset
        manifest = tmp_path / "m.csv"
        run_cli(capsys, "ingest", str(root), "--out", str(manifest))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "seed": 4}))
        history = tmp_path / "h.csv"
        code, _, _ = run_cli(
            capsys,
            "train", "--manifest", str(manifest), "--data-root", str(root),
            "--config", str(cfg), "--epochs", "2",
            "--out", str(tmp_path / "w.gfw"), "--history", str(history),
        )
        assert code == 0
        rows = list(csv.reader(history.open()))[1:]
        assert len(rows) == 2  # CLI --epochs 2 beat the config file's 1

    def test_unknown_config_key_rejected(self, tiny_shape_dataset, tmp_path, capsys):
        root, _, _ = tiny_shape_dataset
        manifest = tmp_path / "m.csv"
        run_cli(capsys, "ingest", str(root), "--out", str(manifest))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epoochs": 3}))
        code, _, stderr = run_cli(
            capsys,
            "train", "--manifest", str(manifest), "--data-root", str(root),
            "--config", str(cfg),
        )
        assert code == 2
        assert "epoochs" in stderr

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"epochs": "3"}, "epochs"),
            ({"seed": 4.0}, "seed"),
            ({"canny": 1}, "canny"),
            ({"learning_rate": 10**400}, "learning_rate"),
        ],
    )
    def test_mistyped_config_value_rejected(self, tiny_shape_dataset, tmp_path, capsys, config, key):
        root, _, _ = tiny_shape_dataset
        manifest = tmp_path / "m.csv"
        run_cli(capsys, "ingest", str(root), "--out", str(manifest))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, stdout, stderr = run_cli(
            capsys,
            "train", "--manifest", str(manifest), "--data-root", str(root),
            "--config", str(cfg),
            "--out", str(tmp_path / "w.gfw"), "--history", str(tmp_path / "h.csv"),
        )
        assert code == 2
        assert f"config key {key!r}" in stderr
        assert stdout == ""

    def test_seed_env_fallback(self, tiny_shape_dataset, tmp_path, capsys, monkeypatch):
        root, _, _ = tiny_shape_dataset
        manifest = tmp_path / "m.csv"
        run_cli(capsys, "ingest", str(root), "--out", str(manifest))
        monkeypatch.setenv("GRAINFORGE_SEED", "33")
        code, _, _ = run_cli(
            capsys,
            "train", "--manifest", str(manifest), "--data-root", str(root),
            "--epochs", "2",
            "--out", str(tmp_path / "w.gfw"), "--history", str(tmp_path / "h_env.csv"),
        )
        assert code == 0
        monkeypatch.delenv("GRAINFORGE_SEED")
        code, _, _ = run_cli(
            capsys,
            "train", "--manifest", str(manifest), "--data-root", str(root),
            "--epochs", "2", "--seed", "33",
            "--out", str(tmp_path / "w2.gfw"), "--history", str(tmp_path / "h_flag.csv"),
        )
        assert code == 0
        assert (tmp_path / "h_env.csv").read_bytes() == (tmp_path / "h_flag.csv").read_bytes()


class TestEvaluate:
    def test_outputs_parse_and_recount(self, trained, tmp_path, capsys):
        root, manifest, weights, _ = trained
        out_dir = tmp_path / "eval"
        code, stdout, _ = run_cli(
            capsys,
            "evaluate", "--weights", str(weights), "--manifest", str(manifest),
            "--data-root", str(root), "--split", "val", "--seed", "5",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        listed = stdout.strip().splitlines()
        assert [p.split("/")[-1] for p in listed] == [
            "metrics.csv", "confusion.csv", "roc_points.csv",
        ]
        confusion_rows = list(csv.reader((out_dir / "confusion.csv").open()))
        total = sum(int(v) for row in confusion_rows[1:] for v in row[1:])
        # tiny dataset: 20 per class, ratio split -> 2 val per class
        assert total == 10
        roc_rows = list(csv.reader((out_dir / "roc_points.csv").open()))
        assert roc_rows[-1][0] == "auc"
        assert 0.0 <= float(roc_rows[-1][1]) <= 1.0
        metrics_rows = list(csv.reader((out_dir / "metrics.csv").open()))
        assert metrics_rows[0] == ["class", "precision", "recall", "f1", "support"]
        assert len(metrics_rows) == 1 + 5 + 1  # header, classes, macro_f1

    def test_missing_weights_is_runtime_error(self, trained, tmp_path, capsys):
        root, manifest, _, _ = trained
        code, _, stderr = run_cli(
            capsys,
            "evaluate", "--weights", str(tmp_path / "ghost.gfw"),
            "--manifest", str(manifest), "--data-root", str(root),
        )
        assert code == 1
        assert "ghost" in stderr

    def test_non_finite_weights_exit_1_naming_the_offset(self, trained, tmp_path, capsys):
        root, manifest, weights, _ = trained
        spec, params = network.load_weights(weights)
        params[-1][-1] = np.nan
        bad = tmp_path / "nan.gfw"
        network.save_weights(spec, params, bad)
        with time_limit(60):
            code, stdout, stderr = run_cli(
                capsys,
                "evaluate", "--weights", str(bad), "--manifest", str(manifest),
                "--data-root", str(root), "--out-dir", str(tmp_path / "eval"),
            )
        assert (code, stdout) == (1, "")
        assert f"non-finite value nan (byte offset {bad.stat().st_size - 4})" in stderr

    def test_overflowing_weights_exit_1(self, trained, tmp_path, capsys):
        # finite weights whose class probabilities overflow to NaN
        root, manifest, weights, _ = trained
        spec, params = network.load_weights(weights)
        big = tmp_path / "big.gfw"
        network.save_weights(spec, [np.full_like(p, 1e38) for p in params], big)
        with time_limit(60):
            code, stdout, stderr = run_cli(
                capsys,
                "evaluate", "--weights", str(big), "--manifest", str(manifest),
                "--data-root", str(root), "--out-dir", str(tmp_path / "eval"),
            )
        assert (code, stdout) == (1, "")
        # no numpy RuntimeWarning reaches stderr ahead of the error
        assert stderr == "error: ROC scores must be finite\n"

    def test_perfect_oracle_model_scores_all_ones(self, tmp_path, capsys):
        # two constant-brightness classes and a hand-built readout that
        # separates them exactly: every metric must come out 1.0
        root = tmp_path / "data"
        for label, value in (("dark", 10), ("bright", 240)):
            (root / label).mkdir(parents=True)
            for i in range(10):
                arr = np.full((4, 4, 3), value, dtype=np.uint8)
                imaging.write_image(arr, root / label / f"{i}.ppm")
        manifest = tmp_path / "m.csv"
        run_cli(capsys, "ingest", str(root), "--out", str(manifest))

        spec = network.NetworkSpec(
            input_shape=(4, 4, 1),
            layers=(
                network.LayerSpec("flatten"),
                network.LayerSpec("dense", units=2, activation="softmax"),
            ),
            num_classes=2,
        )
        params = network.init_parameters(spec, Rng(0), dtype=np.float32)
        weight, bias = params
        weight[:] = 0.0
        # class order is lexicographic: bright = 0, dark = 1
        weight[:, 0] = 1.0  # logit 0 grows with brightness
        bias[:] = np.array([-7.8, 0.0], dtype=np.float32)
        weights = tmp_path / "oracle.gfw"
        network.save_weights(spec, params, weights)

        out_dir = tmp_path / "eval"
        code, _, _ = run_cli(
            capsys,
            "evaluate", "--weights", str(weights), "--manifest", str(manifest),
            "--data-root", str(root), "--split", "test", "--seed", "1",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        rows = list(csv.reader((out_dir / "metrics.csv").open()))
        for row in rows[1:-1]:
            assert float(row[1]) == float(row[2]) == float(row[3]) == 1.0
        assert float(rows[-1][1]) == 1.0  # macro_f1


class TestExplain:
    def image_path(self, root):
        return str(root / "disc" / "disc_0000.ppm")

    def test_lime_outputs(self, trained, tmp_path, capsys):
        root, _, weights, _ = trained
        out_dir = tmp_path / "lime_out"
        code, stdout, _ = run_cli(
            capsys,
            "explain", "--weights", str(weights), "--image", self.image_path(root),
            "--method", "lime", "--samples", "120", "--seed", "8",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        csv_path = out_dir / "disc_0000.lime.csv"
        ppm_path = out_dir / "disc_0000.lime.ppm"
        assert stdout.strip().splitlines() == [str(csv_path), str(ppm_path)]
        heatmap = imaging.read_image(ppm_path)
        assert heatmap.width == 50 and heatmap.pixels.shape[2] == 3
        lines = csv_path.read_text().splitlines()
        assert lines[-1] == "method,lime"

    @pytest.mark.parametrize("method", ["lime", "shap"])
    def test_non_finite_weights_exit_1(self, trained, tmp_path, capsys, method):
        root, _, weights, _ = trained
        spec, params = network.load_weights(weights)
        params[0][0, 0, 0, 1] = -np.inf
        bad = tmp_path / "inf.gfw"
        network.save_weights(spec, params, bad)
        out_dir = tmp_path / "out"
        code, stdout, stderr = run_cli(
            capsys,
            "explain", "--weights", str(bad), "--image", self.image_path(root),
            "--method", method, "--samples", "60", "--out-dir", str(out_dir),
        )
        (header_len,) = struct.unpack("<Q", bad.read_bytes()[4:12])
        assert (code, stdout) == (1, "")
        assert "tensors[0] {'layer': 0, 'name': 'weight'" in stderr
        assert f"(byte offset {12 + header_len + 4})" in stderr
        assert not out_dir.exists()

    def test_overflowing_weights_exit_1(self, trained, tmp_path, capsys):
        root, _, weights, _ = trained
        spec, params = network.load_weights(weights)
        big = tmp_path / "big.gfw"
        network.save_weights(spec, [np.full_like(p, 1e38) for p in params], big)
        out_dir = tmp_path / "out"
        code, stdout, stderr = run_cli(
            capsys,
            "explain", "--weights", str(big), "--image", self.image_path(root),
            "--samples", "60", "--out-dir", str(out_dir),
        )
        assert (code, stdout) == (1, "")
        # no numpy RuntimeWarning reaches stderr ahead of the error
        assert stderr == "error: class probabilities are not finite\n"
        assert not out_dir.exists()

    def test_kernel_width_whose_square_underflows_exit_1(self, trained, tmp_path, capsys):
        root, _, weights, _ = trained
        out_dir = tmp_path / "out"
        code, stdout, stderr = run_cli(
            capsys,
            "explain", "--weights", str(weights), "--image", self.image_path(root),
            "--method", "lime", "--kernel-width", "1e-200", "--samples", "60",
            "--out-dir", str(out_dir),
        )
        assert (code, stdout) == (1, "")
        assert stderr == (
            "error: kernel width must be positive with a positive square, got 1e-200\n"
        )
        assert not (out_dir / "disc_0000.lime.csv").exists()

    @pytest.mark.parametrize("width", ["1e-4", "1e-160"])
    def test_kernel_width_that_zeroes_every_dropped_segment_exit_1(
        self, trained, tmp_path, capsys, width
    ):
        # every mask but the full one would weigh 0.0 and every CSV weight would be 0.0
        root, _, weights, _ = trained
        out_dir = tmp_path / "out"
        code, stdout, stderr = run_cli(
            capsys,
            "explain", "--weights", str(weights), "--image", self.image_path(root),
            "--method", "lime", "--kernel-width", width, "--samples", "200",
            "--out-dir", str(out_dir),
        )
        assert (code, stdout) == (1, "")
        assert stderr == (
            f"error: kernel width {float(width)} gives every mask that drops a segment weight 0\n"
        )
        assert not (out_dir / "disc_0000.lime.csv").exists()

    def test_shap_local_accuracy_from_csv(self, trained, tmp_path, capsys):
        root, _, weights, _ = trained
        out_dir = tmp_path / "shap_out"
        image_path = self.image_path(root)
        code, _, _ = run_cli(
            capsys,
            "explain", "--weights", str(weights), "--image", image_path,
            "--method", "shap", "--samples", "200", "--seed", "8",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        lines = (out_dir / "disc_0000.shap.csv").read_text().splitlines()
        weights_sum = sum(
            float(line.split(",")[1]) for line in lines[1:-2]
        )
        target = int(lines[-2].split(",")[1])

        # recompute v(full) - v(empty) through the documented pipeline
        spec, params = network.load_weights(weights)
        image = imaging.read_image(image_path).pixels
        baseline = np.array(
            np.clip(np.floor(image.reshape(-1, 3).mean(axis=0) + 0.5), 0, 255),
            dtype=np.uint8,
        )
        flat = np.tile(baseline, (*image.shape[:2], 1))

        def predict(img):
            resized = imaging.resize(img, 50, 50)
            x = imaging.normalize(resized).astype(np.float32)
            probs, _ = network.forward(spec, params, x)
            return probs

        delta = float(predict(image)[target] - predict(flat)[target])
        assert weights_sum == pytest.approx(delta, abs=1e-6)

    def test_same_seed_identical_csv(self, trained, tmp_path, capsys):
        root, _, weights, _ = trained
        outs = []
        for name in ("x", "y"):
            out_dir = tmp_path / name
            code, _, _ = run_cli(
                capsys,
                "explain", "--weights", str(weights), "--image", self.image_path(root),
                "--method", "shap", "--samples", "150", "--seed", "21",
                "--out-dir", str(out_dir),
            )
            assert code == 0
            outs.append((out_dir / "disc_0000.shap.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_default_class_is_argmax(self, trained, tmp_path, capsys):
        root, _, weights, _ = trained
        out_dir = tmp_path / "argmax_out"
        image_path = self.image_path(root)
        code, _, _ = run_cli(
            capsys,
            "explain", "--weights", str(weights), "--image", image_path,
            "--method", "lime", "--samples", "60", "--seed", "3",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        lines = (out_dir / "disc_0000.lime.csv").read_text().splitlines()
        explained = int(lines[-2].split(",")[1])
        spec, params = network.load_weights(weights)
        image = imaging.read_image(image_path)
        x = imaging.normalize(imaging.resize(image, 50, 50)).astype(np.float32)
        probs, _ = network.forward(spec, params, x)
        assert explained == int(np.argmax(probs))

    def test_output_names_follow_the_ingest_suffix_rule(self, trained, tmp_path, capsys):
        root, _, weights, _ = trained
        images = tmp_path / "images"
        (images / "disc").mkdir(parents=True)
        # a name that is all extension has no suffix: ingest skips it, and explain keeps it whole
        stems = {"x.PPM": "x", "a.b.ppm": "a.b", ".ppm": ".ppm"}
        for name in stems:
            (images / "disc" / name).write_bytes((root / "disc" / "disc_0000.ppm").read_bytes())
        manifest = tmp_path / "manifest.csv"
        assert run_cli(capsys, "ingest", str(images), "--out", str(manifest))[0] == 0
        rows = list(csv.reader(manifest.open()))[1:]
        assert sorted(path for path, _ in rows) == ["disc/a.b.ppm", "disc/x.PPM"]
        out_dir = tmp_path / "out"
        for name, stem in stems.items():
            code, stdout, stderr = run_cli(
                capsys,
                "explain", "--weights", str(weights), "--image", str(images / "disc" / name),
                "--samples", "30", "--segments", "9", "--out-dir", str(out_dir),
            )
            assert code == 0, stderr
            assert stdout.splitlines() == [
                str(out_dir / f"{stem}.lime.csv"), str(out_dir / f"{stem}.lime.ppm")
            ]

    def test_more_segments_than_pixels_is_usage_error(self, trained, tmp_path, capsys):
        _, _, weights, _ = trained
        image_path = tmp_path / "tiny.ppm"
        imaging.write_image(random_image(Rng(5), 3, 2), image_path)
        code, stdout, stderr = run_cli(
            capsys,
            "explain", "--weights", str(weights), "--image", str(image_path),
            "--segments", "7", "--out-dir", str(tmp_path / "out"),
        )
        assert code == 2
        assert stdout == ""
        assert "segments 7 exceeds the 6 pixels" in stderr
        assert not (tmp_path / "out").exists()

    def test_slic_count_above_the_segments_bound_is_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # SLIC's grid holds 32 x 32 centres for a target of 1000 on a 50 px image
        spec = network.build_rice_cnn()
        weights = tmp_path / "rice.gfw"
        network.save_weights(spec, network.init_parameters(spec, Rng(8), np.float32), weights)
        image_path = tmp_path / "disc.ppm"
        imaging.write_image(synthetic.render_shape("disc", 50, Rng(8)), image_path)
        calls = []
        monkeypatch.setattr(network.WindowMemo, "__call__", lambda memo, x: calls.append(x))
        code, stdout, stderr = run_cli(
            capsys,
            "explain", "--weights", str(weights), "--image", str(image_path),
            "--segments", "1000", "--slic-iters", "1", "--out-dir", str(tmp_path / "out"),
        )
        assert code == 2 and stdout == "" and calls == []
        assert "SLIC made 1024 segments" in stderr and "above the 1000" in stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "layers, patched",
        [
            (("conv2d", "maxpool2d", "conv2d", "maxpool2d"), True),
            # no pool right after the first conv: the memo holds nothing, every call runs in full
            (("conv2d", "conv2d", "maxpool2d"), False),
        ],
        ids=["conv-pool-conv-pool", "conv-conv-pool"],
    )
    def test_shap_writes_the_full_forward_bytes(
        self, tmp_path, capsys, monkeypatch, layers, patched
    ):
        spec = network.NetworkSpec(
            input_shape=(32, 32, 3),
            layers=(
                *(network.LayerSpec(kind, filters=6, activation="relu") for kind in layers),
                network.LayerSpec("flatten"),
                network.LayerSpec("dense", units=8, activation="relu"),
                network.LayerSpec("dense", units=3, activation="softmax"),
            ),
            num_classes=3,
        )
        weights = tmp_path / "model.gfw"
        network.save_weights(spec, network.init_parameters(spec, Rng(6), np.float32), weights)
        image = synthetic.render_shape("ring", 32, Rng(6))
        image_path = tmp_path / "ring.ppm"
        imaging.write_image(image, image_path)
        tiles = []

        def spy(x, kernels, bias):  # the memo convolves the 4x4 tiles of the windows it recomputes
            if x.shape[1:3] == (4, 4):
                tiles.append(len(x))
            return tensor.conv2d_batch(x, kernels, bias)

        monkeypatch.setattr(network, "conv2d_batch", spy)
        code, _, stderr = run_cli(
            capsys,
            "explain", "--weights", str(weights), "--image", str(image_path), "--method", "shap",
            "--segments", "16", "--samples", "120", "--seed", "9", "--out-dir", str(tmp_path),
        )
        assert code == 0, stderr
        assert any(tiles) == patched

        # the same command by hand, every call through the full forward
        spec, params = network.load_weights(weights)

        def model(pixels):
            x = training.preprocess(pixels[None], spec, training.TrainConfig())[0]
            return np.asarray(network.forward(spec, params, x, train=False)[0], dtype=np.float64)

        target = int(np.argmax(model(image)))
        superpixels = explain.slic_superpixels(image, 16, compactness=10.0, iters=10)
        baseline = explain.mean_baseline(image)
        value = explain.coalition_value(model, image, superpixels, target, baseline)
        phi = explain.kernel_shap(value, superpixels.count, 120, Rng(9))
        explain.write_attribution_csv(tmp_path / "hand.csv", phi, target, "kernel_shap")
        heatmap = explain.render_shap_heatmap(image, superpixels, phi)
        imaging.write_image(heatmap, tmp_path / "hand.ppm")
        for ext in ("csv", "ppm"):
            written = (tmp_path / f"ring.shap.{ext}").read_bytes()
            assert written == (tmp_path / f"hand.{ext}").read_bytes()

    @pytest.mark.parametrize("size", [64, 72])
    def test_lime_reuses_windows_at_every_size(self, tmp_path, capsys, monkeypatch, size):
        # LIME's calls go through the window memo on both sides of 64 px, where the
        # default segment count changes, and write the full forward's bytes
        spec = network.NetworkSpec(
            input_shape=(size, size, 3),
            layers=(
                network.LayerSpec("conv2d", filters=4, activation="relu"),
                network.LayerSpec("maxpool2d"),
                network.LayerSpec("flatten"),
                network.LayerSpec("dense", units=3, activation="softmax"),
            ),
            num_classes=3,
        )
        weights = tmp_path / "model.gfw"
        network.save_weights(spec, network.init_parameters(spec, Rng(7), np.float32), weights)
        image = synthetic.render_shape("disc", size, Rng(7))
        image_path = tmp_path / "disc.ppm"
        imaging.write_image(image, image_path)
        calls, in_full = [], []
        memo_call, pool_windows = network.WindowMemo.__call__, network._pool_windows

        def spy(memo, x):
            calls.append(memo.nbytes)
            return memo_call(memo, x)

        def full_spy(x, where, pool, kernels, bias):
            if len(where) == pool.out_shape[0] * pool.out_shape[1]:
                in_full.append(x)
            return pool_windows(x, where, pool, kernels, bias)

        monkeypatch.setattr(network.WindowMemo, "__call__", spy)
        monkeypatch.setattr(network, "_pool_windows", full_spy)
        code, _, stderr = run_cli(
            capsys,
            "explain", "--weights", str(weights), "--image", str(image_path), "--method", "lime",
            "--segments", "16", "--samples", "40", "--seed", "9", "--out-dir", str(tmp_path),
        )
        assert code == 0, stderr
        # one memo for the command, filled as it goes, running few calls' pair in full
        assert len(calls) == 41 and calls == sorted(calls) and calls[-1] > calls[0]
        assert 0 < len(in_full) < len(calls) // 2

        spec, params = network.load_weights(weights)

        def model(pixels):
            x = training.preprocess(pixels[None], spec, training.TrainConfig())[0]
            return np.asarray(network.forward(spec, params, x, train=False)[0], dtype=np.float64)

        target = int(np.argmax(model(image)))
        superpixels = explain.slic_superpixels(image, 16, compactness=10.0, iters=10)
        value = explain.coalition_value(
            model, image, superpixels, target, explain.mean_baseline(image)
        )
        weights = explain.lime_explain(value, superpixels.count, 40, 0.25, 1.0, Rng(9))
        explain.write_attribution_csv(tmp_path / "hand.csv", weights, target, "lime")
        heatmap = explain.render_lime_heatmap(image, superpixels, weights, 5)
        imaging.write_image(heatmap, tmp_path / "hand.ppm")
        for ext in ("csv", "ppm"):
            written = (tmp_path / f"disc.lime.{ext}").read_bytes()
            assert written == (tmp_path / f"hand.{ext}").read_bytes()

    def test_repeated_input_reuses_every_window(self, tmp_path, capsys, monkeypatch):
        # KernelSHAP's v(full) call repeats the input of the call that picks the explained
        # class: the memo serves it whole, recomputing no window and running no pair
        spec = network.NetworkSpec(
            input_shape=(32, 32, 3),
            layers=(
                network.LayerSpec("conv2d", filters=6, activation="relu"),
                network.LayerSpec("maxpool2d"),
                network.LayerSpec("flatten"),
                network.LayerSpec("dense", units=3, activation="softmax"),
            ),
            num_classes=3,
        )
        weights = tmp_path / "model.gfw"
        network.save_weights(spec, network.init_parameters(spec, Rng(6), np.float32), weights)
        image_path = tmp_path / "ring.ppm"
        imaging.write_image(synthetic.render_shape("ring", 32, Rng(6)), image_path)
        calls, computed = [], []
        memo_call, pool_windows = network.WindowMemo.__call__, network._pool_windows

        def spy(memo, x):
            calls.append((x.copy(), len(computed)))
            return memo_call(memo, x)

        def counted(*args):
            computed.append(args)
            return pool_windows(*args)

        monkeypatch.setattr(network.WindowMemo, "__call__", spy)
        monkeypatch.setattr(network, "_pool_windows", counted)
        code, _, stderr = run_cli(
            capsys,
            "explain", "--weights", str(weights), "--image", str(image_path), "--method", "shap",
            "--segments", "16", "--samples", "60", "--seed", "9", "--out-dir", str(tmp_path),
        )
        assert code == 0, stderr
        first = calls[0][0]
        repeats = [i for i, (x, _) in enumerate(calls) if i and x.tobytes() == first.tobytes()]
        assert repeats
        ends = [n for _, n in calls[1:]] + [len(computed)]
        for i in repeats:
            assert ends[i] == calls[i][1]  # nothing computed during call i


def canny_by_hand(image):
    """Canny at the default settings, as a 3-channel image."""
    edges = imaging.canny(image[None], 1.0, 50.0, 100.0)[0]
    return np.repeat(edges[:, :, None].astype(np.uint8) * 255, 3, axis=2)


class TestRecordedPreprocessing:
    """evaluate and explain run the preprocessing that the weights file records."""

    EVAL_OUTPUTS = ("metrics.csv", "confusion.csv", "roc_points.csv")

    def evaluate(self, capsys, trained, weights, out_dir, *extra):
        root, manifest, _, _ = trained
        return run_cli(
            capsys,
            "evaluate", "--weights", str(weights), "--manifest", str(manifest),
            "--data-root", str(root), "--split", "val", "--seed", "5",
            "--out-dir", str(out_dir), *extra,
        )

    def evaluated(self, capsys, trained, weights, out_dir, *extra):
        code, _, stderr = self.evaluate(capsys, trained, weights, out_dir, *extra)
        assert code == 0, stderr
        return [(out_dir / name).read_bytes() for name in self.EVAL_OUTPUTS]

    def explained(self, capsys, trained, weights, out_dir):
        root = trained[0]
        code, _, stderr = run_cli(
            capsys,
            "explain", "--weights", str(weights), "--image", str(root / "disc" / "disc_0000.ppm"),
            "--method", "lime", "--samples", "60", "--class", "0", "--seed", "8",
            "--out-dir", str(out_dir),
        )
        assert code == 0, stderr
        return [(out_dir / f"disc_0000.lime.{ext}").read_bytes() for ext in ("csv", "ppm")]

    @staticmethod
    def lime_csv_by_hand(trained, model_input, path):
        """The explain CSV above, through a model that applies ``model_input`` itself."""
        root, _, weights, _ = trained
        spec, params = network.load_weights(weights)
        image = imaging.read_image(root / "disc" / "disc_0000.ppm").pixels

        def model(img):
            x = imaging.normalize(imaging.resize(model_input(img), 50, 50)).astype(np.float32)
            probs, _ = network.forward(spec, params, x)
            return np.asarray(probs, dtype=np.float64)

        superpixels = explain.slic_superpixels(image, 40, compactness=10.0, iters=10)
        value = explain.coalition_value(model, image, superpixels, 0, explain.mean_baseline(image))
        weights = explain.lime_explain(value, superpixels.count, 60, 0.25, 1.0, Rng(8))
        explain.write_attribution_csv(path, weights, 0, "lime")
        return path.read_bytes()

    def test_header_records_settings_and_classes(self, trained, trained_canny):
        for (_, _, weights, _), canny in ((trained, False), (trained_canny, True)):
            spec, _ = network.load_weights(weights)
            assert spec.preprocess == {
                "canny": canny, "segment": False,
                "canny_sigma": 1.0, "canny_low": 50.0, "canny_high": 100.0,
            }
            assert spec.classes == ("cross", "disc", "ring", "square", "triangle")

    def test_explain_runs_the_recorded_canny(self, trained_canny, tmp_path, capsys):
        csv_bytes, _ = self.explained(capsys, trained_canny, trained_canny[2], tmp_path / "cli")
        by_hand = self.lime_csv_by_hand(trained_canny, canny_by_hand, tmp_path / "canny.csv")
        raw = self.lime_csv_by_hand(trained_canny, lambda img: img, tmp_path / "raw.csv")
        assert csv_bytes == by_hand
        assert csv_bytes != raw

    def test_canny_segment_model_is_explained(self, tmp_path, capsys):
        # the all-baseline coalition is a flat image: it has no Canny edges to segment
        settings = dict(canny=True, segment=True, canny_sigma=1.0, canny_low=50.0, canny_high=100.0)
        spec = replace(network.build_rice_cnn(), preprocess=settings)
        params = network.init_parameters(spec, Rng(4), dtype=np.float32)
        weights = tmp_path / "rice.gfw"
        network.save_weights(spec, params, weights)
        image = synthetic.render_shape("disc", 50, Rng(4))
        image_path = tmp_path / "disc.ppm"
        imaging.write_image(image, image_path)
        for method in ("lime", "shap"):
            code, _, stderr = run_cli(
                capsys,
                "explain", "--weights", str(weights), "--image", str(image_path),
                "--method", method, "--segments", "6", "--samples", "200", "--seed", "3",
                "--out-dir", str(tmp_path / "out"),
            )
            assert code == 0, stderr
        lines = (tmp_path / "out" / "disc.shap.csv").read_text().splitlines()
        phi = [float(line.split(",")[1]) for line in lines[1:-2]]
        target = int(lines[-2].split(",")[1])
        config = training.TrainConfig(**settings)

        def value(img):
            x = training.preprocess(img[None], spec, config)[0]
            return float(network.forward(spec, params, x, train=False)[0][target])

        flat = np.tile(explain.mean_baseline(image), (50, 50, 1)).astype(np.uint8)
        assert sum(phi) == pytest.approx(value(image) - value(flat), abs=1e-6)

    def test_evaluate_without_flags_runs_the_recorded_canny(
        self, trained_canny, tmp_path, capsys
    ):
        weights = trained_canny[2]
        unset = self.evaluated(capsys, trained_canny, weights, tmp_path / "unset")
        flagged = self.evaluated(capsys, trained_canny, weights, tmp_path / "flag", "--canny")
        assert unset == flagged

    def test_header_without_the_keys_falls_back_to_flags(self, trained_canny, tmp_path, capsys):
        recorded = self.evaluated(capsys, trained_canny, trained_canny[2], tmp_path / "rec")
        bare = rewrite_header(trained_canny[2], tmp_path / "bare.gfw", without_recorded_keys)
        assert self.evaluated(capsys, trained_canny, bare, tmp_path / "b1", "--canny") == recorded
        assert self.evaluated(capsys, trained_canny, bare, tmp_path / "b2") != recorded

    def test_header_without_the_keys_runs_raw_pixels(self, trained, tmp_path, capsys):
        bare = rewrite_header(trained[2], tmp_path / "bare.gfw", without_recorded_keys)
        assert network.load_weights(bare)[0].preprocess is None
        assert self.evaluated(capsys, trained, bare, tmp_path / "e1") == self.evaluated(
            capsys, trained, trained[2], tmp_path / "e2"
        )
        csv_bytes, heatmap = self.explained(capsys, trained, bare, tmp_path / "x1")
        assert [csv_bytes, heatmap] == self.explained(capsys, trained, trained[2], tmp_path / "x2")
        raw = self.lime_csv_by_hand(trained, lambda img: img, tmp_path / "raw.csv")
        assert csv_bytes == raw

    @pytest.mark.parametrize(
        "command, extra, config, message",
        [
            ("evaluate", ["--canny"], None, "canny is True here but False in the weights file"),
            ("evaluate", ["--canny-sigma", "2"], None, "canny_sigma is 2.0 here but 1.0"),
            ("explain", [], {"segment": True}, "segment is True here but False"),
            ("explain", [], {"canny_high": 90}, "canny_high is 90 here but 100.0"),
        ],
    )
    def test_contradicting_the_header_is_usage_error(
        self, trained, tmp_path, capsys, command, extra, config, message
    ):
        root, manifest, weights, _ = trained
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            extra = [*extra, "--config", str(tmp_path / "config.json")]
        out_dir = tmp_path / "out"
        if command == "evaluate":
            code, stdout, stderr = self.evaluate(capsys, trained, weights, out_dir, *extra)
        else:
            code, stdout, stderr = run_cli(
                capsys, "explain", "--weights", str(weights),
                "--image", str(root / "disc" / "disc_0000.ppm"), "--out-dir", str(out_dir), *extra,
            )
        assert code == 2
        assert stdout == ""
        assert message in stderr
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p.pop("segment"),
            lambda p: p.update(blur=True),
            lambda p: p.update(canny=1),
            lambda p: p.update(canny_sigma="1.5"),
            lambda p: p.update(canny_low=float("nan")),
            lambda p: p.update(canny_high=10**400),
        ],
        ids=["missing", "unknown", "int-bool", "str-float", "nan", "huge"],
    )
    def test_malformed_recorded_settings_are_runtime_errors(
        self, trained, tmp_path, capsys, command, edit
    ):
        root, manifest, weights, _ = trained
        bad = rewrite_header(weights, tmp_path / "bad.gfw", lambda h: edit(h["preprocess"]))
        out_dir = tmp_path / "out"
        if command == "evaluate":
            code, stdout, stderr = self.evaluate(capsys, trained, bad, out_dir)
        else:
            code, stdout, stderr = run_cli(
                capsys, "explain", "--weights", str(bad),
                "--image", str(root / "disc" / "disc_0000.ppm"), "--out-dir", str(out_dir),
            )
        assert code == 1
        assert stdout == ""
        assert "recorded preprocessing" in stderr and "byte offset 12" in stderr
        assert not out_dir.exists()

    def test_invalid_recorded_setting_is_runtime_error(self, trained, tmp_path, capsys):
        bad = rewrite_header(
            trained[2], tmp_path / "bad.gfw", lambda h: h["preprocess"].update(canny_sigma=0.0)
        )
        code, stdout, stderr = self.evaluate(capsys, trained, bad, tmp_path / "out")
        assert code == 1
        assert stdout == ""
        assert "recorded preprocessing: canny_sigma must be > 0" in stderr

    @pytest.mark.parametrize(
        "labels, bare, message",
        [
            (["cross", "disc", "ring", "square", "triangle", "oval"], False, "differ from"),
            (["cross", "disc", "ring", "square", "star"], False, "differ from"),
            (["cross", "disc", "ring", "square", "triangle", "oval"], True,
             "manifest has 6 classes but the model has 5"),
        ],
    )
    def test_manifest_that_does_not_match_the_model(
        self, trained, tmp_path, capsys, labels, bare, message
    ):
        # the listed images do not exist, so reading any of them would exit 1
        manifest = tmp_path / "m.csv"
        rows = [f"{label}/{i}.ppm,{label}" for label in labels for i in range(10)]
        manifest.write_text("\n".join(["path,label", *rows]) + "\n")
        weights = trained[2]
        if bare:
            weights = rewrite_header(weights, tmp_path / "bare.gfw", without_recorded_keys)
        code, stdout, stderr = run_cli(
            capsys,
            "evaluate", "--weights", str(weights), "--manifest", str(manifest),
            "--data-root", str(tmp_path / "nowhere"), "--out-dir", str(tmp_path / "out"),
        )
        assert code == 2
        assert stdout == ""
        assert message in stderr


class TestReport:
    def test_text_summary(self, trained, capsys):
        _, _, _, history = trained
        code, stdout, _ = run_cli(capsys, "report", "--history", str(history))
        assert code == 0
        assert "best epoch" in stdout
        assert "train_loss" in stdout

    def test_written_file_listed(self, trained, tmp_path, capsys):
        _, _, _, history = trained
        out = tmp_path / "report.txt"
        code, stdout, _ = run_cli(
            capsys, "report", "--history", str(history), "--out", str(out)
        )
        assert code == 0
        assert stdout.strip() == str(out)
        assert "best epoch" in out.read_text()

    @pytest.mark.parametrize(
        "val_losses, marked",
        [(("nan", "0.5", "0.4", "0.4"), 3), (("nan", "nan"), None), (("inf",), None)],
    )
    def test_nan_epoch_never_marked_best(self, tmp_path, capsys, val_losses, marked):
        history = tmp_path / "history.csv"
        rows = [f"{i},0.9,0.5,{v},0.5" for i, v in enumerate(val_losses, start=1)]
        history.write_text("\n".join(["epoch,train_loss,train_acc,val_loss,val_acc", *rows]))
        code, stdout, _ = run_cli(capsys, "report", "--history", str(history))
        assert code == 0
        best = [line.split()[0] for line in stdout.splitlines() if line.endswith("<- best")]
        if marked is None:
            assert best == [] and "best epoch: none (no finite validation loss)" in stdout
        else:
            assert best == [str(marked)] and f"best epoch: {marked} (val loss 0.4" in stdout

    def test_metrics_not_utf8_names_the_file(self, trained, tmp_path, capsys):
        _, _, _, history = trained
        metrics = tmp_path / "metrics.csv"
        metrics.write_bytes(b"k,v\n\xff\n")
        code, stdout, stderr = run_cli(
            capsys, "report", "--history", str(history), "--metrics", str(metrics)
        )
        assert code == 1
        assert stdout == ""
        assert f"metrics {metrics}: not UTF-8 text" in stderr

    def test_empty_history_is_usage_error(self, tmp_path, capsys):
        history = tmp_path / "history.csv"
        history.write_text("epoch,train_loss,train_acc,val_loss,val_acc\n")
        code, stdout, stderr = run_cli(capsys, "report", "--history", str(history))
        assert code == 2
        assert stdout == ""
        assert "no epochs" in stderr

    def test_whole_text_pinned(self, tmp_path, capsys):
        history = tmp_path / "history.csv"
        history.write_text(
            "epoch,train_loss,train_acc,val_loss,val_acc\n"
            "1,1.234568,0.500000,nan,0.250000\n"
            "2,0.912345,0.625000,0.700000,0.600000\n"
            "3,inf,0.700000,0.650000,0.650000\n"
            "4,0.500000,0.812500,-inf,0.800000\n"
            "5,0.450000,0.875000,inf,0.812500\n"
        )
        metrics = tmp_path / "metrics.csv"
        metrics.write_text(
            "class,precision,recall,f1,support\n"
            "arborio,0.900000,0.750000,0.818182,12\n"
            "basmati,0.700000,0.875000,0.777778,8\n"
            "macro_f1,0.797980\n"
        )
        code, stdout, stderr = run_cli(
            capsys, "report", "--history", str(history), "--metrics", str(metrics)
        )
        assert (code, stderr) == (0, "")
        assert stdout == (
            f"Training history: {history}\n"
            "epoch  train_loss  train_acc  val_loss  val_acc\n"
            "    1    1.234568   0.500000       nan  0.250000\n"
            "    2    0.912345   0.625000  0.700000  0.600000\n"
            "    3         inf   0.700000  0.650000  0.650000\n"
            "    4    0.500000   0.812500      -inf  0.800000  <- best\n"
            "    5    0.450000   0.875000       inf  0.812500\n"
            "best epoch: 4 (val loss -inf)\n"
            "\n"
            f"Metrics: {metrics}\n"
            "class,precision,recall,f1,support\n"
            "arborio,0.900000,0.750000,0.818182,12\n"
            "basmati,0.700000,0.875000,0.777778,8\n"
            "macro_f1,0.797980\n"
        )


class TestUtf8Output:
    """Class names reach every written file as UTF-8 whatever the locale's encoding."""

    NAME = "jasm\u00edn"

    @staticmethod
    def run_ascii_locale(*argv):
        env = dict(os.environ, LC_ALL="C", LANG="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
        )
        return subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
        )

    def test_metrics_and_confusion_csv(self, tmp_path):
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from grainforge import metrics\n"
            f"names = [{ascii(self.NAME)}, 'basmati']\n"
            "cm = np.array([[3, 1], [0, 4]])\n"
            "metrics.write_metrics_csv(sys.argv[1], names, cm)\n"
            "metrics.write_confusion_csv(sys.argv[2], names, cm)\n"
        )
        paths = [tmp_path / "metrics.csv", tmp_path / "confusion.csv"]
        proc = self.run_ascii_locale("-c", script, *map(str, paths))
        assert (proc.returncode, proc.stderr) == (0, "")
        for path in paths:
            assert f"\n{self.NAME},".encode() in path.read_bytes()

    def test_report_out(self, tmp_path):
        history = tmp_path / "history.csv"
        history.write_text("epoch,train_loss,train_acc,val_loss,val_acc\n1,0.9,0.5,0.7,0.5\n")
        metrics = tmp_path / "metrics.csv"
        metrics.write_text(f"class,f1\n{self.NAME},0.5\n", encoding="utf-8")
        out = tmp_path / "report.txt"
        proc = self.run_ascii_locale(
            "-m", "grainforge.cli", "report", "--history", str(history),
            "--metrics", str(metrics), "--out", str(out),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{out}\n", "")
        assert out.read_bytes().endswith(f"\n{self.NAME},0.5\n".encode())


# The flags of each subcommand and the config-file keys, as the parser built
# them by hand; a parser derived from the config fields must match exactly.
CLI_OPTIONS = {
    "ingest": {"-h", "--help", "directory", "--out"},
    "train": {
        "-h", "--help", "--manifest", "--data-root", "--out", "--history", "--model",
        "--optimizer", "--learning-rate", "--batch-size", "--epochs", "--patience", "--l2",
        "--canny", "--segment", "--augment", "--canny-sigma", "--canny-low", "--canny-high",
        "--dtype", "--config", "--seed",
    },
    "evaluate": {
        "-h", "--help", "--weights", "--manifest", "--data-root", "--split", "--out-dir",
        "--batch-size", "--canny", "--segment", "--canny-sigma", "--canny-low",
        "--canny-high", "--dtype", "--config", "--seed",
    },
    "explain": {
        "-h", "--help", "--weights", "--image", "--method", "--class", "--segments",
        "--compactness", "--slic-iters", "--samples", "--kernel-width", "--ridge", "--top-k",
        "--baseline", "--out-dir", "--dtype", "--config", "--seed",
    },
    "report": {"-h", "--help", "--history", "--metrics", "--out"},
}
CONFIG_KEYS = {
    "model", "optimizer", "learning_rate", "batch_size", "epochs", "patience", "seed", "l2",
    "canny", "segment", "augment", "canny_sigma", "canny_low", "canny_high", "dtype", "split",
    "method", "target_class", "segments", "compactness", "slic_iters", "samples",
    "kernel_width", "ridge", "top_k", "baseline",
}
NOT_CONFIG_KEYS = {
    "data_root", "manifest", "weights", "image", "out", "out_dir", "history", "config",
    "command", "func", "directory", "metrics",
}
# the required arguments of each subcommand that reads a config file
REQUIRED_ARGS = {
    "train": ["train", "--manifest", "m.csv", "--data-root", "data"],
    "evaluate": ["evaluate", "--weights", "w.gfw", "--manifest", "m.csv", "--data-root", "data"],
    "explain": ["explain", "--weights", "w.gfw", "--image", "i.ppm"],
}


def bound_cases():
    """(field, the bound value, the nearest value outside it) for every bound."""
    for f in fields(RunConfig):
        low, high, above = (f.metadata.get(k) for k in ("low", "high", "above"))
        if f.type.startswith("int"):
            if low is not None:
                yield f, low, low - 1
            if high is not None:
                yield f, high, high + 1
        else:
            if low is not None:
                yield f, float(low), math.nextafter(low, -math.inf)
            if above is not None:
                yield f, math.nextafter(above, math.inf), float(above)
            if high is not None:
                yield f, float(high), math.nextafter(high, math.inf)


BOUND_CASES = list(bound_cases())
BOUND_IDS = [f"{f.name}-{outside}" for f, _, outside in BOUND_CASES]


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestConfig:
    def test_flags_and_config_keys_are_pinned(self, tmp_path):
        parsers = subcommand_parsers()
        assert set(parsers) == set(CLI_OPTIONS)
        for name, sub in parsers.items():
            options = {s for a in sub._actions for s in (a.option_strings or [a.dest])}
            assert options == CLI_OPTIONS[name], name
            accepted = set()
            if "--config" in options:
                for key in sorted(CONFIG_KEYS | NOT_CONFIG_KEYS):
                    path = tmp_path / f"{name}-{key}.json"
                    path.write_text(json.dumps({key: None}))
                    args = build_parser().parse_args([*REQUIRED_ARGS[name], "--config", str(path)])
                    try:
                        resolve_config(args)
                    except UsageError as exc:
                        if "unknown config keys" in str(exc):
                            continue
                    accepted.add(key)
            assert accepted == (CONFIG_KEYS if "--config" in options else set()), name

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["explain", "--segments", "0"], "segments"),
            (["explain", "--slic-iters", "0"], "slic_iters"),
            (["explain", "--kernel-width", "0"], "kernel_width"),
            (["explain", "--ridge", "-1"], "ridge"),
            (["explain", "--top-k", "-2"], "top_k"),
            (["explain", "--compactness", "-5"], "compactness"),
            (["train", "--canny", "--canny-sigma", "0"], "canny_sigma"),
            (["evaluate", "--canny", "--canny-sigma", "0"], "canny_sigma"),
            (["train", "--learning-rate", "inf"], "learning_rate"),
            (["explain", "--kernel-width", "nan"], "kernel_width"),
        ],
    )
    def test_bad_value_rejected_before_any_file_is_read(
        self, tmp_path, capsys, monkeypatch, argv, key
    ):
        # none of the named files exist, so a check made after reading one would exit 1
        monkeypatch.chdir(tmp_path)
        code, stdout, stderr = run_cli(capsys, *REQUIRED_ARGS[argv[0]], *argv[1:])
        assert code == 2
        assert stdout == ""
        assert key in stderr

    def test_settings_named_by_a_flag_or_the_file(self, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"samples": 30, "top_k": 3}))
        monkeypatch.setenv("GRAINFORGE_SEED", "9")  # a fallback, not a setting given here
        argv = [*REQUIRED_ARGS["explain"], "--top-k", "2", "--config", str(config)]
        cfg, given = resolve_config(build_parser().parse_args(argv))
        assert (cfg.samples, cfg.top_k, cfg.seed) == (30, 2, 9)
        assert given == {"samples", "top_k"}

    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    def test_config_file_parsed_once_per_command(
        self, trained, tmp_path, capsys, monkeypatch, command
    ):
        root, manifest, weights, _ = trained
        config = tmp_path / "config.json"
        # canny is recorded in the weights too, so the file's value is checked against it
        settings = {"method": "shap", "samples": 30, "segments": 9, "seed": 5, "canny": False}
        config.write_text(json.dumps(settings))
        parsed = []
        load = json.load

        def counting_load(fh, *args, **kwargs):
            parsed.append(fh.name)
            return load(fh, *args, **kwargs)

        monkeypatch.setattr(json, "load", counting_load)
        if command == "evaluate":
            extra = ["--manifest", str(manifest), "--data-root", str(root)]
        else:
            extra = ["--image", str(root / "disc" / "disc_0000.ppm")]
        code, _, stderr = run_cli(
            capsys, command, "--weights", str(weights), *extra, "--config", str(config),
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 0, stderr
        assert parsed == [str(config)]

    def test_bounds_are_pinned(self):
        # the cases below come from the field metadata, so losing a bound would drop its case
        assert BOUND_IDS == [
            "learning_rate--5e-324", "batch_size-0", "epochs-0", "patience-0", "seed--1",
            "seed-18446744073709551616", "l2--5e-324", "canny_sigma-0.0",
            "canny_sigma-50.00000000000001", "canny_low--5e-324", "target_class--1", "segments-0", "segments-1001", "compactness--5e-324", "slic_iters-0",
            "slic_iters-1001", "samples-0", "samples-1000001", "kernel_width-0.0",
            "ridge--5e-324", "top_k--1",
        ]

    @pytest.mark.parametrize("field, inside, outside", BOUND_CASES, ids=BOUND_IDS)
    def test_every_bound_rejects_the_next_value_and_accepts_its_own(
        self, tmp_path, capsys, monkeypatch, field, inside, outside
    ):
        monkeypatch.chdir(tmp_path)  # no named file exists, so reading one would exit 1
        command = field.metadata["commands"][0]
        flag = field.metadata["flag"] or "--" + field.name.replace("_", "-")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({field.name: outside}))
        for extra in ([f"{flag}={outside!r}"], ["--config", str(config)]):
            code, stdout, stderr = run_cli(capsys, *REQUIRED_ARGS[command], *extra)
            assert code == 2, extra
            assert stdout == ""
            assert field.name in stderr
        args = build_parser().parse_args([*REQUIRED_ARGS[command], f"{flag}={inside!r}"])
        assert getattr(resolve_config(args)[0], field.name) == inside

    @pytest.mark.parametrize(
        "key, limit, bad",
        [("samples", 10**6, 10**21), ("slic_iters", 1000, 1001), ("segments", 1000, 1001)],
    )
    def test_count_settings_have_an_upper_bound(
        self, tmp_path, capsys, monkeypatch, key, limit, bad
    ):
        monkeypatch.chdir(tmp_path)
        flag = "--" + key.replace("_", "-")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: bad}))
        for extra in ([flag, str(bad)], ["--config", str(config)]):
            code, stdout, stderr = run_cli(capsys, *REQUIRED_ARGS["explain"], *extra)
            assert code == 2, extra
            assert stdout == ""
            assert f"{key} must be in [1, {limit}]" in stderr
        args = build_parser().parse_args([*REQUIRED_ARGS["explain"], flag, str(limit)])
        assert getattr(resolve_config(args)[0], key) == limit
        help_text = " ".join(subcommand_parsers()["explain"].format_help().split())
        assert f"1 to {limit}" in help_text

    @pytest.mark.parametrize(
        "content", [b"[" * 100_000, b'{"seed": "\xff"}'], ids=["deep-nesting", "bad-utf8"]
    )
    def test_unreadable_config_file_is_a_usage_error_naming_it(
        self, tmp_path, capsys, monkeypatch, content
    ):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "deep.json"
        config.write_bytes(content)
        code, stdout, stderr = run_cli(capsys, *REQUIRED_ARGS["explain"], "--config", str(config))
        assert code == 2
        assert stdout == ""
        assert f"config file {config} is not valid JSON" in stderr

    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        command=st.sampled_from(["train", "evaluate", "explain"]),
        config=st.dictionaries(
            st.sampled_from(sorted(CONFIG_KEYS)) | st.text(max_size=6),
            st.none() | st.booleans() | st.integers(-(2**70), 2**70)
            | st.integers(-(10**401), 10**401) | st.floats()
            | st.text(max_size=6) | st.lists(st.integers(), max_size=2),
            max_size=6,
        ),
    )
    @example(command="explain", config={"kernel_width": 10**400})
    def test_fuzz_config_file_raises_only_usage_error(self, tmp_path, command, config):
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(config))
        args = build_parser().parse_args([*REQUIRED_ARGS[command], "--config", str(path)])
        try:
            cfg, _ = resolve_config(args)
        except UsageError:
            return
        for f in fields(cfg):
            if f.type == "float":  # an accepted float setting fits a float
                assert math.isfinite(getattr(cfg, f.name)), f.name
