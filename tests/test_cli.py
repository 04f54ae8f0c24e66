import argparse
import csv
import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from grainforge import imaging, network
from grainforge.cli import UsageError, build_parser, main, resolve_config
from grainforge.imaging import Image
from grainforge.rng import Rng

from conftest import random_image


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="session")
def trained(tmp_path_factory, tiny_shape_dataset):
    """One CLI training run shared by the evaluate/explain/report tests."""
    root, _, _ = tiny_shape_dataset
    out = tmp_path_factory.mktemp("trained")
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
        ]
    )
    assert code == 0
    return root, manifest, weights, history


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

    def test_perfect_oracle_model_scores_all_ones(self, tmp_path, capsys):
        # two constant-brightness classes and a hand-built readout that
        # separates them exactly: every metric must come out 1.0
        root = tmp_path / "data"
        for label, value in (("dark", 10), ("bright", 240)):
            (root / label).mkdir(parents=True)
            for i in range(10):
                arr = np.full((4, 4, 3), value, dtype=np.uint8)
                imaging.write_image(Image.from_array(arr), root / label / f"{i}.ppm")
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
        lp = params.layers[1]
        lp.weight[:] = 0.0
        # class order is lexicographic: bright = 0, dark = 1
        lp.weight[:, 0] = 1.0  # logit 0 grows with brightness
        lp.bias[:] = np.array([-7.8, 0.0], dtype=np.float32)
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
        assert heatmap.width == 50 and heatmap.channels == 3
        lines = csv_path.read_text().splitlines()
        assert lines[-1] == "method,lime"

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
        image = imaging.read_image(image_path)
        baseline = np.array(
            np.clip(np.floor(image.pixels.reshape(-1, 3).mean(axis=0) + 0.5), 0, 255),
            dtype=np.uint8,
        )
        flat = Image.from_array(np.tile(baseline, (image.height, image.width, 1)))

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

    def test_empty_history_is_usage_error(self, tmp_path, capsys):
        history = tmp_path / "history.csv"
        history.write_text("epoch,train_loss,train_acc,val_loss,val_acc\n")
        code, stdout, stderr = run_cli(capsys, "report", "--history", str(history))
        assert code == 2
        assert stdout == ""
        assert "no epochs" in stderr


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
            cfg = resolve_config(args)
        except UsageError:
            return
        for f in fields(cfg):
            if f.type == "float":  # an accepted float setting fits a float
                assert math.isfinite(getattr(cfg, f.name)), f.name
