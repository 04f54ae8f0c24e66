"""Release criteria, one test per criterion with a printed verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines and
measured quantities.  The subset-scale dataset check is skipped (not
failed) unless GRAINFORGE_RICE_DIR points at a converted dataset tree.
"""

import os
import time
from fractions import Fraction

import numpy as np
import pytest

from grainforge import explain, imaging, metrics, network, training
from grainforge.network import LayerSpec, NetworkSpec
from grainforge.rng import Rng
from grainforge.synthetic import generate_shape_dataset

from conftest import random_image
from test_explain import exact_shapley
from test_imaging import exhaustive_otsu, square_fixture, square_perimeter
from test_metrics import mann_whitney_auc
from test_network import finite_difference_gradients, infer_shapes, layer_param_counts, mini_spec


def verdict(criterion: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} {criterion}: {detail} [{time.time() - started:.1f}s]")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_parameter_counts():
    t0 = time.time()
    spec = network.build_rice_cnn()
    counts = layer_param_counts(spec)
    shapes = infer_shapes(spec)
    ok = (
        counts == [896, 0, 18496, 0, 0, 247840, 165]
        and sum(counts) == 267_397
        and shapes
        == [
            (48, 48, 32),
            (24, 24, 32),
            (22, 22, 64),
            (11, 11, 64),
            (7744,),
            (32,),
            (5,),
        ]
    )
    verdict(
        "criterion 1 (parameter counts)",
        ok and time.time() - t0 < 1.0,
        f"per-layer {[c for c in counts if c]} total {sum(counts)}",
        t0,
    )


def test_criterion_2_gradient_correctness():
    t0 = time.time()
    spec = mini_spec()
    params = network.init_parameters(spec, Rng(123).child("init"), dtype=np.float64)
    batch = Rng(123).child("data").normal(0, 1, (4, 8, 8, 1))
    onehot = np.eye(3)[[0, 1, 2, 0]]
    worst = 0.0
    for lam in (0.0, 1e-3):
        _, cache = network.forward(spec, params, batch)
        analytic = network.backward(spec, params, cache, onehot, lam)
        numeric = finite_difference_gradients(spec, params, batch, onehot, lam, h=1e-5)
        for ga, gn in zip(analytic, numeric, strict=True):
            rel = np.abs(ga - gn) / np.maximum.reduce(
                [np.abs(ga), np.abs(gn), np.full_like(gn, 1e-6)]
            )
            worst = max(worst, float(rel.max()))
    elapsed_ok = time.time() - t0 < 120
    verdict(
        "criterion 2 (gradient check)",
        worst < 1e-4 and elapsed_ok,
        f"max relative error {worst:.3e} over lambda in {{0, 1e-3}}",
        t0,
    )


def test_criterion_3_end_to_end_learnability(tmp_path):
    t0 = time.time()
    manifest, assignment = generate_shape_dataset(
        tmp_path, per_class_train=200, per_class_val=40, seed=7
    )
    spec = network.build_rice_cnn()
    config = training.TrainConfig(
        data_root=tmp_path, optimizer="adam", epochs=30, seed=7, dtype="f32"
    )
    _, history = training.train(spec, manifest, assignment, config)
    hit = [
        (i + 1, train_acc, val_acc)
        for i, (_, train_acc, _, val_acc) in enumerate(history.tolist())
        if train_acc >= 0.99 and val_acc >= 0.95
    ]
    _, best_train, _, best_val = max(history.tolist(), key=lambda e: (e[1], e[3]))
    elapsed = time.time() - t0
    verdict(
        "criterion 3 (end-to-end learnability)",
        bool(hit) and elapsed < 600,
        (
            f"first qualifying epoch {hit[0][0]} "
            f"(train {hit[0][1]:.4f}, val {hit[0][2]:.4f})"
            if hit
            else f"no epoch reached 0.99/0.95; best train {best_train:.4f} val {best_val:.4f}"
        ),
        t0,
    )


@pytest.mark.skipif(
    not os.environ.get("GRAINFORGE_RICE_DIR"),
    reason="GRAINFORGE_RICE_DIR not set; subset-scale dataset check skipped",
)
def test_criterion_4_rice_subset_macro_f1(tmp_path):
    t0 = time.time()
    root = os.environ["GRAINFORGE_RICE_DIR"]
    records = []
    class_dirs = sorted((p for p in os.scandir(root) if p.is_dir()), key=lambda p: p.name)
    for class_dir in class_dirs:
        files = sorted(
            f.name
            for f in os.scandir(class_dir.path)
            if f.is_file() and f.name.lower().endswith((".ppm", ".pgm"))
        )[:1000]
        records.extend(
            training.ManifestRecord(path=f"{class_dir.name}/{name}", label=class_dir.name)
            for name in files
        )
    manifest = training.manifest_from_records(records)
    assignment = training.split(manifest, seed=42)
    spec = network.build_rice_cnn()
    config = training.TrainConfig(
        data_root=root, optimizer="adam", batch_size=32, epochs=30, seed=42,
        l2=1e-4, dtype="f32",
    )
    params, _ = training.train(spec, manifest, assignment, config)
    xs, labels = training.load_dataset(manifest, assignment.indices("test"), spec, config)
    probs, _ = training.evaluate_arrays(spec, params, xs, labels, batch_size=config.batch_size)
    cm = metrics.confusion_from_pairs(labels, probs.argmax(axis=1), spec.num_classes)
    score = metrics.macro_f1(metrics.class_report(cm))
    verdict(
        "criterion 4 (rice subset macro-F1)",
        score >= 0.90 and time.time() - t0 < 7200,
        f"macro-F1 {score:.4f} on the held-out test split",
        t0,
    )


def test_criterion_5_lime_fidelity():
    t0 = time.time()
    m = 6
    labels = np.repeat(np.arange(m, dtype=np.int32), 2)[None, :].repeat(6, axis=0)
    spmap = explain.SuperpixelMap(labels=labels, count=m)
    image = np.zeros((6, 2 * m, 3), dtype=np.uint8)
    for s in range(m):
        image[:, 2 * s : 2 * s + 2] = (30 + 20 * s, 90, 180 - 12 * s)
    baseline = (0, 0, 0)
    base = np.array(baseline, dtype=np.uint8)
    worst = 0.0
    for trial in range(5):
        c = Rng(trial).uniform(-0.5, 0.5, m)

        def model(img, c=c):
            z = np.array(
                [
                    float(not np.all(img[spmap.labels == s] == base))
                    for s in range(m)
                ]
            )
            return np.array([0.1 + float(c @ z)])

        value = explain.coalition_value(model, image, spmap, 0, baseline)
        weights = explain.lime_explain(value, m, 2**m, 0.25, 1e-8, Rng(trial))
        worst = max(worst, float(np.abs(weights - c).max()))
    verdict(
        "criterion 5 (LIME fidelity)",
        worst < 1e-6 and time.time() - t0 < 10,
        f"max coefficient error {worst:.2e} over 5 linear models, full enumeration",
        t0,
    )


def test_criterion_6_shap_exactness():
    t0 = time.time()
    rng = Rng(606)
    worst_gap = 0.0
    worst_local = 0.0
    for m in range(2, 11):
        for _ in range(100):
            table = rng.normal(0, 1, 2**m)

            def value(z, table=table):
                return float(table[int(sum(int(b) << i for i, b in enumerate(z)))])

            phi = explain.kernel_shap(value, m, 2**m, rng)
            exact = exact_shapley(value, m)
            worst_gap = max(worst_gap, float(np.abs(phi - exact).max()))
            delta = value(np.ones(m)) - value(np.zeros(m))
            worst_local = max(worst_local, abs(float(phi.sum()) - delta))
    # sampled mode keeps local accuracy too
    for trial in range(10):
        m = 12
        table = rng.normal(0, 1, 2**m)

        def value(z, table=table):
            return float(table[int(sum(int(b) << i for i, b in enumerate(z)))])

        phi = explain.kernel_shap(value, m, 300, rng.child(f"s{trial}"))
        delta = value(np.ones(m)) - value(np.zeros(m))
        worst_local = max(worst_local, abs(float(phi.sum()) - delta))
    elapsed_ok = time.time() - t0 < 120
    verdict(
        "criterion 6 (SHAP exactness)",
        worst_gap < 1e-6 and worst_local < 1e-9 and elapsed_ok,
        f"max |kernel - exact| {worst_gap:.2e}, max efficiency gap {worst_local:.2e}",
        t0,
    )


def test_criterion_7_metrics_oracles():
    t0 = time.time()
    rng = Rng(707)
    worst = 0.0
    for trial in range(50):
        n, k = int(rng.integers(3, 60)), int(rng.integers(2, 5))
        scores = rng.uniform(0, 1, (n, k))
        if trial % 2 == 0:
            scores = np.round(scores, 1)
        labels = rng.integers(0, k, n)
        _, auc = metrics.roc_micro(scores, labels)
        worst = max(worst, abs(auc - mann_whitney_auc(scores, labels)))

    _, separating_auc = metrics.roc_micro(
        np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]]),
        np.array([0, 0, 1, 1]),
    )
    report = metrics.class_report(np.array([[9, 3], [1, 7]], dtype=np.int64))
    report_ok = (
        abs(report[0, 0] - 0.9) < 1e-12
        and abs(report[0, 1] - 0.75) < 1e-12
        and abs(report[0, 2] - 0.8182) < 1e-4
    )
    verdict(
        "criterion 7 (metrics oracles)",
        worst < 1e-12
        and separating_auc == 1.0
        and report_ok
        and time.time() - t0 < 30,
        f"max AUC gap {worst:.2e} over 50 fixtures; perfect separator AUC {separating_auc}",
        t0,
    )


def test_criterion_8_imaging_oracles(rng):
    t0 = time.time()
    mismatches = 0
    for _ in range(100):
        img = random_image(rng, 9, 7, 1)
        if imaging.otsu_threshold(img) != exhaustive_otsu(img[:, :, 0]):
            mismatches += 1

    edges = imaging.canny(square_fixture()[None], sigma=1.0, low=20, high=60)[0]
    perimeter = square_perimeter()
    edge_points = set(zip(*np.nonzero(edges)))
    localized = all(
        any(max(abs(y - py), abs(x - px)) <= 1 for py, px in perimeter)
        for y, x in edge_points
    )
    covered = sum(
        1
        for py, px in perimeter
        if any(max(abs(py - y), abs(px - x)) <= 1 for y, x in edge_points)
    ) / len(perimeter)

    round_trips = all(
        np.array_equal(
            imaging.decode_netpbm(imaging.encode_netpbm(img := random_image(rng, 6, 5, ch))).pixels,
            img,
        )
        for ch in (1, 3)
        for _ in range(20)
    )
    verdict(
        "criterion 8 (imaging oracles)",
        mismatches == 0
        and bool(edge_points)
        and localized
        and covered >= 0.90
        and round_trips
        and time.time() - t0 < 60,
        f"otsu mismatches {mismatches}/100, perimeter coverage {covered:.2f}, "
        f"round-trips bit-exact {round_trips}",
        t0,
    )


def test_criterion_9_determinism_and_persistence(tmp_path, rng):
    t0 = time.time()
    manifest, assignment = generate_shape_dataset(
        tmp_path / "data", per_class_train=10, per_class_val=4, seed=31
    )
    spec = network.build_rice_cnn()
    config = training.TrainConfig(
        data_root=tmp_path / "data", epochs=3, seed=9, dtype="f64"
    )
    histories = []
    saved = []
    for run in range(2):
        params, history = training.train(spec, manifest, assignment, config)
        path = tmp_path / f"history{run}.csv"
        training.write_history(history, path)
        histories.append(path.read_bytes())
        saved.append(params)
    identical_history = histories[0] == histories[1]
    identical_weights = all(
        np.array_equal(a, b) for a, b in zip(saved[0], saved[1], strict=True)
    )

    weights_path = tmp_path / "weights.gfw"
    network.save_weights(spec, saved[0], weights_path)
    _, loaded = network.load_weights(weights_path)
    round_trip = all(
        np.array_equal(a.astype(np.float32), b) for a, b in zip(saved[0], loaded, strict=True)
    )

    group_ok = True
    for _ in range(10):
        x = random_image(rng, 7, 7)
        r = imaging.augment(x)
        group_ok &= np.array_equal(imaging.augment(r[1])[1], r[2])
        group_ok &= np.array_equal(imaging.augment(r[3])[3], x)
        group_ok &= np.array_equal(imaging.augment(r[4])[4], x)
    verdict(
        "criterion 9 (determinism and persistence)",
        identical_history
        and identical_weights
        and round_trip
        and bool(group_ok)
        and time.time() - t0 < 300,
        f"history byte-identical {identical_history}, weights round-trip {round_trip}, "
        f"augment group laws {bool(group_ok)}",
        t0,
    )
