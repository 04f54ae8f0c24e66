import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grainforge import metrics
from grainforge.rng import Rng

from conftest import time_limit


def mann_whitney_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """O(n^2) pairwise-ranking oracle over the micro one-vs-rest pool."""
    n, k = scores.shape
    positive = np.zeros((n, k), dtype=bool)
    positive[np.arange(n), labels] = True
    pos = scores.ravel()[positive.ravel()]
    neg = scores.ravel()[~positive.ravel()]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def class_report_loop(cm: np.ndarray) -> list[list[float]]:
    """Per-class (precision, recall, F1) in Python floats, one class at a time."""
    rows = []
    for k in range(len(cm)):
        tp, predicted, actual = int(cm[k, k]), int(cm[:, k].sum()), int(cm[k].sum())
        precision = tp / predicted if predicted > 0 else 0.0
        recall = tp / actual if actual > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        rows.append([precision, recall, f1])
    return rows


class TestClassReport:
    def test_diagonal_all_ones(self):
        cm = np.diag([5, 8, 2]).astype(np.int64)
        for precision, recall, f1 in metrics.class_report(cm).tolist():
            assert precision == recall == f1 == 1.0

    def test_two_class_worked_example(self):
        cm = np.array([[9, 3], [1, 7]], dtype=np.int64)
        precision, recall, f1 = metrics.class_report(cm)[0]
        assert precision == pytest.approx(0.9)
        assert recall == pytest.approx(0.75)
        assert f1 == pytest.approx(0.8182, abs=1e-4)

    def test_single_column_predictions(self):
        cm = np.array([[10, 0], [4, 0]], dtype=np.int64)
        report = metrics.class_report(cm)
        assert report[0, 1] == 1.0
        assert report[1, 1] == 0.0
        assert report[1, 0] == report[1, 2] == 0.0  # empty prediction column

    def test_permutation_invariance(self, rng):
        counts = rng.integers(0, 30, (4, 4)).astype(np.int64)
        perm = [2, 0, 3, 1]
        base = metrics.class_report(counts)
        permuted = metrics.class_report(counts[np.ix_(perm, perm)])
        for i, p in enumerate(perm):
            assert permuted[i].tolist() == pytest.approx(base[p].tolist())

    def test_scores_in_unit_interval(self, rng):
        for _ in range(20):
            counts = rng.integers(0, 12, (3, 3)).astype(np.int64)
            if counts.sum() == 0:
                continue
            report = metrics.class_report(counts)
            assert ((0.0 <= report) & (report <= 1.0)).all()

    def test_matches_per_class_loop_bit_for_bit(self, rng):
        cases = [
            np.zeros((8, 8), dtype=np.int64),  # every denominator zero
            np.diag([0, 3, 0, 5, 1, 0, 2, 7, 0]).astype(np.int64),
            np.array([[0, 4, 0], [0, 0, 0], [2, 9, 0]], dtype=np.int64),  # zero row, zero column
        ]
        for _ in range(300):
            k = int(rng.integers(2, 12))
            counts = rng.integers(0, 50, (k, k))
            counts[rng.uniform(0, 1, (k, k)) < 0.3] = 0
            cases.append(counts.astype(np.int64))
        for cm in cases:
            report = metrics.class_report(cm)
            assert report.dtype == np.float64 and report.shape == (len(cm), 3)
            assert report.tobytes() == np.array(class_report_loop(cm)).tobytes()

    def test_macro_f1_is_the_left_to_right_sum(self, rng):
        for _ in range(300):
            k = int(rng.integers(2, 12))
            counts = rng.integers(0, 50, (k, k))
            counts[rng.uniform(0, 1, (k, k)) < 0.3] = 0
            rows = class_report_loop(counts)
            total = 0.0
            for _, _, f1 in rows:
                total += f1
            assert metrics.macro_f1(metrics.class_report(counts)) == total / k


class TestConfusionFromPairs:
    def test_empty_pairs_give_zero_counts(self):
        cm = metrics.confusion_from_pairs([], [], 4)
        assert cm.dtype == np.int64 and cm.shape == (4, 4) and cm.sum() == 0

    def test_recount_from_pairs(self, rng):
        truths = rng.integers(0, 3, 60)
        preds = rng.integers(0, 3, 60)
        cm = metrics.confusion_from_pairs(truths, preds, 3)
        assert cm.dtype == np.int64 and cm.shape == (3, 3)
        assert cm.sum() == 60
        # recount: the matrix holds the exact pair multiset
        for t in range(3):
            for p in range(3):
                assert cm[t, p] == int(((truths == t) & (preds == p)).sum())


class TestRocMicro:
    def test_perfect_separator(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.3, 0.7]])
        labels = np.array([0, 0, 1, 1])
        _, auc = metrics.roc_micro(scores, labels)
        assert auc == 1.0

    def test_identical_scores_chance_level(self):
        scores = np.full((6, 3), 1 / 3)
        labels = np.array([0, 1, 2, 0, 1, 2])
        _, auc = metrics.roc_micro(scores, labels)
        assert auc == 0.5

    def test_matches_pairwise_oracle(self, rng):
        for trial in range(30):
            n, k = int(rng.integers(2, 40)), int(rng.integers(2, 5))
            scores = rng.uniform(0, 1, (n, k))
            if trial % 3 == 0:
                scores = np.round(scores, 1)  # force tie groups
            labels = rng.integers(0, k, n)
            _, auc = metrics.roc_micro(scores, labels)
            assert auc == pytest.approx(
                mann_whitney_auc(scores, labels), abs=1e-12
            )

    def test_points_monotone_and_bounded(self, rng):
        scores = rng.uniform(0, 1, (25, 4))
        labels = rng.integers(0, 4, 25)
        points, auc = metrics.roc_micro(scores, labels)
        fprs = points[:, 0].tolist()
        tprs = points[:, 1].tolist()
        assert fprs == sorted(fprs) and tprs == sorted(tprs)
        assert points[0].tolist() == [0.0, 0.0]
        assert points[-1].tolist() == [1.0, 1.0]
        assert 0.0 <= auc <= 1.0

    def test_degenerate_pool_rejected(self):
        with pytest.raises(ValueError, match="positive and one negative"):
            metrics.roc_micro(np.array([[1.0]]), np.array([0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        scores = np.array([[0.9, 0.1], [0.4, 0.6], [0.3, 0.7]])
        scores[1, 0] = bad
        with time_limit(30), pytest.raises(ValueError, match="ROC scores must be finite"):
            metrics.roc_micro(scores, np.array([0, 1, 1]))

    def test_points_match_threshold_oracle(self, rng):
        """Each point is (share of negatives, share of positives) scoring >= a distinct score."""
        for trial in range(40):
            n, k = int(rng.integers(2, 30)), int(rng.integers(2, 6))
            scores = np.round(rng.uniform(-1, 1, (n, k)), int(trial % 3))
            scores[rng.uniform(0, 1, (n, k)) < 0.2] = -0.0  # signed zeros tie with 0.0
            labels = rng.integers(0, k, n)
            positive = np.zeros((n, k), dtype=bool)
            positive[np.arange(n), labels] = True
            pos, neg = scores[positive], scores[~positive]
            expected = [(0.0, 0.0)] + [
                (int((neg >= t).sum()) / len(neg), int((pos >= t).sum()) / len(pos))
                for t in sorted(set(scores.ravel().tolist()), reverse=True)
            ]
            points, auc = metrics.roc_micro(scores, labels)
            assert list(map(tuple, points.tolist())) == expected
            assert auc == pytest.approx(mann_whitney_auc(scores, labels), abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_auc_oracle_property(self, seed):
        rng = Rng(seed)
        n = int(rng.integers(2, 25))
        scores = np.round(rng.uniform(0, 1, (n, 3)), 2)
        labels = rng.integers(0, 3, n)
        _, auc = metrics.roc_micro(scores, labels)
        assert auc == pytest.approx(mann_whitney_auc(scores, labels), abs=1e-12)


class TestCsvWriters:
    def test_metrics_csv_round_trip(self, tmp_path, rng):
        cm = np.array([[9, 3], [1, 7]], dtype=np.int64)
        report = metrics.class_report(cm)
        path = tmp_path / "metrics.csv"
        metrics.write_metrics_csv(path, ["a", "b"], cm)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["class", "precision", "recall", "f1", "support"]
        assert rows[1][0] == "a" and float(rows[1][1]) == pytest.approx(0.9)
        assert rows[1][4] == "12"
        assert rows[-1][0] == "macro_f1"
        assert float(rows[-1][1]) == pytest.approx(metrics.macro_f1(report), abs=1e-6)

    def test_confusion_csv_recounts(self, tmp_path):
        cm = np.array([[4, 1], [2, 3]], dtype=np.int64)
        path = tmp_path / "confusion.csv"
        metrics.write_confusion_csv(path, ["x", "y"], cm)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["class", "x", "y"]
        total = sum(int(v) for row in rows[1:] for v in row[1:])
        assert total == cm.sum()

    def test_roc_csv_final_auc_line(self, tmp_path, rng):
        scores = rng.uniform(0, 1, (10, 2))
        labels = rng.integers(0, 2, 10)
        points, auc = metrics.roc_micro(scores, labels)
        path = tmp_path / "roc_points.csv"
        metrics.write_roc_csv(path, points, auc)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["fpr", "tpr"]
        assert rows[-1][0] == "auc"
        assert float(rows[-1][1]) == pytest.approx(auc, abs=1e-12)
