"""Classification metrics: confusion matrices, per-class scores, ROC/AUC.

Every result is a plain array.  A confusion matrix is a (K,K) int64
array, rows = true class, columns = predicted class.  A class report is
a (K,3) float64 array whose columns are precision, recall and F1.  The
ROC is a (D+1,2) float64 array of (fpr, tpr) points, (0,0) and then one
per distinct score down to (1,1), plus its AUC.  The ROC is
micro-averaged: every (sample, class) pair enters a pooled one-vs-rest
sweep, ties are grouped at distinct score values, and the area
accumulates exactly over integer counts before a single final division,
so the trapezoid AUC matches the Mann-Whitney pairwise statistic to the
last bit.
"""

from __future__ import annotations

import csv

import numpy as np


def confusion_from_pairs(truths, predictions, num_classes: int) -> np.ndarray:
    truths = np.asarray(truths, dtype=np.int64)
    predictions = np.asarray(predictions, dtype=np.int64)
    counts = np.bincount(truths * num_classes + predictions, minlength=num_classes**2)
    return counts.reshape(num_classes, num_classes)


def class_report(cm: np.ndarray) -> np.ndarray:
    """Per-class (precision, recall, F1) rows; zero denominators yield 0."""
    if len(cm) < 2:
        raise ValueError("class report needs at least two classes")
    tp = np.diag(cm).astype(np.float64)
    predicted, actual = cm.sum(axis=0), cm.sum(axis=1)
    precision = np.divide(tp, predicted, out=np.zeros(len(cm)), where=predicted > 0)
    recall = np.divide(tp, actual, out=np.zeros(len(cm)), where=actual > 0)
    den = precision + recall
    f1 = np.divide(2 * precision * recall, den, out=np.zeros(len(cm)), where=den > 0)
    return np.stack([precision, recall, f1], axis=1)


def macro_f1(report: np.ndarray) -> float:
    """Mean F1 of a class report, summed left to right."""
    return sum(report[:, 2].tolist()) / len(report)


def roc_micro(scores: np.ndarray, labels) -> tuple[np.ndarray, float]:
    """Micro-average one-vs-rest ROC points and AUC over per-sample class probabilities.

    ``scores`` is (n, K); ``labels`` holds the true class index per sample.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n, k = scores.shape
    positive = np.zeros((n, k), dtype=bool)
    positive[np.arange(n), labels] = True

    flat_scores = scores.ravel()
    if not np.isfinite(flat_scores).all():
        raise ValueError("ROC scores must be finite")
    flat_pos = positive.ravel()
    p = int(flat_pos.sum())
    q = flat_pos.size - p
    if p == 0 or q == 0:
        raise ValueError("ROC pool needs at least one positive and one negative")

    order = np.argsort(-flat_scores, kind="stable")
    sorted_scores = flat_scores[order]
    # the last index of each group of equal scores, then the counts up to it
    ends = np.flatnonzero(np.append(sorted_scores[1:] != sorted_scores[:-1], True))
    tp = np.cumsum(flat_pos[order], dtype=np.int64)[ends]
    fp = ends + 1 - tp
    # integer trapezoids, 2 * P * Q * AUC in all; divide once at the end
    area2 = int((np.diff(fp, prepend=0) * (tp + np.append(0, tp[:-1]))).sum())
    points = np.zeros((len(ends) + 1, 2))
    points[1:, 0] = fp / q
    points[1:, 1] = tp / p
    return points, area2 / (2 * p * q)


# ---------------------------------------------------------------------------
# CSV report writers
# ---------------------------------------------------------------------------


def write_metrics_csv(path, class_names, cm: np.ndarray) -> None:
    report = class_report(cm)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "precision", "recall", "f1", "support"])
        for name, scores, support in zip(class_names, report.tolist(), cm.sum(axis=1).tolist()):
            writer.writerow([name, *(f"{v:.6f}" for v in scores), support])
        writer.writerow(["macro_f1", f"{macro_f1(report):.6f}"])


def write_confusion_csv(path, class_names, cm: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", *class_names])
        for name, row in zip(class_names, cm.tolist()):
            writer.writerow([name, *row])


def write_roc_csv(path, points: np.ndarray, auc: float) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr"])
        for fpr, tpr in points.tolist():
            writer.writerow([f"{fpr:.10f}", f"{tpr:.10f}"])
        writer.writerow(["auc", f"{auc:.12f}"])
