"""Classification metrics: confusion matrices, per-class scores, ROC/AUC.

A confusion matrix is a plain (K,K) int64 array, rows = true class,
columns = predicted class.  The ROC is micro-averaged: every (sample,
class) pair enters a pooled one-vs-rest sweep, ties are grouped at
distinct score values, and the area accumulates exactly over integer
counts before a single final division, so the trapezoid AUC matches the
Mann-Whitney pairwise statistic to the last bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClassScore:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class RocCurve:
    points: list[tuple[float, float]]  # (fpr, tpr), monotone from (0,0) to (1,1)
    auc: float


def confusion_from_pairs(truths, predictions, num_classes: int) -> np.ndarray:
    truths = np.asarray(truths, dtype=np.int64)
    predictions = np.asarray(predictions, dtype=np.int64)
    counts = np.bincount(truths * num_classes + predictions, minlength=num_classes**2)
    return counts.reshape(num_classes, num_classes)


def accuracy(cm: np.ndarray) -> float:
    total = int(cm.sum())
    if total == 0:
        raise ValueError("confusion matrix is empty")
    return float(np.trace(cm)) / total


def class_report(cm: np.ndarray) -> list[ClassScore]:
    """Per-class precision/recall/F1; zero denominators yield 0."""
    if len(cm) < 2:
        raise ValueError("class report needs at least two classes")
    scores = []
    col_sums = cm.sum(axis=0)
    row_sums = cm.sum(axis=1)
    for k in range(len(cm)):
        tp = int(cm[k, k])
        precision = tp / int(col_sums[k]) if col_sums[k] > 0 else 0.0
        recall = tp / int(row_sums[k]) if row_sums[k] > 0 else 0.0
        if precision + recall > 0:
            f1 = 2 * precision * recall / (precision + recall)
        else:
            f1 = 0.0
        scores.append(
            ClassScore(precision=precision, recall=recall, f1=f1, support=int(row_sums[k]))
        )
    return scores


def macro_f1(scores: list[ClassScore]) -> float:
    return sum(s.f1 for s in scores) / len(scores)


def roc_micro(scores: np.ndarray, labels) -> RocCurve:
    """Micro-average one-vs-rest ROC over per-sample class probabilities.

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
    points = [(0.0, 0.0), *zip((fp / q).tolist(), (tp / p).tolist())]
    return RocCurve(points=points, auc=area2 / (2 * p * q))


# ---------------------------------------------------------------------------
# CSV report writers
# ---------------------------------------------------------------------------


def write_metrics_csv(path, class_names, scores: list[ClassScore]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "precision", "recall", "f1", "support"])
        for name, s in zip(class_names, scores):
            writer.writerow(
                [name, f"{s.precision:.6f}", f"{s.recall:.6f}", f"{s.f1:.6f}", s.support]
            )
        writer.writerow(["macro_f1", f"{macro_f1(scores):.6f}"])


def write_confusion_csv(path, class_names, cm: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", *class_names])
        for name, row in zip(class_names, cm):
            writer.writerow([name, *[int(v) for v in row]])


def write_roc_csv(path, curve: RocCurve) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr"])
        for fpr, tpr in curve.points:
            writer.writerow([f"{fpr:.10f}", f"{tpr:.10f}"])
        writer.writerow(["auc", f"{curve.auc:.12f}"])
