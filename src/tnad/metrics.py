"""Anomaly scores and evaluation metrics.

The anomaly score of a sample is its negative log-likelihood under the
model; ranking quality is summarized by the AUCROC (the probability that
a random anomaly outscores a random regular sample, ties counted half)
and operating points by the threshold where true-positive and
true-negative rates meet.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)

__all__ = [
    "score_samples",
    "auc_roc",
    "eer_threshold",
    "histogram_mi",
    "histogram_mi_matrix",
    "histogram_bin_count",
    "mi_display",
]


def score_samples(model, batch: np.ndarray) -> np.ndarray:
    """Per-sample NLL scores; higher means more anomalous.

    ``batch`` holds raw rows ``(n, n_features)``, which the model's encoder
    encodes, or a batch as :meth:`~tnad.encoding.LegendreFeatureMap.encode_batch`
    returns it; both give the same bits. The amplitude pass walks it in row
    blocks (:meth:`~tnad.network.TensorNetwork.log_amplitudes`), encoding
    raw rows one block at a time, so scoring holds the batch, one block's
    encodings and messages, and the ``(n,)`` results, never a second
    batch-sized array.

    A sample whose amplitude is exactly zero scores ``+inf``, whatever the
    other rows, with a logged count; :func:`auc_roc` and
    :func:`eer_threshold` rank it above every finite score.
    """
    log_abs, _ = model.log_amplitudes(batch)
    scores = -2.0 * log_abs
    n_infinite = int(np.count_nonzero(np.isinf(scores)))
    if n_infinite:
        logger.warning("score_samples: %d zero-amplitude samples score inf", n_infinite)
    return scores


def _checked_scores(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Scores as floats and labels as booleans, refused unless both classes are
    present, the lengths agree and no score is NaN; an infinite score ranks.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if labels.all() or not labels.any():
        raise DataError("both classes must be present")
    if scores.shape != labels.shape:
        raise DataError("scores and labels must have equal length")
    nan = np.flatnonzero(np.isnan(scores))
    if nan.size:
        raise DataError(f"score {nan[0]} is NaN and cannot be ranked")
    return scores, labels


def auc_roc(scores, labels) -> float:
    """Probability that a random anomaly outscores a random regular sample.

    Mann-Whitney formulation with ties counted one half, computed exactly
    by rank counting (no floating summation over pairs). A NaN score is
    refused with a :class:`DataError` naming its index; an infinite one ranks.
    """
    scores, labels = _checked_scores(scores, labels)
    regular = np.sort(scores[~labels])
    anomalies = scores[labels]
    below = np.searchsorted(regular, anomalies, side="left")
    below_or_equal = np.searchsorted(regular, anomalies, side="right")
    concordant_halves = 2 * below.sum() + (below_or_equal - below).sum()
    return float(concordant_halves) / (2.0 * len(anomalies) * len(regular))


def eer_threshold(scores, labels) -> tuple[float, float, float]:
    """Operating point where true-positive and true-negative rates meet.

    Scans the score grid for the threshold minimizing |TPR - TNR|
    (classify anomalous when score >= threshold); ties prefer higher TPR,
    then the lower threshold. Returns (threshold, tpr, tnr). The threshold
    is ``inf`` where only infinite scores reach it, for example when every
    anomaly scores ``inf``. A NaN score is refused as by :func:`auc_roc`.
    """
    scores, labels = _checked_scores(scores, labels)
    anomalies = np.sort(scores[labels])
    regular = np.sort(scores[~labels])
    candidates = np.unique(scores)
    # score >= t counts as predicted anomaly; rates as exact count ratios
    tpr = (len(anomalies) - np.searchsorted(anomalies, candidates, side="left")) / len(anomalies)
    tnr = np.searchsorted(regular, candidates, side="left") / len(regular)
    gap = np.abs(tpr - tnr)
    best = np.flatnonzero(gap == gap.min())
    best = best[tpr[best] == tpr[best].max()]
    pick = best[np.argmin(candidates[best])]
    return float(candidates[pick]), float(tpr[pick]), float(tnr[pick])


def histogram_bin_count(n_samples: int) -> int:
    """Bin count of the low-bias histogram rule used for MI estimation."""
    n = float(n_samples)
    xi = (8.0 + 324.0 * n + 12.0 * np.sqrt(36.0 * n + 729.0 * n * n)) ** (1.0 / 3.0)
    return int(round(xi / 6.0 + 2.0 / (3.0 * xi) + 1.0 / 3.0))


def histogram_mi(data: np.ndarray, i: int, j: int) -> float:
    """Plug-in mutual information between two feature columns (nats).

    Uses equal-width 2-D histograms with the low-bias bin-count rule
    applied per axis, binned as ``np.histogram2d`` bins. A constant column
    carries no information and gives 0 with a warning. Equals entry
    ``(i, j)`` of :func:`histogram_mi_matrix` for ``i != j``; with
    ``i == j`` it is the column's histogram entropy.
    """
    data = _mi_table(data)
    n_features = data.shape[1]
    for k in (i, j):
        if not 0 <= k < n_features:
            raise DataError(f"feature index {k} outside [0, {n_features})")
    i, j = min(i, j), max(i, j)
    bins = histogram_bin_count(data.shape[0])
    x = _bin_codes(data, i, bins)
    y = x if j == i else _bin_codes(data, j, bins)
    if x is None or y is None:
        return 0.0
    return _plug_in_mi(x * bins + y, bins)


def histogram_mi_matrix(data: np.ndarray) -> np.ndarray:
    """All-pairs plug-in mutual information (nats), symmetric, zero diagonal.

    Entry ``(i, j)`` equals ``histogram_mi(data, i, j)``; each column is
    binned once instead of once per pair. A constant column gives a zero
    row and column and one warning.
    """
    data = _mi_table(data)
    n_features = data.shape[1]
    bins = histogram_bin_count(data.shape[0])
    codes = [_bin_codes(data, k, bins) for k in range(n_features)]
    matrix = np.zeros((n_features, n_features))
    for i in range(n_features):
        if codes[i] is None:
            continue
        row_codes = codes[i] * bins
        for j in range(i + 1, n_features):
            if codes[j] is not None:
                matrix[i, j] = matrix[j, i] = _plug_in_mi(row_codes + codes[j], bins)
    return matrix


def mi_display(raw: np.ndarray) -> np.ndarray:
    """An MI matrix rescaled to [0, 1] by its largest off-diagonal entry, zero diagonal."""
    peak = raw.max()
    # below 1e-12 nats everything is rounding noise, not structure
    display = raw / peak if peak > 1e-12 else np.zeros_like(raw)
    np.fill_diagonal(display, 0.0)
    return display


def _mi_table(data) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 30:
        raise DataError("histogram MI needs a (samples, features) matrix with >= 30 rows")
    if not np.isfinite(data).all():
        raise DataError("histogram MI needs finite values")
    return data


def _bin_codes(data: np.ndarray, k: int, bins: int) -> np.ndarray | None:
    """Bin of each value of column ``k`` on ``np.histogram2d``'s edges.

    The edges split ``[min, max]`` into ``bins`` equal widths; a value on
    an inner edge goes to the bin above it and the maximum to the last
    bin. None (with a warning) for a constant column.
    """
    column = data[:, k]
    low, high = column.min(), column.max()
    if low == high:
        logger.warning("histogram_mi: feature %d is constant and carries no information", k)
        return None
    edges = np.linspace(low, high, bins + 1)
    codes = np.searchsorted(edges, column, side="right") - 1
    codes[column == edges[-1]] -= 1
    return codes


def _plug_in_mi(pair_codes: np.ndarray, bins: int) -> float:
    """Plug-in MI of the joint histogram of ``x_bin * bins + y_bin`` codes."""
    joint = np.bincount(pair_codes, minlength=bins * bins).reshape(bins, bins).astype(np.float64)
    joint /= joint.sum()
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    mask = joint > 0.0
    denominator = np.outer(px, py)
    mi = float((joint[mask] * np.log(joint[mask] / denominator[mask])).sum())
    return max(mi, 0.0)
