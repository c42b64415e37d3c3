"""Orthonormal polynomial encoding of real-valued features.

Each raw feature is rescaled to the unit interval by a per-feature affine
map and then expanded in the first ``N`` shifted Legendre polynomials,
scaled so the resulting feature functions are orthonormal on [0, 1]:

    basis_n(x) = sqrt(2n + 1) * P_n(2x - 1),   n = 0 .. N-1.

Orthonormality makes the encoding an isometry, which is what lets the
density-matrix machinery marginalize features by simple index contraction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FitError

__all__ = [
    "FeatureRescaler",
    "LegendreFeatureMap",
    "fit_rescaler",
    "gauss_legendre_unit",
]


def _legendre_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """Rows 0..n_max of the shifted Legendre recurrence at points ``x``.

    ``P_{k+1} = ((2k+1) * t * P_k - k * P_{k-1}) / (k+1)``, ``t = 2x - 1``,
    each row written straight into the table.
    """
    table = np.empty((n_max + 1,) + x.shape, dtype=np.float64)
    table[0] = 1.0
    if n_max < 1:
        return table
    table[1] = 2.0 * x - 1.0
    t = table[1]
    for k in range(1, n_max):
        table[k + 1] = ((2 * k + 1) * t * table[k] - k * table[k - 1]) / (k + 1)
    return table


def orthonormal_basis(n_functions: int, x) -> np.ndarray:
    """Evaluate all ``n_functions`` orthonormal basis functions at ``x`` in [0, 1].

    Returns an array of shape ``(n_functions,) + shape(x)``.
    """
    arr = np.asarray(x, dtype=np.float64)
    basis = _legendre_table(n_functions - 1, np.atleast_1d(arr))
    scale = np.sqrt(2.0 * np.arange(n_functions) + 1.0)
    np.multiply(scale.reshape((n_functions,) + (1,) * (basis.ndim - 1)), basis, out=basis)
    if arr.ndim == 0:
        return basis[:, 0]
    return basis


@functools.cache
def gauss_legendre_unit(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1] (exact to degree 2*n_nodes - 1).

    Computed once per ``n_nodes``; every caller gets the same read-only arrays.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    nodes, weights = (nodes + 1.0) / 2.0, weights / 2.0
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class FeatureRescaler:
    """Per-feature affine maps onto the unit interval.

    ``minimum`` and ``maximum`` are the effective interval ends: a raw value
    equal to ``minimum[i]`` maps to 0 and ``maximum[i]`` to 1. A margin
    given to :func:`fit_rescaler` is baked into these bounds, which is also
    how the model file serializes them.
    """

    minimum: np.ndarray
    maximum: np.ndarray

    @property
    def n_features(self) -> int:
        return len(self.minimum)

    def transform(self, raw: np.ndarray) -> np.ndarray:
        """Map raw values (..., n_features) into [0, 1], clamping outliers.

        Scoring-time values outside the fitted range are clamped rather than
        rejected so that unseen extremes remain scorable. A last axis of
        another length, or a non-finite value, raises :class:`DataError`.
        """
        raw = np.asarray(raw, dtype=np.float64)
        if raw.shape[-1:] != (self.n_features,):
            raise DataError(
                f"raw values have shape {raw.shape}, expected {self.n_features} on the last axis"
            )
        if not np.isfinite(raw).all():
            bad = np.argwhere(~np.isfinite(raw))[0]
            raise DataError(f"non-finite raw value {raw[tuple(bad)]} for feature {bad[-1]}")
        # one new array, divided and clipped in place; the caller's is untouched
        scaled = raw - self.minimum
        scaled /= self.maximum - self.minimum
        return np.clip(scaled, 0.0, 1.0, out=scaled)


def fit_rescaler(data: np.ndarray, margin: float = 0.0) -> FeatureRescaler:
    """Fit per-feature unit-interval maps from a (samples, features) matrix.

    The fitted bounds are widened so every training value maps into
    ``[margin, 1 - margin]``. Constant features and features holding a
    non-finite value cannot be rescaled and raise :class:`FitError` naming
    the offending column.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise FitError("rescaler fitting needs a 2-D matrix with at least 2 samples")
    if not 0.0 <= margin <= 0.1:
        raise FitError(f"margin must lie in [0, 0.1], got {margin}")
    if not np.isfinite(data).all():
        bad = int(np.argwhere(~np.isfinite(data))[0, 1])
        raise FitError(f"feature {bad} holds non-finite values and cannot be rescaled")
    lo = data.min(axis=0)
    hi = data.max(axis=0)
    constant = np.flatnonzero(hi <= lo)
    if constant.size:
        raise FitError(f"feature {int(constant[0])} is constant and cannot be rescaled")
    width = (hi - lo) / (1.0 - 2.0 * margin)
    minimum = lo - margin * width
    return FeatureRescaler(minimum=minimum, maximum=minimum + width)


@dataclass(frozen=True)
class LegendreFeatureMap:
    """Encoder from raw feature vectors to orthonormal-polynomial amplitudes.

    ``n_functions`` is the physical dimension carried by every network site.
    """

    n_functions: int
    rescaler: FeatureRescaler

    def __post_init__(self):
        if self.n_functions < 1:
            raise DataError(f"n_functions must be >= 1, got {self.n_functions}")

    def encode_unit(self, x) -> np.ndarray:
        """Encode values already in [0, 1]; returns (...,) + (n_functions,)."""
        return np.moveaxis(orthonormal_basis(self.n_functions, x), 0, -1)

    def rescale_sample(self, raw_sample) -> np.ndarray:
        """Rescale one raw sample of shape ``(n_features,)``; any other shape is refused."""
        raw = np.asarray(raw_sample, dtype=np.float64)
        if raw.shape != (self.rescaler.n_features,):
            raise DataError(
                f"sample has {raw.shape} entries, expected ({self.rescaler.n_features},)"
            )
        return self.rescaler.transform(raw)

    def encode_batch(self, raw_matrix) -> np.ndarray:
        """Encode a (samples, n_features) matrix to (samples, n_features, n_functions).

        The result is a view with the function axis last over a
        ``(n_functions, samples, n_features)`` array, so it is not
        C-contiguous. Besides the result it holds the ``(samples,
        n_features)`` rescaled values and, while a recurrence step runs, up
        to three temporaries of that size; ``raw_matrix`` is left
        untouched. The engine encodes one block of rows or one feature leg
        at a time, so there those temporaries are a block's or a leg's.
        """
        raw = np.asarray(raw_matrix, dtype=np.float64)
        if raw.ndim != 2:
            raise DataError(
                f"expected a (samples, {self.rescaler.n_features}) matrix, got {raw.shape}"
            )
        return self.encode_unit(self.rescaler.transform(raw))
