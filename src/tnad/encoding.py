"""Orthonormal polynomial encoding of real-valued features.

Each raw feature is rescaled to the unit interval by a per-feature affine
map and then expanded in the first ``N`` shifted Legendre polynomials,
scaled so the resulting feature functions are orthonormal on [0, 1]:

    basis_n(x) = sqrt(2n + 1) * P_n(2x - 1),   n = 0 .. N-1.

Orthonormality makes the encoding an isometry, which is what lets the
density-matrix machinery marginalize features by simple index contraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, FitError, NotFittedError

__all__ = [
    "FeatureRescaler",
    "LegendreFeatureMap",
    "shifted_legendre_eval",
    "fit_rescaler",
    "gauss_legendre_unit",
]


def shifted_legendre_eval(n: int, x) -> np.ndarray | float:
    """Evaluate the n-th shifted Legendre polynomial at ``x`` in [0, 1].

    Uses the three-term recurrence
    ``(k+1) P_{k+1}(x) = (2k+1)(2x-1) P_k(x) - k P_{k-1}(x)``
    which is numerically stable for high degrees, rather than the
    Rodrigues derivative form.
    """
    if n < 0:
        raise DataError(f"polynomial degree must be >= 0, got {n}")
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DataError("shifted Legendre polynomials are defined on [0, 1]")
    values = _legendre_table(n, arr)[n]
    return float(values) if np.isscalar(x) or arr.ndim == 0 else values


def _legendre_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """Rows 0..n_max of the shifted Legendre recurrence at points ``x``."""
    t = 2.0 * x - 1.0
    table = np.empty((n_max + 1,) + x.shape, dtype=np.float64)
    table[0] = 1.0
    if n_max >= 1:
        table[1] = t
    for k in range(1, n_max):
        table[k + 1] = ((2 * k + 1) * t * table[k] - k * table[k - 1]) / (k + 1)
    return table


def orthonormal_basis(n_functions: int, x) -> np.ndarray:
    """Evaluate all ``n_functions`` orthonormal basis functions at ``x`` in [0, 1].

    Returns an array of shape ``(n_functions,) + shape(x)``.
    """
    arr = np.asarray(x, dtype=np.float64)
    table = _legendre_table(n_functions - 1, np.atleast_1d(arr))
    scale = np.sqrt(2.0 * np.arange(n_functions) + 1.0)
    basis = scale.reshape((n_functions,) + (1,) * (table.ndim - 1)) * table
    if arr.ndim == 0:
        return basis[:, 0]
    return basis


def gauss_legendre_unit(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1] (exact to degree 2*n_nodes - 1)."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    return (nodes + 1.0) / 2.0, weights / 2.0


@dataclass(frozen=True)
class FeatureRescaler:
    """Per-feature affine maps onto the unit interval.

    ``minimum`` and ``maximum`` are the effective interval ends: a raw value
    equal to ``minimum[i]`` maps to 0 and ``maximum[i]`` to 1. When fitted
    with a margin, the interval is widened so all training values land in
    ``[margin, 1 - margin]``; the margin is thus baked into the stored
    bounds, which is also how the model file serializes them.
    """

    minimum: np.ndarray
    maximum: np.ndarray
    margin: float = 0.0

    @property
    def n_features(self) -> int:
        return len(self.minimum)

    def transform(self, raw: np.ndarray) -> np.ndarray:
        """Map raw values (..., n_features) into [0, 1], clamping outliers.

        Scoring-time values outside the fitted range are clamped rather than
        rejected so that unseen extremes remain scorable. A non-finite value
        has no place in the interval and raises :class:`DataError`.
        """
        raw = np.asarray(raw, dtype=np.float64)
        if not np.isfinite(raw).all():
            bad = np.argwhere(~np.isfinite(raw))[0]
            raise DataError(f"non-finite raw value {raw[tuple(bad)]} for feature {bad[-1]}")
        scaled = (raw - self.minimum) / (self.maximum - self.minimum)
        return np.clip(scaled, 0.0, 1.0)

    def transform_value(self, feature_index: int, raw: float) -> float:
        if not np.isfinite(raw):
            raise DataError(f"non-finite raw value {raw} for feature {feature_index}")
        span = self.maximum[feature_index] - self.minimum[feature_index]
        scaled = (raw - self.minimum[feature_index]) / span
        return float(min(max(scaled, 0.0), 1.0))

    def inverse_value(self, feature_index: int, scaled: float) -> float:
        span = self.maximum[feature_index] - self.minimum[feature_index]
        return float(self.minimum[feature_index] + scaled * span)

    def inverse(self, scaled: np.ndarray) -> np.ndarray:
        scaled = np.asarray(scaled, dtype=np.float64)
        return self.minimum + scaled * (self.maximum - self.minimum)


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
    return FeatureRescaler(minimum=minimum, maximum=minimum + width, margin=margin)


@dataclass(frozen=True)
class LegendreFeatureMap:
    """Encoder from raw feature vectors to orthonormal-polynomial amplitudes.

    ``n_functions`` is the physical dimension carried by every network site.
    """

    n_functions: int
    rescaler: FeatureRescaler | None = None
    _scale: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_functions < 1:
            raise DataError(f"n_functions must be >= 1, got {self.n_functions}")
        object.__setattr__(self, "_scale", np.sqrt(2.0 * np.arange(self.n_functions) + 1.0))

    @property
    def n_features(self) -> int:
        self._require_fitted()
        return self.rescaler.n_features

    def _require_fitted(self) -> None:
        if self.rescaler is None:
            raise NotFittedError("feature map has no fitted rescaler")

    def encode_unit(self, x) -> np.ndarray:
        """Encode values already in [0, 1]; returns (...,) + (n_functions,)."""
        arr = np.asarray(x, dtype=np.float64)
        table = _legendre_table(self.n_functions - 1, np.atleast_1d(arr))
        encoded = np.moveaxis(table * self._scale.reshape((-1,) + (1,) * (table.ndim - 1)), 0, -1)
        if arr.ndim == 0:
            return encoded[0]
        return encoded

    def encode_value(self, feature_index: int, raw: float) -> np.ndarray:
        """Rescale one raw feature value and encode it to ``n_functions`` amplitudes."""
        self._require_fitted()
        if not 0 <= feature_index < self.rescaler.n_features:
            raise DataError(f"feature index {feature_index} out of range")
        return self.encode_unit(self.rescaler.transform_value(feature_index, raw))

    def encode_sample(self, raw_sample) -> np.ndarray:
        """Encode one raw sample to an (n_features, n_functions) array."""
        self._require_fitted()
        raw = np.asarray(raw_sample, dtype=np.float64)
        if raw.shape != (self.rescaler.n_features,):
            raise DataError(
                f"sample has {raw.shape} entries, expected ({self.rescaler.n_features},)"
            )
        return self.encode_unit(self.rescaler.transform(raw))

    def encode_batch(self, raw_matrix) -> np.ndarray:
        """Encode a (samples, n_features) matrix to (samples, n_features, n_functions)."""
        self._require_fitted()
        raw = np.asarray(raw_matrix, dtype=np.float64)
        if raw.ndim != 2 or raw.shape[1] != self.rescaler.n_features:
            raise DataError(
                f"expected a (samples, {self.rescaler.n_features}) matrix, got {raw.shape}"
            )
        return self.encode_unit(self.rescaler.transform(raw))
