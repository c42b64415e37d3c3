"""Data ingestion, anomaly generation, dataset pollution, and folds.

Benchmark datasets are supplied by the user as CSV files; this module
turns them into float matrices with optional anomaly labels, builds the
unlabeled 95/5 polluted training mixtures, and produces stratified folds.
Hidden labels are kept strictly on the evaluation side: nothing here ever
hands them to a trainer.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = [
    "DatasetSpec",
    "PollutionPlan",
    "load_csv",
    "generate_anomalies",
    "build_pollution",
    "stratified_folds",
    "toy_correlated_pairs",
    "toy_two_clusters",
]

ANOMALY_KINDS = ("global", "local", "dependency")


@dataclass(frozen=True)
class DatasetSpec:
    """Where a dataset lives and how its labels are read.

    ``anomaly_labels`` lists the raw label-column values that mark a row
    as anomalous; every other value counts as regular. With no label
    column the data is treated as unlabeled regular samples, and anomaly
    labels are refused.
    """

    path: str
    label_column: str | None = None
    anomaly_labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.anomaly_labels and self.label_column is None:
            raise DataError("anomaly labels need a label column to read them from")


@dataclass(frozen=True)
class PollutionPlan:
    """Composition of the unlabeled training mixture.

    The polluted set holds ``regular_fraction`` regular samples; the
    anomaly share is split ``native_fraction`` from the dataset's own
    anomalies and the rest from the generators in ``kinds`` (as evenly as
    possible). Generator parameters: ``range_inflation`` widens the
    per-feature range for "global" anomalies, "local" adds noise of
    ``noise_scale`` empirical standard deviations to a random
    ``feature_subset_fraction`` of the features, and "dependency" permutes
    feature columns independently. ``range_inflation`` must be finite and
    positive, ``noise_scale`` finite and not negative, and
    ``feature_subset_fraction`` in (0, 1]; every field out of its range
    raises :class:`DataError` naming it.
    """

    regular_fraction: float = 0.95
    native_fraction: float = 0.5
    kinds: tuple[str, ...] = ANOMALY_KINDS
    range_inflation: float = 1.1
    noise_scale: float = 3.0
    feature_subset_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.regular_fraction < 1.0:
            raise DataError("regular_fraction must lie in (0, 1)")
        if not 0.0 <= self.native_fraction <= 1.0:
            raise DataError("native_fraction must lie in [0, 1]")
        unknown = set(self.kinds) - set(ANOMALY_KINDS)
        if unknown:
            raise DataError(f"unknown anomaly kinds {sorted(unknown)}")
        if self.native_fraction < 1.0 and not self.kinds:
            raise DataError("generated anomalies requested but no generator kinds given")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        _check_generator_settings(self.range_inflation, self.noise_scale,
                                  self.feature_subset_fraction)


def _check_generator_settings(range_inflation, noise_scale, feature_subset_fraction) -> None:
    """Refuse anomaly-generator settings outside their ranges, naming the field."""
    if not (np.isfinite(range_inflation) and range_inflation > 0.0):
        raise DataError(f"range_inflation must be finite and > 0, got {range_inflation}")
    if not (np.isfinite(noise_scale) and noise_scale >= 0.0):
        raise DataError(f"noise_scale must be finite and >= 0, got {noise_scale}")
    if not 0.0 < feature_subset_fraction <= 1.0:
        raise DataError(
            f"feature_subset_fraction must lie in (0, 1], got {feature_subset_fraction}"
        )


def load_csv(spec: DatasetSpec) -> tuple[np.ndarray, np.ndarray | None]:
    """Load a CSV with header into a float matrix and optional anomaly labels.

    Returns ``(features, labels)`` with ``labels`` a boolean vector (True =
    anomaly), or None when the spec gives no ``anomaly_labels``. A label
    column with no ``anomaly_labels`` is simply dropped from the features
    (useful when scoring unlabeled copies of labeled files). Row order is
    the file order. The dialect is comma-separated with optional double
    quotes and no comment character; blank lines are skipped and cells and
    header names are stripped of surrounding whitespace. A header that
    names a column twice is refused, and so is a byte the file's encoding
    cannot decode. Parse problems report the 1-based file line; a
    non-numeric or non-finite (``nan``, ``inf``) cell also names its
    column.

    The body is parsed by one pass of numpy's C reader straight from the
    file; any file that reader could read differently from ``csv`` and
    Python's ``float`` goes through the row-by-row parser instead (see
    ``_c_reader_body``), so both routes return the same arrays and the
    same errors.
    """
    path = Path(spec.path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    try:
        with path.open(newline="") as handle:
            encoding = handle.encoding
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: file is empty") from None
            header = [h.strip() for h in header]
            columns: dict[str, int] = {}
            for i, name in enumerate(header):
                if columns.setdefault(name, i) != i:
                    raise DataError(f"{path}: header names column {name!r} twice")
            if spec.label_column is not None and spec.label_column not in columns:
                raise DataError(f"{path}: missing label column {spec.label_column!r}")
            feature_names = [h for h in header if h != spec.label_column]
            if not feature_names:
                raise DataError(f"{path}: no feature columns left")
            feature_idx = [columns[c] for c in feature_names]
            label_idx = columns.get(spec.label_column)
            body = _c_reader_body(
                path, encoding, len(header), feature_idx, label_idx, spec.anomaly_labels
            )
            if body is None:
                body = _parse_rows(
                    reader, path, len(header), feature_names, feature_idx, label_idx,
                    spec.anomaly_labels,
                )
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: byte {exc.object[exc.start]:#04x} is not valid {encoding} text"
        ) from None
    features, label_array = body
    if label_array is not None and (label_array.all() or not label_array.any()):
        raise DataError(
            f"{path}: label column {spec.label_column!r} contains only one class"
        )
    return features, label_array


def _c_reader_body(path, encoding, n_fields, feature_idx, label_idx, anomaly_labels):
    """Features and labels from one pass of numpy's C reader, or None to use the row parser.

    The reader takes every column, so it stops by itself at a row with
    missing or extra fields; it also refuses some cells ``float`` takes
    (``1_000``, full-width digits, whitespace-only lines). The label
    column, read or dropped, goes through a converter in the same pass:
    it refuses a double quote, which ``csv`` would unquote, and reads the
    stripped cell as 1 if it is one of ``anomaly_labels``, else 0, because
    labels compare as strings (``"1"`` is not ``"1.0"``). A refused cell,
    no data rows, a column count other than the header's or a non-finite
    value hands the file back.
    """
    wanted = set(anomaly_labels)

    def label_flag(cell):
        if '"' in cell:
            raise ValueError("quoted label cell")
        return cell.strip() in wanted

    converters = None if label_idx is None else {label_idx: label_flag}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # "input contained no data"
            table = np.loadtxt(path, delimiter=",", skiprows=1, comments=None,
                               encoding=encoding, ndmin=2, converters=converters)
    except (ValueError, UserWarning):
        return None
    if table.shape[1] != n_fields or not np.isfinite(table).all():
        return None
    if label_idx is None:
        return table, None
    return table[:, feature_idx], (table[:, label_idx] == 1.0 if wanted else None)


def _parse_rows(reader, path, n_fields, feature_names, feature_idx, label_idx, anomaly_labels):
    """Features and labels from ``csv.reader`` rows, converted cell by cell.

    Labels come back only when ``anomaly_labels`` is set. Raises the
    ``DataError`` that names the line (and column) of the first malformed
    row or cell.
    """
    wanted = set(anomaly_labels)
    rows, line_nos, labels = [], [], []
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != n_fields:
            raise DataError(
                f"{path}: line {line_no} has {len(row)} fields, expected {n_fields}"
            )
        values = np.empty(len(feature_idx))
        for k, idx in enumerate(feature_idx):
            cell = row[idx].strip()
            try:
                values[k] = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: line {line_no}, column {feature_names[k]!r}: "
                    f"non-numeric value {cell!r}"
                ) from None
        rows.append(values)
        line_nos.append(line_no)
        if wanted:
            labels.append(row[label_idx].strip() in wanted)

    if not rows:
        raise DataError(f"{path}: no data rows")
    features = np.vstack(rows)
    if not np.isfinite(features).all():
        row, col = np.argwhere(~np.isfinite(features))[0]
        raise DataError(
            f"{path}: line {line_nos[row]}, column {feature_names[col]!r}: "
            f"non-finite value {features[row, col]}"
        )
    return features, (np.asarray(labels, dtype=bool) if wanted else None)


def generate_anomalies(
    regular: np.ndarray,
    kind: str,
    count: int,
    seed: int = 0,
    range_inflation: float = 1.1,
    noise_scale: float = 3.0,
    feature_subset_fraction: float = 0.3,
) -> np.ndarray:
    """Synthesize anomalies from regular rows.

    "global": uniform draws over per-feature ranges inflated by
    ``range_inflation`` around the empirical min/max. "local": regular
    rows with noise of ``noise_scale`` empirical standard deviations added
    to a random feature subset per row. "dependency": independent
    permutations of each feature column, destroying correlations while
    preserving marginals (needs ``count <= len(regular)``). The three
    generator settings are refused out of the ranges :class:`PollutionPlan`
    gives, whatever the kind.
    """
    regular = np.asarray(regular, dtype=np.float64)
    if regular.ndim != 2 or regular.shape[0] < 2:
        raise DataError("anomaly generation needs a (samples, features) matrix")
    if count < 1:
        raise DataError("count must be >= 1")
    _check_generator_settings(range_inflation, noise_scale, feature_subset_fraction)
    rng = np.random.default_rng(seed)
    n, n_features = regular.shape

    if kind == "global":
        lo, hi = regular.min(axis=0), regular.max(axis=0)
        center, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        lo_inflated = center - range_inflation * half
        hi_inflated = center + range_inflation * half
        return rng.uniform(lo_inflated, hi_inflated, size=(count, n_features))

    if kind == "local":
        std = regular.std(axis=0)
        rows = regular[rng.integers(0, n, size=count)].copy()
        n_perturbed = max(1, int(round(feature_subset_fraction * n_features)))
        for i in range(count):
            chosen = rng.choice(n_features, size=n_perturbed, replace=False)
            rows[i, chosen] += rng.standard_normal(n_perturbed) * noise_scale * std[chosen]
        return rows

    if kind == "dependency":
        if count > n:
            raise DataError(
                f"dependency anomalies permute source columns: count {count} > {n} rows"
            )
        shuffled = np.empty_like(regular)
        for j in range(n_features):
            shuffled[:, j] = regular[rng.permutation(n), j]
        return shuffled[:count]

    raise DataError(f"unknown anomaly kind {kind!r}")


def build_pollution(
    data: np.ndarray,
    labels: np.ndarray | None,
    plan: PollutionPlan,
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the unlabeled training mixture and its hidden labels.

    Regular rows are subsampled to ``regular_fraction`` of their count and
    topped up with anomalies (native ones drawn from the labeled rows,
    generated ones synthesized from the regular pool) to reach the target
    composition. The returned labels exist for evaluation only.
    """
    data = np.asarray(data, dtype=np.float64)
    if labels is None:
        labels = np.zeros(len(data), dtype=bool)
    labels = np.asarray(labels, dtype=bool)
    if len(labels) != len(data):
        raise DataError("labels and data length differ")
    rng = np.random.default_rng(plan.seed)

    regular_pool = data[~labels]
    native_pool = data[labels]
    n_regular = int(np.floor(len(regular_pool) * plan.regular_fraction))
    if n_regular < 2:
        raise DataError("not enough regular samples for the requested composition")
    n_anomalies = int(round(n_regular * (1.0 - plan.regular_fraction) / plan.regular_fraction))
    n_native = int(round(n_anomalies * plan.native_fraction))
    n_generated = n_anomalies - n_native
    if n_native > len(native_pool):
        raise DataError(
            f"plan needs {n_native} native anomalies but only {len(native_pool)} are available"
        )

    chosen_regular = regular_pool[rng.choice(len(regular_pool), size=n_regular, replace=False)]
    parts = [chosen_regular]
    part_labels = [np.zeros(n_regular, dtype=bool)]
    if n_native:
        picked = native_pool[rng.choice(len(native_pool), size=n_native, replace=False)]
        parts.append(picked)
        part_labels.append(np.ones(n_native, dtype=bool))
    if n_generated:
        base, extra = divmod(n_generated, len(plan.kinds))
        for i, kind in enumerate(plan.kinds):
            quota = base + (1 if i < extra else 0)
            if quota == 0:
                continue
            generated = generate_anomalies(
                chosen_regular,
                kind,
                quota,
                seed=int(rng.integers(0, 2**31)),
                range_inflation=plan.range_inflation,
                noise_scale=plan.noise_scale,
                feature_subset_fraction=plan.feature_subset_fraction,
            )
            parts.append(generated)
            part_labels.append(np.ones(quota, dtype=bool))

    mixed = np.vstack(parts)
    mixed_labels = np.concatenate(part_labels)
    order = rng.permutation(len(mixed))
    return mixed[order], mixed_labels[order]


def stratified_folds(labels, n_folds: int = 10, seed: int = 0) -> list[np.ndarray]:
    """Partition indices into folds preserving the class ratio.

    Every fold's anomaly count differs from an exact proportional share by
    at most one sample. Raises when either class has fewer members than
    folds.
    """
    labels = np.asarray(labels, dtype=bool)
    if n_folds < 2:
        raise DataError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for cls in (False, True):
        members = np.flatnonzero(labels == cls)
        if len(members) < n_folds:
            raise DataError(
                f"class {'anomaly' if cls else 'regular'} has {len(members)} members, "
                f"fewer than {n_folds} folds"
            )
        members = members[rng.permutation(len(members))]
        for i, chunk in enumerate(np.array_split(members, n_folds)):
            folds[i].extend(chunk.tolist())
    return [np.sort(np.asarray(fold, dtype=int)) for fold in folds]


# ---------------------------------------------------------------------------
# synthetic toy data used by the narrative examples and the test suite


def toy_correlated_pairs(
    n_samples: int,
    n_features: int,
    pairs: tuple[tuple[int, int], ...] = ((1, 2), (5, 6)),
    noise: float = 0.03,
    spread: float = 0.18,
    seed: int = 0,
) -> np.ndarray:
    """Bell-shaped independent features with a few strongly tied pairs.

    Independent features concentrate around the interval midpoint
    (clipped normal with the given spread), so uniform noise is
    off-distribution in every coordinate; each ``(a, b)`` pair shares one
    latent uniform draw plus a little noise, so the only pairwise
    dependencies are the constructed ones.
    """
    rng = np.random.default_rng(seed)
    data = np.clip(
        0.5 + spread * rng.standard_normal((n_samples, n_features)), 0.0, 1.0
    )
    for a, b in pairs:
        latent = rng.uniform(0.0, 1.0, size=n_samples)
        data[:, a] = np.clip(latent + noise * rng.standard_normal(n_samples), 0.0, 1.0)
        data[:, b] = np.clip(latent + noise * rng.standard_normal(n_samples), 0.0, 1.0)
    return data


def toy_two_clusters(
    n_samples: int, n_features: int, spread: float = 0.08, seed: int = 0
) -> np.ndarray:
    """Samples around two corners of the unit cube, for sanity checks."""
    rng = np.random.default_rng(seed)
    centers = np.where(rng.random(n_samples) < 0.5, 0.25, 0.75)
    data = centers[:, None] + spread * rng.standard_normal((n_samples, n_features))
    return np.clip(data, 0.0, 1.0)
