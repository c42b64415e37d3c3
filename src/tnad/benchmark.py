"""Benchmark orchestration: pollute, fold, train, evaluate.

The protocol: mix the dataset to 95% regular / 5% anomalous (half native,
half generated), split into stratified folds, and for every fold train an
unlabeled model on the remaining folds. Ranking quality is reported on
the training folds (separation task) and on the held-out fold (inductive
task). The trainer only ever sees feature matrices; the hidden labels
stay on the evaluation side.

:func:`train_model` trains one model as ``tnad train`` and every fold do,
and :func:`save_trained` writes it with its ``TrainReport`` beside it as
``<path>.report.json``. With an output directory, each trained fold
leaves ``fold<f>_<kind>.tnad`` and ``fold<f>_<kind>.tnad.report.json``:
``nll_trace``, ``discarded_weights``, ``bond_profile``,
``seconds_per_sweep``, ``zero_amplitude_skips``, ``step_errors``,
``cache_peak_bytes``, ``split_routes`` and ``amplitude_routes``.
"""

from __future__ import annotations

import json
import time
import types
import typing
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import DatasetSpec, PollutionPlan, build_pollution, load_csv, stratified_folds
from .encoding import LegendreFeatureMap, fit_rescaler
from .errors import DataError
from .metrics import auc_roc, eer_threshold, score_samples
from .mps import MpsModel
from .persist import save_model
from .training import TrainConfig, TrainReport, fit
from .ttn import TtnModel

__all__ = ["RunConfig", "BenchmarkResult", "run_benchmark", "benchmark_arrays"]


@dataclass
class RunConfig:
    """Everything a training or benchmark run needs besides the data."""

    phys_dim: int = 4
    init_bond: int = 2
    margin: float = 0.0
    n_folds: int = 10
    train: TrainConfig = field(default_factory=TrainConfig)
    pollution: PollutionPlan = field(default_factory=PollutionPlan)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        """Read a config file; one that is not JSON text raises :class:`DataError`."""
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except ValueError as exc:  # bad JSON, or bytes the encoding cannot decode
            raise DataError(f"{path}: config file is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        _check_section(cls, None, payload)
        payload = dict(payload)
        train = payload.pop("train", {})
        pollution = payload.pop("pollution", {})
        _check_section(TrainConfig, "train", train)
        _check_section(PollutionPlan, "pollution", pollution)
        if "kinds" in pollution:
            pollution = {**pollution, "kinds": tuple(pollution["kinds"])}
        return cls(train=TrainConfig(**train), pollution=PollutionPlan(**pollution), **payload)

    def to_dict(self) -> dict:
        return asdict(self)


def _check_section(kind, section: str | None, values) -> None:
    """Refuse a config section that is not a mapping of fields of the dataclass ``kind``.

    Each value must fit its field's annotation: an ``int`` field takes an
    int but not a bool, a ``float`` field an int or a float, ``None`` only
    where the field allows it, and ``kinds`` a list of strings.
    """
    name = "config" if section is None else f"config section {section!r}"
    if not isinstance(values, dict):
        raise DataError(f"{name} must be a JSON object, got {type(values).__name__}")
    hints = typing.get_type_hints(kind)
    unknown = set(values) - set(hints)
    if unknown:
        raise DataError(f"unknown keys in {name}: {sorted(unknown)}")
    for key, value in values.items():
        if not _fits(value, hints[key]):
            raise DataError(
                f"{name}: key {key!r} must be {_describe(hints[key])}, got {value!r}"
            )


def _fits(value, hint) -> bool:
    """Whether a JSON value may fill a field annotated ``hint``; sections are checked apart."""
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is type(None):
        return value is None
    if typing.get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)
    if isinstance(hint, types.UnionType):
        return any(_fits(value, option) for option in typing.get_args(hint))
    return True


def _describe(hint) -> str:
    """The values a field annotated ``hint`` takes, as a config error names them."""
    if isinstance(hint, types.UnionType):
        return " or ".join(map(_describe, typing.get_args(hint)))
    if typing.get_origin(hint) is tuple:
        return "a list of strings"
    return {int: "an integer", float: "a number", type(None): "null"}[hint]


@dataclass
class BenchmarkResult:
    """Per-fold and aggregate scores of one benchmark run."""

    model_kind: str
    separation_auc: list[float]
    inductive_auc: list[float]
    eer_thresholds: list[dict]
    separation_mean: float
    separation_std: float
    inductive_mean: float
    inductive_std: float
    seconds_per_fold: list[float]
    model_paths: list[str]
    config: dict

    def to_dict(self) -> dict:
        return asdict(self)


def train_model(kind: str, features: np.ndarray, config: RunConfig, seed: int):
    """Train a new ``kind`` model (``"mps"`` or ``"ttn"``) on raw rows.

    The encoder's rescaler is fitted on ``features``, the tensors are
    seeded at ``seed``, and :func:`~tnad.training.fit` runs
    ``config.train`` with its seed replaced by ``seed``. Returns ``(model,
    report)``. An unknown kind raises :class:`DataError`.
    """
    kinds = {"mps": MpsModel, "ttn": TtnModel}
    if kind not in kinds:
        raise DataError(f"unknown model kind {kind!r}; expected 'mps' or 'ttn'")
    encoder = LegendreFeatureMap(config.phys_dim, fit_rescaler(features, margin=config.margin))
    model = kinds[kind].random(features.shape[1], config.phys_dim, config.init_bond, seed, encoder)
    return model, fit(model, features, replace(config.train, seed=seed))


def save_trained(path, model, report: TrainReport) -> Path:
    """Write ``model`` to ``path`` and its training report to ``<path>.report.json``.

    Returns the report's path.
    """
    save_model(path, model)
    report_path = Path(f"{path}.report.json")
    report_path.write_text(json.dumps(report.to_dict(), indent=2))
    return report_path


def benchmark_arrays(
    features: np.ndarray,
    labels: np.ndarray | None,
    model_kind: str,
    config: RunConfig,
    out_dir=None,
    max_folds: int | None = None,
    seed: int | None = None,
) -> BenchmarkResult:
    """Run the fold protocol on in-memory data.

    ``seed`` (when given) overrides the seeds in the config: the pollution
    mix uses ``seed``, the fold split ``seed + 1``, and fold ``f`` trains
    with ``seed + 2 + f``. ``max_folds`` limits how many folds are actually
    trained (the split is still a full ``n_folds`` partition), which is the
    desk-scale single-fold mode; it must be at least 1.
    """
    if max_folds is not None and max_folds < 1:
        raise DataError(f"max_folds must be >= 1, got {max_folds}")
    plan = config.pollution
    base_train_seed = config.train.seed
    fold_seed = plan.seed + 1
    if seed is not None:
        plan = replace(plan, seed=seed)
        fold_seed = seed + 1
        base_train_seed = seed + 2

    mixed, hidden = build_pollution(features, labels, plan)
    folds = stratified_folds(hidden, config.n_folds, seed=fold_seed)
    n_run = config.n_folds if max_folds is None else min(max_folds, config.n_folds)

    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    separation, inductive, eers, paths, timing = [], [], [], [], []
    for f in range(n_run):
        started = time.perf_counter()
        holdout = folds[f]
        train_idx = np.sort(np.concatenate([folds[g] for g in range(config.n_folds) if g != f]))
        train_features = mixed[train_idx]
        model, report = train_model(model_kind, train_features, config, base_train_seed + f)

        train_scores = score_samples(model, train_features)
        separation.append(auc_roc(train_scores, hidden[train_idx]))
        threshold, tpr, tnr = eer_threshold(train_scores, hidden[train_idx])
        eers.append({"threshold": threshold, "tpr": tpr, "tnr": tnr})

        holdout_scores = score_samples(model, mixed[holdout])
        inductive.append(auc_roc(holdout_scores, hidden[holdout]))

        if out_dir is not None:
            path = out_dir / f"fold{f}_{model_kind}.tnad"
            save_trained(path, model, report)
            paths.append(str(path))
        timing.append(time.perf_counter() - started)

    return BenchmarkResult(
        model_kind=model_kind,
        separation_auc=separation,
        inductive_auc=inductive,
        eer_thresholds=eers,
        separation_mean=float(np.mean(separation)),
        separation_std=float(np.std(separation)),
        inductive_mean=float(np.mean(inductive)),
        inductive_std=float(np.std(inductive)),
        seconds_per_fold=timing,
        model_paths=paths,
        config=config.to_dict(),
    )


def run_benchmark(
    dataset: DatasetSpec,
    model_kind: str,
    config: RunConfig,
    out_dir=None,
    max_folds: int | None = None,
    seed: int | None = None,
) -> BenchmarkResult:
    """Load a CSV dataset and run :func:`benchmark_arrays` on it."""
    features, labels = load_csv(dataset)
    return benchmark_arrays(
        features, labels, model_kind, config,
        out_dir=out_dir, max_folds=max_folds, seed=seed,
    )
