"""Two-site negative-log-likelihood training, generic over MPS and TTN.

The loop walks the network's sweep schedule; at every directed edge the
two adjacent tensors are merged, updated with a few steps of (stochastic)
projected gradient descent on the NLL, then split by a truncated SVD that
adapts the bond dimension and moves the canonical center along the edge.

The per-sample gradient of the amplitude with respect to the merged
tensor is the outer product of the environment factor vectors; both the
factors and the amplitude are computed with per-sample log-scale
renormalization, and the ratio gradient/amplitude is formed from the
rescaled quantities directly so the scales cancel.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DegenerateInputError, NumericalError
from .tensors import single_blas_thread

logger = logging.getLogger(__name__)

__all__ = ["TrainConfig", "StepStats", "TrainReport", "nll_loss", "two_site_gradient",
           "two_site_step", "fit"]

_LOG_FLOOR = -700.0

# Line-search bracket of one inner update: the step may grow to 2**3 = 8
# times the learning rate, or shrink to 2**-10 (about a thousandth) of it.
# Samples with tiny amplitudes can make the gradient a thousand times
# larger than the merged tensor, so a descending step may be that small.
_MAX_DOUBLINGS = 3
_MAX_HALVINGS = 10


@dataclass
class TrainConfig:
    """Hyper-parameters of the two-site training loop.

    ``batch_size=None`` means full-batch gradients; otherwise a fresh
    mini-batch is drawn (without replacement) for every edge step.
    ``zero_amplitude_policy`` decides how samples with exactly vanishing
    amplitude enter losses and gradients: ``"skip"`` excludes them (with a
    logged count), ``"clamp"`` floors their log amplitude instead.

    Each edge step runs up to ``inner_steps`` gradient updates, each a
    monotone line search on the local NLL of the step's batch.
    ``learning_rate`` (times ``lr_decay`` per finished sweep) is the first
    trial step. While the local NLL keeps falling the step is doubled, at
    most 3 times; if the first trial raises the NLL the step is halved, at
    most 10 times, until a trial descends. A trial that leaves more samples
    at zero amplitude than before never counts as a descent. When no trial
    descends, the edge's inner loop ends early.
    """

    learning_rate: float = 1e-2
    lr_decay: float = 0.9
    inner_steps: int = 5
    batch_size: int | None = 256
    sweeps: int = 10
    svd_rel_threshold: float = 1e-4
    max_bond: int = 40
    seed: int = 0
    zero_amplitude_policy: str = "skip"

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 0.5:
            raise DataError(f"learning_rate must lie in (0, 0.5], got {self.learning_rate}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise DataError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")
        if self.inner_steps < 1:
            raise DataError("inner_steps must be >= 1")
        if self.sweeps < 0:
            raise DataError("sweeps must be >= 0")
        if not 0.0 <= self.svd_rel_threshold < 1.0:
            raise DataError("svd_rel_threshold must lie in [0, 1)")
        if self.max_bond < 1:
            raise DataError("max_bond must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise DataError("batch_size must be >= 1 or None for full batch")
        if self.zero_amplitude_policy not in ("skip", "clamp"):
            raise DataError(f"unknown zero_amplitude_policy {self.zero_amplitude_policy!r}")


@dataclass
class StepStats:
    """Outcome of one two-site edge update."""

    edge: tuple
    discarded_weight: float
    loss_before: float
    loss_after: float
    skipped_samples: int = 0
    error: str | None = None


@dataclass
class TrainReport:
    """Trace of a :func:`fit` run."""

    nll_trace: list[float] = field(default_factory=list)
    discarded_weights: list[list[float]] = field(default_factory=list)
    bond_profile: list[int] = field(default_factory=list)
    seconds_per_sweep: list[float] = field(default_factory=list)
    zero_amplitude_skips: int = 0
    step_errors: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "nll_trace": self.nll_trace,
            "discarded_weights": self.discarded_weights,
            "bond_profile": self.bond_profile,
            "seconds_per_sweep": self.seconds_per_sweep,
            "zero_amplitude_skips": self.zero_amplitude_skips,
            "step_errors": self.step_errors,
        }


@single_blas_thread()
def nll_loss(model, encoded: np.ndarray, zero_amplitude_policy: str = "skip") -> float:
    """Mean negative log-likelihood of a batch under the Born rule.

    ``log P(x) = 2 log |amplitude(x)|`` for a unit-norm model. Samples with
    exactly zero amplitude are excluded ("skip") or floored ("clamp").
    """
    encoded = np.asarray(encoded, dtype=np.float64)
    if encoded.size == 0:
        raise DataError("nll_loss needs a non-empty batch")
    log_abs, _ = model.log_amplitudes(encoded)
    if zero_amplitude_policy == "clamp":
        log_abs = np.maximum(log_abs, _LOG_FLOOR)
    finite = np.isfinite(log_abs)
    n_skipped = int(encoded.shape[0] - finite.sum())
    if n_skipped:
        logger.warning("nll_loss: skipped %d zero-amplitude samples", n_skipped)
    if not finite.any():
        raise NumericalError("all samples have zero amplitude under the model")
    return float(-2.0 * log_abs[finite].mean())


def _combine_factors(factor_list) -> np.ndarray:
    """Row-wise Kronecker product of per-sample factors: (n, prod of dims)."""
    combined = factor_list[0]
    for factor in factor_list[1:]:
        combined = (combined[:, :, None] * factor[:, None, :]).reshape(combined.shape[0], -1)
    return combined


def _split_factors(factor_list) -> int:
    """Split index balancing the two combined factor widths."""
    dims = [f.shape[1] for f in factor_list]
    total = float(np.prod(dims))
    best, best_score = 1, float("inf")
    running = 1.0
    for s in range(1, len(dims)):
        running *= dims[s - 1]
        score = max(running, total / running)
        if score < best_score:
            best, best_score = s, score
    return best


def _factor_pair(factor_list) -> tuple[np.ndarray, np.ndarray]:
    """Combined factors of a balanced bipartition of the merged-tensor axes."""
    s = _split_factors(factor_list)
    return _combine_factors(factor_list[:s]), _combine_factors(factor_list[s:])


def _contract_fractions(merged: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per-sample rescaled amplitude ``<merged, outer(factors_b)>``.

    Formed as one matrix product over the combined factor pair, which
    keeps the cost at a single GEMM instead of a chain of batched outer
    products.
    """
    matrix = merged.reshape(left.shape[1], right.shape[1])
    return ((left @ matrix) * right).sum(axis=1)


def _gradient_from_factors(
    shape: tuple, psi: np.ndarray, left: np.ndarray, right: np.ndarray,
    zero_amplitude_policy: str,
) -> tuple[np.ndarray, int]:
    """NLL gradient with respect to the merged tensor, scales cancelled.

    ``psi`` holds the per-sample rescaled amplitudes of the merged tensor
    (:func:`_contract_fractions`). Returns ``(gradient, n_skipped)``.
    """
    valid = psi != 0.0
    n_skipped = int(np.count_nonzero(~valid))
    if zero_amplitude_policy == "clamp" and n_skipped:
        tiny = 1e-30
        psi = np.where(valid, psi, tiny)
        valid = np.ones_like(valid)
        n_skipped = 0
    denom = int(valid.sum())
    if denom == 0:
        raise NumericalError("every sample in the batch has zero amplitude")
    weights = np.where(valid, 1.0, 0.0)
    weights[valid] /= psi[valid]
    grad_matrix = (left * weights[:, None]).T @ right
    return (-2.0 / denom) * grad_matrix.reshape(shape), n_skipped


def _local_nll(psi: np.ndarray, log_scale: np.ndarray, zero_amplitude_policy: str) -> float:
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(psi)) + log_scale
    if zero_amplitude_policy == "clamp":
        log_abs = np.maximum(log_abs, _LOG_FLOOR)
    finite = np.isfinite(log_abs)
    if not finite.any():
        return float("inf")
    return float(-2.0 * log_abs[finite].mean())


@single_blas_thread()
def two_site_gradient(
    model,
    edge,
    merged: np.ndarray,
    encoded_batch: np.ndarray,
    zero_amplitude_policy: str = "skip",
) -> np.ndarray:
    """NLL gradient with respect to the merged tensor at ``edge``.

    The model must be in canonical form with its center at one endpoint of
    ``edge`` and ``merged`` must be the corresponding merged tensor (for
    example the output of ``merge_edge``). Environments are built for
    ``encoded_batch`` on the fly; the incremental cache used by
    :func:`fit` produces the same values.
    """
    env = model.environment_cache(np.asarray(encoded_batch, dtype=np.float64))
    factor_list, _ = env.factors(edge)
    left, right = _factor_pair(factor_list)
    psi = _contract_fractions(merged, left, right)
    grad, n_skipped = _gradient_from_factors(
        merged.shape, psi, left, right, zero_amplitude_policy
    )
    if n_skipped:
        logger.warning("two_site_gradient: skipped %d zero-amplitude samples", n_skipped)
    return grad


@dataclass
class _Trial:
    """Amplitudes and local NLL of the trial tensor ``(merged - size * grad) / norm``."""

    psi: np.ndarray
    loss: float
    zeros: int
    size: float = 0.0
    norm: float = 1.0

    def descends_from(self, other: "_Trial") -> bool:
        # under "skip" a zeroed sample leaves the local mean, which could
        # lower the loss without fitting anything better: never reward that
        return self.loss < other.loss and self.zeros <= other.zeros


def _score(psi, log_scale, policy, size=0.0, norm=1.0) -> _Trial:
    loss = _local_nll(psi, log_scale, policy)
    return _Trial(psi, loss, int(np.count_nonzero(psi == 0.0)), size, norm)


def _line_search(
    current: _Trial, merged, grad, step, left, right, log_scale, policy
) -> _Trial | None:
    """Monotone step from ``merged`` along ``-grad``: the descending trial, or None.

    ``step`` is tried first. While the local NLL keeps falling the step is
    doubled, at most ``_MAX_DOUBLINGS`` times; if the first trial does not
    descend the step is halved, at most ``_MAX_HALVINGS`` times, until one
    does. None means no trial descended.

    The amplitudes are linear in the merged tensor and the trial norm is a
    quadratic in the step, so one contraction of ``grad`` and three sums
    price every trial without forming it.
    """
    psi_grad = _contract_fractions(grad, left, right)
    mm = np.sum(np.square(merged))
    mg = np.sum(merged * grad)
    gg = np.sum(np.square(grad))

    def at(size):
        squared = mm - 2.0 * size * mg + size * size * gg
        if not (squared > 0.0 and np.isfinite(squared)):
            return None
        norm = float(np.sqrt(squared))
        return _score((current.psi - size * psi_grad) / norm, log_scale, policy, size, norm)

    best = at(step)
    if best is not None and best.descends_from(current):
        for _ in range(_MAX_DOUBLINGS):
            step *= 2.0
            longer = at(step)
            if longer is None or not longer.descends_from(best):
                break
            best = longer
        return best
    for _ in range(_MAX_HALVINGS):
        step *= 0.5
        shorter = at(step)
        if shorter is not None and shorter.descends_from(current):
            return shorter
    return None


def two_site_step(model, edge, env, rows, learning_rate: float, config: TrainConfig) -> StepStats:
    """One merge / descend / split update at ``edge`` using cached environments.

    Each of ``config.inner_steps`` gradient updates is a monotone line
    search on the local NLL (see :class:`TrainConfig`), projected back onto
    the unit sphere, so no partition-function term appears in the
    gradient. The inner loop ends early once no trial step descends. A
    degenerate split aborts the step: the original merged tensor is split
    exactly instead, which restores the state while still moving the
    center for the rest of the sweep.
    """
    original = model.merge_edge(edge)
    factor_list, log_scale = env.factors(edge, rows)
    left, right = _factor_pair(factor_list)
    policy = config.zero_amplitude_policy

    merged = original
    current = _score(_contract_fractions(original, left, right), log_scale, policy)
    loss_before = current.loss
    skipped = 0
    error = None
    for _ in range(config.inner_steps):
        try:
            grad, n_skip = _gradient_from_factors(
                original.shape, current.psi, left, right, policy
            )
        except NumericalError as exc:
            error = str(exc)
            break
        skipped = max(skipped, n_skip)
        found = _line_search(
            current, merged, grad, learning_rate, left, right, log_scale, policy
        )
        if found is None:
            break
        merged = (merged - found.size * grad) / found.norm
        current = found

    if error is None:
        try:
            discarded = model.split_edge(
                edge, merged, config.svd_rel_threshold, config.max_bond
            )
        except DegenerateInputError as exc:
            error = str(exc)

    if error is not None:
        # restore: exact split of the untouched merged tensor
        model.split_edge(edge, original, 0.0, None)
        env.push(*edge)
        return StepStats(edge, 0.0, loss_before, loss_before, skipped, error)

    env.push(*edge)
    after = model.merge_edge(edge)
    loss_after = _local_nll(_contract_fractions(after, left, right), log_scale, policy)
    return StepStats(edge, discarded, loss_before, loss_after, skipped, None)


@single_blas_thread()
def fit(model, encoded: np.ndarray, config: TrainConfig) -> TrainReport:
    """Train ``model`` in place on encoded, unlabeled data.

    ``model`` must be canonical at its center, as ``random``,
    ``load_model`` and ``fit`` itself leave it; its center is moved to
    the sweep start along the path between them. Runs ``config.sweeps``
    full traversals with mini-batches redrawn per step from a generator
    seeded by ``config.seed``; the NLL trace records the full-data loss
    after each sweep.

    Deterministic: the same seed, config, data and numpy/BLAS build give
    the same trained tensors and report (timings aside), bit for bit, at
    any BLAS thread count (see :func:`tnad.tensors.single_blas_thread`).
    """
    encoded = np.asarray(encoded, dtype=np.float64)
    if encoded.ndim != 3 or encoded.shape[0] == 0:
        raise DataError("fit needs a non-empty (samples, sites, phys_dim) batch")
    report = TrainReport()
    if config.sweeps == 0:
        report.bond_profile = model.bond_profile()
        return report

    model.canonicalize(model.sweep_start())
    model.normalize()
    env = model.environment_cache(encoded)
    schedule = model.sweep_schedule()
    rng = np.random.default_rng(config.seed)
    n = encoded.shape[0]
    draw_batches = config.batch_size is not None and config.batch_size < n
    learning_rate = config.learning_rate

    for sweep in range(config.sweeps):
        started = time.perf_counter()
        discards = []
        for edge in schedule:
            rows = rng.choice(n, size=config.batch_size, replace=False) if draw_batches else None
            stats = two_site_step(model, edge, env, rows, learning_rate, config)
            discards.append(stats.discarded_weight)
            report.zero_amplitude_skips += stats.skipped_samples
            if stats.error is not None:
                message = f"sweep {sweep}, edge {stats.edge}: {stats.error}"
                logger.warning("two-site step aborted (%s)", message)
                report.step_errors.append(message)
        report.discarded_weights.append(discards)
        report.nll_trace.append(nll_loss(model, encoded, config.zero_amplitude_policy))
        report.seconds_per_sweep.append(time.perf_counter() - started)
        learning_rate *= config.lr_decay

    report.bond_profile = model.bond_profile()
    return report
