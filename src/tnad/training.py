"""Two-site negative-log-likelihood training, generic over MPS and TTN.

The loop walks the network's sweep schedule; at every directed edge the
two adjacent tensors are merged, updated with a few steps of (stochastic)
projected gradient descent on the NLL, then split by a truncated SVD that
adapts the bond dimension and moves the canonical center along the edge.

Most splits are exact: they cut the merged tensor's full spectrum. A
split whose bond is already at ``max_bond`` starts from the bond's
current basis (:meth:`~tnad.network.TensorNetwork.split_edge`), and
where that pays, a shorter side of at least 12 times
``max_bond``, it is a subspace split (:func:`tnad.tensors.truncated_svd`):
in practice the tree's 256 x 256 splits between inner nodes at bond 16,
never an MPS split at bond 40. On a 57-feature tree fit such a split
dropped a median 4.7e-4, at most 8.3e-3, of the merged tensor's squared
norm more than the exact split, and its reported discarded weight is
still its squared error. ``TrainReport.split_routes`` counts each fit's
splits by route.

The per-sample gradient of the amplitude with respect to the merged
tensor is the outer product of the edge's two environment factors, one per
node, cut where the split cuts the merged tensor; both the factors and the
amplitude are computed with per-sample log-scale renormalization, and the
ratio gradient/amplitude is formed from the rescaled quantities directly
so the scales cancel. The updates of an edge run on the batch's
per-sample amplitudes, which start from the two node tensors, each met by
its own factor; the merged tensor is formed once, just before the split.

Each update needs the amplitudes ``K g`` of a gradient, with ``K = (L
Lᵀ) ∘ (R Rᵀ)`` for the factor pair ``L``, ``R`` of widths ``W0``, ``W1``.
Both factors are row-wise Kronecker products of per-leg vectors (feature
legs and messages), so ``K`` is the entrywise product of the legs' own
Gram matrices, ``n² Σw`` flops for ``n`` samples and leg widths ``w``.
The step builds ``K`` when that and one product per update, ``n² (Σw +
inner_steps)``, cost less than mapping every update through the factor
pair, ``2 inner_steps n W0 W1``, and ``n <= W0 + W1``, so ``K`` holds no
more entries than the pair: 256-row batches on wide edges build it, and
a full batch of 2,000 rows takes the pair route at any MPS bond below
200 (N = 5). ``TrainReport.amplitude_routes`` counts each fit's steps by
route.

Each sweep's entry of ``TrainReport.nll_trace`` is the full-data NLL read
at the canonical center from the environment cache of all rows
(:meth:`~tnad.network.Environments.amplitudes`), not a fresh amplitude
pass; it equals :func:`nll_loss` up to rounding.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataError, DegenerateInputError, NumericalError
from .tensors import single_blas_thread

logger = logging.getLogger(__name__)

__all__ = ["TrainConfig", "StepStats", "TrainReport", "nll_loss", "two_site_gradient",
           "two_site_step", "fit"]

# Line-search bracket of one inner update: the step may grow to 2**3 = 8
# times the learning rate, or shrink to 2**-10 (about a thousandth) of it.
# Samples with tiny amplitudes can make the gradient a thousand times
# larger than the merged tensor, so a descending step may be that small.
_MAX_DOUBLINGS = 3
_MAX_HALVINGS = 10
# the trial sizes in learning rates, shortest first: the first trial, 1,
# is entry _MAX_HALVINGS
_LADDER = 2.0 ** np.arange(-_MAX_HALVINGS, _MAX_DOUBLINGS + 1)


@dataclass
class TrainConfig:
    """Hyper-parameters of the two-site training loop.

    ``batch_size=None`` means full-batch gradients; otherwise a fresh
    mini-batch is drawn (without replacement) for every edge step.
    Samples with exactly vanishing amplitude are left out of every loss
    and gradient, and counted in ``TrainReport.zero_amplitude_skips``.

    Each edge step runs up to ``inner_steps`` gradient updates, each a
    monotone line search on the local NLL of the step's batch. Its trial
    steps are one ladder, ``learning_rate * 2**k`` for ``k = -10 .. 3``
    (``learning_rate`` times ``lr_decay`` per finished sweep), priced all
    at once. ``learning_rate`` is the first trial. While the local NLL
    keeps falling the step is doubled, at most 3 times; if the first trial
    raises the NLL, the longest halving that descends is taken. A trial
    that leaves more samples at zero amplitude than before never counts as
    a descent. When no trial descends, the edge's inner loop ends early.
    """

    learning_rate: float = 1e-2
    lr_decay: float = 0.9
    inner_steps: int = 5
    batch_size: int | None = 256
    sweeps: int = 10
    svd_rel_threshold: float = 1e-4
    max_bond: int = 40
    seed: int = 0

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
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


@dataclass
class StepStats:
    """Outcome of one two-site edge update."""

    edge: tuple
    discarded_weight: float
    loss_before: float
    loss_after: float
    skipped_samples: int = 0
    error: str | None = None
    # route of the step's split (``SvdResult.route``); None if it aborted
    split_route: str | None = None
    # route of the step's amplitude map, ``"gram"`` or ``"pair"``
    amplitude_route: str | None = None


@dataclass
class TrainReport:
    """Trace of a :func:`fit` run.

    ``split_routes`` counts the fit's splits by their
    :attr:`~tnad.tensors.SvdResult.route`, fallbacks included, and
    ``amplitude_routes`` its steps, aborted ones too, by the route of their
    amplitude map (``"gram"`` or ``"pair"``).
    """

    nll_trace: list[float] = field(default_factory=list)
    discarded_weights: list[list[float]] = field(default_factory=list)
    bond_profile: list[int] = field(default_factory=list)
    seconds_per_sweep: list[float] = field(default_factory=list)
    zero_amplitude_skips: int = 0
    step_errors: list[str] = field(default_factory=list)
    # most bytes the environment cache's stored messages held at once
    cache_peak_bytes: int = 0
    split_routes: dict[str, int] = field(default_factory=dict)
    amplitude_routes: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@single_blas_thread()
def nll_loss(model, batch: np.ndarray) -> float:
    """Mean negative log-likelihood of a batch under the Born rule.

    ``batch`` is raw rows or an encoded batch, as for
    :meth:`~tnad.network.TensorNetwork.log_amplitudes`.
    ``log P(x) = 2 log |amplitude(x)|`` for a unit-norm model. Samples with
    exactly zero amplitude are left out of the mean, with a logged count;
    :class:`NumericalError` if every sample is.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.size == 0:
        raise DataError("nll_loss needs a non-empty batch")
    log_abs, _ = model.log_amplitudes(batch)
    return _reported_nll(log_abs)


def _mean_nll(log_abs: np.ndarray) -> tuple[float, int]:
    """Mean NLL over the samples that count, and how many were skipped; inf if none counts."""
    finite = np.isfinite(log_abs)
    n_skipped = int(log_abs.shape[0] - finite.sum())
    if not finite.any():
        return float("inf"), n_skipped
    return float(-2.0 * log_abs[finite].mean()), n_skipped


def _reported_nll(log_abs: np.ndarray) -> float:
    """:func:`_mean_nll` with a logged skip count; no sample left is an error."""
    loss, n_skipped = _mean_nll(log_abs)
    if n_skipped:
        logger.warning("nll_loss: skipped %d zero-amplitude samples", n_skipped)
    if n_skipped == log_abs.shape[0]:
        raise NumericalError("all samples have zero amplitude under the model")
    return loss


def _log_abs(psi: np.ndarray, log_scale: np.ndarray) -> np.ndarray:
    """Log magnitudes of rescaled amplitudes; ``-inf`` where one vanishes."""
    log_abs = np.abs(psi)
    with np.errstate(divide="ignore"):
        np.log(log_abs, out=log_abs)
    log_abs += log_scale
    return log_abs


def _contract_fractions(merged: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per-sample rescaled amplitude ``<merged, outer(left_b, right_b)>``.

    Formed as one matrix product over the edge's factor pair, which keeps
    the cost at a single GEMM instead of a chain of batched outer products.
    """
    matrix = merged.reshape(left.shape[1], right.shape[1])
    return ((left @ matrix) * right).sum(axis=1)


def _weighted_sum(weights: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``leftᵀ diag(weights) right``: the samples' outer factor products, weighted."""
    return (left * weights[:, None]).T @ right


def _sample_weights(psi: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-sample weights ``g`` of the NLL gradient ``leftᵀ diag(g) right``.

    ``psi`` holds the per-sample rescaled amplitudes of the merged tensor
    (:func:`_contract_fractions`); ``g = (-2 / denom) / psi`` on the
    ``denom`` samples that count and 0 on the rest, so the scales cancel.
    Returns ``(g, n_skipped)``.
    """
    valid = psi != 0.0
    n_skipped = int(np.count_nonzero(~valid))
    denom = psi.shape[0] - n_skipped
    if denom == 0:
        raise NumericalError("every sample in the batch has zero amplitude")
    weights = np.zeros_like(psi)
    weights[valid] = (-2.0 / denom) / psi[valid]
    return weights, n_skipped


def _leg_gram(legs: list[np.ndarray]) -> np.ndarray:
    """``∘ₐ (a aᵀ)`` over the per-leg operands ``a``: the Gram of their row-wise
    Kronecker product (the Khatri-Rao identity), at ``n² Σw`` flops for leg widths ``w``.
    """
    # a @ a.T goes to BLAS syrk, which on OpenBLAS 0.3.31 runs 3-7x slower
    # than gemm on a transposed copy for thin operands (one thread, 256 rows:
    # 158 vs 22 us at width 5, 189 vs 58 us at 16, 200 vs 77 us at 25)
    gram = legs[0] @ np.ascontiguousarray(legs[0].T)
    leg_gram = np.empty_like(gram)
    for a in legs[1:]:
        gram *= np.matmul(a, np.ascontiguousarray(a.T), out=leg_gram)
    return gram


def _amplitude_map(left: np.ndarray, right: np.ndarray, legs: list[np.ndarray], calls: int):
    """``(route, g -> K g)``: the amplitudes of ``leftᵀ diag(g) right``.

    ``K = (left leftᵀ) ∘ (right rightᵀ)``, and since ``left`` and ``right``
    are row-wise Kronecker products of ``legs``, ``K`` is the entrywise
    product of the legs' own Gram matrices (:func:`_leg_gram`). Either this
    ``n x n`` matrix is built once and each call is one matrix-vector
    product (route ``"gram"``), or each call maps ``g`` into the merged
    tensor and back out, two GEMMs of ``n x W0 x W1`` (``n`` samples,
    factor widths ``W0`` and ``W1``; route ``"pair"``). Over ``calls``
    calls the Gram costs ``n² (Σw + calls)`` flops for leg widths ``w``
    and the pair ``2 calls n W0 W1``; the Gram is built when it costs
    fewer and holds no more entries than the factor pair, ``n <= W0 + W1``.
    """
    n, width_l, width_r = left.shape[0], left.shape[1], right.shape[1]
    gram_flops = n * n * (sum(a.shape[1] for a in legs) + calls)
    pair_flops = 2 * calls * n * width_l * width_r
    if n <= width_l + width_r and gram_flops < pair_flops:
        gram = _leg_gram(legs)
        return "gram", lambda g: gram @ g
    return "pair", lambda g: _contract_fractions(_weighted_sum(g, left, right), left, right)


@single_blas_thread()
def two_site_gradient(
    model,
    edge,
    merged: np.ndarray,
    batch: np.ndarray,
) -> np.ndarray:
    """NLL gradient with respect to the merged tensor at ``edge``.

    The model must be in canonical form with its center at one endpoint of
    ``edge`` and ``merged`` must be the corresponding merged tensor in the
    edge-order layout of ``merge_edge`` (for example its output); the
    gradient has the same layout. ``batch`` is raw rows ``(n,
    n_features)``, which the model's encoder encodes, or an encoded batch
    ``(n, n_features, phys_dim)``; raw rows give the bits of
    ``encode_batch(rows)``. Its
    :class:`~tnad.network.Environments` are built on the fly; the
    incremental cache used by :func:`fit` produces the same values.
    :func:`two_site_step` never forms this tensor; it steps along it with
    the same sample weights.
    """
    env = model.environment_cache(batch)
    (left, right), _, _ = env.factors(edge)
    weights, n_skipped = _sample_weights(_contract_fractions(merged, left, right))
    if n_skipped:
        logger.warning("two_site_gradient: skipped %d zero-amplitude samples", n_skipped)
    return _weighted_sum(weights, left, right).reshape(merged.shape)


def _local_nll(psi: np.ndarray, log_scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Local NLL and zero count of each row of rescaled amplitudes ``psi`` ``(m, n)``.

    A row whose plain mean is not finite, as where an amplitude vanishes,
    takes :func:`_mean_nll`'s mean over its finite entries; no other row
    holds a zero.
    """
    log_abs = _log_abs(psi, log_scale)
    losses = -2.0 * log_abs.mean(axis=1)
    zeros = np.zeros(len(losses), dtype=np.int64)
    for i in np.flatnonzero(~np.isfinite(losses)):
        losses[i] = _mean_nll(log_abs[i])[0]
        zeros[i] = np.count_nonzero(psi[i] == 0.0)
    return losses, zeros


def _line_search(psi, loss, zeros, weights, psi_grad, squared, step, log_scale):
    """Monotone step from the merged tensor along ``-grad``: the descending trial, or None.

    The trial sizes are ``step * 2**k`` for ``k = -_MAX_HALVINGS ..
    _MAX_DOUBLINGS``, all priced at once as one ``(14, n)`` array of
    amplitudes. The rule reads that array as a sequential search would:
    ``step`` first; while the local NLL keeps falling the step is doubled,
    at most ``_MAX_DOUBLINGS`` times; if the first trial does not descend,
    the longest shorter trial that descends from the current point is
    taken. A trial that leaves more samples at zero amplitude never counts
    as a descent, and one whose squared norm is not positive and finite is
    never taken. Returns ``(size, norm, psi, loss, zeros)`` of the trial,
    or None if no trial descends.

    Every trial is priced in sample space. With ``grad = leftᵀ
    diag(weights) right``, ``psi_grad`` its amplitudes and ``psi`` those of
    the merged tensor, ``<merged, grad> = psi · weights`` and ``|grad|² =
    weights · psi_grad``; ``squared`` is ``|merged|²``. The amplitudes are
    linear in the step and the trial norm is a quadratic in it, so no trial
    tensor is formed.
    """
    sizes = step * _LADDER
    mg, gg = float(psi @ weights), float(weights @ psi_grad)
    norm2 = squared - 2.0 * sizes * mg + sizes * sizes * gg
    usable = (norm2 > 0.0) & np.isfinite(norm2)
    norms = np.sqrt(np.where(usable, norm2, 1.0))
    trials = sizes[:, None] * psi_grad
    np.subtract(psi, trials, out=trials)
    trials /= norms[:, None]
    losses, zero_counts = _local_nll(trials, log_scale)
    # a zeroed sample leaves the local mean, which could lower the loss
    # without fitting anything better: never reward that
    descends = usable & (losses < loss) & (zero_counts <= zeros)
    first = _MAX_HALVINGS
    if descends[first]:
        longer = usable[first + 1:] & (losses[first + 1:] < losses[first:-1]) & (
            zero_counts[first + 1:] <= zero_counts[first:-1])
        pick = first + int(np.logical_and.accumulate(longer).sum())
    elif descends[:first].any():
        pick = int(np.flatnonzero(descends[:first])[-1])
    else:
        return None
    # a copy frees the whole ladder now; a view of its row kept the block
    # alive through the edge's later updates, and with glibc's malloc the
    # heap it held raised the 57-feature tree workload's peak RSS by 3 MB
    return (float(sizes[pick]), float(norms[pick]), trials[pick].copy(), float(losses[pick]),
            int(zero_counts[pick]))


def two_site_step(model, edge, env, rows, learning_rate: float, config: TrainConfig) -> StepStats:
    """One merge / descend / split update at ``edge`` using cached environments.

    Each of ``config.inner_steps`` gradient updates is a monotone line
    search on the local NLL (see :class:`TrainConfig`), projected back onto
    the unit sphere, so no partition-function term appears in the
    gradient. The inner loop ends early once no trial step descends. A
    degenerate split aborts the step: a refused split writes nothing, so
    the node tensors still hold the state, and a QR step moves the center
    along ``edge`` for the rest of the sweep.

    The updates run on the batch's amplitudes alone, which start from the
    two node tensors (:func:`_node_fractions`): every gradient is
    ``leftᵀ diag(g) right`` over the environment factor pair, so the
    merged tensor stays ``alpha * original + leftᵀ diag(c) right`` and is
    formed once, by one GEMM, before the split. ``StepStats.amplitude_route``
    names the route of :func:`_amplitude_map`. Since it stays near the
    current state, :meth:`split_edge` may start the split from the bond's
    current basis: a split at the cap of a wide enough bond is a subspace
    split. ``StepStats.split_route`` names the route.
    """
    original = model.merge_edge(edge)
    (left, right), log_scale, legs = env.factors(edge, rows)
    route, amplitudes_of = _amplitude_map(left, right, legs, config.inner_steps)

    alpha, coeffs = 1.0, np.zeros(left.shape[0])
    squared = float(np.sum(np.square(original)))
    psi = _node_fractions(model, edge, left, right)
    (loss,), (zeros,) = _local_nll(psi[None], log_scale)
    loss_before = loss
    skipped = 0
    error = None
    for _ in range(config.inner_steps):
        try:
            weights, n_skip = _sample_weights(psi)
        except NumericalError as exc:
            error = str(exc)
            break
        skipped = max(skipped, n_skip)
        found = _line_search(
            psi, loss, zeros, weights, amplitudes_of(weights), squared, learning_rate, log_scale
        )
        if found is None:
            break
        size, norm, psi, loss, zeros = found
        alpha /= norm
        coeffs = (coeffs - size * weights) / norm
        # an accepted trial is divided by its own norm
        squared = 1.0

    if error is None:
        merged = alpha * original + _weighted_sum(coeffs, left, right).reshape(original.shape)
        try:
            split = model.split_edge(edge, merged, config.svd_rel_threshold, config.max_bond)
        except DegenerateInputError as exc:
            error = str(exc)

    if error is not None:
        model.canonicalize(edge[1])
        env.push(*edge)
        return StepStats(edge, 0.0, loss_before, loss_before, skipped, error,
                         amplitude_route=route)

    env.push(*edge)
    loss_after, _ = _mean_nll(_log_abs(_node_fractions(model, edge, left, right), log_scale))
    return StepStats(
        edge, split.discarded_weight, loss_before, loss_after, skipped, None, split.route, route
    )


def _node_fractions(model, edge, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per-sample rescaled amplitudes of the two node tensors of ``edge``.

    Each node meets its own environment factor, ``left`` for ``edge[0]``
    and ``right`` for ``edge[1]``, and the two ``(n, k)`` results meet over
    the bond: ``O(n (W0 + W1) k)`` for factor widths ``W0``, ``W1`` and bond
    ``k``, with no merged tensor formed.
    """
    psi = 1.0
    for (u, v), factor in zip((edge, edge[::-1]), (left, right)):
        node = np.moveaxis(model.tensors[u], model.axis_to(u, v), -1)
        psi = psi * (factor @ node.reshape(-1, node.shape[-1]))
    return psi.sum(axis=1)


@single_blas_thread()
def fit(model, batch: np.ndarray, config: TrainConfig) -> TrainReport:
    """Train ``model`` in place on unlabeled data.

    ``batch`` is raw rows ``(n, n_features)``, which the model's encoder
    encodes, or an encoded batch ``(n, n_features, phys_dim)``; raw rows
    train to the bits of ``encode_batch(rows)``. The environment cache
    keeps raw rows only as their unit-interval values and encodes a
    feature leg when it reads it, so training on raw rows holds no
    encoded copy of them.

    ``model`` must be canonical at its center, as ``random``,
    ``load_model`` and ``fit`` itself leave it; its center is moved to
    the sweep start along the path between them. Runs ``config.sweeps``
    full traversals with mini-batches redrawn per step from a generator
    seeded by ``config.seed``; the NLL trace records the full-data loss
    after each sweep, read at the canonical center from the cached
    full-data environments (the value of :func:`nll_loss`, up to rounding).

    Each sweep's batch rows are drawn before the sweep ahead of it runs,
    from the same generator in the same order, so the draws are unchanged.
    The cache is told each sweep's ``(edge, rows)`` pairs
    (:meth:`~tnad.network.Environments.plan`): a message that only one
    more step will read is stored at that step's rows, and one that
    nothing will read is dropped, which trains to the same bits as a
    cache of whole messages. ``TrainReport.cache_peak_bytes`` is the most
    its stored messages held at once.

    Deterministic: the same seed, config, data and numpy/BLAS build give
    the same trained tensors and report (timings aside), bit for bit, at
    any BLAS thread count (see :func:`tnad.tensors.single_blas_thread`).
    """
    batch = model._checked_batch(batch)
    if len(batch) == 0:
        raise DataError("fit needs a non-empty batch")
    report = TrainReport()
    if config.sweeps == 0:
        report.bond_profile = model.bond_profile()
        return report

    model.canonicalize(model.sweep_start())
    model.normalize()
    schedule = model.sweep_schedule()
    rng = np.random.default_rng(config.seed)
    n = len(batch)
    draw_batches = config.batch_size is not None and config.batch_size < n

    def sweep_steps():
        """One sweep's ``(edge, rows)`` pairs, the rows drawn in step order."""
        return [
            (edge, rng.choice(n, size=config.batch_size, replace=False) if draw_batches else None)
            for edge in schedule
        ]

    steps = sweep_steps()
    env = model.environment_cache(batch, plan=steps)
    learning_rate = config.learning_rate

    for sweep in range(config.sweeps):
        started = time.perf_counter()
        discards = []
        # the cache stores a message at the rows of the one step left to
        # read it, which may come in the next sweep
        coming = sweep_steps() if sweep + 1 < config.sweeps else []
        if coming:
            env.plan(coming)
        for edge, rows in steps:
            stats = two_site_step(model, edge, env, rows, learning_rate, config)
            discards.append(stats.discarded_weight)
            report.zero_amplitude_skips += stats.skipped_samples
            for routes, route in ((report.split_routes, stats.split_route),
                                  (report.amplitude_routes, stats.amplitude_route)):
                if route is not None:
                    routes[route] = routes.get(route, 0) + 1
            if stats.error is not None:
                message = f"sweep {sweep}, edge {stats.edge}: {stats.error}"
                logger.warning("two-site step aborted (%s)", message)
                report.step_errors.append(message)
        report.discarded_weights.append(discards)
        report.nll_trace.append(_reported_nll(_log_abs(*env.amplitudes())))
        report.seconds_per_sweep.append(time.perf_counter() - started)
        learning_rate *= config.lr_decay
        steps = coming

    report.bond_profile = model.bond_profile()
    report.cache_peak_bytes = env.peak_bytes
    return report
