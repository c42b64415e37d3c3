"""Quantum-inspired information extraction from trained models.

The reduced density matrix of a feature subset is the model's marginal
over that subset: contract the network with its transpose, leaving the
subset's physical legs open. Because the feature encoding is orthonormal,
marginalizing a feature is a plain index contraction (the integral over
its encodings resolves to the identity), and conditioning fixes a feature
by inserting the rank-1 projector onto its encoded value.

From the (trace-normalized) density matrices this module derives the
induced quasi-probability density and its moments, von Neumann entropies,
mutual information between feature groups, per-feature anomaly flags, and
conditional expected values for flagged features. Every public function
runs under :func:`tnad.tensors.single_blas_thread`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .encoding import gauss_legendre_unit, orthonormal_basis
from .errors import (
    ConditioningError,
    DataError,
    NumericalError,
    ResourceLimitError,
)
from .mps import MpsModel
from .tensors import (
    chain_close,
    chain_march,
    chain_open,
    single_blas_thread,
    tree_down_step,
    tree_join,
    tree_pair_densities,
    tree_up_step,
)
from .ttn import TtnModel

logger = logging.getLogger(__name__)

__all__ = [
    "ReducedDensityMatrix",
    "MarginalStats",
    "FeatureFlag",
    "AnomalyExplanation",
    "MiMatrices",
    "reduced_density_matrix",
    "conditional_rdm",
    "quasi_density",
    "marginal_moments",
    "von_neumann_entropy",
    "mutual_information",
    "all_to_all_mi",
    "flag_features",
    "conditional_expectations",
    "explain_sample",
]

DEFAULT_MAX_SUBSYSTEM_DIM = 256
_MIN_CONDITIONAL_TRACE = 1e-30


@dataclass(frozen=True)
class ReducedDensityMatrix:
    """Trace-normalized, symmetric marginal over a feature subset.

    ``matrix`` has shape ``(N**k, N**k)`` with row/column index running
    row-major over the features in ``sites`` order.
    """

    sites: tuple[int, ...]
    matrix: np.ndarray
    phys_dim: int
    trace_before_normalization: float

    @property
    def n_sites(self) -> int:
        return len(self.sites)


@dataclass(frozen=True)
class MarginalStats:
    """Moments of the normalized quasi-density of a subsystem.

    ``mean``/``std``/``covariance`` live in the rescaled [0, 1] domain;
    ``raw_mean``/``raw_std`` are mapped back through the inverse rescaler
    when one is available.
    """

    sites: tuple[int, ...]
    mean: np.ndarray
    std: np.ndarray
    covariance: np.ndarray
    raw_mean: np.ndarray | None = None
    raw_std: np.ndarray | None = None


@dataclass
class FeatureFlag:
    """Per-feature entry of an anomaly explanation (raw-domain values)."""

    index: int
    observed: float
    mean: float
    std: float
    flagged: bool
    observed_rescaled: float
    mean_rescaled: float
    std_rescaled: float
    conditional_expected: float | None = None


@dataclass
class AnomalyExplanation:
    """Scored sample with per-feature deviation flags and conditionals."""

    sample_id: int
    nll: float
    k_sigma: float
    features: list[FeatureFlag]

    def flagged_indices(self) -> list[int]:
        return [f.index for f in self.features if f.flagged]

    def to_dict(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "nll": self.nll,
            "threshold": self.k_sigma,
            "features": [
                {
                    "index": f.index,
                    "observed": f.observed,
                    "mean": f.mean,
                    "std": f.std,
                    "flagged": f.flagged,
                    "conditional_expected": f.conditional_expected,
                }
                for f in self.features
            ],
        }


class MiMatrices(NamedTuple):
    """All-to-all mutual information: raw values and a display rescaling."""

    raw: np.ndarray
    display: np.ndarray


# ---------------------------------------------------------------------------
# reduced density matrices


def _analysis_copy(model: TtnModel, center: int, conditions=None) -> TtnModel:
    """Copy of the tree with the pad and every condition pinned, canonical at ``center``.

    ``conditions`` maps a feature to its rescaled value. Each pinned
    feature's encoding is absorbed into its leaf and the result placed in
    slot 0 of that leg, so the ordinary identity-trace of the leg
    reproduces the pinned contraction. The dummy feature is pinned like
    this too: the state is only ever evaluated with it at the interval
    midpoint, so for density-matrix work it is a condition, not a
    marginal. Every analysis path can then treat a pinned feature like any
    marginalized one, and the canonical form lets every subtree without an
    open leg contract to the identity.
    """
    pins = dict(conditions or {})
    if model.padding:
        pins[model.padded_features - 1] = 0.5
    work = model.copy()
    for feature, value in pins.items():
        leaf, slot = work.leaf_of_feature(feature)
        tensor = work.tensors[leaf]
        pinned = np.tensordot(tensor, orthonormal_basis(work.phys_dim, value), axes=(slot, 0))
        work.tensors[leaf] = np.zeros_like(tensor)
        np.moveaxis(work.tensors[leaf], slot, 0)[0] = pinned
    work._canonicalize_all(center)
    return work


def _finalize_rdm(rho, sites, requested, phys_dim) -> ReducedDensityMatrix:
    """Symmetrize, reorder open legs to the requested site order, normalize."""
    k = len(sites)
    n = phys_dim
    if tuple(sites) != tuple(requested):
        pos = {s: i for i, s in enumerate(sites)}
        perm = [pos[s] for s in requested]
        tensor = rho.reshape((n,) * (2 * k))
        tensor = np.transpose(tensor, perm + [k + p for p in perm])
        rho = tensor.reshape(n**k, n**k)
    rho = 0.5 * (rho + rho.T)
    trace = float(np.trace(rho))
    if trace < _MIN_CONDITIONAL_TRACE:
        raise ConditioningError(
            f"density matrix trace {trace:.3e} is below {_MIN_CONDITIONAL_TRACE:.0e}; "
            "the conditioning values are (near-)impossible under the model"
        )
    return ReducedDensityMatrix(
        sites=tuple(requested),
        matrix=rho / trace,
        phys_dim=n,
        trace_before_normalization=trace,
    )


def _identity_object(bond: int) -> np.ndarray:
    """Two-sided object with no open legs: the identity on one bond."""
    return np.eye(bond).reshape(bond, 1, 1, bond)


def _mps_rdm(model: MpsModel, targets, conditions) -> ReducedDensityMatrix:
    n = model.phys_dim
    targets_sorted = tuple(sorted(targets))
    involved = sorted(set(targets_sorted) | set(conditions))
    work = model.copy()
    work.canonicalize(involved[0])

    marching = _identity_object(work.cores[involved[0]].shape[0])
    for site in range(involved[0], involved[-1] + 1):
        core = work.cores[site]
        if site in targets_sorted:
            marching = chain_open(marching, core)
        elif site in conditions:
            pinned = orthonormal_basis(n, conditions[site]) @ core
            marching = chain_march(marching, pinned[:, None, :])
        else:
            marching = chain_march(marching, core)
    rho = np.trace(marching, axis1=0, axis2=3)
    return _finalize_rdm(rho, targets_sorted, targets, n)


def _ttn_rdm(work: TtnModel, targets) -> ReducedDensityMatrix:
    """Density matrix of ``targets`` on a pinned copy canonical at their common ancestor.

    One bottom-up pass from the leaves to that ancestor, the canonical
    center: a target leg is the open identity, a leg without targets below
    it the bond identity, and a node without targets below it has no
    object. Each node below the center joins the two-sided objects of its
    lower legs (:func:`tree_join`); the center closes them, since the rest
    of the tree contracts to the identity on its parent bond.
    """
    n = work.phys_dim
    open_leg = np.multiply.outer(np.eye(n), np.eye(n))
    up: dict[int, tuple[np.ndarray, list[int]]] = {}
    for u in reversed(range(work.center, work.n_nodes)):
        node = _parent_first(work, u)
        if work.children[u] is None:
            sides = [(open_leg, [f]) if f in targets else None for f in work.leaf_features[u]]
        else:
            sides = [up.pop(c, None) for c in work.children[u]]
        if not any(sides):
            continue
        (obj0, feats0), (obj1, feats1) = (
            side or (_identity_object(node.shape[1 + leg]), []) for leg, side in enumerate(sides)
        )
        if u == work.center:
            rho = tree_pair_densities(obj0[:, None], np.eye(node.shape[0]), node, obj1[:, None])
            return _finalize_rdm(rho[0, 0], tuple(feats0 + feats1), targets, n)
        up[u] = (tree_join(obj0, obj1, node), feats0 + feats1)


def _common_ancestor(model: TtnModel, features) -> int:
    """Lowest node whose subtree holds every given feature (parents precede children)."""
    leaves = [model.leaf_of_feature(f)[0] for f in features]
    anchor = leaves[0]
    for leaf in leaves[1:]:
        while anchor != leaf:
            if anchor > leaf:
                anchor = model.parents[anchor]
            else:
                leaf = model.parents[leaf]
    return anchor


def _rdm(model, targets, conditions) -> ReducedDensityMatrix:
    """Density matrix of ``targets`` with ``conditions`` pinned, for either model kind."""
    if isinstance(model, MpsModel):
        return _mps_rdm(model, targets, conditions)
    if isinstance(model, TtnModel):
        center = _common_ancestor(model, targets)
        return _ttn_rdm(_analysis_copy(model, center, conditions), targets)
    raise DataError(f"unsupported model type {type(model).__name__}")


def _check_subsystem(model, sites, max_dim) -> None:
    if len(sites) == 0:
        raise DataError("subsystem must contain at least one feature")
    if len(set(sites)) != len(sites):
        raise DataError(f"duplicate feature in subsystem {sites}")
    for s in sites:
        if not 0 <= s < model.n_features:
            raise DataError(f"feature {s} out of range (model has {model.n_features})")
    if model.phys_dim ** len(sites) > max_dim:
        raise ResourceLimitError(
            f"subsystem of {len(sites)} features needs matrices of extent "
            f"{model.phys_dim ** len(sites)} > budget {max_dim}"
        )


@single_blas_thread()
def reduced_density_matrix(
    model, sites, max_dim: int = DEFAULT_MAX_SUBSYSTEM_DIM
) -> ReducedDensityMatrix:
    """Marginal density matrix of the model over the given features.

    The model's canonical structure lets everything outside the subsystem
    contract to the identity; gaps between non-adjacent features are
    bridged by identity-resolved transfer contractions. Operates on an
    internal copy; the model is not modified.
    """
    sites = tuple(int(s) for s in sites)
    _check_subsystem(model, sites, max_dim)
    return _rdm(model, sites, {})


@single_blas_thread()
def conditional_rdm(
    model, target_sites, conditions, max_dim: int = DEFAULT_MAX_SUBSYSTEM_DIM
) -> ReducedDensityMatrix:
    """Density matrix over ``target_sites`` with other features pinned.

    ``conditions`` maps feature index to its rescaled value in [0, 1]; the
    projector onto that value's encoding is inserted at the feature during
    contraction. Raises :class:`ConditioningError` when the conditioned
    configuration has (near-)zero probability under the model.
    """
    target_sites = tuple(int(s) for s in target_sites)
    conditions = {int(s): float(v) for s, v in conditions.items()}
    _check_subsystem(model, target_sites, max_dim)
    overlap = set(target_sites) & set(conditions)
    if overlap:
        raise DataError(f"features {sorted(overlap)} are both targets and conditions")
    for s, v in conditions.items():
        if not 0 <= s < model.n_features:
            raise DataError(f"condition feature {s} out of range (model has {model.n_features})")
        if not 0.0 <= v <= 1.0:
            raise DataError(f"condition value {v} for feature {s} outside [0, 1]")
    return _rdm(model, target_sites, conditions)


# ---------------------------------------------------------------------------
# quasi-density, moments, entropies


def _density_on_grid(rdm: ReducedDensityMatrix, axes_points) -> np.ndarray:
    """Quasi-density evaluated on a tensor grid (one point array per site)."""
    basis = np.ones((1, 1))  # row per grid point, column per basis product
    for pts in axes_points:
        basis = np.kron(basis, orthonormal_basis(rdm.phys_dim, pts).T)
    values = ((basis @ rdm.matrix) * basis).sum(axis=1)
    return values.reshape([len(pts) for pts in axes_points])


def _quadrature(rdm: ReducedDensityMatrix):
    """Gauss-Legendre nodes and the weighted unnormalized density on their tensor grid."""
    nodes, weights = gauss_legendre_unit(2 * rdm.phys_dim)
    w = weights
    for _ in range(rdm.n_sites - 1):
        w = np.multiply.outer(w, weights)
    return nodes, w * _density_on_grid(rdm, [nodes] * rdm.n_sites)


@single_blas_thread()
def quasi_density(rdm: ReducedDensityMatrix, point) -> float:
    """Normalized quasi-probability density at a rescaled-domain point.

    The normalizer is the Gauss-Legendre quadrature integral of the
    unnormalized density over the unit cube, which the node count makes
    exact for the polynomial integrand.
    """
    point = np.atleast_1d(np.asarray(point, dtype=np.float64))
    if point.shape != (rdm.n_sites,):
        raise DataError(f"point has shape {point.shape}, expected ({rdm.n_sites},)")
    if np.any(point < 0.0) or np.any(point > 1.0):
        raise DataError("quasi-density points live in the rescaled domain [0, 1]")
    _, wq = _quadrature(rdm)
    total = float(wq.sum())
    return _density_on_grid(rdm, point[:, None]).item() / total


@single_blas_thread()
def marginal_moments(rdm: ReducedDensityMatrix, rescaler=None, max_sites: int = 3) -> MarginalStats:
    """Mean, variance, and covariance of the normalized quasi-density.

    Uses a Gauss-Legendre tensor grid with ``2 * phys_dim`` nodes per axis,
    which integrates the polynomial integrands exactly. ``rescaler`` maps
    the moments back to the raw feature domain.
    """
    if rdm.n_sites > max_sites:
        raise ResourceLimitError(
            f"moments over {rdm.n_sites} features exceed the {max_sites}-site grid budget"
        )
    nodes, wq = _quadrature(rdm)
    k = rdm.n_sites
    total = float(wq.sum())
    coords = np.meshgrid(*([nodes] * k), indexing="ij")
    mean = np.array([float((wq * c).sum()) / total for c in coords])
    second = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            second[i, j] = float((wq * coords[i] * coords[j]).sum()) / total
    covariance = second - np.outer(mean, mean)
    covariance = 0.5 * (covariance + covariance.T)
    std = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    raw_mean = raw_std = None
    if rescaler is not None:
        span = np.array(
            [rescaler.maximum[s] - rescaler.minimum[s] for s in rdm.sites]
        )
        raw_mean = np.array(
            [rescaler.inverse_value(s, m) for s, m in zip(rdm.sites, mean)]
        )
        raw_std = std * span
    return MarginalStats(rdm.sites, mean, std, covariance, raw_mean, raw_std)


@single_blas_thread()
def von_neumann_entropy(rdm) -> float:
    """Entropy ``-sum(lam * log(lam))`` over the density matrix spectrum.

    Natural logarithm; eigenvalues below 1e-14 are dropped, small negative
    eigenvalues (>= -1e-10) are treated as zero, and anything more negative
    raises :class:`NumericalError`.
    """
    matrix = rdm.matrix if isinstance(rdm, ReducedDensityMatrix) else np.asarray(rdm, float)
    eigenvalues = np.linalg.eigvalsh(matrix)
    if eigenvalues.min() < -1e-10:
        raise NumericalError(
            f"density matrix has eigenvalue {eigenvalues.min():.3e} < -1e-10"
        )
    lam = eigenvalues[eigenvalues > 1e-14]
    return max(float(-(lam * np.log(lam)).sum()), 0.0)


@single_blas_thread()
def mutual_information(model, sites_x, sites_y, max_dim: int = DEFAULT_MAX_SUBSYSTEM_DIM) -> float:
    """Mutual information ``S(X) + S(Y) - S(XY)`` between feature groups."""
    sites_x = tuple(int(s) for s in sites_x)
    sites_y = tuple(int(s) for s in sites_y)
    if set(sites_x) & set(sites_y):
        raise DataError("mutual information needs disjoint feature groups")
    s_x = von_neumann_entropy(reduced_density_matrix(model, sites_x, max_dim))
    s_y = von_neumann_entropy(reduced_density_matrix(model, sites_y, max_dim))
    s_xy = von_neumann_entropy(
        reduced_density_matrix(model, tuple(sorted(sites_x + sites_y)), max_dim)
    )
    return s_x + s_y - s_xy


# ---------------------------------------------------------------------------
# all-to-all mutual information (single-site pairs, structure-aware paths)


def _unit_density(rho: np.ndarray) -> np.ndarray:
    """Symmetrized, trace-normalized copy of a density matrix."""
    rho = 0.5 * (rho + rho.T)
    return rho / np.trace(rho)


def _mps_single_and_pair_entropies(model: MpsModel):
    work = model.copy()
    length = model.n_sites
    pair_entropy = np.zeros((length, length))
    single_entropy = np.zeros(length)
    for i in range(length):
        work.canonicalize(i)
        core = work.cores[i]
        start = _identity_object(core.shape[0])
        single_entropy[i] = von_neumann_entropy(_unit_density(chain_close(start, core)))
        # march a two-open-leg object to every j > i; sites between are
        # marginalized, sites right of j close to the identity
        obj = chain_open(start, core)
        for j in range(i + 1, length):
            other = work.cores[j]
            pair_entropy[i, j] = von_neumann_entropy(_unit_density(chain_close(obj, other)))
            if j < length - 1:
                obj = chain_march(obj, other)
    return single_entropy, pair_entropy


def _ttn_bond_densities(work: TtnModel):
    """Density on every node's parent bond and every feature's leg.

    ``work`` must be canonical at the root. Returns ``(down, singles)``:
    ``down[u]`` is the rest of the tree seen from node ``u``'s parent bond,
    ``(d, D)``, and ``singles[f]`` the unnormalized density of padded-domain
    feature ``f``.
    """
    down = {0: np.ones((1, 1))}
    singles: dict[int, np.ndarray] = {}
    for u in range(work.n_nodes):  # parents come before their children
        left, right = tree_down_step(down[u], _parent_first(work, u))
        if work.children[u] is None:
            f0, f1 = work.leaf_features[u]
            singles[f0], singles[f1] = left, right
        else:
            c0, c1 = work.children[u]
            down[c0], down[c1] = left, right
    return down, singles


def _parent_first(work: TtnModel, u: int) -> np.ndarray:
    """Node tensor as ``(parent bond, first lower leg, second lower leg)``."""
    t = work.tensors[u]
    return t[None] if work.parents[u] < 0 else t


def _ttn_single_and_pair_entropies(model: TtnModel):
    work = _analysis_copy(model, 0)
    n = work.phys_dim
    length = work.n_features
    down, singles = _ttn_bond_densities(work)
    single_entropy = np.array(
        [von_neumann_entropy(_unit_density(singles[f])) for f in range(length)]
    )

    # bottom-up: at each node, every pair split between its two lower legs
    # closes against the node; then the one-feature messages of both legs,
    # stacked, move up to the parent bond, (bond, features, p, pbar, bondbar)
    identity = np.multiply.outer(np.eye(n), np.eye(n)).reshape(n, 1, n, n, n)
    up: dict[int, tuple[list[int], np.ndarray]] = {}
    pair_entropy = np.zeros((length, length))
    for u in reversed(range(work.n_nodes)):
        node = _parent_first(work, u)
        if work.children[u] is None:
            # a leaf's features are its lower legs; the pad has no message
            sides = [([f], identity) if f < length else ([], identity[:, :0])
                     for f in work.leaf_features[u]]
        else:
            sides = [up.pop(c) for c in work.children[u]]
        (left_feats, left), (right_feats, right) = sides
        if left_feats and right_feats:
            # in-order leaf layout puts the smaller feature on the left leg
            rho = tree_pair_densities(left, down[u], node, right)
            for a, fi in enumerate(left_feats):
                for b, fj in enumerate(right_feats):
                    pair_entropy[fi, fj] = von_neumann_entropy(_unit_density(rho[a, b]))
        if u != 0:
            up[u] = (left_feats + right_feats, np.concatenate(
                [tree_up_step(left, node, 0), tree_up_step(right, node, 1)], axis=1
            ))
    return single_entropy, pair_entropy


@single_blas_thread()
def all_to_all_mi(model) -> MiMatrices:
    """Mutual information between every pair of single features.

    Returns the raw matrix (symmetric, zero diagonal) and a display variant
    rescaled to [0, 1] by the largest off-diagonal entry.
    """
    if isinstance(model, MpsModel):
        single, pair = _mps_single_and_pair_entropies(model)
    elif isinstance(model, TtnModel):
        single, pair = _ttn_single_and_pair_entropies(model)
    else:
        raise DataError(f"unsupported model type {type(model).__name__}")
    length = len(single)
    raw = np.zeros((length, length))
    for i in range(length):
        for j in range(i + 1, length):
            value = single[i] + single[j] - pair[i, j]
            raw[i, j] = raw[j, i] = value
    peak = raw.max()
    # below 1e-12 nats everything is rounding noise, not structure
    display = raw / peak if peak > 1e-12 else np.zeros_like(raw)
    np.fill_diagonal(display, 0.0)
    return MiMatrices(raw=raw, display=display)


# ---------------------------------------------------------------------------
# per-sample explanations


def _single_site_rdms(model) -> list[np.ndarray]:
    """All single-feature density matrices, via the cheap structured paths."""
    if isinstance(model, MpsModel):
        work = model.copy()
        out = []
        for i in range(model.n_sites):
            work.canonicalize(i)
            core = work.cores[i]
            out.append(_unit_density(chain_close(_identity_object(core.shape[0]), core)))
        return out
    if isinstance(model, TtnModel):
        work = _analysis_copy(model, 0)
        _, singles = _ttn_bond_densities(work)
        return [_unit_density(singles[f]) for f in range(work.n_features)]
    raise DataError(f"unsupported model type {type(model).__name__}")


def _require_encoder(model):
    if model.encoder is None or model.encoder.rescaler is None:
        raise DataError("model carries no fitted feature map; attach one via model.encoder")
    return model.encoder


@single_blas_thread()
def flag_features(model, raw_sample, k_sigma: float = 1.0) -> AnomalyExplanation:
    """Score a sample and flag features deviating from their learned marginal.

    A feature is flagged when its rescaled value is more than ``k_sigma``
    expected standard deviations away from the expected value of the
    model's single-feature marginal. Choosing ``k_sigma`` is task and
    domain dependent; 1.0 is a sensible starting point, not a rule.
    """
    if k_sigma <= 0:
        raise DataError(f"k_sigma must be positive, got {k_sigma}")
    encoder = _require_encoder(model)
    raw = np.asarray(raw_sample, dtype=np.float64)
    encoded = encoder.encode_sample(raw)
    log_abs, _ = model.log_amplitude(encoded)
    nll = float(-2.0 * log_abs)
    rescaled = encoder.rescaler.transform(raw)

    flags = []
    for i, rho in enumerate(_single_site_rdms(model)):
        rdm = ReducedDensityMatrix((i,), rho, model.phys_dim, 1.0)
        stats = marginal_moments(rdm, encoder.rescaler)
        deviation = abs(float(rescaled[i]) - float(stats.mean[0]))
        flags.append(
            FeatureFlag(
                index=i,
                observed=float(raw[i]),
                mean=float(stats.raw_mean[0]),
                std=float(stats.raw_std[0]),
                flagged=bool(deviation > k_sigma * float(stats.std[0])),
                observed_rescaled=float(rescaled[i]),
                mean_rescaled=float(stats.mean[0]),
                std_rescaled=float(stats.std[0]),
            )
        )
    return AnomalyExplanation(sample_id=0, nll=nll, k_sigma=k_sigma, features=flags)


@single_blas_thread()
def conditional_expectations(model, raw_sample, flagged) -> dict[int, float | None]:
    """Expected raw value of each flagged feature, conditioned on the rest.

    All unflagged features are pinned to their observed (rescaled) values
    and the mean of the resulting conditional marginal is mapped back to
    the raw domain. A feature whose conditioning fails (impossible
    configuration under the model) maps to None; the others are still
    returned. The conditional expectation may legitimately fall outside
    the feature's marginal one-sigma band; no adjustment is applied.
    """
    encoder = _require_encoder(model)
    raw = np.asarray(raw_sample, dtype=np.float64)
    rescaled = encoder.rescaler.transform(raw)
    flagged = sorted(int(f) for f in flagged)
    if not flagged:
        raise DataError("conditional expectations need at least one flagged feature")
    conditions_all = {
        i: float(rescaled[i]) for i in range(len(raw)) if i not in set(flagged)
    }
    out: dict[int, float | None] = {}
    for f in flagged:
        try:
            rdm = conditional_rdm(model, (f,), conditions_all)
            stats = marginal_moments(rdm, encoder.rescaler)
            out[f] = float(stats.raw_mean[0])
        except ConditioningError as exc:
            logger.warning("conditioning failed for feature %d: %s", f, exc)
            out[f] = None
    return out


@single_blas_thread()
def explain_sample(
    model,
    raw_sample,
    k_sigma: float = 1.0,
    sample_id: int = 0,
    with_conditionals: bool = True,
) -> AnomalyExplanation:
    """Full per-sample report: score, flags, and conditional expectations."""
    explanation = flag_features(model, raw_sample, k_sigma)
    explanation.sample_id = sample_id
    flagged = explanation.flagged_indices()
    if with_conditionals and flagged:
        expected = conditional_expectations(model, raw_sample, flagged)
        for feature in explanation.features:
            if feature.index in expected:
                feature.conditional_expected = expected[feature.index]
    return explanation
