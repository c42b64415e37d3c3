"""Quantum-inspired information extraction from trained models.

The reduced density matrix of a feature subset is the model's marginal
over that subset: contract the network with its transpose, leaving the
subset's physical legs open. Because the feature encoding is orthonormal,
marginalizing a feature is a plain index contraction (the integral over
its encodings resolves to the identity), and conditioning fixes a feature
by absorbing its encoded value into the feature's node on the fly.

Both model kinds run the same code. Rooted at node 0, an MPS is a tree
whose nodes each carry one feature leg, each stored as ``(up, in0,
in1)``, so one bottom-up pass gives any density matrix, and one down and
one up pass give every single-feature density and all-to-all mutual
information.

From the (trace-normalized) density matrices this module derives the
moments of each single-feature marginal, von Neumann entropies, mutual
information between feature groups, per-feature anomaly flags, and
conditional expected values for flagged features. Every public function
runs under :func:`tnad.tensors.single_blas_thread`.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .encoding import gauss_legendre_unit, orthonormal_basis
from .errors import (
    ConditioningError,
    DataError,
    NumericalError,
    ResourceLimitError,
)
from .metrics import mi_display
from .network import PAD_VALUE
from .tensors import (
    single_blas_thread,
    tree_down_step,
    tree_join,
    tree_pair_densities,
    tree_up_step,
)

logger = logging.getLogger(__name__)

__all__ = [
    "ReducedDensityMatrix",
    "MarginalStats",
    "FeatureFlag",
    "AnomalyExplanation",
    "MiMatrices",
    "reduced_density_matrix",
    "conditional_rdm",
    "marginal_moments",
    "von_neumann_entropy",
    "mutual_information",
    "all_to_all_mi",
    "flag_features",
    "conditional_expectations",
    "explain_sample",
]

# largest density-matrix extent phys_dim ** n_sites a subsystem may have
MAX_SUBSYSTEM_DIM = 256
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

    @property
    def n_sites(self) -> int:
        return len(self.sites)


@dataclass(frozen=True)
class MarginalStats:
    """Moments of one feature's normalized quasi-density.

    ``mean``/``std`` live in the rescaled [0, 1] domain;
    ``raw_mean``/``raw_std`` are mapped back to the raw domain.
    """

    feature: int
    mean: float
    std: float
    raw_mean: float
    raw_std: float


@dataclass
class FeatureFlag:
    """One feature's entry of ``tnad explain``'s JSON: its fields are the
    entry's keys, in order, and ``asdict`` gives the entry.

    ``observed``, ``mean`` and ``std`` are raw-domain values; the moments are
    those of the feature's learned marginal. ``conditional_expected`` is the
    raw expected value given the other features, set for flagged features
    when conditionals are computed, or None.
    """

    index: int
    observed: float
    mean: float
    std: float
    flagged: bool
    conditional_expected: float | None = None


@dataclass
class AnomalyExplanation:
    """Scored sample with per-feature deviation flags and conditionals.

    :meth:`to_dict` is ``tnad explain``'s JSON: ``sample_id``, ``nll``
    (null when the sample's amplitude vanishes, where the NLL is infinite),
    ``threshold`` (``k_sigma``) and one :class:`FeatureFlag` per feature.
    """

    sample_id: int
    nll: float
    k_sigma: float
    features: list[FeatureFlag]

    def flagged_indices(self) -> list[int]:
        return [f.index for f in self.features if f.flagged]

    def to_dict(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "nll": self.nll if math.isfinite(self.nll) else None,
            "threshold": self.k_sigma,
            "features": [asdict(f) for f in self.features],
        }


class MiMatrices(NamedTuple):
    """All-to-all mutual information: raw values and a display rescaling."""

    raw: np.ndarray
    display: np.ndarray


# ---------------------------------------------------------------------------
# reduced density matrices


def _feature_axes(model) -> dict[int, tuple[int, int]]:
    """Node and tensor axis of every feature leg, dummy features included."""
    return {
        ref: (u, ax)
        for u in range(model.n_nodes)
        for ax, (kind, ref) in enumerate(model.axis_spec(u))
        if kind == "phys"
    }


def _common_ancestor(model, nodes) -> int:
    """Lowest node, rooted at node 0, whose subtree holds every given node.

    In pre-order each subtree's ids are contiguous, so this is the first
    ancestor of the largest id whose id is at most the smallest.
    """
    low, high = min(nodes), max(nodes)
    while high > low:
        high = model.parents[high]
    return high


def _pin(tensor: np.ndarray, axis: int, encoding: np.ndarray) -> np.ndarray:
    """Contract the feature leg at ``axis`` with ``encoding``, keeping it as a leg of extent 1."""
    shape = tensor.shape
    pinned = encoding @ tensor.reshape(math.prod(shape[:axis]), shape[axis], -1)
    return pinned.reshape(shape[:axis] + (1,) + shape[axis + 1 :])


def _analysis_copy(model, center: int):
    """Copy of the model with its dummy features pinned, canonical at ``center``:
    the one working copy every density pass starts from.

    The state is only ever evaluated with a dummy feature at
    :data:`~tnad.network.PAD_VALUE`, so for density-matrix work it is a
    condition, not a marginal. Its encoding is absorbed into its node
    (:func:`_pin`) while the canonical center sits there, which leaves
    every other node an isometry toward it; then the center moves on by QR
    steps along the path (:meth:`~tnad.network.TensorNetwork.canonicalize`).
    The pinned leg keeps extent 1, and the canonical form lets every
    subtree without an open leg contract to the identity.
    """
    work = model.copy()
    where = _feature_axes(work)
    for feature in range(work.n_features, work.n_features + work.padding):
        u, axis = where[feature]
        work.canonicalize(u)
        work.tensors[u] = _pin(work.tensors[u], axis, orthonormal_basis(work.phys_dim, PAD_VALUE))
    work.canonicalize(center)
    return work


def _finalize_rdm(rho, sites, requested, n) -> ReducedDensityMatrix:
    """Reorder open legs to the requested site order, refuse a vanishing
    trace, then symmetrize and normalize (:func:`_unit_density`)."""
    k = len(sites)
    if tuple(sites) != tuple(requested):
        pos = {s: i for i, s in enumerate(sites)}
        perm = [pos[s] for s in requested]
        tensor = rho.reshape((n,) * (2 * k))
        tensor = np.transpose(tensor, perm + [k + p for p in perm])
        rho = tensor.reshape(n**k, n**k)
    trace = float(np.trace(rho))  # symmetrizing keeps the diagonal
    if trace < _MIN_CONDITIONAL_TRACE:
        raise ConditioningError(
            f"density matrix trace {trace:.3e} is below {_MIN_CONDITIONAL_TRACE:.0e}; "
            "the conditioning values are (near-)impossible under the model"
        )
    return ReducedDensityMatrix(sites=tuple(requested), matrix=_unit_density(rho), phys_dim=n)


def _identity_object(bond: int) -> np.ndarray:
    """Two-sided object with no open legs: the identity on one bond."""
    return np.eye(bond).reshape(bond, 1, 1, bond)


def _rdm(model, targets, conditions) -> ReducedDensityMatrix:
    """Density matrix of ``targets`` with ``conditions`` pinned, for either model kind.

    The pass runs on the working copy (:func:`_analysis_copy`, dummy
    features already pinned) canonical at the common ancestor of the
    targets and conditions: one bottom-up pass over the nodes' in-legs,
    from the last node to it. At each node a child bond gives its
    two-sided object, or the bond identity if it has none; a target leg is
    the open identity; a condition leg is absorbed into the node
    (:func:`_pin`) and its extent-1 leg is the identity; so is any other
    leg. A node with an object or a condition joins them
    (:func:`tree_join`), the center too; the center's join is then traced
    over its up bond, since the rest of the network is an isometry toward
    it.
    """
    n = model.phys_dim
    values = np.array(list(conditions.values()), float)
    encodings = dict(zip(conditions, orthonormal_basis(n, values).T))
    where = _feature_axes(model)
    center = _common_ancestor(model, [where[f][0] for f in (*targets, *conditions)])
    work = _analysis_copy(model, center)
    open_leg = np.multiply.outer(np.eye(n), np.eye(n))
    up: dict[int, tuple[np.ndarray, list[int]]] = {}
    for u in reversed(range(center, work.n_nodes)):
        node = work.tensors[u]
        sides = []
        for leg, (kind, ref) in enumerate(work.axis_spec(u)[1:]):
            side = up.pop(ref, None) if kind == "bond" else None
            if kind == "phys" and ref in targets:
                side = (open_leg, [ref])
            elif kind == "phys" and ref in conditions:
                node = _pin(node, 1 + leg, encodings[ref])
                side = (_identity_object(1), [])
            sides.append(side)
        if not any(sides):
            continue
        (obj0, feats0), (obj1, feats1) = (
            side or (_identity_object(node.shape[1 + leg]), []) for leg, side in enumerate(sides)
        )
        up[u] = (tree_join(obj0, obj1, node), feats0 + feats1)
    joined, feats = up[center]
    return _finalize_rdm(np.trace(joined, axis1=0, axis2=3), tuple(feats), targets, n)


def _check_subsystem(model, sites) -> None:
    if len(sites) == 0:
        raise DataError("subsystem must contain at least one feature")
    if len(set(sites)) != len(sites):
        raise DataError(f"duplicate feature in subsystem {sites}")
    for s in sites:
        if not 0 <= s < model.n_features:
            raise DataError(f"feature {s} out of range (model has {model.n_features})")
    if model.phys_dim ** len(sites) > MAX_SUBSYSTEM_DIM:
        raise ResourceLimitError(
            f"subsystem of {len(sites)} features needs matrices of extent "
            f"{model.phys_dim ** len(sites)} > budget {MAX_SUBSYSTEM_DIM}"
        )


def reduced_density_matrix(model, sites) -> ReducedDensityMatrix:
    """Marginal density matrix of the model over the given features.

    The model's canonical structure lets everything outside the subsystem
    contract to the identity, so only the nodes between the features and
    their common ancestor are contracted: this is :func:`conditional_rdm`
    with no conditions. Operates on an internal copy; the model is not
    modified.
    """
    return conditional_rdm(model, sites, {})


@single_blas_thread()
def conditional_rdm(model, target_sites, conditions) -> ReducedDensityMatrix:
    """Density matrix over ``target_sites`` with other features pinned.

    ``conditions`` maps feature index to its rescaled value in [0, 1]; the
    projector onto that value's encoding is inserted at the feature during
    contraction. Raises :class:`ConditioningError` when the conditioned
    configuration has (near-)zero probability under the model.
    """
    target_sites = tuple(map(operator.index, target_sites))
    conditions = {operator.index(s): float(v) for s, v in conditions.items()}
    _check_subsystem(model, target_sites)
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
# moments, entropies


@single_blas_thread()
def marginal_moments(rdm: ReducedDensityMatrix, rescaler) -> MarginalStats:
    """Mean and standard deviation of one feature's normalized quasi-density.

    Integrates ``phi(x)^T rho phi(x)`` by Gauss-Legendre quadrature with
    ``2 * phys_dim`` nodes, which is exact for these polynomial
    integrands, and divides by its total. ``rescaler`` maps the moments
    back to the raw feature domain. A density over any other number of
    features, one whose total is not finite and positive, or one of a
    feature the rescaler does not cover is refused with :class:`DataError`.
    """
    if rdm.n_sites != 1:
        raise DataError(f"moments need one feature's density, got features {rdm.sites}")
    (feature,) = rdm.sites
    if not 0 <= feature < rescaler.n_features:
        raise DataError(f"feature {feature} is outside the rescaler's "
                        f"{rescaler.n_features} features")
    nodes, weights = gauss_legendre_unit(2 * rdm.phys_dim)
    # one C-ordered row per node: a product's rounding depends on its operands' layout
    basis = np.ascontiguousarray(orthonormal_basis(rdm.phys_dim, nodes).T)
    wq = weights * ((basis @ rdm.matrix) * basis).sum(axis=1)
    total = float(wq.sum())
    if not 0.0 < total < math.inf:
        raise DataError(f"density of feature {feature} integrates to {total}, "
                        "not to a finite positive total")
    mean = float((wq * nodes).sum()) / total
    variance = float((wq * nodes * nodes).sum()) / total - mean * mean
    std = math.sqrt(max(variance, 0.0))
    low = rescaler.minimum[feature]
    span = rescaler.maximum[feature] - low
    return MarginalStats(feature, mean, std, float(low + mean * span), float(std * span))


@single_blas_thread()
def von_neumann_entropy(rdm) -> float | np.ndarray:
    """Entropy ``-sum(lam * log(lam))`` over the density matrix spectrum.

    ``rdm`` is one density matrix ``(n, n)``, or a
    :class:`ReducedDensityMatrix`, whose entropy is a float, or a stack
    ``(..., n, n)`` of them, whose entropies come back as an array
    ``(...)``, each the bits of its own matrix's call. Natural logarithm;
    eigenvalues below 1e-14 are dropped, small negative eigenvalues (>=
    -1e-10) are treated as zero, and anything more negative raises
    :class:`NumericalError`. A matrix that cannot be a density, one empty
    or not square, holding a NaN or infinity, or off symmetric by more
    than 1e-10 in some entry, raises :class:`DataError`. A stack runs every
    check on every matrix and fails as its first failing check would.
    """
    matrix = rdm.matrix if isinstance(rdm, ReducedDensityMatrix) else np.asarray(rdm, float)
    if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2] or not matrix.size:
        raise DataError(f"a density matrix must be square and not empty, got shape {matrix.shape}")
    # the difference is antisymmetric, so its max is its largest magnitude;
    # a NaN or infinity anywhere leaves that NaN or infinite
    with np.errstate(invalid="ignore"):
        asymmetry = (matrix - matrix.swapaxes(-1, -2)).max()
    if not asymmetry <= 1e-10:
        if not np.isfinite(matrix).all():
            raise DataError("density matrix holds a non-finite entry")
        raise DataError(f"density matrix is not symmetric: entries differ by {asymmetry:.3e}")
    eigenvalues = np.linalg.eigvalsh(matrix)
    if eigenvalues.min() < -1e-10:
        raise NumericalError(
            f"density matrix has eigenvalue {eigenvalues.min():.3e} < -1e-10"
        )
    # a dropped eigenvalue becomes 1, whose term is exactly 0
    lam = np.where(eigenvalues > 1e-14, eigenvalues, 1.0)
    entropy = np.maximum(-(lam * np.log(lam)).sum(axis=-1), 0.0)
    return float(entropy) if matrix.ndim == 2 else entropy


@single_blas_thread()
def mutual_information(model, sites_x, sites_y) -> float:
    """Mutual information ``S(X) + S(Y) - S(XY)`` between feature groups."""
    sites_x = tuple(map(operator.index, sites_x))
    sites_y = tuple(map(operator.index, sites_y))
    if set(sites_x) & set(sites_y):
        raise DataError("mutual information needs disjoint feature groups")
    s_x = von_neumann_entropy(reduced_density_matrix(model, sites_x))
    s_y = von_neumann_entropy(reduced_density_matrix(model, sites_y))
    s_xy = von_neumann_entropy(reduced_density_matrix(model, tuple(sorted(sites_x + sites_y))))
    return s_x + s_y - s_xy


# ---------------------------------------------------------------------------
# all-to-all mutual information (single-site pairs, structure-aware paths)


def _unit_density(rho: np.ndarray) -> np.ndarray:
    """Symmetrized, trace-normalized copy of a density matrix, or of each of a stack."""
    rho = 0.5 * (rho + rho.swapaxes(-1, -2))
    return rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None]


def _bond_densities(work):
    """Density on every node's up bond and every feature's leg.

    ``work`` must be canonical at node 0. Returns ``(down, singles)``:
    ``down[u]`` is the rest of the network seen from node ``u``'s up bond,
    ``(d, D)``, and ``singles[f]`` the unnormalized density of feature
    ``f``, dummy features included.
    """
    down = {0: np.ones((1, 1))}
    singles: dict[int, np.ndarray] = {}
    for u in range(work.n_nodes):  # parents come before their children
        node, legs = work.tensors[u], work.axis_spec(u)[1:]
        for (kind, ref), density in zip(legs, tree_down_step(down[u], node)):
            (down if kind == "bond" else singles)[ref] = density
    return down, singles


def _messages_up(left: np.ndarray, right: np.ndarray, node: np.ndarray) -> np.ndarray:
    """Both in-legs' one-feature messages moved to ``node``'s up bond, in one stack.

    Each feature is marched on its own (:func:`tree_up_step`) and written
    into a preallocated stack, which keeps the temporaries one message in
    size.
    """
    d, f0 = node.shape[0], left.shape[1]
    out = np.empty((d, f0 + right.shape[1]) + left.shape[2:4] + (d,))
    for leg, stack, offset in ((0, left, 0), (1, right, f0)):
        for a in range(stack.shape[1]):
            out[:, offset + a] = tree_up_step(stack[:, a], node, leg)
    return out


def _pairwise_mi(model) -> np.ndarray:
    """Mutual information of every pair of single features, in one down and one up pass.

    The up pass closes, at each node, every pair split between its two
    in-legs against the node and prices each left feature's row of pairs
    with one stacked :func:`von_neumann_entropy`; then the one-feature
    messages of both legs, stacked, move up to the node's up bond as
    ``(bond, features, p, pbar, bondbar)``. Pre-order puts the smaller
    features on the first in-leg.
    """
    work = _analysis_copy(model, 0)
    n = work.phys_dim
    length = work.n_features
    down, singles = _bond_densities(work)
    single = np.array([von_neumann_entropy(_unit_density(singles[f])) for f in range(length)])
    identity = np.multiply.outer(np.eye(n), np.eye(n)).reshape(n, 1, n, n, n)
    # no messages on a leg of extent 1: a pinned dummy feature, or a bond
    # without a node behind it
    empty = np.zeros((1, 0, n, n, 1))
    up: dict[int, tuple[list[int], np.ndarray]] = {}
    raw = np.zeros((length, length))
    for u in reversed(range(work.n_nodes)):
        node = work.tensors[u]
        sides = []
        for kind, ref in work.axis_spec(u)[1:]:
            if kind == "bond":
                sides.append(up.pop(ref, ([], empty)))
            else:
                sides.append(([ref], identity) if ref < length else ([], empty))
        (left_feats, left), (right_feats, right) = sides
        if left_feats and right_feats:
            rho = tree_pair_densities(left, down[u], node, right)
            for a, fi in enumerate(left_feats):
                pair = von_neumann_entropy(_unit_density(rho[a]))
                mi = single[fi] + single[right_feats] - pair
                raw[fi, right_feats] = raw[right_feats, fi] = mi
        if u != 0:
            up[u] = (left_feats + right_feats, _messages_up(left, right, node))
    return raw


@single_blas_thread()
def all_to_all_mi(model) -> MiMatrices:
    """Mutual information between every pair of single features.

    Returns the raw matrix (symmetric, zero diagonal) and its
    :func:`~tnad.metrics.mi_display` rescaling.
    """
    raw = _pairwise_mi(model)
    return MiMatrices(raw=raw, display=mi_display(raw))



# ---------------------------------------------------------------------------
# per-sample explanations


def _require_encoder(model):
    if model.encoder is None:
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
    if not 0 < k_sigma < np.inf:
        raise DataError(f"k_sigma must be positive and finite, got {k_sigma}")
    encoder = _require_encoder(model)
    raw = np.asarray(raw_sample, dtype=np.float64)
    rescaled = encoder.rescale_sample(raw)
    log_abs, _ = model.log_amplitudes(raw[None])
    nll = float(-2.0 * log_abs[0])

    _, singles = _bond_densities(_analysis_copy(model, 0))
    flags = []
    for i in range(model.n_features):
        rdm = ReducedDensityMatrix((i,), _unit_density(singles[i]), model.phys_dim)
        stats = marginal_moments(rdm, encoder.rescaler)
        deviation = abs(float(rescaled[i]) - stats.mean)
        flagged = bool(deviation > k_sigma * stats.std)
        flags.append(FeatureFlag(i, float(raw[i]), stats.raw_mean, stats.raw_std, flagged))
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
    rescaled = encoder.rescale_sample(raw_sample)
    flagged = sorted(map(operator.index, flagged))
    if not flagged:
        raise DataError("conditional expectations need at least one flagged feature")
    conditions_all = {
        i: float(rescaled[i]) for i in range(len(rescaled)) if i not in set(flagged)
    }
    out: dict[int, float | None] = {}
    for f in flagged:
        try:
            rdm = conditional_rdm(model, (f,), conditions_all)
            out[f] = marginal_moments(rdm, encoder.rescaler).raw_mean
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
