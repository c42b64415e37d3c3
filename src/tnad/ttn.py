"""Balanced binary tree tensor network density model.

Leaves carry two encoded features each; internal nodes carry only bonds.
Axis conventions: the root tensor has axes ``(left_child, right_child)``,
internal nodes ``(parent, left_child, right_child)``, and leaves
``(parent, phys_even, phys_odd)``. An odd feature count is padded with one
dummy feature pinned to the encoding of the rescaled interval midpoint
0.5, so leaves are always full.

:class:`TtnModel` supplies the tree's structure to the shared engine in
:mod:`tnad.network` (canonical moves, two-site merge and split, training
environments), plus what is its own: the balanced layout and its
padding, the bottom-up amplitude pass and the sweep. One full sweep is a
depth-first closed walk over all edges, starting and ending at the
right-most leaf; a merged edge tensor keeps edge order, the remaining
axes of ``edge[0]`` then those of ``edge[1]``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .encoding import orthonormal_basis
from .errors import DataError
from .network import TensorNetwork, node_message
from .tensors import single_blas_thread

if TYPE_CHECKING:
    from .encoding import LegendreFeatureMap

__all__ = ["TtnModel"]


class TtnModel(TensorNetwork):
    """Trainable tree tensor network over encoded real-valued features.

    Attributes
    ----------
    tensors : list of np.ndarray
        One tensor per node, indexed by node id; the root is node 0 and
        every child id is larger than its parent's (pre-order).
    parents : list of int
        Parent node per node (-1 for the root).
    children : list of tuple or None
        ``(left, right)`` child ids for root/internal nodes, None for leaves.
    center : int
        Node id of the canonical center.
    padding : int
        Number of appended dummy features (0 or 1).
    """

    def __init__(
        self,
        tensors,
        parents,
        children,
        leaf_features,
        n_features: int,
        padding: int,
        center: int,
        encoder: "LegendreFeatureMap | None" = None,
    ):
        self.tensors = [np.asarray(t, dtype=np.float64) for t in tensors]
        self.parents = list(parents)
        self.children = list(children)
        self.leaf_features = list(leaf_features)
        self.n_features = n_features
        self.padding = padding
        self.center = center
        self.encoder = encoder
        self._pad_vector = orthonormal_basis(self.phys_dim, 0.5) if padding else None
        self._check_structure()

    # -- construction ------------------------------------------------------

    @classmethod
    def random(
        cls,
        n_features: int,
        phys_dim: int,
        init_bond: int = 2,
        seed: int = 0,
        encoder: "LegendreFeatureMap | None" = None,
    ) -> "TtnModel":
        """Seeded random balanced tree, canonicalized to the right-most leaf.

        Feature counts that are not a power of two are handled by splitting
        the leaf count as evenly as possible at every internal node; an odd
        count is padded with one dummy feature. Bonds are capped at the
        exact rank possible across each edge.
        """
        if n_features < 3:
            # one leaf is no tree: there is no root tensor and nothing to sweep
            raise DataError(f"a tree needs >= 3 features (got {n_features}); use an MPS instead")
        if phys_dim < 1 or init_bond < 1:
            raise DataError("phys_dim and init_bond must be >= 1")
        padding = n_features % 2
        padded = n_features + padding

        parents: list[int] = []

        def build(count: int, parent: int) -> None:
            idx = len(parents)
            parents.append(parent)
            if count > 1:
                build((count + 1) // 2, idx)
                build(count - (count + 1) // 2, idx)

        build(padded // 2, -1)
        children, leaf_features = tree_layout(parents)
        n_nodes = len(parents)

        # exact-rank cap per parent bond: phys dimensions below vs above the cut
        phys_below = [0] * n_nodes
        for u in reversed(range(n_nodes)):
            if children[u] is None:
                phys_below[u] = 2
            else:
                phys_below[u] = phys_below[children[u][0]] + phys_below[children[u][1]]
        bond = [
            min(init_bond, phys_dim ** phys_below[u], phys_dim ** (padded - phys_below[u]))
            for u in range(n_nodes)
        ]

        rng = np.random.default_rng(seed)
        tensors = [
            rng.standard_normal(shape) / np.sqrt(np.prod(shape))
            for shape in node_shapes(parents, children, bond, phys_dim)
        ]
        model = cls(
            tensors, parents, children, leaf_features, n_features, padding,
            center=0, encoder=encoder,
        )
        model._canonicalize_all(model.sweep_start())
        model.normalize()
        return model

    # -- structure -----------------------------------------------------------

    @property
    def phys_dim(self) -> int:
        return self.tensors[self.leaf_ids()[0]].shape[1]

    @property
    def padded_features(self) -> int:
        return self.n_features + self.padding

    def leaf_ids(self) -> list[int]:
        return [u for u in range(self.n_nodes) if self.children[u] is None]

    def leaf_of_feature(self, feature: int) -> tuple[int, int]:
        """Node id and physical slot (1 or 2) holding a padded-domain feature."""
        leaf = self.leaf_ids()[feature // 2]
        return leaf, 1 + feature % 2

    def axis_spec(self, u: int) -> list[tuple[str, int]]:
        """Describe every axis of node ``u``: ('bond', neighbor) or ('phys', feature)."""
        spec: list[tuple[str, int]] = []
        if self.parents[u] >= 0:
            spec.append(("bond", self.parents[u]))
        if self.children[u] is None:
            f0, f1 = self.leaf_features[u]
            spec.extend([("phys", f0), ("phys", f1)])
        else:
            spec.extend(("bond", c) for c in self.children[u])
        return spec

    # -- amplitudes ------------------------------------------------------------

    def pad_batch(self, encoded: np.ndarray) -> np.ndarray:
        """Check the batch and append the fixed dummy-feature encoding when the tree is padded."""
        encoded = super().pad_batch(encoded)
        if not self.padding:
            return encoded
        pad = np.broadcast_to(self._pad_vector, (encoded.shape[0], 1, self.phys_dim))
        return np.concatenate([encoded, pad], axis=1)

    @single_blas_thread()
    def log_amplitudes(self, encoded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log magnitude and sign of the amplitude for a batch (n, L, N), on one BLAS thread."""
        enc = self.pad_batch(encoded)
        msgs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        zero = np.zeros(enc.shape[0])
        for u in reversed(range(1, self.n_nodes)):
            if self.children[u] is None:
                f0, f1 = self.leaf_features[u]
                operands, log_scale = [enc[:, f0, :], enc[:, f1, :]], zero
            else:
                (m0, log0), (m1, log1) = (msgs.pop(c) for c in self.children[u])
                operands, log_scale = [m0, m1], log0 + log1
            msgs[u] = node_message(self.tensors[u], self.axis_spec(u), 0, operands, log_scale)
        (m0, log0), (m1, log1) = (msgs.pop(c) for c in self.children[0])
        amp = ((m0 @ self.tensors[0]) * m1).sum(axis=1)
        with np.errstate(divide="ignore"):
            log_abs = log0 + log1 + np.log(np.abs(amp))
        sign = np.where(amp < 0.0, -1.0, 1.0)
        return log_abs, sign

    # -- sweeps ----------------------------------------------------------------

    def traversal_schedule(self, start: int) -> list[tuple[int, int]]:
        """Closed depth-first walk over all edges, once per direction.

        Starts and ends at ``start``; consecutive edges share the node that
        is the current center, and every leaf other than the start is
        entered only to be immediately left upward.
        """
        edges: list[tuple[int, int]] = []

        def tour(u: int, came_from: int) -> None:
            for v in self.neighbors(u):
                if v != came_from:
                    edges.append((u, v))
                    tour(v, u)
                    edges.append((v, u))

        tour(start, -1)
        return edges

    def sweep_start(self) -> int:
        return self.leaf_ids()[-1]

    def sweep_schedule(self) -> list[tuple[int, int]]:
        return self.traversal_schedule(self.sweep_start())


def tree_layout(parents) -> tuple[list, list]:
    """Children and leaf features of the binary tree given by each node's parent id.

    The tree must be numbered in pre-order, the layout every tree
    algorithm here relies on: node 0 is the only root, every parent id is
    smaller than its children's, and each subtree's ids are contiguous.
    Every inner node has two children; leaves carry features ``(2k,
    2k + 1)`` left to right. Raises :class:`DataError` otherwise.
    """
    n_nodes = len(parents)
    if n_nodes < 3:
        raise DataError(f"a tree needs a root and two leaves, got {n_nodes} nodes")
    if parents[0] != -1 or any(not 0 <= p < u for u, p in enumerate(parents) if u):
        raise DataError("node 0 must be the only root and every parent id smaller than its child's")
    below: list[list[int]] = [[] for _ in parents]
    for u, p in enumerate(parents[1:], start=1):
        below[p].append(u)
    for u, c in enumerate(below):
        if len(c) not in (0, 2):
            raise DataError(f"node {u} has {len(c)} children, expected 2")
    order, stack = [], [0]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(reversed(below[u]))
    if order != list(range(n_nodes)):
        raise DataError("node ids are not in pre-order")
    children = [tuple(c) if c else None for c in below]
    leaf_ids = [u for u in range(n_nodes) if children[u] is None]
    leaf_features: list = [None] * n_nodes
    for k, u in enumerate(leaf_ids):
        leaf_features[u] = (2 * k, 2 * k + 1)
    return children, leaf_features


def node_shapes(parents, children, bond, phys_dim: int) -> list[tuple[int, ...]]:
    """Tensor shape of every node, given the extent ``bond[u]`` of each node's parent bond.

    The root is ``(left, right)``, an inner node ``(parent, left, right)``
    and a leaf ``(parent, phys_dim, phys_dim)``.
    """
    shapes = []
    for u, c in enumerate(children):
        lower = (phys_dim, phys_dim) if c is None else (bond[c[0]], bond[c[1]])
        shapes.append(lower if parents[u] < 0 else (bond[u],) + lower)
    return shapes
