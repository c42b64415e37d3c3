"""Balanced binary tree tensor network density model.

Leaves carry two encoded features each; internal nodes carry only bonds.
Axis conventions: inner nodes ``(parent, left_child, right_child)``,
leaves ``(parent, phys_even, phys_odd)``; the root's parent bond has
extent 1 and no node behind it. Leaf slots past the real features hold
dummy features (:meth:`TtnModel.random` pads an odd count with one),
which the shared engine encodes at :data:`tnad.network.PAD_VALUE`.

:class:`TtnModel` gives the shared engine in :mod:`tnad.network` the
layout of the tree its parent list describes, and keeps only its start's
tensor shapes and the node a sweep starts from, the right-most leaf. The
engine's sweep is its closed depth-first walk over all edges from there;
a merged edge tensor keeps edge order, the remaining axes of ``edge[0]``
then those of ``edge[1]``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError
from .network import TensorNetwork, up_bond_extents

if TYPE_CHECKING:
    from .encoding import LegendreFeatureMap

__all__ = ["TtnModel"]


class TtnModel(TensorNetwork):
    """Trainable tree tensor network over encoded real-valued features.

    The parent list alone describes the tree (:func:`tree_layout`).

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
        Node id of the canonical center; by default the sweep's start.
    padding : int
        Number of dummy features, ``2 * leaves - n_features``.
    """

    def __init__(
        self,
        tensors,
        parents,
        n_features: int,
        center: int | None = None,
        encoder: "LegendreFeatureMap | None" = None,
    ):
        self.tensors = [np.asarray(t, dtype=np.float64) for t in tensors]
        self.parents = list(parents)
        if len(self.tensors) != len(self.parents):
            raise DataError(f"{len(self.tensors)} tensors for {len(self.parents)} nodes")
        self.children, self.leaf_features = tree_layout(self.parents)
        self.n_features = n_features
        leaves = len(self.leaf_ids())
        self.padding = 2 * leaves - n_features
        if self.padding < 0:
            raise DataError(f"{leaves} leaves cannot carry {n_features} features")
        self.center = self.sweep_start() if center is None else center
        self.encoder = encoder
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

        parents: list[int] = []
        legs: list[int] = []  # a leaf carries two feature legs, an inner node none

        def build(count: int, parent: int) -> None:
            idx = len(parents)
            parents.append(parent)
            legs.append(2 if count == 1 else 0)
            if count > 1:
                build((count + 1) // 2, idx)
                build(count - (count + 1) // 2, idx)

        build((n_features + 1) // 2, -1)  # an odd count pads one dummy feature

        bond = up_bond_extents(parents, legs, phys_dim, init_bond)
        return cls._seeded(node_shapes(parents, bond, phys_dim), seed, parents, n_features,
                           encoder=encoder)

    # -- structure -----------------------------------------------------------

    def leaf_ids(self) -> list[int]:
        return [u for u in range(self.n_nodes) if self.children[u] is None]

    def axis_spec(self, u: int) -> list[tuple[str, int]]:
        """Every axis of node ``u``, parent bond first: ('bond', neighbor) or ('phys', feature)."""
        spec = [("bond", self.parents[u])]
        if self.children[u] is None:
            f0, f1 = self.leaf_features[u]
            spec.extend([("phys", f0), ("phys", f1)])
        else:
            spec.extend(("bond", c) for c in self.children[u])
        return spec

    def sweep_start(self) -> int:
        """Node the canonical center must occupy when a sweep begins: the right-most leaf."""
        return self.leaf_ids()[-1]


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


def node_shapes(parents, bond, phys_dim: int) -> list[tuple[int, ...]]:
    """Tensor shape of every node of the tree given by ``parents``, given the
    extent ``bond[u]`` of each node's parent bond, the root's included.

    An inner node is ``(parent, left, right)`` and a leaf ``(parent,
    phys_dim, phys_dim)``. Raises :class:`DataError` for a parent list
    :func:`tree_layout` refuses.
    """
    children, _ = tree_layout(parents)
    shapes = []
    for u, c in enumerate(children):
        lower = (phys_dim, phys_dim) if c is None else (bond[c[0]], bond[c[1]])
        shapes.append((bond[u],) + lower)
    return shapes
