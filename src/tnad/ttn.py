"""Balanced binary tree tensor network density model.

Leaves carry two encoded features each; internal nodes carry only bonds.
Axis conventions: inner nodes ``(parent, left_child, right_child)``,
leaves ``(parent, phys_even, phys_odd)``; the root's parent bond has
extent 1 and no node behind it. Leaf slots past the real features hold
dummy features, at most one (:meth:`TtnModel.random` pads an odd count
with it), which the shared engine encodes at
:data:`tnad.network.PAD_VALUE`.

:class:`TtnModel` gives the shared engine in :mod:`tnad.network` the
parent list of the tree and two feature legs at each leaf, and keeps only
its argument checks, :func:`tree_layout`'s checks of that list and the
node a sweep starts from, the right-most leaf. The engine's sweep is its
closed depth-first walk over all edges from there; a merged edge tensor
keeps edge order, the remaining axes of ``edge[0]`` then those of
``edge[1]``.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from .errors import DataError
from .network import TensorNetwork, _seeded

if TYPE_CHECKING:
    from .encoding import LegendreFeatureMap

__all__ = ["TtnModel"]


class TtnModel(TensorNetwork):
    """Trainable tree tensor network over encoded real-valued features.

    The parent list alone describes the tree (:func:`tree_layout`).

    A padded tree is not a normalized density. It is scored with its dummy
    feature pinned at :data:`~tnad.network.PAD_VALUE`, so the squared
    amplitude over the real features integrates to ``phi(0.5)^T rho
    phi(0.5)``, where ``rho`` is the dummy leg's density in the unit-norm
    state. That mass is at most ``|phi(0.5)|^2`` (2.25 at ``phys_dim`` 4,
    3.516 at 5), and training drives it there, so every NLL such a tree
    reports, training and scores alike, sits up to ``log |phi(0.5)|^2``
    nats (1.257 at ``phys_dim`` 5) below a normalized model's.

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
        Number of dummy features, ``2 * leaves - n_features``: 0 or 1. A
        tree whose leaves cannot carry ``n_features``, or would carry more
        than one dummy feature, is refused with :class:`DataError`.
    """

    def __init__(
        self,
        tensors,
        parents,
        n_features: int,
        center: int | None = None,
        encoder: "LegendreFeatureMap | None" = None,
    ):
        self.children, legs = tree_layout(parents)
        leaves = len(self.leaf_ids())
        if 2 * leaves < n_features:
            raise DataError(f"{leaves} leaves cannot carry {n_features} features")
        if 2 * leaves - n_features > 1:
            raise DataError(f"{leaves} leaves would carry {n_features} features and "
                            f"{2 * leaves - n_features} dummy ones; a tree holds at most one")
        super().__init__(tensors, parents, legs, n_features, center, encoder)

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

        parents: list[int] = []

        def build(count: int, parent: int) -> None:
            idx = len(parents)
            parents.append(parent)
            if count > 1:
                build((count + 1) // 2, idx)
                build(count - (count + 1) // 2, idx)

        build((n_features + 1) // 2, -1)  # an odd count pads one dummy feature

        make = functools.partial(cls, parents=parents, n_features=n_features, encoder=encoder)
        return _seeded(parents, tree_layout(parents)[1], phys_dim, init_bond, seed, make)

    # -- structure -----------------------------------------------------------

    def leaf_ids(self) -> list[int]:
        return [u for u, c in enumerate(self.children) if c is None]

    def sweep_start(self) -> int:
        """Node the canonical center must occupy when a sweep begins: the right-most leaf."""
        return self.leaf_ids()[-1]


def tree_layout(parents) -> tuple[list, list[int]]:
    """Children and feature legs of every node of the binary tree given by each
    node's parent id: ``(left, right)`` and no leg for an inner node, None and
    two legs for a leaf.

    The tree must be numbered in pre-order, the layout every tree
    algorithm here relies on: node 0 is the only root, every parent id is
    smaller than its children's, and each subtree's ids are contiguous.
    Every inner node has two children. Raises :class:`DataError`
    otherwise.
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
    return children, [2 * (c is None) for c in children]
