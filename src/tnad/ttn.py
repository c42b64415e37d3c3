"""Balanced binary tree tensor network density model.

Leaves carry two encoded features each; internal nodes carry only bonds.
Axis conventions: the root tensor has axes ``(left_child, right_child)``,
internal nodes ``(parent, left_child, right_child)``, and leaves
``(parent, phys_even, phys_odd)``. An odd feature count is padded with one
dummy feature pinned to the encoding of the rescaled interval midpoint
0.5, so leaves are always full.

The two-site training primitives mirror the MPS ones with "adjacent
sites" generalized to tree edges; one full sweep is a depth-first closed
walk over all edges starting and ending at the canonical center.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from .encoding import orthonormal_basis
from .errors import DataError, DimensionError
from .tensors import (
    batched_transfer, frobenius_norm, renormalize_rows, single_blas_thread, truncated_svd,
)

if TYPE_CHECKING:
    from .encoding import LegendreFeatureMap

__all__ = ["TtnModel", "TtnEnvironments"]


class TtnModel:
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

    def _check_structure(self) -> None:
        for u, v in self._edges():
            du = self.tensors[u].shape[self.axis_to(u, v)]
            dv = self.tensors[v].shape[self.axis_to(v, u)]
            if du != dv:
                raise DimensionError(f"bond mismatch on edge ({u}, {v}): {du} vs {dv}")

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
        model.canonicalize(model.sweep_start())
        model.normalize()
        return model

    # -- structure queries ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.tensors)

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

    def neighbors(self, u: int) -> tuple[int, ...]:
        out = []
        if self.parents[u] >= 0:
            out.append(self.parents[u])
        if self.children[u] is not None:
            out.extend(self.children[u])
        return tuple(out)

    def axis_to(self, u: int, v: int) -> int:
        """Axis of node ``u``'s tensor that carries the bond to neighbor ``v``."""
        has_parent = self.parents[u] >= 0
        if self.parents[u] == v:
            return 0
        if self.children[u] is not None:
            if self.children[u][0] == v:
                return 1 if has_parent else 0
            if self.children[u][1] == v:
                return 2 if has_parent else 1
        raise DataError(f"nodes {u} and {v} are not neighbors")

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

    def _edges(self) -> list[tuple[int, int]]:
        return [(self.parents[u], u) for u in range(self.n_nodes) if self.parents[u] >= 0]

    def bond_profile(self) -> list[int]:
        """Parent-bond extent of every non-root node, in node-id order."""
        return [self.tensors[u].shape[0] for u in range(1, self.n_nodes)]

    def copy(self) -> "TtnModel":
        return TtnModel(
            [t.copy() for t in self.tensors], self.parents, self.children,
            self.leaf_features, self.n_features, self.padding, self.center, self.encoder,
        )

    # -- norms and amplitudes ----------------------------------------------

    def state_norm(self) -> float:
        return frobenius_norm(self.tensors[self.center])

    def normalize(self) -> None:
        norm = self.state_norm()
        if norm == 0.0:
            raise DataError("cannot normalize a zero state")
        self.tensors[self.center] = self.tensors[self.center] / norm

    def isometry_defect(self) -> float:
        """Largest deviation from isometry-toward-center over non-center nodes."""
        order, toward = self._orientation(self.center)
        worst = 0.0
        for u in order:
            if u == self.center:
                continue
            ax = self.axis_to(u, toward[u])
            moved = np.moveaxis(self.tensors[u], ax, -1)
            m = moved.reshape(-1, moved.shape[-1])
            worst = max(worst, float(np.abs(m.T @ m - np.eye(m.shape[1])).max()))
        return worst

    def pad_batch(self, encoded: np.ndarray) -> np.ndarray:
        """Append the fixed dummy-feature encoding when the tree is padded."""
        encoded = np.asarray(encoded, dtype=np.float64)
        if encoded.ndim != 3 or encoded.shape[1] != self.n_features:
            raise DataError(
                f"encoded batch has shape {encoded.shape}, expected "
                f"(n, {self.n_features}, {self.phys_dim})"
            )
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
            msgs[u] = _node_message(self.tensors[u], 0, operands, log_scale)
        (m0, log0), (m1, log1) = (msgs.pop(c) for c in self.children[0])
        amp = ((m0 @ self.tensors[0]) * m1).sum(axis=1)
        with np.errstate(divide="ignore"):
            log_abs = log0 + log1 + np.log(np.abs(amp))
        sign = np.where(amp < 0.0, -1.0, 1.0)
        return log_abs, sign

    def log_amplitude(self, encoded_sample: np.ndarray) -> tuple[float, float]:
        log_abs, sign = self.log_amplitudes(np.asarray(encoded_sample)[None, :, :])
        return float(log_abs[0]), float(sign[0])

    # -- canonical form ------------------------------------------------------

    def _orientation(self, target: int) -> tuple[list[int], dict[int, int]]:
        """Nodes in increasing distance from ``target`` plus next-hop map."""
        toward: dict[int, int] = {target: -1}
        order = [target]
        queue = deque([target])
        while queue:
            u = queue.popleft()
            for v in self.neighbors(u):
                if v not in toward:
                    toward[v] = u
                    order.append(v)
                    queue.append(v)
        return order, toward

    def canonicalize(self, target: int) -> None:
        """Make every non-target node an isometry toward ``target`` (QR passes).

        The represented state is unchanged up to rounding.
        """
        if not 0 <= target < self.n_nodes:
            raise DataError(f"node {target} out of range")
        order, toward = self._orientation(target)
        for u in reversed(order):
            if u == target:
                continue
            self._orthonormalize_toward(u, toward[u])
        self.center = target

    def _orthonormalize_toward(self, u: int, v: int) -> None:
        ax = self.axis_to(u, v)
        moved = np.moveaxis(self.tensors[u], ax, -1)
        other_shape = moved.shape[:-1]
        q, r = np.linalg.qr(moved.reshape(-1, moved.shape[-1]))
        self.tensors[u] = np.moveaxis(q.reshape(other_shape + (q.shape[1],)), -1, ax)
        ax_v = self.axis_to(v, u)
        absorbed = np.tensordot(r, self.tensors[v], axes=(1, ax_v))
        self.tensors[v] = np.moveaxis(absorbed, 0, ax_v)

    # -- two-site primitives --------------------------------------------------

    def traversal_schedule(self, start: int | None = None) -> list[tuple[int, int]]:
        """Closed depth-first walk over all edges, once per direction.

        Starts and ends at ``start`` (default: the canonical center);
        consecutive edges share the node that is the current center, and
        every leaf other than the start is entered only to be immediately
        left upward.
        """
        start = self.center if start is None else start
        edges: list[tuple[int, int]] = []

        def tour(u: int, came_from: int) -> None:
            for v in self.neighbors(u):
                if v != came_from:
                    edges.append((u, v))
                    tour(v, u)
                    edges.append((v, u))

        tour(start, -1)
        return edges

    def merge_edge(self, edge: tuple[int, int]) -> np.ndarray:
        """Contract the two node tensors across ``edge`` into one tensor.

        Result axes are node ``edge[0]``'s remaining axes (in order)
        followed by node ``edge[1]``'s. The model is unchanged until
        :meth:`split_edge` writes the result back.
        """
        a, b = edge
        ax_a = self.axis_to(a, b)
        ax_b = self.axis_to(b, a)
        if self.center not in (a, b):
            raise DataError(f"canonical center is at {self.center}, expected {a} or {b}")
        return np.tensordot(self.tensors[a], self.tensors[b], axes=(ax_a, ax_b))

    def split_edge(
        self,
        edge: tuple[int, int],
        merged: np.ndarray,
        rel_threshold: float = 0.0,
        max_rank: int | None = None,
    ) -> float:
        """Split a merged edge tensor via truncated SVD, center moving to ``edge[1]``.

        The singular values are absorbed into the tensor at ``edge[1]``,
        which is renormalized to unit state norm. Returns the discarded
        weight.
        """
        a, b = edge
        ax_a = self.axis_to(a, b)
        ax_b = self.axis_to(b, a)
        a_shape = tuple(d for i, d in enumerate(self.tensors[a].shape) if i != ax_a)
        b_shape = tuple(d for i, d in enumerate(self.tensors[b].shape) if i != ax_b)
        merged = np.asarray(merged, dtype=np.float64)
        if merged.shape != a_shape + b_shape:
            raise DimensionError(
                f"merged tensor has shape {merged.shape}, expected {a_shape + b_shape}"
            )
        result = truncated_svd(
            merged.reshape(int(np.prod(a_shape)), int(np.prod(b_shape))),
            rel_threshold,
            max_rank,
        )
        k = result.rank
        self.tensors[a] = np.moveaxis(result.left_isometry.reshape(a_shape + (k,)), -1, ax_a)
        weight = result.singular_values / frobenius_norm(result.singular_values)
        absorbed = (weight[:, None] * result.right_isometry).reshape((k,) + b_shape)
        self.tensors[b] = np.moveaxis(absorbed, 0, ax_b)
        self.center = b
        return result.discarded_weight

    # -- generic trainer interface ---------------------------------------------

    def sweep_start(self) -> int:
        return self.leaf_ids()[-1]

    def sweep_schedule(self) -> list[tuple[int, int]]:
        return self.traversal_schedule(self.sweep_start())

    def environment_cache(self, encoded: np.ndarray) -> "TtnEnvironments":
        return TtnEnvironments(self, encoded)


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


class TtnEnvironments:
    """Per-sample subtree contractions ("messages") for every directed edge.

    ``message(u, v)`` is the contraction, per sample, of everything on
    node ``u``'s side of edge (u, v) including ``u`` itself: an
    ``(n_samples, D_uv)`` array plus a per-sample log scale. The cache
    keeps exactly the messages pointing toward the current canonical
    center and is refreshed one edge at a time as training walks the tree.
    """

    def __init__(self, model: TtnModel, encoded: np.ndarray):
        self.model = model
        self.encoded = model.pad_batch(encoded)
        self.n_samples = self.encoded.shape[0]
        self._messages: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        order, toward = model._orientation(model.center)
        for u in reversed(order):
            if u != model.center:
                self.push(u, toward[u])

    def message(self, u: int, v: int) -> tuple[np.ndarray, np.ndarray]:
        return self._messages[(u, v)]

    def _axis_operands(self, node: int, exclude: int):
        """Factor arrays and log scales for every axis of ``node`` except ``exclude``."""
        arrays, logs = [], np.zeros(self.n_samples)
        for ax, (kind, ref) in enumerate(self.model.axis_spec(node)):
            if ax == exclude:
                continue
            if kind == "phys":
                arrays.append(self.encoded[:, ref, :])
            else:
                vec, log_scale = self.message(ref, node)
                arrays.append(vec)
                logs = logs + log_scale
        return arrays, logs

    def push(self, u: int, v: int) -> None:
        """Recompute the message ``u -> v`` from node ``u``'s current tensor."""
        ax_uv = self.model.axis_to(u, v)
        arrays, logs = self._axis_operands(u, ax_uv)
        self._messages[(u, v)] = _node_message(self.model.tensors[u], ax_uv, arrays, logs)
        self._messages.pop((v, u), None)

    def factors(self, edge, rows=None):
        """Per-sample environment factors of the merged tensor at ``edge``.

        One factor of shape ``(len(rows), d_axis)`` per merged-tensor axis,
        ordered to match :meth:`TtnModel.merge_edge`; their outer product is
        the amplitude gradient with respect to the merged tensor up to the
        returned per-sample log scale.
        """
        a, b = edge
        arrays_a, logs_a = self._axis_operands(a, self.model.axis_to(a, b))
        arrays_b, logs_b = self._axis_operands(b, self.model.axis_to(b, a))
        idx = slice(None) if rows is None else rows
        return [arr[idx] for arr in arrays_a + arrays_b], (logs_a + logs_b)[idx]

    def advance(self, edge) -> None:
        """Refresh the message along ``edge`` after a split moved the center."""
        self.push(edge[0], edge[1])


def _node_message(tensor, out_axis, operands, log_scale):
    """Message out of a node along ``out_axis``, renormalized per sample.

    ``operands`` holds one per-sample vector ``(b, d)`` for every other
    axis of ``tensor``, in axis order; ``log_scale`` is the sum of their
    log scales. A three-leg node is seen as ``(first, second, out)`` for
    :func:`batched_transfer`; the two-leg root is one matrix product.
    Amplitudes and training environments both run it.
    """
    others = [ax for ax in range(tensor.ndim) if ax != out_axis]
    if len(others) == 1:
        vec = operands[0] @ tensor.transpose(others[0], out_axis)
    else:
        vec = batched_transfer(operands[0], tensor.transpose(*others, out_axis), operands[1])
    return renormalize_rows(vec, log_scale)
