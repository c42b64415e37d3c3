"""Tensor network engine shared by the MPS and the tree.

A matrix product state is a tree tensor network whose nodes each carry
one feature leg (Shi, Duan & Vidal 2006, PRA 74, 022320), so both model
kinds are one structure here: node tensors joined by bonds into a tree
graph, a chain for :class:`~tnad.mps.MpsModel` and a balanced binary tree
for :class:`~tnad.ttn.TtnModel`. A model module describes its graph by
``axis_spec`` and keeps what is its own: construction, the amplitude pass
and the sweep order. :class:`TensorNetwork` holds everything that needs
only the graph: the canonical form and its center moves, the two-site
merge and split of training, and :class:`Environments`, the per-sample
message cache of training. :func:`node_message` is the one message step
of amplitudes and environments alike.
"""

from __future__ import annotations

import copy
from collections import deque

import numpy as np

from .errors import DataError, DimensionError
from .tensors import batched_transfer, frobenius_norm, renormalize_rows, truncated_svd

__all__ = ["TensorNetwork", "Environments", "node_message"]


class TensorNetwork:
    """Tensor network on a tree graph, kept canonical; the base of both model kinds.

    Every node but ``center`` is an isometry toward it, so the squared
    state norm is the squared Frobenius norm of the center tensor. A
    subclass sets ``tensors`` (one array per node, indexed by node id),
    ``center``, ``encoder`` and, if it appends dummy feature legs to each
    batch (:meth:`pad_batch`), ``padding``. It defines ``axis_spec``,
    ``n_features``, ``phys_dim``, ``sweep_start``, ``sweep_schedule`` and
    ``log_amplitudes``. A bond whose reference is not a node id (the
    extent-1 ends of an MPS) has no neighbor behind it.
    """

    tensors: list[np.ndarray]
    center: int
    padding: int = 0

    # -- graph -------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.tensors)

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Nodes joined to ``u`` by a bond, in ``u``'s axis order."""
        return tuple(
            ref for kind, ref in self.axis_spec(u)
            if kind == "bond" and 0 <= ref < self.n_nodes
        )

    def axis_to(self, u: int, v: int) -> int:
        """Axis of node ``u``'s tensor that carries the bond to neighbor ``v``."""
        if 0 <= u < self.n_nodes and v in self.neighbors(u):
            return self.axis_spec(u).index(("bond", v))
        raise DataError(f"nodes {u} and {v} are not neighbors")

    def _edges(self) -> list[tuple[int, int]]:
        """Every bond between two nodes once, as ``(lower id, higher id)``, by higher id."""
        return [(u, v) for v in range(self.n_nodes) for u in self.neighbors(v) if u < v]

    def bond_profile(self) -> list[int]:
        """Bond extents, one per edge, ordered by the higher node id of the edge."""
        return [self.tensors[v].shape[self.axis_to(v, u)] for u, v in self._edges()]

    def _check_structure(self) -> None:
        for u, v in self._edges():
            du = self.tensors[u].shape[self.axis_to(u, v)]
            dv = self.tensors[v].shape[self.axis_to(v, u)]
            if du != dv:
                raise DimensionError(f"bond mismatch on edge ({u}, {v}): {du} vs {dv}")
        if not 0 <= self.center < self.n_nodes:
            raise DataError(f"center {self.center} out of range")

    def copy(self):
        twin = copy.copy(self)
        twin.tensors = [t.copy() for t in self.tensors]
        return twin

    # -- norms and amplitudes ----------------------------------------------

    def state_norm(self) -> float:
        """Norm of the represented state (Frobenius norm of the center tensor)."""
        return frobenius_norm(self.tensors[self.center])

    def normalize(self) -> None:
        norm = self.state_norm()
        if norm == 0.0:
            raise DataError("cannot normalize a zero state")
        self.tensors[self.center] = self.tensors[self.center] / norm

    def isometry_defect(self) -> float:
        """Largest entrywise deviation from isometry-toward-center over non-center nodes."""
        _, toward = self._orientation(self.center)
        worst = 0.0
        for u, v in toward.items():
            if u == self.center:
                continue
            moved = np.moveaxis(self.tensors[u], self.axis_to(u, v), -1)
            m = moved.reshape(-1, moved.shape[-1])
            worst = max(worst, float(np.abs(m.T @ m - np.eye(m.shape[1])).max()))
        return worst

    def pad_batch(self, encoded: np.ndarray) -> np.ndarray:
        """An encoded batch ``(n, n_features, phys_dim)`` as the feature legs read it.

        Checks the shape and returns a float array; a model with dummy
        feature legs (``padding``) appends their encodings.
        """
        encoded = np.asarray(encoded, dtype=np.float64)
        if encoded.ndim != 3 or encoded.shape[1:] != (self.n_features, self.phys_dim):
            raise DataError(
                f"encoded batch has shape {encoded.shape}, expected "
                f"(n, {self.n_features}, {self.phys_dim})"
            )
        return encoded

    def log_amplitude(self, encoded_sample: np.ndarray) -> tuple[float, float]:
        """Single-sample variant of ``log_amplitudes``."""
        log_abs, sign = self.log_amplitudes(np.asarray(encoded_sample)[None, :, :])
        return float(log_abs[0]), float(sign[0])

    # -- canonical form ----------------------------------------------------

    def _orientation(self, target: int, stop: int = -1) -> tuple[list[int], dict[int, int]]:
        """Nodes in increasing distance from ``target`` and each one's next hop toward it.

        The search ends early once it has reached node ``stop``.
        """
        if not 0 <= target < self.n_nodes:
            raise DataError(f"node {target} out of range")
        toward: dict[int, int] = {target: -1}
        order = [target]
        queue = deque([target])
        while queue and stop not in toward:
            u = queue.popleft()
            for v in self.neighbors(u):
                if v not in toward:
                    toward[v] = u
                    order.append(v)
                    queue.append(v)
        return order, toward

    def canonicalize(self, target: int) -> None:
        """Move the canonical center to ``target`` by QR steps along the path to it.

        Nodes off the path are already isometries toward both the old and
        the new center, so this is exact for a model canonical at
        ``center``. The represented state is unchanged up to rounding.
        """
        _, toward = self._orientation(target, stop=self.center)
        while self.center != target:
            nearer = toward[self.center]
            self._orthonormalize_toward(self.center, nearer)
            self.center = nearer

    def _canonicalize_all(self, target: int) -> None:
        """Make every node but ``target`` an isometry toward it, farthest first.

        For tensors that are not canonical yet (a fresh random model, a
        copy with features pinned); ``canonicalize`` serves the rest.
        """
        order, toward = self._orientation(target)
        for u in reversed(order[1:]):
            self._orthonormalize_toward(u, toward[u])
        self.center = target

    def _orthonormalize_toward(self, u: int, v: int) -> None:
        """QR node ``u`` with its bond to ``v`` as the column index; ``v`` absorbs R."""
        ax = self.axis_to(u, v)
        moved = np.moveaxis(self.tensors[u], ax, -1)
        q, r = np.linalg.qr(moved.reshape(-1, moved.shape[-1]))
        self.tensors[u] = np.moveaxis(q.reshape(moved.shape[:-1] + (q.shape[1],)), -1, ax)
        # R multiplies from the side of v's bond axis: a last axis reshapes
        # without a copy and takes R from the right, any other from the left
        ax_v = self.axis_to(v, u)
        if ax_v == self.tensors[v].ndim - 1:
            self.tensors[v] = np.tensordot(self.tensors[v], r, axes=(ax_v, 1))
        else:
            self.tensors[v] = np.moveaxis(np.tensordot(r, self.tensors[v], axes=(1, ax_v)), 0, ax_v)

    # -- two-site primitives -------------------------------------------------

    def _pair(self, edge: tuple[int, int]) -> tuple[int, int]:
        """The nodes of ``edge`` in merged-tensor order: here the edge's own."""
        return edge[0], edge[1]

    def merge_edge(self, edge: tuple[int, int]) -> np.ndarray:
        """Contract the two tensors across ``edge`` into one tensor.

        The result's axes are the remaining axes of the first node of
        :meth:`_pair`, in order, then those of the second. Requires the
        canonical center at one end of ``edge``. The model is unchanged
        until :meth:`split_edge` writes the result back.
        """
        first, second = self._pair(edge)
        ax_first, ax_second = self.axis_to(first, second), self.axis_to(second, first)
        if self.center not in edge:
            raise DataError(f"canonical center is at {self.center}, expected {edge[0]} or {edge[1]}")
        return np.tensordot(self.tensors[first], self.tensors[second], axes=(ax_first, ax_second))

    def split_edge(
        self,
        edge: tuple[int, int],
        merged: np.ndarray,
        rel_threshold: float = 0.0,
        max_rank: int | None = None,
    ) -> float:
        """Split a merged edge tensor by truncated SVD, the center moving to ``edge[1]``.

        The singular values are absorbed into the tensor at ``edge[1]``,
        the direction of travel, which is renormalized to unit state norm.
        Returns the discarded weight (sum of squared truncated singular
        values).
        """
        first, second = self._pair(edge)
        ax_first, ax_second = self.axis_to(first, second), self.axis_to(second, first)
        first_shape = tuple(d for i, d in enumerate(self.tensors[first].shape) if i != ax_first)
        second_shape = tuple(d for i, d in enumerate(self.tensors[second].shape) if i != ax_second)
        merged = np.asarray(merged, dtype=np.float64)
        if merged.shape != first_shape + second_shape:
            raise DimensionError(
                f"merged tensor has shape {merged.shape}, expected {first_shape + second_shape}"
            )
        result = truncated_svd(
            merged.reshape(int(np.prod(first_shape)), int(np.prod(second_shape))),
            rel_threshold,
            max_rank,
        )
        k = result.rank
        weight = result.singular_values / frobenius_norm(result.singular_values)
        left, right = result.left_isometry, result.right_isometry
        if edge[1] == second:
            right = weight[:, None] * right
        else:
            left = left * weight
        self.tensors[first] = np.moveaxis(left.reshape(first_shape + (k,)), -1, ax_first)
        self.tensors[second] = np.moveaxis(right.reshape((k,) + second_shape), 0, ax_second)
        self.center = edge[1]
        return result.discarded_weight

    def environment_cache(self, encoded: np.ndarray) -> "Environments":
        return Environments(self, encoded)


class Environments:
    """Per-sample messages of every directed bond toward the canonical center.

    ``message(u, v)`` is the contraction, per sample, of everything on
    node ``u``'s side of bond ``(u, v)``, ``u`` included, with the
    samples' encodings: an ``(n_samples, D_uv)`` array of unit rows plus a
    per-sample log scale. The cache holds exactly the messages pointing
    toward the center and is refreshed one bond at a time as training
    moves it, so a full sweep costs one message per edge step.
    """

    def __init__(self, model: TensorNetwork, encoded: np.ndarray):
        self.model = model
        self.encoded = model.pad_batch(encoded)
        self.n_samples = self.encoded.shape[0]
        self._messages: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        order, toward = model._orientation(model.center)
        for u in reversed(order[1:]):
            self.push(u, toward[u])

    def message(self, u: int, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Message into ``v`` from ``u``; a bond without a node behind it gives a unit."""
        if not 0 <= u < self.model.n_nodes:
            return np.ones((self.n_samples, 1)), np.zeros(self.n_samples)
        return self._messages[(u, v)]

    def _operands(self, u: int, skip: int):
        """Per-sample vectors of every axis of node ``u`` but ``skip``, and their summed log scale."""
        arrays, logs = [], np.zeros(self.n_samples)
        for ax, (kind, ref) in enumerate(self.model.axis_spec(u)):
            if ax == skip:
                continue
            if kind == "phys":
                arrays.append(self.encoded[:, ref, :])
            else:
                vec, log_scale = self.message(ref, u)
                arrays.append(vec)
                logs = logs + log_scale
        return arrays, logs

    def push(self, u: int, v: int) -> None:
        """Recompute the message ``u -> v`` from node ``u``'s current tensor."""
        out_axis = self.model.axis_to(u, v)
        operands, logs = self._operands(u, out_axis)
        self._messages[(u, v)] = node_message(
            self.model.tensors[u], self.model.axis_spec(u), out_axis, operands, logs
        )
        self._messages.pop((v, u), None)

    def factors(self, edge, rows=None):
        """Per-sample environment factors of the merged tensor at ``edge``.

        Returns ``(factor_list, log_scale)``: one factor of shape
        ``(len(rows), d_axis)`` per merged-tensor axis, in the order of
        :meth:`TensorNetwork.merge_edge`. Their outer product is the
        gradient of the amplitude with respect to the merged tensor, up to
        the per-sample scale ``exp(log_scale)``.
        """
        first, second = self.model._pair(edge)
        arrays_a, logs_a = self._operands(first, self.model.axis_to(first, second))
        arrays_b, logs_b = self._operands(second, self.model.axis_to(second, first))
        idx = slice(None) if rows is None else rows
        return [arr[idx] for arr in arrays_a + arrays_b], (logs_a + logs_b)[idx]


def node_message(tensor, spec, out_axis, operands, log_scale):
    """Message out of a node along ``out_axis``, renormalized per sample.

    ``spec`` is the node's ``axis_spec``; ``operands`` holds one
    per-sample vector ``(b, d)`` for every other axis of ``tensor``, in
    axis order, and ``log_scale`` the sum of their log scales. A two-leg
    node (the tree's root) is one matrix product. A three-leg node goes
    through :func:`batched_transfer`, which loops over one in-leg, the
    last physical one if the node has any, else the second, and sums the
    other in each product.
    """
    ins = [ax for ax in range(tensor.ndim) if ax != out_axis]
    if len(ins) == 1:
        vec = operands[0] @ tensor.transpose(ins[0], out_axis)
    else:
        phys = [k for k, ax in enumerate(ins) if spec[ax][0] == "phys"]
        loop = phys[-1] if phys else 1
        summed = 1 - loop
        vec = batched_transfer(
            operands[summed], tensor.transpose(ins[summed], ins[loop], out_axis), operands[loop]
        )
    return renormalize_rows(vec, log_scale)
