"""Tensor network engine shared by the MPS and the tree.

A matrix product state is a tree tensor network whose nodes each carry
one feature leg (Shi, Duan & Vidal 2006, PRA 74, 022320), so both model
kinds are one structure here: node tensors joined by bonds into a tree
graph, a chain for :class:`~tnad.mps.MpsModel` and a balanced binary tree
for :class:`~tnad.ttn.TtnModel`. A model module describes its graph by a
pre-order parent list and the count of feature legs at each node, and
keeps only its argument checks and the node a sweep starts from.
:class:`TensorNetwork` derives each node's axes from those two lists once
(:func:`node_shapes` gives the tensor shapes they imply, for the seeded
start and the model-file reader) and holds everything that needs only the
graph: the feature legs of a batch, dummy features included, the
amplitude pass, the sweep walk, the canonical form and its center moves,
the two-site merge and split of training, and :class:`Environments`, the
per-sample message cache of training. :meth:`TensorNetwork._message`, one
gather of a node's operands and :func:`node_message`, is the one message
step of amplitudes and environments alike. Both take raw rows or an
encoded batch and read its feature legs, one at a time, through
:meth:`TensorNetwork.feature_leg`: the pass encodes raw rows one block at
a time and reads a leg as a view, and the cache keeps their unit-interval
values, encoding a leg when it reads it.
"""

from __future__ import annotations

import copy
import itertools
from collections import deque

import numpy as np

from .encoding import LegendreFeatureMap, orthonormal_basis
from .errors import DataError, DimensionError, NumericalError
from .tensors import (
    SvdResult, batched_transfer, frobenius_norm, renormalize_rows, single_blas_thread,
    truncated_svd,
)

__all__ = ["TensorNetwork", "Environments", "node_message", "PAD_VALUE"]

# rescaled value of every dummy feature: the midpoint of the unit interval
PAD_VALUE = 0.5

# rows per block of the amplitude pass: bounds the encodings and the
# messages it holds at once, not the batch it scores
BLOCK_ROWS = 1024


class TensorNetwork:
    """Tensor network on a tree graph, kept canonical; the base of both model kinds.

    Every node but ``center`` is an isometry toward it, so the squared
    state norm is the squared Frobenius norm of the center tensor. The
    graph is the pre-order ``parents`` list, node 0 the root (-1), and
    ``legs[u]``, the count of feature legs at node ``u``; features are
    numbered in node order, so node ``u`` carries the ``legs[u]`` after
    those of nodes ``0 .. u - 1``. The legs past the ``n_features`` real
    ones are ``padding`` dummy features (:meth:`feature_leg`). A node's
    axes (:meth:`axis_spec`) are its up bond, its feature legs and the
    bonds to its children in id order, then, below three axes, a bond to
    no node, ``("bond", n_nodes)``: every node is stored as ``(up, in0,
    in1)``, an MPS site ``(l, p, r)``, a tree node ``(parent, c0, c1)``. A
    bond whose reference is not a node id, node 0's up bond ``("bond",
    -1)`` or the last MPS site's ``r``, has no neighbor behind it and
    extent 1. The constructor checks the tensors against that graph once
    and reads ``phys_dim``, the one extent of every feature leg, from them;
    ``center`` defaults to the subclass's ``sweep_start``.
    """

    def __init__(self, tensors, parents, legs, n_features: int, center: int | None = None,
                 encoder: LegendreFeatureMap | None = None):
        self.tensors = [np.asarray(t, dtype=np.float64) for t in tensors]
        self.parents = list(parents)
        if len(self.tensors) != len(self.parents):
            raise DataError(f"{len(self.tensors)} tensors for {len(self.parents)} nodes")
        self.n_features = n_features
        self.padding = sum(legs) - n_features
        self._axes = _node_axes(self.parents, legs)
        self.center = self.sweep_start() if center is None else center
        self.encoder = encoder
        self._check_structure()

    # -- graph -------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.tensors)

    def axis_spec(self, u: int) -> list[tuple[str, int]]:
        """Every axis of node ``u``, up bond first: ``("bond", node)`` or ``("phys", feature)``."""
        return self._axes[u]

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Nodes joined to ``u`` by a bond, in ``u``'s axis order."""
        return tuple(
            ref for kind, ref in self._axes[u]
            if kind == "bond" and 0 <= ref < self.n_nodes
        )

    def axis_to(self, u: int, v: int) -> int:
        """Axis of node ``u``'s tensor that carries the bond to neighbor ``v``."""
        if 0 <= u < self.n_nodes and v in self.neighbors(u):
            return self._axes[u].index(("bond", v))
        raise DataError(f"nodes {u} and {v} are not neighbors")

    def _edges(self) -> list[tuple[int, int]]:
        """Every bond between two nodes once, as ``(parent, child)``, by child id."""
        return [(p, u) for u, p in enumerate(self.parents) if p >= 0]

    def bond_profile(self) -> list[int]:
        """Bond extents, one per edge, ordered by child id: each node's up extent but the root's."""
        return [t.shape[0] for t in self.tensors[1:]]

    def _check_structure(self) -> None:
        """Refuse tensors that do not fit the graph or hold a NaN or infinity; read
        ``phys_dim`` off the feature legs."""
        for u, (t, spec) in enumerate(zip(self.tensors, self._axes)):
            if t.ndim != len(spec):
                raise DimensionError(f"node {u} must be rank {len(spec)}, got rank {t.ndim}")
            if any(kind == "bond" and not 0 <= ref < self.n_nodes and t.shape[ax] != 1
                   for ax, (kind, ref) in enumerate(spec)):
                raise DimensionError(f"node {u}'s bond without a neighbor must have extent 1")
            if not np.isfinite(t).all():
                raise DataError(f"node {u} holds a non-finite entry")
        legs = {
            t.shape[ax] for t, spec in zip(self.tensors, self._axes)
            for ax, (kind, _) in enumerate(spec) if kind == "phys"
        }
        if len(legs) != 1:
            raise DimensionError(f"feature legs have unequal extents {sorted(legs)}")
        (self.phys_dim,) = legs
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

    def _checked_batch(self, batch) -> np.ndarray:
        """``batch`` as floats: raw rows ``(n, n_features)`` or an encoded batch
        ``(n, n_features, phys_dim)``, the one check of every entry point.

        Any other shape is refused with a message that names both; so are
        raw rows for a model without an encoder of ``phys_dim`` functions,
        and a NaN or infinity in either form.
        """
        batch = np.asarray(batch, dtype=np.float64)
        raw = batch.ndim == 2
        if batch.ndim not in (2, 3) or batch.shape[1:] != (
            (self.n_features,) if raw else (self.n_features, self.phys_dim)
        ):
            raise DataError(
                f"batch has shape {batch.shape}; a model of {self.n_features} features takes "
                f"raw rows (n, {self.n_features}) or an encoded batch "
                f"(n, {self.n_features}, {self.phys_dim})"
            )
        if raw and (self.encoder is None or self.encoder.n_functions != self.phys_dim):
            raise DataError(f"raw rows need a model with an encoder of {self.phys_dim} "
                            "functions, the extent of its feature legs")
        # a NaN amplitude would pass for a zero one; min and max find any
        # NaN or infinity without a batch-sized mask
        if batch.size and not np.isfinite([batch.min(), batch.max()]).all():
            sample, feature = np.argwhere(~np.isfinite(batch))[0][:2]
            form = "raw rows hold" if raw else "encoded batch holds"
            raise DataError(f"{form} a non-finite value at sample {sample}, feature {feature}")
        return batch

    def feature_leg(self, batch: np.ndarray, f: int, rows=None) -> np.ndarray:
        """Per-sample vectors ``(len(rows), phys_dim)`` on feature leg ``f``.

        ``batch`` is an encoded batch ``(n, n_features, phys_dim)``, whose
        leg is the view ``batch[:, f, :]``, or the rows' unit-interval
        values ``(n, n_features)``, whose leg the encoder encodes here;
        ``rows`` picks samples, all if None. A dummy feature, one of the
        ``padding`` legs after the real ones, is the encoding of
        :data:`PAD_VALUE`, the same row for every sample, as a read-only
        broadcast view. The leg keeps whatever layout this gives; a caller
        whose products must round alike for every batch layout copies it.
        """
        if f >= self.n_features:
            n = len(batch) if rows is None else len(rows)
            return np.broadcast_to(orthonormal_basis(self.phys_dim, PAD_VALUE), (n, self.phys_dim))
        idx = slice(None) if rows is None else rows
        if batch.ndim == 2:
            return self.encoder.encode_unit(batch[idx, f])
        return batch[idx, f]

    @single_blas_thread()
    def log_amplitudes(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log magnitude and sign of the amplitude of each sample, on one BLAS thread.

        ``batch`` is either raw rows ``(n, n_features)``, which the model's
        ``encoder`` encodes, or an encoded batch ``(n, n_features,
        phys_dim)`` in any memory layout. The log is ``-inf`` for an exactly
        vanishing amplitude. The batch is walked in blocks of
        :data:`BLOCK_ROWS` rows, a remainder of fewer joining the last full
        block, and raw rows are encoded one block at a time; so beyond the
        batch and the two ``(n,)`` results the pass holds one block's
        encodings and messages, under ``2 * BLOCK_ROWS`` rows, whatever
        ``n``. The encoding works value by value, and no block but a whole
        batch is small: the BLAS takes small products (up to a few dozen
        rows) by other routes, which round differently. A batch of no rows
        gives two empty arrays.
        """
        batch = self._checked_batch(batch)
        raw = batch.ndim == 2
        n = len(batch)
        log_abs, sign = np.empty(n), np.empty(n)
        start = 0
        while start < n:
            # a remainder under a block joins the last full one: the BLAS
            # takes a small product by another route, which rounds differently
            stop = n if n - start < 2 * BLOCK_ROWS else start + BLOCK_ROWS
            rows = slice(start, stop)
            block = self.encoder.encode_batch(batch[rows]) if raw else batch[rows]
            self._block_log_amplitudes(block, log_abs[rows], sign[rows])
            start = stop
        return log_abs, sign

    def _block_log_amplitudes(self, encoded, log_abs, sign) -> None:
        """Write the log magnitudes and signs of one encoded block's amplitudes.

        One bottom-up pass of :meth:`_message` runs from the last node to
        node 0, each node's message leaving on its up leg, the first axis;
        each message is renormalized per sample into a log scale, so long
        networks neither under- nor overflow.
        """
        unit = np.ones((len(encoded), 1)), np.zeros(len(encoded))
        up: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for u in reversed(range(self.n_nodes)):
            up[u] = self._message(u, 0, lambda f: self.feature_leg(encoded, f),
                                  lambda x: up.pop(x, unit))
        amp, log_out = up[0]  # node 0's up bond has extent 1
        log_abs[:] = log_out
        sign[:] = np.where(amp[:, 0] < 0.0, -1.0, 1.0)

    def _operands(self, u: int, skip: int, leg, bond) -> tuple[list[np.ndarray], np.ndarray]:
        """Per-sample vectors on every axis of node ``u`` but axis ``skip``, in axis order,
        and their summed log scale.

        ``leg(f)`` gives the vectors on feature leg ``f``, and ``bond(x)``
        the message into ``u`` from node ``x``, vectors and log scale, for
        a bond ``("bond", x)``, ``x`` a node id or not. The log scale is the
        float 0.0 if no bond is read.
        """
        arrays, logs = [], 0.0
        for ax, (kind, ref) in enumerate(self._axes[u]):
            if ax == skip:
                continue
            if kind == "phys":
                arrays.append(leg(ref))
            else:
                vec, log_scale = bond(ref)
                arrays.append(vec)
                logs = logs + log_scale
        return arrays, logs

    def _message(self, u: int, out_axis: int, leg, bond) -> tuple[np.ndarray, np.ndarray]:
        """Message out of node ``u`` along ``out_axis`` from the operands ``leg`` and
        ``bond`` give (:meth:`_operands`): one :func:`node_message`."""
        return node_message(self.tensors[u], self._axes[u], out_axis,
                            *self._operands(u, out_axis, leg, bond))

    # -- sweeps ------------------------------------------------------------

    def sweep_schedule(self) -> list[tuple[int, int]]:
        """Directed edges of one full sweep: a closed depth-first walk over all edges.

        The walk goes over each edge once per direction. It starts and ends
        at :meth:`sweep_start` and enters neighbors in axis order, so
        consecutive edges share the node that is the current center and
        every leaf but the start is entered only to be left at once; from
        an end of a chain, to the other end and back. It keeps its own
        stack, so no chain is too long for it.
        """
        start = self.sweep_start()
        edges: list[tuple[int, int]] = []
        stack = [(start, -1, iter(self.neighbors(start)))]
        while stack:
            u, back, pending = stack[-1]
            v = next((w for w in pending if w != back), None)
            if v is not None:
                edges.append((u, v))
                stack.append((v, u, iter(self.neighbors(v))))
            else:
                stack.pop()
                if back >= 0:
                    edges.append((u, back))
        return edges

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

        For tensors that are not canonical yet, a fresh random model;
        ``canonicalize`` serves the rest.
        Each node that absorbs an R factor is rescaled by a power of two so
        its largest entry lies in [0.5, 1): the carried norm of a long chain
        cannot underflow, and the scaling is exact, so no other bit moves.
        The state is the same up to that positive factor.
        """
        order, toward = self._orientation(target)
        for u in reversed(order[1:]):
            v = toward[u]
            self._orthonormalize_toward(u, v)
            _, exponent = np.frexp(np.abs(self.tensors[v]).max())
            self.tensors[v] = np.ldexp(self.tensors[v], -exponent)
        self.center = target

    def _orthonormalize_toward(self, u: int, v: int) -> None:
        """QR node ``u`` with its bond to ``v`` as the column index; ``v`` absorbs R."""
        ax = self.axis_to(u, v)
        moved = np.moveaxis(self.tensors[u], ax, -1)
        q, r = np.linalg.qr(moved.reshape(-1, moved.shape[-1]))
        # stored C-contiguous, as load_model returns them: products round by
        # layout, so a model trains to the same bits in memory and reloaded
        q = q.reshape(moved.shape[:-1] + (q.shape[1],))
        self.tensors[u] = np.ascontiguousarray(np.moveaxis(q, -1, ax))
        # R multiplies from the side of v's bond axis: a last axis reshapes
        # without a copy and takes R from the right, any other from the left
        ax_v = self.axis_to(v, u)
        if ax_v == self.tensors[v].ndim - 1:
            self.tensors[v] = np.tensordot(self.tensors[v], r, axes=(ax_v, 1))
        else:
            absorbed = np.tensordot(r, self.tensors[v], axes=(1, ax_v))
            self.tensors[v] = np.ascontiguousarray(np.moveaxis(absorbed, 0, ax_v))

    # -- two-site primitives -------------------------------------------------

    def merge_edge(self, edge: tuple[int, int]) -> np.ndarray:
        """Contract the two tensors across ``edge`` into one tensor.

        The result's axes are the remaining axes of ``edge[0]``, in order,
        then those of ``edge[1]``, for either model kind and either
        direction. Requires the canonical center at one end of ``edge``.
        The model is unchanged until :meth:`split_edge` writes the result
        back.
        """
        u, v = edge
        axes = self.axis_to(u, v), self.axis_to(v, u)
        if self.center not in edge:
            raise DataError(f"canonical center is at {self.center}, expected {u} or {v}")
        return np.tensordot(self.tensors[u], self.tensors[v], axes=axes)

    def split_edge(
        self,
        edge: tuple[int, int],
        merged: np.ndarray,
        rel_threshold: float = 0.0,
        max_rank: int | None = None,
    ) -> SvdResult:
        """Split a merged edge tensor by truncated SVD, the center moving to ``edge[1]``.

        ``merged`` has the layout of :meth:`merge_edge` and is cut between
        the two nodes' remaining axes. The singular values are absorbed
        into the tensor at ``edge[1]``, the direction of travel, which is
        renormalized to unit state norm. Returns the cut's
        :class:`~tnad.tensors.SvdResult`: its ``discarded_weight`` is the
        squared error of the cut, its ``route`` the route that made it.

        If the bond is already at ``max_rank``, ``edge[0]``'s tensor from
        before the split, its bond axis last, is the ``start`` of
        :func:`~tnad.tensors.truncated_svd`, which makes the split a
        subspace split where that pays; every other split is exact. That
        start suits a ``merged`` that stays near the current state, as a
        training step's does.
        """
        u, v = edge
        ax_u, ax_v = self.axis_to(u, v), self.axis_to(v, u)
        u_shape = tuple(d for i, d in enumerate(self.tensors[u].shape) if i != ax_u)
        v_shape = tuple(d for i, d in enumerate(self.tensors[v].shape) if i != ax_v)
        merged = np.asarray(merged, dtype=np.float64)
        if merged.shape != u_shape + v_shape:
            raise DimensionError(
                f"merged tensor has shape {merged.shape}, expected {u_shape + v_shape}"
            )
        rows = int(np.prod(u_shape))
        start = None
        if self.tensors[u].shape[ax_u] == max_rank:
            start = np.moveaxis(self.tensors[u], ax_u, -1).reshape(rows, max_rank)
        result = truncated_svd(merged.reshape(rows, -1), rel_threshold, max_rank, start)
        k = result.rank
        weight = result.singular_values / frobenius_norm(result.singular_values)
        left = np.moveaxis(result.left_isometry.reshape(u_shape + (k,)), -1, ax_u)
        right = weight[:, None] * result.right_isometry
        right = np.moveaxis(right.reshape((k,) + v_shape), 0, ax_v)
        self.tensors[u], self.tensors[v] = map(np.ascontiguousarray, (left, right))
        self.center = v
        return result

    def environment_cache(self, batch: np.ndarray, plan=None) -> "Environments":
        """The :class:`Environments` of ``batch``, raw rows or encoded, at the current center.

        ``plan`` is the first sweep of a fit that will drive the cache, as
        for :class:`Environments`; without one every message is kept whole.
        """
        return Environments(self, batch, plan)


class Environments:
    """Per-sample messages of every directed bond toward the canonical center.

    ``message(u, v)`` is the contraction, per sample, of everything on
    node ``u``'s side of bond ``(u, v)``, ``u`` included, with the
    samples' encodings: an ``(n_samples, D_uv)`` array of unit rows plus a
    per-sample log scale. The cache holds the messages that point toward
    the center on bonds between two inner nodes, nodes with more than one
    neighbor; it is refreshed one bond at a time as training moves the
    center, so a sweep costs at most one message per edge step. A message
    out of a leaf (a tree leaf or an MPS end) is computed from the leaf's
    encodings when it is read, for the rows asked for, and a message into
    a leaf only where the center's amplitudes read it. That pays off when
    steps draw batches much smaller than the data: a step's factors then
    read a leaf message for the batch's rows only. A full-batch step reads
    every row of it, and so does the push after the step, so there the
    cache also keeps each leaf message a step reads, until its leaf
    changes.

    A cache built without a plan keeps every inner-bond message whole,
    for every row, until the center moves past it. ``plan``, the
    ``(edge, rows)`` pairs of a fit's first sweep (``rows`` None for every
    row), and :meth:`plan`, called with each next sweep's pairs before the
    sweep ahead of it runs, tell the cache the reads to come: each pair is
    a ``factors(edge, rows)`` and a ``push(*edge)``, and every sweep ends
    with ``amplitudes()``. A push and ``amplitudes()`` read a message at
    every row, a step's factors at the step's rows. Each inner-bond
    message keeps the reads it has left; once none is left it is dropped,
    and once only one step's factors, of drawn rows, are left, it is
    stored as those rows of itself, a gather of the all-rows message
    already computed. A message lives less than a sweep, so its reads are
    all known once the sweep after the running one is planned. A read of
    a gathered message at other rows raises
    :class:`~tnad.errors.NumericalError`, as does a read of an inner-bond
    message the cache does not hold: nothing is recomputed for picked
    rows. ``peak_bytes`` is the most the stored messages held at once.

    The batch is either raw rows ``(n, n_features)``, of which the cache
    keeps only the unit-interval values, or an encoded batch ``(n,
    n_features, phys_dim)``, kept as given. Either way every feature leg
    is read through :meth:`TensorNetwork.feature_leg`, encoded when it is
    read; a leg of some rows is copied C-contiguous, so raw rows give the
    bits of ``encode_batch(rows)`` with drawn batches and full-batch alike.
    """

    def __init__(self, model: TensorNetwork, batch: np.ndarray, plan=None):
        self.model = model
        batch = model._checked_batch(batch)
        self.batch = model.encoder.rescaler.transform(batch) if batch.ndim == 2 else batch
        self.n_samples = self.batch.shape[0]
        self._inner = {u for u in range(model.n_nodes) if len(model.neighbors(u)) > 1}
        # (u, v) -> (vec, log_scale, rows): rows None for every row, else the
        # one step's rows it is stored at
        self._messages: dict[tuple[int, int], tuple] = {}
        self._held_bytes = self.peak_bytes = 0
        # planned caches only: each stored message's reads left, and the
        # messages the planned pushes make, in order, each with its reads
        self._reads: dict[tuple[int, int], deque] = {}
        self._made: deque | None = None
        # the plan's own walk: the messages it leaves live and its center
        self._live: dict[tuple[int, int], deque] = {}
        self._planned_center = model.center
        order, toward = model._orientation(model.center)
        pushes = [(u, toward[u]) for u in reversed(order[1:])]
        if plan is not None:
            self._made = deque()
            for u, v in pushes:
                self._plan_push(u, v)
            self.plan(plan)
        for u, v in pushes:
            self.push(u, v)

    def plan(self, steps) -> None:
        """Add a coming sweep's reads: its ``(edge, rows)`` pairs in order, then ``amplitudes()``."""
        for (u, v), rows in steps:
            self._plan_reads(self._inner_into(u, v) + self._inner_into(v, u), rows)
            self._plan_push(u, v)
        c = self._planned_center
        w = self.model.neighbors(c)[0]
        back = [(w, c)] if {w, c} <= self._inner else self._inner_into(w, c)
        self._plan_reads(self._inner_into(c, w) + back, None)

    def _inner_into(self, u: int, skip: int) -> list[tuple[int, int]]:
        """The stored bonds into ``u`` but the one from ``skip``: what a message out of ``u`` reads."""
        if u not in self._inner:
            return []
        return [(x, u) for x in self.model.neighbors(u) if x != skip and x in self._inner]

    def _plan_reads(self, keys, rows) -> None:
        for key in keys:
            self._live[key].append(rows)

    def _plan_push(self, u: int, v: int) -> None:
        """What :meth:`push` will read and make, the center then at ``v``."""
        if {u, v} <= self._inner:
            self._plan_reads(self._inner_into(u, v), None)
            self._live[(u, v)] = deque()
            self._made.append(((u, v), self._live[(u, v)]))
        self._live.pop((v, u), None)
        self._planned_center = v

    def _hold(self, key, entry=None) -> None:
        """Store ``entry`` as ``key``'s message, or drop it if None, counting the bytes held."""
        old = self._messages.pop(key, None)
        if old is not None:
            self._held_bytes -= old[0].nbytes + old[1].nbytes
        if entry is not None:
            self._messages[key] = entry
            self._held_bytes += entry[0].nbytes + entry[1].nbytes
            self.peak_bytes = max(self.peak_bytes, self._held_bytes)

    def _settle(self, key) -> None:
        """Drop a planned message with no read left; gather one left with one step's rows."""
        reads = self._reads[key]
        if not reads:
            del self._reads[key]
            self._hold(key)
            return
        vec, log_scale, kept = self._messages[key]
        if len(reads) == 1 and reads[0] is not None and kept is None:
            rows = reads[0]
            self._hold(key, (vec[rows], log_scale[rows], rows))

    def message(self, u: int, v: int, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """Message into ``v`` from ``u`` for ``rows``, all if None.

        Read from the cache if it holds it, else computed here; a bond
        without a node behind it gives a unit. An inner-bond message is
        only read, never computed here; one stored at a step's rows can be
        read only at those rows.
        """
        n = self.n_samples if rows is None else len(rows)
        if not 0 <= u < self.model.n_nodes:
            return np.ones((n, 1)), np.zeros(n)
        stored = self._messages.get((u, v))
        if stored is None:
            if {u, v} <= self._inner:
                raise NumericalError(f"the cache holds no message {u} -> {v}")
            return self._outgoing(u, v, rows)
        vec, log_scale, kept = stored
        if kept is None:
            got = (vec, log_scale) if rows is None else (vec[rows], log_scale[rows])
        elif rows is not None and np.array_equal(rows, kept):
            got = vec, log_scale
        else:
            raise NumericalError(
                f"message {u} -> {v} is stored at the rows of one step only, not the rows read"
            )
        if (u, v) in self._reads:
            self._reads[(u, v)].popleft()
            self._settle((u, v))
        return got

    def _readers(self, u: int, rows):
        """The ``leg`` and ``bond`` readers of node ``u``'s operands at ``rows``, all if None
        (:meth:`TensorNetwork._operands`): the batch's legs and the messages into ``u``."""

        def leg(f: int) -> np.ndarray:
            # a product rounds by its operands' layout: some rows of a leg
            # go in C-contiguous, as numpy's indexing picks them from an
            # encoded batch, and every row in the layout the amplitude
            # pass reads, so raw rows give the bits of encode_batch's
            got = self.model.feature_leg(self.batch, f, rows)
            return got if rows is None else np.ascontiguousarray(got)

        return leg, lambda x: self.message(x, u, rows)

    def _operands(self, u: int, skip: int, rows=None):
        """Per-sample vectors of every axis of node ``u`` but ``skip``, and their summed log scale."""
        return self.model._operands(u, skip, *self._readers(u, rows))

    def _outgoing(self, u: int, v: int, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """Message ``u -> v`` from node ``u``'s current tensor and the messages into it."""
        return self.model._message(u, self.model.axis_to(u, v), *self._readers(u, rows))

    def push(self, u: int, v: int) -> None:
        """Refresh the cache after node ``u``'s tensor changed and the center moved to ``v``.

        The message ``u -> v`` is recomputed if both nodes are inner; one
        out of or into a leaf is left to be computed where it is read. The
        message ``v -> u`` now points away from the center and is dropped.
        Every stored message, a kept leaf one too, points toward the center,
        so after a step at ``(u, v)`` only ``v -> u`` could be stale.
        """
        self._hold((v, u))
        if {u, v} <= self._inner:
            vec, log_scale = self._outgoing(u, v)
            self._hold((u, v), (vec, log_scale, None))
            if self._made is not None:
                if not self._made or self._made[0][0] != (u, v):
                    raise NumericalError(f"push {u} -> {v} is not the plan's next")
                _, self._reads[(u, v)] = self._made.popleft()
                self._settle((u, v))

    def _keep_leaf_messages(self, u: int, v: int) -> None:
        """Store the message into ``u`` from each of its leaves but ``v``.

        A full-batch step reads every row of them, and so does the push
        out of ``u`` after it; each is kept until its leaf changes.
        """
        for x in self.model.neighbors(u):
            if x != v and x not in self._inner and (x, u) not in self._messages:
                self._hold((x, u), (*self._outgoing(x, u), None))

    def amplitudes(self) -> tuple[np.ndarray, np.ndarray]:
        """Every sample's rescaled amplitude and its log scale, read at the canonical center.

        The center's message toward its first neighbor meets the message
        back from it: one :func:`node_message` and one row-wise product,
        with no merged tensor and no environment factor formed. At a leaf
        center the message back is computed here.
        """
        c = self.model.center
        v = self.model.neighbors(c)[0]
        out, log_out = self._outgoing(c, v)
        back, log_back = self.message(v, c)
        return (out * back).sum(axis=1), log_out + log_back

    def factors(self, edge, rows=None) -> tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]:
        """Per-sample environment factors of the merged tensor at ``edge``, for ``rows``.

        Returns ``([left, right], log_scale, legs)``. ``left`` is the
        row-wise Kronecker product, in axis order, of the vectors on the
        remaining axes of ``edge[0]``, ``(len(rows), W0)``, and ``right``
        that of ``edge[1]``, ``(len(rows), W1)``: the bipartition at which
        :meth:`TensorNetwork.split_edge` cuts ``merge_edge(edge).reshape(W0,
        W1)``. The outer product of a sample's pair is the gradient of its
        amplitude with respect to the merged tensor, up to the per-sample
        scale ``exp(log_scale)``. ``legs`` holds the per-axis vectors the
        two products are formed from, ``edge[0]``'s then ``edge[1]``'s,
        each ``(len(rows), w)``, a bond to no node as its unit ``(len(rows),
        1)``. Only ``rows`` are read, leaf messages and feature legs
        included; None reads every row.
        """
        pair, legs, log_scale = [], [], 0.0
        for u, v in (edge, edge[::-1]):
            if rows is None:
                self._keep_leaf_messages(u, v)
            arrays, logs = self._operands(u, self.model.axis_to(u, v), rows)
            combined = arrays[0]
            for arr in arrays[1:]:
                combined = (combined[:, :, None] * arr[:, None, :]).reshape(len(combined), -1)
            pair.append(combined)
            legs.extend(arrays)
            log_scale = log_scale + logs
        return pair, log_scale, legs


def up_bond_extents(parents, legs, phys_dim: int, init_bond: int) -> list[int]:
    """``init_bond`` capped at the exact rank of each node's up bond: ``phys_dim`` to the
    fewer of the feature legs (``legs[u]`` at node ``u``) on either side of it. The
    pre-order ``parents`` put every leg below node 0, whose extent is 1.
    """
    below = list(legs)
    for u in reversed(range(1, len(parents))):  # children come after their parents
        below[parents[u]] += below[u]
    return [min(init_bond, phys_dim**b, phys_dim ** (below[0] - b)) for b in below]


def _node_axes(parents, legs) -> list[list[tuple[str, int]]]:
    """Every node's axes, from the pre-order ``parents`` and each node's count of feature
    legs: its up bond, its feature legs, numbered in node order, and the bonds to its
    children in id order, then, below three axes, a bond to no node, ``("bond", n_nodes)``.
    """
    first = [0, *itertools.accumulate(legs)]
    axes = [[("bond", p)] + [("phys", f) for f in range(first[u], first[u + 1])]
            for u, p in enumerate(parents)]
    for u, p in enumerate(parents[1:], start=1):
        axes[p].append(("bond", u))
    return [spec + [("bond", len(axes))] * (3 - len(spec)) for spec in axes]


def node_shapes(parents, legs, bonds, phys_dim: int) -> list[tuple[int, ...]]:
    """Tensor shape of every node of the graph ``parents`` and ``legs`` describe, given
    the extent ``bonds[u]`` of each node's up bond, the root's included: ``phys_dim`` on
    a feature leg, the child's up extent on a bond to a child, and 1 on a bond to no node.
    """
    return [
        tuple(phys_dim if kind == "phys" else bonds[u] if ax == 0 else
              bonds[ref] if ref < len(bonds) else 1 for ax, (kind, ref) in enumerate(spec))
        for u, spec in enumerate(_node_axes(parents, legs))
    ]


def _seeded(parents, legs, phys_dim: int, init_bond: int, seed: int, build):
    """``build(tensors)`` on seeded ``standard_normal(shape) / sqrt(size)`` nodes of the
    graph ``parents`` and ``legs`` describe, bonds capped by :func:`up_bond_extents`,
    canonical at its sweep's start and normalized. Refuses a ``phys_dim`` or
    ``init_bond`` below 1.
    """
    if phys_dim < 1 or init_bond < 1:
        raise DataError("phys_dim and init_bond must be >= 1")
    bonds = up_bond_extents(parents, legs, phys_dim, init_bond)
    rng = np.random.default_rng(seed)
    tensors = [rng.standard_normal(shape) / np.sqrt(np.prod(shape))
               for shape in node_shapes(parents, legs, bonds, phys_dim)]
    model = build(tensors)
    model._canonicalize_all(model.sweep_start())
    model.normalize()
    return model


def node_message(tensor, spec, out_axis, operands, log_scale):
    """Message out of a node along ``out_axis``, renormalized per sample.

    ``spec`` is the node's ``axis_spec``; ``operands`` holds one
    per-sample vector ``(b, d)`` for each other axis of the three-leg
    ``tensor``, in axis order, and ``log_scale`` the sum of their log
    scales. :func:`batched_transfer` sums one in-leg in each product and
    loops over the other: the last physical one if any, else node 0's up
    bond ``("bond", -1)``, told by spec, not extent, whose unit operand
    makes the message one product, else the second.
    """
    ins = [ax for ax in range(tensor.ndim) if ax != out_axis]
    phys = [k for k, ax in enumerate(ins) if spec[ax][0] == "phys"]
    up = [k for k, ax in enumerate(ins) if spec[ax] == ("bond", -1)]
    loop = (phys or up or [1])[-1]
    summed = 1 - loop
    vec = batched_transfer(
        operands[summed], tensor.transpose(ins[summed], ins[loop], out_axis), operands[loop]
    )
    return renormalize_rows(vec, log_scale)
