"""Independent reference for checking what the program writes.

Nothing here imports ``tnad``: the model file is parsed from its
documented byte layout, features are encoded with numpy's Legendre series
(Clenshaw evaluation, not the program's recurrence), and amplitudes are
contracted one row at a time with plain matrix-vector products. A model
that fails these checks is wrong whatever the program's own code says.
"""

from __future__ import annotations

import struct
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"TNAD"
ISOMETRY_TOLERANCE = 1e-8


class OracleError(Exception):
    """A model file or program output failed an independent check."""


@dataclass
class ModelFile:
    kind: str  # "mps" or "ttn"
    n_features: int
    phys_dim: int
    padding: int
    minimum: np.ndarray
    maximum: np.ndarray
    tensors: list
    parents: list  # TTN only
    children: list  # TTN only: (left, right) or None for leaves


def read_model(path) -> ModelFile:
    """Parse a model file (format version 1) without the program's reader."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC or len(raw) < 25:
        raise OracleError(f"{path}: not a model file")
    if zlib.crc32(raw[:-4]) & 0xFFFFFFFF != struct.unpack_from("<I", raw, len(raw) - 4)[0]:
        raise OracleError(f"{path}: checksum mismatch")
    version, kind, n_features, phys_dim, padding = struct.unpack_from("<IBIII", raw, 4)
    if version != 1 or kind not in (0, 1):
        raise OracleError(f"{path}: version {version}, kind {kind} not understood")
    offset = 4 + struct.calcsize("<IBIII")
    bounds = np.frombuffer(raw, "<f8", 2 * n_features, offset).reshape(n_features, 2)
    offset += 16 * n_features

    def take(shape):
        nonlocal offset
        count = int(np.prod(shape))
        array = np.frombuffer(raw, "<f8", count, offset).reshape(shape).astype(np.float64)
        offset += 8 * count
        return array

    parents, children = [], []
    if kind == 0:
        bonds = struct.unpack_from(f"<{n_features + 1}I", raw, offset)
        offset += 4 * (n_features + 1)
        tensors = [take((bonds[i], phys_dim, bonds[i + 1])) for i in range(n_features)]
    else:
        (n_nodes,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        parent_bond = []
        for _ in range(n_nodes):
            p, b = struct.unpack_from("<iI", raw, offset)
            offset += 8
            parents.append(p)
            parent_bond.append(b)
        children = [None] * n_nodes
        for u, p in enumerate(parents):
            if p >= 0:
                children[p] = (children[p] or ()) + (u,)
        tensors = []
        for u in range(n_nodes):
            kids = children[u]
            if kids is None:
                shape = (parent_bond[u] if parents[u] >= 0 else 1, phys_dim, phys_dim)
            else:
                shape = tuple(parent_bond[c] for c in kids)
                if parents[u] >= 0:
                    shape = (parent_bond[u],) + shape
            tensors.append(take(shape))
    if offset != len(raw) - 4:
        raise OracleError(f"{path}: {len(raw) - 4 - offset} bytes unaccounted for")
    return ModelFile("mps" if kind == 0 else "ttn", n_features, phys_dim, padding,
                     bounds[:, 0].copy(), bounds[:, 1].copy(), tensors, parents, children)


def encode(model: ModelFile, raw_row: np.ndarray) -> np.ndarray:
    """(features + padding, phys_dim) orthonormal Legendre encoding of one raw row."""
    unit = np.clip((raw_row - model.minimum) / (model.maximum - model.minimum), 0.0, 1.0)
    unit = np.concatenate([unit, np.full(model.padding, 0.5)])
    n = model.phys_dim
    basis = np.empty((len(unit), n))
    for k in range(n):
        coefficients = np.zeros(k + 1)
        coefficients[k] = np.sqrt(2 * k + 1)
        basis[:, k] = np.polynomial.legendre.legval(2.0 * unit - 1.0, coefficients)
    return basis


def row_nll(model: ModelFile, raw_row) -> float:
    """``-2 log |amplitude|`` of one raw row, contracted site by site."""
    phi = encode(model, np.asarray(raw_row, dtype=np.float64))
    log_scale = 0.0

    def renorm(vector):
        nonlocal log_scale
        norm = np.linalg.norm(vector)
        log_scale += np.log(norm)
        return vector / norm

    if model.kind == "mps":
        vector = np.ones(1)
        for site, core in enumerate(model.tensors):
            vector = renorm(vector @ np.tensordot(core, phi[site], axes=(1, 0)))
        return -2.0 * (log_scale + np.log(abs(vector[0])))

    leaves = [u for u, kids in enumerate(model.children) if kids is None]
    leaf_rank = {u: k for k, u in enumerate(leaves)}

    def message(u):
        t = model.tensors[u]
        if model.children[u] is None:
            k = leaf_rank[u]
            return renorm(np.tensordot(t, phi[2 * k + 1], axes=(2, 0)) @ phi[2 * k])
        left, right = (message(c) for c in model.children[u])
        return renorm(np.tensordot(t, right, axes=(t.ndim - 1, 0)) @ left)

    root = message(0)
    return -2.0 * (log_scale + np.log(abs(root.item())))


def isometry_defect(model: ModelFile) -> float:
    """Largest entrywise deviation from isometry toward the stored canonical center.

    Files hold MPS models centered at site 0 and trees centered at their
    right-most leaf; every other tensor must be an isometry pointing at
    the center, and the center itself carries the unit state norm.
    """
    tensors = model.tensors
    if model.kind == "mps":
        center, toward_axis = 0, {i: 0 for i in range(1, len(tensors))}
    else:
        center = [u for u, kids in enumerate(model.children) if kids is None][-1]
        toward_axis = {}
        seen, queue = {center}, deque([center])
        while queue:
            v = queue.popleft()
            neighbours = ([model.parents[v]] if model.parents[v] >= 0 else []) + list(
                model.children[v] or ())
            for u in neighbours:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
                    if model.parents[u] == v:
                        toward_axis[u] = 0
                    else:
                        toward_axis[u] = (1 if model.parents[u] >= 0 else 0) + \
                            model.children[u].index(v)
    worst = abs(float(np.linalg.norm(tensors[center])) - 1.0)
    for u, axis in toward_axis.items():
        moved = np.moveaxis(tensors[u], axis, -1)
        m = moved.reshape(-1, moved.shape[-1])
        worst = max(worst, float(np.abs(m.T @ m - np.eye(m.shape[1])).max()))
    return worst


def check_model(path) -> ModelFile:
    """Read a model and insist on finite, canonical tensors."""
    model = read_model(path)
    if not all(np.isfinite(t).all() for t in model.tensors):
        raise OracleError(f"{path}: non-finite tensor entries")
    if not (np.isfinite(model.minimum).all() and np.all(model.maximum > model.minimum)):
        raise OracleError(f"{path}: invalid rescaler bounds")
    defect = isometry_defect(model)
    if defect > ISOMETRY_TOLERANCE:
        raise OracleError(f"{path}: isometry defect {defect:.2e} > {ISOMETRY_TOLERANCE:.0e}")
    return model
