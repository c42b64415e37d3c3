"""Binary model files.

Layout (all integers little-endian):

    magic   "TNAD"              4 bytes
    version u32                 currently 1
    kind    u8                  0 = MPS, 1 = TTN
    L       u32                 number of (real) features
    N       u32                 physical dimension
    padding u32                 appended dummy features (TTN only, else 0)
    rescaler                    L x (min f64, max f64)
    topology                    MPS: L+1 bond extents (u32, includes the 1s)
                                TTN: node count u32, then per node
                                     parent i32 (-1 root) and parent-bond u32
    cores                       row-major f64 in topology order
    crc32   u32                 of everything above

Models are written canonical at the node where a training sweep starts
(site 0 for MPS, right-most leaf for TTN), so the center never needs to
be stored; scoring uses exactly the training-time rescaler embedded in
the file. A file whose
tensors are not finite, or not isometric toward that center, is refused:
the explanation paths contract everything outside a subsystem to the
identity, which is exact only for a canonical state. So is a file whose
rescaler has a non-finite bound, a width that overflows, or an empty or
reversed interval, which would map every value of that feature to NaN or
to one end, a file with a bond of extent 0, which holds no state, and a
tree whose node ids are not in pre-order (see :func:`tnad.ttn.tree_layout`).
"""

from __future__ import annotations

import functools
import struct
import zlib
from pathlib import Path

import numpy as np

from .encoding import FeatureRescaler, LegendreFeatureMap
from .errors import DataError
from .mps import MpsModel
from .ttn import TtnModel, node_shapes, tree_layout

__all__ = ["save_model", "load_model", "MAGIC", "FORMAT_VERSION"]

MAGIC = b"TNAD"
FORMAT_VERSION = 1
_KIND_MPS = 0
_KIND_TTN = 1
# largest entrywise isometry defect a stored (QR-canonicalized) model may show
_ISOMETRY_TOLERANCE = 1e-8


def save_model(path, model) -> None:
    """Serialize a trained model (with its fitted feature map) to ``path``."""
    if model.encoder is None or model.encoder.rescaler is None:
        raise DataError("model has no fitted feature map attached; cannot serialize")
    rescaler = model.encoder.rescaler

    if isinstance(model, MpsModel):
        kind = _KIND_MPS
    elif isinstance(model, TtnModel):
        kind = _KIND_TTN
    else:
        raise DataError(f"unsupported model type {type(model).__name__}")
    if rescaler.n_features != model.n_features:
        raise DataError(
            f"rescaler covers {rescaler.n_features} features, model has {model.n_features}"
        )
    work = model.copy()
    work.canonicalize(work.sweep_start())

    blob = bytearray()
    blob += MAGIC
    blob += struct.pack(
        "<IBIII", FORMAT_VERSION, kind, model.n_features, model.phys_dim, model.padding
    )
    for i in range(model.n_features):
        blob += struct.pack("<dd", rescaler.minimum[i], rescaler.maximum[i])

    if kind == _KIND_MPS:
        bonds = [1] + [t.shape[2] for t in work.tensors]
        blob += struct.pack(f"<{len(bonds)}I", *bonds)
    else:
        blob += struct.pack("<I", work.n_nodes)
        for u in range(work.n_nodes):
            parent_bond = work.tensors[u].shape[0] if work.parents[u] >= 0 else 0
            blob += struct.pack("<iI", work.parents[u], parent_bond)

    for core in work.tensors:
        blob += np.ascontiguousarray(core, dtype="<f8").tobytes()

    blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
    Path(path).write_bytes(bytes(blob))


def load_model(path):
    """Load a model file; returns an :class:`MpsModel` or :class:`TtnModel`.

    The returned model carries a :class:`LegendreFeatureMap` built from the
    embedded rescaler, so it can score raw samples directly. Raises
    :class:`DataError` for a malformed or corrupt file, for one whose
    tensors hold non-finite entries or are not canonical, for one whose
    rescaler has a non-finite interval or a maximum not above its minimum or
    a bond of extent 0, and for a tree whose node ids are not in pre-order.
    """
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 4:
        raise DataError(f"{path}: truncated model file")
    if raw[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: bad magic, not a model file")
    (stored_crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(raw[:-4]) & 0xFFFFFFFF != stored_crc:
        raise DataError(f"{path}: checksum mismatch, file is corrupt")

    offset = len(MAGIC)
    version, kind, n_features, phys_dim, padding = struct.unpack_from("<IBIII", raw, offset)
    offset += struct.calcsize("<IBIII")
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format version {version}")

    minimum = np.empty(n_features)
    maximum = np.empty(n_features)
    for i in range(n_features):
        minimum[i], maximum[i] = struct.unpack_from("<dd", raw, offset)
        offset += 16
    with np.errstate(over="ignore", invalid="ignore"):
        span = maximum - minimum
    if not np.isfinite(span).all():
        bad = int(np.argmin(np.isfinite(span)))
        raise DataError(f"{path}: rescaler interval of feature {bad} is non-finite")
    if np.any(span <= 0.0):
        bad = int(np.argmax(span <= 0.0))
        raise DataError(f"{path}: rescaler maximum <= minimum for feature {bad}")
    encoder = LegendreFeatureMap(
        n_functions=phys_dim, rescaler=FeatureRescaler(minimum=minimum, maximum=maximum)
    )

    if kind == _KIND_MPS:
        bonds = struct.unpack_from(f"<{n_features + 1}I", raw, offset)
        offset += 4 * (n_features + 1)
        if 0 in bonds:
            raise DataError(f"{path}: MPS bond {bonds.index(0)} has extent 0")
        shapes = [(bonds[i], phys_dim, bonds[i + 1]) for i in range(n_features)]
        build = functools.partial(MpsModel, center=0, encoder=encoder)
    elif kind == _KIND_TTN:
        (n_nodes,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        parents, parent_bond = [], []
        for _ in range(n_nodes):
            p, b = struct.unpack_from("<iI", raw, offset)
            offset += 8
            parents.append(p)
            parent_bond.append(b)
        try:
            children, leaf_features = tree_layout(parents)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
        if 0 in parent_bond[1:]:  # node 0 is the root, the only node without a parent bond
            raise DataError(f"{path}: parent bond of node {parent_bond.index(0, 1)} has extent 0")
        leaf_ids = [u for u in range(n_nodes) if children[u] is None]
        if 2 * len(leaf_ids) != n_features + padding:
            raise DataError(f"{path}: leaf count inconsistent with feature count")
        shapes = node_shapes(parents, children, parent_bond, phys_dim)
        build = functools.partial(
            TtnModel, parents=parents, children=children, leaf_features=leaf_features,
            n_features=n_features, padding=padding, center=leaf_ids[-1], encoder=encoder,
        )
    else:
        raise DataError(f"{path}: unknown model kind {kind}")

    tensors = []
    for shape in shapes:
        tensors.append(_read_tensor(raw, offset, shape, path))
        offset += 8 * int(np.prod(shape))
    if offset != len(raw) - 4:
        raise DataError(f"{path}: {len(raw) - 4 - offset} unexpected trailing bytes")
    model = build(tensors)
    if not all(np.isfinite(t).all() for t in tensors):
        raise DataError(f"{path}: model tensors hold non-finite entries")
    defect = model.isometry_defect()
    if defect > _ISOMETRY_TOLERANCE:
        raise DataError(
            f"{path}: model is not canonical (isometry defect {defect:.2e} "
            f"> {_ISOMETRY_TOLERANCE:.0e})"
        )
    return model


def _read_tensor(raw: bytes, offset: int, shape: tuple, path) -> np.ndarray:
    n_bytes = 8 * int(np.prod(shape))
    if offset + n_bytes > len(raw) - 4:
        raise DataError(f"{path}: file too short for tensor of shape {shape}")
    flat = np.frombuffer(raw, dtype="<f8", count=int(np.prod(shape)), offset=offset)
    return flat.reshape(shape).astype(np.float64)

