"""Binary model files.

Layout (all integers little-endian):

    magic   "TNAD"              4 bytes
    version u32                 currently 1
    kind    u8                  0 = MPS, 1 = TTN
    L       u32                 number of (real) features
    N       u32                 physical dimension
    padding u32                 dummy features: 2 x leaves - L for a TTN, else 0
    rescaler                    L x (min f64, max f64)
    topology                    MPS: L+1 bond extents (u32, includes the 1s)
                                TTN: node count u32, then per node
                                     parent i32 (-1 root) and parent-bond u32
                                     (0 root: its up bond has extent 1)
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
to one end, a file with a bond of extent 0, which holds no state, a file the
model's constructor refuses, such as a tree whose node ids are not in
pre-order (see :func:`tnad.ttn.tree_layout`) or whose leaves would carry
more than one dummy feature, a tree file whose root parent-bond field is
not 0, and a file whose padding field differs from the model's count of
dummy features, which its topology decides. The tensor shapes of a tree
file follow from its node table by the engine's one rule,
:func:`tnad.network.node_shapes`, as they do for a seeded model.
"""

from __future__ import annotations

import functools
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .encoding import FeatureRescaler, LegendreFeatureMap
from .errors import DataError
from .mps import MpsModel
from .network import node_shapes
from .ttn import TtnModel, tree_layout

__all__ = ["save_model", "load_model", "MAGIC", "FORMAT_VERSION"]

MAGIC = b"TNAD"
FORMAT_VERSION = 1
_KIND_MPS = 0
_KIND_TTN = 1
# largest entrywise isometry defect a stored (QR-canonicalized) model may show
_ISOMETRY_TOLERANCE = 1e-8


def save_model(path, model) -> None:
    """Serialize a trained model (with its fitted feature map) to ``path``."""
    if model.encoder is None:
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
    # a model canonical at its sweep start, as fit and load_model leave it,
    # is written as it is; any other is written from a canonicalized copy
    work = model
    if model.center != model.sweep_start():
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
        for parent, parent_bond in zip(work.parents, [0] + work.bond_profile()):
            blob += struct.pack("<iI", parent, parent_bond)

    # each core's buffer goes in as it is, and the blob is checksummed and
    # written in place: no whole-file copy is made
    for core in work.tensors:
        blob += np.ascontiguousarray(core, dtype="<f8").data

    blob += struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)
    Path(path).write_bytes(blob)


def load_model(path):
    """Load a model file; returns an :class:`MpsModel` or :class:`TtnModel`.

    The returned model carries a :class:`LegendreFeatureMap` built from the
    embedded rescaler, so it can score raw samples directly. Raises
    :class:`DataError`, its message prefixed with ``path``, for a malformed
    or corrupt file, for one whose tensors hold non-finite entries or are
    not canonical, for one whose rescaler has a non-finite interval or a
    maximum not above its minimum or a bond of extent 0, for one the
    model's constructor refuses, such as a tree whose node ids are not in
    pre-order or whose leaves would carry more than one dummy feature, for
    a tree whose root parent-bond field is not 0, and for a padding field
    that differs from the model's.
    """
    try:
        return _read_model(Path(path).read_bytes())
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _read_model(raw: bytes):
    """The model in the bytes of a model file; see :func:`load_model`."""
    if len(raw) < len(MAGIC) + 4:
        raise DataError("truncated model file")
    if raw[: len(MAGIC)] != MAGIC:
        raise DataError("bad magic, not a model file")
    (stored_crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(raw[:-4]) & 0xFFFFFFFF != stored_crc:
        raise DataError("checksum mismatch, file is corrupt")

    body = memoryview(raw)[:-4]
    offset = len(MAGIC)

    def take(size: int, what: str) -> memoryview:
        """The next ``size`` bytes of the body; refuses a read past its end."""
        nonlocal offset
        if size > len(body) - offset:
            raise DataError(f"file ends inside the {what}")
        offset += size
        return body[offset - size : offset]

    version, kind, n_features, phys_dim, padding = struct.unpack(
        "<IBIII", take(struct.calcsize("<IBIII"), "header")
    )
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported format version {version}")

    bounds = np.frombuffer(take(16 * n_features, "rescaler"), dtype="<f8").reshape(-1, 2)
    minimum, maximum = bounds[:, 0].astype(np.float64), bounds[:, 1].astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        span = maximum - minimum
    if not np.isfinite(span).all():
        bad = int(np.argmin(np.isfinite(span)))
        raise DataError(f"rescaler interval of feature {bad} is non-finite")
    if np.any(span <= 0.0):
        bad = int(np.argmax(span <= 0.0))
        raise DataError(f"rescaler maximum <= minimum for feature {bad}")
    encoder = LegendreFeatureMap(
        n_functions=phys_dim, rescaler=FeatureRescaler(minimum=minimum, maximum=maximum)
    )

    if kind == _KIND_MPS:
        bonds = np.frombuffer(take(4 * (n_features + 1), "MPS bond list"), dtype="<u4").tolist()
        if 0 in bonds:
            raise DataError(f"MPS bond {bonds.index(0)} has extent 0")
        shapes = [(bonds[i], phys_dim, bonds[i + 1]) for i in range(n_features)]
        build = functools.partial(MpsModel, encoder=encoder)
    elif kind == _KIND_TTN:
        (n_nodes,) = struct.unpack("<I", take(4, "tree node table"))
        table = list(struct.iter_unpack("<iI", take(8 * n_nodes, "tree node table")))
        parents = [p for p, _ in table]
        parent_bond = [1] + [b for _, b in table[1:]]
        shapes = node_shapes(parents, tree_layout(parents)[1], parent_bond, phys_dim)
        if table[0][1] != 0:
            raise DataError(f"root parent-bond field is {table[0][1]}, expected 0")
        if 0 in parent_bond:
            raise DataError(f"parent bond of node {parent_bond.index(0)} has extent 0")
        build = functools.partial(TtnModel, parents=parents, n_features=n_features, encoder=encoder)
    else:
        raise DataError(f"unknown model kind {kind}")

    tensors = []
    for shape in shapes:
        # an exact product: extents read from the file may overflow a fixed-width one
        stored = take(8 * math.prod(shape), f"tensor of shape {shape}")
        tensors.append(np.frombuffer(stored, dtype="<f8").reshape(shape).astype(np.float64))
    if offset != len(body):
        raise DataError(f"{len(body) - offset} unexpected trailing bytes")
    model = build(tensors)
    if padding != model.padding:
        raise DataError(f"padding field {padding} differs from the model's {model.padding}")
    defect = model.isometry_defect()
    if defect > _ISOMETRY_TOLERANCE:
        raise DataError(
            f"model is not canonical (isometry defect {defect:.2e} > {_ISOMETRY_TOLERANCE:.0e})"
        )
    return model
