"""Matrix product state density model.

A state over ``L`` encoded features is a chain of rank-3 cores ``A_i`` of
shape ``(D_{i-1}, N, D_i)`` with ``D_0 = D_L = 1``: a tree network whose
nodes each carry one feature leg. :class:`MpsModel` gives the shared
engine in :mod:`tnad.network` the chain's layout, and keeps only its
start's tensor shapes and the site a sweep starts from. The engine's
amplitude pass runs from the last site to site 0, and its sweep walk from
site 0 is the sweep right to the end and back. A merged two-site tensor
keeps edge order, as the tree's does: ``(D_left, N, N, D_right)`` on a
left-to-right edge and ``(N, D_right, D_left, N)`` on a right-to-left one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError
from .network import TensorNetwork, up_bond_extents

if TYPE_CHECKING:
    from .encoding import LegendreFeatureMap

__all__ = ["MpsModel"]


class MpsModel(TensorNetwork):
    """Trainable matrix product state over encoded real-valued features.

    Attributes
    ----------
    cores : list of np.ndarray
        Site tensors of shape ``(D_left, phys_dim, D_right)``; the same
        list as ``tensors``.
    center : int
        Canonical-center site index.
    encoder : LegendreFeatureMap or None
        Feature map the model was trained with; metadata used by scoring
        and explanation layers, not by the network algebra itself.
    """

    def __init__(self, cores, center: int = 0, encoder: "LegendreFeatureMap | None" = None):
        self.tensors = [np.asarray(c, dtype=np.float64) for c in cores]
        if len(self.tensors) < 2:
            raise DataError("an MPS needs at least 2 sites")
        self.center = center
        self.encoder = encoder
        self._check_structure()

    # -- construction ------------------------------------------------------

    @classmethod
    def random(
        cls,
        n_sites: int,
        phys_dim: int,
        init_bond: int = 2,
        seed: int = 0,
        encoder: "LegendreFeatureMap | None" = None,
    ) -> "MpsModel":
        """Seeded random MPS, canonicalized to site 0 and normalized.

        Bonds are capped at the exact rank of each cut, so small systems
        never carry redundant parameters.
        """
        if n_sites < 2:
            raise DataError(f"n_sites must be >= 2, got {n_sites}")
        if phys_dim < 1 or init_bond < 1:
            raise DataError("phys_dim and init_bond must be >= 1")
        # a chain is the tree whose site j hangs below site j - 1
        bonds = up_bond_extents(range(-1, n_sites - 1), [1] * n_sites, phys_dim, init_bond) + [1]
        shapes = [(bonds[i], phys_dim, bonds[i + 1]) for i in range(n_sites)]
        return cls._seeded(shapes, seed, encoder=encoder)

    # -- structure -----------------------------------------------------------

    @property
    def cores(self) -> list[np.ndarray]:
        return self.tensors

    @property
    def n_features(self) -> int:
        return len(self.tensors)

    n_sites = n_features

    def axis_spec(self, u: int) -> list[tuple[str, int]]:
        """Axes of site ``u``: the bonds to sites ``u - 1`` and ``u + 1`` around feature ``u``.

        The end sites' outer bonds name sites -1 and L, which do not exist:
        extent-1 bonds with no neighbor.
        """
        return [("bond", u - 1), ("phys", u), ("bond", u + 1)]

    def sweep_start(self) -> int:
        """Site the canonical center must occupy when a sweep begins."""
        return 0
