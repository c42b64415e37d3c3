"""Matrix product state density model.

A state over ``L`` encoded features is a chain of rank-3 cores ``A_i`` of
shape ``(D_{i-1}, N, D_i)`` with ``D_0 = D_L = 1``: a tree network whose
nodes each carry one feature leg. :class:`MpsModel` gives the shared
engine in :mod:`tnad.network` the chain's parent list, site ``i`` below
site ``i - 1`` with feature ``i``, and keeps only its argument checks and
the site a sweep starts from. The engine's amplitude pass runs from the
last site to site 0, and its sweep walk from site 0 is the sweep right to
the end and back. A merged two-site tensor keeps edge order, as the tree's
does: ``(D_left, N, N, D_right)`` on a left-to-right edge and ``(N,
D_right, D_left, N)`` on a right-to-left one.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from .errors import DataError
from .network import TensorNetwork, _seeded

if TYPE_CHECKING:
    from .encoding import LegendreFeatureMap

__all__ = ["MpsModel"]


class MpsModel(TensorNetwork):
    """Trainable matrix product state over encoded real-valued features.

    Attributes
    ----------
    tensors : list of np.ndarray
        Site tensors of shape ``(D_left, phys_dim, D_right)``.
    center : int
        Canonical-center site index.
    encoder : LegendreFeatureMap or None
        Feature map the model was trained with; metadata used by scoring
        and explanation layers, not by the network algebra itself.
    """

    def __init__(self, cores, center: int = 0, encoder: "LegendreFeatureMap | None" = None):
        cores = list(cores)
        n = len(cores)
        if n < 2:
            raise DataError("an MPS needs at least 2 sites")
        super().__init__(cores, range(-1, n - 1), [1] * n, n, center, encoder)

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
        return _seeded(range(-1, n_sites - 1), [1] * n_sites, phys_dim, init_bond, seed,
                       functools.partial(cls, encoder=encoder))

    # -- structure -----------------------------------------------------------

    n_sites = TensorNetwork.n_nodes

    def sweep_start(self) -> int:
        """Site the canonical center must occupy when a sweep begins."""
        return 0
