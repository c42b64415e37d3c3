"""Matrix product state density model.

A state over ``L`` encoded features is a chain of rank-3 cores ``A_i`` of
shape ``(D_{i-1}, N, D_i)`` with ``D_0 = D_L = 1``: a tree network whose
nodes each carry one feature leg. :class:`MpsModel` supplies the chain's
structure to the shared engine in :mod:`tnad.network` (canonical moves,
two-site merge and split, training environments), plus what is its own:
seeded construction, the amplitude pass and the left-right sweep. A
merged two-site tensor has the documented lower-site-first layout
``(D_left, N, N, D_right)`` in either sweep direction.

Amplitudes are evaluated with per-site renormalization and a log-scale
accumulator, so chains of a hundred-plus sites neither under- nor
overflow even though individual sample probabilities are tiny.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError, DimensionError
from .network import TensorNetwork, node_message
from .tensors import single_blas_thread

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
        for i, core in enumerate(self.tensors):
            if core.ndim != 3:
                raise DimensionError(f"core {i} must be rank 3, got rank {core.ndim}")
        if self.tensors[0].shape[0] != 1 or self.tensors[-1].shape[2] != 1:
            raise DimensionError("boundary bonds must have extent 1")
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

        Interior bonds are capped at the maximal exact rank of each cut, so
        small systems never carry redundant parameters. Entries are drawn
        from a standard normal scaled by ``1/sqrt(D_left * N * D_right)``,
        which keeps the initial transfer contractions near unit scale.
        """
        if n_sites < 2:
            raise DataError(f"n_sites must be >= 2, got {n_sites}")
        if phys_dim < 1 or init_bond < 1:
            raise DataError("phys_dim and init_bond must be >= 1")
        bonds = [1] + [
            min(init_bond, phys_dim**j, phys_dim ** (n_sites - j)) for j in range(1, n_sites)
        ] + [1]
        rng = np.random.default_rng(seed)
        cores = []
        for i in range(n_sites):
            shape = (bonds[i], phys_dim, bonds[i + 1])
            cores.append(rng.standard_normal(shape) / np.sqrt(np.prod(shape)))
        model = cls(cores, encoder=encoder)
        model._canonicalize_all(0)
        model.normalize()
        return model

    # -- structure -----------------------------------------------------------

    @property
    def cores(self) -> list[np.ndarray]:
        return self.tensors

    @property
    def n_features(self) -> int:
        return len(self.tensors)

    n_sites = n_features

    @property
    def phys_dim(self) -> int:
        return self.tensors[0].shape[1]

    def axis_spec(self, u: int) -> list[tuple[str, int]]:
        """Axes of site ``u``: the bonds to sites ``u - 1`` and ``u + 1`` around feature ``u``.

        The end sites' outer bonds name sites -1 and L, which do not exist:
        extent-1 bonds with no neighbor.
        """
        return [("bond", u - 1), ("phys", u), ("bond", u + 1)]

    def _pair(self, edge: tuple[int, int]) -> tuple[int, int]:
        """Lower site first, whichever way ``edge`` points."""
        return min(edge), max(edge)

    # -- amplitudes --------------------------------------------------------

    @single_blas_thread()
    def log_amplitudes(self, encoded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log magnitude and sign of the amplitude for a batch of samples, on one BLAS thread.

        Parameters
        ----------
        encoded : np.ndarray
            Batch of shape ``(n_samples, n_sites, phys_dim)``.

        Returns
        -------
        (log_abs, sign)
            ``log_abs[b] = log |amplitude(x_b)|`` (``-inf`` for an exactly
            vanishing amplitude) and ``sign[b]`` in {-1, +1}.
        """
        encoded = self.pad_batch(encoded)
        batch = encoded.shape[0]
        vec, log_scale = np.ones((batch, 1)), np.zeros(batch)
        for i, core in enumerate(self.tensors):
            vec, log_scale = node_message(
                core, self.axis_spec(i), 2, [vec, encoded[:, i, :]], log_scale
            )
        amp = vec[:, 0]
        with np.errstate(divide="ignore"):
            log_abs = log_scale + np.log(np.abs(amp))
        sign = np.where(amp < 0.0, -1.0, 1.0)
        return log_abs, sign

    # -- sweeps --------------------------------------------------------------

    def sweep_start(self) -> int:
        """Site the canonical center must occupy when a sweep begins."""
        return 0

    def sweep_schedule(self) -> list[tuple[int, int]]:
        """Directed edges of one full sweep: left to right and back."""
        right = [(i, i + 1) for i in range(self.n_sites - 1)]
        left = [(i + 1, i) for i in reversed(range(self.n_sites - 1))]
        return right + left
