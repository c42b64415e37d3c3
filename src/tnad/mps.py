"""Matrix product state density model.

A state over ``L`` encoded features is stored as a chain of rank-3 cores
``A_i`` of shape ``(D_{i-1}, N, D_i)`` with ``D_0 = D_L = 1``. The model is
kept in mixed-canonical form: every core left of ``center`` is a left
isometry, every core right of it a right isometry, so the squared state
norm is the squared Frobenius norm of the center core.

Amplitudes are evaluated with per-site renormalization and a log-scale
accumulator, so chains of a hundred-plus sites neither under- nor
overflow even though individual sample probabilities are tiny.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError, DimensionError
from .tensors import (
    batched_transfer, frobenius_norm, renormalize_rows, single_blas_thread, truncated_svd,
)

if TYPE_CHECKING:
    from .encoding import LegendreFeatureMap

__all__ = ["MpsModel", "MpsEnvironments"]


class MpsModel:
    """Trainable matrix product state over encoded real-valued features.

    Attributes
    ----------
    cores : list of np.ndarray
        Site tensors of shape ``(D_left, phys_dim, D_right)``.
    center : int
        Canonical-center site index.
    encoder : LegendreFeatureMap or None
        Feature map the model was trained with; metadata used by scoring
        and explanation layers, not by the network algebra itself.
    """

    def __init__(self, cores, center: int = 0, encoder: "LegendreFeatureMap | None" = None):
        self.cores = [np.asarray(c, dtype=np.float64) for c in cores]
        if len(self.cores) < 2:
            raise DataError("an MPS needs at least 2 sites")
        for i, core in enumerate(self.cores):
            if core.ndim != 3:
                raise DimensionError(f"core {i} must be rank 3, got rank {core.ndim}")
        if self.cores[0].shape[0] != 1 or self.cores[-1].shape[2] != 1:
            raise DimensionError("boundary bonds must have extent 1")
        for i in range(len(self.cores) - 1):
            if self.cores[i].shape[2] != self.cores[i + 1].shape[0]:
                raise DimensionError(
                    f"bond mismatch between sites {i} and {i + 1}: "
                    f"{self.cores[i].shape[2]} vs {self.cores[i + 1].shape[0]}"
                )
        if not 0 <= center < len(self.cores):
            raise DataError(f"center {center} out of range")
        self.center = center
        self.encoder = encoder

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
        # claim the far end as center so the canonicalization sweep
        # right-orthonormalizes every site on its way to 0
        model = cls(cores, center=n_sites - 1, encoder=encoder)
        model.canonicalize(0)
        model.normalize()
        return model

    # -- basic queries -----------------------------------------------------

    @property
    def n_sites(self) -> int:
        return len(self.cores)

    @property
    def phys_dim(self) -> int:
        return self.cores[0].shape[1]

    def bond_profile(self) -> list[int]:
        """Interior bond extents, left to right (length ``n_sites - 1``)."""
        return [core.shape[2] for core in self.cores[:-1]]

    def state_norm(self) -> float:
        """Norm of the represented state (Frobenius norm of the center core)."""
        return frobenius_norm(self.cores[self.center])

    def normalize(self) -> None:
        norm = self.state_norm()
        if norm == 0.0:
            raise DataError("cannot normalize a zero state")
        self.cores[self.center] = self.cores[self.center] / norm

    def copy(self) -> "MpsModel":
        return MpsModel([c.copy() for c in self.cores], self.center, self.encoder)

    def isometry_defect(self) -> float:
        """Largest entrywise deviation of any off-center core from isometry."""
        worst = 0.0
        for i, core in enumerate(self.cores):
            dl, n, dr = core.shape
            if i < self.center:
                m = core.reshape(dl * n, dr)
                worst = max(worst, float(np.abs(m.T @ m - np.eye(dr)).max()))
            elif i > self.center:
                m = core.reshape(dl, n * dr)
                worst = max(worst, float(np.abs(m @ m.T - np.eye(dl)).max()))
        return worst

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
        encoded = np.asarray(encoded, dtype=np.float64)
        if encoded.ndim != 3 or encoded.shape[1] != self.n_sites or encoded.shape[2] != self.phys_dim:
            raise DataError(
                f"encoded batch has shape {encoded.shape}, expected "
                f"(n, {self.n_sites}, {self.phys_dim})"
            )
        batch = encoded.shape[0]
        vec, log_scale = np.ones((batch, 1)), np.zeros(batch)
        for i, core in enumerate(self.cores):
            vec, log_scale = _transfer(vec, log_scale, core, encoded[:, i, :])
        amp = vec[:, 0]
        with np.errstate(divide="ignore"):
            log_abs = log_scale + np.log(np.abs(amp))
        sign = np.where(amp < 0.0, -1.0, 1.0)
        return log_abs, sign

    def log_amplitude(self, encoded_sample: np.ndarray) -> tuple[float, float]:
        """Single-sample variant of :meth:`log_amplitudes`."""
        log_abs, sign = self.log_amplitudes(np.asarray(encoded_sample)[None, :, :])
        return float(log_abs[0]), float(sign[0])

    # -- canonical form ----------------------------------------------------

    def canonicalize(self, new_center: int) -> None:
        """Move the canonical center to ``new_center`` by QR sweeps.

        The represented state is unchanged (amplitudes are preserved to
        rounding); only the gauge of the cores moves.
        """
        if not 0 <= new_center < self.n_sites:
            raise DataError(f"center {new_center} out of range")
        while self.center < new_center:
            self._shift_right()
        while self.center > new_center:
            self._shift_left()

    def _shift_right(self) -> None:
        c = self.center
        dl, n, dr = self.cores[c].shape
        q, r = np.linalg.qr(self.cores[c].reshape(dl * n, dr))
        self.cores[c] = q.reshape(dl, n, q.shape[1])
        self.cores[c + 1] = np.tensordot(r, self.cores[c + 1], axes=(1, 0))
        self.center = c + 1

    def _shift_left(self) -> None:
        c = self.center
        dl, n, dr = self.cores[c].shape
        q, r = np.linalg.qr(self.cores[c].reshape(dl, n * dr).T)
        self.cores[c] = q.T.reshape(q.shape[1], n, dr)
        self.cores[c - 1] = np.tensordot(self.cores[c - 1], r.T, axes=(2, 0))
        self.center = c - 1

    # -- two-site primitives and the generic trainer interface ------------

    def sweep_start(self) -> int:
        """Site the canonical center must occupy when a sweep begins."""
        return 0

    def sweep_schedule(self) -> list[tuple[int, int]]:
        """Directed edges of one full sweep: left to right and back."""
        right = [(i, i + 1) for i in range(self.n_sites - 1)]
        left = [(i + 1, i) for i in reversed(range(self.n_sites - 1))]
        return right + left

    def merge_edge(self, edge: tuple[int, int]) -> np.ndarray:
        """Contract the cores of the adjacent sites ``edge`` into one rank-4 tensor.

        The result has axes ``(D_left, N, N, D_right)`` of the lower site
        then the upper one. Requires the canonical center at one of the two
        sites. The model itself is not modified; apply :meth:`split_edge`
        to write back.
        """
        a, b = edge
        site = min(a, b)
        if abs(a - b) != 1 or not 0 <= site < self.n_sites - 1:
            raise DataError(f"{edge} is not an adjacent pair of sites")
        if self.center not in edge:
            raise DataError(f"canonical center is at {self.center}, expected {a} or {b}")
        return np.tensordot(self.cores[site], self.cores[site + 1], axes=(2, 0))

    def split_edge(
        self,
        edge: tuple[int, int],
        merged: np.ndarray,
        rel_threshold: float = 0.0,
        max_rank: int | None = None,
    ) -> float:
        """Split a merged two-site tensor back into cores via truncated SVD.

        The singular values are absorbed into the core at ``edge[1]``, the
        direction of travel, which becomes the new canonical center and is
        renormalized to unit state norm. Returns the discarded weight (sum
        of squared truncated singular values).
        """
        a, b = edge
        site = min(a, b)
        dl, n, dr = self.cores[site].shape[0], self.phys_dim, self.cores[site + 1].shape[2]
        merged = np.asarray(merged, dtype=np.float64)
        if merged.shape != (dl, n, n, dr):
            raise DimensionError(
                f"merged tensor has shape {merged.shape}, expected {(dl, n, n, dr)}"
            )
        result = truncated_svd(merged.reshape(dl * n, n * dr), rel_threshold, max_rank)
        k = result.rank
        weight = result.singular_values / frobenius_norm(result.singular_values)
        if b > a:
            self.cores[site] = result.left_isometry.reshape(dl, n, k)
            self.cores[site + 1] = (weight[:, None] * result.right_isometry).reshape(k, n, dr)
        else:
            self.cores[site + 1] = result.right_isometry.reshape(k, n, dr)
            self.cores[site] = (result.left_isometry * weight).reshape(dl, n, k)
        self.center = b
        return result.discarded_weight

    def environment_cache(self, encoded: np.ndarray) -> "MpsEnvironments":
        return MpsEnvironments(self, encoded)


class MpsEnvironments:
    """Per-sample boundary contractions for every directed bond.

    For a fixed encoded data set this cache holds, per directed bond
    ``(src, dst)``, the contraction of all sites on the ``src`` side
    (inclusive) with their encodings: an ``(n_samples, D)`` array plus a
    per-sample log scale. Messages are updated incrementally as the
    canonical center moves, which keeps a full training sweep linear in
    the chain length.
    """

    def __init__(self, model: MpsModel, encoded: np.ndarray):
        self.model = model
        self.encoded = np.asarray(encoded, dtype=np.float64)
        if self.encoded.ndim != 3 or self.encoded.shape[1] != model.n_sites:
            raise DataError(
                f"encoded batch has shape {self.encoded.shape}, expected "
                f"(n, {model.n_sites}, {model.phys_dim})"
            )
        self.n_samples = self.encoded.shape[0]
        self._messages: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        c = model.center
        for src in range(model.n_sites - 1, c, -1):
            self.push(src, src - 1)
        for src in range(0, c):
            self.push(src, src + 1)

    def message(self, src: int, dst: int) -> tuple[np.ndarray, np.ndarray]:
        """Message into ``dst`` from neighbor ``src``; boundary is a unit scalar."""
        if src < 0 or src >= self.model.n_sites:
            return np.ones((self.n_samples, 1)), np.zeros(self.n_samples)
        return self._messages[(src, dst)]

    def push(self, src: int, dst: int) -> None:
        """Recompute the message ``src -> dst`` from the current core at ``src``."""
        if abs(src - dst) != 1:
            raise DataError(f"({src}, {dst}) is not a directed bond")
        core = self.model.cores[src]
        phys = self.encoded[:, src, :]
        if dst == src + 1:
            inner, inner_log = self.message(src - 1, src)
            vec, log_scale = _transfer(inner, inner_log, core, phys)
        else:
            inner, inner_log = self.message(src + 1, src)
            vec, log_scale = _transfer(inner, inner_log, core.transpose(2, 1, 0), phys)
        self._messages[(src, dst)] = (vec, log_scale)
        self._messages.pop((dst, src), None)

    def factors(self, edge, rows=None):
        """Environment factors of the merged tensor at ``edge`` for given rows.

        Returns ``(factor_list, log_scale)`` where the outer product of the
        per-sample factor vectors (one per merged-tensor axis) is the
        gradient of the amplitude with respect to the merged tensor, up to
        the per-sample scale ``exp(log_scale)``.
        """
        site = min(edge)
        left, left_log = self.message(site - 1, site)
        right, right_log = self.message(site + 2, site + 1)
        idx = slice(None) if rows is None else rows
        factor_list = [
            left[idx],
            self.encoded[idx, site, :],
            self.encoded[idx, site + 1, :],
            right[idx],
        ]
        return factor_list, left_log[idx] + right_log[idx]

    def advance(self, edge) -> None:
        """Refresh the message along ``edge`` after a split moved the center."""
        self.push(edge[0], edge[1])


def _transfer(inner, inner_log, core, phys):
    """One message step: carry ``inner`` across a core seen as ``(in, phys, out)``.

    Contracts the per-sample message ``(b, in)`` and encoding ``(b, phys)``
    with the core and renormalizes each row, adding its log norm to
    ``inner_log``. Amplitudes and training environments both run it.
    """
    return renormalize_rows(batched_transfer(inner, core, phys), inner_log)
