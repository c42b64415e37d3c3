"""Dense real-valued tensor algebra.

Tensors are plain ``numpy.ndarray`` objects with ``float64`` entries and
row-major layout; axis meaning (bond, physical, ...) is a documented
convention of each caller. This module provides the named contraction
kernels the network code is built on, a truncated singular value
decomposition with an explicit account of the discarded weight, and the
BLAS thread pin the public entry points run under, :func:`single_blas_thread`.

:func:`truncated_svd` splits at a training threshold through the
eigendecomposition of the smaller Gram matrix, forming only the kept
factors, and keeps LAPACK's ``gesdd`` for exact splits, whose cut may fall
among values that are rounding noise in the Gram matrix. A split at its
cap that is handed a start basis, and is wide enough to pay, is cut
within a block Krylov subspace grown from that basis instead.

:func:`batched_transfer` is the per-sample message step of amplitudes
and training environments, for an MPS core and for a tree node alike;
:func:`renormalize_rows` keeps those messages at unit norm with a log
scale on the side.

The density-matrix kernels below contract a network with its own copy
(ket and bra) as chains of reshapes and matrix products, the
cached-environment scheme of Han et al. 2018 (PRX 8, 031012). A
*two-sided object* has axes ``(l, K, B, s)``: the ket copy of one bond,
the flattened open ket and bra legs gathered so far, then the bra copy
of the bond. That order lets every step reshape without moving the
fastest-running axis. The ``tree_*`` kernels see a node as ``(up, in0,
in1)``, an MPS site ``(l, p, r)`` as much as a tree node, and serve the
density matrices and mutual information of both model kinds.

The kernels are pure: they never mutate their inputs and hold no state,
so they are safe to call concurrently. The pin is process-wide: while
any thread is inside it, numpy's BLAS runs on one thread for all threads.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, DimensionError

logger = logging.getLogger(__name__)

__all__ = ["SvdResult", "truncated_svd", "single_blas_thread"]

# Thread-count functions of the OpenBLAS bundled in numpy wheels' ``numpy.libs``
_OPENBLAS_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")
# the BLAS thread count is process-wide, so the pin's state is too
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_restore = 1


@functools.cache
def _thread_controls():
    """numpy's OpenBLAS ``(get, set)`` thread-count functions, looked up once.

    If numpy uses another BLAS, one warning is logged and both are no-ops.
    """
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            library = ctypes.CDLL(str(path))
            get, set_ = (getattr(library, name) for name in _OPENBLAS_SYMBOLS)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    logger.warning("cannot set numpy's BLAS thread count; results repeat only at a fixed count")
    return (lambda: 1), (lambda count: None)


@contextmanager
def single_blas_thread():
    """Run numpy's OpenBLAS on one thread inside this context (or decorated function).

    A threaded BLAS splits products and LAPACK calls by thread count, moving
    their last bits; inside, they round as in a one-thread process. Reentrant
    and thread-safe: the outermost pin saves the thread count and restores it.
    """
    global _pin_depth, _pin_restore
    get, set_ = _thread_controls()
    with _pin_lock:
        if _pin_depth == 0:
            _pin_restore = get()
            set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_restore)


def frobenius_norm(a: np.ndarray) -> float:
    """Frobenius norm summed by numpy rather than by a (threaded) BLAS dot."""
    return float(np.sqrt(np.sum(np.square(a))))


def batched_transfer(left: np.ndarray, tensor: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per-sample transfer of a three-leg tensor between two vectors.

    ``left`` is ``(b, m)``, ``tensor`` is ``(m, k, n)`` and ``right`` is
    ``(b, k)``; returns ``sum_{m,k} left[b,m] tensor[m,k,n] right[b,k]``
    as ``(b, n)``. The sum over ``k`` runs one slice at a time, in order:
    each slice is one product of ``left`` with the ``(m, n)`` slice, scaled
    per sample by ``right[:, j]``, written into one reused buffer. So no
    intermediate is ``k`` times the size of the output. This is the
    message step of an MPS (core ``(l, p, r)``) and of a tree node seen as
    ``(l, r, d)``.
    """
    out = left @ tensor[:, 0, :]
    out *= right[:, :1]
    term = np.empty_like(out)
    for j in range(1, tensor.shape[1]):
        np.matmul(left, tensor[:, j, :], out=term)
        term *= right[:, j : j + 1]
        out += term
    return out


def renormalize_rows(vec: np.ndarray, log_scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row of ``vec`` to unit norm and add the log of its norm to ``log_scale``.

    A zero row stays zero and its log scale becomes ``-inf``. Messages of
    long networks carry their magnitude this way, so they neither under-
    nor overflow.
    """
    norms = np.sqrt(np.sum(np.square(vec), axis=1))
    with np.errstate(divide="ignore"):
        log_scale = log_scale + np.log(norms)
    return vec / np.where(norms > 0.0, norms, 1.0)[:, None], log_scale


def tree_join(obj0: np.ndarray, obj1: np.ndarray, node: np.ndarray) -> np.ndarray:
    """Merge the two-sided objects of a tree node's lower legs through the node.

    ``obj0`` is ``(l, K0, B0, L)`` over the node's first lower leg,
    ``obj1`` is ``(r, K1, B1, R)`` over its second, and ``node`` is
    ``(d, l, r)``. Returns ``sum node[d,l,r] obj0[l,K0,B0,L] obj1[r,K1,B1,R]
    node[D,L,R]`` with axes ``(d, K0*K1, B0*B1, D)``: the open legs of the
    first side run slower than those of the second. The bra node meets
    ``obj0`` over ``L``, then ``obj1`` over ``R``, and the ket node closes
    ``l`` and ``r`` in one product. A side without open legs is the bond
    identity with ``K = B = 1``.
    """
    dl, k0, b0, _ = obj0.shape
    dr, k1, b1, _ = obj1.shape
    d = node.shape[0]
    bra = node.transpose(1, 0, 2).reshape(dl, d * dr)
    half = obj0.reshape(dl * k0 * b0, dl) @ bra  # (l, K0, B0, D, R)
    side = obj1.transpose(3, 0, 1, 2).reshape(dr, dr * k1 * b1)
    both = half.reshape(dl * k0 * b0 * d, dr) @ side  # (l, K0, B0, D, r, K1, B1)
    both = both.reshape(dl, k0 * b0 * d, dr, k1 * b1).transpose(0, 2, 1, 3)
    out = node.reshape(d, dl * dr) @ both.reshape(dl * dr, k0 * b0 * d * k1 * b1)
    out = out.reshape(d, k0, b0, d, k1, b1).transpose(0, 1, 4, 2, 5, 3)
    return out.reshape(d, k0 * k1, b0 * b1, d)


def tree_down_step(density: np.ndarray, node: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bond densities of a tree node's two lower legs from its parent bond's.

    ``density`` is ``(d, D)``, ``node`` is ``(d, l, r)``; returns
    ``sum density[d,D] node[d,l,r] node[D,L,r]`` as ``(l, L)`` and the
    same with ``l`` summed as ``(r, R)``. At a leaf the lower legs are the
    two features and the results are their single-feature densities.
    """
    d, dl, dr = node.shape
    half = (density @ node.reshape(d, dl * dr)).reshape(d, dl, dr)
    left = node.transpose(1, 0, 2).reshape(dl, d * dr) @ half.transpose(0, 2, 1).reshape(d * dr, dl)
    right = node.reshape(d * dl, dr).T @ half.reshape(d * dl, dr)
    return left, right


def tree_up_step(obj: np.ndarray, node: np.ndarray, leg: int) -> np.ndarray:
    """Carry a two-sided object from an in-leg of a node to its up leg.

    ``obj`` is ``(l, K, B, L)`` over in-leg ``leg`` (0 or 1) of ``node``
    ``(d, in0, in1)``, whose other in-leg is marginalized. Returns
    ``(d, K, B, D)``. The sum over the other in-leg runs one matrix slice
    at a time, in order, so no intermediate is that leg's extent times the
    size of ``obj``.
    """
    core = node.transpose(1, 2, 0) if leg == 0 else node.transpose(2, 1, 0)
    dl, k, b, _ = obj.shape
    _, n, d = core.shape
    flat = obj.reshape(dl * k * b, dl)
    out = core[:, 0, :].T @ (flat @ core[:, 0, :]).reshape(dl, k * b * d)
    for a in range(1, n):
        out += core[:, a, :].T @ (flat @ core[:, a, :]).reshape(dl, k * b * d)
    return out.reshape(d, k, b, d)


def tree_pair_densities(
    left: np.ndarray, density: np.ndarray, node: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Close stacked two-sided objects of a tree node's two lower legs.

    ``left`` stacks two-sided objects ``(l, F0, K0, B0, L)`` over the
    node's first lower leg (for example one-feature messages, see
    :func:`tree_up_step`), ``right`` likewise ``(r, F1, K1, B1, R)`` over
    the second; ``density`` is ``(d, D)`` on the parent bond of ``node``
    ``(d, l, r)``. The node's ``density``-weighted ``t (x) t`` is built
    once as a ``(l*L, r*R)`` matrix ``M`` and every pair is
    ``A @ M @ B.T``. Returns ``(F0, F1, K0*K1, B0*B1)``: the density matrix
    of every pair, rows ``(K0, K1)`` and columns ``(B0, B1)``.
    """
    d, dl, dr = node.shape
    _, f0, k0, b0, _ = left.shape
    _, f1, k1, b1, _ = right.shape
    flat = node.reshape(d, dl * dr)
    kernel = flat.T @ (density @ flat)
    kernel = kernel.reshape(dl, dr, dl, dr).transpose(0, 2, 1, 3).reshape(dl * dl, dr * dr)
    a = left.transpose(1, 2, 3, 0, 4).reshape(f0 * k0 * b0, dl * dl)
    b = right.transpose(1, 2, 3, 0, 4).reshape(f1 * k1 * b1, dr * dr)
    rho = (a @ kernel) @ b.T
    rho = rho.reshape(f0, k0, b0, f1, k1, b1).transpose(0, 3, 1, 4, 2, 5)
    return rho.reshape(f0, f1, k0 * k1, b0 * b1)


@dataclass(frozen=True)
class SvdResult:
    """Outcome of a truncated singular value decomposition ``m ~ U diag(s) Vt``.

    ``left_isometry`` has orthonormal columns, ``right_isometry`` orthonormal
    rows, ``singular_values`` is non-increasing and strictly positive, and
    ``discarded_weight`` is always the squared Frobenius reconstruction
    error. On the exact routes, ``"gram"`` and ``"gesdd"``, the values are
    ``m``'s and that error is the sum of the squared values dropped; on a
    ``"subspace"`` split they are the values of ``m`` projected on the
    subspace, and the error adds the weight outside it. ``route`` names
    the route that made the split, ``"gram"``, ``"gesdd"`` or
    ``"subspace"``, after the routes that failed before it, if any, each
    followed by ``"->"`` (``"gram->gesdd"``: ``eigh`` failed, ``gesdd``
    split).
    """

    left_isometry: np.ndarray
    singular_values: np.ndarray
    right_isometry: np.ndarray
    discarded_weight: float
    route: str

    @property
    def rank(self) -> int:
        return len(self.singular_values)


# Smallest relative threshold split on the Gram route. ``eigh`` finds the
# squared values ``s**2`` only to about ``eps * s_max**2``, so a value kept
# below about 1e-7 ``s_max`` would be rounding noise there: such cuts, and
# exact splits (threshold 0), run through LAPACK's ``gesdd``.
_GRAM_MIN_THRESHOLD = 1e-7
# A split at its cap takes the subspace route only if its shorter side is
# at least this many times the cap: the subspace of three blocks of ``cap``
# columns is then at most a quarter of that side. Timed against the Gram
# route at 1 BLAS thread on a 2-vCPU Xeon (square splits at a planted
# spectrum), ratio 16 pays (256 x 256 at cap 16: 8.5 -> 1.6 ms), ratio 12
# does (192 x 192 at cap 16: 4.3 -> 1.1 ms; 240 x 240 at cap 20: 6.8 ->
# 2.0 ms), ratio 8 still does (128 x 128 at cap 16: 1.8 -> 0.8 ms) and
# ratio 5 does not (200 x 200 at cap 40: 4.1 ms either way). So the
# crossover lies between 5 and 8; the margin above it keeps the route to
# shapes like the one whose accuracy was measured (ratio 16).
_SUBSPACE_MIN_RATIO = 12


@single_blas_thread()
def truncated_svd(
    m: np.ndarray,
    rel_threshold: float = 0.0,
    max_rank: int | None = None,
    start: np.ndarray | None = None,
) -> SvdResult:
    """Truncated SVD keeping ``s >= rel_threshold * s_max``, exact or within a subspace.

    The retained rank is additionally capped at ``max_rank``; at least one
    singular value is always kept. The threshold is relative to the largest
    singular value so that truncation is invariant under rescaling of ``m``.
    Ties are broken deterministically by keeping earlier (larger) values.
    Runs under :func:`single_blas_thread`.

    A threshold of at least ``1e-7`` (training's cut) takes the Gram route
    of :func:`_svd_via_gram`: one eigendecomposition of the smaller Gram
    matrix, and only the kept rows of the other factor. A smaller threshold
    may keep values that are rounding noise in the Gram matrix, so it goes
    to LAPACK's ``gesdd``, as does a split whose ``eigh`` fails or whose
    Gram matrix over- or underflows; the Gram route in turn serves a
    ``gesdd`` that fails to converge. These two routes are exact: they cut
    the full spectrum of ``m``.

    ``start``, ``(m.shape[0], k)``, is a basis of columns near the left
    singular vectors to keep, such as a bond's current basis when ``m`` is
    that state plus an update. With a ``start``, a Gram-route threshold, a
    ``max_rank`` and a shorter side of ``m`` at least 12 times ``max_rank``,
    the split is a subspace split (:func:`_svd_in_subspace`): it cuts ``m``
    within the span ``Q`` of ``start``, ``m mᵀ start`` and ``(m mᵀ)²
    start``, so its singular values are those of ``Qᵀ m``. Its discarded
    weight is still the squared error of the split it returns, and may
    exceed the exact split's. At an equal kept rank the excess is at most
    the weight outside the span, ``|m|² - |Qᵀ m|²``, but that bound is
    loose, so no split is checked against it: on the 256 x 256 cap-16
    splits of 57-feature tree fits the outside weight reached 0.38 of
    ``|m|²`` (median 0.008 to 0.06 per fit), while the excess had median
    at most 4.7e-4 and maximum 8.3e-3 of ``|m|²`` at the default learning
    rate, and maxima of 9.8e-3 to 2.0e-2 at learning rates 0.05 to 0.5.
    If the route fails or meets a non-finite value, the exact routes
    split. Without a ``start`` every split is exact.

    Raises
    ------
    DimensionError
        If ``m`` is not a matrix, ``start`` does not have ``m``'s rows or
        the parameters are out of range.
    DegenerateInputError
        If ``m`` is entirely zero (no meaningful decomposition exists).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"truncated_svd expects a matrix, got rank {m.ndim}")
    if not 0.0 <= rel_threshold < 1.0:
        raise DimensionError(f"rel_threshold must lie in [0, 1), got {rel_threshold}")
    if max_rank is not None and max_rank < 1:
        raise DimensionError(f"max_rank must be >= 1, got {max_rank}")
    if start is not None and (start.ndim != 2 or start.shape[0] != m.shape[0]):
        raise DimensionError(f"start has shape {start.shape}, expected ({m.shape[0]}, k)")
    if not np.any(m):
        raise DegenerateInputError("cannot decompose an all-zero matrix")

    failed = ""
    gram = rel_threshold >= _GRAM_MIN_THRESHOLD
    if (start is not None and gram and max_rank is not None
            and _SUBSPACE_MIN_RATIO * max_rank <= min(m.shape)):
        try:
            return _svd_in_subspace(m, start, rel_threshold, max_rank)
        except np.linalg.LinAlgError:
            failed = "subspace->"  # a non-finite or unconverged step
    if gram:
        try:
            return _svd_via_gram(m, rel_threshold, max_rank, failed + "gram")
        except np.linalg.LinAlgError:
            failed += "gram->"  # eigh failed or the Gram matrix over- or underflowed
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge
        return _svd_via_gram(m, rel_threshold, max_rank, failed + "gesdd->gram")

    return _svd_result(u, s, vt, _kept_rank(s, rel_threshold, max_rank), failed + "gesdd")


def _svd_result(
    left: np.ndarray, s: np.ndarray, right: np.ndarray, keep: int, route: str
) -> SvdResult:
    """The first ``keep`` columns of ``left``, values of ``s`` and rows of ``right``;
    the rest of ``s`` is the discarded weight."""
    return SvdResult(
        left_isometry=np.ascontiguousarray(left[:, :keep]),
        singular_values=s[:keep].copy(),
        right_isometry=np.ascontiguousarray(right[:keep, :]),
        discarded_weight=float(np.sum(s[keep:] ** 2)),
        route=route,
    )


def _kept_rank(s: np.ndarray, rel_threshold: float, max_rank: int | None) -> int:
    """How many of the non-increasing singular values ``s`` the cut keeps."""
    keep = int(np.count_nonzero(s >= rel_threshold * s[0]))
    keep = min(keep, int(np.count_nonzero(s > 0.0)))
    if max_rank is not None:
        keep = min(keep, max_rank)
    return max(keep, 1)


def _svd_via_gram(
    m: np.ndarray, rel_threshold: float, max_rank: int | None, route: str = "gram"
) -> SvdResult:
    """Truncated SVD through the smaller Gram matrix's symmetric eigendecomposition.

    With ``a`` the wide one of ``m`` and ``mᵀ``, ``eigh`` of ``a aᵀ = U
    diag(λ) Uᵀ`` gives ``s = sqrt(λ)``, each ``λ`` clipped at 0, and the cut
    on it. Only the ``k`` kept rows ``Uₖᵀ a`` of the other factor are
    formed; one QR of their transpose, its signs fixed so that ``diag(R) >
    0``, makes them orthonormal rows along the same directions. The
    discarded weight is the sum of the dropped (clipped) eigenvalues.
    Raises ``LinAlgError`` if ``eigh`` does not converge or the spectrum is
    not finite and positive (the Gram matrix over- or underflowed).
    """
    a = m if m.shape[0] <= m.shape[1] else m.T
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a @ a.T
    w, u = np.linalg.eigh(gram)
    s = np.sqrt(np.clip(w[::-1], 0.0, None))  # eigh's order is ascending
    if not (np.isfinite(s).all() and s[0] > 0.0):
        raise np.linalg.LinAlgError("the Gram matrix's spectrum is not finite and positive")
    keep = _kept_rank(s, rel_threshold, max_rank)
    u = u[:, ::-1][:, :keep]
    q, r = np.linalg.qr(a.T @ u)
    q *= np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    left, right = (u, q.T) if a is m else (q, u.T)
    return _svd_result(left, s, right, keep, route)


def _svd_in_subspace(
    m: np.ndarray, start: np.ndarray, rel_threshold: float, max_rank: int
) -> SvdResult:
    """Truncated SVD of ``m`` within a block Krylov subspace grown from ``start``.

    ``Q`` is an orthonormal basis of ``[start, (m mᵀ) start, (m mᵀ)²
    start]``: each block is made orthonormal by a QR before ``m mᵀ`` meets
    it, and one QR of the three blocks side by side gives ``Q`` (Halko,
    Martinsson & Tropp 2011, SIAM Rev. 53, 217). ``Qᵀ m`` is split on the
    Gram route and its left isometry mapped back by ``Q``, so the result is
    the best split of ``m`` whose left factor lies in that span. Its
    discarded weight is the dropped weight within the span plus the weight
    of ``m`` outside it, ``|m|² - |Qᵀ m|²``: the squared error of the split.
    Nothing random enters, so equal inputs split to equal bits. Raises
    ``LinAlgError`` if the Gram route does or a value is not finite.
    """
    blocks = [np.linalg.qr(start)[0]]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2):
            blocks.append(np.linalg.qr(m @ (m.T @ blocks[-1]))[0])
        basis = np.linalg.qr(np.hstack(blocks))[0]
        inner = basis.T @ m
        outside = frobenius_norm(m) ** 2 - frobenius_norm(inner) ** 2
    if not np.isfinite(outside):
        raise np.linalg.LinAlgError("a block of the Krylov subspace is not finite")
    result = _svd_via_gram(inner, rel_threshold, max_rank)
    return replace(
        result,
        left_isometry=basis @ result.left_isometry,
        discarded_weight=result.discarded_weight + max(outside, 0.0),
        route="subspace",
    )
