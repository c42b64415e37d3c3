"""Dense real-valued tensor algebra.

Tensors are plain ``numpy.ndarray`` objects with ``float64`` entries and
row-major layout; axis meaning (bond, physical, ...) is a documented
convention of each caller. This module provides the named contraction
kernels the network code is built on and a truncated singular value
decomposition with an explicit account of the discarded weight. Every
kernel reduces through :func:`ordered_matmul` (or, for a norm,
:func:`frobenius_norm`), which sums in an order fixed by the operands'
shapes rather than by how many threads the BLAS runs; the density-matrix
kernels go through :func:`aligned_matmul`, which also keeps a threaded
BLAS from splitting their output columns where the rounding would move.

:func:`batched_transfer` is the per-sample message step of amplitudes
and training environments, for an MPS core and for a tree node alike;
:func:`renormalize_rows` keeps those messages at unit norm with a log
scale on the side.

The density-matrix kernels below contract a network with its own copy
(ket and bra) as chains of reshapes and :func:`ordered_matmul` products,
the cached-environment scheme of Han et al. 2018 (PRX 8, 031012). A
*two-sided object* has axes ``(l, K, B, s)``: the ket copy of one bond,
the flattened open ket and bra legs gathered so far, then the bra copy
of the bond. That order lets every step reshape without moving the
fastest-running axis. The ``chain_*`` kernels carry such an object along
an MPS; :func:`tree_join` merges the objects of a tree node's two lower
legs, and the ``tree_*`` kernels serve all-to-all mutual information.

All functions are pure: they never mutate their inputs and hold no state,
so they are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError

__all__ = ["SvdResult", "truncated_svd"]


# Inner-dimension width of one ordered_matmul block. Far below the depth
# at which a BLAS splits a matrix product's inner dimension, so each block
# is one pass whose rounding does not depend on the thread count.
_REDUCTION_BLOCK = 64
# Column count that a threaded BLAS may split between threads without
# changing the rounding of any column (see aligned_matmul), and the most
# multiply-adds OpenBLAS leaves to a single thread.
_COLUMN_ALIGN = 8
_SINGLE_THREAD_WORK = 4 * 65536


def ordered_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for matrices, with the inner dimension summed in fixed order.

    A threaded BLAS may cut a long inner dimension into chunks whose
    boundaries depend on the thread count, which changes the rounding of
    the sum. Here the inner dimension is cut into blocks of 64 and the
    block products are added one after another, so the result is the
    same at any thread count. Both operands are first copied to C order:
    on OpenBLAS 0.3.31 a product whose right operand is a transposed view
    rounds differently at 1 and 2 threads even for an inner dimension of
    64 (for example 100 x 64 x 100), while C-ordered operands repeat.
    """
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    depth = a.shape[1]
    out = a[:, :_REDUCTION_BLOCK] @ b[:_REDUCTION_BLOCK]
    for start in range(_REDUCTION_BLOCK, depth, _REDUCTION_BLOCK):
        stop = start + _REDUCTION_BLOCK
        out += a[:, start:stop] @ b[start:stop]
    return out


def aligned_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`ordered_matmul` with the columns of ``b`` padded to a multiple of 8.

    OpenBLAS 0.3.31 may split the output columns of a product between
    threads, and then rounds the columns next to a split differently
    unless the column count is a multiple of 8 (for example 512 x 20 x 201,
    or 137 x 122 x 190). So a product large enough to be threaded gets
    zero columns appended up to that multiple, dropped from the result;
    the density-matrix kernels then repeat at any thread count whatever
    the bond extents. Smaller products run on one thread as they are.
    """
    depth, n = b.shape
    pad = -n % _COLUMN_ALIGN
    if not pad or a.shape[0] * n * min(depth, _REDUCTION_BLOCK) <= _SINGLE_THREAD_WORK:
        return ordered_matmul(a, b)
    wide = np.zeros((depth, n + pad))
    wide[:, :n] = b
    return ordered_matmul(a, wide)[:, :n]


def frobenius_norm(a: np.ndarray) -> float:
    """Frobenius norm summed by numpy rather than by a (threaded) BLAS dot."""
    return float(np.sqrt(np.sum(np.square(a))))


def batched_transfer(left: np.ndarray, tensor: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per-sample transfer of a three-leg tensor between two vectors.

    ``left`` is ``(b, m)``, ``tensor`` is ``(m, k, n)`` and ``right`` is
    ``(b, k)``; returns ``sum_{m,k} left[b,m] tensor[m,k,n] right[b,k]``
    as ``(b, n)``. The sum over ``k`` runs one slice at a time, in order:
    each slice is one :func:`ordered_matmul` of ``left`` with the C-ordered
    ``(m, n)`` slice, scaled per sample by ``right[:, j]``. So no
    intermediate is ``k`` times the size of the output, and the result
    does not depend on the BLAS thread count. This is the message step of
    an MPS (core ``(l, p, r)``) and of a tree node seen as ``(l, r, d)``.
    """
    slices = np.ascontiguousarray(tensor.transpose(1, 0, 2))  # (k, m, n)
    out = ordered_matmul(left, slices[0])
    out *= right[:, :1]
    for j in range(1, slices.shape[0]):
        term = ordered_matmul(left, slices[j])
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


def chain_march(obj: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Carry a two-sided object across a core whose middle leg is summed.

    ``obj`` is ``(l, K, B, s)`` and ``core`` is ``(l, n, r)``; returns
    ``sum core[l,a,r] obj[l,K,B,s] core[s,a,u]`` with axes ``(r, K, B, u)``.
    For an MPS this marginalizes a site (or, with ``n == 1``, applies a
    pinned one); for a tree node ``(d, l, r)`` seen as ``(l, r, d)`` it is
    the upward message step with the other child bond marginalized. The
    sum over ``a`` runs one matrix slice at a time, in order, so no
    intermediate is ``n`` times the size of ``obj``.
    """
    dl, k, b, _ = obj.shape
    _, n, dr = core.shape
    flat = obj.reshape(dl * k * b, dl)
    ket = np.ascontiguousarray(core.transpose(1, 2, 0))  # (a, r, l)
    bra = np.ascontiguousarray(core.transpose(1, 0, 2))  # (a, s, u)
    out = aligned_matmul(ket[0], aligned_matmul(flat, bra[0]).reshape(dl, k * b * dr))
    for a in range(1, n):
        out += aligned_matmul(ket[a], aligned_matmul(flat, bra[a]).reshape(dl, k * b * dr))
    return out.reshape(dr, k, b, dr)


def chain_open(obj: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Carry a two-sided object across a core whose middle leg stays open.

    Returns ``sum core[l,p,r] obj[l,K,B,s] core[s,q,u]`` with axes
    ``(r, K*n, B*n, u)``: the core's leg joins the open ket and bra legs
    as their fastest-running index.
    """
    dl, k, b, _ = obj.shape
    _, n, dr = core.shape
    half = aligned_matmul(obj.reshape(dl * k * b, dl), core.reshape(dl, n * dr))
    out = aligned_matmul(core.reshape(dl, n * dr).T, half.reshape(dl, k * b * n * dr))
    out = out.reshape(n, dr, k, b, n, dr).transpose(1, 2, 0, 3, 4, 5)
    return out.reshape(dr, k * n, b * n, dr)


def chain_close(obj: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Close a two-sided object with a last open core into a density matrix.

    Equals :func:`chain_open` with its two right bonds traced, shape
    ``(K*n, B*n)``: the core's ``sum core[l,p,t] core[s,q,t]`` is built
    once as a ``(l*s, p*q)`` matrix and ``obj`` meets it in one product.
    """
    dl, k, b, _ = obj.shape
    _, n, dr = core.shape
    rows = core.reshape(dl * n, dr)
    pair = aligned_matmul(rows, rows.T)
    pair = pair.reshape(dl, n, dl, n).transpose(0, 2, 1, 3).reshape(dl * dl, n * n)
    out = aligned_matmul(obj.transpose(1, 2, 0, 3).reshape(k * b, dl * dl), pair)
    return out.reshape(k, b, n, n).transpose(0, 2, 1, 3).reshape(k * n, b * n)


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
    half = aligned_matmul(obj0.reshape(dl * k0 * b0, dl), bra)  # (l, K0, B0, D, R)
    side = obj1.transpose(3, 0, 1, 2).reshape(dr, dr * k1 * b1)
    both = aligned_matmul(half.reshape(dl * k0 * b0 * d, dr), side)  # (l, K0, B0, D, r, K1, B1)
    both = both.reshape(dl, k0 * b0 * d, dr, k1 * b1).transpose(0, 2, 1, 3)
    out = aligned_matmul(node.reshape(d, dl * dr), both.reshape(dl * dr, k0 * b0 * d * k1 * b1))
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
    half = aligned_matmul(density, node.reshape(d, dl * dr)).reshape(d, dl, dr)
    left = aligned_matmul(
        node.transpose(1, 0, 2).reshape(dl, d * dr), half.transpose(0, 2, 1).reshape(d * dr, dl)
    )
    right = aligned_matmul(node.reshape(d * dl, dr).T, half.reshape(d * dl, dr))
    return left, right


def tree_up_step(messages: np.ndarray, node: np.ndarray, leg: int) -> np.ndarray:
    """Move stacked one-feature messages from a lower leg of a tree node up.

    ``messages`` is ``(l, F, n, n, L)``, a two-sided object over lower leg
    ``leg`` (0 or 1) of ``node`` ``(d, leg0, leg1)`` with one open feature
    per slice ``F``; the other lower leg is marginalized. Returns
    ``(d, F, n, n, D)`` on the node's parent bond.
    """
    dl, f, n = messages.shape[:3]
    d = node.shape[0]
    oriented = node.transpose(1, 2, 0) if leg == 0 else node.transpose(2, 1, 0)
    out = chain_march(messages.reshape(dl, f * n, n, dl), oriented)
    return out.reshape(d, f, n, n, d)


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
    kernel = aligned_matmul(flat.T, aligned_matmul(density, flat))
    kernel = kernel.reshape(dl, dr, dl, dr).transpose(0, 2, 1, 3).reshape(dl * dl, dr * dr)
    a = left.transpose(1, 2, 3, 0, 4).reshape(f0 * k0 * b0, dl * dl)
    b = right.transpose(1, 2, 3, 0, 4).reshape(f1 * k1 * b1, dr * dr)
    rho = aligned_matmul(aligned_matmul(a, kernel), b.T)
    rho = rho.reshape(f0, k0, b0, f1, k1, b1).transpose(0, 3, 1, 4, 2, 5)
    return rho.reshape(f0, f1, k0 * k1, b0 * b1)


@dataclass(frozen=True)
class SvdResult:
    """Outcome of a truncated singular value decomposition ``m ~ U diag(s) Vt``.

    ``left_isometry`` has orthonormal columns, ``right_isometry`` orthonormal
    rows, ``singular_values`` is non-increasing and strictly positive, and
    ``discarded_weight`` is the sum of the squared singular values that were
    dropped (equal to the squared Frobenius reconstruction error).
    """

    left_isometry: np.ndarray
    singular_values: np.ndarray
    right_isometry: np.ndarray
    discarded_weight: float

    @property
    def rank(self) -> int:
        return len(self.singular_values)


def truncated_svd(
    m: np.ndarray,
    rel_threshold: float = 0.0,
    max_rank: int | None = None,
) -> SvdResult:
    """Truncated SVD keeping singular values with ``s >= rel_threshold * s_max``.

    The retained rank is additionally capped at ``max_rank``; at least one
    singular value is always kept. The threshold is relative to the largest
    singular value so that truncation is invariant under rescaling of ``m``.
    Ties are broken deterministically by keeping earlier (larger) values.

    Raises
    ------
    DimensionError
        If ``m`` is not a matrix or the parameters are out of range.
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
    if not np.any(m):
        raise DegenerateInputError("cannot decompose an all-zero matrix")

    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; fall back to the slower
        # but more robust QR-based driver via the Gram matrix route.
        u, s, vt = _svd_via_gram(m)

    keep = int(np.count_nonzero(s >= rel_threshold * s[0]))
    keep = min(keep, int(np.count_nonzero(s > 0.0)))
    if max_rank is not None:
        keep = min(keep, max_rank)
    keep = max(keep, 1)

    discarded = float(np.sum(s[keep:] ** 2))
    return SvdResult(
        left_isometry=np.ascontiguousarray(u[:, :keep]),
        singular_values=s[:keep].copy(),
        right_isometry=np.ascontiguousarray(vt[:keep, :]),
        discarded_weight=discarded,
    )


def _svd_via_gram(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD through the smaller Gram matrix's symmetric eigendecomposition."""
    rows, cols = m.shape
    if rows <= cols:
        w, u = np.linalg.eigh(ordered_matmul(m, m.T))
        order = np.argsort(w)[::-1]
        w, u = w[order], u[:, order]
        s = np.sqrt(np.clip(w, 0.0, None))
        safe = np.where(s > 0, s, 1.0)
        vt = ordered_matmul(u.T, m) / safe[:, None]
        return u, s, vt
    w, v = np.linalg.eigh(ordered_matmul(m.T, m))
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    s = np.sqrt(np.clip(w, 0.0, None))
    safe = np.where(s > 0, s, 1.0)
    u = ordered_matmul(m, v) / safe[None, :]
    return u, s, v.T
