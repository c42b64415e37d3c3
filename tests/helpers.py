"""Brute-force oracles and a child-process runner shared by the test modules.

The oracles go through full coefficient tensors and explicit
einsum/tensordot calls, independent of the library's contraction,
canonicalization, and environment code paths they are used to check.
"""

import os
import subprocess
import sys

import numpy as np

import tnad
from tnad import orthonormal_basis


def run_in_child(source, arg, threads):
    """Run the Python ``source`` with ``arg`` in a child at a BLAS thread count.

    The BLAS reads its thread count when numpy loads, so the count is set
    in the child's environment, never in this process. Returns the
    child's standard output, stripped; a failing child fails the test.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    done = subprocess.run(
        [sys.executable, "-c", source, arg],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def text_encoding() -> str:
    """The encoding a text-mode ``open`` with no ``encoding`` uses here."""
    with open(__file__) as handle:
        return handle.encoding


def text_encoding_decodes(raw: bytes) -> bool:
    try:
        raw.decode(text_encoding())
    except UnicodeDecodeError:
        return False
    return True


def mps_full_tensor(model):
    """Full coefficient tensor of an MPS, shape (N,) * L."""
    theta = model.tensors[0]
    for core in model.tensors[1:]:
        theta = np.tensordot(theta, core, axes=(theta.ndim - 1, 0))
    return theta[0, ..., 0]


def ttn_full_tensor(model):
    """Full coefficient tensor of a TTN over the real features.

    The padded slot (if any) is contracted with the fixed midpoint
    encoding, exactly as the model pins it.
    """

    def rec(u):
        tensor = model.tensors[u]
        if model.children[u] is None:
            return tensor, [f for kind, f in model.axis_spec(u) if kind == "phys"]
        c0, c1 = model.children[u]
        t0, feats0 = rec(c0)
        t1, feats1 = rec(c1)
        out = np.tensordot(tensor, t0, axes=(1, 0))
        out = np.tensordot(out, t1, axes=(1, 0))
        return out, feats0 + feats1

    theta, feats = rec(0)
    theta = theta.take(0, axis=0)  # the root's up bond: extent 1, no node behind it
    order = np.argsort(feats)
    theta = np.transpose(theta, order)
    if model.padding:
        pad = orthonormal_basis(model.phys_dim, 0.5)
        theta = np.tensordot(theta, pad, axes=(theta.ndim - 1, 0))
    return theta


def full_tensor(model):
    return mps_full_tensor(model) if isinstance(model, tnad.MpsModel) else ttn_full_tensor(model)


def mps_full_tensor_with_merged(model, site, merged):
    """Full tensor with cores ``site`` and ``site + 1`` replaced by ``merged``."""
    pieces = model.tensors[:site] + [merged] + model.tensors[site + 2 :]
    theta = pieces[0]
    for piece in pieces[1:]:
        theta = np.tensordot(theta, piece, axes=(theta.ndim - 1, 0))
    return theta[0, ..., 0]


def _ttn_subtree_tensor(model, node, toward):
    """Everything on ``node``'s side of edge (node, toward): (bond, feats...)."""
    tensor = model.tensors[node]
    out_axis = model.axis_to(node, toward)
    spec = model.axis_spec(node)
    work = np.moveaxis(tensor, out_axis, 0)
    feats = []
    axis_cursor = 1
    for ax, (kind, ref) in enumerate(spec):
        if ax == out_axis:
            continue
        if kind == "phys":
            feats.append(ref)
            axis_cursor += 1
        elif ref < 0:
            work = work.take(0, axis=axis_cursor)  # the root's up bond: no node behind it
        else:
            sub, sub_feats = _ttn_subtree_tensor(model, ref, node)
            work = np.tensordot(work, sub, axes=(axis_cursor, 0))
            # contracted axis is consumed; subtree features land at the end
            work = np.moveaxis(
                work, list(range(work.ndim - len(sub_feats), work.ndim)),
                list(range(axis_cursor, axis_cursor + len(sub_feats))),
            )
            feats.extend(sub_feats)
            axis_cursor += len(sub_feats)
    return work, feats


def ttn_full_tensor_with_merged(model, edge, merged):
    """Full tensor (over real features) with the edge pair replaced by ``merged``."""
    a, b = edge
    theta = merged
    feats = []
    cursor = 0
    for node, other in ((a, b), (b, a)):
        for ax, (kind, ref) in enumerate(model.axis_spec(node)):
            if ax == model.axis_to(node, other):
                continue
            if kind == "phys":
                feats.append(ref)
                cursor += 1
            elif ref < 0:
                theta = theta.take(0, axis=cursor)  # the root's up bond: no node behind it
            else:
                sub, sub_feats = _ttn_subtree_tensor(model, ref, node)
                theta = np.tensordot(theta, sub, axes=(cursor, 0))
                theta = np.moveaxis(
                    theta, list(range(theta.ndim - len(sub_feats), theta.ndim)),
                    list(range(cursor, cursor + len(sub_feats))),
                )
                feats.extend(sub_feats)
                cursor += len(sub_feats)
    theta = np.transpose(theta, np.argsort(feats))
    if model.padding:
        pad = orthonormal_basis(model.phys_dim, 0.5)
        theta = np.tensordot(theta, pad, axes=(theta.ndim - 1, 0))
    return theta


def full_tensor_with_merged(model, edge, merged):
    """Full tensor with the edge pair replaced by ``merged``, in ``merge_edge``'s edge order.

    A right-to-left MPS edge ``(i + 1, i)`` merges as ``(p, r, l, p)``; it is
    transposed back to the chain's ``(l, p, p, r)``.
    """
    if isinstance(model, tnad.MpsModel):
        if edge[0] > edge[1]:
            merged = np.transpose(merged, (2, 3, 0, 1))
        return mps_full_tensor_with_merged(model, min(edge), merged)
    return ttn_full_tensor_with_merged(model, edge, merged)


def brute_amplitude(theta, encoded_sample):
    """Contract a full coefficient tensor with one encoded sample (L, N)."""
    out = theta
    for i in range(encoded_sample.shape[0]):
        out = np.tensordot(out, encoded_sample[i], axes=(0, 0))
    return float(out)


def brute_rdm(theta, targets, conditions=None, phys_dim=2):
    """Reduced density matrix by explicit partial trace of the full tensor.

    ``conditions`` maps site -> rescaled value; conditioned sites are
    contracted with their encodings before tracing. Rows/columns run
    row-major over ``targets`` in the order given.
    """
    conditions = conditions or {}
    n_sites = theta.ndim
    work = theta
    remaining = list(range(n_sites))
    for site in sorted(conditions, reverse=True):
        vec = orthonormal_basis(phys_dim, conditions[site])
        axis = remaining.index(site)
        work = np.tensordot(work, vec, axes=(axis, 0))
        remaining.remove(site)
    other_axes = [i for i, s in enumerate(remaining) if s not in set(targets)]
    rho = np.tensordot(work, work, axes=(other_axes, other_axes))
    kept = [s for s in remaining if s in set(targets)]
    perm = [kept.index(t) for t in targets]
    k = len(targets)
    rho = np.transpose(rho, perm + [k + p for p in perm])
    rho = rho.reshape(phys_dim**k, phys_dim**k)
    return rho / np.trace(rho)


def reference_step(model, edge, batch, learning_rate, inner_steps):
    """Tensor-space two-site update under the "skip" policy, by full tensors.

    Each sample's amplitude is linear in the merged tensor at ``edge``; its
    coefficients come from full coefficient tensors, one per unit merged
    tensor. The NLL gradient is summed from them explicitly and every trial
    tensor ``(merged - size * grad) / norm`` is formed and normalized. The
    line search is the library's rule: the first trial is
    ``learning_rate``; while trials descend the step doubles, at most 3
    times, else it halves, at most 10 times, until one descends; a trial
    that zeroes more samples never descends. Returns the merged tensor
    after ``inner_steps`` updates (or the first that finds no descent) and
    its loss on ``batch``.
    """
    original = model.merge_edge(edge)
    units = np.eye(original.size).reshape((original.size,) + original.shape)
    thetas = [full_tensor_with_merged(model, edge, unit) for unit in units]
    design = np.array([[brute_amplitude(theta, sample) for theta in thetas] for sample in batch])

    def point(merged):
        psi = design @ merged.reshape(-1)
        kept = psi != 0.0
        loss = -2.0 * np.mean(np.log(np.abs(psi[kept])))
        return {"merged": merged, "psi": psi, "loss": loss, "zeros": int((~kept).sum())}

    def descends(trial, base):
        return trial["loss"] < base["loss"] and trial["zeros"] <= base["zeros"]

    current = point(original)
    for _ in range(inner_steps):
        psi, merged = current["psi"], current["merged"]
        kept = psi != 0.0
        grad = (-2.0 / kept.sum()) * (design[kept] / psi[kept, None]).sum(axis=0)

        def trial(size):
            moved = merged - size * grad.reshape(merged.shape)
            return point(moved / np.linalg.norm(moved))

        step = learning_rate
        found = trial(step)
        if descends(found, current):
            for _ in range(3):
                step *= 2.0
                longer = trial(step)
                if not descends(longer, found):
                    break
                found = longer
        else:
            found = None
            for _ in range(10):
                step *= 0.5
                shorter = trial(step)
                if descends(shorter, current):
                    found = shorter
                    break
        if found is None:
            break
        current = found
    return current["merged"], current["loss"]


def brute_entropy(matrix):
    lam = np.linalg.eigvalsh(matrix)
    lam = lam[lam > 1e-14]
    return float(-(lam * np.log(lam)).sum())


def brute_log_amplitude(model, encoded_sample):
    theta = full_tensor(model)
    amp = brute_amplitude(theta, np.asarray(encoded_sample))
    return (np.log(abs(amp)) if amp != 0 else -np.inf), (1.0 if amp >= 0 else -1.0)


def legendre_table_out_of_place(n_max, x):
    """Rows 0..n_max of the shifted Legendre recurrence, each formed out of place.

    The formulas as they stood before the library wrote them into arrays it
    owns: same operand order, so the bits must agree.
    """
    t = 2.0 * x - 1.0
    table = np.empty((n_max + 1,) + x.shape, dtype=np.float64)
    table[0] = 1.0
    if n_max >= 1:
        table[1] = t
    for k in range(1, n_max):
        table[k + 1] = ((2 * k + 1) * t * table[k] - k * table[k - 1]) / (k + 1)
    return table


def orthonormal_basis_out_of_place(n_functions, x):
    """``sqrt(2n + 1) P_n(2x - 1)`` for n < ``n_functions``, shape ``(n_functions,) + shape(x)``."""
    arr = np.asarray(x, dtype=np.float64)
    table = legendre_table_out_of_place(n_functions - 1, np.atleast_1d(arr))
    scale = np.sqrt(2.0 * np.arange(n_functions) + 1.0)
    basis = scale.reshape((n_functions,) + (1,) * (table.ndim - 1)) * table
    return basis[:, 0] if arr.ndim == 0 else basis


def encode_out_of_place(feature_map, raw):
    """Rescale, clip and encode raw values ``(..., n_features)`` out of place."""
    rescaler = feature_map.rescaler
    raw = np.asarray(raw, dtype=np.float64)
    scaled = np.clip((raw - rescaler.minimum) / (rescaler.maximum - rescaler.minimum), 0.0, 1.0)
    return np.moveaxis(orthonormal_basis_out_of_place(feature_map.n_functions, scaled), 0, -1)


def random_encoded(rng, n_samples, n_sites, phys_dim):
    """Random "encodings" (any real vectors work for multilinear checks)."""
    return rng.standard_normal((n_samples, n_sites, phys_dim)) + 0.2


def unit_rescaler(n_features):
    """The rescaler that maps every feature's [0, 1] onto itself."""
    return tnad.FeatureRescaler(np.zeros(n_features), np.ones(n_features))


def random_unit_samples(rng, n_samples, n_sites):
    return rng.uniform(0.0, 1.0, size=(n_samples, n_sites))


def histogram2d_mi(data, i, j):
    """Plug-in MI of columns ``i`` and ``j`` from ``np.histogram2d`` counts.

    The estimator as it stood before the library binned each column once:
    equal-width bins from the low-bias bin-count rule, 0 for a constant
    column.
    """
    data = np.asarray(data, dtype=np.float64)
    x, y = data[:, i], data[:, j]
    if x.min() == x.max() or y.min() == y.max():
        return 0.0
    joint, _, _ = np.histogram2d(x, y, bins=tnad.histogram_bin_count(data.shape[0]))
    joint /= joint.sum()
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    mask = joint > 0.0
    denominator = np.outer(px, py)
    mi = float((joint[mask] * np.log(joint[mask] / denominator[mask])).sum())
    return max(mi, 0.0)
