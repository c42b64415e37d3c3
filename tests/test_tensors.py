import logging
import os
from pathlib import Path

import numpy as np
import pytest

import helpers
import tnad
from tnad import (
    DegenerateInputError, DimensionError, LegendreFeatureMap, MpsModel, TrainConfig, fit,
    fit_rescaler, tensors, toy_two_clusters, truncated_svd,
)
from tnad.tensors import batched_transfer, single_blas_thread, tree_join


def assert_transfer_matches_einsum(left, tensor, right):
    got = batched_transfer(left, tensor, right)
    expected = np.einsum("bm,mkn,bk->bn", left, tensor, right)
    assert got.shape == expected.shape
    # relative to the sum of absolute terms, so an entry that cancels to
    # near zero is not held to a relative tolerance it cannot meet
    scale = np.einsum("bm,mkn,bk->bn", abs(left), abs(tensor), abs(right))
    assert (np.abs(got - expected) <= 1e-13 * scale).all()


class TestBatchedTransfer:
    """``batched_transfer`` against an ``np.einsum`` reference."""

    @pytest.mark.parametrize(
        "b, m, k, n",
        [
            (9, 1, 5, 7),  # MPS left boundary bond
            (9, 7, 5, 1),  # MPS right boundary bond
            (9, 6, 1, 4),  # phys_dim 1
            (1, 4, 3, 5),  # one sample
            (3, 1, 1, 1),
            (40, 130, 3, 20),  # m > 64: the blocked inner sum
            (25, 200, 5, 40),
        ],
    )
    def test_matches_einsum(self, b, m, k, n):
        rng = np.random.default_rng(b * m + k * n)
        assert_transfer_matches_einsum(
            rng.standard_normal((b, m)), rng.standard_normal((m, k, n)), rng.standard_normal((b, k))
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_random_shapes_and_strided_operands(self, seed):
        rng = np.random.default_rng(100 + seed)
        b, m, k, n = rng.integers(1, 9, size=4)
        assert_transfer_matches_einsum(
            rng.standard_normal((m, b)).T,  # transposed and strided views, as callers pass
            rng.standard_normal((n, k, m)).transpose(2, 1, 0),
            rng.standard_normal((b, 3, k))[:, 1, :],
        )

    @pytest.mark.parametrize(
        "layout", ["tree-node-view", "mps-core"], ids=["strided", "c-contiguous"]
    )
    def test_gives_the_bits_of_the_plain_slice_loop(self, layout):
        rng = np.random.default_rng(12)
        if layout == "tree-node-view":
            # a tree node (d, l, r) seen as (l, r, d), as the message step reads it
            tensor = rng.standard_normal((16, 16, 16)).transpose(1, 2, 0)
        else:
            tensor = rng.standard_normal((40, 5, 40))
        m, k, _ = tensor.shape
        left, right = rng.standard_normal((300, m)), rng.standard_normal((300, k))
        with single_blas_thread():
            expected = left @ tensor[:, 0, :]
            expected *= right[:, :1]
            for j in range(1, k):
                term = left @ tensor[:, j, :]
                term *= right[:, j : j + 1]
                expected += term
            got = batched_transfer(left, tensor, right)
        np.testing.assert_array_equal(got, expected)


class TestTreeJoin:
    """``tree_join`` against an ``np.einsum`` reference."""

    @pytest.mark.parametrize(
        "d, l, r, k0, b0, k1, b1",
        [
            (1, 3, 4, 2, 2, 3, 3),  # the root: parent bond 1
            (2, 1, 1, 3, 3, 2, 2),  # lower legs of extent 1
            (3, 4, 5, 1, 1, 1, 1),  # K = B = 1 on both sides
            (4, 3, 5, 3, 3, 1, 1),  # a side without open legs
            (3, 9, 9, 2, 2, 3, 3),  # l * r = 81 > 64: the blocked sum
            (5, 70, 3, 1, 1, 2, 2),  # l > 64
            (2, 3, 2, 4, 2, 1, 3),  # K != B
        ],
    )
    def test_matches_einsum(self, d, l, r, k0, b0, k1, b1):
        rng = np.random.default_rng(d * l * r + k0 * b1)
        obj0 = rng.standard_normal((l, k0, b0, l))
        obj1 = rng.standard_normal((r, k1, b1, r))
        node = rng.standard_normal((d, l, r))
        got = tree_join(obj0, obj1, node)
        expected = np.einsum("dlr,lKBL,rkbR,DLR->dKkBbD", node, obj0, obj1, node)
        assert got.shape == (d, k0 * k1, b0 * b1, d)
        scale = np.einsum("dlr,lKBL,rkbR,DLR->dKkBbD", *map(abs, (node, obj0, obj1, node)))
        assert (np.abs(got - expected.reshape(got.shape)) <= 1e-13 * scale.reshape(got.shape)).all()


def test_package_has_no_einsum():
    """Contractions go through the named kernels, never a hand-written einsum string."""
    package = Path(tnad.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        assert "np.einsum" not in path.read_text(), f"{path.name} calls np.einsum"


class TestTruncatedSvd:
    def test_diagonal_matrix(self):
        result = truncated_svd(np.diag([3.0, 2.0, 1e-12]), rel_threshold=1e-8)
        assert result.rank == 2
        np.testing.assert_allclose(result.singular_values, [3.0, 2.0])
        np.testing.assert_allclose(result.discarded_weight, 1e-24)

    def test_orthogonal_matrix(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        result = truncated_svd(q, rel_threshold=0.0)
        np.testing.assert_allclose(result.singular_values, np.ones(4), atol=1e-12)
        assert result.discarded_weight == 0.0

    def test_max_rank_truncation_matches_gram_oracle(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((6, 4))
        # independent oracle: eigenvalues of m^T m are squared singular values
        sigma_sq = np.sort(np.linalg.eigvalsh(m.T @ m))[::-1]
        result = truncated_svd(m, max_rank=2)
        recon = result.left_isometry * result.singular_values @ result.right_isometry
        err_sq = np.linalg.norm(m - recon) ** 2
        np.testing.assert_allclose(err_sq, sigma_sq[2] + sigma_sq[3], rtol=1e-10)
        np.testing.assert_allclose(result.discarded_weight, err_sq, rtol=1e-10)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = rng.standard_normal((5, 3))
            r = truncated_svd(m, rel_threshold=0.0, max_rank=3)
            recon = r.left_isometry * r.singular_values @ r.right_isometry
            assert np.linalg.norm(m - recon) <= 1e-10 * np.linalg.norm(m)

    def test_isometries(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((5, 7))
        r = truncated_svd(m, max_rank=3)
        u, vt = r.left_isometry, r.right_isometry
        assert np.abs(u.T @ u - np.eye(3)).max() <= 1e-10
        assert np.abs(vt @ vt.T - np.eye(3)).max() <= 1e-10

    def test_singular_values_sorted_positive(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((4, 6))
        r = truncated_svd(m)
        s = r.singular_values
        assert (s > 0).all()
        assert (np.diff(s) <= 0).all()

    def test_zero_matrix_degenerate(self):
        with pytest.raises(DegenerateInputError):
            truncated_svd(np.zeros((3, 3)))

    def test_non_matrix_rejected(self):
        with pytest.raises(DimensionError):
            truncated_svd(np.ones((2, 2, 2)))

    def test_bad_threshold_rejected(self):
        with pytest.raises(DimensionError):
            truncated_svd(np.eye(2), rel_threshold=1.0)

    def test_rank_one_matrix(self):
        m = np.outer([1.0, 2.0], [3.0, 4.0, 5.0])
        r = truncated_svd(m, rel_threshold=1e-12)
        assert r.rank == 1


class TestGramFallback:
    """``truncated_svd`` when LAPACK's SVD fails to converge."""

    @pytest.fixture(autouse=True)
    def failing_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", refuse)

    @pytest.mark.parametrize("shape", [(5, 9), (9, 5)], ids=["wide", "tall"])
    def test_isometric_factors_and_reconstruction(self, shape):
        m = np.random.default_rng(10).standard_normal(shape)
        r = truncated_svd(m)
        k = min(shape)
        assert r.rank == k
        u, vt = r.left_isometry, r.right_isometry
        assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-10
        assert np.abs(vt @ vt.T - np.eye(k)).max() <= 1e-10
        recon = u * r.singular_values @ vt
        assert np.abs(m - recon).max() <= 1e-10
        assert (np.diff(r.singular_values) <= 0).all()

    @pytest.mark.parametrize("shape", [(5, 9), (9, 5)], ids=["wide", "tall"])
    def test_discarded_weight(self, shape):
        m = np.random.default_rng(11).standard_normal(shape)
        sigma_sq = np.sort(np.linalg.eigvalsh(m.T @ m if shape[0] > shape[1] else m @ m.T))[::-1]
        r = truncated_svd(m, max_rank=2)
        assert r.rank == 2
        np.testing.assert_allclose(r.discarded_weight, sigma_sq[2:].sum(), rtol=1e-10)
        recon = r.left_isometry * r.singular_values @ r.right_isometry
        np.testing.assert_allclose(np.sum((m - recon) ** 2), r.discarded_weight, rtol=1e-10)


def flat_matrix(shape, seed):
    """A Gaussian matrix: its spectrum is flat at the cuts below, like a training split's."""
    return np.random.default_rng(seed).standard_normal(shape)


class TestGramRoute:
    """``tensors._svd_via_gram``, the route of a split at a training threshold, against gesdd."""

    @pytest.mark.parametrize(
        "shape, cap",
        [((200, 200), 40), ((256, 256), 16), ((256, 128), 16), ((128, 256), 16)],
        ids=["mps-200x200", "tree-256x256", "tall-256x128", "wide-128x256"],
    )
    def test_matches_gesdd(self, shape, cap):
        m = flat_matrix(shape, sum(shape) + cap)
        r = tensors._svd_via_gram(m, 1e-4, cap)
        s = np.linalg.svd(m, compute_uv=False)
        assert r.rank == cap
        u, vt = r.left_isometry, r.right_isometry
        assert u.shape == (shape[0], cap) and vt.shape == (cap, shape[1])
        assert np.abs(u.T @ u - np.eye(cap)).max() <= 1e-10
        assert np.abs(vt @ vt.T - np.eye(cap)).max() <= 1e-10
        assert np.abs(r.singular_values - s[:cap]).max() <= 1e-12 * s[0]
        assert abs(r.discarded_weight - np.sum(s[cap:] ** 2)) <= 1e-12 * np.sum(m * m)
        # the factors span the same subspaces as gesdd's, with the same signs
        recon = u * r.singular_values @ vt
        u_ref, _, vt_ref = np.linalg.svd(m, full_matrices=False)
        reference = u_ref[:, :cap] * s[:cap] @ vt_ref[:cap]
        assert np.abs(recon - reference).max() <= 1e-10 * s[0]

    def test_cut_on_the_threshold(self):
        m = np.diag([4.0, 2.0, 1e-3, 1e-5])
        r = tensors._svd_via_gram(m, 1e-4, None)
        assert r.rank == 3
        np.testing.assert_allclose(r.singular_values, [4.0, 2.0, 1e-3], rtol=1e-12)
        assert r.discarded_weight == pytest.approx(1e-10, rel=1e-6)


class TestSplitRoute:
    """Which route ``truncated_svd`` takes, counted at numpy's ``svd`` and ``eigh``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"svd": 0, "eigh": 0}
        for name in counts:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    @pytest.mark.parametrize("cap", [None, 3], ids=["no-cap", "cap"])
    def test_exact_split_takes_gesdd(self, calls, cap):
        truncated_svd(flat_matrix((6, 9), 20), rel_threshold=0.0, max_rank=cap)
        assert calls == {"svd": 1, "eigh": 0}

    def test_below_the_gram_threshold_takes_gesdd(self, calls):
        truncated_svd(flat_matrix((6, 9), 21), rel_threshold=1e-8, max_rank=3)
        assert calls == {"svd": 1, "eigh": 0}

    @pytest.mark.parametrize("cap", [None, 3], ids=["no-cap", "cap"])
    def test_training_threshold_takes_eigh(self, calls, cap):
        truncated_svd(flat_matrix((6, 9), 22), rel_threshold=1e-4, max_rank=cap)
        assert calls == {"svd": 0, "eigh": 1}

    def test_failing_eigh_lands_on_gesdd(self, calls, monkeypatch):
        def refuse(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        m = flat_matrix((6, 9), 23)
        r = truncated_svd(m, rel_threshold=1e-4, max_rank=3)
        assert calls["svd"] == 1
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        np.testing.assert_array_equal(r.singular_values, s[:3])
        np.testing.assert_array_equal(r.left_isometry, u[:, :3])
        np.testing.assert_array_equal(r.right_isometry, vt[:3])
        assert r.discarded_weight == float(np.sum(s[3:] ** 2))

    def test_overflowing_gram_lands_on_gesdd(self, calls):
        q, _ = np.linalg.qr(flat_matrix((4, 4), 24))
        r = truncated_svd(1e155 * q, rel_threshold=1e-4)
        assert calls["svd"] == 1
        np.testing.assert_allclose(r.singular_values, np.full(4, 1e155), rtol=1e-12)
        assert r.discarded_weight == 0.0


def planted_step(seed, rows=256, cols=256, cap=16, noise=0.05):
    """A training split at its cap: ``alpha * A B`` plus a small update, and ``A``.

    ``A`` is ``(rows, cap)``, the bond's current basis weighted by a planted,
    decaying spectrum; ``B`` has orthonormal rows, as the node across the bond.
    """
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((rows, cap)))
    start = basis * np.geomspace(1.0, 0.02, cap)
    across, _ = np.linalg.qr(rng.standard_normal((cols, cap)))
    update = rng.standard_normal((rows, cols)) / np.sqrt(rows * cols)
    return 0.97 * start @ across.T + noise * update, start


def same_split(a, b):
    for field in ("left_isometry", "singular_values", "right_isometry"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    assert a.discarded_weight == b.discarded_weight


class TestSubspaceSplit:
    """The subspace route of ``truncated_svd``: a split at its cap, started from its basis."""

    @pytest.mark.parametrize("seed", range(4))
    def test_close_to_the_exact_split_and_an_honest_account(self, seed):
        m, start = planted_step(seed)
        r = truncated_svd(m, 1e-4, 16, start)
        exact = truncated_svd(m, 1e-4, 16)
        assert (r.route, exact.route) == ("subspace", "gram")
        assert r.rank == exact.rank == 16
        total = float(np.sum(m * m))
        assert r.discarded_weight - exact.discarded_weight <= 1e-3 * total
        u, vt = r.left_isometry, r.right_isometry
        assert np.abs(u.T @ u - np.eye(16)).max() <= 1e-12
        assert np.abs(vt @ vt.T - np.eye(16)).max() <= 1e-12
        # the reported weight is the squared error of the returned split
        assert abs(r.discarded_weight - np.sum((m - u @ (u.T @ m)) ** 2)) <= 1e-12 * total
        recon = u * r.singular_values @ vt
        assert abs(r.discarded_weight - np.sum((m - recon) ** 2)) <= 1e-12 * total
        assert (np.diff(r.singular_values) <= 0).all()

    def test_repeats_bit_for_bit(self):
        m, start = planted_step(7)
        same_split(truncated_svd(m, 1e-4, 16, start), truncated_svd(m, 1e-4, 16, start))

    @pytest.mark.parametrize(
        "threshold, cap, shape",
        [(1e-8, 16, (256, 256)), (0.0, 16, (256, 256)), (1e-4, 40, (200, 200)),
         (1e-4, 22, (256, 256)), (1e-4, 16, (256, 191))],
        ids=["below-gram-threshold", "exact", "mps-200x200-cap-40", "cap-22", "short-side-191"],
    )
    def test_splits_that_do_not_take_the_route_are_exact(self, threshold, cap, shape):
        m, start = planted_step(8, *shape, cap=cap)
        r = truncated_svd(m, threshold, cap, start)
        assert r.route in ("gram", "gesdd")
        same_split(r, truncated_svd(m, threshold, cap))

    def test_start_must_have_the_rows_of_the_matrix(self):
        m, start = planted_step(9)
        with pytest.raises(DimensionError, match="start"):
            truncated_svd(m, 1e-4, 16, start[1:])

    def test_failing_route_falls_back_to_the_exact_split(self, monkeypatch):
        m, start = planted_step(10)
        exact = truncated_svd(m, 1e-4, 16)
        qr = np.linalg.qr
        calls = []

        def refuse_first(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:  # the route's first step
                raise np.linalg.LinAlgError("QR failed")
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", refuse_first)
        r = truncated_svd(m, 1e-4, 16, start)
        assert r.route == "subspace->gram"
        same_split(r, exact)

    def test_overflowing_subspace_falls_back_to_gesdd(self):
        m, start = planted_step(11, 24, 24, cap=2)
        r = truncated_svd(1e155 * m, 1e-4, 2, start)
        assert r.route == "subspace->gram->gesdd"
        s = np.linalg.svd(m, compute_uv=False)
        np.testing.assert_allclose(r.singular_values, 1e155 * s[:2], rtol=1e-12)


class TestSingleBlasThread:
    """The one-thread pin around numpy's OpenBLAS."""

    @pytest.fixture(autouse=True)
    def controls(self):
        """The real (get, set) pair at a thread count of 2, restored afterwards."""
        tensors._thread_controls.cache_clear()
        get, set_ = found = tensors._thread_controls()
        original = get()
        set_(2)
        if get() != 2:
            pytest.skip("numpy's BLAS thread count cannot be set")
        yield found
        set_(original)
        tensors._thread_controls.cache_clear()

    def test_nested_pin_keeps_one_thread_and_outermost_exit_restores(self, controls):
        get, _ = controls
        with single_blas_thread():
            assert get() == 1
            with single_blas_thread():
                assert get() == 1
            assert get() == 1
        assert get() == 2

    def test_missing_symbols_make_the_pin_a_logged_no_op(self, controls, monkeypatch, caplog):
        get, _ = controls
        tensors._thread_controls.cache_clear()
        monkeypatch.setattr(tensors, "_OPENBLAS_SYMBOLS", ("no_such_get", "no_such_set"))
        data = toy_two_clusters(60, 4, seed=0)
        encoder = LegendreFeatureMap(3, fit_rescaler(data))
        model = MpsModel.random(4, 3, init_bond=2, seed=0, encoder=encoder)
        with caplog.at_level(logging.WARNING, logger="tnad.tensors"):
            with single_blas_thread():
                assert get() == 2
            report = fit(model, encoder.encode_batch(data), TrainConfig(sweeps=1))
        assert len(report.nll_trace) == 1
        assert len([r for r in caplog.records if r.name == "tnad.tensors"]) == 1


# Child process for the thread-count test: a truncated SVD of one seeded
# matrix, printed as a hash of its factors' bytes. On the "gram" route
# LAPACK's SVD is made to fail, as in TestGramFallback; a case that names a
# threshold and a cap splits at them (exact splits otherwise).
SVD_CHILD = """
import hashlib, sys
import numpy as np
from tnad import truncated_svd
route, shape, *cut = sys.argv[1].split(":")
rows, cols = map(int, shape.split("x"))
m = np.random.default_rng(7).standard_normal((rows, cols))
if route == "gram":
    def refuse(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    np.linalg.svd = refuse
threshold, cap = (float(cut[0]), int(cut[1])) if cut else (0.0, None)
r = truncated_svd(m, threshold, cap)
factors = (r.left_isometry, r.singular_values, r.right_isometry)
print(hashlib.sha256(b"".join(np.ascontiguousarray(f).tobytes() for f in factors)).hexdigest())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs at least 2 CPUs")
@pytest.mark.parametrize(
    "case",
    ["gram:200x130", "gram:130x200", "gesdd:175x175", "gesdd:256x176", "eigh:256x256:1e-4:16"],
    ids=["tall", "wide", "gesdd-175x175", "gesdd-256x176", "eigh-256x256-cut"],
)
def test_gram_svd_repeats_across_blas_thread_counts(case):
    # the Gram route multiplies by transposed views (m.T, u.T) and by
    # eigh's column-major eigenvectors; gesdd threads its own steps at 154
    # rows or more (an MPS split at bond 35, a tree split at bonds 16 and 11);
    # the last case is a tree split at training's threshold and cap
    one, two = (helpers.run_in_child(SVD_CHILD, case, n) for n in (1, 2))
    assert one == two
