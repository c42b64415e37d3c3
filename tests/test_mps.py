import numpy as np
import pytest

import helpers
from tnad import DataError, MpsModel


class TestInit:
    def test_smallest_chain_shapes(self):
        m = MpsModel.random(2, 2, init_bond=1, seed=0)
        assert [c.shape for c in m.tensors] == [(1, 2, 1), (1, 2, 1)]
        assert m.state_norm() == pytest.approx(1.0, abs=1e-12)

    def test_same_seed_bitwise_identical(self):
        a = MpsModel.random(5, 3, init_bond=4, seed=11)
        b = MpsModel.random(5, 3, init_bond=4, seed=11)
        for ca, cb in zip(a.tensors, b.tensors):
            np.testing.assert_array_equal(ca, cb)

    def test_bonds_capped_at_exact_ranks(self):
        m = MpsModel.random(4, 2, init_bond=8, seed=0)
        assert m.bond_profile() == [2, 4, 2]

    def test_bond_cap_invariant(self):
        for seed in range(5):
            m = MpsModel.random(6, 2, init_bond=50, seed=seed)
            for j, d in enumerate(m.bond_profile(), start=1):
                assert d <= min(2**j, 2 ** (6 - j))

    def test_canonical_after_init(self):
        m = MpsModel.random(7, 3, init_bond=5, seed=3)
        assert m.center == 0
        assert m.isometry_defect() <= 1e-10

    def test_long_chain_norm_does_not_underflow(self):
        # the unnormalized norm carried to site 0 is far below the smallest double
        m = MpsModel.random(1500, 2, seed=0)
        assert m.state_norm() == pytest.approx(1.0, abs=1e-12)
        assert m.isometry_defect() < 1e-10

    def test_bad_arguments(self):
        with pytest.raises(DataError):
            MpsModel.random(1, 2)
        with pytest.raises(DataError):
            MpsModel.random(3, 0)


class TestLogAmplitude:
    def test_product_state_factorizes(self):
        u = np.array([0.6, 0.8]).reshape(1, 2, 1)
        v = np.array([0.8, -0.6]).reshape(1, 2, 1)
        m = MpsModel([u, v], center=0)
        x1, x2 = np.array([1.0, 2.0]), np.array([0.5, 0.3])
        log_abs, sign = m.log_amplitudes(np.stack([x1, x2])[None])
        expected = (u[0, :, 0] @ x1) * (v[0, :, 0] @ x2)
        assert sign * np.exp(log_abs) == pytest.approx(expected, rel=1e-12)

    def test_matches_full_tensor_oracle(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            m = MpsModel.random(3, 2, init_bond=2, seed=seed)
            theta = helpers.mps_full_tensor(m)
            batch = helpers.random_encoded(rng, 4, 3, 2)
            log_abs, sign = m.log_amplitudes(batch)
            for b in range(4):
                expected = helpers.brute_amplitude(theta, batch[b])
                assert sign[b] * np.exp(log_abs[b]) == pytest.approx(expected, rel=1e-10)

    def test_core_scaling_shifts_log(self):
        rng = np.random.default_rng(1)
        m = MpsModel.random(4, 2, init_bond=2, seed=5)
        batch = helpers.random_encoded(rng, 3, 4, 2)
        before, _ = m.log_amplitudes(batch)
        scale = 7.5
        m.tensors[2] = m.tensors[2] * scale
        after, _ = m.log_amplitudes(batch)
        np.testing.assert_allclose(after - before, np.log(scale), atol=1e-12)

    def test_zero_amplitude_sentinel(self):
        u = np.array([1.0, 0.0]).reshape(1, 2, 1)
        m = MpsModel([u, u.copy()], center=0)
        encoded = np.array([[0.0, 1.0], [1.0, 1.0]])  # first site orthogonal to core
        log_abs, _ = m.log_amplitudes(encoded[None])
        assert log_abs[0] == -np.inf

    def test_long_chain_no_underflow(self):
        m = MpsModel.random(120, 2, init_bond=3, seed=2)
        rng = np.random.default_rng(3)
        batch = helpers.random_encoded(rng, 2, 120, 2)
        log_abs, _ = m.log_amplitudes(batch)
        assert np.isfinite(log_abs).all()


class TestCanonicalize:
    def test_noop_when_centered(self):
        m = MpsModel.random(4, 2, init_bond=2, seed=7)
        before = [c.copy() for c in m.tensors]
        m.canonicalize(0)
        for a, b in zip(before, m.tensors):
            np.testing.assert_array_equal(a, b)

    def test_isometries_toward_center(self):
        m = MpsModel.random(6, 2, init_bond=4, seed=8)
        for target in (3, 5, 0, 2):
            m.canonicalize(target)
            assert m.center == target
            assert m.isometry_defect() <= 1e-10

    def test_amplitudes_preserved(self):
        rng = np.random.default_rng(4)
        m = MpsModel.random(6, 2, init_bond=4, seed=9)
        batch = helpers.random_encoded(rng, 20, 6, 2)
        reference, ref_sign = m.log_amplitudes(batch)
        for target in (5, 2, 4, 0):
            m.canonicalize(target)
            log_abs, sign = m.log_amplitudes(batch)
            np.testing.assert_allclose(log_abs, reference, rtol=1e-10, atol=1e-10)
            np.testing.assert_array_equal(sign, ref_sign)


class TestMergeSplit:
    def test_bond_one_merge_is_outer_product(self):
        u = np.array([0.6, 0.8]).reshape(1, 2, 1)
        v = np.array([0.8, -0.6]).reshape(1, 2, 1)
        m = MpsModel([u, v], center=0)
        merged = m.merge_edge((0, 1))
        np.testing.assert_allclose(
            merged[0, :, :, 0], np.outer(u[0, :, 0], v[0, :, 0]), atol=1e-14
        )

    def test_merge_shape_contract(self):
        m = MpsModel.random(4, 2, init_bond=3, seed=0)
        assert m.bond_profile() == [2, 3, 2]
        m.canonicalize(1)
        assert m.merge_edge((1, 2)).shape == (2, 2, 2, 2)

    def test_merge_requires_center_at_bond(self):
        m = MpsModel.random(5, 2, init_bond=2, seed=1)
        m.canonicalize(0)
        with pytest.raises(DataError, match="center"):
            m.merge_edge((3, 4))

    def test_split_roundtrip_preserves_amplitudes(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            m = MpsModel.random(5, 2, init_bond=3, seed=seed)
            batch = helpers.random_encoded(rng, 10, 5, 2)
            reference, _ = m.log_amplitudes(batch)
            m.canonicalize(2)
            merged = m.merge_edge((2, 3))
            m.split_edge((2, 3), merged, rel_threshold=0.0)
            assert m.center == 3
            log_abs, _ = m.log_amplitudes(batch)
            np.testing.assert_allclose(log_abs, reference, rtol=1e-10, atol=1e-10)

    def test_product_state_splits_to_rank_one(self):
        u = np.array([0.6, 0.8]).reshape(1, 2, 1)
        v = np.array([0.8, -0.6]).reshape(1, 2, 1)
        m = MpsModel([u, v], center=0)
        merged = m.merge_edge((0, 1))
        m.split_edge((0, 1), merged, rel_threshold=1e-10)
        assert m.bond_profile() == [1]

    def test_max_rank_truncation_matches_svd_oracle(self):
        m = MpsModel.random(2, 2, init_bond=2, seed=13)
        m.canonicalize(0)
        merged = m.merge_edge((0, 1))
        matrix = merged.reshape(2, 2)
        sigma_sq = np.sort(np.linalg.eigvalsh(matrix.T @ matrix))[::-1]
        discarded = m.split_edge((0, 1), merged, max_rank=1).discarded_weight
        assert discarded > 0
        np.testing.assert_allclose(discarded, sigma_sq[1], rtol=1e-10)
        assert m.bond_profile() == [1]

    def test_unit_norm_after_split(self):
        m = MpsModel.random(4, 3, init_bond=4, seed=2)
        m.canonicalize(1)
        merged = m.merge_edge((2, 1))
        m.split_edge((2, 1), merged, rel_threshold=0.2)
        assert m.state_norm() == pytest.approx(1.0, abs=1e-8)
        assert m.isometry_defect() <= 1e-10

    def test_split_left_moves_center(self):
        m = MpsModel.random(4, 2, init_bond=2, seed=3)
        m.canonicalize(2)
        merged = m.merge_edge((2, 1))
        m.split_edge((2, 1), merged)
        assert m.center == 1


class TestSweepInterface:
    def test_schedule_covers_all_bonds_twice(self):
        m = MpsModel.random(5, 2, init_bond=2, seed=0)
        schedule = m.sweep_schedule()
        assert len(schedule) == 2 * 4
        assert schedule[0] == (0, 1)
        assert schedule[-1] == (1, 0)
        for (a, b), (c, d) in zip(schedule, schedule[1:]):
            assert b == c  # consecutive edges share the moving center

    def test_edge_split_direction(self):
        m = MpsModel.random(3, 2, init_bond=2, seed=1)
        m.canonicalize(1)
        merged = m.merge_edge((2, 1))
        m.split_edge((2, 1), merged)
        assert m.center == 1
