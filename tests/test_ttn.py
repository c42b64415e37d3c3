import itertools

import numpy as np
import pytest

import helpers
from tnad import DataError, TtnModel, gauss_legendre_unit, orthonormal_basis, score_samples
from tnad.network import PAD_VALUE
from tnad.tensors import truncated_svd


class TestBuild:
    def test_smallest_tree(self):
        t = TtnModel.random(4, 2, init_bond=4, seed=0)
        assert t.padding == 0
        leaves = t.leaf_ids()
        assert len(leaves) == 2
        # the root's up bond comes first, with extent 1 and no node behind it
        assert t.axis_spec(0)[0] == ("bond", -1)
        assert t.tensors[0].shape == (1, 4, 4)
        for leaf in leaves:
            assert t.tensors[leaf].shape[1:] == (2, 2)

    def test_fiftyseven_features_pads_to_29_leaves(self):
        t = TtnModel.random(57, 2, init_bond=2, seed=0)
        assert t.padding == 1
        assert len(t.leaf_ids()) == 29

    def test_bond_caps_at_exact_ranks(self):
        t = TtnModel.random(8, 2, init_bond=1000, seed=0)
        for leaf in t.leaf_ids():
            assert t.tensors[leaf].shape[0] <= 4  # two physical legs below
        below = {}
        for u in reversed(range(t.n_nodes)):  # children come after their parents
            kids = t.children[u]
            legs = sum(kind == "phys" for kind, _ in t.axis_spec(u))
            below[u] = legs if kids is None else below[kids[0]] + below[kids[1]]
        padded = t.n_features + t.padding
        for u in range(1, t.n_nodes):
            assert t.tensors[u].shape[0] <= min(2 ** below[u], 2 ** (padded - below[u]))

    def test_same_seed_identical(self):
        a = TtnModel.random(6, 3, init_bond=3, seed=4)
        b = TtnModel.random(6, 3, init_bond=3, seed=4)
        for ta, tb in zip(a.tensors, b.tensors):
            np.testing.assert_array_equal(ta, tb)

    def test_center_is_rightmost_leaf(self):
        t = TtnModel.random(10, 2, init_bond=2, seed=1)
        assert t.center == t.leaf_ids()[-1]
        assert t.state_norm() == pytest.approx(1.0, abs=1e-12)
        assert t.isometry_defect() <= 1e-10

    def test_two_features_rejected(self):
        with pytest.raises(DataError):
            TtnModel.random(2, 2)


class TestTraversal:
    def test_two_leaf_schedule(self):
        t = TtnModel.random(4, 2, init_bond=2, seed=0)
        leaf1, leaf2 = t.leaf_ids()
        root = 0
        assert t.sweep_start() == leaf2
        assert t.sweep_schedule() == [
            (leaf2, root), (root, leaf1), (leaf1, root), (root, leaf2)
        ]

    def test_every_edge_twice_and_closed(self):
        t = TtnModel.random(12, 2, init_bond=2, seed=1)
        schedule = t.sweep_schedule()
        counts = {}
        for edge in schedule:
            counts[edge] = counts.get(edge, 0) + 1
        assert all(c == 1 for c in counts.values())
        assert len(schedule) == 2 * (t.n_nodes - 1)
        assert schedule[0][0] == t.sweep_start()
        assert schedule[-1][1] == t.sweep_start()
        for (a, b), (c, d) in zip(schedule, schedule[1:]):
            assert b == c

    def test_interior_leaves_bounce(self):
        t = TtnModel.random(10, 2, init_bond=2, seed=2)
        schedule = t.sweep_schedule()
        start = t.sweep_start()
        for i, (a, b) in enumerate(schedule):
            if b in t.leaf_ids() and b != start:
                assert schedule[i + 1] == (b, a)  # entered only to leave upward


class TestLogAmplitude:
    @pytest.mark.parametrize("n_features", [3, 4, 5, 6])
    def test_matches_full_tensor_oracle(self, n_features):
        rng = np.random.default_rng(n_features)
        t = TtnModel.random(n_features, 2, init_bond=3, seed=n_features)
        theta = helpers.ttn_full_tensor(t)
        batch = helpers.random_encoded(rng, 5, n_features, 2)
        log_abs, sign = t.log_amplitudes(batch)
        for b in range(5):
            expected = helpers.brute_amplitude(theta, batch[b])
            assert sign[b] * np.exp(log_abs[b]) == pytest.approx(expected, rel=1e-10)

    def test_product_tree_factorizes(self):
        t = TtnModel.random(4, 2, init_bond=1, seed=0)
        rng = np.random.default_rng(0)
        batch = helpers.random_encoded(rng, 3, 4, 2)
        theta = helpers.ttn_full_tensor(t)
        log_abs, sign = t.log_amplitudes(batch)
        for b in range(3):
            expected = helpers.brute_amplitude(theta, batch[b])
            assert sign[b] * np.exp(log_abs[b]) == pytest.approx(expected, rel=1e-10)

    def test_padded_slot_is_constant(self):
        # the dummy feature is pinned internally: the encoded batch carries
        # only real features, and amplitudes are well-defined without it
        t = TtnModel.random(5, 2, init_bond=2, seed=3)
        rng = np.random.default_rng(1)
        batch = helpers.random_encoded(rng, 4, 5, 2)
        first, _ = t.log_amplitudes(batch)
        second, _ = t.log_amplitudes(batch)
        np.testing.assert_array_equal(first, second)
        dummy = t.feature_leg(batch, 5)
        assert dummy.shape == (4, 2)
        np.testing.assert_array_equal(dummy, np.tile(orthonormal_basis(2, PAD_VALUE), (4, 1)))

    @pytest.mark.parametrize("n_features, phys_dim", [(3, 2), (5, 3), (7, 3)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_padded_density_mass_is_the_pinned_dummy_density(self, n_features, phys_dim, seed):
        # the density over the real features integrates to phi(0.5)^T rho phi(0.5),
        # rho the dummy leg's density in the unit-norm state, not to one
        t = TtnModel.random(n_features, phys_dim, init_bond=4, seed=seed)
        leaf, axis = next((u, ax) for u in t.leaf_ids()
                          for ax, spec in enumerate(t.axis_spec(u)) if spec == ("phys", n_features))
        t.canonicalize(leaf)
        node = np.moveaxis(t.tensors[leaf], axis, -1).reshape(-1, phys_dim)
        rho = node.T @ node
        pad = orthonormal_basis(phys_dim, PAD_VALUE)
        # Gauss-Legendre with phys_dim nodes per axis is exact for psi^2
        nodes, weights = gauss_legendre_unit(phys_dim)
        grid = np.array(list(itertools.product(range(phys_dim), repeat=n_features)))
        encoded = np.ascontiguousarray(np.moveaxis(orthonormal_basis(phys_dim, nodes[grid]), 0, -1))
        mass = weights[grid].prod(axis=1) @ np.exp(-score_samples(t, encoded))
        assert mass == pytest.approx(pad @ rho @ pad, rel=0, abs=1e-12)
        assert mass <= pad @ pad + 1e-12


class TestCanonicalize:
    def test_gauge_invariance(self):
        rng = np.random.default_rng(2)
        t = TtnModel.random(8, 2, init_bond=4, seed=5)
        batch = helpers.random_encoded(rng, 10, 8, 2)
        reference, ref_sign = t.log_amplitudes(batch)
        for target in (0, 3, t.n_nodes - 1, 1):
            t.canonicalize(target)
            assert t.center == target
            assert t.isometry_defect() <= 1e-10
            log_abs, sign = t.log_amplitudes(batch)
            np.testing.assert_allclose(log_abs, reference, rtol=1e-10, atol=1e-10)
            np.testing.assert_array_equal(sign, ref_sign)


class TestMergeSplit:
    def test_merge_root_leaf_shape(self):
        t = TtnModel.random(4, 2, init_bond=4, seed=0)
        leaf1, leaf2 = t.leaf_ids()
        t.canonicalize(0)
        merged = t.merge_edge((0, leaf1))
        # root's up bond and remaining child bond, then the leaf's two physical legs
        assert merged.shape == (1, t.tensors[leaf2].shape[0], 2, 2)
        assert merged.size == 2**4

    def test_split_roundtrip_preserves_amplitudes(self):
        rng = np.random.default_rng(3)
        for n_features in (4, 6, 7):
            t = TtnModel.random(n_features, 2, init_bond=3, seed=n_features)
            batch = helpers.random_encoded(rng, 8, n_features, 2)
            reference, _ = t.log_amplitudes(batch)
            for edge in t.sweep_schedule()[:4]:
                t.canonicalize(edge[0])
                merged = t.merge_edge(edge)
                t.split_edge(edge, merged, rel_threshold=0.0)
                assert t.center == edge[1]
                log_abs, _ = t.log_amplitudes(batch)
                np.testing.assert_allclose(log_abs, reference, rtol=1e-10, atol=1e-10)

    def test_split_renormalizes(self):
        t = TtnModel.random(6, 2, init_bond=4, seed=1)
        edge = t.sweep_schedule()[0]
        t.canonicalize(edge[0])
        merged = t.merge_edge(edge)
        t.split_edge(edge, merged, rel_threshold=0.3)
        assert t.state_norm() == pytest.approx(1.0, abs=1e-8)
        assert t.isometry_defect() <= 1e-10

    def test_merge_rejects_non_edge(self):
        t = TtnModel.random(8, 2, init_bond=2, seed=2)
        leaves = t.leaf_ids()
        with pytest.raises(DataError):
            t.merge_edge((leaves[0], leaves[1]))

    def test_merge_requires_center_at_edge(self):
        t = TtnModel.random(6, 2, init_bond=2, seed=3)
        t.canonicalize(0)
        deep_leaf = t.leaf_ids()[0]  # parent is an internal node, not the root
        assert t.parents[deep_leaf] != 0
        with pytest.raises(DataError, match="center"):
            t.merge_edge((deep_leaf, t.parents[deep_leaf]))


class TestWarmStartSplit:
    """``split_edge`` starts a split from the bond's basis only at its cap."""

    def case(self):
        """A 16-feature tree at bond 16, centered on an edge between two inner
        nodes (a 256 x 256 split), and a merged tensor a step away from its state."""
        t = TtnModel.random(16, 5, init_bond=16, seed=4)
        for edge in t.sweep_schedule():
            t.canonicalize(edge[0])
            merged = t.merge_edge(edge)
            if merged.shape == (16, 16, 16, 16):
                break
        rng = np.random.default_rng(5)
        merged = merged + 0.02 * rng.standard_normal(merged.shape) / 256
        return t, edge, merged

    def test_split_at_the_cap_is_a_subspace_split(self):
        t, edge, merged = self.case()
        result = t.split_edge(edge, merged, 1e-4, 16)
        assert result.route == "subspace"
        assert result.rank == 16
        assert t.state_norm() == pytest.approx(1.0, abs=1e-12)
        assert t.isometry_defect() <= 1e-12

    @pytest.mark.parametrize("max_rank, rel_threshold, route", [(20, 1e-4, "gram"),
                                                                (16, 0.0, "gesdd")],
                             ids=["bond-below-cap", "exact-threshold"])
    def test_other_splits_are_exact(self, max_rank, rel_threshold, route):
        t, edge, merged = self.case()
        got = t.split_edge(edge, merged, rel_threshold, max_rank)
        want = truncated_svd(merged.reshape(256, 256), rel_threshold, max_rank)
        assert got.route == want.route == route
        np.testing.assert_array_equal(got.singular_values, want.singular_values)
        np.testing.assert_array_equal(got.left_isometry, want.left_isometry)
        assert got.discarded_weight == want.discarded_weight
