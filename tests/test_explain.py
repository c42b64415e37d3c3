import ast
import logging
import os
import re
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import helpers
import tnad
from tnad import (
    ConditioningError,
    DataError,
    LegendreFeatureMap,
    MpsModel,
    NumericalError,
    ReducedDensityMatrix,
    ResourceLimitError,
    TrainConfig,
    TtnModel,
    all_to_all_mi,
    conditional_expectations,
    conditional_rdm,
    explain_sample,
    fit,
    fit_rescaler,
    flag_features,
    gauss_legendre_unit,
    marginal_moments,
    mutual_information,
    orthonormal_basis,
    reduced_density_matrix,
    toy_correlated_pairs,
    von_neumann_entropy,
)


def test_explain_has_one_path_for_both_model_kinds():
    """Explanations run on the shared engine alone: no model-kind import or dispatch."""
    source = (Path(tnad.__file__).resolve().parent / "explain.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert not {name.rpartition(".")[2] for name in imported} & {"mps", "ttn"}
    assert "isinstance(model" not in source


def product_mps(vectors):
    cores = [np.asarray(v, dtype=float).reshape(1, -1, 1) for v in vectors]
    model = MpsModel(cores, center=len(cores) - 1)
    model.canonicalize(0)
    model.normalize()
    return model


def rdm_invariants(rdm):
    assert np.abs(rdm.matrix - rdm.matrix.T).max() <= 1e-10
    assert np.linalg.eigvalsh(rdm.matrix).min() >= -1e-10
    assert np.trace(rdm.matrix) == pytest.approx(1.0, abs=1e-10)


class TestReducedDensityMatrix:
    def test_product_state_single_sites_pure(self):
        model = product_mps([[0.6, 0.8], [1.0, 2.0], [3.0, -1.0]])
        for i in range(3):
            rdm = reduced_density_matrix(model, (i,))
            rdm_invariants(rdm)
            assert np.trace(rdm.matrix @ rdm.matrix) == pytest.approx(1.0, abs=1e-10)

    def test_full_system_rdm_is_pure(self):
        model = MpsModel.random(3, 2, init_bond=2, seed=0)
        rdm = reduced_density_matrix(model, (0, 1, 2))
        rdm_invariants(rdm)
        assert np.trace(rdm.matrix @ rdm.matrix) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("sites", [(0,), (2,), (1, 2), (0, 3), (0, 2, 3), (3, 0, 2)])
    def test_mps_matches_brute_force(self, sites):
        for seed in range(3):
            model = MpsModel.random(4, 2, init_bond=3, seed=seed)
            theta = helpers.mps_full_tensor(model)
            expected = helpers.brute_rdm(theta, sites, phys_dim=2)
            rdm = reduced_density_matrix(model, sites)
            rdm_invariants(rdm)
            np.testing.assert_allclose(rdm.matrix, expected, atol=1e-10)

    @pytest.mark.parametrize("sites", [(0,), (3,), (1, 2), (0, 4), (2, 3), (4, 0, 3)])
    def test_ttn_matches_brute_force(self, sites):
        for n_features, seed in ((4, 0), (5, 1), (6, 2)):
            if max(sites) >= n_features:
                continue
            model = TtnModel.random(n_features, 2, init_bond=3, seed=seed)
            theta = helpers.ttn_full_tensor(model)
            expected = helpers.brute_rdm(theta, sites, phys_dim=2)
            rdm = reduced_density_matrix(model, sites)
            rdm_invariants(rdm)
            np.testing.assert_allclose(rdm.matrix, expected, atol=1e-10)

    def test_site_order_permutes_legs(self):
        model = MpsModel.random(4, 2, init_bond=2, seed=5)
        theta = helpers.mps_full_tensor(model)
        forward = reduced_density_matrix(model, (1, 3))
        reverse = reduced_density_matrix(model, (3, 1))
        np.testing.assert_allclose(
            reverse.matrix, helpers.brute_rdm(theta, (3, 1), phys_dim=2), atol=1e-10
        )
        swapped = forward.matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        np.testing.assert_allclose(reverse.matrix, swapped, atol=1e-12)

    def test_budget_guard(self):
        model = MpsModel.random(12, 4, init_bond=2, seed=0)
        with pytest.raises(ResourceLimitError):
            reduced_density_matrix(model, tuple(range(8)))

    def test_bad_sites(self):
        model = MpsModel.random(4, 2, seed=0)
        with pytest.raises(DataError):
            reduced_density_matrix(model, ())
        with pytest.raises(DataError):
            reduced_density_matrix(model, (0, 0))
        with pytest.raises(DataError):
            reduced_density_matrix(model, (9,))

    def test_feature_indices_must_be_integers(self):
        """A float index is refused, not truncated to another feature; numpy integers are indices."""
        model = MpsModel.random(6, 3, init_bond=3, seed=1)
        model.encoder = LegendreFeatureMap(3, helpers.unit_rescaler(6))
        calls = [
            lambda: reduced_density_matrix(model, (1.7,)),
            lambda: conditional_rdm(model, (1.0,), {2: 0.5}),
            lambda: conditional_rdm(model, (0,), {2.9: 0.5}),
            lambda: mutual_information(model, (0,), (np.float64(2.0),)),
            lambda: conditional_expectations(model, [0.5] * 6, [1.7]),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()
        np.testing.assert_array_equal(
            reduced_density_matrix(model, (np.int64(1), np.uint8(3))).matrix,
            reduced_density_matrix(model, (1, 3)).matrix,
        )


def wide_model(kind):
    """Models wide enough to reach every branch of the structured paths."""
    if kind == "mps":
        return MpsModel.random(8, 3, init_bond=5, seed=21)
    return TtnModel.random(7, 3, init_bond=5, seed=22)


class TestConditionalRdm:
    def test_no_conditions_equals_marginal(self):
        model = MpsModel.random(4, 2, init_bond=3, seed=1)
        plain = reduced_density_matrix(model, (1, 2))
        conditioned = conditional_rdm(model, (1, 2), {})
        np.testing.assert_allclose(conditioned.matrix, plain.matrix, atol=1e-12)

    def test_product_state_conditioning_is_inert(self):
        model = product_mps([[0.6, 0.8], [1.0, 2.0], [3.0, -1.0]])
        plain = reduced_density_matrix(model, (2,))
        conditioned = conditional_rdm(model, (2,), {0: 0.3, 1: 0.9})
        np.testing.assert_allclose(conditioned.matrix, plain.matrix, atol=1e-10)

    @pytest.mark.parametrize("kind", ["mps", "ttn"])
    def test_matches_brute_force(self, kind):
        for seed in range(3):
            if kind == "mps":
                model = MpsModel.random(3, 2, init_bond=2, seed=seed)
                theta = helpers.mps_full_tensor(model)
            else:
                model = TtnModel.random(4, 2, init_bond=2, seed=seed)
                theta = helpers.ttn_full_tensor(model)
            conditions = {0: 0.3}
            targets = (2,)
            expected = helpers.brute_rdm(theta, targets, conditions, phys_dim=2)
            rdm = conditional_rdm(model, targets, conditions)
            rdm_invariants(rdm)
            np.testing.assert_allclose(rdm.matrix, expected, atol=1e-10)

    @pytest.mark.parametrize("kind", ["mps", "ttn"])
    @pytest.mark.parametrize(
        "targets, conditions",
        [  # comments name where the targets sit in the 7-feature tree
            ((0, 1), {3: 0.2}),  # one leaf
            ((2, 5), {0: 0.3, 4: 0.7, 6: 0.1}),  # common ancestor is the root
            ((2, 1), {0: 0.9, 5: 0.4}),  # common ancestor is an inner node
            ((6,), {0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4, 4: 0.5, 5: 0.6}),  # next to the pad
            # feature 0 is the MPS's first site, whose up leg is its extent-1
            # end bond; feature 3 has pins on both sides
            ((0, 3), {2: 0.8, 5: 0.25}),
        ],
    )
    def test_matches_brute_force_at_width(self, kind, targets, conditions):
        model = wide_model(kind)
        theta = helpers.full_tensor(model)
        expected = helpers.brute_rdm(theta, targets, conditions, phys_dim=3)
        rdm = conditional_rdm(model, targets, conditions)
        rdm_invariants(rdm)
        np.testing.assert_allclose(rdm.matrix, expected, atol=1e-10)

    def test_impossible_condition_raises(self):
        # site-0 vector orthogonal to the encoding of a = 0.75
        a = 0.75
        xi = orthonormal_basis(2, a)
        blocked = np.array([xi[1], -xi[0]])
        model = product_mps([blocked, [1.0, 0.5]])
        with pytest.raises(ConditioningError):
            conditional_rdm(model, (1,), {0: a})

    def test_overlapping_sites_rejected(self):
        model = MpsModel.random(3, 2, seed=0)
        with pytest.raises(DataError):
            conditional_rdm(model, (1,), {1: 0.5})


@pytest.mark.parametrize("n_features", [5, 7])
def test_padded_tree_densities_match_brute_force(n_features):
    """Every single and pair density of a tree with one dummy feature, and one
    feature, the one beside the dummy, given two across the root."""
    model = TtnModel.random(n_features, 3, init_bond=5, seed=n_features)
    assert model.padding == 1
    theta = helpers.full_tensor(model)
    for i in range(n_features):
        for sites in [(i,)] + [(i, j) for j in range(i + 1, n_features)]:
            np.testing.assert_allclose(
                reduced_density_matrix(model, sites).matrix,
                helpers.brute_rdm(theta, sites, phys_dim=3), rtol=0, atol=1e-12,
            )
    target, conditions = (n_features - 1,), {0: 0.3, 3: 0.8}
    np.testing.assert_allclose(
        conditional_rdm(model, target, conditions).matrix,
        helpers.brute_rdm(theta, target, conditions, phys_dim=3), rtol=0, atol=1e-12,
    )


def quasi_density(rdm, x):
    """``phi(x)^T rho phi(x)`` of a one-feature density at the points ``x``."""
    phi = orthonormal_basis(rdm.phys_dim, x)
    return ((rdm.matrix @ phi) * phi).sum(axis=0)


class TestQuasiDensity:
    """The density ``phi(x)^T rho phi(x)`` that :func:`marginal_moments` integrates."""

    def unit_rdm(self):
        matrix = np.zeros((3, 3))
        matrix[0, 0] = 1.0
        return ReducedDensityMatrix((0,), matrix, 3)

    def test_constant_state_uniform_density(self):
        rdm = self.unit_rdm()
        density = quasi_density(rdm, np.array([0.0, 0.31, 0.5, 1.0]))
        np.testing.assert_allclose(density, 1.0, atol=1e-10)

    def test_density_integrates_to_one(self):
        # the quadrature sum is the normalizer of the moments: the encoding
        # is orthonormal, so a trace-normalized matrix integrates to one,
        # and a rescaled matrix has the same moments
        model = MpsModel.random(4, 3, init_bond=2, seed=2)
        rdm = reduced_density_matrix(model, (1,))
        nodes, weights = gauss_legendre_unit(2 * rdm.phys_dim)
        assert (weights * quasi_density(rdm, nodes)).sum() == pytest.approx(1.0, abs=1e-8)
        scaled = ReducedDensityMatrix(rdm.sites, 3.0 * rdm.matrix, rdm.phys_dim)
        stats = marginal_moments(rdm, helpers.unit_rescaler(4))
        rescaled = marginal_moments(scaled, helpers.unit_rescaler(4))
        assert astuple(rescaled) == pytest.approx(astuple(stats), rel=1e-13)

    def test_nonnegative_on_grid(self):
        model = MpsModel.random(5, 2, init_bond=3, seed=3)
        rdm = reduced_density_matrix(model, (2,))
        assert quasi_density(rdm, np.linspace(0, 1, 50)).min() >= -1e-10


class TestMarginalMoments:
    def test_uniform_moments(self):
        matrix = np.zeros((2, 2))
        matrix[0, 0] = 1.0
        rdm = ReducedDensityMatrix((0,), matrix, 2)
        stats = marginal_moments(rdm, helpers.unit_rescaler(1))
        assert all(type(value) is float for value in astuple(stats)[1:])
        assert stats.mean == pytest.approx(0.5, abs=1e-12)
        assert stats.std == pytest.approx(np.sqrt(1.0 / 12.0), abs=1e-12)

    def test_reflection_symmetric_state_centered(self):
        # second basis function is odd around 0.5, its square is symmetric
        matrix = np.zeros((2, 2))
        matrix[1, 1] = 1.0
        rdm = ReducedDensityMatrix((0,), matrix, 2)
        stats = marginal_moments(rdm, helpers.unit_rescaler(1))
        assert stats.mean == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("kind", ["mps", "ttn"])
    def test_matches_fine_grid_integral(self, kind):
        # mean and std against a trapezoid rule on 40,001 points, taken
        # without dividing by the total
        model = (MpsModel if kind == "mps" else TtnModel).random(5, 4, init_bond=3, seed=8)
        x = np.linspace(0.0, 1.0, 40001)
        for feature in range(5):
            rdm = reduced_density_matrix(model, (feature,))
            density = quasi_density(rdm, x)
            mean = np.trapezoid(x * density, x)
            std = np.sqrt(np.trapezoid((x - mean) ** 2 * density, x))
            stats = marginal_moments(rdm, helpers.unit_rescaler(5))
            assert stats.feature == feature
            assert stats.mean == pytest.approx(mean, abs=1e-7)
            assert stats.std == pytest.approx(std, abs=1e-7)

    def test_product_rdm_zero_covariance(self):
        # the covariance is taken here on a tensor Gauss-Legendre grid of the
        # two-feature density; its axis means are the one-feature moments
        model = product_mps([[0.8, 0.6], [1.0, -0.4], [0.5, 1.0]])
        rdm = reduced_density_matrix(model, (0, 2))
        nodes, weights = gauss_legendre_unit(2 * rdm.phys_dim)
        phi = orthonormal_basis(rdm.phys_dim, nodes)
        pair = np.einsum("ia,jb->ijab", phi.T, phi.T).reshape(len(nodes), len(nodes), -1)
        density = np.einsum("ijk,kl,ijl->ij", pair, rdm.matrix, pair)
        wq = np.outer(weights, weights) * density
        total = wq.sum()
        mean0 = (wq.sum(axis=1) * nodes).sum() / total
        mean2 = (wq.sum(axis=0) * nodes).sum() / total
        covariance = (wq * np.outer(nodes, nodes)).sum() / total - mean0 * mean2
        assert abs(covariance) <= 1e-10
        for feature, mean in ((0, mean0), (2, mean2)):
            stats = marginal_moments(reduced_density_matrix(model, (feature,)),
                                     helpers.unit_rescaler(3))
            assert stats.mean == pytest.approx(mean, abs=1e-12)

    @pytest.mark.parametrize(
        "matrix", [np.zeros((3, 3)), np.full((3, 3), np.nan), -np.eye(3) / 3],
        ids=["zero", "nan", "negative"],
    )
    def test_density_without_finite_positive_total_refused(self, matrix):
        rdm = ReducedDensityMatrix((2,), matrix, 3)
        with pytest.raises(DataError, match="density of feature 2 integrates to"):
            marginal_moments(rdm, helpers.unit_rescaler(3))

    def test_raw_domain_mapping(self):
        data = np.array([[0.0, 10.0], [4.0, 30.0]])
        encoder = LegendreFeatureMap(2, fit_rescaler(data))
        model = product_mps([[1.0, 0.0], [1.0, 0.0]])
        model.encoder = encoder
        rdm = reduced_density_matrix(model, (1,))
        stats = marginal_moments(rdm, encoder.rescaler)
        assert stats.raw_mean == pytest.approx(20.0, abs=1e-9)
        assert stats.raw_std == pytest.approx(20.0 * np.sqrt(1.0 / 12.0), abs=1e-9)

    def test_feature_outside_the_rescaler_refused(self):
        rdm = reduced_density_matrix(MpsModel.random(6, 2, init_bond=2, seed=1), (5,))
        with pytest.raises(DataError, match="feature 5 is outside the rescaler's 2 features"):
            marginal_moments(rdm, helpers.unit_rescaler(2))

    def test_site_budget(self):
        # moments are taken of one feature's density: any wider one is refused
        model = MpsModel.random(6, 2, init_bond=2, seed=1)
        for sites in ((0, 2), (0, 1, 2, 3)):
            rdm = reduced_density_matrix(model, sites)
            with pytest.raises(DataError, match=re.escape(
                    f"one feature's density, got features {sites}")):
                marginal_moments(rdm, helpers.unit_rescaler(6))


class TestEntropy:
    def test_pure_state_zero(self):
        model = MpsModel.random(4, 2, init_bond=3, seed=4)
        rdm = reduced_density_matrix(model, (0, 1, 2, 3))
        assert von_neumann_entropy(rdm) <= 1e-10

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(np.log(2), abs=1e-12)

    def test_simple_spectrum(self):
        value = von_neumann_entropy(np.diag([0.75, 0.25]))
        assert value == pytest.approx(0.562335, abs=1e-6)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NumericalError):
            von_neumann_entropy(np.diag([1.1, -0.1]))

    @pytest.mark.parametrize("matrix, message", [
        (np.full((2, 3), 1 / 3), "must be square"),
        (np.ones(2) / 2, "must be square"),
        (np.zeros((0, 0)), "not empty"),
        (np.array([[-np.inf]]), "non-finite"),
        (np.array([[0.5, np.nan], [np.nan, 0.5]]), "non-finite"),
        (np.diag([np.inf, 0.0]), "non-finite"),
        (np.array([[0.5, 0.9], [0.1, 0.5]]), "not symmetric"),
        (np.array([[0.5, 1e-9], [0.0, 0.5]]), "not symmetric"),
    ])
    def test_matrix_that_is_no_density_refused(self, matrix, message):
        with pytest.raises(DataError, match=message):
            von_neumann_entropy(matrix)

    def test_stack_gives_the_bits_of_each_matrix(self):
        """A stack ``(..., n, n)`` gives an array of the floats its matrices give one by one."""
        rng = np.random.default_rng(3)
        factors = rng.standard_normal((2, 3, 9, 4))  # rank 4 of 9: some eigenvalues dropped
        stack = factors @ factors.swapaxes(-1, -2)
        stack /= np.trace(stack, axis1=-2, axis2=-1)[..., None, None]
        entropies = von_neumann_entropy(stack)
        assert isinstance(entropies, np.ndarray) and entropies.shape == (2, 3)
        for index in np.ndindex(2, 3):
            single = von_neumann_entropy(stack[index])
            assert type(single) is float
            assert entropies[index] == single

    @pytest.mark.parametrize("bad", [
        np.array([[-np.inf]]),
        np.array([[0.5, np.nan], [np.nan, 0.5]]),
        np.diag([np.inf, 0.0]),
        np.array([[0.5, 0.9], [0.1, 0.5]]),
        np.diag([1.1, -0.1]),
    ])
    def test_stack_with_one_bad_matrix_fails_as_its_call(self, bad):
        good = np.eye(len(bad)) / len(bad)
        with pytest.raises((DataError, NumericalError)) as alone:
            von_neumann_entropy(bad)
        with pytest.raises(type(alone.value), match=re.escape(str(alone.value))):
            von_neumann_entropy(np.stack([good, bad, good]))

    def test_asymmetry_within_bound_read(self):
        matrix = np.array([[0.5, 1e-11], [0.0, 0.5]])
        assert von_neumann_entropy(matrix) == pytest.approx(np.log(2), abs=1e-10)

    def test_bipartition_entropies_match_and_respect_bond(self):
        for seed in range(4):
            model = MpsModel.random(4, 2, init_bond=3, seed=seed)
            for cut in (1, 2, 3):
                left = reduced_density_matrix(model, tuple(range(cut)))
                right = reduced_density_matrix(model, tuple(range(cut, 4)))
                s_left = von_neumann_entropy(left)
                s_right = von_neumann_entropy(right)
                assert s_left == pytest.approx(s_right, abs=1e-8)
                assert s_left <= np.log(model.bond_profile()[cut - 1]) + 1e-10


class TestMutualInformation:
    def test_product_state_zero(self):
        model = product_mps([[0.6, 0.8], [1.0, 2.0], [3.0, -1.0]])
        assert abs(mutual_information(model, (0,), (2,))) <= 1e-8

    def test_maximally_correlated_pair(self):
        # two-site state with amplitudes diag(1, 1)/sqrt(2): basis states
        # perfectly matched, each marginal maximally mixed
        left = np.zeros((1, 2, 2))
        left[0, 0, 0] = left[0, 1, 1] = 1.0
        right = np.zeros((2, 2, 1))
        right[0, 0, 0] = right[1, 1, 0] = 1.0
        model = MpsModel([left, right], center=1)
        model.canonicalize(0)
        model.normalize()
        assert mutual_information(model, (0,), (1,)) == pytest.approx(2 * np.log(2), abs=1e-8)

    def test_matches_brute_force(self):
        for seed in range(3):
            model = MpsModel.random(4, 2, init_bond=3, seed=seed)
            theta = helpers.mps_full_tensor(model)
            s0 = helpers.brute_entropy(helpers.brute_rdm(theta, (0,), phys_dim=2))
            s23 = helpers.brute_entropy(helpers.brute_rdm(theta, (2, 3), phys_dim=2))
            s023 = helpers.brute_entropy(helpers.brute_rdm(theta, (0, 2, 3), phys_dim=2))
            expected = s0 + s23 - s023
            assert mutual_information(model, (0,), (2, 3)) == pytest.approx(expected, abs=1e-8)

    def test_symmetry_and_nonnegativity(self):
        model = MpsModel.random(5, 2, init_bond=3, seed=6)
        ij = mutual_information(model, (1,), (3,))
        ji = mutual_information(model, (3,), (1,))
        assert ij == pytest.approx(ji, abs=1e-10)
        assert ij >= -1e-8

    def test_overlap_rejected(self):
        model = MpsModel.random(4, 2, seed=0)
        with pytest.raises(DataError):
            mutual_information(model, (0, 1), (1, 2))


class TestAllToAllMi:
    def test_product_state_zero_matrix(self):
        model = product_mps([[0.6, 0.8], [1.0, 2.0], [3.0, -1.0], [0.3, 0.7]])
        result = all_to_all_mi(model)
        assert np.abs(result.raw).max() <= 1e-8
        assert np.abs(result.display).max() == 0.0

    @pytest.mark.parametrize("kind", ["mps", "ttn"])
    def test_matches_pairwise_mutual_information(self, kind):
        if kind == "mps":
            model = MpsModel.random(4, 2, init_bond=3, seed=7)
        else:
            model = TtnModel.random(5, 2, init_bond=3, seed=7)
        result = all_to_all_mi(model)
        n = result.raw.shape[0]
        assert np.abs(result.raw - result.raw.T).max() <= 1e-10
        assert np.abs(np.diag(result.raw)).max() == 0.0
        for i in range(n):
            for j in range(i + 1, n):
                expected = mutual_information(model, (i,), (j,))
                assert result.raw[i, j] == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("kind", ["mps", "ttn"])
    def test_matches_brute_force_at_width(self, kind):
        # mps: 8 sites at phys_dim 3, bonds up to 5 > phys_dim. ttn: 7 features,
        # so padded; leaves (0, 1), (2, 3), (4, 5), (6, pad) under two inner nodes
        model = wide_model(kind)
        theta = helpers.full_tensor(model)
        n_features = theta.ndim
        single = [
            helpers.brute_entropy(helpers.brute_rdm(theta, (i,), phys_dim=3))
            for i in range(n_features)
        ]
        result = all_to_all_mi(model)
        for i in range(n_features):
            for j in range(i + 1, n_features):
                pair = helpers.brute_entropy(helpers.brute_rdm(theta, (i, j), phys_dim=3))
                assert result.raw[i, j] == pytest.approx(single[i] + single[j] - pair, abs=1e-10)

    def test_one_entropy_call_per_feature_and_left_feature(self, monkeypatch):
        """An MPS of L features prices its L single densities one by one and the
        pairs of each of its first L - 1 features, to its right, in one stack,
        from the last node up."""
        calls = []

        def counted(rdm):
            calls.append(np.shape(rdm))
            return von_neumann_entropy(rdm)

        monkeypatch.setattr(tnad.explain, "von_neumann_entropy", counted)
        all_to_all_mi(MpsModel.random(8, 3, init_bond=5, seed=21))
        assert calls == [(3, 3)] * 8 + [(k, 9, 9) for k in range(1, 8)]

    def test_display_normalization(self):
        model = MpsModel.random(4, 2, init_bond=3, seed=8)
        result = all_to_all_mi(model)
        if result.raw.max() > 0:
            assert result.display.max() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(np.diag(result.display)).max() == 0.0


def trained_toy_model(kind="mps", seed=0):
    data = toy_correlated_pairs(800, 6, pairs=((1, 2), (3, 4)), seed=11)
    encoder = LegendreFeatureMap(4, fit_rescaler(data))
    model_cls = MpsModel if kind == "mps" else TtnModel
    model = model_cls.random(6, 4, init_bond=2, seed=seed, encoder=encoder)
    fit(model, encoder.encode_batch(data),
        TrainConfig(learning_rate=5e-3, sweeps=3, batch_size=None, max_bond=8, seed=seed))
    return model, data


def rescaled_deviations(model, raw):
    """Each feature's distance from its marginal mean and the marginal's std, rescaled."""
    rescaled = model.encoder.rescale_sample(raw)
    out = []
    for i in range(model.n_features):
        stats = marginal_moments(reduced_density_matrix(model, (i,)), model.encoder.rescaler)
        out.append((abs(float(rescaled[i]) - stats.mean), stats.std))
    return out


class TestFlagging:
    def test_sample_at_means_unflagged(self):
        model, _ = trained_toy_model()
        means = np.array([f.mean for f in flag_features(model, np.full(6, 0.5)).features])
        explanation = flag_features(model, means, k_sigma=1.0)
        assert explanation.flagged_indices() == []

    def test_k_sigma_monotonicity(self):
        model, data = trained_toy_model()
        sample = data[0] + 0.6  # push everything off its marginal
        huge = flag_features(model, sample, k_sigma=1e6)
        assert huge.flagged_indices() == []
        tiny = flag_features(model, sample, k_sigma=1e-9)
        deviations = rescaled_deviations(model, sample)
        assert tiny.flagged_indices() == [i for i, (d, _) in enumerate(deviations) if d > 0]

    @pytest.mark.parametrize("k_sigma", [0.0, -1.0, np.nan, np.inf])
    def test_k_sigma_must_be_positive_and_finite(self, k_sigma):
        model, data = trained_toy_model()
        with pytest.raises(DataError):
            flag_features(model, data[0], k_sigma=k_sigma)

    def test_out_of_band_probe_flagged(self):
        model, data = trained_toy_model()
        probe = data[0].copy()
        probe[3] = data[:, 3].max() + 10.0  # way outside the training band
        explanation = flag_features(model, probe, k_sigma=1.0)
        assert 3 in explanation.flagged_indices()

    def test_flag_rule_consistency(self):
        model, data = trained_toy_model()
        explanation = flag_features(model, data[5], k_sigma=1.0)
        deviations = rescaled_deviations(model, data[5])
        assert [f.flagged for f in explanation.features] == [d > std for d, std in deviations]

    def test_nll_matches_score(self):
        model, data = trained_toy_model()
        explanation = flag_features(model, data[3])
        log_abs, _ = model.log_amplitudes(model.encoder.encode_batch(data[3:4]))
        assert explanation.nll == pytest.approx(-2.0 * log_abs[0], rel=1e-12)


class TestConditionalExpectations:
    def test_product_model_equals_marginal_means(self):
        data = np.random.default_rng(0).uniform(size=(50, 3))
        encoder = LegendreFeatureMap(2, fit_rescaler(data))
        model = product_mps([[1.0, 0.2], [1.0, -0.3], [1.0, 0.5]])
        model.encoder = encoder
        explanation = flag_features(model, data[0])
        marginal_means = {f.index: f.mean for f in explanation.features}
        expected = conditional_expectations(model, data[0], [1])
        assert expected[1] == pytest.approx(marginal_means[1], abs=1e-8)

    def test_matches_brute_force_conditional_mean(self):
        from tnad import gauss_legendre_unit

        model = MpsModel.random(3, 2, init_bond=2, seed=12)
        data = np.random.default_rng(1).uniform(size=(40, 3))
        encoder = LegendreFeatureMap(2, fit_rescaler(data))
        model.encoder = encoder
        raw = data[7]
        rescaled = encoder.rescaler.transform(raw)
        result = conditional_expectations(model, raw, [2])

        theta = helpers.mps_full_tensor(model)
        rho = helpers.brute_rdm(theta, (2,), {0: rescaled[0], 1: rescaled[1]}, phys_dim=2)
        nodes, weights = gauss_legendre_unit(4)
        basis = orthonormal_basis(2, nodes)
        dens = np.einsum("na,ab,bn->n", basis.T, rho, basis)
        mean_rescaled = float((weights * nodes * dens).sum() / (weights * dens).sum())
        r = encoder.rescaler
        expected_raw = r.minimum[2] + mean_rescaled * (r.maximum[2] - r.minimum[2])
        assert result[2] == pytest.approx(expected_raw, abs=1e-8)

    def test_impossible_condition_maps_to_none(self, caplog):
        # feature 0 at 0.75 is blocked, as in test_impossible_condition_raises:
        # every flagged feature is conditioned on it and falls back to None
        a = 0.75
        xi = orthonormal_basis(2, a)
        model = product_mps([[xi[1], -xi[0]], [1.0, 0.5], [0.3, 1.0]])
        model.encoder = LegendreFeatureMap(2, fit_rescaler(np.array([[0.0] * 3, [1.0] * 3])))
        with caplog.at_level(logging.WARNING, logger="tnad.explain"):
            result = conditional_expectations(model, [a, 0.2, 0.6], [1, 2])
        assert result == {1: None, 2: None}
        failures = [r for r in caplog.records if "conditioning failed" in r.getMessage()]
        assert len(failures) == 2

    @pytest.mark.parametrize("length", [1, 3])
    def test_sample_of_the_wrong_length_is_refused(self, length):
        model = MpsModel.random(4, 2, init_bond=2, seed=12)
        model.encoder = LegendreFeatureMap(2, fit_rescaler(np.array([[0.0] * 4, [1.0] * 4])))
        with pytest.raises(DataError, match=r"expected \(4,\)"):
            conditional_expectations(model, [0.3] * length, [0])

    def test_all_flagged_degenerates_to_marginals(self):
        model, data = trained_toy_model()
        result = conditional_expectations(model, data[0], list(range(6)))
        explanation = flag_features(model, data[0])
        for f in explanation.features:
            assert result[f.index] == pytest.approx(f.mean, abs=1e-8)

    def test_explain_sample_composite(self):
        model, data = trained_toy_model()
        probe = data[0].copy()
        probe[4] = data[:, 4].max() + 5.0
        explanation = explain_sample(model, probe, k_sigma=1.0, sample_id=17)
        assert explanation.sample_id == 17
        flagged = explanation.flagged_indices()
        assert 4 in flagged
        for f in explanation.features:
            if f.flagged:
                assert f.conditional_expected is not None
            else:
                assert f.conditional_expected is None
        payload = explanation.to_dict()
        assert payload["sample_id"] == 17
        assert payload["threshold"] == 1.0
        assert len(payload["features"]) == 6


# Child process for the thread-count test: one explanation result, printed
# as the hex of its bytes. The BLAS reads its thread count when numpy
# loads, so the count is set in the child's environment.
EXPLAIN_CHILD = """
import sys
import numpy as np
from tnad import MpsModel, TtnModel, all_to_all_mi, conditional_rdm, reduced_density_matrix
case = sys.argv[1]
mps = MpsModel.random(8, 7, init_bond=40, seed=0)
if case == "mps-mi":
    result = all_to_all_mi(mps).raw
elif case == "ttn-mi":
    result = all_to_all_mi(TtnModel.random(16, 5, init_bond=20, seed=0)).raw
elif case == "mps-rdm":
    result = reduced_density_matrix(mps, (0, 7)).matrix
elif case == "mps-conditional":
    result = conditional_rdm(mps, (3, 5), {0: 0.2, 1: 0.9, 4: 0.5, 7: 0.35}).matrix
elif case == "ttn-rdm":
    result = reduced_density_matrix(TtnModel.random(16, 5, init_bond=20, seed=0), (2, 9)).matrix
else:
    tree = TtnModel.random(16, 5, init_bond=20, seed=0)
    result = conditional_rdm(tree, (4, 11), {0: 0.2, 6: 0.9, 9: 0.5, 15: 0.35}).matrix
print(np.ascontiguousarray(result).tobytes().hex())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs at least 2 CPUs")
@pytest.mark.parametrize(
    "case", ["mps-mi", "ttn-mi", "mps-rdm", "mps-conditional", "ttn-rdm", "ttn-conditional"]
)
def test_explanations_repeat_across_blas_thread_counts(case):
    # MPS at bond 40 and phys_dim 7 (bond x phys_dim = 280) and a tree at
    # bond 20 (bond x bond = 400): contractions deep enough that a threaded
    # BLAS would split them
    one, two = (helpers.run_in_child(EXPLAIN_CHILD, case, n) for n in (1, 2))
    assert one == two
