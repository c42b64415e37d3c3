import math

import numpy as np
import pytest

import helpers
from tnad import (
    DataError,
    FeatureRescaler,
    FitError,
    LegendreFeatureMap,
    ReducedDensityMatrix,
    fit_rescaler,
    gauss_legendre_unit,
    marginal_moments,
    orthonormal_basis,
)


def shifted_legendre(n, x):
    """The n-th shifted Legendre polynomial, read off the orthonormal basis."""
    return orthonormal_basis(n + 1, x)[n] / math.sqrt(2 * n + 1)


class TestShiftedLegendre:
    def test_degree_zero_is_one(self):
        for x in (0.0, 0.3, 1.0):
            assert shifted_legendre(0, x) == 1.0

    def test_degree_one(self):
        assert shifted_legendre(1, 0.25) == pytest.approx(-0.5, abs=1e-15)

    def test_degree_two_at_zero(self):
        assert shifted_legendre(2, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_recurrence_matches_rodrigues_expansion(self):
        # independent oracle: differentiate (x^2 - x)^n symbolically
        rng = np.random.default_rng(0)
        xs = rng.uniform(0.0, 1.0, size=100)
        base = np.polynomial.Polynomial([0.0, -1.0, 1.0])
        for n in range(7):
            poly = base**n
            for _ in range(n):
                poly = poly.deriv()
            expected = poly(xs) / math.factorial(n)
            np.testing.assert_allclose(shifted_legendre(n, xs), expected, atol=1e-12)

    def test_negative_degree_rejected(self):
        # no functions means a highest degree of -1
        with pytest.raises(DataError, match="n_functions"):
            LegendreFeatureMap(0, helpers.unit_rescaler(1))


class TestOrthonormality:
    @pytest.mark.parametrize("n_functions", range(1, 9))
    def test_basis_orthonormal_under_quadrature(self, n_functions):
        # Gauss-Legendre with n_functions + 1 nodes is exact for the
        # degree-2(n-1) integrands
        nodes, weights = gauss_legendre_unit(n_functions + 1)
        basis = orthonormal_basis(n_functions, nodes)  # (N, nodes)
        gram = (basis * weights) @ basis.T
        assert np.abs(gram - np.eye(n_functions)).max() <= 1e-10

    @pytest.mark.parametrize("n_functions", range(1, 9))
    def test_identity_resolution(self, n_functions):
        nodes, weights = gauss_legendre_unit(n_functions + 1)
        outer = np.zeros((n_functions, n_functions))
        for x, w in zip(nodes, weights):
            vec = orthonormal_basis(n_functions, x)
            outer += w * np.outer(vec, vec)
        assert np.abs(outer - np.eye(n_functions)).max() <= 1e-10


class TestRescaler:
    def test_plain_affine(self):
        r = fit_rescaler(np.array([[0.0], [10.0]]), margin=0.0)
        assert r.transform([5.0]) == pytest.approx([0.5])

    def test_margin_two_point(self):
        r = fit_rescaler(np.array([[2.0], [4.0]]), margin=0.05)
        np.testing.assert_allclose(r.transform([[2.0], [4.0]]), [[0.05], [0.95]])

    def test_constant_feature_rejected(self):
        with pytest.raises(FitError, match="feature 1"):
            fit_rescaler(np.array([[0.0, 3.0], [1.0, 3.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, value):
        data = np.array([[0.0, 3.0], [1.0, 4.0], [0.5, 5.0]])
        data[2, 1] = value
        with pytest.raises(FitError, match="feature 1"):
            fit_rescaler(data)

    def test_margin_bounds(self):
        with pytest.raises(FitError):
            fit_rescaler(np.array([[0.0], [1.0]]), margin=0.2)

    def test_needs_two_samples(self):
        with pytest.raises(FitError):
            fit_rescaler(np.array([[0.0]]))

    def test_clamping(self):
        r = fit_rescaler(np.array([[0.0], [1.0]]))
        np.testing.assert_array_equal(r.transform([[-5.0], [7.0]]), [[0.0], [1.0]])

    def test_inverse_roundtrip(self):
        # marginal_moments maps the rescaled mean back to the raw domain;
        # rescaling that raw mean gives the rescaled mean again
        r = fit_rescaler(np.array([[2.0, -1.0], [4.0, 5.0]]), margin=0.02)
        a = np.random.default_rng(3).standard_normal((3, 3))
        for feature in (0, 1):
            rdm = ReducedDensityMatrix((feature,), a @ a.T / np.trace(a @ a.T), 3)
            stats = marginal_moments(rdm, r)
            row = r.minimum.copy()
            row[feature] = stats.raw_mean
            assert r.transform(row)[feature] == pytest.approx(stats.mean, abs=1e-12)

    @pytest.mark.parametrize("shape", [(), (5, 1), (5, 3), (4, 5)])
    def test_last_axis_must_hold_every_feature(self, shape):
        # a scalar or one column would broadcast against the four features
        r = helpers.unit_rescaler(4)
        with pytest.raises(DataError, match="4 on the last axis"):
            r.transform(np.full(shape, 0.5))


class TestFeatureMap:
    def unit_map(self, n_functions, n_features=1):
        return LegendreFeatureMap(n_functions, helpers.unit_rescaler(n_features))

    def test_single_function_constant(self):
        fm = self.unit_map(1)
        np.testing.assert_allclose(fm.encode_batch([[0.77]]), [[[1.0]]])

    def test_three_functions_midpoint(self):
        fm = self.unit_map(3)
        np.testing.assert_allclose(
            fm.encode_batch([[0.5]])[0, 0], [1.0, 0.0, -math.sqrt(5) / 2], atol=1e-12
        )

    def test_two_functions_origin(self):
        fm = self.unit_map(2)
        np.testing.assert_allclose(
            fm.encode_batch([[0.0]])[0, 0], [1.0, -math.sqrt(3)], atol=1e-12
        )

    def test_encode_sample_elementwise(self):
        # each feature is encoded on its own: a row's encoding is its
        # features' one-column encodings side by side
        fm = self.unit_map(3, n_features=2)
        encoded = fm.encode_batch([[0.2, 0.9]])
        np.testing.assert_array_equal(encoded[0, 0], self.unit_map(3).encode_batch([[0.2]])[0, 0])
        np.testing.assert_array_equal(encoded[0, 1], self.unit_map(3).encode_batch([[0.9]])[0, 0])

    def test_encode_sample_all_constant_basis(self):
        fm = self.unit_map(1, n_features=2)
        np.testing.assert_allclose(fm.encode_batch([[0.1, 0.8]]), [[[1.0], [1.0]]])

    def test_determinism(self):
        fm = self.unit_map(4, n_features=3)
        sample = [[0.1, 0.5, 0.99]]
        np.testing.assert_array_equal(fm.encode_batch(sample), fm.encode_batch(sample))

    def test_length_mismatch(self):
        fm = self.unit_map(2, n_features=3)
        with pytest.raises(DataError):
            fm.encode_batch([[0.1, 0.2]])
        with pytest.raises(DataError, match=r"expected \(3,\)"):
            fm.rescale_sample([0.1, 0.2])

    def test_unfitted_rejected(self):
        # a feature map cannot be built without its fitted rescaler
        with pytest.raises(TypeError, match="rescaler"):
            LegendreFeatureMap(3)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_raw_value_rejected(self, value):
        # an inf would otherwise clamp to 1 and a nan encode to nan amplitudes
        fm = self.unit_map(3, n_features=2)
        with pytest.raises(DataError, match="feature 1"):
            fm.rescaler.transform(np.array([0.5, value]))
        with pytest.raises(DataError, match="feature 1"):
            fm.encode_batch(np.array([[0.2, 0.3], [0.5, value]]))
        with pytest.raises(DataError, match="feature 1"):
            fm.rescale_sample([0.5, value])

    def test_batch_matches_samples(self):
        fm = self.unit_map(3, n_features=2)
        rng = np.random.default_rng(1)
        batch = rng.uniform(size=(5, 2))
        encoded = fm.encode_batch(batch)
        for i in range(5):
            np.testing.assert_array_equal(encoded[i], fm.encode_batch(batch[i : i + 1])[0])
            np.testing.assert_array_equal(encoded[i], fm.encode_unit(fm.rescale_sample(batch[i])))


class TestInPlaceEncoding:
    """The encoding writes into arrays it owns; the bits stay those of the
    out-of-place formulas in ``helpers``."""

    @pytest.mark.parametrize("shape", [(), (7,), (40, 5)])
    @pytest.mark.parametrize("n_functions", [1, 2, 3, 6])
    def test_basis_matches_the_out_of_place_formula(self, shape, n_functions):
        x = np.random.default_rng(len(shape) + n_functions).uniform(size=shape)
        got = orthonormal_basis(n_functions, x)
        want = helpers.orthonormal_basis_out_of_place(n_functions, x)
        assert got.shape == want.shape == (n_functions,) + shape
        np.testing.assert_array_equal(got, want)

    def test_python_scalar(self):
        np.testing.assert_array_equal(
            orthonormal_basis(4, 0.3), helpers.orthonormal_basis_out_of_place(4, 0.3)
        )

    @pytest.mark.parametrize("n_functions", [1, 2, 5])
    def test_encoders_match_the_out_of_place_formula(self, n_functions):
        rng = np.random.default_rng(n_functions)
        raw = rng.normal(size=(60, 4)) * 2.0
        fm = LegendreFeatureMap(n_functions, fit_rescaler(raw[:30]))  # later rows clip
        want = helpers.encode_out_of_place
        np.testing.assert_array_equal(fm.encode_batch(raw), want(fm, raw))
        np.testing.assert_array_equal(fm.encode_batch(raw[:0]), want(fm, raw[:0]))
        np.testing.assert_array_equal(fm.encode_batch(raw[41:42]), want(fm, raw[41:42]))
        rescaled = fm.rescale_sample(raw[41])
        np.testing.assert_array_equal(fm.encode_unit(rescaled), want(fm, raw[41]))

    def test_transform_leaves_the_callers_array_untouched(self):
        raw = np.array([[-3.0, 0.5], [0.25, 9.0]])
        before = raw.copy()
        scaled = FeatureRescaler(np.zeros(2), np.ones(2)).transform(raw)
        np.testing.assert_array_equal(raw, before)
        np.testing.assert_array_equal(scaled, [[0.0, 0.5], [0.25, 1.0]])
        assert not np.shares_memory(scaled, raw)


class TestGaussLegendreUnit:
    def test_cached_read_only_and_unchanged(self):
        first = gauss_legendre_unit(6)
        again = gauss_legendre_unit(6)
        nodes, weights = np.polynomial.legendre.leggauss(6)
        for got, repeat, want in zip(first, again, ((nodes + 1.0) / 2.0, weights / 2.0)):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(repeat, want)
            with pytest.raises(ValueError):
                got[0] = 0.5
        np.testing.assert_array_equal(gauss_legendre_unit(6)[0], first[0])
