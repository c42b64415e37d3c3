import math

import numpy as np
import pytest

from tnad import (
    DataError,
    FeatureRescaler,
    FitError,
    LegendreFeatureMap,
    NotFittedError,
    fit_rescaler,
    gauss_legendre_unit,
    orthonormal_basis,
    shifted_legendre_eval,
)


class TestShiftedLegendre:
    def test_degree_zero_is_one(self):
        for x in (0.0, 0.3, 1.0):
            assert shifted_legendre_eval(0, x) == 1.0

    def test_degree_one(self):
        assert shifted_legendre_eval(1, 0.25) == pytest.approx(-0.5, abs=1e-15)

    def test_degree_two_at_zero(self):
        assert shifted_legendre_eval(2, 0.0) == pytest.approx(1.0, abs=1e-15)

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
            np.testing.assert_allclose(shifted_legendre_eval(n, xs), expected, atol=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            shifted_legendre_eval(2, 1.5)
        with pytest.raises(DataError):
            shifted_legendre_eval(2, -0.1)

    def test_negative_degree_rejected(self):
        with pytest.raises(DataError):
            shifted_legendre_eval(-1, 0.5)


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
        assert r.transform_value(0, 5.0) == pytest.approx(0.5)

    def test_margin_two_point(self):
        r = fit_rescaler(np.array([[2.0], [4.0]]), margin=0.05)
        assert r.transform_value(0, 2.0) == pytest.approx(0.05)
        assert r.transform_value(0, 4.0) == pytest.approx(0.95)

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
        assert r.transform_value(0, -5.0) == 0.0
        assert r.transform_value(0, 7.0) == 1.0

    def test_inverse_roundtrip(self):
        r = fit_rescaler(np.array([[2.0, -1.0], [4.0, 5.0]]), margin=0.02)
        for v in (2.0, 3.3, 4.0):
            assert r.inverse_value(0, r.transform_value(0, v)) == pytest.approx(v)


class TestFeatureMap:
    def unit_map(self, n_functions, n_features=1):
        rescaler = FeatureRescaler(np.zeros(n_features), np.ones(n_features))
        return LegendreFeatureMap(n_functions, rescaler)

    def test_single_function_constant(self):
        fm = self.unit_map(1)
        np.testing.assert_allclose(fm.encode_value(0, 0.77), [1.0])

    def test_three_functions_midpoint(self):
        fm = self.unit_map(3)
        np.testing.assert_allclose(
            fm.encode_value(0, 0.5), [1.0, 0.0, -math.sqrt(5) / 2], atol=1e-12
        )

    def test_two_functions_origin(self):
        fm = self.unit_map(2)
        np.testing.assert_allclose(fm.encode_value(0, 0.0), [1.0, -math.sqrt(3)], atol=1e-12)

    def test_encode_sample_elementwise(self):
        fm = self.unit_map(3, n_features=2)
        sample = np.array([0.2, 0.9])
        encoded = fm.encode_sample(sample)
        np.testing.assert_array_equal(encoded[0], fm.encode_value(0, 0.2))
        np.testing.assert_array_equal(encoded[1], fm.encode_value(1, 0.9))

    def test_encode_sample_all_constant_basis(self):
        fm = self.unit_map(1, n_features=2)
        np.testing.assert_allclose(fm.encode_sample([0.1, 0.8]), [[1.0], [1.0]])

    def test_determinism(self):
        fm = self.unit_map(4, n_features=3)
        sample = [0.1, 0.5, 0.99]
        np.testing.assert_array_equal(fm.encode_sample(sample), fm.encode_sample(sample))

    def test_length_mismatch(self):
        fm = self.unit_map(2, n_features=3)
        with pytest.raises(DataError):
            fm.encode_sample([0.1, 0.2])

    def test_unfitted_rejected(self):
        fm = LegendreFeatureMap(3)
        with pytest.raises(NotFittedError):
            fm.encode_sample([0.5])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_raw_value_rejected(self, value):
        # an inf would otherwise clamp to 1 and a nan encode to nan amplitudes
        fm = self.unit_map(3, n_features=2)
        with pytest.raises(DataError, match="feature 1"):
            fm.rescaler.transform(np.array([0.5, value]))
        with pytest.raises(DataError, match="feature 1"):
            fm.encode_batch(np.array([[0.2, 0.3], [0.5, value]]))
        with pytest.raises(DataError, match="feature 1"):
            fm.encode_sample([0.5, value])
        with pytest.raises(DataError, match="feature 1"):
            fm.encode_value(1, value)

    def test_batch_matches_samples(self):
        fm = self.unit_map(3, n_features=2)
        rng = np.random.default_rng(1)
        batch = rng.uniform(size=(5, 2))
        encoded = fm.encode_batch(batch)
        for i in range(5):
            np.testing.assert_allclose(encoded[i], fm.encode_sample(batch[i]), atol=1e-14)
