import logging
import os

import numpy as np
import pytest

import helpers
from tnad import (
    DataError,
    FeatureRescaler,
    LegendreFeatureMap,
    MpsModel,
    auc_roc,
    eer_threshold,
    histogram_bin_count,
    histogram_mi,
    histogram_mi_matrix,
    score_samples,
)


def brute_force_auc(scores, labels):
    labels = np.asarray(labels, bool)
    anomalies = scores[labels]
    regular = scores[~labels]
    total = 0.0
    for a in anomalies:
        for r in regular:
            if a > r:
                total += 1.0
            elif a == r:
                total += 0.5
    return total / (len(anomalies) * len(regular))


def brute_force_eer(scores, labels):
    labels = np.asarray(labels, bool)
    best = None
    for t in np.unique(scores):
        tpr = float((scores[labels] >= t).mean())
        tnr = float((scores[~labels] < t).mean())
        key = (abs(tpr - tnr), -tpr, t)
        if best is None or key < best[0]:
            best = (key, (float(t), tpr, tnr))
    return best[1]


class TestAucRoc:
    def test_perfect_separation(self):
        assert auc_roc([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == 1.0

    def test_three_quarters(self):
        assert auc_roc([0.9, 0.4, 0.6, 0.1], [True, True, False, False]) == 0.75

    def test_all_ties(self):
        assert auc_roc([1.0, 1.0, 1.0, 1.0], [True, False, True, False]) == 0.5

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(4, 30))
            scores = np.round(rng.standard_normal(n), 1)  # force some ties
            labels = rng.random(n) < 0.4
            if labels.all() or not labels.any():
                continue
            assert auc_roc(scores, labels) == brute_force_auc(scores, labels)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auc_roc([1.0, 2.0], [True, True])


@pytest.mark.parametrize("metric", [auc_roc, eer_threshold])
def test_nan_score_refused_naming_its_index(metric):
    # a NaN compares false both ways, so it would rank as neither class
    with pytest.raises(DataError, match="score 0 is NaN"):
        metric([np.nan, 1.0, 0.5], [True, False, False])
    with pytest.raises(DataError, match="score 2 is NaN"):
        metric([2.0, 1.0, np.nan, np.nan], [True, False, True, False])


def test_infinite_scores_still_rank():
    scores, labels = [np.inf, 1.0, -np.inf, 0.5], [True, False, False, True]
    assert auc_roc(scores, labels) == brute_force_auc(np.array(scores), np.array(labels))
    assert eer_threshold(scores, labels) == brute_force_eer(np.array(scores), np.array(labels))


class TestEerThreshold:
    def test_infinite_when_only_infinite_scores_reach_the_anomalies(self):
        scores = np.array([0.5, 2.0, np.inf, 1.0, np.inf])
        labels = np.array([False, False, True, False, True])
        assert eer_threshold(scores, labels) == (np.inf, 1.0, 1.0)
        assert eer_threshold(scores, labels) == brute_force_eer(scores, labels)

    def test_separable_case(self):
        scores = np.array([0.1, 0.2, 0.3, 0.7, 0.8, 0.9])
        labels = np.array([False, False, False, True, True, True])
        threshold, tpr, tnr = eer_threshold(scores, labels)
        assert tpr == 1.0 and tnr == 1.0
        assert 0.3 < threshold <= 0.7

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(6, 40))
            scores = np.round(rng.standard_normal(n), 1)
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                continue
            assert eer_threshold(scores, labels) == brute_force_eer(scores, labels)

    def test_tie_break_prefers_higher_tpr_then_lower_threshold(self):
        # two thresholds reach |TPR - TNR| = 0; the scan must pick the one
        # with the larger TPR, and among equals the smaller threshold
        scores = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([False, False, True, True])
        threshold, tpr, tnr = eer_threshold(scores, labels)
        assert (tpr, tnr) == (1.0, 1.0)
        assert threshold == 3.0  # both 3.0 and 4.0 give TNR=1, but TPR drops at 4.0


class TestScoreSamples:
    def test_duplicates_identical(self):
        model = MpsModel.random(4, 2, init_bond=2, seed=0)
        rng = np.random.default_rng(0)
        batch = helpers.random_encoded(rng, 5, 4, 2)
        doubled = np.concatenate([batch, batch])
        scores = score_samples(model, doubled)
        np.testing.assert_array_equal(scores[:5], scores[5:])

    def test_equals_minus_two_log_amp(self):
        model = MpsModel.random(3, 2, init_bond=2, seed=1)
        rng = np.random.default_rng(1)
        batch = helpers.random_encoded(rng, 4, 3, 2)
        theta = helpers.mps_full_tensor(model)
        scores = score_samples(model, batch)
        for i in range(4):
            amp = helpers.brute_amplitude(theta, batch[i])
            assert scores[i] == pytest.approx(-2 * np.log(abs(amp)), rel=1e-10)

    def test_zero_amplitude_scores_inf(self, caplog):
        u = np.array([1.0, 0.0]).reshape(1, 2, 1)
        model = MpsModel([u, u.copy()], center=0)
        batch = np.array(
            [[[1.0, 0.5], [1.0, 0.2]], [[0.0, 1.0], [1.0, 0.3]]]  # second kills site 0
        )
        with caplog.at_level(logging.WARNING, logger="tnad.metrics"):
            scores = score_samples(model, batch)
        assert np.isfinite(scores[0]) and scores[1] == np.inf
        assert "1 zero-amplitude samples score inf" in caplog.text

    def test_zero_amplitude_scores_inf_through_a_raw_row(self):
        # site 0 reads the second basis function, sqrt(3) (2x - 1): the raw
        # value 1.0 rescales to exactly 0.5 and zeroes it
        second, first = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        model = MpsModel([second.reshape(1, 2, 1), first.reshape(1, 2, 1)], center=0)
        model.encoder = LegendreFeatureMap(2, FeatureRescaler(np.zeros(2), np.full(2, 2.0)))
        raw = np.array([[0.2, 0.3], [1.0, 0.3], [1.8, 1.1]])
        scores = score_samples(model, raw)
        assert np.isfinite(scores[[0, 2]]).all() and scores[1] == np.inf

    @pytest.mark.parametrize("others", [0, 3])
    def test_vanishing_amplitude_scores_inf_whatever_the_other_rows(self, others):
        # phi_1(0.5) = 0, so the row (0.5, 0.3) has amplitude exactly zero
        model = MpsModel([np.array([0.0, 1.0]).reshape(1, 2, 1),
                          np.array([1.0, 0.0]).reshape(1, 2, 1)], center=1)
        model.encoder = LegendreFeatureMap(2, FeatureRescaler(np.zeros(2), np.ones(2)))
        finite_rows = np.random.default_rng(0).uniform(0.6, 1.0, size=(others, 2))
        scores = score_samples(model, np.vstack([[0.5, 0.3], finite_rows]))
        assert scores[0] == np.inf
        assert np.isfinite(scores[1:]).all()


class TestHistogramMi:
    def test_bin_count_rule_values(self):
        # spot values of the cube-root rule
        for n in (100, 1000, 10000):
            xi = (8 + 324 * n + 12 * np.sqrt(36 * n + 729 * n * n)) ** (1 / 3)
            expected = int(round(xi / 6 + 2 / (3 * xi) + 1 / 3))
            assert histogram_bin_count(n) == expected
        assert histogram_bin_count(1000) > histogram_bin_count(100)

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(3)
        data = rng.uniform(size=(10000, 2))
        assert histogram_mi(data, 0, 1) <= 0.05

    def test_self_information_is_entropy(self):
        rng = np.random.default_rng(4)
        data = rng.uniform(size=(500, 2))
        bins = histogram_bin_count(500)
        counts, _ = np.histogram(data[:, 0], bins=bins)
        p = counts / counts.sum()
        p = p[p > 0]
        entropy = float(-(p * np.log(p)).sum())
        assert histogram_mi(data, 0, 0) == pytest.approx(entropy, abs=1e-10)

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(300, 3))
        data[:, 2] = data[:, 1] + 0.1 * rng.normal(size=300)
        assert histogram_mi(data, 1, 2) == histogram_mi(data, 2, 1)

    def test_constant_feature_warns_and_zeroes(self):
        data = np.ones((100, 2))
        data[:, 1] = np.arange(100)
        assert histogram_mi(data, 0, 1) == 0.0

    def test_correlated_beats_independent(self):
        rng = np.random.default_rng(6)
        n = 2000
        latent = rng.uniform(size=n)
        data = np.column_stack([latent, latent + 0.05 * rng.normal(size=n), rng.uniform(size=n)])
        assert histogram_mi(data, 0, 1) > histogram_mi(data, 0, 2) + 0.2

    def test_too_few_samples(self):
        with pytest.raises(DataError):
            histogram_mi(np.ones((10, 2)), 0, 1)

    @pytest.mark.parametrize("pair", [(0, 2), (2, 0), (-1, 0), (0, -1)])
    def test_index_outside_the_columns(self, pair):
        data = np.random.default_rng(7).uniform(size=(50, 2))
        with pytest.raises(DataError, match="outside"):
            histogram_mi(data, *pair)


def tied_table(seed, n_rows, n_features):
    # mixed scales, values rounded onto a grid, several rows at each maximum
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n_rows, n_features)) * 10.0 ** rng.uniform(-2, 2, n_features)
    data = np.round(data, 2)
    for k in range(n_features):
        data[rng.integers(0, n_rows, 4), k] = data[:, k].max()
    return data


class TestHistogramMiMatrix:
    @pytest.mark.parametrize("seed, n_rows", [(0, 30), (1, 257), (2, 2000)])
    def test_equals_histogram2d_oracle_bit_for_bit(self, seed, n_rows):
        data = tied_table(seed, n_rows, 6)
        matrix = histogram_mi_matrix(data)
        for i in range(6):
            assert matrix[i, i] == 0.0
            for j in range(6):
                if i != j:
                    assert matrix[i, j] == helpers.histogram2d_mi(data, min(i, j), max(i, j))
                    assert histogram_mi(data, i, j) == matrix[i, j]

    def test_constant_column_zero_row_and_column_one_warning(self, caplog):
        data = tied_table(3, 100, 4)
        data[:, 2] = 1.5
        with caplog.at_level(logging.WARNING, logger="tnad.metrics"):
            matrix = histogram_mi_matrix(data)
        assert len(caplog.records) == 1
        assert "feature 2" in caplog.text
        assert not matrix[2].any() and not matrix[:, 2].any()
        assert matrix[0, 1] == helpers.histogram2d_mi(data, 0, 1)

    def test_too_few_samples(self):
        with pytest.raises(DataError, match=">= 30 rows"):
            histogram_mi_matrix(np.random.default_rng(8).uniform(size=(29, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_refused(self, value):
        data = tied_table(4, 40, 3)
        data[5, 1] = value
        with pytest.raises(DataError, match="finite"):
            histogram_mi_matrix(data)
        with pytest.raises(DataError, match="finite"):
            histogram_mi(data, 0, 1)


# Child process for the thread-count test: log amplitudes of 5,000 encoded
# rows under one seeded model, printed as a hash of their bytes.
SCORE_CHILD = """
import hashlib, sys
import numpy as np
from tnad import MpsModel, TtnModel, orthonormal_basis
if sys.argv[1] == "mps":
    model, width = MpsModel.random(36, 5, init_bond=40, seed=0), 36
else:
    model, width = TtnModel.random(57, 5, init_bond=16, seed=0), 57
unit = np.random.default_rng(4).uniform(size=(5000, width))
log_abs, sign = model.log_amplitudes(np.moveaxis(orthonormal_basis(5, unit), 0, -1))
print(hashlib.sha256(log_abs.tobytes() + sign.tobytes()).hexdigest())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs at least 2 CPUs")
@pytest.mark.parametrize("kind", ["mps", "ttn"])
def test_log_amplitudes_repeat_across_blas_thread_counts(kind):
    # MPS at bond 40 over 36 features and a 57-feature tree at bond 16:
    # the scoring path, which fit's thread-count test does not reach
    one, two = (helpers.run_in_child(SCORE_CHILD, kind, n) for n in (1, 2))
    assert one == two
