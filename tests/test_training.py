import json
import logging
import os

import numpy as np
import pytest

import helpers
from tnad import training
from tnad import (
    DataError,
    DegenerateInputError,
    LegendreFeatureMap,
    MpsModel,
    NumericalError,
    TrainConfig,
    TtnModel,
    fit,
    fit_rescaler,
    nll_loss,
    orthonormal_basis,
    score_samples,
    toy_correlated_pairs,
    toy_two_clusters,
    two_site_gradient,
    two_site_step,
)


class TestConfig:
    def test_learning_rate_bounds(self):
        with pytest.raises(DataError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(DataError):
            TrainConfig(learning_rate=0.6)
        TrainConfig(learning_rate=0.5)

    def test_zero_sweeps_allowed(self):
        assert TrainConfig(sweeps=0).sweeps == 0

    def test_negative_seed_refused(self):
        # numpy's generators take no negative seed; the config names it instead
        with pytest.raises(DataError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)
        assert TrainConfig(seed=0).seed == 0


class TestNllLoss:
    def test_product_model_factorizes(self):
        u = np.array([0.6, 0.8]).reshape(1, 2, 1)
        v = np.array([0.8, -0.6]).reshape(1, 2, 1)
        m = MpsModel([u, v], center=0)
        sample = np.array([[1.0, 0.5], [0.2, 0.9]])
        expected = -2.0 * (
            np.log(abs(u[0, :, 0] @ sample[0])) + np.log(abs(v[0, :, 0] @ sample[1]))
        )
        assert nll_loss(m, sample[None]) == pytest.approx(expected, rel=1e-12)

    def test_duplicated_dataset_same_loss(self):
        rng = np.random.default_rng(0)
        m = MpsModel.random(4, 2, init_bond=2, seed=1)
        batch = helpers.random_encoded(rng, 6, 4, 2)
        doubled = np.concatenate([batch, batch])
        assert nll_loss(m, doubled) == pytest.approx(nll_loss(m, batch), rel=1e-12)

    def test_matches_full_tensor_oracle(self):
        rng = np.random.default_rng(1)
        m = MpsModel.random(3, 2, init_bond=2, seed=2)
        theta = helpers.mps_full_tensor(m)
        batch = helpers.random_encoded(rng, 5, 3, 2)
        expected = -2.0 * np.mean(
            [np.log(abs(helpers.brute_amplitude(theta, s))) for s in batch]
        )
        assert nll_loss(m, batch) == pytest.approx(expected, rel=1e-10)

    def test_empty_batch_rejected(self):
        m = MpsModel.random(3, 2, seed=0)
        with pytest.raises(DataError):
            nll_loss(m, np.empty((0, 3, 2)))


class TestZeroAmplitudeSkip:
    """A sample whose amplitude is exactly zero leaves every loss and gradient.

    Site 0 holds ``(0, 1)`` and feature 0 at 0.5 encodes to ``(1, 0)``, so
    row 0 has amplitude 0 while the other rows do not.
    """

    model = MpsModel(
        [np.array([0.0, 1.0]).reshape(1, 2, 1), np.array([0.6, 0.8]).reshape(1, 2, 1)],
        center=0,
    )
    batch = np.moveaxis(
        orthonormal_basis(2, np.array([[0.5, 0.2], [0.1, 0.7], [0.9, 0.4], [0.3, 0.95]])), 0, -1
    )

    def test_zero_amplitude_is_exact(self):
        log_abs, _ = self.model.log_amplitudes(self.batch)
        assert log_abs[0] == -np.inf
        assert np.isfinite(log_abs[1:]).all()

    def test_nll_loss_averages_the_other_rows(self, caplog):
        with caplog.at_level(logging.WARNING, logger="tnad.training"):
            loss = nll_loss(self.model, self.batch)
        assert loss == pytest.approx(nll_loss(self.model, self.batch[1:]), rel=1e-14)
        assert "skipped 1 zero-amplitude samples" in caplog.text

    def test_only_zero_rows_raise(self):
        with pytest.raises(NumericalError):
            nll_loss(self.model, self.batch[:1])

    def test_gradient_ignores_the_zero_row(self, caplog):
        merged = self.model.merge_edge((0, 1))
        with caplog.at_level(logging.WARNING, logger="tnad.training"):
            grad = two_site_gradient(self.model, (0, 1), merged, self.batch)
        expected = two_site_gradient(self.model, (0, 1), merged, self.batch[1:])
        np.testing.assert_allclose(grad, expected, rtol=1e-14, atol=1e-15)
        assert "skipped 1 zero-amplitude samples" in caplog.text


def finite_difference_gradient(model, edge, merged, batch, coords, h=1e-5):
    """Central differences of the NLL through a full-tensor contraction.

    The loss is evaluated with the perturbed merged tensor spliced in as
    is (no renormalization), which is the function the two-site gradient
    differentiates.
    """

    def loss(c):
        theta = helpers.full_tensor_with_merged(model, edge, c)
        amps = [helpers.brute_amplitude(theta, s) for s in batch]
        return -2.0 * np.mean(np.log(np.abs(amps)))

    grads = {}
    flat = merged.reshape(-1)
    for idx in coords:
        plus = flat.copy()
        plus[idx] += h
        minus = flat.copy()
        minus[idx] -= h
        grads[idx] = (loss(plus.reshape(merged.shape)) - loss(minus.reshape(merged.shape))) / (
            2 * h
        )
    return grads


def well_conditioned_batch(rng, model, size):
    """Random encodings filtered to avoid near-zero amplitudes.

    Finite differences of the log-likelihood lose accuracy where an
    amplitude nearly vanishes; :class:`TestZeroAmplitudeSkip` covers the vanishing case.
    """
    pool = helpers.random_encoded(rng, 8 * size, model_sites(model), model.phys_dim)
    log_abs, _ = model.log_amplitudes(pool)
    return pool[np.argsort(log_abs)[::-1][:size]]


class TestTwoSiteGradient:
    @pytest.mark.parametrize("kind", ["mps", "ttn"])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(7)
        for seed in range(4):
            if kind == "mps":
                model = MpsModel.random(4, 2, init_bond=3, seed=seed)
                edge = (1, 2)
            else:
                model = TtnModel.random(4, 2, init_bond=3, seed=seed)
                edge = model.sweep_schedule()[0]
            model.canonicalize(edge[0])
            merged = model.merge_edge(edge)
            batch = well_conditioned_batch(rng, model, 6)
            grad = two_site_gradient(model, edge, merged, batch)
            coords = rng.choice(merged.size, size=min(8, merged.size), replace=False)
            fd = finite_difference_gradient(model, edge, merged, batch, coords)
            for idx, expected in fd.items():
                assert grad.reshape(-1)[idx] == pytest.approx(expected, rel=1e-6, abs=1e-9)

    def test_rank_one_structure_for_single_sample(self):
        model = MpsModel.random(3, 2, init_bond=1, seed=3)
        model.canonicalize(0)
        merged = model.merge_edge((0, 1))
        rng = np.random.default_rng(2)
        batch = helpers.random_encoded(rng, 1, 3, 2)
        grad = two_site_gradient(model, (0, 1), merged, batch)
        matrix = grad.reshape(merged.shape[0] * 2, -1)
        s = np.linalg.svd(matrix, compute_uv=False)
        assert s[1] <= 1e-12 * s[0]  # outer product of environment vectors

    def test_duplicated_batch_same_gradient(self):
        model = MpsModel.random(4, 2, init_bond=2, seed=4)
        model.canonicalize(1)
        merged = model.merge_edge((1, 2))
        rng = np.random.default_rng(3)
        batch = helpers.random_encoded(rng, 5, 4, 2)
        doubled = np.concatenate([batch, batch])
        g1 = two_site_gradient(model, (1, 2), merged, batch)
        g2 = two_site_gradient(model, (1, 2), merged, doubled)
        np.testing.assert_allclose(g1, g2, rtol=1e-12, atol=1e-14)


def model_sites(model):
    return model.n_sites if isinstance(model, MpsModel) else model.n_features


def fail_next_split(monkeypatch, model):
    """Make the model's next ``split_edge`` raise DegenerateInputError; later ones run."""
    original = model.split_edge

    def split_edge(*args, **kwargs):
        monkeypatch.setattr(model, "split_edge", original)
        raise DegenerateInputError("split refused")

    monkeypatch.setattr(model, "split_edge", split_edge)


class TestTwoSiteStep:
    def test_zero_learning_rate_preserves_amplitudes(self):
        rng = np.random.default_rng(5)
        model = MpsModel.random(4, 2, init_bond=2, seed=6)
        batch = helpers.random_encoded(rng, 8, 4, 2)
        reference, _ = model.log_amplitudes(batch)
        env = model.environment_cache(batch)
        config = TrainConfig(learning_rate=1e-9, inner_steps=1, svd_rel_threshold=0.0)
        stats = two_site_step(model, (0, 1), env, None, 0.0, config)
        assert stats.error is None
        log_abs, _ = model.log_amplitudes(batch)
        np.testing.assert_allclose(log_abs, reference, rtol=1e-10, atol=1e-10)

    def test_descent_on_two_site_chain(self):
        rng = np.random.default_rng(6)
        model = MpsModel.random(2, 3, init_bond=2, seed=7)
        batch = np.abs(helpers.random_encoded(rng, 16, 2, 3)) + 0.2
        env = model.environment_cache(batch)
        config = TrainConfig(learning_rate=1e-3, inner_steps=1)
        losses = []
        edges = [(0, 1), (1, 0)]
        for step in range(10):
            stats = two_site_step(model, edges[step % 2], env, None, 1e-3, config)
            losses.append(stats.loss_after)
            assert stats.error is None
        diffs = np.diff(losses)
        assert (diffs <= 1e-9).all()

    def test_max_bond_one_forces_product_state(self):
        model = MpsModel.random(4, 2, init_bond=3, seed=8)
        rng = np.random.default_rng(7)
        batch = helpers.random_encoded(rng, 10, 4, 2)
        config = TrainConfig(learning_rate=1e-3, inner_steps=1, max_bond=1)
        fit(model, batch, TrainConfig(learning_rate=1e-3, sweeps=1, batch_size=None, max_bond=1))
        assert model.bond_profile() == [1, 1, 1]

    def test_local_loss_recorded(self):
        model = MpsModel.random(3, 2, init_bond=2, seed=9)
        rng = np.random.default_rng(8)
        batch = np.abs(helpers.random_encoded(rng, 12, 3, 2)) + 0.2
        env = model.environment_cache(batch)
        config = TrainConfig(learning_rate=5e-3, inner_steps=3)
        stats = two_site_step(model, (0, 1), env, None, 5e-3, config)
        assert np.isfinite(stats.loss_before)
        assert np.isfinite(stats.loss_after)
        assert stats.loss_after <= stats.loss_before + 1e-9

    def test_degenerate_split_restores_the_state(self, monkeypatch):
        model = MpsModel.random(4, 2, init_bond=2, seed=10)
        batch = np.abs(helpers.random_encoded(np.random.default_rng(9), 12, 4, 2)) + 0.2
        reference, _ = model.log_amplitudes(batch)
        env = model.environment_cache(batch)
        fail_next_split(monkeypatch, model)
        stats = two_site_step(model, (0, 1), env, None, 5e-3, TrainConfig(learning_rate=5e-3))
        assert stats.error == "split refused"
        assert model.center == 1
        log_abs, _ = model.log_amplitudes(batch)
        np.testing.assert_allclose(log_abs, reference, rtol=0.0, atol=1e-12)

    def test_degenerate_split_reported_by_fit(self, monkeypatch):
        model = MpsModel.random(4, 2, init_bond=2, seed=10)
        batch = np.abs(helpers.random_encoded(np.random.default_rng(9), 12, 4, 2)) + 0.2
        fail_next_split(monkeypatch, model)
        report = fit(model, batch, TrainConfig(learning_rate=5e-3, sweeps=1, batch_size=None))
        assert report.step_errors == ["sweep 0, edge (0, 1): split refused"]


class TestLossAfter:
    """``StepStats.loss_after`` is priced from the two new node tensors, not a re-merge."""

    @pytest.mark.parametrize(
        "kind, edge",
        # the MPS end edge splits (1, 3, 3, 4) as 3 | 12, the tree edge from
        # node 4 to the root as 16 | 4; the factor pair is cut the same way
        [("mps", (0, 1)), ("mps", (2, 3)), ("ttn", (4, 0))],
        ids=["mps-end", "mps-inner", "tree"],
    )
    def test_equals_the_nll_of_the_merged_split(self, kind, edge):
        if kind == "mps":
            model = MpsModel.random(6, 3, init_bond=4, seed=12)
        else:
            model = TtnModel.random(8, 3, init_bond=4, seed=12)
        model.canonicalize(edge[0])
        batch = well_conditioned_batch(np.random.default_rng(13), model, 40)
        env = model.environment_cache(batch)
        config = TrainConfig(learning_rate=5e-3, inner_steps=3, max_bond=2)
        stats = two_site_step(model, edge, env, None, 5e-3, config)
        assert stats.error is None
        assert stats.discarded_weight > 0.0  # the cap truncated the split
        (left, right), log_scale, _ = env.factors(edge)
        psi = training._contract_fractions(model.merge_edge(edge), left, right)
        expected, _ = training._mean_nll(training._log_abs(psi, log_scale))
        assert stats.loss_after == pytest.approx(expected, rel=1e-12)


class TestSampleSpaceStep:
    """``two_site_step`` against the tensor-space reference step of ``helpers``."""

    @staticmethod
    def make(kind, rows):
        rng = np.random.default_rng(11)
        if kind == "mps":
            model = MpsModel.random(4, 3, init_bond=4, seed=12)
            edge = (1, 2)
            model.canonicalize(1)
        else:
            model = TtnModel.random(5, 3, init_bond=4, seed=12)
            edge = model.sweep_schedule()[0]
        return model, edge, well_conditioned_batch(rng, model, rows)

    @pytest.mark.parametrize("kind", ["mps", "ttn"])
    # 12 samples take the n x n Gram (each update one product with it), 60
    # map every update into the merged tensor and back (two GEMMs per update)
    @pytest.mark.parametrize("rows, gram", [(12, True), (60, False)], ids=["gram", "per-step"])
    def test_matches_tensor_space_reference(self, monkeypatch, kind, rows, gram):
        model, edge, batch = self.make(kind, rows)
        expected, expected_loss = helpers.reference_step(model, edge, batch, 5e-3, 3)
        weighted_sums = []
        original = training._weighted_sum

        def counted(*args):
            weighted_sums.append(1)
            return original(*args)

        monkeypatch.setattr(training, "_weighted_sum", counted)
        config = TrainConfig(inner_steps=3, svd_rel_threshold=0.0, max_bond=1000)
        stats = two_site_step(model, edge, model.environment_cache(batch), None, 5e-3, config)
        assert stats.error is None
        # the merged tensor is formed once, before the split; the per-step
        # route also forms each gradient
        assert (len(weighted_sums) == 1) == gram
        np.testing.assert_allclose(model.merge_edge(edge), expected, rtol=0.0, atol=1e-12)
        assert stats.loss_after == pytest.approx(expected_loss, rel=1e-12)


class TestLineSearch:
    """The inner-step rule on a two-sample problem whose amplitudes are the
    two entries of the merged tensor (``psi = merged``)."""

    left = np.eye(2)
    right = np.ones((2, 1))
    log_scale = np.zeros(2)

    def start(self, merged):
        merged = np.array(merged) / np.linalg.norm(merged)
        psi = training._contract_fractions(merged, self.left, self.right)
        (loss,), (zeros,) = training._local_nll(psi[None], self.log_scale)
        return merged, (psi, loss, zeros)

    def search(self, merged, current, grad, step):
        # left = eye(2): the sample weights are the gradient and K = I
        weights = np.array(grad)
        return training._line_search(
            *current, weights, weights, np.sum(np.square(merged)), step, self.log_scale
        )

    def test_descent_doubles_at_most_three_times(self):
        merged, current = self.start([0.99, 0.141])
        size, norm, psi, loss, _ = self.search(merged, current, [1.0, -1.0], 0.01)
        assert size == 8 * 0.01
        moved = merged + size * np.array([-1.0, 1.0])
        assert norm == pytest.approx(np.linalg.norm(moved), rel=1e-14)
        np.testing.assert_allclose(psi, moved / norm, rtol=1e-14)
        assert loss < current[1]

    def test_zeroing_a_sample_is_not_a_descent(self):
        # the first trial zeroes sample 0; "skip" then averages over sample 1
        # alone, which lowers the local NLL without fitting anything better
        merged, current = self.start([0.6, 0.8])
        _, (_, zeroed_loss, zeroed_zeros) = self.start([0.0, 0.8])
        assert zeroed_zeros == 1 and zeroed_loss < current[1]
        assert self.search(merged, current, [1.0, 0.0], 0.6) is None


class TestLadderOracle:
    """``_line_search``, all trials priced at once, against the sequential
    search of ``helpers``: the same trial, bit for bit."""

    @staticmethod
    def problem(seed, n=16, width=6):
        """A sample-space update of a unit merged tensor ``m`` with amplitudes
        ``psi = A m`` for a random ``A``: its NLL weights and their amplitudes."""
        rng = np.random.default_rng(seed)
        factor = rng.standard_normal((n, width)) + 1.0
        merged = rng.standard_normal(width)
        merged /= np.linalg.norm(merged)
        psi = factor @ merged
        weights = (-2.0 / n) / psi
        psi_grad = factor @ (factor.T @ weights)
        log_scale = rng.standard_normal(n)
        return psi, weights, psi_grad, float(merged @ merged), log_scale

    @staticmethod
    def agree(psi, weights, psi_grad, squared, step, log_scale):
        """Both searches' trial, asserted bit-equal; None if neither descends."""
        (loss,), (zeros,) = training._local_nll(psi[None], log_scale)
        args = (psi, loss, zeros, weights, psi_grad, squared, step, log_scale)
        got = training._line_search(*args)
        want = helpers.sequential_line_search(*args)
        assert (got is None) == (want is None)
        if got is not None:
            size, norm, amplitudes, got_loss, got_zeros = got
            assert (size, norm, got_loss, got_zeros) == (want[0], want[1], want[3], want[4])
            np.testing.assert_array_equal(amplitudes, want[2])
        return got

    def test_random_problems(self):
        exponents = set()
        for seed in range(40):
            psi, weights, psi_grad, squared, log_scale = self.problem(seed)
            step = 10.0 ** np.random.default_rng(seed + 100).uniform(-4.0, 0.0)
            found = self.agree(psi, weights, psi_grad, squared, step, log_scale)
            exponents.add(int(np.log2(found[0] / step)))
        # the problems reach the longest trial, the first and a halving
        assert {3, 0, -1} <= exponents

    @pytest.mark.parametrize("k", [0, 2], ids=["first", "doubled"])
    def test_trial_that_zeroes_a_sample(self, k):
        psi, weights, psi_grad, squared, log_scale = self.problem(4)
        # powers of two: the trial 2**k times the step zeroes sample j exactly,
        # the one of the largest local NLL, which lowers the local mean
        step, j = 2.0 ** -7, int(np.argmin(np.log(np.abs(psi)) + log_scale))
        size = step * 2.0 ** k
        psi_grad[j] = psi[j] / size
        # only the zero rule keeps that trial: it lowers the local NLL
        norm2 = squared - 2.0 * size * (psi @ weights) + size * size * (weights @ psi_grad)
        losses, zeros = training._local_nll(
            np.stack([psi, (psi - size * psi_grad) / np.sqrt(norm2)]), log_scale)
        assert losses[1] < losses[0] and tuple(zeros) == (0, 1)
        found = self.agree(psi, weights, psi_grad, squared, step, log_scale)
        assert found[0] < size and found[4] == 0

    @pytest.mark.parametrize("crossing", [3.0, 0.75, 1.5 * 2.0 ** -6],
                             ids=["doubling", "first", "halving"])
    def test_long_steps_without_a_positive_norm(self, crossing):
        # a part of the weights orthogonal to psi leaves <merged, grad> as it
        # is and makes |grad|² negative, so the squared trial norm
        # ``squared + 4 size - scale size²`` falls below zero past ``crossing``
        # times the step
        psi, weights, psi_grad, squared, log_scale = self.problem(5)
        step = 1e-3
        scale = (squared + 4.0 * crossing * step) / (crossing * step) ** 2
        across = psi_grad - (psi_grad @ psi) / (psi @ psi) * psi
        weights = weights - (scale + weights @ psi_grad) / (across @ psi_grad) * across
        sizes = step * 2.0 ** np.arange(-10, 4)
        norm2 = squared - 2.0 * sizes * float(psi @ weights) + sizes * sizes * float(
            weights @ psi_grad)
        assert (norm2 <= 0.0).any() and (norm2 > 0.0).any()
        found = self.agree(psi, weights, psi_grad, squared, step, log_scale)
        assert found is None or found[0] < crossing * step

    def test_no_trial_descends(self):
        # the ascent direction: every trial this short raises the local NLL
        psi, weights, psi_grad, squared, log_scale = self.problem(7)
        assert self.agree(psi, -weights, -psi_grad, squared, 1e-3, log_scale) is None


class TestFit:
    def make_toy(self, n=400, n_features=4, seed=0):
        data = toy_two_clusters(n, n_features, seed=seed)
        encoder = LegendreFeatureMap(3, fit_rescaler(data))
        return data, encoder

    def test_zero_sweeps_noop(self):
        data, encoder = self.make_toy()
        model = MpsModel.random(4, 3, init_bond=2, seed=0, encoder=encoder)
        before = [c.copy() for c in model.tensors]
        report = fit(model, encoder.encode_batch(data), TrainConfig(sweeps=0))
        assert report.nll_trace == []
        for a, b in zip(before, model.tensors):
            np.testing.assert_array_equal(a, b)

    def test_nll_decreases_on_paired_toy(self):
        # 500 samples over 4 features built from two independent tied pairs
        data = toy_correlated_pairs(500, 4, pairs=((0, 1), (2, 3)), seed=21)
        encoder = LegendreFeatureMap(3, fit_rescaler(data))
        enc = encoder.encode_batch(data)
        model = MpsModel.random(4, 3, init_bond=2, seed=1, encoder=encoder)
        start = nll_loss(model, enc)
        report = fit(
            model, enc,
            TrainConfig(learning_rate=1e-2, sweeps=3, batch_size=None, max_bond=6, seed=1),
        )
        trace = [start] + report.nll_trace
        assert all(trace[i + 1] < trace[i] for i in range(3))

    def test_deterministic_given_seed(self):
        data, encoder = self.make_toy()
        enc = encoder.encode_batch(data)
        traces = []
        for _ in range(2):
            model = MpsModel.random(4, 3, init_bond=2, seed=2, encoder=encoder)
            config = TrainConfig(learning_rate=5e-3, sweeps=2, batch_size=64, seed=9)
            traces.append(fit(model, enc, config).nll_trace)
        assert traces[0] == traces[1]  # bitwise identical

    def test_bond_cap_respected(self):
        data, encoder = self.make_toy(n_features=5)
        enc = encoder.encode_batch(data)
        model = MpsModel.random(5, 3, init_bond=2, seed=3, encoder=encoder)
        report = fit(model, enc, TrainConfig(learning_rate=5e-3, sweeps=2, max_bond=3, seed=0))
        assert max(report.bond_profile) <= 3

    def test_unit_norm_after_training(self):
        data, encoder = self.make_toy()
        model = MpsModel.random(4, 3, init_bond=2, seed=4, encoder=encoder)
        fit(model, encoder.encode_batch(data), TrainConfig(sweeps=2, seed=0))
        assert model.state_norm() == pytest.approx(1.0, abs=1e-8)
        assert model.isometry_defect() <= 1e-8

    def test_ttn_fit_decreases(self):
        data = toy_two_clusters(400, 6, seed=5)
        encoder = LegendreFeatureMap(3, fit_rescaler(data))
        enc = encoder.encode_batch(data)
        model = TtnModel.random(6, 3, init_bond=2, seed=5, encoder=encoder)
        start = nll_loss(model, enc)
        report = fit(model, enc, TrainConfig(learning_rate=5e-3, sweeps=2, batch_size=None, seed=5))
        assert report.nll_trace[-1] < start

    def test_in_distribution_scores_below_uniform(self):
        # trained-distribution samples should look less anomalous than noise
        hits = 0
        for seed in range(20):
            data = toy_two_clusters(300, 4, seed=seed)
            encoder = LegendreFeatureMap(3, fit_rescaler(data))
            enc = encoder.encode_batch(data)
            model = MpsModel.random(4, 3, init_bond=2, seed=seed, encoder=encoder)
            fit(model, enc, TrainConfig(learning_rate=5e-3, sweeps=2, batch_size=None,
                                        max_bond=6, seed=seed))
            rng = np.random.default_rng(100 + seed)
            indist = toy_two_clusters(100, 4, seed=1000 + seed)
            lo, hi = data.min(axis=0), data.max(axis=0)
            noise = rng.uniform(lo, hi, size=(100, 4))
            mean_in = score_samples(model, encoder.encode_batch(indist)).mean()
            mean_noise = score_samples(model, encoder.encode_batch(noise)).mean()
            hits += mean_in < mean_noise
        assert hits >= 19


class TestCachedNll:
    @pytest.mark.parametrize("kind, n_features", [("mps", 5), ("ttn", 6), ("ttn", 5)],
                             ids=["mps", "tree", "padded-tree"])
    def test_trace_ends_at_full_data_nll(self, kind, n_features):
        data = toy_two_clusters(300, n_features, seed=8)
        encoder = LegendreFeatureMap(3, fit_rescaler(data))
        enc = encoder.encode_batch(data)
        model_class = MpsModel if kind == "mps" else TtnModel
        model = model_class.random(n_features, 3, init_bond=3, seed=8, encoder=encoder)
        report = fit(model, enc, TrainConfig(sweeps=2, batch_size=64, seed=8))
        assert report.nll_trace[-1] == pytest.approx(nll_loss(model, enc), rel=1e-12)


def fit_by_hand(model, raw, config):
    """``fit``'s sweeps driven from outside: the same draws, an unplanned cache
    that keeps every message whole, ``two_site_step`` and the same decay.
    Returns the NLL trace, read at the center as ``fit`` reads it."""
    model.canonicalize(model.sweep_start())
    model.normalize()
    env = model.environment_cache(raw)
    rng = np.random.default_rng(config.seed)
    n = len(raw)
    draw = config.batch_size is not None and config.batch_size < n
    learning_rate, trace = config.learning_rate, []
    for _ in range(config.sweeps):
        for edge in model.sweep_schedule():
            rows = rng.choice(n, size=config.batch_size, replace=False) if draw else None
            two_site_step(model, edge, env, rows, learning_rate, config)
        psi, log_scale = env.amplitudes()
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(psi)) + log_scale
        trace.append(float(-2.0 * log_abs[np.isfinite(log_abs)].mean()))
        learning_rate *= config.lr_decay
    return trace


def inner_bonds(model):
    """Extents of the bonds between two inner nodes, the bonds the cache stores."""
    inner = {u for u in range(model.n_nodes) if len(model.neighbors(u)) > 1}
    return [bond for (u, v), bond in zip(model._edges(), model.bond_profile())
            if u in inner and v in inner]


class TestRowCache:
    """``fit`` stores a message read by one more step only at that step's rows."""

    @staticmethod
    def case(kind, n_features=9, rows=300):
        raw = np.random.default_rng(40).uniform(size=(rows, n_features))
        encoder = LegendreFeatureMap(3, fit_rescaler(raw))
        model_class = MpsModel if kind == "mps" else TtnModel
        return raw, model_class.random(n_features, 3, init_bond=6, seed=41, encoder=encoder)

    @pytest.mark.parametrize("batch_size", [16, 300, 500], ids=["batch16", "all-rows", "over"])
    @pytest.mark.parametrize("kind, n_features", [("mps", 9), ("ttn", 11)],
                             ids=["mps", "padded-tree"])
    def test_fit_gives_the_bits_of_an_unplanned_cache(self, kind, n_features, batch_size):
        """Three sweeps, so messages stored at rows of a step in the next sweep
        are read across two sweep boundaries."""
        raw, model = self.case(kind, n_features)
        assert kind == "mps" or model.padding == 1
        config = TrainConfig(learning_rate=5e-3, inner_steps=2, batch_size=batch_size, sweeps=3,
                             max_bond=6, seed=42)
        twin = model.copy()
        report = fit(model, raw, config)
        assert report.nll_trace == fit_by_hand(twin, raw, config)
        for ours, theirs in zip(model.tensors, twin.tensors, strict=True):
            np.testing.assert_array_equal(ours, theirs)

    def test_a_kept_message_is_read_only_at_its_rows(self):
        """Built for a sweep from site 0, the MPS cache keeps each message toward
        site 0 at the rows of the step that reads it next: those rows of the
        whole message, readable once, at those rows only."""
        raw, model = self.case("mps")
        steps = [(edge, np.random.default_rng(u).choice(300, 16, replace=False))
                 for u, edge in enumerate(model.sweep_schedule())]
        env = model.environment_cache(raw, plan=steps)
        whole = model.environment_cache(raw)
        _, rows = steps[1]  # the step at (1, 2) reads 3 -> 2
        other = np.sort(rows)
        for wrong in (None, other, rows[:8]):
            with pytest.raises(NumericalError, match="rows"):
                env.message(3, 2, wrong)
        got, want = env.message(3, 2, rows.copy()), whole.message(3, 2, rows)
        for a, b in zip(got, want, strict=True):
            np.testing.assert_array_equal(a, b)
        with pytest.raises(NumericalError, match="no message 3 -> 2"):
            env.message(3, 2, rows)

    def test_report_counts_the_bytes_the_cache_held(self):
        """Drawn batches hold at most two messages of every row and one of a
        step's rows per inner bond; a full batch holds every inner bond's
        message of every row, as the cache is built."""
        n_rows, n_features, batch_size, max_bond = 600, 12, 32, 12
        raw = np.random.default_rng(43).uniform(size=(n_rows, n_features))
        encoder = LegendreFeatureMap(3, fit_rescaler(raw))
        model = MpsModel.random(n_features, 3, init_bond=max_bond, seed=44, encoder=encoder)
        start = model.copy()
        # the cache is built with every inner bond's message, at the start's bonds
        whole = sum(8 * n_rows * bond for bond in inner_bonds(start))
        drawn = fit(model, raw, TrainConfig(sweeps=2, batch_size=batch_size, max_bond=max_bond))
        n_inner = len(inner_bonds(model))
        assert n_inner == n_features - 3
        assert 0 < drawn.cache_peak_bytes <= 8 * max_bond * (2 * n_rows + n_inner * batch_size)
        full = fit(start, raw, TrainConfig(sweeps=2, batch_size=None, max_bond=max_bond))
        assert full.cache_peak_bytes >= whole
        assert full.to_dict()["cache_peak_bytes"] == full.cache_peak_bytes


class TestStartAmplitudes:
    """A step starts from the two node tensors' amplitudes, not the merged tensor's."""

    @pytest.mark.parametrize("kind", ["mps", "ttn"])
    def test_equal_the_merged_tensor_at_every_edge_of_a_sweep(self, kind):
        if kind == "mps":
            model = MpsModel.random(7, 3, init_bond=4, seed=1)
        else:
            model = TtnModel.random(9, 3, init_bond=4, seed=2)  # padded: a dummy feature
        batch = well_conditioned_batch(np.random.default_rng(14), model, 30)
        env = model.environment_cache(batch)
        config = TrainConfig(learning_rate=5e-3, inner_steps=2, svd_rel_threshold=0.0)
        for edge in model.sweep_schedule():
            (left, right), log_scale, _ = env.factors(edge)
            want = training._contract_fractions(model.merge_edge(edge), left, right)
            got = training._node_fractions(model, edge, left, right)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
            loss, _ = training._mean_nll(training._log_abs(want, log_scale))
            stats = two_site_step(model, edge, env, None, 5e-3, config)
            assert stats.error is None
            assert stats.loss_before == pytest.approx(loss, rel=1e-12)


class TestSplitRoutes:
    """``TrainReport.split_routes``: which route made each of a fit's splits."""

    @staticmethod
    def fit_recipe(kind, n_features, rows, init_bond, max_bond, batch):
        """A fit of the thread-count test's recipe below, in this process."""
        data = toy_correlated_pairs(rows, n_features, pairs=((1, 2), (5, 6)), noise=0.025,
                                    spread=0.10, seed=11)
        encoder = LegendreFeatureMap(5, fit_rescaler(data))
        model_class = MpsModel if kind == "mps" else TtnModel
        model = model_class.random(n_features, 5, init_bond=init_bond, seed=3, encoder=encoder)
        return model, fit(model, encoder.encode_batch(data), TrainConfig(
            learning_rate=4e-3, sweeps=2, batch_size=batch, max_bond=max_bond, seed=5))

    def test_tree_splits_at_the_cap_take_the_subspace_route(self):
        model, report = self.fit_recipe("ttn", 16, 600, 16, 16, 256)
        routes = report.split_routes
        assert routes.get("subspace", 0) >= 1
        assert sum(routes.values()) == 2 * len(model.sweep_schedule())
        assert report.to_dict()["split_routes"] == routes
        assert model.isometry_defect() <= 1e-12

    def test_mps_splits_stay_exact(self):
        model, report = self.fit_recipe("mps", 8, 600, 40, 40, 256)
        assert set(report.split_routes) == {"gram"}
        assert sum(report.split_routes.values()) == 2 * len(model.sweep_schedule())

    def test_aborted_step_reports_no_route(self, monkeypatch):
        raw = toy_two_clusters(80, 4, seed=2)
        encoder = LegendreFeatureMap(3, fit_rescaler(raw))
        model = MpsModel.random(4, 3, init_bond=2, seed=2, encoder=encoder)
        fail_next_split(monkeypatch, model)
        report = fit(model, raw, TrainConfig(sweeps=1, batch_size=None))
        assert len(report.step_errors) == 1
        assert sum(report.split_routes.values()) == len(model.sweep_schedule()) - 1


class TestAmplitudeRoutes:
    """``StepStats.amplitude_route`` and ``TrainReport.amplitude_routes``."""

    @pytest.mark.parametrize("kind", ["mps", "ttn"])
    # the edge's factor widths sum to 18 (mps) and 13 (ttn): 12 rows may take
    # the Gram, 60 may not hold an n x n matrix larger than the factor pair
    @pytest.mark.parametrize("rows, route", [(12, "gram"), (60, "pair")])
    def test_a_step_reports_its_route(self, kind, rows, route):
        model, edge, batch = TestSampleSpaceStep.make(kind, rows)
        env = model.environment_cache(batch)
        (left, right), _, _ = env.factors(edge)
        assert (rows <= left.shape[1] + right.shape[1]) == (route == "gram")
        stats = two_site_step(model, edge, env, None, 5e-3, TrainConfig(inner_steps=3))
        assert stats.error is None
        assert stats.amplitude_route == route

    def test_more_rows_than_factor_entries_take_the_pair_route(self):
        """Past ``n = W0 + W1`` the Gram is never built, however cheap its flops."""
        model, edge, batch = TestSampleSpaceStep.make("mps", 19)
        env = model.environment_cache(batch)
        (left, right), _, legs = env.factors(edge)
        (n, width_l), width_r = left.shape, right.shape[1]
        assert n == width_l + width_r + 1
        # over 50 updates the Gram would cost fewer flops than the pair
        assert n * n * (sum(a.shape[1] for a in legs) + 50) < 2 * 50 * n * width_l * width_r
        stats = two_site_step(model, edge, env, None, 5e-3, TrainConfig(inner_steps=50))
        assert stats.amplitude_route == "pair"

    @pytest.mark.parametrize("kind, max_bond", [("mps", 40), ("ttn", 16)])
    def test_fit_counts_every_step(self, kind, max_bond):
        # bonds grow from 2: narrow edges take the pair route, wide ones the Gram
        model, report = TestSplitRoutes.fit_recipe(kind, 16, 600, 2, max_bond, 256)
        routes = report.amplitude_routes
        assert set(routes) == {"gram", "pair"}
        assert sum(routes.values()) == 2 * len(model.sweep_schedule())
        assert report.to_dict()["amplitude_routes"] == routes

    def test_aborted_step_counts_its_route(self, monkeypatch):
        raw = toy_two_clusters(80, 4, seed=2)
        encoder = LegendreFeatureMap(3, fit_rescaler(raw))
        model = MpsModel.random(4, 3, init_bond=2, seed=2, encoder=encoder)
        fail_next_split(monkeypatch, model)
        report = fit(model, raw, TrainConfig(sweeps=1, batch_size=None))
        assert len(report.step_errors) == 1
        assert report.amplitude_routes == {"pair": len(model.sweep_schedule())}


# Child process for the thread-count test: one fit, printed as JSON. The
# BLAS reads its thread count when numpy loads, so the count is set in the
# child's environment, never in this process.
FIT_CHILD = """
import hashlib, json, sys
import numpy as np
from tnad import (LegendreFeatureMap, MpsModel, TrainConfig, TtnModel, fit,
                  fit_rescaler, toy_correlated_pairs)
kind, n_features, rows, init_bond, max_bond, batch = json.loads(sys.argv[1])
data = toy_correlated_pairs(rows, n_features, pairs=((1, 2), (5, 6)), noise=0.025,
                            spread=0.10, seed=11)
encoder = LegendreFeatureMap(5, fit_rescaler(data))
model_class = MpsModel if kind == "mps" else TtnModel
model = model_class.random(n_features, 5, init_bond=init_bond, seed=3, encoder=encoder)
report = fit(model, encoder.encode_batch(data), TrainConfig(
    learning_rate=4e-3, sweeps=2, batch_size=batch, max_bond=max_bond, seed=5))
tensors = model.tensors
digest = hashlib.sha256(b"".join(np.ascontiguousarray(t).tobytes() for t in tensors))
print(json.dumps({"trace": [x.hex() for x in report.nll_trace], "bonds": report.bond_profile,
                  "tensors": digest.hexdigest()}))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs at least 2 CPUs")
@pytest.mark.parametrize(
    "case",
    [
        # full batch of 2000 rows: the gradient sums over 2000 samples
        ("mps", 8, 2000, 2, 10, None),
        ("ttn", 12, 2000, 2, 10, None),
        # mini-batches with merged tensors of 40,000 (mps) and 65,536 (ttn) entries
        ("mps", 8, 600, 40, 40, 256),
        ("ttn", 16, 600, 16, 16, 256),
        # merged-tensor sides of 195 (mps bond 39) and 225 (ttn bond 15), and
        # splits of 185 rows (mps bond 37): widths and SVDs that OpenBLAS
        # threads differently at 1 and 2 threads
        ("mps", 8, 600, 39, 39, 256),
        ("ttn", 16, 600, 15, 15, 256),
        ("mps", 8, 2000, 37, 37, None),
    ],
    ids=["mps-full-batch", "ttn-full-batch", "mps-large-merge", "ttn-large-merge",
         "mps-bond-39", "ttn-bond-15", "mps-bond-37-full-batch"],
)
def test_fit_repeats_across_blas_thread_counts(case):
    one, two = (json.loads(helpers.run_in_child(FIT_CHILD, json.dumps(case), n)) for n in (1, 2))
    assert one["trace"] == two["trace"]
    assert one["bonds"] == two["bonds"]
    assert one["tensors"] == two["tensors"]
