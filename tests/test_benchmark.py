import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tnad import (
    DataError,
    LegendreFeatureMap,
    PollutionPlan,
    RunConfig,
    TrainConfig,
    TtnModel,
    benchmark_arrays,
    build_pollution,
    fit,
    fit_rescaler,
    load_model,
    stratified_folds,
    toy_two_clusters,
)
from tnad.benchmark import train_model


def small_config(n_folds=4):
    return RunConfig(
        phys_dim=3,
        init_bond=2,
        n_folds=n_folds,
        train=TrainConfig(learning_rate=5e-3, sweeps=2, batch_size=None, max_bond=4, seed=0),
        pollution=PollutionPlan(native_fraction=0.5, seed=0),
    )


@pytest.fixture(scope="module")
def labeled_dataset():
    rng = np.random.default_rng(0)
    regular = toy_two_clusters(600, 4, seed=1)
    native = rng.uniform(-0.5, 1.5, size=(80, 4))
    data = np.vstack([regular, native])
    labels = np.concatenate([np.zeros(600, bool), np.ones(80, bool)])
    return data, labels


class TestBenchmarkArrays:
    def test_fold_counts_and_ranges(self, labeled_dataset):
        data, labels = labeled_dataset
        result = benchmark_arrays(data, labels, "mps", small_config(), seed=7)
        assert len(result.separation_auc) == 4
        assert len(result.inductive_auc) == 4
        for auc in result.separation_auc + result.inductive_auc:
            assert 0.0 <= auc <= 1.0

    def test_aggregates_are_arithmetic(self, labeled_dataset):
        data, labels = labeled_dataset
        result = benchmark_arrays(data, labels, "mps", small_config(), seed=7)
        assert result.separation_mean == pytest.approx(
            float(np.mean(result.separation_auc)), abs=1e-12
        )
        assert result.inductive_mean == pytest.approx(
            float(np.mean(result.inductive_auc)), abs=1e-12
        )

    def test_max_folds_mode(self, labeled_dataset):
        data, labels = labeled_dataset
        result = benchmark_arrays(data, labels, "mps", small_config(), max_folds=1, seed=7)
        assert len(result.separation_auc) == 1

    @pytest.mark.parametrize("max_folds", [0, -2])
    def test_max_folds_below_one_is_refused(self, labeled_dataset, tmp_path, max_folds):
        data, labels = labeled_dataset
        with pytest.raises(DataError, match="max_folds must be >= 1"):
            benchmark_arrays(data, labels, "mps", small_config(), out_dir=tmp_path / "out",
                             max_folds=max_folds, seed=7)
        assert not (tmp_path / "out").exists()  # refused before anything ran

    def test_deterministic_given_seed(self, labeled_dataset):
        data, labels = labeled_dataset
        a = benchmark_arrays(data, labels, "mps", small_config(), max_folds=2, seed=3)
        b = benchmark_arrays(data, labels, "mps", small_config(), max_folds=2, seed=3)
        assert a.separation_auc == b.separation_auc
        assert a.inductive_auc == b.inductive_auc

    def test_models_persisted_and_loadable(self, labeled_dataset, tmp_path):
        data, labels = labeled_dataset
        result = benchmark_arrays(
            data, labels, "ttn", small_config(), out_dir=tmp_path, max_folds=1, seed=5
        )
        assert len(result.model_paths) == 1
        model = load_model(result.model_paths[0])
        assert model.encoder is not None

    def test_separates_toy_anomalies(self, labeled_dataset):
        # clusters vs broad uniform noise is an easy task: well above chance
        data, labels = labeled_dataset
        result = benchmark_arrays(data, labels, "mps", small_config(), max_folds=2, seed=11)
        assert result.separation_mean > 0.8
        assert result.inductive_mean > 0.7

    def test_eer_threshold_reported(self, labeled_dataset):
        data, labels = labeled_dataset
        result = benchmark_arrays(data, labels, "mps", small_config(), max_folds=1, seed=2)
        entry = result.eer_thresholds[0]
        assert set(entry) == {"threshold", "tpr", "tnr"}
        assert 0.0 <= entry["tpr"] <= 1.0


class TestFoldReports:
    """Each saved fold model has its training report beside it."""

    def test_each_trained_fold_keeps_the_report_of_its_fit(self, labeled_dataset, tmp_path):
        data, labels = labeled_dataset
        config = small_config()
        result = benchmark_arrays(data, labels, "ttn", config, out_dir=tmp_path, max_folds=2,
                                  seed=5)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fold0_ttn.tnad", "fold0_ttn.tnad.report.json",
            "fold1_ttn.tnad", "fold1_ttn.tnad.report.json",
        ]
        # the fold rows and seeds the protocol documents: pollution at the
        # seed, folds at seed + 1, fold f trained at seed + 2 + f
        mixed, hidden = build_pollution(data, labels, replace(config.pollution, seed=5))
        folds = stratified_folds(hidden, config.n_folds, seed=6)
        for f, path in enumerate(result.model_paths):
            kept = [folds[g] for g in range(config.n_folds) if g != f]
            rows = mixed[np.sort(np.concatenate(kept))]
            encoder = LegendreFeatureMap(config.phys_dim, fit_rescaler(rows, margin=config.margin))
            model = TtnModel.random(4, config.phys_dim, config.init_bond, 7 + f, encoder)
            expected = fit(model, rows, replace(config.train, seed=7 + f)).to_dict()
            saved = json.loads(Path(f"{path}.report.json").read_text())
            assert saved.keys() == expected.keys()
            for key in ("nll_trace", "discarded_weights", "step_errors", "split_routes",
                        "amplitude_routes"):
                assert saved[key] == expected[key], (f, key)

    def test_no_out_dir_writes_no_file(self, labeled_dataset, tmp_path, monkeypatch):
        data, labels = labeled_dataset
        monkeypatch.chdir(tmp_path)
        result = benchmark_arrays(data, labels, "mps", small_config(), max_folds=1, seed=5)
        assert result.model_paths == []
        assert list(tmp_path.iterdir()) == []

    def test_unknown_model_kind_refused(self, labeled_dataset):
        data, _ = labeled_dataset
        with pytest.raises(DataError, match="unknown model kind 'peps'"):
            train_model("peps", data, small_config(), seed=0)


class TestRunConfig:
    def test_json_roundtrip(self, tmp_path):
        config = small_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        loaded = RunConfig.from_json(path)
        assert loaded == config

    @pytest.mark.parametrize("content", [b"{not json", b"", b"\xff{}"])
    def test_file_that_is_not_json_refused_naming_it(self, tmp_path, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        with pytest.raises(DataError, match="config.json: config file is not valid JSON"):
            RunConfig.from_json(path)

    def test_defaults_from_empty(self):
        config = RunConfig.from_dict({})
        assert config.train.sweeps == 10
        assert config.pollution.regular_fraction == 0.95

    def test_unknown_keys_rejected(self):
        with pytest.raises(DataError, match="phys_dimension"):
            RunConfig.from_dict({"phys_dimension": 3})
        with pytest.raises(DataError, match="'train'.*zero_amplitude_policy"):
            RunConfig.from_dict({"train": {"zero_amplitude_policy": "skip"}})
        with pytest.raises(DataError, match="'pollution'.*regular_share"):
            RunConfig.from_dict({"pollution": {"regular_share": 0.9}})
        with pytest.raises(DataError, match="'train' must be a JSON object"):
            RunConfig.from_dict({"train": []})

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"train": {"sweeps": "2"}}, "'train': key 'sweeps' must be an integer"),
            ({"train": {"sweeps": True}}, "'train': key 'sweeps' must be an integer"),
            ({"train": {"max_bond": 4.0}}, "'train': key 'max_bond' must be an integer"),
            ({"train": {"learning_rate": "0.1"}}, "'train': key 'learning_rate' must be a number"),
            ({"train": {"lr_decay": False}}, "'train': key 'lr_decay' must be a number"),
            ({"train": {"seed": None}}, "'train': key 'seed' must be an integer, got None"),
            ({"train": {"batch_size": 2.5}}, "'train': key 'batch_size' must be an integer or null"),
            ({"pollution": {"kinds": "global"}}, "'pollution': key 'kinds' must be a list of str"),
            ({"pollution": {"kinds": ["global", 1]}}, "'pollution': key 'kinds' must be a list"),
            ({"pollution": {"noise_scale": [3]}}, "'pollution': key 'noise_scale' must be a number"),
            ({"phys_dim": "4"}, "config: key 'phys_dim' must be an integer"),
            ({"margin": None}, "config: key 'margin' must be a number"),
        ],
    )
    def test_value_types_rejected(self, payload, message):
        with pytest.raises(DataError) as caught:
            RunConfig.from_dict(payload)
        assert message in str(caught.value)

    def test_value_types_accepted(self):
        config = RunConfig.from_dict({
            "margin": 0,
            "train": {"lr_decay": 1, "batch_size": None, "sweeps": 2},
            "pollution": {"kinds": ["global"], "noise_scale": 2},
        })
        assert config.margin == 0 and config.train.lr_decay == 1
        assert config.train.batch_size is None and config.train.sweeps == 2
        assert config.pollution.kinds == ("global",)

    def test_k_sigma_is_not_a_config_key(self):
        # the explanation threshold is the ``tnad explain --k-sigma`` option
        with pytest.raises(DataError, match="k_sigma"):
            RunConfig.from_dict({"k_sigma": 1.0})
