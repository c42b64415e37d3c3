import csv
import json
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from click.testing import CliRunner

import helpers
import tnad
from tnad import (
    FeatureFlag,
    FeatureRescaler,
    LegendreFeatureMap,
    MpsModel,
    conditional_rdm,
    save_model,
    toy_two_clusters,
)
from tnad.cli import _write_scores, cli


def write_csv(path, data, labels=None):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        header = [f"f{i}" for i in range(data.shape[1])]
        if labels is not None:
            header.append("class")
        writer.writerow(header)
        for i, row in enumerate(data):
            out = [f"{v:.8f}" for v in row]
            if labels is not None:
                out.append(str(int(labels[i])))
            writer.writerow(out)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    train = toy_two_clusters(300, 4, seed=1)
    write_csv(root / "train.csv", train)

    probe = np.vstack([toy_two_clusters(30, 4, seed=2), rng.uniform(-0.3, 1.3, (10, 4))])
    probe_labels = np.concatenate([np.zeros(30, bool), np.ones(10, bool)])
    write_csv(root / "probe.csv", probe, probe_labels)

    config = {
        "phys_dim": 3,
        "init_bond": 2,
        "train": {"learning_rate": 1e-2, "sweeps": 4, "batch_size": None, "max_bond": 4},
    }
    (root / "config.json").write_text(json.dumps(config))

    runner = CliRunner()
    result = runner.invoke(cli, [
        "train", "--data", str(root / "train.csv"), "--model", "mps",
        "--config", str(root / "config.json"), "--seed", "3",
        "--out", str(root / "model.tnad"),
    ])
    assert result.exit_code == 0, result.output
    return root


class TestTrain:
    def test_artifacts_written(self, workspace):
        assert (workspace / "model.tnad").exists()
        report = json.loads((workspace / "model.tnad.report.json").read_text())
        assert len(report["nll_trace"]) == 4


class TestScore:
    def test_scores_csv_schema(self, workspace):
        runner = CliRunner()
        out = workspace / "scores.csv"
        result = runner.invoke(cli, [
            "score", "--model-file", str(workspace / "model.tnad"),
            "--data", str(workspace / "probe.csv"),
            "--label-column", "class", "--anomaly-label", "1",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["sample_id", "nll", "label"]
        assert len(rows) == 41
        scores = np.array([float(r[1]) for r in rows[1:]])
        labels = np.array([r[2] == "1" for r in rows[1:]])
        assert scores[labels].mean() > scores[~labels].mean()

    def test_without_labels(self, workspace):
        runner = CliRunner()
        out = workspace / "scores_nolabel.csv"
        result = runner.invoke(cli, [
            "score", "--model-file", str(workspace / "model.tnad"),
            "--data", str(workspace / "train.csv"), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["sample_id", "nll"]


def csv_writer_scores(path, scores, labels):
    """The scores CSV as ``csv.writer`` formats it, row by row: the reference bytes."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        if labels is None:
            writer.writerow(["sample_id", "nll"])
            writer.writerows((i, f"{s:.10g}") for i, s in enumerate(scores))
        else:
            writer.writerow(["sample_id", "nll", "label"])
            writer.writerows(
                (i, f"{s:.10g}", int(l)) for i, (s, l) in enumerate(zip(scores, labels))
            )


@pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
@pytest.mark.parametrize("n_rows", [0, 1, 1037])
def test_scores_are_written_in_the_bytes_of_csv_writer(tmp_path, labeled, n_rows):
    rng = np.random.default_rng(n_rows)
    scores = rng.normal(20.0, 8.0, n_rows) * 10.0 ** rng.integers(-12, 12, n_rows)
    scores[: n_rows // 3] = np.round(scores[: n_rows // 3])
    scores[1::97] = np.inf  # a zero-amplitude row scores inf
    scores[2::101] = -0.0
    labels = rng.random(n_rows) < 0.2 if labeled else None
    csv_writer_scores(tmp_path / "want.csv", scores, labels)
    _write_scores(tmp_path / "got.csv", scores, labels)
    want = (tmp_path / "want.csv").read_bytes()
    assert (tmp_path / "got.csv").read_bytes() == want
    assert want.count(b"\r\n") == n_rows + 1
    assert (b"inf" in want) == (n_rows > 1)


class TestExplain:
    def test_explanation_json_schema(self, workspace):
        runner = CliRunner()
        out = workspace / "explanation.json"
        result = runner.invoke(cli, [
            "explain", "--model-file", str(workspace / "model.tnad"),
            "--data", str(workspace / "probe.csv"), "--label-column", "class",
            "--sample", "35", "--k-sigma", "1.0", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["sample_id"] == 35
        assert payload["threshold"] == 1.0
        assert isinstance(payload["nll"], float)
        assert len(payload["features"]) == 4
        for entry in payload["features"]:
            assert set(entry) == {
                "index", "observed", "mean", "std", "flagged", "conditional_expected"
            }
            assert list(entry) == [field.name for field in fields(FeatureFlag)]

    def test_no_conditionals_skips_conditioning_only(self, workspace, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return conditional_rdm(*args)

        monkeypatch.setattr(tnad.explain, "conditional_rdm", counted)
        payloads = {}
        for flags in ((), ("--no-conditionals",)):
            out = workspace / f"explanation{len(flags)}.json"
            calls.clear()
            result = CliRunner().invoke(cli, [
                "explain", "--model-file", str(workspace / "model.tnad"),
                "--data", str(workspace / "probe.csv"), "--label-column", "class",
                "--sample", "35", "--out", str(out), *flags,
            ])
            assert result.exit_code == 0, result.output
            payloads[flags] = json.loads(out.read_text()), len(calls)
        (default, conditioned), (skipped, not_conditioned) = payloads.values()
        flagged = [f["index"] for f in default["features"] if f["flagged"]]
        assert flagged and conditioned == len(flagged)
        assert not_conditioned == 0
        assert all(f["conditional_expected"] is None for f in skipped["features"])
        assert skipped["nll"] == default["nll"]
        assert [f["flagged"] for f in skipped["features"]] == [
            f["flagged"] for f in default["features"]]

    def test_vanishing_amplitude_writes_strict_json(self, tmp_path):
        # phi_1(0.5) = 0, so the row (0.5, 0.3) has amplitude exactly zero
        model = MpsModel([np.array([0.0, 1.0]).reshape(1, 2, 1),
                          np.array([1.0, 0.0]).reshape(1, 2, 1)], center=1)
        model.encoder = LegendreFeatureMap(2, FeatureRescaler(np.zeros(2), np.ones(2)))
        save_model(tmp_path / "model.tnad", model)
        (tmp_path / "row.csv").write_text("a,b\n0.5,0.3\n")
        out = tmp_path / "explanation.json"
        result = CliRunner().invoke(cli, [
            "explain", "--model-file", str(tmp_path / "model.tnad"),
            "--data", str(tmp_path / "row.csv"), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert "NLL inf" in result.output

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(out.read_text(), parse_constant=refuse)
        assert payload["nll"] is None

    @pytest.mark.parametrize("k_sigma", ["nan", "inf"])
    def test_non_finite_k_sigma_exits_two(self, workspace, tmp_path, k_sigma):
        out = tmp_path / "explanation.json"
        proc = subprocess.run(
            [sys.executable, "-m", "tnad.cli", "explain",
             "--model-file", str(workspace / "model.tnad"),
             "--data", str(workspace / "train.csv"), "--k-sigma", k_sigma, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert not out.exists()

    def test_out_of_range_sample(self, workspace):
        runner = CliRunner()
        result = runner.invoke(cli, [
            "explain", "--model-file", str(workspace / "model.tnad"),
            "--data", str(workspace / "train.csv"), "--sample", "9999",
            "--out", str(workspace / "x.json"),
        ])
        assert result.exit_code != 0


class TestMi:
    def test_model_side_matrix(self, workspace):
        runner = CliRunner()
        out = workspace / "mi_model.csv"
        result = runner.invoke(cli, [
            "mi", "--from", "model", "--model-file", str(workspace / "model.tnad"),
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        matrix = np.loadtxt(out, delimiter=",")
        assert matrix.shape == (4, 4)
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)

    def test_data_side_matrix_display(self, workspace):
        runner = CliRunner()
        out = workspace / "mi_data.csv"
        result = runner.invoke(cli, [
            "mi", "--from", "data", "--data", str(workspace / "probe.csv"),
            "--label-column", "class", "--display", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        matrix = np.loadtxt(out, delimiter=",")
        assert matrix.shape == (4, 4)
        assert matrix.max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("source", ["model", "data"])
    def test_display_rescales_the_raw_matrix(self, workspace, source):
        # both sources share one display rule: divide by the peak, zero diagonal
        inputs = {
            "model": ["--model-file", str(workspace / "model.tnad")],
            "data": ["--data", str(workspace / "probe.csv"), "--label-column", "class"],
        }[source]
        runner = CliRunner()
        raw, display = (
            workspace / f"mi_{source}_raw.csv", workspace / f"mi_{source}_display.csv"
        )
        for flags, out in (([], raw), (["--display"], display)):
            result = runner.invoke(
                cli, ["mi", "--from", source, *inputs, *flags, "--out", str(out)]
            )
            assert result.exit_code == 0, result.output
        raw, display = np.loadtxt(raw, delimiter=","), np.loadtxt(display, delimiter=",")
        assert raw.max() > 1e-6
        np.testing.assert_allclose(display, raw / raw.max(), rtol=1e-9, atol=1e-12)
        assert display.max() == pytest.approx(1.0, abs=1e-9)
        assert not np.diag(display).any()

    def test_missing_source_argument(self, workspace):
        runner = CliRunner()
        result = runner.invoke(cli, ["mi", "--from", "model", "--out", "x.csv"])
        assert result.exit_code != 0


class TestBenchmarkCommand:
    @staticmethod
    def run(tmp_path):
        rng = np.random.default_rng(5)
        regular = toy_two_clusters(400, 3, seed=7)
        native = rng.uniform(-0.5, 1.5, size=(60, 3))
        data = np.vstack([regular, native])
        labels = np.concatenate([np.zeros(400, bool), np.ones(60, bool)])
        write_csv(tmp_path / "bench.csv", data, labels)
        config = {
            "phys_dim": 3, "init_bond": 2, "n_folds": 3,
            "train": {"learning_rate": 5e-3, "sweeps": 1, "batch_size": None, "max_bond": 4},
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        runner = CliRunner()
        result = runner.invoke(cli, [
            "benchmark", "--data", str(tmp_path / "bench.csv"),
            "--label-column", "class", "--anomaly-label", "1",
            "--model", "mps", "--config", str(tmp_path / "config.json"),
            "--seed", "1", "--max-folds", "1", "--out", str(tmp_path / "bench_out"),
        ])
        assert result.exit_code == 0, result.output
        return tmp_path / "bench_out"

    def test_end_to_end(self, workspace, tmp_path):
        out = self.run(tmp_path)
        payload = json.loads((out / "benchmark_mps.json").read_text())
        assert len(payload["separation_auc"]) == 1
        assert payload["model_paths"]
        assert sorted(p.name for p in out.iterdir()) == [
            "benchmark_mps.json", "fold0_mps.tnad", "fold0_mps.tnad.report.json",
        ]
        fold_report = json.loads((out / "fold0_mps.tnad.report.json").read_text())
        train_report = json.loads((workspace / "model.tnad.report.json").read_text())
        assert fold_report.keys() == train_report.keys()
        assert len(fold_report["nll_trace"]) == 1  # one sweep

    def test_infinite_threshold_writes_strict_json(self, tmp_path, monkeypatch):
        # every row scores inf, as under a model whose amplitudes all vanish:
        # only an infinite threshold reaches the anomalies
        monkeypatch.setattr(tnad.benchmark, "score_samples",
                            lambda model, batch: np.full(len(batch), np.inf))
        out = self.run(tmp_path)

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads((out / "benchmark_mps.json").read_text(), parse_constant=refuse)
        assert payload["eer_thresholds"] == [{"threshold": None, "tpr": 1.0, "tnr": 0.0}]
        json.loads((out / "fold0_mps.tnad.report.json").read_text(), parse_constant=refuse)


class TestExitCodes:
    def test_data_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,oops\n")
        proc = subprocess.run(
            [sys.executable, "-m", "tnad.cli", "score",
             "--model-file", str(bad), "--data", str(bad), "--out", str(tmp_path / "o.csv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    def test_anomaly_label_without_label_column_exits_two(self, workspace, tmp_path):
        # without a label column the flag would be ignored and scoring go on
        out = tmp_path / "scores.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "tnad.cli", "score",
             "--model-file", str(workspace / "model.tnad"),
             "--data", str(workspace / "train.csv"), "--anomaly-label", "1",
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "anomaly labels need a label column" in proc.stderr
        assert not out.exists()

    def test_duplicate_column_exits_two(self, tmp_path):
        bad = tmp_path / "dup.csv"
        bad.write_text("a,a,b\n1,2,3\n4,5,6\n")
        proc = subprocess.run(
            [sys.executable, "-m", "tnad.cli", "mi", "--from", "data",
             "--data", str(bad), "--out", str(tmp_path / "mi.csv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "header names column 'a' twice" in proc.stderr

    def test_unknown_train_key_exits_two(self, workspace, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {"zero_amplitude_policy": "skip"}}))
        proc = subprocess.run(
            [sys.executable, "-m", "tnad.cli", "train",
             "--data", str(workspace / "train.csv"), "--config", str(config),
             "--out", str(tmp_path / "model.tnad")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "unknown keys in config section 'train'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_mistyped_train_value_exits_two(self, workspace, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {"sweeps": "2"}}))
        proc = subprocess.run(
            [sys.executable, "-m", "tnad.cli", "train",
             "--data", str(workspace / "train.csv"), "--config", str(config),
             "--out", str(tmp_path / "model.tnad")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "config section 'train': key 'sweeps' must be an integer" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("max_folds", ["0", "-1"])
    def test_max_folds_below_one_exits_two(self, workspace, tmp_path, max_folds):
        proc = subprocess.run(
            [sys.executable, "-m", "tnad.cli", "benchmark",
             "--data", str(workspace / "probe.csv"), "--label-column", "class",
             "--anomaly-label", "1", "--max-folds", max_folds, "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "max_folds must be >= 1" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_negative_train_seed_exits_two(self, workspace, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "tnad.cli", "train",
             "--data", str(workspace / "train.csv"), "--seed", "-1",
             "--out", str(tmp_path / "model.tnad")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "seed must be >= 0, got -1" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "model.tnad").exists()

    def test_negative_benchmark_seed_exits_two(self, workspace, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "tnad.cli", "benchmark",
             "--data", str(workspace / "probe.csv"), "--label-column", "class",
             "--anomaly-label", "1", "--seed", "-1", "--max-folds", "1",
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "seed must be >= 0, got -1" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [
        ("feature_subset_fraction", 2.0), ("range_inflation", -1.0), ("noise_scale", float("nan")),
    ])
    def test_out_of_range_generator_setting_exits_two(self, workspace, tmp_path, field, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"pollution": {field: value}}))  # NaN as json reads it
        proc = subprocess.run(
            [sys.executable, "-m", "tnad.cli", "benchmark",
             "--data", str(workspace / "probe.csv"), "--label-column", "class",
             "--anomaly-label", "1", "--config", str(config), "--max-folds", "1",
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert f"{field} must" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [
        ["train", "--data", "train.csv"],
        ["benchmark", "--data", "probe.csv", "--label-column", "class", "--anomaly-label", "1",
         "--max-folds", "1"],
    ])
    def test_config_that_is_not_json_exits_two(self, workspace, tmp_path, command):
        config = tmp_path / "bad.json"
        config.write_text("{not json")
        command = [str(workspace / arg) if arg.endswith(".csv") else arg for arg in command]
        proc = subprocess.run(
            [sys.executable, "-m", "tnad.cli", *command, "--config", str(config),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "bad.json: config file is not valid JSON" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(helpers.text_encoding_decodes(b"\xff"),
                        reason="the locale encoding decodes 0xff")
    def test_undecodable_csv_byte_exits_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"a,b\n1,2\n3,\xff\n")
        proc = subprocess.run(
            [sys.executable, "-m", "tnad.cli", "mi", "--from", "data",
             "--data", str(bad), "--out", str(tmp_path / "mi.csv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "bad.csv: byte 0xff is not valid" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_success_exits_zero(self, workspace):
        proc = subprocess.run(
            [sys.executable, "-m", "tnad.cli", "score",
             "--model-file", str(workspace / "model.tnad"),
             "--data", str(workspace / "train.csv"),
             "--out", str(workspace / "exit0.csv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
