import numpy as np
import pytest

from tnad import (
    DataError,
    DatasetSpec,
    PollutionPlan,
    build_pollution,
    generate_anomalies,
    load_csv,
    stratified_folds,
)


@pytest.fixture
def csv_file(tmp_path):
    def write(content, name="data.csv"):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


class TestLoadCsv:
    def test_basic_matrix(self, csv_file):
        path = csv_file("a,b\n1,2\n3,4\n")
        features, labels = load_csv(DatasetSpec(path))
        np.testing.assert_array_equal(features, [[1.0, 2.0], [3.0, 4.0]])
        assert labels is None

    def test_label_mapping(self, csv_file):
        path = csv_file("a,b,class\n1,2,0\n3,4,1\n5,6,0\n")
        features, labels = load_csv(
            DatasetSpec(path, label_column="class", anomaly_labels=("1",))
        )
        assert features.shape == (3, 2)
        np.testing.assert_array_equal(labels, [False, True, False])

    def test_non_numeric_cell_names_line(self, csv_file):
        path = csv_file("a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(DatasetSpec(path))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_line_and_column(self, csv_file, cell):
        path = csv_file(f"a,b\n1,2\n\n3,{cell}\n")
        with pytest.raises(DataError, match="line 4, column 'b': non-finite"):
            load_csv(DatasetSpec(path))

    def test_missing_label_column(self, csv_file):
        path = csv_file("a,b\n1,2\n")
        with pytest.raises(DataError, match="label column"):
            load_csv(DatasetSpec(path, label_column="class"))

    def test_ragged_row_names_line(self, csv_file):
        path = csv_file("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(DatasetSpec(path))

    def test_single_class_labels_rejected(self, csv_file):
        path = csv_file("a,class\n1,0\n2,0\n")
        with pytest.raises(DataError, match="one class"):
            load_csv(DatasetSpec(path, label_column="class", anomaly_labels=("1",)))

    def test_missing_file(self):
        with pytest.raises(DataError, match="no such file"):
            load_csv(DatasetSpec("/nonexistent/file.csv"))


class TestGenerateAnomalies:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.regular = rng.normal(5.0, 2.0, size=(200, 6))

    def test_dependency_preserves_marginals(self):
        out = generate_anomalies(self.regular, "dependency", count=200, seed=1)
        for j in range(6):
            np.testing.assert_array_equal(
                np.sort(out[:, j]), np.sort(self.regular[:, j])
            )

    def test_global_within_inflated_ranges(self):
        out = generate_anomalies(self.regular, "global", count=500, seed=2)
        lo, hi = self.regular.min(axis=0), self.regular.max(axis=0)
        center, half = (lo + hi) / 2, (hi - lo) / 2
        assert (out >= center - 1.1 * half - 1e-12).all()
        assert (out <= center + 1.1 * half + 1e-12).all()

    def test_local_zero_noise_returns_source_rows(self):
        out = generate_anomalies(self.regular, "local", count=20, seed=3, noise_scale=0.0)
        source_rows = {tuple(row) for row in self.regular}
        for row in out:
            assert tuple(row) in source_rows

    def test_local_perturbs_subset(self):
        out = generate_anomalies(
            self.regular, "local", count=50, seed=4, feature_subset_fraction=0.3
        )
        assert out.shape == (50, 6)

    def test_unknown_kind(self):
        with pytest.raises(DataError):
            generate_anomalies(self.regular, "sideways", count=5)

    def test_determinism(self):
        a = generate_anomalies(self.regular, "global", count=10, seed=7)
        b = generate_anomalies(self.regular, "global", count=10, seed=7)
        np.testing.assert_array_equal(a, b)


class TestBuildPollution:
    def make_data(self, n_regular=1000, n_native=200, seed=0):
        rng = np.random.default_rng(seed)
        regular = rng.normal(0.0, 1.0, size=(n_regular, 4))
        native = rng.normal(4.0, 1.0, size=(n_native, 4))
        data = np.vstack([regular, native])
        labels = np.concatenate([np.zeros(n_regular, bool), np.ones(n_native, bool)])
        return data, labels

    def test_composition_arithmetic(self):
        data, labels = self.make_data()
        mixed, hidden = build_pollution(data, labels, PollutionPlan(seed=0))
        assert len(mixed) == 1000
        assert int((~hidden).sum()) == 950
        assert int(hidden.sum()) == 50

    def test_seed_changes_selection_not_counts(self):
        data, labels = self.make_data()
        _, h1 = build_pollution(data, labels, PollutionPlan(seed=1))
        m2, h2 = build_pollution(data, labels, PollutionPlan(seed=2))
        assert h1.sum() == h2.sum()
        m1, _ = build_pollution(data, labels, PollutionPlan(seed=1))
        assert not np.array_equal(m1, m2)

    def test_determinism(self):
        data, labels = self.make_data()
        m1, h1 = build_pollution(data, labels, PollutionPlan(seed=3))
        m2, h2 = build_pollution(data, labels, PollutionPlan(seed=3))
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(h1, h2)

    def test_insufficient_native_anomalies(self):
        data, labels = self.make_data(n_native=3)
        with pytest.raises(DataError, match="native"):
            build_pollution(data, labels, PollutionPlan(seed=0))

    def test_all_generated_when_no_labels(self):
        data, _ = self.make_data(n_native=0)
        plan = PollutionPlan(native_fraction=0.0, seed=0)
        mixed, hidden = build_pollution(data[:1000], None, plan)
        assert hidden.sum() == 50


class TestStratifiedFolds:
    def test_exact_stratification(self):
        labels = np.zeros(100, bool)
        labels[:10] = True
        folds = stratified_folds(labels, n_folds=10, seed=0)
        for fold in folds:
            assert labels[fold].sum() == 1
            assert len(fold) == 10

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        labels = rng.random(173) < 0.2
        labels[:10] = True  # ensure enough anomalies
        folds = stratified_folds(labels, n_folds=10, seed=1)
        combined = np.concatenate(folds)
        assert len(combined) == 173
        assert len(np.unique(combined)) == 173

    def test_ninetyfive_five_at_2000(self):
        labels = np.zeros(2000, bool)
        labels[:100] = True
        folds = stratified_folds(labels, n_folds=10, seed=2)
        for fold in folds:
            assert len(fold) == 200
            assert labels[fold].sum() == 10

    def test_class_too_small(self):
        labels = np.zeros(100, bool)
        labels[:5] = True
        with pytest.raises(DataError):
            stratified_folds(labels, n_folds=10, seed=0)

    def test_determinism(self):
        labels = np.zeros(60, bool)
        labels[:12] = True
        a = stratified_folds(labels, n_folds=4, seed=9)
        b = stratified_folds(labels, n_folds=4, seed=9)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)
