import re
import warnings

import numpy as np
import pytest

import helpers
from tnad import data as data_module
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

    def test_anomaly_labels_need_a_label_column(self, csv_file):
        # otherwise the labels would be ignored and the column read as a feature
        path = csv_file("a,b,label\n1,2,0\n3,4,1\n")
        with pytest.raises(DataError, match="anomaly labels need a label column"):
            DatasetSpec(path, None, ("1",))

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

    def test_duplicate_column_name_refused(self, csv_file):
        path = csv_file("a, a ,b\n1,2,3\n4,5,6\n")
        with pytest.raises(DataError, match="header names column 'a' twice"):
            load_csv(DatasetSpec(path))


def row_parser_result(spec, monkeypatch):
    """What ``load_csv`` returns or raises with numpy's C reader switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(data_module, "_c_reader_body", lambda *args: None)
        try:
            return load_csv(spec)
        except DataError as exc:
            return exc


LABELS = dict(label_column="c", anomaly_labels=("1",))
DROP_C = dict(label_column="c")

# (file body after the header "a,b,c", spec, whether the row parser runs)
PARITY_CASES = {
    "whitespace-only line": ("1,2,0\n   \n3,4,1\n", LABELS, True),
    "underscore digits": ("1_000,2,0\n3,4,1\n", LABELS, True),
    "quoted number": ('"1.5",2,0\n3,4,1\n', LABELS, True),
    "hash in a cell": ("1#2,2,0\n3,4,1\n", LABELS, True),
    "empty cell": (",2,0\n3,4,1\n", LABELS, True),
    "trailing comma": ("1,2,0,\n3,4,1\n", LABELS, True),
    "every row one field too many": ("1,2,0,9\n3,4,1,9\n", DROP_C, True),
    "one short row": ("1,2,0\n3,4\n", DROP_C, True),
    "nan": ("1,2,0\n3,nan,1\n", LABELS, True),
    "inf": ("1,2,0\n-inf,4,1\n", LABELS, True),
    "crlf line ends": ("1,2,0\r\n3,4,1\r\n\r\n5,6,0\r\n", LABELS, False),
    "blank line": ("1,2,0\n\n3,4,1\n", LABELS, False),
    "non-numeric labels": ("1,2,normal\n3,4, attack \n5,6,normal\n",
                           dict(label_column="c", anomaly_labels=("attack",)), False),
    "label column in the middle": ("1,0,2\n3,1,4\n5,1.0,6\n",
                                   dict(label_column="b", anomaly_labels=("1",)), False),
}


class TestReaderParity:
    @pytest.mark.parametrize("case", PARITY_CASES)
    def test_load_csv_matches_row_parser(self, case, csv_file, monkeypatch):
        body, spec_args, row_parser_runs = PARITY_CASES[case]
        path = csv_file(("a,b,c\r\n" if "\r" in body else "a,b,c\n") + body)
        spec = DatasetSpec(path, **spec_args)
        expected = row_parser_result(spec, monkeypatch)

        calls = []
        original = data_module._parse_rows
        monkeypatch.setattr(data_module, "_parse_rows",
                            lambda *args: calls.append(1) or original(*args))
        if isinstance(expected, DataError):
            with pytest.raises(DataError) as raised:
                load_csv(spec)
            assert str(raised.value) == str(expected)
        else:
            features, labels = load_csv(spec)
            np.testing.assert_array_equal(features, expected[0])
            assert features.dtype == expected[0].dtype
            if expected[1] is None:
                assert labels is None
            else:
                np.testing.assert_array_equal(labels, expected[1])
        assert bool(calls) == row_parser_runs

    def test_benchmark_shaped_file_takes_the_c_reader(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(11)
        raw = rng.normal(0.0, 5.0, size=(500, 8)) * 10.0 ** rng.uniform(-1, 2, 8)
        labels = (rng.random(500) < 0.05).astype(int)
        labels[:2] = (0, 1)
        path = tmp_path / "test.csv"
        with open(path, "w") as handle:
            handle.write(",".join([f"f{j}" for j in range(8)] + ["label"]) + "\n")
            np.savetxt(handle, np.column_stack([raw, labels]), fmt="%.10g", delimiter=",")
        spec = DatasetSpec(str(path), label_column="label", anomaly_labels=("1",))
        expected_features, expected_labels = row_parser_result(spec, monkeypatch)

        def refuse(*args):
            raise AssertionError("the row parser ran")

        monkeypatch.setattr(data_module, "_parse_rows", refuse)
        features, got_labels = load_csv(spec)
        np.testing.assert_array_equal(features, expected_features)
        np.testing.assert_array_equal(got_labels, expected_labels)
        np.testing.assert_array_equal(got_labels, labels == 1)


# (whole file, spec, whether the row parser runs); the last three give "no data rows"
ONE_PASS_CASES = {
    "label column first": ("c,a,b\n0,1,2\n1,3,4\n", LABELS, False),
    "quoted label cell": ('a,b,c\n1,2,"1"\n3,4,0\n', LABELS, True),
    "dropped string label column": ("a,b,c\n1,2,normal\n3,4, attack \n", DROP_C, False),
    "quoted header only": ('"a", "b" ,c\n1,2,0\n3,4,1\n', LABELS, False),
    "header only, one column": ("a\n", {}, True),
    "header only, three columns": ("a,b,c\n", LABELS, True),
    "header and blank lines": ("a,b,c\n\n\n", DROP_C, True),
}


class TestOnePassReader:
    @pytest.mark.parametrize("case", ONE_PASS_CASES)
    def test_load_csv_matches_row_parser(self, case, csv_file, monkeypatch):
        text, spec_args, row_parser_runs = ONE_PASS_CASES[case]
        spec = DatasetSpec(csv_file(text), **spec_args)
        expected = row_parser_result(spec, monkeypatch)

        calls = []
        original = data_module._parse_rows
        monkeypatch.setattr(data_module, "_parse_rows",
                            lambda *args: calls.append(1) or original(*args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(expected, DataError):
                with pytest.raises(DataError) as raised:
                    load_csv(spec)
                assert str(raised.value) == str(expected)
            else:
                features, labels = load_csv(spec)
                np.testing.assert_array_equal(features, expected[0])
                if expected[1] is None:
                    assert labels is None
                else:
                    np.testing.assert_array_equal(labels, expected[1])
        assert bool(calls) == row_parser_runs

    def test_quoted_label_cell_is_unquoted(self, csv_file):
        path = csv_file('a,b,c\n1,2,"1"\n3,4,0\n')
        _, labels = load_csv(DatasetSpec(path, **LABELS))
        np.testing.assert_array_equal(labels, [True, False])

    def test_labeled_load_reads_the_file_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        labels = (rng.random(300) < 0.1).astype(int)
        labels[:2] = (0, 1)
        path = tmp_path / "test.csv"
        with open(path, "w") as handle:
            handle.write(",".join([f"f{j}" for j in range(6)] + ["label"]) + "\n")
            np.savetxt(handle, np.column_stack([rng.normal(size=(300, 6)), labels]),
                       fmt="%.17g", delimiter=",")
        calls = []
        original = np.loadtxt
        monkeypatch.setattr(np, "loadtxt",
                            lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
        _, got = load_csv(DatasetSpec(str(path), label_column="label", anomaly_labels=("1",)))
        np.testing.assert_array_equal(got, labels == 1)
        assert len(calls) == 1


BAD_BYTE_MESSAGE = re.escape(
    f"bad.csv: byte 0xff is not valid {helpers.text_encoding()} text")


@pytest.mark.skipif(helpers.text_encoding_decodes(b"\xff"),
                    reason="the locale encoding decodes 0xff")
class TestUndecodableByte:
    def test_in_the_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"a,b\xff\n1,2\n3,4\n")
        with pytest.raises(DataError, match=BAD_BYTE_MESSAGE):
            load_csv(DatasetSpec(str(path)))

    def test_in_the_body(self, tmp_path, monkeypatch):
        # past the first decoded chunk, so the header reads and the C reader meets the byte
        path = tmp_path / "bad.csv"
        path.write_bytes(b"a,b\n" + b"1,2\n" * 5000 + b"3,\xff\n")
        spy = []
        original = data_module._c_reader_body
        monkeypatch.setattr(data_module, "_c_reader_body",
                            lambda *args: spy.append(original(*args)) or spy[-1])
        with pytest.raises(DataError, match=BAD_BYTE_MESSAGE):
            load_csv(DatasetSpec(str(path)))
        assert spy == [None]


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


# generator settings out of range: each is refused naming its field
BAD_GENERATOR_SETTINGS = [
    ("feature_subset_fraction", 2.0),
    ("feature_subset_fraction", 0.0),
    ("feature_subset_fraction", -0.5),
    ("feature_subset_fraction", float("nan")),
    ("noise_scale", -1.0),
    ("noise_scale", float("nan")),
    ("noise_scale", float("inf")),
    ("range_inflation", -1.0),
    ("range_inflation", 0.0),
    ("range_inflation", float("nan")),
    ("range_inflation", float("inf")),
]


@pytest.mark.parametrize("field, value", BAD_GENERATOR_SETTINGS)
@pytest.mark.parametrize("kind", ["global", "local", "dependency"])
def test_generator_refuses_out_of_range_setting(field, value, kind):
    regular = np.random.default_rng(0).normal(size=(20, 4))
    with pytest.raises(DataError, match=field):
        generate_anomalies(regular, kind, count=5, **{field: value})


@pytest.mark.parametrize("field, value", BAD_GENERATOR_SETTINGS)
def test_pollution_plan_refuses_out_of_range_setting(field, value):
    with pytest.raises(DataError, match=field):
        PollutionPlan(**{field: value})


def test_pollution_plan_takes_range_ends():
    PollutionPlan(noise_scale=0.0, feature_subset_fraction=1.0, range_inflation=1e-3)


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

    def test_negative_seed_refused(self):
        with pytest.raises(DataError, match="seed must be >= 0, got -2"):
            PollutionPlan(seed=-2)

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
