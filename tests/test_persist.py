import re
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from tnad import (
    DataError,
    LegendreFeatureMap,
    MpsModel,
    TrainConfig,
    TtnModel,
    fit,
    fit_rescaler,
    load_model,
    save_model,
    score_samples,
    toy_correlated_pairs,
)
from tnad.persist import MAGIC

# model files frozen by the benchmark; the format must read and write them unchanged
FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


def fitted_encoder(n_functions, n_features, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.normal(3.0, 2.0, size=(50, n_features))
    return LegendreFeatureMap(n_functions, fit_rescaler(data)), data


class TestRoundTrip:
    def test_mps_roundtrip(self, tmp_path):
        encoder, data = fitted_encoder(3, 5)
        model = MpsModel.random(5, 3, init_bond=4, seed=1, encoder=encoder)
        path = tmp_path / "model.tnad"
        save_model(path, model)
        loaded = load_model(path)
        assert isinstance(loaded, MpsModel)
        assert loaded.phys_dim == 3
        for a, b in zip(loaded.tensors, model.tensors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(
            score_samples(loaded, loaded.encoder.encode_batch(data)),
            score_samples(model, encoder.encode_batch(data)),
            rtol=1e-12, atol=1e-12,
        )

    def test_mps_cores_bitwise_after_canonical_convention(self, tmp_path):
        encoder, _ = fitted_encoder(2, 4)
        model = MpsModel.random(4, 2, init_bond=3, seed=2, encoder=encoder)
        model.canonicalize(2)  # move off the storage convention
        path = tmp_path / "model.tnad"
        save_model(path, model)
        loaded = load_model(path)
        reference = model.copy()
        reference.canonicalize(0)
        for a, b in zip(loaded.tensors, reference.tensors):
            np.testing.assert_array_equal(a, b)
        assert loaded.center == 0

    def test_ttn_roundtrip_with_padding(self, tmp_path):
        encoder, data = fitted_encoder(2, 7, seed=3)
        model = TtnModel.random(7, 2, init_bond=3, seed=3, encoder=encoder)
        path = tmp_path / "tree.tnad"
        save_model(path, model)
        loaded = load_model(path)
        assert isinstance(loaded, TtnModel)
        assert loaded.padding == 1
        assert loaded.parents == model.parents
        assert loaded.children == model.children
        np.testing.assert_allclose(
            score_samples(loaded, loaded.encoder.encode_batch(data)),
            score_samples(model, encoder.encode_batch(data)),
            rtol=1e-12,
        )

    def test_rescaler_restored_exactly(self, tmp_path):
        encoder, _ = fitted_encoder(3, 4, seed=4)
        model = MpsModel.random(4, 3, init_bond=2, seed=4, encoder=encoder)
        path = tmp_path / "model.tnad"
        save_model(path, model)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.encoder.rescaler.minimum, encoder.rescaler.minimum)
        np.testing.assert_array_equal(loaded.encoder.rescaler.maximum, encoder.rescaler.maximum)


@pytest.mark.parametrize("name", ["mps36.tnad", "ttn24.tnad"])
def test_frozen_fixture_resaves_to_its_own_bytes(tmp_path, name):
    """The file format is fixed: a stored model loads and saves to the bytes it came from."""
    save_model(tmp_path / name, load_model(FIXTURES / name))
    assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes()


def test_saving_makes_no_whole_file_copy(tmp_path):
    """Saving holds the model's working copy and the file's bytes, not a copy of the file."""
    model = MpsModel.random(36, 5, init_bond=40, seed=0)
    model.encoder, _ = fitted_encoder(5, 36)
    path = tmp_path / "model.tnad"
    tracemalloc.start()
    try:
        save_model(path, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * path.stat().st_size


@pytest.mark.parametrize("kind", ["mps", "ttn"])
def test_saving_a_model_canonical_at_its_sweep_start_copies_no_tensor(tmp_path, kind):
    """A loaded model is saved as it is, to the bytes it came from, with no working copy."""
    if kind == "mps":
        model = MpsModel.random(36, 5, init_bond=40, seed=0)
    else:
        model = TtnModel.random(64, 5, init_bond=16, seed=0)
    model.encoder, _ = fitted_encoder(5, model.n_features)
    first, second = tmp_path / "first.tnad", tmp_path / "second.tnad"
    save_model(first, model)
    loaded = load_model(first)
    assert loaded.center == loaded.sweep_start()
    tracemalloc.start()
    try:
        save_model(second, loaded)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * second.stat().st_size
    assert second.read_bytes() == first.read_bytes()


class TestFileIntegrity:
    def write_model(self, tmp_path):
        encoder, _ = fitted_encoder(2, 4, seed=5)
        model = MpsModel.random(4, 2, init_bond=2, seed=5, encoder=encoder)
        path = tmp_path / "model.tnad"
        save_model(path, model)
        return path

    def test_magic_header(self, tmp_path):
        path = self.write_model(tmp_path)
        assert path.read_bytes()[:4] == b"TNAD"

    def test_bad_magic_rejected(self, tmp_path):
        path = self.write_model(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="magic"):
            load_model(path)

    def test_corruption_detected(self, tmp_path):
        path = self.write_model(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="checksum"):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = self.write_model(tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(DataError):
            load_model(path)

    def test_unfitted_model_not_serializable(self, tmp_path):
        model = MpsModel.random(3, 2, seed=0)
        with pytest.raises(DataError, match="feature map"):
            save_model(tmp_path / "x.tnad", model)


HEADER_END = len(MAGIC) + struct.calcsize("<IBIII")


class TestShortFiles:
    """CRC-valid files whose body ends before the layout they declare does."""

    @staticmethod
    def cut(tmp_path, kind, length):
        """A saved 4-feature model's body cut to ``length`` bytes and resealed."""
        encoder, _ = fitted_encoder(3, 4, seed=6)
        model_class = MpsModel if kind == "mps" else TtnModel
        path = tmp_path / f"{kind}.tnad"
        save_model(path, model_class.random(4, 3, init_bond=2, seed=6, encoder=encoder))
        reseal(path, path.read_bytes()[:length])
        return path

    @pytest.mark.parametrize(
        "kind, length, part",
        [
            ("mps", HEADER_END - 3, "header"),
            ("mps", HEADER_END + 16 * 4 - 8, "rescaler"),
            ("mps", HEADER_END + 16 * 4 + 4 * 2 + 2, "MPS bond list"),
            ("ttn", HEADER_END + 16 * 4 + 4 + 8 * 1 + 3, "tree node table"),
        ],
        ids=["header", "rescaler", "mps-bonds", "tree-nodes"],
    )
    def test_refused_by_load_and_by_the_cli(self, tmp_path, kind, length, part):
        path = self.cut(tmp_path, kind, length)
        with pytest.raises(DataError, match=f"ends inside the {part}"):
            load_model(path)
        data = tmp_path / "data.csv"
        data.write_text("f0,f1,f2,f3\n0.1,0.2,0.3,0.4\n")
        proc = subprocess.run(
            [sys.executable, "-m", "tnad.cli", "score", "--model-file", str(path),
             "--data", str(data), "--out", str(tmp_path / "scores.csv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert f"ends inside the {part}" in proc.stderr

    def test_feature_count_checked_before_allocating(self, tmp_path):
        path = self.cut(tmp_path, "mps", HEADER_END + 16 * 4)
        blob = bytearray(path.read_bytes()[:-4])
        blob[len(MAGIC) + 5 : len(MAGIC) + 9] = struct.pack("<I", 2**32 - 1)  # n_features
        reseal(path, bytes(blob))
        with pytest.raises(DataError, match="ends inside the rescaler"):
            load_model(path)


def rewrite_tensor(path, stored, replacement):
    """Swap one stored tensor's bytes in a model file and re-seal its CRC."""
    blob = bytearray(path.read_bytes()[:-4])
    old = np.ascontiguousarray(stored, dtype="<f8").tobytes()
    offset = bytes(blob).find(old)
    assert offset > 0 and bytes(blob).count(old) == 1
    blob[offset : offset + len(old)] = np.ascontiguousarray(replacement, dtype="<f8").tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
    path.write_bytes(bytes(blob))


def reseal(path, blob):
    """Write ``blob`` to ``path`` with a valid CRC appended."""
    path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF))


def write_relabeled(path, model, order):
    """Save ``model``, then rewrite its node table and tensors with node ``order[k]`` as ``k``.

    The constructor refuses a tree that is not in pre-order, so such a
    file can only be made from bytes.
    """
    save_model(path, model)
    stored = load_model(path)
    new_id = {old: k for k, old in enumerate(order)}
    table = struct.pack("<I", len(order))
    for old in order:
        parent = model.parents[old]
        bond = stored.tensors[old].shape[0] if parent >= 0 else 0
        table += struct.pack("<iI", new_id.get(parent, -1), bond)
    cores = b"".join(stored.tensors[old].astype("<f8").tobytes() for old in order)
    start = len(MAGIC) + struct.calcsize("<IBIII") + 16 * model.n_features
    reseal(path, path.read_bytes()[:start] + table + cores)


class TestContentChecks:
    """CRC-valid files whose tensors the canonical shortcuts would get wrong."""

    @pytest.mark.parametrize("kind, value", [("mps", np.nan), ("ttn", np.nan), ("mps", np.inf)])
    def test_non_finite_entry_refused(self, tmp_path, kind, value):
        path, stored = self.saved(tmp_path, kind)
        bad = stored.copy()
        bad.flat[0] = value
        rewrite_tensor(path, stored, bad)
        with pytest.raises(DataError, match="non-finite"):
            load_model(path)

    @pytest.mark.parametrize("kind", ["mps", "ttn"])
    def test_non_isometric_tensor_refused(self, tmp_path, kind):
        path, stored = self.saved(tmp_path, kind)
        rewrite_tensor(path, stored, stored * (1.0 + 1e-6))
        with pytest.raises(DataError, match="not canonical"):
            load_model(path)

    @pytest.mark.parametrize(
        "edits, message",
        [
            ([(0, 0, np.nan)], "feature 0 is non-finite"),
            ([(1, 1, -1e300)], "maximum <= minimum for feature 1"),
            ([(2, 0, -1e308), (2, 1, 1e308)], "feature 2 is non-finite"),  # width overflows
        ],
        ids=["nan-minimum", "maximum-below-minimum", "width-overflows"],
    )
    def test_broken_rescaler_refused(self, tmp_path, edits, message):
        """Each edit is (feature, 0 for its minimum or 1 for its maximum, new value)."""
        path, _ = self.saved(tmp_path, "mps")
        blob = bytearray(path.read_bytes()[:-4])
        start = len(MAGIC) + struct.calcsize("<IBIII")
        for feature, bound, value in edits:
            offset = start + 16 * feature + 8 * bound
            blob[offset : offset + 8] = struct.pack("<d", value)
        blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=message):
            load_model(path)

    def test_parent_id_out_of_range_refused(self, tmp_path):
        encoder, _ = fitted_encoder(3, 4, seed=6)
        path = tmp_path / "tree.tnad"
        save_model(path, TtnModel.random(4, 3, init_bond=4, seed=6, encoder=encoder))
        blob = bytearray(path.read_bytes()[:-4])
        # three nodes: the root and two leaves; point node 1 at a parent 7
        offset = len(MAGIC) + struct.calcsize("<IBIII") + 16 * 4 + 4 + 8 * 1
        blob[offset : offset + 4] = struct.pack("<i", 7)
        blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="smaller than its child"):
            load_model(path)

    @pytest.mark.parametrize(
        "order, message",
        [
            ([0, 2, 1, 3, 4], "smaller than its child"),  # leaf 1 hangs below inner node 2
            ([0, 1, 4, 2, 3], "pre-order"),  # breadth-first ids: leaf 2 is the right-most
        ],
        ids=["child-before-parent", "breadth-first"],
    )
    def test_node_ids_not_in_pre_order_refused(self, tmp_path, order, message):
        encoder, _ = fitted_encoder(3, 6, seed=6)
        model = TtnModel.random(6, 3, init_bond=4, seed=6, encoder=encoder)
        path = tmp_path / "tree.tnad"
        write_relabeled(path, model, list(range(model.n_nodes)))  # the writer's own ids load
        for a, b in zip(load_model(path).tensors, model.tensors):
            np.testing.assert_array_equal(a, b)
        write_relabeled(path, model, order)
        with pytest.raises(DataError, match=message):
            load_model(path)

    @pytest.mark.parametrize(
        "kind, n_features, padding",
        [("mps", 6, 7), ("ttn", 7, 0), ("ttn", 7, 2)],
        ids=["mps-padding-7", "tree-one-below", "tree-one-above"],
    )
    def test_padding_field_must_match_the_model(self, tmp_path, kind, n_features, padding):
        """The topology decides the dummy features; a padding field that
        disagrees would have the writer and the reader pin different legs."""
        encoder, _ = fitted_encoder(3, n_features, seed=6)
        model_class = MpsModel if kind == "mps" else TtnModel
        path = tmp_path / f"{kind}.tnad"
        save_model(path, model_class.random(n_features, 3, init_bond=4, seed=6, encoder=encoder))
        blob = bytearray(path.read_bytes()[:-4])
        offset = len(MAGIC) + struct.calcsize("<IBII")
        blob[offset : offset + 4] = struct.pack("<I", padding)
        reseal(path, bytes(blob))
        with pytest.raises(DataError, match=f"padding field {padding} differs"):
            load_model(path)

    @pytest.mark.parametrize("n_features", [0, 1])
    def test_tree_with_more_than_one_dummy_feature_refused(self, tmp_path, n_features):
        """A 4-feature tree's file whose header claims fewer features, its
        extra rescaler rows dropped and its padding field to match: its two
        leaves would carry more than the one dummy feature a tree may hold.
        The reader and the CLI refuse it."""
        encoder, _ = fitted_encoder(3, 4, seed=6)
        path = tmp_path / "tree.tnad"
        save_model(path, TtnModel.random(4, 3, init_bond=4, seed=6, encoder=encoder))
        blob = path.read_bytes()[:-4]
        header = bytearray(blob[:HEADER_END])
        struct.pack_into("<I", header, len(MAGIC) + 5, n_features)  # L
        struct.pack_into("<I", header, len(MAGIC) + 13, 4 - n_features)  # padding
        kept = blob[HEADER_END : HEADER_END + 16 * n_features]
        reseal(path, bytes(header) + kept + blob[HEADER_END + 16 * 4 :])
        message = f"2 leaves would carry {n_features} features and {4 - n_features} dummy ones"
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            load_model(path)
        proc = subprocess.run(
            [sys.executable, "-m", "tnad.cli", "mi", "--from", "model", "--model-file",
             str(path), "--out", str(tmp_path / "mi.csv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr

    def test_zero_mps_bond_refused(self, tmp_path):
        encoder, _ = fitted_encoder(3, 3, seed=6)
        path = tmp_path / "mps.tnad"
        save_model(path, MpsModel.random(3, 3, init_bond=2, seed=6, encoder=encoder))
        last = load_model(path).tensors[-1]  # (2, 3, 1)
        # bonds [1, 0, 2, 1]: the first two cores hold no entries
        start = len(MAGIC) + struct.calcsize("<IBIII") + 16 * 3
        blob = path.read_bytes()[:start] + struct.pack("<4I", 1, 0, 2, 1)
        reseal(path, blob + last.astype("<f8").tobytes())
        with pytest.raises(DataError, match="bond 1 has extent 0"):
            load_model(path)

    def test_root_parent_bond_field_must_be_0(self, tmp_path):
        """The root's up bond has no node behind it: its field holds 0, read as extent 1."""
        encoder, _ = fitted_encoder(3, 6, seed=2)
        path = tmp_path / "tree.tnad"
        save_model(path, TtnModel.random(6, 3, init_bond=3, seed=2, encoder=encoder))
        blob = bytearray(path.read_bytes()[:-4])
        offset = len(MAGIC) + struct.calcsize("<IBIII") + 16 * 6 + 4  # node 0's table entry
        assert struct.unpack_from("<iI", blob, offset) == (-1, 0)
        struct.pack_into("<I", blob, offset + 4, 7)
        reseal(path, bytes(blob))
        with pytest.raises(DataError, match=re.escape(f"{path}: root parent-bond field is 7")):
            load_model(path)

    def test_zero_tree_parent_bond_refused(self, tmp_path):
        encoder, _ = fitted_encoder(3, 4, seed=6)
        path = tmp_path / "tree.tnad"
        save_model(path, TtnModel.random(4, 3, init_bond=4, seed=6, encoder=encoder))
        leaf = load_model(path).tensors[2]  # (4, 3, 3)
        # root and two leaves with parent bonds [0, 0, 4]: the root and the
        # first leaf hold no entries
        start = len(MAGIC) + struct.calcsize("<IBIII") + 16 * 4
        topology = struct.pack("<IiIiIiI", 3, -1, 0, 0, 0, 0, 4)  # count, (parent, bond) x 3
        reseal(path, path.read_bytes()[:start] + topology + leaf.astype("<f8").tobytes())
        with pytest.raises(DataError, match="node 1 has extent 0"):
            load_model(path)

    @staticmethod
    def saved(tmp_path, kind):
        """A saved model and one of its stored tensors that must be an isometry."""
        encoder, _ = fitted_encoder(3, 6, seed=6)
        path = tmp_path / f"{kind}.tnad"
        if kind == "mps":
            save_model(path, MpsModel.random(6, 3, init_bond=4, seed=6, encoder=encoder))
            return path, load_model(path).tensors[2]
        save_model(path, TtnModel.random(6, 3, init_bond=4, seed=6, encoder=encoder))
        return path, load_model(path).tensors[1]

    @pytest.mark.parametrize("kind", ["mps", "ttn"])
    def test_trained_model_loads(self, tmp_path, kind):
        data = toy_correlated_pairs(400, 6, pairs=((1, 2), (3, 4)), seed=2)
        encoder = LegendreFeatureMap(4, fit_rescaler(data))
        model_class = MpsModel if kind == "mps" else TtnModel
        model = model_class.random(6, 4, init_bond=2, seed=1, encoder=encoder)
        fit(model, encoder.encode_batch(data),
            TrainConfig(learning_rate=5e-3, sweeps=2, batch_size=None, max_bond=8, seed=1))
        path = tmp_path / f"trained-{kind}.tnad"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.isometry_defect() <= 1e-8
        np.testing.assert_allclose(
            score_samples(loaded, loaded.encoder.encode_batch(data)),
            score_samples(model, encoder.encode_batch(data)),
            rtol=1e-10, atol=1e-10,
        )
