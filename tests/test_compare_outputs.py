"""The output comparison of ``tools/compare_outputs.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_explanations_of_one_checkout_agree_and_a_flipped_byte_is_reported(
        compare_outputs, tmp_path, capsys):
    assert compare_outputs.main([str(ROOT), str(ROOT), "--parts", "explain",
                                 "--work", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all 74 files agree"
    explanations = sorted((tmp_path / "new" / "explain").glob("*.json"))
    assert len(explanations) == 72
    target = explanations[40]
    flipped = bytearray(target.read_bytes())
    flipped[len(flipped) // 2] ^= 1
    target.write_bytes(bytes(flipped))
    assert compare_outputs.report(tmp_path / "base", tmp_path / "new") == 1
    name = f"explain/{target.name}"
    assert capsys.readouterr().out.splitlines() == [name, "1 differing of 74 files"]


def test_only_wall_time_and_path_keys_are_skipped(compare_outputs, tmp_path):
    for side, seconds in (("base", 1.5), ("new", 2.5)):
        (tmp_path / side).mkdir()
        report = {"nll_trace": [3.0, 2.0], "seconds_per_sweep": [seconds],
                  "model_paths": [f"/{side}/fold0.tnad"]}
        (tmp_path / side / "report.json").write_text(json.dumps(report))
        (tmp_path / side / "scores.json").write_text(json.dumps({"nll": seconds}))
    (tmp_path / "base" / "base_only.csv").write_text("")
    assert compare_outputs.differing(tmp_path / "base", tmp_path / "new") == [
        "base_only.csv (base only)", "scores.json"]
    # a JSON file without a skipped key is compared byte for byte
    (tmp_path / "new" / "scores.json").write_text(json.dumps({"nll": 1.5}, indent=1))
    assert compare_outputs.differing(tmp_path / "base", tmp_path / "new") == [
        "base_only.csv (base only)", "scores.json"]
    (tmp_path / "new" / "report.json").write_text(json.dumps({
        "nll_trace": [3.0, 2.5], "seconds_per_sweep": [1.5], "model_paths": ["/base/fold0.tnad"]}))
    assert "report.json" in compare_outputs.differing(tmp_path / "base", tmp_path / "new")
