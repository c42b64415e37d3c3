"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

import compare
import oracle
import run
import tracer
import workloads
from tracer import Span, Tracer, self_time

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(run.ROOT / "src"))


def _strict_json(line: str):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(line, parse_constant=refuse)


def test_self_time_subtracts_the_union_of_children_inside_the_parent():
    parent = Span(0, "a", 1, None, 0.0, 10.0)
    children = [
        Span(1, "b", 1, 0, 1.0, 3.0),
        Span(2, "b", 1, 0, 2.0, 5.0),  # overlaps the first child
        Span(3, "c", 1, 0, 8.0, 12.0),  # runs past the parent's end
    ]
    assert self_time(parent, children) == pytest.approx(10.0 - 4.0 - 2.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_layer_stats_on_a_span_tree():
    t = Tracer()
    t.spans = [
        Span(0, "cli", 1, None, 0.0, 10.0),
        Span(1, "training.fit", 1, 0, 1.0, 9.0),
        Span(2, "training.two_site_step", 1, 1, 2.0, 4.0),
        Span(3, "tensors.truncated_svd", 1, 2, 2.5, 3.0),
        Span(4, "training.two_site_step", 1, 1, 5.0, 8.0),
        Span(5, "cli", 2, None, 20.0, 21.0),
    ]
    stats = t.layer_stats()
    assert stats["cli.s"] == pytest.approx(11.0)
    assert stats["cli.self_s"] == pytest.approx(2.0 + 1.0)
    assert stats["training.fit.self_s"] == pytest.approx(8.0 - 5.0)
    assert stats["training.two_site_step.s"] == pytest.approx(5.0)
    assert stats["training.two_site_step.self_s"] == pytest.approx(4.5)
    assert stats["training.two_site_step.calls"] == 2


def test_missing_names_are_absent_and_wrappers_are_removed(monkeypatch):
    import tnad.cli
    import tnad.training

    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [
        ("tensors.contract_pair", "tnad.tensors", "no_such_function", None),
        ("gone.thing", "tnad.no_such_module", "thing", None),
        ("mps.gone", "tnad.mps", "NoSuchClass.method", None),
    ])
    original = tnad.training.fit
    t = Tracer()
    t.install()
    try:
        assert tnad.cli.fit is not original and tnad.cli.fit.__wrapped__ is original
    finally:
        t.uninstall()
    assert {"tensors.contract_pair", "gone.thing", "mps.gone"} <= t.absent
    assert tnad.cli.fit is original and tnad.training.fit is original


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, tmp_path, capsys):
    code = run.run(["--workload", workload, "--seed", "3", "--seconds", "0",
                    "--trace", str(trace)], scale="tiny", out_root=tmp_path)
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = _strict_json(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] >= 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for entry in wanted:
        metric = result["metrics"][entry["name"]]
        assert set(metric) == {"value", "unit"} and metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    header = json.loads(lines[-2])
    assert header["absent"] == []
    assert header["environment"]["seed"] == 3 and header["environment"]["blas_threads"] >= 1
    if trace:
        # the tiny workload runs its own layers, so they must show up as measured
        layer = workload
        assert result["metrics"][f"{layer}.log_amplitudes.rows"]["value"] > 0
        assert result["metrics"]["tensors.truncated_svd.calls"]["value"] > 0
        assert result["metrics"]["explain.conditional_rdm.calls"]["value"] > 0
        assert result["metrics"]["cli.explain.calls"]["value"] == 2
        assert result["metrics"]["cli.score.s"]["value"] > 0
        assert (tmp_path / "results" / f"{workload}-seed3-trace1.spans.json").is_file()


def test_a_corrupt_fixture_is_refused(tmp_path):
    raw = bytearray((workloads.FIXTURE_DIR / "mps36.tnad").read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    (tmp_path / "bad.tnad").write_bytes(bytes(raw))
    with pytest.raises(oracle.OracleError):
        workloads.check_fixture(tmp_path / "bad.tnad")


def test_a_failed_set_up_ends_in_the_result_line(monkeypatch, tmp_path, capsys):
    def broken(path):
        raise oracle.OracleError(f"{path}: isometry defect 1e-3")

    monkeypatch.setattr(workloads, "check_fixture", broken)
    code = run.run(["--workload", "mps", "--seed", "3", "--seconds", "0", "--trace", "0"],
                   scale="tiny", out_root=tmp_path)
    result = _strict_json(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is False and result["attempted"] == result["failed"] == 1
    assert result["metrics"]["wall_s"]["value"] is None
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def _record(directory: Path, threads: int, value: float) -> None:
    directory.mkdir()
    record = {"workload": "mps", "environment": {"blas_threads": threads, "cpu_model": "x"},
              "result": {"metrics": {"wall_s": {"value": value, "unit": "s"}}}}
    (directory / "mps-seed1-trace0.json").write_text(json.dumps(record))


def test_compare_refuses_records_at_different_thread_counts(tmp_path):
    _record(tmp_path / "a", 1, 10.0)
    _record(tmp_path / "b", 2, 10.0)
    _record(tmp_path / "c", 1, 10.5)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 0


def test_interaction_map_covers_every_layer_metric_once():
    interactions = json.loads((run.ROOT / "perfbench" / "interactions.json").read_text())
    mapped = [name for row in interactions["map"] for name in row["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    workload_names = {w["name"] for w in SPEC["workloads"]}
    for row in interactions["map"]:
        assert {m.split(" ")[0] for m in row["moves"]} <= end_to_end
        assert set(row["through"]) <= per_layer
        assert set(row["on"]) <= workload_names
