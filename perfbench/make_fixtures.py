"""Regenerate the frozen fixture models from their seeded recipes.

    python3 perfbench/make_fixtures.py

Each fixture is trained through the ``tnad train`` CLI on data drawn from
the recipe's seed (see ``workloads.SCALES``), at the pinned BLAS thread
count; the same program version reproduces the committed files bit for
bit. Regenerate only on purpose: the ``explain`` and ``mi`` figures of
every earlier result were measured on the old files.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import env

env.pin_threads()

import workloads  # noqa: E402  (numpy must load after the thread pin)


def build(fixture: workloads.Fixture, directory: Path, cli_main) -> Path:
    """Train ``fixture`` into ``directory`` and return the model path."""
    directory.mkdir(parents=True, exist_ok=True)
    inputs = directory / (fixture.file + ".inputs")
    inputs.mkdir(exist_ok=True)
    try:
        rng = workloads.np.random.default_rng(fixture.seed)
        data = workloads.to_raw(workloads.regular_rows(rng, fixture.rows, fixture.width))
        workloads.write_csv(inputs / "data.csv", data)
        config = {"phys_dim": fixture.phys_dim, "init_bond": 2,
                  "train": {"max_bond": fixture.max_bond, "sweeps": fixture.sweeps}}
        (inputs / "config.json").write_text(json.dumps(config))
        out = directory / fixture.file
        workloads.Session(cli_main)(
            "train", "--data", inputs / "data.csv", "--model", fixture.kind,
            "--config", inputs / "config.json", "--seed", fixture.seed, "--out", out)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    return out


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from tnad.cli import cli

    for scale in workloads.SCALES["full"].values():
        path = build(scale.fixture, workloads.FIXTURE_DIR, cli.main)
        defect = workloads.oracle.isometry_defect(workloads.oracle.read_model(path))
        print(f"{path}: isometry defect {defect:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
