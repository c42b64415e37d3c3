"""tnad benchmark: times the real CLI on generated inputs and checks its outputs.

    python3 perfbench/run.py --workload mps --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its
``src/`` tree. The BLAS thread count is pinned before numpy loads.

Set-up is what comes before the timed calls: import the program's CLI
in a fresh interpreter, write the seed's input files, and load the
frozen fixture with the program's reader and with the oracle's.
``--trace 0`` repeats set-up and then the timed sequence of CLI calls as
often as fits in ``--seconds`` (at least once), then sets up again until
there are five set-ups, so the set-up samples spread over the run like
the timed ones. It reports every end-to-end metric of ``BENCHMARK.json``;
``setup_s`` and the times are medians over the repetitions, and the time
of each CLI command per repetition goes to the record. ``--trace 1``
sets up before a plain and before a traced run of the sequence, in which
every public function of the program is wrapped (see ``tracer``), and
reports every per-layer metric plus ``trace.overhead_frac``, the traced
over the plain wall time minus one. End-to-end figures come from
untraced runs only. A failed set-up or check gives ``"correct": false``
and a null value for each metric it left unmeasured.

The last line of standard output is the result: ``correct``,
``attempted``, ``failed`` and ``metrics``. ``attempted`` and ``failed``
count CLI calls, two-site training steps (``mps``; the protocol run does
not report its steps) and conditional expectations; a null conditional
expectation or an aborted step counts as failed. The line before it
holds the environment. The full record, with per-repetition figures,
goes to ``.perfbench/results/``; traced runs also write their spans
there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

env.pin_threads()

import workloads  # noqa: E402  (numpy must load after the thread pin)
from oracle import OracleError  # noqa: E402
from tracer import Tracer, layer_metrics, source  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SCALES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_cli():
    """The checkout's own ``tnad`` CLI group; exits with code 2 if there is none."""
    src = ROOT / "src"
    if not (src / "tnad" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src / 'tnad'}")
    sys.path.insert(0, str(src))
    import tnad
    from tnad.cli import cli

    if Path(tnad.__file__).resolve().parent != (src / "tnad").resolve():
        sys.exit(f"perfbench: imported tnad from {tnad.__file__}, not from {src}")
    return cli.main


def import_program() -> None:
    """Import the program's CLI in a fresh interpreter, as a user's first call does."""
    environment = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", "import tnad.cli"], env=environment,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise OracleError(f"importing tnad.cli failed: {done.stderr.strip()[-300:]}")


class Setups:
    """Sets the workload up for one seed and keeps the time of each set-up."""

    def __init__(self, workload, seed: int):
        self.workload, self.seed, self.times = workload, seed, []

    def __call__(self) -> None:
        started = time.perf_counter()
        import_program()
        self.workload.setup(self.seed)
        self.times.append(time.perf_counter() - started)

    def top_up(self) -> None:
        while len(self.times) < SETUP_REPEATS:
            self()


def measure(workload, setup: Setups, cli_main, seconds: float, trace: bool):
    """Run set-ups and the timed part; returns (iterations, metric values, tracer or None)."""
    if not trace:
        iterations, started = [], time.perf_counter()
        while True:
            begun = time.perf_counter()
            setup()
            iterations.append(workload.iterate(workloads.Session(cli_main)))
            now = time.perf_counter()
            # stop before a repetition that would overrun the measuring time
            if iterations[-1].problems or now - started + (now - begun) > seconds:
                break
        setup.top_up()
        values = {
            name: statistics.median(it.times[name] for it in iterations)
            for name in iterations[-1].times
        }
        values.update(iterations[-1].quality)
        return iterations, values, None

    setup()
    plain = workload.iterate(workloads.Session(cli_main))
    tracer = Tracer()
    setup()
    tracer.install()
    try:
        traced = workload.iterate(workloads.Session(cli_main, tracer))
    finally:
        tracer.uninstall()
    setup.top_up()
    values = layer_metrics(tracer.layer_stats())
    if "wall_s" in plain.times and "wall_s" in traced.times:
        values["trace.overhead_frac"] = traced.times["wall_s"] / plain.times["wall_s"] - 1.0
    return [plain, traced], values, tracer


def run(argv=None, scale: str = "full", out_root: Path = ROOT / ".perfbench") -> int:
    """Benchmark entry point; ``scale`` and ``out_root`` exist for the smoke tests."""
    args = parse(argv)
    cli_main = load_cli()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_dir = out_root / "results"
    work = out_root / f"work-{args.workload}-{os.getpid()}"
    iterations, values, tracer, problems, setup = [], {}, None, [], None
    try:
        fixture_dir = workloads.FIXTURE_DIR
        if scale != "full":
            import make_fixtures

            fixture_dir = work / "fixtures"
            make_fixtures.build(workloads.SCALES[scale][args.workload].fixture,
                                fixture_dir, cli_main)
        workload = workloads.make_workload(args.workload, scale, work / "run", fixture_dir)
        setup = Setups(workload, args.seed)
        try:
            iterations, values, tracer = measure(workload, setup, cli_main,
                                                 args.seconds, bool(args.trace))
        except OracleError as exc:  # set-up failed: report it in the result line
            problems.append(f"set-up: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_times = setup.times if setup else []
    if setup_times:
        values["setup_s"] = statistics.median(setup_times)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += [p for it in iterations for p in it.problems]
    absent = []
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if tracer is not None and source(name) in tracer.absent:
            absent.append(name)
        value = values.get(name, 0.0 if tracer is not None else math.nan)
        if not math.isfinite(value):
            problems.append(f"metric {name} is {value}")
            value = None  # JSON has no NaN
        metrics[name] = {"value": value, "unit": entry["unit"]}
    # a failed set-up counts as one failed attempt
    set_up_failed = int(not iterations)
    result = {
        "correct": not problems,
        "attempted": sum(it.attempted for it in iterations) + set_up_failed,
        "failed": sum(it.failed for it in iterations) + set_up_failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env.describe(ROOT, args.seed),
        "result": result,
        "absent": absent,
        "problems": problems,
        "setup_s": setup_times,
        "iterations": [{"times": it.times, "explain_s": it.explain_times,
                        "quality": it.quality} for it in iterations],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(f"{stem}.spans.json")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"], "absent": absent}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(run())
