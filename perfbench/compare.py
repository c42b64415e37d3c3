"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result records written by ``run.py`` (the
``.perfbench/results/*-trace0.json`` files of one commit). For every
workload and end-to-end metric this prints both medians, each side's
run-to-run spread (the distance between the first and third quartile of
``statistics.quantiles(values, n=4)`` as a share of the median) and the
change of the median against the metric's bound. Records made at
different BLAS thread counts, or on different CPU models, are refused:
their timings and quality figures are not comparable. Null values (from
runs whose checks failed) are left out.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARABLE = ("blas_threads", "cpu_model")


def load(directory: Path) -> tuple[dict, set]:
    values = defaultdict(lambda: defaultdict(list))
    settings = set()
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        settings.add(tuple(record["environment"][key] for key in COMPARABLE))
        for name, metric in record["result"]["metrics"].items():
            if metric["value"] is not None:
                values[record["workload"]][name].append(metric["value"])
    return values, settings


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base, base_env), (new, new_env) = (load(Path(d)) for d in argv)
    if len(base_env | new_env) != 1:
        print(f"refusing to compare records made under different settings "
              f"{COMPARABLE}: {sorted(base_env | new_env)}", file=sys.stderr)
        return 2
    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    worse = 0
    for workload in sorted(base.keys() & new.keys()):
        for name, metric in spec.items():
            before, after = base[workload].get(name), new[workload].get(name)
            if not before or not after:
                continue
            b, a = statistics.median(before), statistics.median(after)
            change = (a - b) / abs(b) if b else 0.0
            loss = change if metric["better"] == "lower" else -change
            verdict = "worse beyond bound" if loss > metric["bound"] else ""
            worse += bool(verdict)
            print(f"{workload:4s} {name:14s} {b:11.6g} -> {a:11.6g} {metric['unit']:5s}"
                  f" {change:+8.2%} bound {metric['bound']:.2f}"
                  f" spread {spread(before):.3f}/{spread(after):.3f}"
                  f" (n={len(before)}/{len(after)}) {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
