"""Compare the output files of two checkouts of tnad, byte for byte.

    python3 tools/compare_outputs.py BASE NEW [--parts explain,mi,workloads] [--work DIR]

For each checkout in turn, a fresh interpreter with that checkout's
``src`` first on its path, and one BLAS thread, writes the outputs of:

* ``explain``: ``tnad explain`` on both frozen benchmark fixtures
  (``mps36``, ``ttn24``), for the fixture recipe's planted rows 0-11, each
  with no flag, with ``--no-conditionals`` and with ``--k-sigma 0.5``:
  72 JSON files;
* ``mi``: ``tnad mi --from model`` on both fixtures, plain and with
  ``--display``;
* ``workloads``: one seed-1 iteration of both benchmark workloads
  (``perfbench/workloads.py``'s ``setup(1)`` and ``iterate``), with every
  file it writes (model files, ``scores.csv``, ``mi_data.csv``, the
  protocol files, the training reports) and its quality figures and
  call counts.

Both runs take their inputs from the ``perfbench/`` beside this tool,
which they read and never write, so only the program differs. Every file
is compared byte for byte. The JSON keys that hold wall times or paths
(``seconds_per_sweep``, ``seconds_per_fold``, ``model_paths``) are the one
exception: a JSON file holding one is compared as parsed values without
them. The tool prints the files that differ or that only one run wrote,
and exits 1 if there are any. ``--work`` keeps both runs' outputs, under
``DIR/base`` and ``DIR/new``; by default they go to a temporary directory
that is removed afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARTS = ("explain", "mi", "workloads")
SKIPPED_KEYS = frozenset({"seconds_per_sweep", "seconds_per_fold", "model_paths"})
EXPLAIN_ROWS = 12
EXPLAIN_VARIANTS = {"plain": (), "no-conditionals": ("--no-conditionals",),
                    "k-sigma-0.5": ("--k-sigma", "0.5")}
WORKLOAD_SEED = 1

# the child's program: this module, imported from the tools directory
_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import compare_outputs; "
          "compare_outputs.write_outputs(*sys.argv[2:])")


# ---------------------------------------------------------------------------
# writing one checkout's outputs (in its own interpreter)


def write_outputs(src: str, out: str, parts: str) -> None:
    """Write the outputs of ``parts`` (comma-separated) with the program under ``src``."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    import env

    env.pin_threads()  # before numpy loads
    import tnad
    import workloads
    from tnad.cli import cli

    if Path(tnad.__file__).resolve().parent != (Path(src) / "tnad").resolve():
        sys.exit(f"imported tnad from {tnad.__file__}, not from {src}")
    out, parts = Path(out), parts.split(",")
    call = workloads.Session(cli.main)
    fixtures = [workloads.SCALES["full"][kind].fixture for kind in ("mps", "ttn")]
    for part in parts:
        (out / part).mkdir(parents=True)
    for fixture in fixtures:
        model = workloads.FIXTURE_DIR / fixture.file
        stem = Path(fixture.file).stem
        if "explain" in parts:
            planted = out / "explain" / f"{stem}_planted.csv"
            workloads.write_csv(planted, workloads.planted_rows(fixture, EXPLAIN_ROWS)[0])
            for row in range(EXPLAIN_ROWS):
                for variant, flags in EXPLAIN_VARIANTS.items():
                    call("explain", "--model-file", model, "--data", planted, "--sample", row,
                         "--out", out / "explain" / f"{stem}_row{row:02d}_{variant}.json", *flags)
        if "mi" in parts:
            for variant, flags in (("plain", ()), ("display", ("--display",))):
                call("mi", "--from", "model", "--model-file", model,
                     "--out", out / "mi" / f"{stem}_{variant}.csv", *flags)
    if "workloads" in parts:
        for name in ("mps", "ttn"):
            workload = workloads.make_workload(name, "full", out / "workloads" / name)
            workload.setup(WORKLOAD_SEED)
            result = workload.iterate(workloads.Session(cli.main))
            summary = {"quality": result.quality, "attempted": result.attempted,
                       "failed": result.failed, "problems": result.problems}
            (out / "workloads" / f"{name}_iteration.json").write_text(json.dumps(summary, indent=2))


def produce(checkout: Path, out: Path, parts) -> None:
    """Write the outputs of ``parts`` with ``checkout``'s program, in a fresh interpreter."""
    src = Path(checkout).resolve() / "src"
    if not (src / "tnad" / "__init__.py").is_file():
        sys.exit(f"compare_outputs: no program sources at {src / 'tnad'}")
    # no bytecode is cached, so neither perfbench/ nor the checkout is written
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(Path(__file__).resolve().parent), str(src),
         str(out), ",".join(parts)],
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.exit(f"compare_outputs: the run of {checkout} failed:\n{done.stderr[-3000:]}")


# ---------------------------------------------------------------------------
# comparing


def _without_skipped(value):
    if isinstance(value, dict):
        return {k: _without_skipped(v) for k, v in value.items() if k not in SKIPPED_KEYS}
    if isinstance(value, list):
        return [_without_skipped(v) for v in value]
    return value


def same_file(a: Path, b: Path) -> bool:
    """Whether two output files agree: in their bytes, or, for a JSON file
    holding a skipped key, in their parsed values without the skipped keys."""
    left, right = a.read_bytes(), b.read_bytes()
    if left == right:
        return True
    if a.suffix != ".json":
        return False
    try:
        left, right = json.loads(left), json.loads(right)
    except ValueError:
        return False
    # dumped to text, so that a NaN equals itself
    kept = [json.dumps(_without_skipped(value)) for value in (left, right)]
    return kept[0] != json.dumps(left) and kept[0] == kept[1]


def differing(base: Path, new: Path) -> list[str]:
    """Relative paths of the files that differ between two output trees, in order;
    a file only one tree holds is marked with the tree it is in."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    in_base, in_new = files(base), files(new)
    out = []
    for name in sorted(in_base | in_new):
        if name not in in_new:
            out.append(f"{name} (base only)")
        elif name not in in_base:
            out.append(f"{name} (new only)")
        elif not same_file(base / name, new / name):
            out.append(name)
    return out


def report(base: Path, new: Path) -> int:
    """Print the files that differ between two output trees; 1 if any do, else 0."""
    names = differing(base, new)
    for name in names:
        print(name)
    compared = sum(1 for p in new.rglob("*") if p.is_file())
    print(f"{len(names)} differing of {compared} files" if names
          else f"all {compared} files agree")
    return 1 if names else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout to compare against")
    parser.add_argument("new", type=Path, help="checkout to compare")
    parser.add_argument("--parts", default=",".join(PARTS),
                        help="comma-separated subset of: " + ", ".join(PARTS))
    parser.add_argument("--work", type=Path, help="directory to keep both runs' outputs in")
    args = parser.parse_args(argv)
    parts = args.parts.split(",")
    if not parts or set(parts) - set(PARTS) or len(set(parts)) != len(parts):
        parser.error(f"--parts takes a comma-separated subset of {', '.join(PARTS)}")
    keep = contextlib.nullcontext(args.work) if args.work else tempfile.TemporaryDirectory()
    with keep as work:
        work = Path(work)
        for label, checkout in (("base", args.base), ("new", args.new)):
            produce(checkout, work / label, parts)
        return report(work / "base", work / "new")


if __name__ == "__main__":
    sys.exit(main())
