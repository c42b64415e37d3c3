"""The two benchmark workloads: inputs, timed CLI calls and output checks.

Every input is generated here from a seed with numpy and handed to the
program only as files. Each workload times one closed sequence of
``tnad`` CLI calls (each waits for the previous one), then checks the
files the calls wrote against the independent reference in ``oracle``.

* ``mps`` (Satellite width, 36 features): ``train`` a fresh MPS up to bond
  40 and ``score`` a held-out labeled set with it; ``explain`` planted rows
  and ``mi --from model`` on the frozen MPS fixture; ``mi --from data``.
* ``ttn`` (Spambase width, 57 features): the pollute/fold protocol
  (``benchmark --max-folds 1``) training a tree, ``score`` of a held-out
  labeled set with the fold-0 tree; ``explain`` planted rows and
  ``mi --from model`` on the frozen tree fixture (24 features).

Training, scoring and the protocol read data drawn from the run's seed.
``explain`` and ``mi --from model`` read a frozen fixture model and
planted rows fixed by the fixture recipe, so training changes cannot move
their times or quality, and their quality figures do not vary by seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"


# ---------------------------------------------------------------------------
# sizes


@dataclass(frozen=True)
class Fixture:
    """Seeded recipe of a frozen model: data, training settings, file name."""

    file: str
    kind: str
    width: int
    phys_dim: int
    max_bond: int
    sweeps: int
    rows: int
    seed: int


@dataclass(frozen=True)
class Scale:
    width: int
    phys_dim: int
    max_bond: int
    sweeps: int
    train_rows: int  # mps: training rows; ttn: regular rows of the protocol's set
    native_rows: int  # ttn: native anomalies of the protocol's set
    scored_rows: int  # held-out regular rows of the scored set
    anomalies_per_kind: int  # scored set: planted global, local and dependency rows each
    explain_rows: int
    fixture: Fixture


SCALES = {
    "full": {
        "mps": Scale(36, 5, 40, 2, 2000, 0, 5000, 100, 4,
                     Fixture("mps36.tnad", "mps", 36, 5, 12, 3, 3000, 101)),
        "ttn": Scale(57, 5, 16, 3, 2500, 100, 10000, 100, 8,
                     Fixture("ttn24.tnad", "ttn", 24, 4, 8, 4, 3000, 202)),
    },
    # smoke-test sizes: same code path, seconds instead of minutes
    "tiny": {
        "mps": Scale(8, 3, 4, 1, 300, 0, 200, 10, 2,
                     Fixture("mps8.tnad", "mps", 8, 3, 4, 1, 300, 101)),
        "ttn": Scale(9, 3, 4, 1, 400, 40, 200, 10, 2,
                     Fixture("ttn6.tnad", "ttn", 6, 3, 4, 1, 300, 202)),
    },
}

ORACLE_ROWS = 5
SPREAD = 0.18  # std of the independent bell-shaped features (unit domain)
PAIR_NOISE = 0.03


# ---------------------------------------------------------------------------
# synthetic data


def planted_pairs(width: int) -> list[tuple[int, int]]:
    """Strongly dependent feature pairs: (1, 2), (7, 8), ... every six features."""
    return [(i, i + 1) for i in range(1, width - 1, 6)]


def regular_rows(rng, n: int, width: int) -> np.ndarray:
    """Unit-domain rows: bell-shaped independent features plus tied pairs."""
    data = np.clip(0.5 + SPREAD * rng.standard_normal((n, width)), 0.0, 1.0)
    for a, b in planted_pairs(width):
        latent = rng.uniform(0.0, 1.0, n)
        data[:, a] = np.clip(latent + PAIR_NOISE * rng.standard_normal(n), 0.0, 1.0)
        data[:, b] = np.clip(latent + PAIR_NOISE * rng.standard_normal(n), 0.0, 1.0)
    return data


def to_raw(unit: np.ndarray) -> np.ndarray:
    """Map unit-domain rows to raw units with a fixed per-width affine map."""
    rng = np.random.default_rng(1000 + unit.shape[1])
    scale = 10.0 ** rng.uniform(-1.0, 2.0, unit.shape[1])
    offset = rng.normal(0.0, 5.0, unit.shape[1])
    return offset + scale * unit


def write_csv(path: Path, raw: np.ndarray, labels=None) -> None:
    header = [f"f{j}" for j in range(raw.shape[1])]
    body = raw
    if labels is not None:
        header.append("label")
        body = np.column_stack([raw, labels])
    with open(path, "w") as handle:
        handle.write(",".join(header) + "\n")
        np.savetxt(handle, body, fmt="%.10g", delimiter=",")


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def scored_test_set(rng, scale: Scale) -> tuple[np.ndarray, np.ndarray]:
    """Held-out regular rows plus planted global, local and dependency anomalies."""
    width, n = scale.width, scale.anomalies_per_kind
    regular = regular_rows(rng, scale.scored_rows, width)
    global_ = rng.uniform(-0.05, 1.05, (n, width))
    local = regular_rows(rng, n, width)
    k = max(1, round(0.3 * width))
    for row in local:
        chosen = rng.choice(width, size=k, replace=False)
        row[chosen] += 3.0 * SPREAD * rng.standard_normal(k)
    dependency = regular_rows(rng, n, width)
    for j in range(width):
        dependency[:, j] = rng.permutation(dependency[:, j])
    rows = np.vstack([regular, global_, local, dependency])
    labels = np.r_[np.zeros(len(regular)), np.ones(3 * n)]
    return rows, labels


def protocol_set(rng, scale: Scale) -> tuple[np.ndarray, np.ndarray]:
    """Labeled set: regular rows plus native anomalies with a quarter of
    their features redrawn uniformly (breaking pairs and marginals)."""
    width = scale.width
    regular = regular_rows(rng, scale.train_rows, width)
    native = regular_rows(rng, scale.native_rows, width)
    k = max(1, round(0.25 * width))
    for row in native:
        row[rng.choice(width, size=k, replace=False)] = rng.uniform(0.0, 1.0, k)
    rows = np.vstack([regular, native])
    labels = np.r_[np.zeros(len(regular)), np.ones(len(native))]
    order = rng.permutation(len(rows))
    return rows[order], labels[order]


def planted_rows(fixture: Fixture, n_rows: int):
    """Rows to explain, fixed by the fixture recipe, with known perturbations.

    Each row moves one member of up to four tied pairs to the far end of
    the interval from its partner, and up to four independent features to
    an edge of the interval. Returns the perturbed and the original raw
    rows and, per row, the perturbed feature indices.
    """
    width = fixture.width
    rng = np.random.default_rng(fixture.seed + 1)
    base = regular_rows(rng, n_rows, width)
    rows = base.copy()
    pairs = planted_pairs(width)
    independent = [j for j in range(width) if all(j not in p for p in pairs)]
    perturbed = []
    for r in range(n_rows):
        chosen = []
        for i in range(min(4, len(pairs))):
            a, b = pairs[(r + i) % len(pairs)]
            target, partner = (a, b) if (r + i) % 2 == 0 else (b, a)
            rows[r, target] = 0.97 if base[r, partner] < 0.5 else 0.03
            chosen.append(target)
        for j in rng.choice(independent, size=min(4, len(independent)), replace=False):
            rows[r, j] = 0.98 if base[r, j] < 0.5 else 0.02
            chosen.append(int(j))
        perturbed.append(sorted(chosen))
    return to_raw(rows), to_raw(base), perturbed


# ---------------------------------------------------------------------------
# running the CLI


class CallFailed(Exception):
    """A CLI call raised or returned a non-zero exit code."""


class Session:
    """Runs CLI calls in-process and counts what was attempted and failed.

    The program's own console output is captured, not echoed, so the
    benchmark's last output line stays the result. With a tracer, each
    call is one request: a root span around the whole invocation.
    """

    def __init__(self, cli_main, tracer=None):
        self.cli_main = cli_main
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def __call__(self, *args) -> float:
        args = [str(a) for a in args]
        self.attempted += 1
        span = self.tracer.request(args[0]) if self.tracer else contextlib.nullcontext()
        captured = io.StringIO()
        started = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(captured):
                code = self.cli_main(args, standalone_mode=False)
        except Exception as exc:  # any failure of the program is a result to report
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        if code not in (None, 0):
            self.failed += 1
            raise CallFailed(f"tnad {args[0]}: {code}")
        return elapsed


@dataclass
class Iteration:
    """Timings, quality figures and check results of one timed sequence."""

    times: dict = field(default_factory=dict)
    explain_times: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# checks


def check_fixture(path) -> oracle.ModelFile:
    """Load a frozen model with the oracle's reader and with the program's.

    ``load_model`` does not check what it reads, so both copies must hold
    finite tensors and pass their own isometry check. Attributes a later
    refactor may rename (``cores``/``tensors``, ``isometry_defect``) are
    looked up leniently; the oracle's checks always run. Every failure is
    raised as ``oracle.OracleError``.
    """
    from tnad.persist import load_model

    reference = oracle.check_model(path)
    try:
        model = load_model(path)
    except Exception as exc:  # the oracle read it, so the program must too
        raise oracle.OracleError(f"{path}: the program cannot load it: {exc}") from exc
    tensors = getattr(model, "cores", None) or getattr(model, "tensors", None) or []
    if not all(np.isfinite(t).all() for t in tensors):
        raise oracle.OracleError(f"{path}: the program loads non-finite tensor entries")
    if hasattr(model, "isometry_defect"):
        defect = model.isometry_defect()
        if not defect <= oracle.ISOMETRY_TOLERANCE:
            raise oracle.OracleError(f"{path}: program isometry defect {defect:.2e}")
    return reference


def check_scores(model_path, data_path, scores_path, problems):
    """Compare a handful of scores of a labeled CSV with per-row oracle contractions."""
    model = oracle.check_model(model_path)
    data = read_csv(data_path)
    scores = read_csv(scores_path)
    if scores.shape[0] != data.shape[0]:
        problems.append(f"{scores_path}: {scores.shape[0]} scores for {data.shape[0]} rows")
        return scores
    for i in np.linspace(0, len(data) - 1, ORACLE_ROWS).astype(int):
        expected = oracle.row_nll(model, data[i, : model.n_features])
        if not abs(scores[i, 1] - expected) <= 1e-7 * max(1.0, abs(expected)):
            problems.append(f"row {i}: score {scores[i, 1]!r} but oracle gives {expected!r}")
    return scores


def check_mi(path, upper: float, problems) -> np.ndarray:
    matrix = np.loadtxt(path, delimiter=",", ndmin=2)
    if matrix.shape[0] != matrix.shape[1] or not np.array_equal(matrix, matrix.T):
        problems.append(f"{path}: MI matrix is not symmetric")
    if np.any(np.diag(matrix) != 0.0):
        problems.append(f"{path}: MI matrix has a non-zero diagonal")
    if not (np.all(np.isfinite(matrix)) and matrix.min() >= -1e-9 and matrix.max() <= upper):
        problems.append(f"{path}: MI entries outside [-1e-9, {upper:.4f}]")
    return matrix


def mi_recall(matrix: np.ndarray, pairs) -> float:
    """Share of the planted pairs among the ``len(pairs)`` largest MI entries."""
    rows, cols = np.triu_indices(matrix.shape[0], 1)
    top = np.argsort(-matrix[rows, cols], kind="stable")[: len(pairs)]
    found = {(int(rows[k]), int(cols[k])) for k in top}
    return len(found & set(pairs)) / len(pairs)


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUCROC with ties counted one half."""
    anomalous, regular = scores[labels == 1], scores[labels == 0]
    wins = (anomalous[:, None] > regular[None, :]).sum()
    ties = (anomalous[:, None] == regular[None, :]).sum()
    return float((wins + 0.5 * ties) / (len(anomalous) * len(regular)))


def check_explanations(paths, model: oracle.ModelFile, original, perturbed, result: Iteration):
    """Explanation sanity plus flag recall and conditional error on planted rows."""
    span = model.maximum - model.minimum
    planted = flagged = 0
    errors = []
    for r, path in enumerate(paths):
        features = json.loads(Path(path).read_text())["features"]
        for f in features:
            j = f["index"]
            if not (math.isfinite(f["mean"]) and math.isfinite(f["std"]) and f["std"] >= 0.0):
                result.problems.append(f"{path}: feature {j} mean {f['mean']}, std {f['std']}")
            if f["flagged"]:
                result.attempted += 1
                expected = f["conditional_expected"]
                if expected is None:
                    result.failed += 1
                    continue
                slack = 1e-9 * span[j]
                if not model.minimum[j] - slack <= expected <= model.maximum[j] + slack:
                    result.problems.append(
                        f"{path}: conditional expectation {expected} of feature {j} "
                        f"outside the fitted range")
                if j in perturbed[r]:
                    errors.append(abs(expected - original[r, j]) / span[j])
        marked = {f["index"] for f in features if f["flagged"]}
        planted += len(perturbed[r])
        flagged += len(marked & set(perturbed[r]))
    result.quality["flag_recall"] = flagged / planted
    result.quality["cond_abs_err"] = float(np.mean(errors)) if errors else float("nan")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One workload: set up inputs once per seed, then time iterations."""

    def __init__(self, name: str, scale: Scale, work: Path, fixture_dir: Path = FIXTURE_DIR):
        self.name = name
        self.scale = scale
        self.work = work
        self.fixture_path = fixture_dir / scale.fixture.file
        self.seed = 0

    def setup(self, seed: int) -> None:
        """Write every input file for ``seed`` and verify the frozen fixture.

        Raises ``oracle.OracleError`` if the fixture fails its checks.
        """
        self.seed = seed
        self.work.mkdir(parents=True, exist_ok=True)
        s = self.scale
        rng = np.random.default_rng(seed)
        if self.name == "mps":
            write_csv(self.work / "train.csv", to_raw(regular_rows(rng, s.train_rows, s.width)))
        else:
            rows, labels = protocol_set(rng, s)
            write_csv(self.work / "labeled.csv", to_raw(rows), labels)
        rows, labels = scored_test_set(rng, s)
        write_csv(self.work / "test.csv", to_raw(rows), labels)
        config = {"phys_dim": s.phys_dim, "init_bond": 2,
                  "train": {"max_bond": s.max_bond, "sweeps": s.sweeps}}
        (self.work / "config.json").write_text(json.dumps(config))
        raw, self.original, self.perturbed = planted_rows(s.fixture, s.explain_rows)
        write_csv(self.work / "planted.csv", raw)
        self.fixture = check_fixture(self.fixture_path)

    def iterate(self, call: Session) -> Iteration:
        """Run the timed call sequence once, then check its outputs."""
        result = Iteration()
        w, s = self.work, self.scale
        started = time.perf_counter()
        try:
            if self.name == "mps":
                model = w / "model.tnad"
                result.times["train_s"] = call(
                    "train", "--data", w / "train.csv", "--model", "mps",
                    "--config", w / "config.json", "--seed", self.seed, "--out", model)
            else:
                model = w / "protocol" / "fold0_ttn.tnad"
                result.times["train_s"] = call(
                    "benchmark", "--data", w / "labeled.csv", "--label-column", "label",
                    "--anomaly-label", "1", "--model", "ttn", "--config", w / "config.json",
                    "--seed", self.seed, "--max-folds", 1, "--out", w / "protocol")
            score_s = call("score", "--model-file", model, "--data", w / "test.csv",
                           "--label-column", "label", "--anomaly-label", "1",
                           "--out", w / "scores.csv")
            explanations = []
            for r in range(s.explain_rows):
                explanations.append(w / f"explain{r}.json")
                result.explain_times.append(call(
                    "explain", "--model-file", self.fixture_path, "--data", w / "planted.csv",
                    "--sample", r, "--out", explanations[-1]))
            result.times["mi_s"] = call("mi", "--from", "model", "--model-file",
                                        self.fixture_path, "--out", w / "mi_model.csv")
            if self.name == "mps":
                call("mi", "--from", "data", "--data", w / "train.csv", "--out", w / "mi_data.csv")
        except CallFailed as exc:
            result.problems.append(str(exc))
            return result
        finally:
            result.attempted += call.attempted
            result.failed += call.failed
        result.times["wall_s"] = time.perf_counter() - started
        try:
            self.check(result, model, score_s, explanations)
        except oracle.OracleError as exc:
            result.problems.append(str(exc))
        return result

    def check(self, result: Iteration, model: Path, score_s: float, explanations) -> None:
        """Check the outputs of one sequence and record its quality figures."""
        w, s = self.work, self.scale
        scores = check_scores(model, w / "test.csv", w / "scores.csv", result.problems)
        result.times["score_rows_per_s"] = len(scores) / score_s
        if self.name == "mps":
            report = json.loads((w / "model.tnad.report.json").read_text())
            result.quality["neg_final_nll"] = -report["nll_trace"][-1]
            result.attempted += 2 * (s.width - 1) * s.sweeps
            result.failed += len(report["step_errors"])
            result.quality["auc_roc"] = auc(scores[:, 1], scores[:, 2])
            check_mi(w / "mi_data.csv", math.log(s.train_rows), result.problems)
        else:
            # the protocol reports no training NLL: use the held-out regular rows
            protocol = json.loads((w / "protocol" / "benchmark_ttn.json").read_text())
            result.quality["auc_roc"] = protocol["separation_auc"][0]
            regular = scores[:, 2] == 0
            result.quality["neg_final_nll"] = -float(scores[regular, 1].mean())
        fixture = self.fixture
        matrix = check_mi(w / "mi_model.csv", 2 * math.log(fixture.phys_dim), result.problems)
        result.quality["mi_recall"] = mi_recall(matrix, planted_pairs(fixture.n_features))
        check_explanations(explanations, fixture, self.original, self.perturbed, result)


def make_workload(name: str, scale: str, work: Path, fixture_dir: Path = FIXTURE_DIR):
    return Workload(name, SCALES[scale][name], work, fixture_dir)
