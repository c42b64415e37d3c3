"""Per-layer tracing of the program from outside it.

While a :class:`Tracer` is installed, each public function named in
``TARGETS`` is replaced by a wrapper that records a span (name, start,
end, parent, request id) and the counts measured at the same boundary.
A function is replaced everywhere it can be looked up: in every loaded
``tnad`` module that holds it by name (``fit`` lives in
``tnad.training`` but ``tnad.cli`` and ``tnad.benchmark`` import it), and
methods are patched on their class. A target whose module, class or
function no longer exists, or whose counts can no longer be read from
its arguments or result, is listed in ``absent`` and its metrics read 0,
so a refactor that deletes or moves a function does not break the
traced run.

Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# metric prefix, home module, attribute path, counter hook
TARGETS = [
    ("data.load_csv", "tnad.data", "load_csv", "rows_out"),
    ("data.build_pollution", "tnad.data", "build_pollution", None),
    ("data.stratified_folds", "tnad.data", "stratified_folds", None),
    ("encoding.fit_rescaler", "tnad.encoding", "fit_rescaler", None),
    ("encoding.encode_batch", "tnad.encoding", "LegendreFeatureMap.encode_batch", "encode"),
    ("mps.log_amplitudes", "tnad.mps", "MpsModel.log_amplitudes", "amplitudes"),
    ("mps.environment_cache", "tnad.mps", "MpsModel.environment_cache", None),
    ("mps.env_push", "tnad.mps", "MpsEnvironments.push", "push"),
    ("mps.env_factors", "tnad.mps", "MpsEnvironments.factors", None),
    ("mps.merge_edge", "tnad.mps", "MpsModel.merge_edge", None),
    ("mps.split_edge", "tnad.mps", "MpsModel.split_edge", None),
    ("mps.canonicalize", "tnad.mps", "MpsModel.canonicalize", None),
    ("ttn.log_amplitudes", "tnad.ttn", "TtnModel.log_amplitudes", "amplitudes"),
    ("ttn.environment_cache", "tnad.ttn", "TtnModel.environment_cache", None),
    ("ttn.env_push", "tnad.ttn", "TtnEnvironments.push", "push"),
    ("ttn.env_factors", "tnad.ttn", "TtnEnvironments.factors", None),
    ("ttn.merge_edge", "tnad.ttn", "TtnModel.merge_edge", None),
    ("ttn.split_edge", "tnad.ttn", "TtnModel.split_edge", None),
    ("ttn.canonicalize", "tnad.ttn", "TtnModel.canonicalize", None),
    ("tensors.truncated_svd", "tnad.tensors", "truncated_svd", "svd"),
    ("training.fit", "tnad.training", "fit", "fit"),
    ("training.two_site_step", "tnad.training", "two_site_step", "step"),
    ("training.nll_loss", "tnad.training", "nll_loss", None),
    ("explain.explain_sample", "tnad.explain", "explain_sample", "explanation"),
    ("explain.flag_features", "tnad.explain", "flag_features", None),
    ("explain.marginal_moments", "tnad.explain", "marginal_moments", None),
    ("explain.conditional_rdm", "tnad.explain", "conditional_rdm", None),
    ("explain.all_to_all_mi", "tnad.explain", "all_to_all_mi", None),
    ("explain.von_neumann_entropy", "tnad.explain", "von_neumann_entropy", None),
    ("metrics.score_samples", "tnad.metrics", "score_samples", "rows_in"),
    ("metrics.histogram_mi", "tnad.metrics", "histogram_mi", None),
    ("metrics.auc_roc", "tnad.metrics", "auc_roc", None),
    ("metrics.eer_threshold", "tnad.metrics", "eer_threshold", None),
    ("persist.save_model", "tnad.persist", "save_model", "file_bytes"),
    ("persist.load_model", "tnad.persist", "load_model", None),
    ("benchmark.benchmark_arrays", "tnad.benchmark", "benchmark_arrays", None),
]


@dataclass
class Span:
    id: int
    name: str
    request: int
    parent: int | None
    start: float
    end: float = 0.0
    failed: bool = False


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that child spans cover."""
    covered, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (span.end - span.start) - covered


def _tensors(model):
    return model.cores if hasattr(model, "cores") else model.tensors


def _flop(batch: int, tensor) -> float:
    # multiply-adds of contracting one tensor with a vector on every leg
    # but one, for each row of the batch; computed from shapes, not timed
    return 2.0 * batch * tensor.size


class Tracer:
    """Installs span-recording wrappers; collects spans and counts."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._stack: list[Span] = []
        self._request = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self._request, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, failed: bool = False) -> None:
        span.end = time.perf_counter()
        span.failed = failed
        self._stack.pop()

    @contextlib.contextmanager
    def request(self, command: str):
        """Root span ``cli`` of one CLI invocation, under a fresh request id.

        Its duration is also counted per command, as ``cli.<command>.s``.
        """
        self._request += 1
        span = self.open("cli")
        try:
            yield span
        except BaseException:
            self.close(span, failed=True)
            raise
        self.close(span)
        self.counts[f"cli.{command}.s"] += span.end - span.start
        self.counts[f"cli.{command}.calls"] += 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for prefix, module_name, path, hook in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner_path, _, attr = path.rpartition(".")
                owner = module
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.add(prefix)
                continue
            wrapper = self._wrap(prefix, original, hook)
            if owner is module:
                for name, loaded in list(sys.modules.items()):
                    if name.split(".")[0] != "tnad" or loaded is None:
                        continue
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, key, wrapper)
            else:
                self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:  # the wrapper shadowed an inherited method
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, prefix, original, hook):
        tracer = self
        count = self.counts
        before = _BEFORE.get(hook)
        after = _AFTER.get(hook)

        def run_hook(function, *hook_args):
            try:
                function(count, prefix, *hook_args)
            except (AttributeError, IndexError, KeyError, TypeError):
                tracer.absent.add(prefix)

        def wrapper(*args, **kwargs):
            if before is not None:
                run_hook(before, args)
            span = tracer.open(prefix)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.close(span, failed=True)
                count[prefix + ".failed"] += 1
                raise
            tracer.close(span)
            if after is not None:
                run_hook(after, args, result)
            return result

        return functools.wraps(original)(wrapper)

    # -- results -----------------------------------------------------------

    def layer_stats(self) -> dict[str, float]:
        """Inclusive and self seconds and call counts per span name, plus counts."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        stats: dict[str, float] = defaultdict(float)
        for span in self.spans:
            stats[span.name + ".s"] += span.end - span.start
            stats[span.name + ".self_s"] += self_time(span, children[span.id])
            stats[span.name + ".calls"] += 1
        for key, value in self.counts.items():
            stats[key] += value
        return stats

    def write(self, path) -> None:
        payload = {"absent": sorted(self.absent), "spans": [vars(s) for s in self.spans]}
        with open(path, "w") as handle:
            json.dump(payload, handle)


# -- counter hooks: (counts, prefix, args[, result]) -----------------------


def _before_encode(count, prefix, args):
    rescaler, raw = args[0].rescaler, np.asarray(args[1], dtype=np.float64)
    scaled = (raw - rescaler.minimum) / (rescaler.maximum - rescaler.minimum)
    count[prefix + ".rows"] += raw.shape[0]
    count["encoding.values"] += scaled.size
    count["encoding.clamped"] += int(np.count_nonzero((scaled < 0.0) | (scaled > 1.0)))


def _before_amplitudes(count, prefix, args):
    model, rows = args[0], np.shape(args[1])[0]
    count[prefix + ".rows"] += rows
    count[prefix + ".gflop"] += sum(_flop(rows, t) for t in _tensors(model)) / 1e9


def _before_push(count, prefix, args):
    env, src = args[0], args[1]
    count[prefix + ".gflop"] += _flop(env.n_samples, _tensors(env.model)[src]) / 1e9


def _before_rows_in(count, prefix, args):
    count[prefix + ".rows"] += np.shape(args[1])[0]


def _after_rows_out(count, prefix, args, result):
    count[prefix + ".rows"] += result[0].shape[0]


def _after_svd(count, prefix, args, result):
    count[prefix + ".kept_rank"] += result.rank
    count[prefix + ".truncated"] += result.discarded_weight > 0.0
    count[prefix + ".discarded_weight"] += result.discarded_weight


def _after_fit(count, prefix, args, result):
    model = args[0]
    layer = type(model).__module__.rpartition(".")[2]
    bonds = model.bond_profile()
    if bonds:
        count[layer + ".bond_max"] = max(count[layer + ".bond_max"], max(bonds))
        count[layer + ".bond_sum"] += sum(bonds)
        count[layer + ".bond_count"] += len(bonds)


def _after_step(count, prefix, args, result):
    count[prefix + ".aborted"] += result.error is not None
    count[prefix + ".improved"] += result.loss_after < result.loss_before
    count[prefix + ".skipped_samples"] += result.skipped_samples


def _after_explanation(count, prefix, args, result):
    count["explain.flagged"] += sum(1 for f in result.features if f.flagged)


def _after_file_bytes(count, prefix, args, result):
    count[prefix + ".bytes"] += os.path.getsize(args[0])


_BEFORE = {"encode": _before_encode, "amplitudes": _before_amplitudes,
           "push": _before_push, "rows_in": _before_rows_in}
_AFTER = {"rows_out": _after_rows_out, "svd": _after_svd, "fit": _after_fit,
          "step": _after_step, "explanation": _after_explanation,
          "file_bytes": _after_file_bytes}


# derived metrics and the target whose boundary their counts come from
_SOURCES = {
    "encoding.clamped_frac": "encoding.encode_batch",
    "explain.flagged_per_sample": "explain.explain_sample",
    "mps.bond_max": "training.fit",
    "mps.bond_mean": "training.fit",
    "ttn.bond_max": "training.fit",
    "ttn.bond_mean": "training.fit",
}


def source(metric: str) -> str:
    """Target prefix (``TARGETS``) that a per-layer metric is measured at."""
    return _SOURCES.get(metric, metric.rsplit(".", 1)[0])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(stats: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric by name, derived from raw span stats and counts."""
    derived = dict(stats)
    derived["encoding.clamped_frac"] = _ratio(stats.get("encoding.clamped", 0.0),
                                              stats.get("encoding.values", 0.0))
    svd = "tensors.truncated_svd"
    calls = stats.get(svd + ".calls", 0.0)
    derived[svd + ".truncated_frac"] = _ratio(stats.get(svd + ".truncated", 0.0), calls)
    derived[svd + ".kept_rank_mean"] = _ratio(stats.get(svd + ".kept_rank", 0.0), calls)
    for layer in ("mps", "ttn"):
        derived[layer + ".bond_mean"] = _ratio(stats.get(layer + ".bond_sum", 0.0),
                                               stats.get(layer + ".bond_count", 0.0))
    step = "training.two_site_step"
    derived[step + ".improved_frac"] = _ratio(stats.get(step + ".improved", 0.0),
                                              stats.get(step + ".calls", 0.0))
    derived["explain.flagged_per_sample"] = _ratio(stats.get("explain.flagged", 0.0),
                                                   stats.get("explain.explain_sample.calls", 0.0))
    return derived
