"""Command-line surface.

Subcommands: ``train``, ``score``, ``explain``, ``mi``, ``benchmark``.
Exit codes: 0 on success, 2 on data/usage errors, 3 on numerical
integrity errors.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from .benchmark import RunConfig, run_benchmark, save_trained, train_model
from .data import DatasetSpec, load_csv
from .errors import NumericalError, TnadError
from .explain import all_to_all_mi, explain_sample
from .metrics import histogram_mi_matrix, mi_display, score_samples
from .persist import load_model
# unused here: perfbench/test_perfbench.py checks that its tracer wraps `fit`
# in every module holding the name, and looks it up in this one
from .training import fit  # noqa: F401


def _load_config(path, seed) -> RunConfig:
    config = RunConfig.from_json(path) if path else RunConfig()
    if seed is not None:
        config = replace(config, train=replace(config.train, seed=seed))
    return config


def _dataset_spec(data, label_column, anomaly_labels) -> DatasetSpec:
    return DatasetSpec(
        path=data,
        label_column=label_column,
        anomaly_labels=tuple(anomaly_labels),
    )


def _write_scores(path, scores, labels) -> None:
    """The scores CSV: ``sample_id,nll[,label]`` lines ending in ``\\r\\n``, each
    NLL to 10 significant digits (``inf`` where an amplitude vanishes), formatted
    in one block; these are the bytes ``csv.writer`` gives the same rows."""
    header, line, columns = "sample_id,nll", "%d,%.10g", [range(len(scores)), scores.tolist()]
    if labels is not None:
        header, line = header + ",label", line + ",%d"
        columns.append(labels.tolist())
    with open(path, "w", newline="") as handle:
        handle.write("\r\n".join([header, *(line % row for row in zip(*columns))]) + "\r\n")


@click.group()
def cli():
    """Tensor-network anomaly detection."""


@cli.command()
@click.option("--data", required=True, type=click.Path(exists=True), help="Training CSV.")
@click.option("--model", "model_kind", type=click.Choice(["mps", "ttn"]), default="mps",
              show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True),
              help="JSON run configuration.")
@click.option("--seed", type=int, default=None, help="Override the training seed.")
@click.option("--label-column", default=None,
              help="Column to drop before training (training is unsupervised).")
@click.option("--out", required=True, type=click.Path(), help="Model file to write.")
def train(data, model_kind, config_path, seed, label_column, out):
    """Train a model on a CSV of raw features (unlabeled)."""
    config = _load_config(config_path, seed)
    features, _ = load_csv(_dataset_spec(data, label_column, ()))
    model, report = train_model(model_kind, features, config, config.train.seed)
    report_path = save_trained(out, model, report)
    click.echo(f"model written to {out}")
    click.echo(f"training report written to {report_path}")
    if report.nll_trace:
        click.echo(f"final NLL: {report.nll_trace[-1]:.6f}")


@cli.command()
@click.option("--model-file", required=True, type=click.Path(exists=True))
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--label-column", default=None, help="Optional truth column echoed to the output.")
@click.option("--anomaly-label", "anomaly_labels", multiple=True,
              help="Label value counting as anomalous (repeatable).")
@click.option("--out", required=True, type=click.Path(), help="Scores CSV to write.")
def score(model_file, data, label_column, anomaly_labels, out):
    """Score samples; higher NLL means more anomalous."""
    model = load_model(model_file)
    features, labels = load_csv(_dataset_spec(data, label_column, anomaly_labels))
    scores = score_samples(model, features)
    _write_scores(out, scores, labels)
    click.echo(f"scores for {len(scores)} samples written to {out}")


@cli.command()
@click.option("--model-file", required=True, type=click.Path(exists=True))
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--sample", "sample_id", type=int, default=0, show_default=True,
              help="Row index of the sample to explain.")
@click.option("--k-sigma", type=float, default=1.0, show_default=True,
              help="Flag features deviating more than this many expected std.")
@click.option("--label-column", default=None, help="Column to drop from the features.")
@click.option("--no-conditionals", is_flag=True, help="Skip conditional expected values.")
@click.option("--out", required=True, type=click.Path(), help="Explanation JSON to write.")
def explain(model_file, data, sample_id, k_sigma, label_column, no_conditionals, out):
    """Explain one sample: flags and conditional expected values."""
    model = load_model(model_file)
    features, _ = load_csv(_dataset_spec(data, label_column, ()))
    if not 0 <= sample_id < len(features):
        raise click.ClickException(f"sample {sample_id} out of range (0..{len(features) - 1})")
    explanation = explain_sample(
        model, features[sample_id], k_sigma=k_sigma, sample_id=sample_id,
        with_conditionals=not no_conditionals,
    )
    Path(out).write_text(json.dumps(explanation.to_dict(), indent=2, allow_nan=False))
    flagged = explanation.flagged_indices()
    click.echo(f"sample {sample_id}: NLL {explanation.nll:.4f}, "
               f"{len(flagged)} flagged feature(s) -> {out}")


@cli.command()
@click.option("--from", "source", type=click.Choice(["model", "data"]), required=True,
              help="Model-side MI or histogram estimate from raw data.")
@click.option("--model-file", type=click.Path(exists=True), default=None)
@click.option("--data", type=click.Path(exists=True), default=None)
@click.option("--label-column", default=None, help="Column to drop from the features.")
@click.option("--display", is_flag=True,
              help="Write the [0, 1]-rescaled display matrix instead of raw values.")
@click.option("--out", required=True, type=click.Path(), help="Matrix CSV to write.")
def mi(source, model_file, data, label_column, display, out):
    """All-to-all feature mutual information matrix."""
    if source == "model":
        if model_file is None:
            raise click.ClickException("--from model needs --model-file")
        matrix = all_to_all_mi(load_model(model_file)).raw
    else:
        if data is None:
            raise click.ClickException("--from data needs --data")
        features, _ = load_csv(_dataset_spec(data, label_column, ()))
        matrix = histogram_mi_matrix(features)
    if display:
        matrix = mi_display(matrix)
    np.savetxt(out, matrix, delimiter=",", fmt="%.10g")
    click.echo(f"{matrix.shape[0]}x{matrix.shape[1]} MI matrix written to {out}")


@cli.command()
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--label-column", required=True, help="Truth column naming native anomalies.")
@click.option("--anomaly-label", "anomaly_labels", multiple=True, required=True,
              help="Label value counting as anomalous (repeatable).")
@click.option("--model", "model_kind", type=click.Choice(["mps", "ttn"]), default="mps",
              show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--seed", type=int, default=None, help="Master seed for pollution/folds/training.")
@click.option("--max-folds", type=int, default=None,
              help="Train only the first folds (desk-scale mode).")
@click.option("--out", required=True, type=click.Path(), help="Output directory.")
def benchmark(data, label_column, anomaly_labels, model_kind, config_path, seed, max_folds, out):
    """Pollute, fold, train, and report separation/inductive AUCROC."""
    config = _load_config(config_path, None)
    spec = _dataset_spec(data, label_column, anomaly_labels)
    result = run_benchmark(spec, model_kind, config, out_dir=out,
                           max_folds=max_folds, seed=seed)
    out_path = Path(out) / f"benchmark_{model_kind}.json"
    out_path.write_text(json.dumps(result.to_dict(), indent=2, allow_nan=False))
    click.echo(f"separation AUCROC {result.separation_mean:.4f} +- {result.separation_std:.4f}")
    click.echo(f"inductive  AUCROC {result.inductive_mean:.4f} +- {result.inductive_std:.4f}")
    click.echo(f"details written to {out_path}")


def main():
    try:
        cli(standalone_mode=False)
    except click.exceptions.Abort:
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(2)
    except NumericalError as exc:
        click.echo(f"numerical error: {exc}", err=True)
        sys.exit(3)
    except TnadError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        sys.exit(2)
    sys.exit(0)


if __name__ == "__main__":
    main()
