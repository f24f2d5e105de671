"""End-to-end experiment runner behind the CLI.

Loads and preprocesses the labeled CSV once (load -> dedup -> stratified
split -> two-stage scaling), then for each requested mode builds one training
set (raw as-is, oversample via random duplication, gan via generator-sampled
rows) and trains every requested classifier on it.  All evaluation happens on
the single untouched test split.  Outputs land in the chosen directory:
metrics.csv, one ROC file per (mode, model), the GAN training log when the
gan mode ran, plus optional augmented-set dumps and model files.

Determinism: one master seed fans out to independent per-stage seeds via
sha256, so two runs with the same config produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ganbalance import augment, classifiers, data, gan, metrics
from ganbalance.classifiers import TrainConfig
from ganbalance.data import SplitSpec
from ganbalance.errors import GanBalanceError, PreconditionError, RunFailureError
from ganbalance.gan import GanTrainConfig

MODES = ("raw", "oversample", "gan")
MODELS = ("svm", "dt", "logreg", "mlp")

_TRAINERS = {
    "svm": classifiers.train_svm,
    "dt": classifiers.train_tree,
    "logreg": classifiers.train_logreg,
    "mlp": classifiers.train_mlp,
}


@dataclass
class ExperimentConfig:
    data_path: str
    out_dir: str
    seed: int = 0
    modes: tuple = MODES
    models: tuple = MODELS
    split: SplitSpec = field(default_factory=SplitSpec)
    gan: GanTrainConfig = field(default_factory=GanTrainConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    mlp_epochs: int | None = None
    dump_augmented: bool = False
    save_models: bool = False
    label_column: str = "Class"

    def __post_init__(self):
        bad_modes = set(self.modes) - set(MODES)
        bad_models = set(self.models) - set(MODELS)
        if not self.modes or bad_modes:
            raise ValueError(f"modes must be a non-empty subset of {MODES}")
        if not self.models or bad_models:
            raise ValueError(f"models must be a non-empty subset of {MODELS}")


@dataclass
class RunResult:
    mode: str
    model: str
    report: metrics.MetricsReport | None
    seconds: float
    roc: metrics.RocCurve | None = None
    error: str | None = None


def derive_seed(master: int, stage: str) -> int:
    """Independent per-stage sub-seed: first 8 bytes of sha256(master:stage)."""
    digest = hashlib.sha256(f"{master}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _check_writable(out_dir: Path) -> None:
    probe = out_dir / ".write_probe"
    try:
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise OSError(f"output directory {out_dir} is not writable: {exc}") from exc


def _load_split_scale(config: ExperimentConfig):
    table = data.dedup(data.load_csv(config.data_path, config.label_column))
    split_rng = np.random.default_rng(derive_seed(config.seed, "split"))
    train_raw, test_raw = data.stratified_split(table, config.split, split_rng)
    train_scaled, test_scaled, _, _ = data.scale_train_test(train_raw, test_raw)
    return train_scaled, test_scaled


def _train_one(mode, model_name, train_set, test_set, config, out_dir):
    started = time.perf_counter()
    train_cfg = dataclasses.replace(
        config.train, seed=derive_seed(config.seed, f"classifier:{mode}:{model_name}")
    )
    if model_name == "mlp" and config.mlp_epochs is not None:
        train_cfg = dataclasses.replace(train_cfg, epochs=config.mlp_epochs)
    try:
        model = _TRAINERS[model_name](train_set, train_cfg)
        scores = classifiers.predict_score(model, test_set.features)
        predicted = (scores > 0.5).astype(np.int64)
        cm = metrics.confusion(test_set.labels, predicted)
        curve, auc = metrics.roc_auc(test_set.labels, scores)
        report = metrics.compute_metrics(cm, auc)
    except GanBalanceError as exc:
        return RunResult(
            mode,
            model_name,
            None,
            time.perf_counter() - started,
            error=f"{type(exc).__name__}: {exc}",
        )
    if config.save_models:
        path = out_dir / f"model_{mode}_{model_name}.json"
        path.write_text(json.dumps(classifiers.serialize_model(model), indent=2) + "\n")
    return RunResult(mode, model_name, report, time.perf_counter() - started, roc=curve)


def run(config: ExperimentConfig) -> list:
    """Execute every requested (mode, model) pair and write all outputs.

    Per-pair failures do not abort the rest: the failed rows carry an error
    marker in metrics.csv and a RunFailureError is raised after everything
    has been written.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _check_writable(out_dir)
    train_scaled, test_scaled = _load_split_scale(config)

    modes = [m for m in MODES if m in config.modes]
    models = [m for m in MODELS if m in config.models]
    augmented_modes = [m for m in modes if m != "raw"]

    results = []
    gan_log = None
    for mode in modes:
        try:
            if mode == "raw":
                train_set = train_scaled
                augmented = None
            elif mode == "oversample":
                rng = np.random.default_rng(derive_seed(config.seed, "oversample"))
                augmented = augment.random_oversample(train_scaled, rng)
                train_set = augmented.as_dataset()
            else:
                positives = augment.isolate_positives(train_scaled)
                gan_cfg = dataclasses.replace(
                    config.gan, seed=derive_seed(config.seed, "gan-train")
                )
                generator, gan_log = gan.train_gan(positives, gan_cfg)
                rng = np.random.default_rng(derive_seed(config.seed, "gan-generate"))
                augmented = augment.gan_augment(
                    train_scaled, generator, rng, config.gan.noise_distribution
                )
                train_set = augmented.as_dataset()
        except GanBalanceError as exc:
            tag = f"{type(exc).__name__}: {exc}"
            results.extend(
                RunResult(mode, name, None, 0.0, error=tag) for name in models
            )
            continue

        if config.dump_augmented and augmented is not None:
            suffix = "" if len(augmented_modes) == 1 else f"_{mode}"
            _write_augmented_csv(augmented, out_dir / f"train_augmented{suffix}.csv")

        for model_name in models:
            results.append(
                _train_one(mode, model_name, train_set, test_scaled, config, out_dir)
            )

    emit_outputs(results, out_dir)
    if gan_log is not None:
        gan.write_log_csv(gan_log, out_dir / "gan_training_log.csv")

    failures = [r for r in results if r.error is not None]
    if failures:
        detail = "; ".join(f"{r.mode}/{r.model}: {r.error}" for r in failures)
        raise RunFailureError(f"{len(failures)} of {len(results)} runs failed: {detail}")
    return results


def run_synth(config: ExperimentConfig, n_samples: int):
    """Train the GAN on the split's positives and dump n generated rows."""
    if n_samples < 1:
        raise PreconditionError("need n >= 1 samples")
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _check_writable(out_dir)
    train_scaled, _ = _load_split_scale(config)
    positives = augment.isolate_positives(train_scaled)
    gan_cfg = dataclasses.replace(config.gan, seed=derive_seed(config.seed, "gan-train"))
    generator, log = gan.train_gan(positives, gan_cfg)
    rng = np.random.default_rng(derive_seed(config.seed, "gan-generate"))
    samples = gan.generate(generator, n_samples, rng, config.gan.noise_distribution)
    gan.write_samples_csv(samples, out_dir / "generated_samples.csv")
    gan.write_log_csv(log, out_dir / "gan_training_log.csv")
    return samples, log


def emit_outputs(results: list, out_dir) -> None:
    """Write metrics.csv plus one roc_<mode>_<model>.csv per scored result.

    When every run succeeded the metrics header is exactly
    mode,model,accuracy_pct,recall,precision,f1,specificity,auc_roc; if any
    run failed, a trailing status column marks which rows are unusable.
    """
    if not results:
        raise PreconditionError("no results to emit")
    out_dir = Path(out_dir)
    any_failed = any(r.error is not None for r in results)
    header = ["mode", "model", "accuracy_pct", "recall", "precision", "f1",
              "specificity", "auc_roc"]
    if any_failed:
        header.append("status")
    with open(out_dir / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in results:
            if r.report is None:
                row = [r.mode, r.model, "", "", "", "", "", ""]
                if any_failed:
                    row.append(f"error: {r.error}")
            else:
                rep = r.report
                row = [
                    r.mode,
                    r.model,
                    f"{rep.accuracy * 100.0:.2f}",
                    f"{rep.recall:.6f}",
                    f"{rep.precision:.6f}",
                    f"{rep.f1:.6f}",
                    f"{rep.specificity:.6f}",
                    f"{rep.auc_roc:.6f}",
                ]
                if any_failed:
                    row.append("ok")
            writer.writerow(row)
    for r in results:
        if r.roc is not None:
            _write_roc_csv(r.roc, out_dir / f"roc_{r.mode}_{r.model}.csv")


def _write_roc_csv(curve: metrics.RocCurve, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("fpr,tpr\n")
        for fpr, tpr in curve.points:
            fh.write(f"{fpr:.9f},{tpr:.9f}\n")


def _write_augmented_csv(augmented, path) -> None:
    d = augmented.features.shape[1]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"f{i}" for i in range(d)) + ",label,provenance\n")
        for row, label, tag in zip(
            augmented.features, augmented.labels, augmented.provenance
        ):
            cells = ",".join(f"{v:.9f}" for v in row)
            fh.write(f"{cells},{label},{tag}\n")
