"""End-to-end experiment runner behind the CLI.

``run`` works in four phases.  Prepare: load, dedup, stratified split and
two-stage scaling, once.  Balance: build each requested mode's training set
(raw as-is, oversample by random duplication, gan from generator samples),
training the GAN once and writing any augmented-set dump, so every set and
every dump exists before the first fit.  Fit and score every requested
classifier on each set, mode by mode, against the one untouched test split; a
mode whose balancing failed still gets its rows, carrying the error.  Emit:
metrics.csv, one ROC file per (mode, model), and the GAN log if gan ran.

Determinism: one master seed fans out to independent per-stage seeds via
sha256, so two runs with the same config produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ganbalance import augment, classifiers, data, gan, metrics
from ganbalance.classifiers import TrainConfig
from ganbalance.data import SplitSpec
from ganbalance.errors import GanBalanceError, GanStalledError, PreconditionError, RunFailureError
from ganbalance.gan import GanTrainConfig

MODES = ("raw", "oversample", "gan")
MODELS = ("svm", "dt", "logreg", "mlp")
# every file name a run or synth writes, as glob patterns
OUTPUT_FILES = ("metrics.csv", "roc_*_*.csv", "gan_training_log.csv", "train_augmented*.csv",
                "generated_samples.csv")

_TRAINERS = {
    "svm": classifiers.train_svm,
    "dt": classifiers.train_tree,
    "logreg": classifiers.train_logreg,
    "mlp": classifiers.train_mlp,
}


@dataclass
class ExperimentConfig:
    """One run's settings.  Every stage seed (split, oversampling, GAN
    training and sampling, each classifier) derives from ``seed``, so a
    ``gan`` whose ``seed`` is not the default is refused."""

    data_path: str
    out_dir: str
    seed: int = 0
    modes: tuple = MODES
    models: tuple = MODELS
    split: SplitSpec = field(default_factory=SplitSpec)
    gan: GanTrainConfig = field(default_factory=GanTrainConfig)
    mlp_epochs: int | None = None
    dump_augmented: bool = False
    label_column: str = "Class"

    def __post_init__(self):
        for name, allowed in (("modes", MODES), ("models", MODELS)):
            given = getattr(self, name)
            rejected = [value for value in given if value not in allowed]
            if rejected or not given:
                detail = f"rejected {', '.join(map(repr, rejected))}" if rejected else "none given"
                raise ValueError(f"{name} (--{name}) must be a non-empty subset of {allowed}: "
                                 f"{detail}")
        if self.mlp_epochs is not None and self.mlp_epochs < 1:
            raise ValueError("mlp_epochs (--mlp-epochs) must be >= 1")
        if self.dump_augmented and set(self.modes) == {"raw"}:
            raise ValueError("dump_augmented (--dump-augmented) needs an augmented mode, "
                             f"but modes (--modes) are {', '.join(self.modes)}")
        if self.gan.seed != GanTrainConfig.seed:
            raise ValueError("gan.seed is not read: the GAN's seeds derive from seed")


@dataclass
class RunResult:
    mode: str
    model: str
    report: metrics.MetricsReport | None
    seconds: float
    roc: np.ndarray | None = None  # (fpr, tpr) rows, see metrics.roc_auc
    error: str | None = None


def derive_seed(master: int, stage: str) -> int:
    """Independent per-stage sub-seed: first 8 bytes of sha256(master:stage)."""
    digest = hashlib.sha256(f"{master}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _prepare_out_dir(config: ExperimentConfig) -> Path:
    """Create the output directory and prove it writable before any work.  A
    directory already holding an output file, or the ``.partial`` file of one
    that a killed run left, is refused, and nothing in it is touched: one
    run's files never sit beside another's."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    found = sorted(path.name for pattern in OUTPUT_FILES for end in ("", ".partial")
                   for path in out_dir.glob(pattern + end))
    if found:
        raise PreconditionError(f"output directory {out_dir} already holds output files "
                                f"({', '.join(found)}); choose an empty directory")
    probe = out_dir / ".write_probe"
    try:
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise OSError(f"output directory {out_dir} is not writable: {exc}") from exc
    return out_dir


def _load_split_scale(config: ExperimentConfig):
    table = data.dedup(data.load_csv(config.data_path, config.label_column))
    split_rng = np.random.default_rng(derive_seed(config.seed, "split"))
    train_raw, test_raw = data.stratified_split(table, config.split, split_rng)
    return data.scale_train_test(train_raw, test_raw, table.feature_names)


def _train_generator(config: ExperimentConfig, train_scaled):
    """The GAN trained on the split's positives, its log, and the rng that
    samples from it; ``run`` and ``run_synth`` share every seed here."""
    gan_cfg = dataclasses.replace(config.gan, seed=derive_seed(config.seed, "gan-train"))
    generator, log = gan.train_gan(train_scaled, gan_cfg)
    return generator, log, np.random.default_rng(derive_seed(config.seed, "gan-generate"))


def _train_one(mode, model_name, train_set, test_set, config):
    """Fit and score one pair.  A mode whose balancing failed passes its
    error as ``train_set``, and the pair gets a failed fit's row."""
    started = time.perf_counter()
    train_cfg = TrainConfig(
        epochs=config.mlp_epochs if model_name == "mlp" else None,
        seed=derive_seed(config.seed, f"classifier:{mode}:{model_name}"),
    )
    try:
        if isinstance(train_set, GanBalanceError):
            raise train_set
        model = _TRAINERS[model_name](train_set, train_cfg)
        scores = classifiers.predict_score(model, test_set.features)
        curve, auc = metrics.roc_auc(test_set.labels, scores)
        report = metrics.compute_metrics(test_set.labels, scores, auc)
    except GanBalanceError as exc:
        return RunResult(mode, model_name, None, time.perf_counter() - started,
                         error=f"{type(exc).__name__}: {exc}")
    return RunResult(mode, model_name, report, time.perf_counter() - started, roc=curve)


def run(config: ExperimentConfig) -> list:
    """Execute every requested (mode, model) pair and write all outputs.

    Phases: prepare, balance every mode (the GAN and every dump come before
    the first fit), fit and score mode by mode, emit.  A failed fit, and each
    pair of a mode whose balancing failed, gets an error row in metrics.csv;
    a RunFailureError follows once all is written, a stalled GAN's log too.
    A test split of one class is refused before anything is loaded.
    """
    split = config.split
    if not 1 <= split.test_positives < split.test_size:
        raise PreconditionError(
            f"--test-pos ({split.test_positives}) must be at least 1 and below --test-size "
            f"({split.test_size}): a test split of one class cannot be scored")
    out_dir = _prepare_out_dir(config)
    train_scaled, test_scaled = _load_split_scale(config)

    modes = [m for m in MODES if m in config.modes]
    models = [m for m in MODELS if m in config.models]

    train_sets, gan_log = {}, None  # mode -> its Dataset, or the error that stopped it
    for mode in modes:
        try:
            if mode == "raw":
                train_sets[mode] = train_scaled
            elif mode == "oversample":
                rng = np.random.default_rng(derive_seed(config.seed, "oversample"))
                train_sets[mode] = augment.random_oversample(train_scaled, rng)
            else:
                augment.gan_deficit(train_scaled)  # fail before training the GAN
                generator, gan_log, rng = _train_generator(config, train_scaled)
                train_sets[mode] = augment.gan_augment(train_scaled, generator, rng)
        except GanBalanceError as exc:
            train_sets[mode] = exc
            gan_log = exc.log if isinstance(exc, GanStalledError) else gan_log
            continue
        if config.dump_augmented and mode != "raw":
            tag = "duplicated" if mode == "oversample" else "generated"
            _write_augmented_csv(train_sets[mode], len(train_scaled.labels), tag,
                                 out_dir / f"train_augmented_{mode}.csv")

    results = []
    for mode in modes:
        results += [_train_one(mode, name, train_sets[mode], test_scaled, config)
                    for name in models]
        del train_sets[mode]  # its last fit is done

    emit_outputs(results, out_dir)
    if gan_log is not None:
        gan.write_log_csv(gan_log, out_dir / "gan_training_log.csv")

    failures = [r for r in results if r.error is not None]
    if failures:
        detail = "; ".join(f"{r.mode}/{r.model}: {r.error}" for r in failures)
        raise RunFailureError(f"{len(failures)} of {len(results)} runs failed: {detail}")
    return results


def run_synth(config: ExperimentConfig, n_samples: int):
    """Train the GAN on the split's positives, write n generated rows block by
    block as they are sampled, and return the GAN training log."""
    if n_samples < 1:
        raise PreconditionError(f"n (--n) is {n_samples}, must be >= 1")
    out_dir = _prepare_out_dir(config)
    train_scaled, _ = _load_split_scale(config)
    generator, log, rng = _train_generator(config, train_scaled)
    blocks = gan.sample_blocks(generator, n_samples, rng)
    gan.write_samples_csv(blocks, out_dir / "generated_samples.csv")
    gan.write_log_csv(log, out_dir / "gan_training_log.csv")
    return log


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
    # metrics.csv alone keeps csv.writer: its error cells may hold commas and
    # need quoting, and its pinned bytes have CRLF line ends
    with data.open_whole(out_dir / "metrics.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in results:
            rep = r.report
            row = [r.mode, r.model]
            row += [""] * 6 if rep is None else [
                f"{rep.accuracy * 100.0:.2f}", f"{rep.recall:.6f}", f"{rep.precision:.6f}",
                f"{rep.f1:.6f}", f"{rep.specificity:.6f}", f"{rep.auc_roc:.6f}"]
            if any_failed:
                row.append(f"error: {r.error}" if rep is None else "ok")
            writer.writerow(row)
    for r in results:
        if r.roc is not None:
            data.write_csv(out_dir / f"roc_{r.mode}_{r.model}.csv", ["fpr", "tpr"],
                           [(r.roc, "%.9f,%.9f\n")])


def _write_augmented_csv(train_set: data.Dataset, n_original: int, tag: str, path) -> None:
    """The balanced set with a provenance column: ``original`` for its first
    ``n_original`` rows, which augment keeps as the input rows, then ``tag``."""
    d = train_set.features.shape[1]
    rows = np.column_stack([train_set.features, train_set.labels])
    cells = "%.9f," * d + "%d,"
    data.write_csv(path, [f"f{i}" for i in range(d)] + ["label", "provenance"],
                   [(rows[:n_original], cells + "original\n"),
                    (rows[n_original:], cells + tag + "\n")])
