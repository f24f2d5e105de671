"""Experiment runner: orchestration, output files, determinism, failure paths."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from ganbalance import classifiers, experiment, gan
from ganbalance.data import Dataset, SplitSpec
from ganbalance.errors import PreconditionError, RunFailureError
from ganbalance.experiment import (
    MODELS,
    MODES,
    ExperimentConfig,
    _train_one,
    derive_seed,
    emit_outputs,
    run,
    run_synth,
)
from ganbalance.gan import GanTrainConfig
from helpers import gaussian_blobs, write_dataset_csv

EXPECTED_HEADER = "mode,model,accuracy_pct,recall,precision,f1,specificity,auc_roc"

SPLIT = SplitSpec(train_size=150, test_size=100, train_positives=20, test_positives=10)
GAN_FAST = GanTrainConfig(epochs=25, learning_rate=1e-4, batch_size=16, log_every=5)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    rng = np.random.default_rng(7)
    dataset = gaussian_blobs(rng, n_pos=40, n_neg=260, dim=4)
    path = tmp_path_factory.mktemp("exp_data") / "data.csv"
    write_dataset_csv(dataset, path)
    return path


@pytest.fixture(scope="module")
def full_run(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("full_out")
    config = ExperimentConfig(
        data_path=str(corpus),
        out_dir=str(out),
        seed=11,
        modes=("gan", "raw", "oversample"),
        models=("logreg", "dt"),
        split=SPLIT,
        gan=GAN_FAST,
        dump_augmented=True,
    )
    results = run(config)
    return config, out, results


def test_derive_seed_is_stable_and_stage_dependent():
    assert derive_seed(0, "split") == 2912007233821249921
    assert derive_seed(0, "gan-train") == 15125122737626523571
    assert derive_seed(3, "split") == derive_seed(3, "split")
    assert derive_seed(3, "split") != derive_seed(4, "split")
    assert derive_seed(3, "split") != derive_seed(3, "oversample")
    assert 0 <= derive_seed(3, "split") < 2**64


def test_config_rejects_unknown_modes_and_models(corpus, tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(str(corpus), str(tmp_path), modes=("bogus",))
    with pytest.raises(ValueError):
        ExperimentConfig(str(corpus), str(tmp_path), models=("dt", "bogus"))
    with pytest.raises(ValueError):
        ExperimentConfig(str(corpus), str(tmp_path), modes=())
    with pytest.raises(ValueError, match="gan.seed is not read"):
        ExperimentConfig(str(corpus), str(tmp_path), gan=GanTrainConfig(seed=3))


def test_config_refuses_a_dump_with_no_augmented_mode(corpus, tmp_path):
    with pytest.raises(ValueError, match=r"dump_augmented \(--dump-augmented\).*raw"):
        ExperimentConfig(str(corpus), str(tmp_path), modes=("raw",), dump_augmented=True)
    ExperimentConfig(str(corpus), str(tmp_path), modes=("raw", "gan"), dump_augmented=True)


def test_full_run_scores_every_pair(full_run):
    _, _, results = full_run
    assert len(results) == 6
    assert all(r.error is None for r in results)
    for r in results:
        rep = r.report
        for value in (rep.accuracy, rep.recall, rep.precision, rep.f1,
                      rep.specificity, rep.auc_roc):
            assert np.isfinite(value)
        assert r.roc is not None
        assert r.seconds >= 0.0


def test_full_run_metrics_csv_layout(full_run):
    _, out, _ = full_run
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == EXPECTED_HEADER
    assert len(lines) == 7
    keys = [tuple(line.split(",")[:2]) for line in lines[1:]]
    # canonical mode and model order regardless of config tuple order
    assert keys == [
        ("raw", "dt"),
        ("raw", "logreg"),
        ("oversample", "dt"),
        ("oversample", "logreg"),
        ("gan", "dt"),
        ("gan", "logreg"),
    ]


def test_full_run_writes_roc_and_gan_log(full_run):
    _, out, _ = full_run
    for mode in ("raw", "oversample", "gan"):
        for model in ("dt", "logreg"):
            roc = (out / f"roc_{mode}_{model}.csv").read_text().splitlines()
            assert roc[0] == "fpr,tpr"
            assert roc[1] == "0.000000000,0.000000000"
            assert len(roc) >= 3
    log_lines = (out / "gan_training_log.csv").read_text().splitlines()
    assert log_lines[0] == "epoch,gen_loss,disc_loss,disc_acc"
    # epochs 5,10,15,20,25 under log_every=5
    assert len(log_lines) == 6


def test_full_run_dumps_suffixed_augmented_sets(full_run):
    _, out, _ = full_run
    dumps = sorted(p.name for p in out.glob("train_augmented*.csv"))
    assert dumps == ["train_augmented_gan.csv", "train_augmented_oversample.csv"]
    for mode in ("oversample", "gan"):
        lines = (out / f"train_augmented_{mode}.csv").read_text().splitlines()
        assert lines[0] == "f0,f1,f2,f3,label,provenance"
        rows = [line.split(",") for line in lines[1:]]
        labels = [r[4] for r in rows]
        assert labels.count("1") == labels.count("0") == 130
        tags = {r[5] for r in rows}
        extra = "duplicated" if mode == "oversample" else "generated"
        assert tags == {"original", extra}


def test_output_file_patterns_match_every_file_run_and_synth_write(full_run, tmp_path):
    # a file that no pattern matches would escape the used-directory refusal
    config, out, _ = full_run
    run_synth(dataclasses.replace(config, out_dir=str(tmp_path)), 8)
    for directory in (out, tmp_path):
        matched = {p.name for pattern in experiment.OUTPUT_FILES for p in directory.glob(pattern)}
        assert matched == {p.name for p in directory.iterdir()}


def test_single_mode_run_names_its_dump_after_the_mode(corpus, tmp_path):
    config = ExperimentConfig(
        data_path=str(corpus),
        out_dir=str(tmp_path),
        seed=11,
        modes=("oversample",),
        models=("dt",),
        split=SPLIT,
        dump_augmented=True,
    )
    results = run(config)
    assert len(results) == 1
    assert sorted(p.name for p in tmp_path.glob("train_augmented*.csv")) == [
        "train_augmented_oversample.csv"]
    assert not (tmp_path / "gan_training_log.csv").exists()
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == EXPECTED_HEADER
    assert len(lines) == 2


def test_same_seed_runs_are_byte_identical(corpus, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    base = ExperimentConfig(
        data_path=str(corpus),
        out_dir=str(out_a),
        seed=29,
        models=("dt",),
        split=SPLIT,
        gan=GAN_FAST,
    )
    run(base)
    run(dataclasses.replace(base, out_dir=str(out_b)))
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    assert (out_a / "gan_training_log.csv").read_bytes() == (
        out_b / "gan_training_log.csv"
    ).read_bytes()


def test_raw_rows_do_not_depend_on_other_modes(full_run, corpus, tmp_path):
    _, out_full, _ = full_run
    config = ExperimentConfig(
        data_path=str(corpus),
        out_dir=str(tmp_path),
        seed=11,
        modes=("raw",),
        models=("logreg", "dt"),
        split=SPLIT,
    )
    run(config)
    full_raw = [
        line
        for line in (out_full / "metrics.csv").read_text().splitlines()
        if line.startswith("raw,")
    ]
    solo_raw = [
        line
        for line in (tmp_path / "metrics.csv").read_text().splitlines()
        if line.startswith("raw,")
    ]
    assert full_raw == solo_raw


def test_every_set_and_dump_exists_before_the_first_fit(corpus, tmp_path, monkeypatch):
    events = []
    train_gan = gan.train_gan

    def recording_train_gan(*args):
        events.append("train_gan")
        return train_gan(*args)

    pair_of = {derive_seed(11, f"classifier:{mode}:{model}"): (mode, model)
               for mode in MODES for model in MODELS}
    for name, trainer in experiment._TRAINERS.items():
        def recording_trainer(train_set, cfg, trainer=trainer):
            dumps = sorted(p.name for p in tmp_path.glob("train_augmented_*.csv"))
            events.append((*pair_of[cfg.seed], dumps))
            return trainer(train_set, cfg)

        monkeypatch.setitem(experiment._TRAINERS, name, recording_trainer)
    monkeypatch.setattr(gan, "train_gan", recording_train_gan)
    config = ExperimentConfig(data_path=str(corpus), out_dir=str(tmp_path), seed=11,
                              split=SPLIT, gan=GAN_FAST, mlp_epochs=1, dump_augmented=True)
    run(config)
    dumps = ["train_augmented_gan.csv", "train_augmented_oversample.csv"]
    # the GAN trains and both dumps are written first, then one fit per pair,
    # mode by mode
    assert events == ["train_gan"] + [(mode, model, dumps) for mode in MODES
                                      for model in MODELS]


def test_mlp_epoch_override_applies(corpus, tmp_path):
    config = ExperimentConfig(
        data_path=str(corpus),
        out_dir=str(tmp_path),
        seed=11,
        modes=("raw",),
        models=("mlp",),
        split=SPLIT,
        mlp_epochs=10,
    )
    results = run(config)
    assert len(results) == 1
    assert results[0].report is not None


def test_failed_mode_marks_rows_and_raises_after_writing(corpus, tmp_path):
    # one lone positive: oversampling works but GAN training cannot start
    split = SplitSpec(
        train_size=150, test_size=100, train_positives=1, test_positives=10
    )
    config = ExperimentConfig(
        data_path=str(corpus),
        out_dir=str(tmp_path),
        seed=5,
        modes=("raw", "gan"),
        models=("dt",),
        split=split,
        gan=GAN_FAST,
    )
    with pytest.raises(RunFailureError, match="1 of 2 runs failed"):
        run(config)
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == EXPECTED_HEADER + ",status"
    assert len(lines) == 3
    assert lines[1].startswith("raw,dt,") and lines[1].endswith(",ok")
    gan_cells = lines[2].split(",")
    assert gan_cells[:2] == ["gan", "dt"]
    assert gan_cells[2:8] == [""] * 6
    assert "error: PreconditionError" in lines[2]
    assert (tmp_path / "roc_raw_dt.csv").exists()
    assert not (tmp_path / "roc_gan_dt.csv").exists()


def test_score_ties_are_labelled_negative(monkeypatch, tmp_path):
    # a row is labelled 1 only when its score is strictly above 0.5
    monkeypatch.setattr(classifiers, "predict_score", lambda model, x: np.full(len(x), 0.5))
    labels = np.array([1, 0] * 5, dtype=np.int64)
    data = Dataset(np.random.default_rng(3).random((10, 2)), labels)
    config = ExperimentConfig(data_path="unused.csv", out_dir=str(tmp_path))
    result = _train_one("raw", "dt", data, data, config)
    assert result.error is None
    assert result.report.recall == 0.0
    assert result.report.specificity == 1.0


def test_emit_outputs_rejects_empty_results(tmp_path):
    with pytest.raises(PreconditionError):
        emit_outputs([], tmp_path)


def test_missing_data_file_raises_oserror(tmp_path):
    config = ExperimentConfig(
        data_path=str(tmp_path / "nope.csv"), out_dir=str(tmp_path)
    )
    with pytest.raises(OSError):
        run(config)


def test_run_synth_writes_samples_and_log(corpus, tmp_path):
    config = ExperimentConfig(
        data_path=str(corpus),
        out_dir=str(tmp_path),
        seed=13,
        split=SPLIT,
        gan=GAN_FAST,
    )
    log = run_synth(config, 8)
    assert len(log) == 5
    lines = (tmp_path / "generated_samples.csv").read_text().splitlines()
    assert lines[0] == "f0,f1,f2,f3"
    samples = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert samples.shape == (8, 4)
    assert np.all((samples > 0.0) & (samples < 1.0))
    assert (tmp_path / "gan_training_log.csv").exists()
    with pytest.raises(PreconditionError):
        run_synth(config, 0)


def test_run_synth_memory_does_not_grow_with_the_row_count(corpus, tmp_path):
    peaks = []
    for n in (4096, 100_000):
        config = ExperimentConfig(data_path=str(corpus), out_dir=str(tmp_path / str(n)),
                                  seed=13, split=SPLIT, gan=GAN_FAST)
        tracemalloc.start()
        try:
            run_synth(config, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # each block is written as it is sampled, so one block's working set sets
    # the peak (7.0 MiB here).  Holding all 100,000 rows (3 MiB) grew the peak
    # from 10.6 MiB at 4,096 rows to 13.3 MiB.
    assert peaks[1] < peaks[0] + 2**19
    assert peaks[1] < 9 * 2**20


def test_gan_mode_samples_with_the_configured_noise(corpus, tmp_path):
    # same config => the gan mode's generated rows are run_synth's rows
    config = ExperimentConfig(
        data_path=str(corpus),
        out_dir=str(tmp_path / "run"),
        seed=13,
        modes=("gan",),
        models=("dt",),
        split=SPLIT,
        gan=GAN_FAST,
        dump_augmented=True,
    )
    run(config)
    dumped = (tmp_path / "run" / "train_augmented_gan.csv").read_text().splitlines()[1:]
    generated = [line.rsplit(",", 2)[0] for line in dumped if line.endswith(",generated")]
    deficit = SPLIT.train_size - 2 * SPLIT.train_positives
    assert len(generated) == deficit
    run_synth(dataclasses.replace(config, out_dir=str(tmp_path / "synth")), deficit)
    synth = (tmp_path / "synth" / "generated_samples.csv").read_text().splitlines()[1:]
    assert generated == synth
