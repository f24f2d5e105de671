"""Command-line entry points: argument wiring, exit codes, console messages."""

import csv
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ganbalance import experiment, gan
from ganbalance.cli import build_parser, main
from ganbalance.data import SplitSpec
from ganbalance.gan import GanTrainConfig
from helpers import gaussian_blobs, write_dataset_csv

SPLIT_FLAGS = [
    "--train-size", "150", "--test-size", "100",
    "--train-pos", "20", "--test-pos", "10",
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    rng = np.random.default_rng(19)
    dataset = gaussian_blobs(rng, n_pos=40, n_neg=260, dim=4)
    path = tmp_path_factory.mktemp("cli_data") / "data.csv"
    write_dataset_csv(dataset, path)
    return path


def test_help_lists_both_subcommands():
    out = subprocess.run(
        [sys.executable, "-m", "ganbalance.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "run" in out.stdout and "synth" in out.stdout


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_exit_zero_and_summary(corpus, tmp_path, capsys):
    code = main(
        ["run", "--data", str(corpus), "--out", str(tmp_path),
         "--modes", "raw", "--models", "dt,logreg", *SPLIT_FLAGS]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert f"outputs written to {tmp_path}" in captured.out
    assert captured.out.count("acc=") == 2
    assert (tmp_path / "metrics.csv").exists()


def test_synth_exit_zero_and_files(corpus, tmp_path, capsys):
    code = main(
        ["synth", "--data", str(corpus), "--out", str(tmp_path), "--n", "5",
         "--gan-epochs", "20", "--gan-batch", "8", "--gan-log-every", "5",
         *SPLIT_FLAGS]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "wrote 5 generated rows" in captured.out
    assert (tmp_path / "generated_samples.csv").exists()
    assert (tmp_path / "gan_training_log.csv").exists()


def test_missing_data_file_exits_two(tmp_path, capsys):
    code = main(
        ["run", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


def test_label_only_file_exits_two_naming_the_missing_features(tmp_path, capsys):
    path = tmp_path / "labels.csv"
    path.write_text("Class\n" + "1\n0\n" * 200)
    out = tmp_path / "out"
    code = main(["run", "--data", str(path), "--out", str(out), *SPLIT_FLAGS])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and "no feature column" in captured.err
    assert list(out.iterdir()) == []


def test_label_named_twice_exits_two_naming_its_columns(tmp_path, capsys):
    path = tmp_path / "twice.csv"
    path.write_text("Class,V1,Class\n" + "1,0.5,1\n0,0.25,0\n" * 200)
    out = tmp_path / "out"
    code = main(["run", "--data", str(path), "--out", str(out), *SPLIT_FLAGS])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and "names columns 1, 3" in captured.err
    assert list(out.iterdir()) == []


def test_dump_augmented_without_an_augmented_mode_exits_two(corpus, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--data", str(corpus), "--out", str(out), "--modes", "raw",
                 "--models", "dt", "--dump-augmented", *SPLIT_FLAGS])
    captured = capsys.readouterr()
    assert code == 2
    assert "(--dump-augmented)" in captured.err and "(--modes) are raw" in captured.err
    assert not out.exists()


def test_unknown_mode_exits_two(corpus, tmp_path, capsys):
    # an unknown mode, then the --save-models flag, which no longer exists
    for i, extra in enumerate((["--modes", "bogus"],
                               ["--modes", "raw", "--models", "dt", "--save-models"])):
        try:
            code = main(["run", "--data", str(corpus), "--out", str(tmp_path / str(i)), *extra,
                         *SPLIT_FLAGS])
        except SystemExit as exc:  # argparse rejects unknown flags this way
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err


def test_second_run_into_a_used_directory_exits_two_and_changes_nothing(corpus, tmp_path,
                                                                        capsys):
    out = tmp_path / "out"
    assert main(["run", "--data", str(corpus), "--out", str(out), "--models", "dt",
                 "--gan-epochs", "2", "--dump-augmented", *SPLIT_FLAGS]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    for argv in (["run", "--modes", "raw", "--models", "dt"], ["synth", "--n", "3"]):
        assert main([*argv, "--data", str(corpus), "--out", str(out), *SPLIT_FLAGS]) == 2
        err = capsys.readouterr().err
        assert "already holds output files" in err
        assert "metrics.csv" in err and "roc_raw_dt.csv" in err
        assert "train_augmented_gan.csv" in err and "gan_training_log.csv" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_partial_file_left_by_a_killed_run_makes_the_directory_used(corpus, tmp_path,
                                                                       capsys):
    (tmp_path / "metrics.csv.partial").write_text("mode,model\n")
    for argv in (["run", "--modes", "raw", "--models", "dt"], ["synth", "--n", "3"]):
        assert main([*argv, "--data", str(corpus), "--out", str(tmp_path), *SPLIT_FLAGS]) == 2
        assert "metrics.csv.partial" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv.partial"]


def test_partial_failure_exits_three(corpus, tmp_path, capsys):
    # a single training positive starves GAN training while raw still works
    code = main(
        ["run", "--data", str(corpus), "--out", str(tmp_path),
         "--modes", "raw,gan", "--models", "dt",
         "--train-size", "150", "--test-size", "100",
         "--train-pos", "1", "--test-pos", "10",
         "--gan-epochs", "20"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "partial outputs written to" in captured.err
    assert (tmp_path / "metrics.csv").exists()


def test_nothing_to_balance_exits_three_without_training_the_gan(
    corpus, tmp_path, capsys, monkeypatch
):
    # 20 positives and 20 negatives in training: the gan mode has no deficit
    def refuse(*args, **kwargs):
        raise AssertionError("train_gan called")

    monkeypatch.setattr(gan, "train_gan", refuse)
    code = main(
        ["run", "--data", str(corpus), "--out", str(tmp_path),
         "--modes", "raw,gan", "--models", "dt",
         "--train-size", "40", "--test-size", "100",
         "--train-pos", "20", "--test-pos", "10"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "NothingToBalanceError" in captured.err
    rows = (tmp_path / "metrics.csv").read_text().splitlines()
    assert rows[2] == ("gan,dt,,,,,,,error: NothingToBalanceError: "
                       "positives (20) already >= negatives (20)")
    assert not (tmp_path / "gan_training_log.csv").exists()


def test_run_without_training_positives_writes_gan_error_rows(corpus, tmp_path, capsys):
    code = main(["run", "--data", str(corpus), "--out", str(tmp_path), "--modes", "raw,gan",
                 "--train-size", "150", "--test-size", "100", "--train-pos", "0",
                 "--test-pos", "10", "--gan-epochs", "5"])
    capsys.readouterr()
    assert code == 3
    rows = (tmp_path / "metrics.csv").read_text().splitlines()
    assert rows[5:] == [f"gan,{model},,,,,,,error: EmptyMinorityError: training set has no "
                        "positive rows" for model in ("svm", "dt", "logreg", "mlp")]
    assert not (tmp_path / "gan_training_log.csv").exists()


def test_cli_and_library_write_identical_outputs(tmp_path, capsys):
    # every run flag away from its default, and both tuples out of canonical order
    data = tmp_path / "data.csv"
    write_dataset_csv(gaussian_blobs(np.random.default_rng(19), n_pos=40, n_neg=260, dim=4),
                      data, label_column="y")
    assert main(
        ["run", "--data", str(data), "--out", str(tmp_path / "cli"), "--seed", "4",
         "--modes", "gan,raw,oversample", "--models", "mlp,dt,svm,logreg",
         "--gan-epochs", "9", "--gan-lr", "2e-4", "--gan-batch", "12",
         "--gan-log-every", "4", "--mlp-epochs", "3", "--dump-augmented",
         "--label-column", "y", *SPLIT_FLAGS]
    ) == 0
    capsys.readouterr()
    experiment.run(experiment.ExperimentConfig(
        data_path=str(data),
        out_dir=str(tmp_path / "lib"),
        seed=4,
        modes=("gan", "raw", "oversample"),
        models=("mlp", "dt", "svm", "logreg"),
        split=SplitSpec(train_size=150, test_size=100, train_positives=20,
                        test_positives=10),
        gan=GanTrainConfig(epochs=9, learning_rate=2e-4, batch_size=12, log_every=4),
        mlp_epochs=3,
        dump_augmented=True,
        label_column="y",
    ))
    cli_files = sorted(p.name for p in (tmp_path / "cli").iterdir())
    assert cli_files == sorted(p.name for p in (tmp_path / "lib").iterdir())
    assert len(cli_files) == 16
    for name in cli_files:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


PIN_PROBE = """
import os, sys
at_numpy = []
sys.addaudithook(lambda event, args: event == "import" and args[0] == "numpy"
                 and not at_numpy and at_numpy.append(os.environ.get("OPENBLAS_NUM_THREADS")))
import ganbalance.cli
print(at_numpy, os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.parametrize("caller_value, expected", [(None, "1"), ("3", "3")])
def test_cli_import_defaults_blas_threads_before_numpy_loads(caller_value, expected):
    # a fresh process: numpy reads the variable once, when it is first imported
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if caller_value is not None:
        env["OPENBLAS_NUM_THREADS"] = caller_value
    out = subprocess.run([sys.executable, "-c", PIN_PROBE], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == [f"['{expected}']", expected]


BLAS_SPLIT_FLAGS = ["--train-size", "2600", "--test-size", "500",
                    "--train-pos", "100", "--test-pos", "50", "--gan-epochs", "20"]


@pytest.mark.parametrize("command", [
    ["synth", "--n", "5000"],  # two 2,500-row generator blocks
    ["run", "--modes", "gan", "--models", "dt", "--dump-augmented"],  # one 2,400-row block
])
def test_outputs_do_not_depend_on_blas_threads(tmp_path, capsys, command):
    # blocks of 2,048 rows and more are large enough for OpenBLAS to split the
    # generator's matrix products across threads; the bytes must not move
    data = tmp_path / "data.csv"
    write_dataset_csv(gaussian_blobs(np.random.default_rng(23), n_pos=150, n_neg=3000, dim=4),
                      data)
    argv = [*command, "--data", str(data), *BLAS_SPLIT_FLAGS]
    for threads in ("1", "2"):
        subprocess.run([sys.executable, "-m", "ganbalance.cli", *argv, "--out",
                        str(tmp_path / threads)], check=True, capture_output=True,
                       env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
    assert main([*argv, "--out", str(tmp_path / "in_process")]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert "gan_training_log.csv" in names and len(names) == (2 if command[0] == "synth" else 4)
    for out in ("2", "in_process"):
        assert sorted(p.name for p in (tmp_path / out).iterdir()) == names
        for name in names:
            assert (tmp_path / out / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


def test_seed_flag_changes_outputs(corpus, tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out, seed in ((out_a, "1"), (out_b, "2")):
        assert main(
            ["run", "--data", str(corpus), "--out", str(out), "--seed", seed,
             "--modes", "oversample", "--models", "logreg", "--dump-augmented",
             *SPLIT_FLAGS]
        ) == 0
    capsys.readouterr()
    dump_a = (out_a / "train_augmented_oversample.csv").read_bytes()
    dump_b = (out_b / "train_augmented_oversample.csv").read_bytes()
    assert dump_a != dump_b


@pytest.mark.parametrize(
    "flag", ["--gan-lr=nan", "--gan-lr=inf", "--gan-lr=-inf",
             "--gan-log-every=0", "--gan-log-every=-1", "--gan-epochs=0", "--gan-batch=0"],
)
def test_invalid_gan_setting_exits_two(corpus, tmp_path, capsys, flag):
    code = main(
        ["synth", "--data", str(corpus), "--out", str(tmp_path), "--n", "5",
         "--gan-epochs", "2", flag, *SPLIT_FLAGS]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert f"({flag.split('=')[0]})" in captured.err
    assert not (tmp_path / "generated_samples.csv").exists()


@pytest.mark.parametrize("command, flags, named", [
    ("synth", ["--n", "0"], ["(--n) is 0"]),
    ("run", ["--modes", "bogus"], ["(--modes)", "rejected 'bogus'"]),
    ("run", ["--modes", ","], ["(--modes)", "none given"]),
    ("run", ["--models", "dt,svn"], ["(--models)", "rejected 'svn'"]),
])
def test_bad_row_count_or_list_exits_two_naming_the_flag(corpus, tmp_path, capsys, command,
                                                          flags, named):
    code = main([command, "--data", str(corpus), "--out", str(tmp_path), *flags, *SPLIT_FLAGS])
    captured = capsys.readouterr()
    assert code == 2
    assert all(text in captured.err for text in named), captured.err
    assert list(tmp_path.iterdir()) == []


def test_mlp_epochs_zero_exits_two_before_training(corpus, tmp_path, capsys):
    code = main(
        ["run", "--data", str(corpus), "--out", str(tmp_path), "--modes", "raw",
         "--models", "dt,mlp", "--mlp-epochs", "0", *SPLIT_FLAGS]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "--mlp-epochs" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("side", ["train", "test"])
def test_empty_split_exits_two_naming_the_flag(corpus, tmp_path, capsys, side):
    flags = dict(zip(SPLIT_FLAGS[::2], SPLIT_FLAGS[1::2]))
    flags.update({f"--{side}-size": "0", f"--{side}-pos": "0"})
    code = main(
        ["run", "--data", str(corpus), "--out", str(tmp_path), "--modes", "raw",
         "--models", "dt", *(item for pair in flags.items() for item in pair)]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert f"--{side}-size" in captured.err and "must be >= 1" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_overflowing_column_exits_two_naming_it(tmp_path, capsys):
    # column a sits near the float64 maximum, so its train mean or standard
    # deviation overflows; the run must stop there rather than score NaN
    path = tmp_path / "huge.csv"
    huge = ("1e308", "1.7e308", "-1.7e308")
    path.write_text("a,b,Class\n" + "".join(
        f"{huge[i % 3]},{i},{int(i % 3 == 0)}\n" for i in range(60)))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "--data", str(path), "--out", str(out), "--modes", "raw",
                     "--models", "dt,logreg", "--train-size", "36", "--test-size", "24",
                     "--train-pos", "12", "--test-pos", "8"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and "column 'a'" in captured.err
    assert [str(w.message) for w in caught] == []
    assert list(out.iterdir()) == []


def test_stalled_gan_synth_exits_two_naming_the_flag(corpus, tmp_path):
    # a separate process, so any numpy warning would reach its stderr
    out = subprocess.run(
        [sys.executable, "-m", "ganbalance.cli", "synth", "--data", str(corpus),
         "--out", str(tmp_path), "--n", "5", "--gan-lr", "1e300", "--gan-epochs", "3",
         *SPLIT_FLAGS],
        capture_output=True, text=True,
    )
    assert out.returncode == 2
    assert out.stderr.startswith("error:") and "--gan-lr" in out.stderr
    assert "RuntimeWarning" not in out.stderr


def test_stalled_gan_run_exits_three_with_gan_error_rows(corpus, tmp_path):
    code = main(["run", "--data", str(corpus), "--out", str(tmp_path),
                 "--modes", "raw,gan", "--models", "dt,logreg", "--gan-lr", "1e300",
                 "--gan-epochs", "3", *SPLIT_FLAGS])
    assert code == 3
    rows = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows[:2]] == ["ok", "ok"]
    assert all(row.startswith(f"gan,{model},") and "error: GanStalledError:" in row
               for row, model in zip(rows[2:], ("dt", "logreg")))
    assert len(rows) == 4
    assert not (tmp_path / "gan_training_log.csv").exists()


@pytest.mark.parametrize("test_pos", ["0", "100"])
def test_single_class_test_split_exits_two_before_any_work(corpus, tmp_path, capsys,
                                                           test_pos):
    out = tmp_path / "out"
    code = main(
        ["run", "--data", str(corpus), "--out", str(out), "--modes", "raw", "--models", "dt",
         "--train-size", "150", "--test-size", "100", "--train-pos", "20",
         "--test-pos", test_pos]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "--test-pos" in captured.err and "--test-size" in captured.err
    assert not out.exists()


def test_synth_accepts_a_test_split_without_positives(corpus, tmp_path, capsys):
    code = main(
        ["synth", "--data", str(corpus), "--out", str(tmp_path), "--n", "3",
         "--gan-epochs", "2", "--train-size", "150", "--test-size", "100",
         "--train-pos", "20", "--test-pos", "0"]
    )
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "generated_samples.csv").exists()


def _split(pos_train, pos_test, neg_train, neg_test):
    return (neg_train + pos_train, neg_test + pos_test, pos_train, pos_test)


# Each flag draws from its valid or its invalid values; the invalid set is
# drawn first, so that most examples reach training with only a few bad flags.
_VALID = {
    "gan-lr": st.floats(min_value=1e-8, max_value=1e300).map(repr),
    "gan-log-every": st.integers(1, 4),
    "gan-batch": st.integers(1, 70),
    "gan-epochs": st.integers(1, 3),
    "mlp-epochs": st.just(1),
    "n": st.integers(1, 5),
    # within the corpus: 40 positive and 260 negative rows
    "split": st.builds(_split, st.integers(0, 25), st.integers(0, 15),
                       st.integers(0, 150), st.integers(0, 110)),
    "modes": st.lists(st.sampled_from(["raw", "oversample", "gan"]), min_size=1,
                      max_size=3, unique=True),
    "models": st.lists(st.sampled_from(["svm", "dt", "logreg", "mlp"]), min_size=1,
                       max_size=4, unique=True),
}
_INVALID = {
    "gan-lr": st.sampled_from(["nan", "inf", "-inf", "0", "-0.001"]),
    "gan-log-every": st.integers(-2, 0),
    "gan-batch": st.integers(-1, 0),
    "gan-epochs": st.integers(-1, 0),
    "mlp-epochs": st.integers(-1, 0),
    "n": st.integers(-1, 0),
    "split": st.tuples(*(st.integers(-1, 400) for _ in range(4))),
    "modes": st.lists(st.sampled_from(["raw", "gan", "bogus"]), max_size=2, unique=True),
    "models": st.lists(st.sampled_from(["dt", "bogus"]), max_size=2, unique=True),
}


def _assert_written_csvs_are_finite(out_dir: Path) -> None:
    for path in out_dir.glob("*.csv"):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows, f"{path.name} is empty"
        for row in rows[1:]:
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue  # mode, model, provenance and status cells
                assert math.isfinite(value), f"{path.name}: non-finite cell {cell!r}"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(
    command=st.sampled_from(["run", "synth"]),
    invalid=st.sets(st.sampled_from(sorted(_VALID)), max_size=2),
    data=st.data(),
)
def test_any_flag_values_exit_cleanly_with_finite_outputs(
    corpus, tmp_path, command, invalid, data
):
    value = {name: data.draw((_INVALID if name in invalid else _VALID)[name], label=name)
             for name in _VALID}
    flags = [f"--{name}={value[name]}" for name in ("gan-lr", "gan-log-every", "gan-batch",
                                                    "gan-epochs")]
    flags += [f"--{name}={v}" for name, v in
              zip(("train-size", "test-size", "train-pos", "test-pos"), value["split"])]
    if command == "run":
        flags += [f"--mlp-epochs={value['mlp-epochs']}",
                  f"--modes={','.join(value['modes'])}",
                  f"--models={','.join(value['models'])}"]
    else:
        flags.append(f"--n={value['n']}")
    with tempfile.TemporaryDirectory(dir=tmp_path) as out:
        code = main([command, "--data", str(corpus), "--out", out, *flags])
        assert code in (0, 2, 3)
        _assert_written_csvs_are_finite(Path(out))
