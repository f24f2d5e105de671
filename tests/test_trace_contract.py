"""The benchmark's traced CLI still sees every layer boundary it checks.

``perfbench/traced_cli.py`` wraps each public ganbalance function and rebinds
the references other modules captured (module attributes and dict values such
as ``experiment._TRAINERS``).  A trainer or other counted function reached
any other way escapes the trace, and ``checks.check_trace_facts`` then
reports missing Adam updates or AUCs; a kernel reached that way (held in a
tuple, say) shows zero calls, so the all-mode run must call every kernel
that ``perfbench/run.py`` reports.  A third run is shaped like the wide
workload (raw and oversample, SVM and tree, no GAN), whose SVM scores
through ``nn`` without an Adam update.  The tracer rewraps every module
function, so each run happens in its own process.  ``perfbench/microbench.py``
calls the trainers and builds their configs itself, so it runs here too, at
its smallest size.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import microbench  # noqa: E402
import run as bench_run  # noqa: E402
from workloads import Split, Table, Workload  # noqa: E402

TABLE = Table("tiny", 4, positives=60, negatives=400, dup_positives=2, dup_negatives=3)
SPLIT = Split(train_size=200, test_size=100, train_pos=30, test_pos=15)
WORKLOADS = [
    pytest.param(Workload("tiny-run", "run", TABLE, SPLIT, gan_epochs=30,
                          modes=("raw", "oversample", "gan"),
                          models=("svm", "dt", "logreg", "mlp"), mlp_epochs=3), id="run"),
    pytest.param(Workload("tiny-synth", "synth", TABLE, SPLIT, gan_epochs=30, synth_n=50),
                 id="synth"),
    pytest.param(Workload("tiny-wide", "run", TABLE, SPLIT, gan_epochs=None,
                          modes=("raw", "oversample"), models=("svm", "dt")), id="wide"),
]


@pytest.fixture(scope="module")
def table_csv(tmp_path_factory):
    """TABLE's unique rows plus its planted exact copies, shuffled."""
    rng = np.random.default_rng(17)
    n_pos = TABLE.positives - TABLE.dup_positives
    n_neg = TABLE.negatives - TABLE.dup_negatives
    pos = np.round(np.clip(rng.normal(0.6, 0.15, (n_pos, TABLE.n_features)), 0, 1), 8)
    neg = np.round(np.clip(rng.normal(0.4, 0.15, (n_neg, TABLE.n_features)), 0, 1), 8)
    assert len(np.unique(np.vstack([pos, neg]), axis=0)) == n_pos + n_neg
    rows = np.vstack([pos, pos[:TABLE.dup_positives], neg, neg[:TABLE.dup_negatives]])
    labels = np.repeat([1, 0], [TABLE.positives, TABLE.negatives])
    order = rng.permutation(TABLE.n_rows)
    path = tmp_path_factory.mktemp("trace_data") / "tiny.csv"
    header = ",".join(f"V{i}" for i in range(TABLE.n_features)) + ",Class"
    np.savetxt(path, np.column_stack([rows, labels])[order], delimiter=",",
               fmt=["%.8f"] * TABLE.n_features + ["%d"], header=header, comments="")
    return path


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_cli_run_meets_the_trace_checks(workload, table_csv, tmp_path):
    trace_path, out_dir = tmp_path / "trace.json", tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PERFBENCH.parent / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), str(trace_path), "--",
         *workload.argv(str(table_csv), str(out_dir))],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    trace = json.loads(trace_path.read_text())
    assert checks.check_trace_facts(trace["facts"], workload) == []
    assert checks.check_outputs(out_dir, workload) == []
    if workload.name == "tiny-run":  # without the MLP or GAN no batchnorm, dropout or softmax runs
        calls = {k: trace["stats"].get(f"kernels.{k}", [0])[0] for k in bench_run.KERNELS}
        assert [k for k, n in calls.items() if n < 1] == []


def test_microbench_runs_against_the_library(monkeypatch):
    monkeypatch.setattr(microbench, "ROWS", 2 * microbench.BATCH)
    monkeypatch.setattr(microbench, "REPEATS", 1)
    steps = microbench.main()
    assert set(steps) == {"mlp", "logreg", "gan"}
    assert all(math.isfinite(us) for us in steps.values())
