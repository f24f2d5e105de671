"""Each output check passes on a consistent file and fails on a corrupted one.

    python3 -m pytest perfbench -q
"""

import pytest

import checks
from workloads import Split, Table, Workload

# test split: 4 positives, 6 negatives; confusion tp=3 fn=1 tn=5 fp=1
SPLIT = Split(train_size=20, test_size=10, train_pos=8, test_pos=4)
TABLE = Table("tiny", 2, positives=14, negatives=18, dup_positives=1, dup_negatives=2)
RUN = Workload("tiny", "run", TABLE, SPLIT, gan_epochs=3, modes=("raw", "gan"),
               models=("svm",))
SYNTH = Workload("tiny", "synth", TABLE, SPLIT, gan_epochs=3, synth_n=2)

# ROC counts (fp of 6, tp of 4): area (0*2 + 1*5 + 2*7 + 3*8) / 48 = 43/48
ROC = "fpr,tpr\n0.000000000,0.000000000\n0.000000000,0.500000000\n" \
      "0.166666667,0.750000000\n0.500000000,1.000000000\n1.000000000,1.000000000\n"
ROW = "80.00,0.750000,0.750000,0.750000,0.833333,0.895833"
METRICS = (",".join(checks.METRICS_HEADER) + f"\nraw,svm,{ROW}\ngan,svm,{ROW}\n")
GAN_LOG = "epoch,gen_loss,disc_loss,disc_acc\n1,0.7,0.69,0.5\n2,0.71,0.68,0.55\n" \
          "3,0.72,0.67,0.6\n"
SAMPLES = "f0,f1\n0.100000000,0.999999999\n0.000000001,0.5\n"
FILES = {"metrics.csv": METRICS, "roc_raw_svm.csv": ROC, "roc_gan_svm.csv": ROC,
         "gan_training_log.csv": GAN_LOG, "generated_samples.csv": SAMPLES}


@pytest.fixture
def out(tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def test_consistent_outputs_pass(out):
    assert checks.check_outputs(out, RUN) == []
    assert checks.check_outputs(out, SYNTH) == []


@pytest.mark.parametrize("name, old, new", [
    ("metrics.csv", "0.833333,0.895833\ngan", "0.833333,0.895900\ngan"),  # wrong auc_roc
    ("metrics.csv", "80.00", "81.00"),  # accuracy disagrees with recall/specificity
    ("metrics.csv", "0.750000,0.750000,0.750000,0.833333",
     "0.750000,0.750000,0.760000,0.833333"),  # f1 disagrees with precision/recall
    ("metrics.csv", "80.00,0.750000,0.750000", "80.00,0.750000,0.700000"),  # precision
    ("metrics.csv", "0.750000,0.750000,0.750000,0.833333",
     "0.740000,0.750000,0.750000,0.833333"),  # recall is not a count over 4
    ("metrics.csv", "auc_roc", "auc"),  # header
    ("metrics.csv", "gan,svm", "gan,dt"),  # rows are not the requested pairs
    ("metrics.csv", "0.895833", "nan"),  # non-finite
    ("roc_raw_svm.csv", "0.166666667,0.750000000\n0.500000000",
     "0.166666667,0.750000000\n0.500000000,0.500000000\n0.500000000"),  # goes backwards
    ("roc_raw_svm.csv", "0.166666667", "0.200000000"),  # off the 1/N grid
    ("roc_raw_svm.csv", "1.000000000,1.000000000\n", ""),  # does not reach (1,1)
    ("roc_gan_svm.csv", "0.000000000,0.500000000", "0.000000000,0.250000000"),  # area
    ("gan_training_log.csv", "2,0.71", "2,nan"),  # non-finite loss
    ("gan_training_log.csv", "3,0.72,0.67,0.6\n", ""),  # one row short
    ("gan_training_log.csv", "\n2,", "\n4,"),  # epochs out of order
])
def test_corrupted_run_output_fails(out, name, old, new):
    path = out / name
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new, 1))
    assert checks.check_outputs(out, RUN) != []


@pytest.mark.parametrize("old, new", [
    ("0.000000001", "0.000000000"),  # touches 0
    ("0.999999999", "1.000000000"),  # touches 1
    ("0.000000001,0.5\n", ""),  # one row short
    ("0.000000001,0.5", "0.000000001,0.5,0.5"),  # extra column
    ("f0,f1", "f0,f2"),  # header
])
def test_corrupted_samples_fail(out, old, new):
    path = out / "generated_samples.csv"
    path.write_text(path.read_text().replace(old, new, 1))
    assert checks.check_outputs(out, SYNTH) != []


GOOD_FACTS = {"dedup": [[32, 29]], "split": [[20, 8, 10, 4]],
              "steps.logreg": [40], "steps.mlp": [8], "gan_epochs": [3], "adam_steps": 54,
              "auc_vs_mann_whitney": [[0.875, 0.875], [0.5, 0.5]]}


@pytest.mark.parametrize("key, value", [
    ("dedup", [[32, 30]]),  # one planted copy kept
    ("dedup", [[31, 29]]),  # a row lost in parsing
    ("split", [[20, 7, 10, 4]]),  # wrong train positives
    ("adam_steps", 53),  # one minibatch update missing
    ("auc_vs_mann_whitney", [[0.875, 0.87], [0.5, 0.5]]),  # AUC != U/(P*N)
    ("auc_vs_mann_whitney", [[0.875, 0.875]]),  # a pair went unchecked
])
def test_trace_facts(key, value):
    assert checks.check_trace_facts(GOOD_FACTS, RUN) == []
    assert checks.check_trace_facts({**GOOD_FACTS, key: value}, RUN) != []


def test_digest_store_flags_changed_bytes(out, tmp_path_factory):
    store_path = tmp_path_factory.mktemp("store") / "digests.json"
    assert checks.DigestStore(store_path).check("tiny:1:code", out) == []
    assert checks.DigestStore(store_path).check("tiny:1:code", out) == []
    (out / "metrics.csv").write_text(METRICS.replace("0.895833", "0.895834"))
    assert checks.DigestStore(store_path).check("tiny:1:code", out) != []
    assert checks.DigestStore(store_path).check("tiny:2:code", out) == []
