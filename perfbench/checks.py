"""Correctness checks on the files a CLI invocation writes.

Every check recomputes what it can from independent facts (the split's known
class counts, integer confusion counts, the trapezoid rule, the method's
output range) rather than comparing with a stored copy of earlier output.
Each function returns a list of error strings; an empty list means the check
passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

METRICS_HEADER = ["mode", "model", "accuracy_pct", "recall", "precision", "f1",
                  "specificity", "auc_roc"]
GAN_LOG_HEADER = "epoch,gen_loss,disc_loss,disc_acc"
ROUNDING_6DP = 5e-7 + 1e-12  # largest error of a value printed with 6 decimals


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def _count(share: float, total: int, what: str, errors: list) -> int:
    """The integer count behind a printed share of ``total``."""
    count = round(share * total)
    if abs(share - count / total) > ROUNDING_6DP:
        errors.append(f"{what} {share} is not a count over {total}")
    return count


def check_metrics(path, pairs, test_pos: int, test_neg: int):
    """Check metrics.csv; returns (errors, {(mode, model): printed auc_roc}).

    Recall and specificity must be counts over the test split's positives and
    negatives; accuracy and precision are recomputed exactly from those
    counts, and F1 from the row's printed precision and recall.
    """
    errors, aucs = [], {}
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != METRICS_HEADER:
        return [f"{path}: header {rows[:1]} != {METRICS_HEADER}"], aucs
    if [tuple(r[:2]) for r in rows[1:]] != list(pairs):
        return [f"{path}: rows {[tuple(r[:2]) for r in rows[1:]]} != pairs {pairs}"], aucs
    for row in rows[1:]:
        tag = f"{Path(path).name} {row[0]}/{row[1]}"
        try:
            acc_pct, recall, precision, f1, spec, auc = (float(v) for v in row[2:])
        except ValueError:
            errors.append(f"{tag}: non-numeric cell in {row}")
            continue
        if not all(map(math.isfinite, (acc_pct, recall, precision, f1, spec, auc))):
            errors.append(f"{tag}: non-finite value in {row}")
            continue
        tp = _count(recall, test_pos, f"{tag}: recall", errors)
        tn = _count(spec, test_neg, f"{tag}: specificity", errors)
        fp = test_neg - tn
        accuracy = (tp + tn) / (test_pos + test_neg)
        if f"{accuracy * 100.0:.2f}" != row[2]:
            errors.append(f"{tag}: accuracy_pct {row[2]} != {accuracy * 100.0:.2f} "
                          f"from recall and specificity")
        if f"{_ratio(tp, tp + fp):.6f}" != row[4]:
            errors.append(f"{tag}: precision {row[4]} != {_ratio(tp, tp + fp):.6f} "
                          f"from {tp} tp, {fp} fp")
        expected_f1 = _ratio(2.0 * precision * recall, precision + recall)
        if abs(expected_f1 - f1) > 6 * ROUNDING_6DP:
            errors.append(f"{tag}: f1 {f1} != {expected_f1:.6f} from precision and recall")
        if not 0.0 <= auc <= 1.0:
            errors.append(f"{tag}: auc_roc {auc} outside [0, 1]")
        aucs[(row[0], row[1])] = auc
    return errors, aucs


def check_roc(path, test_pos: int, test_neg: int, auc: float):
    """An ROC file runs (0,0) -> (1,1), never decreases, sits on the count
    grid of the test split, and its trapezoid area is the reported AUC."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "fpr,tpr":
        return [f"{path}: header {lines[:1]} != ['fpr,tpr']"]
    counts = []
    for i, line in enumerate(lines[1:], start=2):
        try:
            fpr, tpr = (float(v) for v in line.split(","))
        except ValueError:
            return [f"{path}:{i}: malformed point {line!r}"]
        fp, tp = fpr * test_neg, tpr * test_pos
        if abs(fp - round(fp)) > 1e-4 or abs(tp - round(tp)) > 1e-4:
            return [f"{path}:{i}: point {line} is not on the 1/{test_neg} x "
                    f"1/{test_pos} grid"]
        counts.append((round(fp), round(tp)))
    if len(counts) < 2 or counts[0] != (0, 0) or counts[-1] != (test_neg, test_pos):
        return [f"{path}: curve does not run from (0,0) to (1,1)"]
    twice_area = 0
    for (fp0, tp0), (fp1, tp1) in zip(counts, counts[1:]):
        if fp1 < fp0 or tp1 < tp0:
            return [f"{path}: curve goes backwards at ({fp1}/{test_neg}, {tp1}/{test_pos})"]
        twice_area += (fp1 - fp0) * (tp1 + tp0)
    area = twice_area / (2 * test_neg * test_pos)
    if abs(area - auc) > ROUNDING_6DP:
        return [f"{path}: trapezoid area {area:.9f} != auc_roc {auc}"]
    return []


def check_run_outputs(out_dir, workload):
    """metrics.csv plus one ROC file per requested (mode, model) pair."""
    out_dir = Path(out_dir)
    split = workload.split
    test_neg = split.test_size - split.test_pos
    errors, aucs = check_metrics(out_dir / "metrics.csv", workload.pairs,
                                 split.test_pos, test_neg)
    for (mode, model), auc in aucs.items():
        errors += check_roc(out_dir / f"roc_{mode}_{model}.csv", split.test_pos,
                            test_neg, auc)
    if "gan" in workload.modes:
        errors += check_gan_log(out_dir / "gan_training_log.csv", workload.gan_epochs)
    return errors


def check_samples(path, n_rows: int, n_features: int):
    """generated_samples.csv holds n rows x d columns, each strictly in (0, 1)."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        expected = ",".join(f"f{i}" for i in range(n_features))
        if header != expected:
            return [f"{path}: header {header!r} != {expected!r}"]
        try:
            values = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            return [f"{path}: unparsable samples: {exc}"]
    if values.shape != (n_rows, n_features):
        return [f"{path}: shape {values.shape} != {(n_rows, n_features)}"]
    outside = int(np.sum(~((values > 0.0) & (values < 1.0))))
    if outside:
        return [f"{path}: {outside} values not strictly inside (0, 1)"]
    return []


def check_gan_log(path, epochs: int):
    """One row per epoch, epochs 1..E in order, finite losses, accuracy in [0, 1]."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != GAN_LOG_HEADER:
        return [f"{path}: header {lines[:1]} != [{GAN_LOG_HEADER!r}]"]
    if len(lines) - 1 != epochs:
        return [f"{path}: {len(lines) - 1} rows for {epochs} epochs"]
    for epoch, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        try:
            values = [float(v) for v in cells[1:]]
            ok = (len(cells) == 4 and int(cells[0]) == epoch
                  and all(map(math.isfinite, values))
                  and values[0] >= 0 and values[1] >= 0 and 0 <= values[2] <= 1)
        except ValueError:
            ok = False
        if not ok:
            return [f"{path}: bad row for epoch {epoch}: {line!r}"]
    return []


def check_synth_outputs(out_dir, workload):
    out_dir = Path(out_dir)
    return (check_samples(out_dir / "generated_samples.csv", workload.synth_n,
                          workload.table.n_features)
            + check_gan_log(out_dir / "gan_training_log.csv", workload.gan_epochs))


def check_outputs(out_dir, workload):
    if workload.command == "run":
        return check_run_outputs(out_dir, workload)
    return check_synth_outputs(out_dir, workload)


def check_trace_facts(facts: dict, workload):
    """Facts the traced run captured inside the pipeline.

    dedup must remove exactly the planted copies, the split must have its
    exact per-class counts, the Adam update count must follow from the
    configured epochs and batch counts, and every AUC must equal the
    Mann-Whitney U statistic over P*N computed by scipy on the same scores
    and labels.
    """
    table, split = workload.table, workload.split
    errors = []
    expected_dedup = [[table.n_rows, table.n_rows - table.duplicates]]
    if facts.get("dedup") != expected_dedup:
        errors.append(f"dedup rows in/out {facts.get('dedup')} != {expected_dedup}")
    expected_split = [[split.train_size, split.train_pos, split.test_size, split.test_pos]]
    if facts.get("split") != expected_split:
        errors.append(f"split size/positives {facts.get('split')} != {expected_split}")
    steps = sum(facts.get("steps.logreg", []) + facts.get("steps.mlp", []))
    steps += 2 * sum(facts.get("gan_epochs", []))  # one update per side per epoch
    if facts.get("adam_steps") != steps:
        errors.append(f"{facts.get('adam_steps')} Adam updates, expected {steps} from "
                      f"the configured epochs and batch counts")
    auc_pairs = facts.get("auc_vs_mann_whitney", [])
    if len(auc_pairs) != len(workload.pairs):
        errors.append(f"{len(auc_pairs)} AUCs checked for {len(workload.pairs)} pairs")
    for auc, u_share in auc_pairs:
        if abs(auc - u_share) > 1e-9:
            errors.append(f"roc_auc {auc!r} != Mann-Whitney U/(P*N) {u_share!r}")
    return errors


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def tree_digest(root) -> str:
    """sha256 over every file under ``root``, names included, in sorted order."""
    h = hashlib.sha256()
    root = Path(root)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if "__pycache__" in path.parts:
            continue
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class DigestStore:
    """Output digests of earlier invocations, keyed by workload and the
    digests of the input file and of the program's source: two runs of the
    same code on the same input must write byte-identical files."""

    def __init__(self, path):
        self.path = Path(path)
        self.known = json.loads(self.path.read_text()) if self.path.exists() else {}

    def check(self, key: str, out_dir) -> list:
        errors = []
        for path in sorted(Path(out_dir).iterdir()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            seen = self.known.setdefault(f"{key}:{path.name}", digest)
            if seen != digest:
                errors.append(f"{path.name} differs from an earlier run of the same "
                              f"code and seed")
        self.path.write_text(json.dumps(self.known, indent=0, sort_keys=True))
        return errors
