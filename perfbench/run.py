"""End-to-end and per-layer benchmark of the ganbalance CLI.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout.  The benchmark writes the
workload's input CSV from ``--seed`` (see workloads.py), then:

- ``--trace 0``: runs the CLI back to back, one process at a time (a closed
  loop with one client), for about ``--seconds`` seconds, and reports the
  medians of wall time, CPU time and peak RSS per invocation.  Probe
  processes before and after the loop time the CLI's set-up.
- ``--trace 1``: runs the CLI once untraced and once under traced_cli.py,
  and reports per-layer times and counts from the trace, plus the
  microbenchmark of microbench.py when the workload trains networks.

Every invocation's output files are checked (checks.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Working files live in .perfbench_work/ under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS, write_input

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 8  # half before the invocations, half after
PROBE_CODE = "import numpy, ganbalance.cli, time; print(time.monotonic())"

KERNELS = ("dense_forward", "dense_backward", "relu_forward", "relu_backward",
           "sigmoid_forward", "sigmoid_backward", "softmax_forward",
           "batchnorm_train_forward", "batchnorm_infer_forward", "batchnorm_backward",
           "adam_update", "split_scan")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def ensure_input(workload, seed: int) -> Path:
    """The workload's input CSV for this seed, generated once per seed."""
    folder = WORK / "input"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{workload.table.name}-{seed}.csv"
    if not path.exists():
        for stale in folder.glob(f"{workload.table.name}-*.csv"):
            stale.unlink()
        partial = path.with_suffix(".partial")
        write_input(workload, seed, partial)
        partial.rename(path)
    return path


def probe_setup(count: int) -> list:
    """Seconds from launch until numpy and ganbalance.cli are imported, once
    per probe process."""
    samples = []
    for _ in range(count):
        launched = time.monotonic()
        out = subprocess.run([sys.executable, "-c", PROBE_CODE], env=child_env(),
                             cwd=ROOT, capture_output=True, text=True, check=True)
        samples.append(float(out.stdout.strip()) - launched)
    return samples


def invoke(argv: list, log_path: Path) -> dict:
    """Run one child to completion; wall, CPU (user + system, all threads)
    and peak RSS come from wait4 on that child alone."""
    with open(log_path, "w") as log:
        launched = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], env=child_env(), cwd=ROOT,
                                stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - launched
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


class BenchRun:
    """One benchmark run: a workload, its input and the checks on every output."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.data = ensure_input(workload, seed)
        self.out = WORK / "out" / workload.name
        self.digests = checks.DigestStore(WORK / "digests.json")
        self.digest_key = (f"{workload.name}:{checks.file_digest(self.data)}:"
                           f"{checks.tree_digest(SRC)}")
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def cli(self, prefix: list) -> dict | None:
        """Invoke the CLI (behind ``prefix``) once and check its outputs;
        returns the measurements, or None when the invocation failed."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.attempted += 1
        argv = prefix + self.workload.argv(str(self.data), str(self.out))
        result = invoke(argv, WORK / f"{self.workload.name}.log")
        if result["code"] != 0:
            self.failed += 1
            print(f"invocation failed with exit code {result['code']}; see "
                  f"{WORK / (self.workload.name + '.log')}", file=sys.stderr)
            return None
        print(f"{self.workload.name} invocation {self.attempted}: wall {result['wall_s']:.3f} s,"
              f" cpu {result['cpu_s']:.3f} s, peak rss {result['peak_rss_mb']:.1f} MB",
              file=sys.stderr)
        self.errors += checks.check_outputs(self.out, self.workload)
        self.errors += self.digests.check(self.digest_key, self.out)
        return result

    def result(self, metrics: dict) -> dict:
        for error in self.errors:
            print(f"check failed: {error}", file=sys.stderr)
        return {"correct": not self.errors, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def timed(bench: BenchRun, seconds: float) -> dict:
    """Back-to-back untraced invocations; a new one starts only while the
    run's budget still has room for one more at the median length so far."""
    probe_setup(1)  # compiles bytecode in a fresh checkout
    setup = probe_setup(SETUP_PROBES // 2)
    runs = []
    started = time.perf_counter()
    while True:
        result = bench.cli(["-m", "ganbalance.cli"])
        if result is not None:
            runs.append(result)
        elapsed = time.perf_counter() - started
        typical = statistics.median(r["wall_s"] for r in runs) if runs else elapsed
        if elapsed + typical > seconds:
            break
    setup += probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    if not runs:
        raise SystemExit("every invocation failed")
    metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}
    for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
        metrics[name] = {"value": statistics.median(r[name] for r in runs), "unit": unit}
    return bench.result(metrics)


def layer_metrics(trace: dict, untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer figures from the trace; 0 where the layer did not run."""
    stats, facts = trace["stats"], trace["facts"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(*names):
        return sum(stats.get(n, [0, 0.0, 0.0])[1] for n in names)

    def self_s(*names):
        return sum(stats.get(n, [0, 0.0, 0.0])[2] for n in names)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("data.load_csv_s", total("data.load_csv"), "s")
    put("data.load_csv_rows_per_s",
        rate(sum(facts.get("rows_loaded", [])), total("data.load_csv")), "rows/s")
    put("data.dedup_s", total("data.dedup"), "s")
    put("data.split_scale_s", total("data.stratified_split", "data.scale_train_test"), "s")
    put("augment.oversample_s", total("augment.random_oversample"), "s")
    put("augment.gan_augment_s", total("augment.gan_augment"), "s")
    put("gan.train_s", total("gan.train_gan"), "s")
    put("gan.epochs_per_s", rate(sum(facts.get("gan_epochs", [])), total("gan.train_gan")),
        "1/s")
    put("gan.generate_s", total("gan.generate"), "s")
    put("gan.write_samples_s", total("gan.write_samples_csv"), "s")
    put("gan.write_log_s", total("gan.write_log_csv"), "s")
    trainers = {"svm": "train_svm", "dt": "train_tree", "logreg": "train_logreg",
                "mlp": "train_mlp"}
    for model, fn in trainers.items():
        put(f"classifiers.fit_s.{model}", total(f"classifiers.{fn}"), "s")
    for model in ("svm", "logreg", "mlp"):
        put(f"classifiers.steps_per_s.{model}",
            rate(sum(facts.get(f"steps.{model}", [])), total(f"classifiers.{trainers[model]}")),
            "1/s")
    put("classifiers.predict_s", total("classifiers.predict_score"), "s")
    put("nn.forward_calls", calls("nn.forward"), "count")
    put("nn.backward_calls", calls("nn.backward") + calls("nn.backward_from"), "count")
    put("nn.adam_step_calls", calls("nn.adam_step"), "count")
    put("nn.forward_self_s", self_s("nn.forward"), "s")
    put("nn.backward_self_s", self_s("nn.backward", "nn.backward_from"), "s")
    put("nn.adam_step_self_s", self_s("nn.adam_step"), "s")
    nn_names = [n for n in stats if n.startswith("nn.")]
    nn_total = total(*nn_names)
    put("nn.kernel_frac", (nn_total - self_s(*nn_names)) / nn_total if nn_total else 0.0,
        "fraction")
    for k in KERNELS:
        put(f"kernels.{k}.calls", calls(f"kernels.{k}"), "count")
        put(f"kernels.{k}.self_s", self_s(f"kernels.{k}"), "s")
    put("kernels.dense_gflop_per_s",
        rate(facts.get("dense_flops", [0])[0] / 1e9,
             self_s("kernels.dense_forward", "kernels.dense_backward")),
        "GFLOP/s-computed")
    put("metrics.score_s", total("metrics.confusion", "metrics.roc_auc",
                                 "metrics.compute_metrics"), "s")
    put("experiment.emit_outputs_s", total("experiment.emit_outputs"), "s")
    put("experiment.self_s", self_s("experiment.run", "experiment.run_synth"), "s")
    put("trace.overhead_s", traced_wall - untraced_wall, "s")
    return m


def traced(bench: BenchRun) -> dict:
    """One untraced invocation as the baseline, one traced invocation for
    the per-layer figures, then the step microbenchmark if networks ran."""
    baseline = bench.cli(["-m", "ganbalance.cli"])
    trace_path = WORK / f"{bench.workload.name}-trace.json"
    trace_path.unlink(missing_ok=True)
    result = bench.cli([str(HERE / "traced_cli.py"), str(trace_path), "--"])
    if baseline is None or result is None:
        raise SystemExit("the traced run failed")
    trace = json.loads(trace_path.read_text())
    bench.errors += checks.check_trace_facts(trace["facts"], bench.workload)
    metrics = layer_metrics(trace, baseline["wall_s"], result["wall_s"])
    steps = {"mlp": 0.0, "logreg": 0.0, "gan": 0.0}
    if metrics["nn.forward_calls"]["value"]:
        out = subprocess.run([sys.executable, str(HERE / "microbench.py")],
                             env=child_env(), cwd=ROOT, capture_output=True, text=True,
                             check=True)
        steps = json.loads(out.stdout.strip().splitlines()[-1])
    for name, value in steps.items():
        metrics[f"nn.step_us.{name}"] = {"value": value, "unit": "us"}
    return bench.result(metrics)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ganbalance" / "cli.py").is_file():
        print(f"error: {SRC / 'ganbalance' / 'cli.py'} not found; run from the root "
              f"of a ganbalance checkout", file=sys.stderr)
        return 2
    bench = BenchRun(WORKLOADS[args.workload], args.seed)
    result = traced(bench) if args.trace else timed(bench, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
