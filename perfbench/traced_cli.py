"""Run the ganbalance CLI with every layer boundary traced.

    PYTHONPATH=src python perfbench/traced_cli.py TRACE.json -- run --data ...

Wraps the public functions of each ganbalance module, runs ``cli.main`` on
the arguments after ``--``, and writes TRACE.json with, per wrapped function,
its call count, total time and self time (duration minus the time its
wrapped children cover), the spans of the coarse layers, and facts that the
benchmark checks (dedup and split row counts, minibatch and Adam update
counts, AUC against scipy's Mann-Whitney U).  Exits with the CLI's exit code.

Spans of ``nn`` and ``kernels`` are aggregated as they close rather than
kept: the desk workload makes over a million of them.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

MODULES = ("data", "augment", "gan", "classifiers", "metrics", "experiment", "nn",
           "kernels", "cli")
AGGREGATED_LAYERS = {"nn", "kernels"}
# Called from inside nn.forward/init_state; wrapping them would move the
# per-call validation cost out of forward's self time.
UNWRAPPED = {"nn.validate_spec", "nn.dense", "nn.relu", "nn.sigmoid", "nn.softmax",
             "nn.batchnorm", "nn.dropout"}


class Tracer:
    def __init__(self):
        self.stack = []  # [layer, covered_by_children, span_index]
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.spans = []  # [name, start, end, parent_span_index]
        self.facts = defaultdict(list)
        self.roc_inputs = []

    def wrap(self, name, fn, after=None):
        layer = name.split(".")[0]
        keep_span = layer not in AGGREGATED_LAYERS
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = -1
            if keep_span:
                parent = next((f[2] for f in reversed(stack) if f[2] >= 0), -1)
                span = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            frame = [layer, 0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep_span:
                    spans[span][1:3] = start, end
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self, package):
        """Wrap every public function of each module, then rebind references
        to the originals that other modules captured at import time (module
        attributes and dict values such as experiment._TRAINERS)."""
        from ganbalance import classifiers

        after = {
            "data.load_csv": lambda a, r: self.facts["rows_loaded"].append(r.n_rows),
            "data.dedup": lambda a, r: self.facts["dedup"].append(
                [a[0].n_rows, r.n_rows]),
            "data.stratified_split": lambda a, r: self.facts["split"].append(
                [len(r[0].labels), r[0].positive_count,
                 len(r[1].labels), r[1].positive_count]),
            "metrics.roc_auc": lambda a, r: self.roc_inputs.append(
                (a[0].copy(), a[1].copy(), r[1])),
            "gan.train_gan": lambda a, r: self.facts["gan_epochs"].append(a[1].epochs),
            "kernels.dense_forward": lambda a, r: self._flops(
                2 * a[0].shape[0] * a[1].size),
            "kernels.dense_backward": lambda a, r: self._flops(
                4 * a[0].shape[0] * a[2].size),
        }
        for model, default in (("svm", classifiers.SVM_EPOCHS),
                               ("logreg", classifiers.LOGREG_EPOCHS),
                               ("mlp", classifiers.MLP_EPOCHS)):
            after[f"classifiers.train_{model}"] = functools.partial(
                self._steps, model, default)

        modules = {m: getattr(package, m) for m in MODULES}
        replaced = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or not inspect.isfunction(obj) or obj.__module__ != module.__name__):
                    continue
                wrapped = self.wrap(name, obj, after.get(name))
                setattr(module, attr, wrapped)
                replaced.setdefault(id(obj), wrapped)
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and id(obj) in replaced
                        and obj.__module__ != module.__name__):
                    setattr(module, attr, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if id(value) in replaced:
                            obj[key] = replaced[id(value)]

    def _flops(self, n):
        self.facts.setdefault("dense_flops", [0])[0] += n

    def _steps(self, model, default_epochs, args, result):
        data, config = args[0], args[1]
        epochs = config.epochs or default_epochs
        steps = epochs * math.ceil(len(data.labels) / config.batch_size)
        self.facts[f"steps.{model}"].append(steps)

    def check_aucs(self):
        """AUC of every scored pair against scipy's Mann-Whitney U / (P*N)."""
        from scipy.stats import mannwhitneyu

        for labels, scores, auc in self.roc_inputs:
            pos, neg = scores[labels == 1], scores[labels == 0]
            u = mannwhitneyu(pos, neg, alternative="two-sided").statistic
            self.facts["auc_vs_mann_whitney"].append([auc, float(u) / (len(pos) * len(neg))])


def main(argv):
    trace_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py TRACE.json -- CLI ARGS...")
    import ganbalance
    from ganbalance import cli

    tracer = Tracer()
    tracer.install(ganbalance)
    code = cli.main(cli_args)
    tracer.check_aucs()
    tracer.facts["adam_steps"] = tracer.stats["nn.adam_step"][0]
    with open(trace_path, "w") as fh:
        json.dump({"stats": tracer.stats, "spans": tracer.spans, "facts": tracer.facts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
