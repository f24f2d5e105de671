"""Command-line interface.

``ganbalance run`` executes the full comparison (raw / oversample / gan modes
across the four classifiers) and writes metrics.csv plus ROC and GAN-log
files; ``ganbalance synth`` just trains the GAN on the split's minority rows
and dumps generated samples.
"""

from __future__ import annotations

import argparse
import os
import sys

# Before numpy loads: every matrix product here is small, so a second OpenBLAS
# thread adds memory and CPU time rather than speed; it changes no output byte.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from ganbalance import experiment
from ganbalance.data import SplitSpec
from ganbalance.errors import GanBalanceError, RunFailureError
from ganbalance.gan import GanTrainConfig


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="labeled CSV file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--label-column", default="Class",
                        help="name of the 0/1 label column (default: Class)")
    parser.add_argument("--train-size", type=int, default=SplitSpec.train_size)
    parser.add_argument("--test-size", type=int, default=SplitSpec.test_size)
    parser.add_argument("--train-pos", type=int, default=SplitSpec.train_positives,
                        help="positive rows assigned to the training split")
    parser.add_argument("--test-pos", type=int, default=SplitSpec.test_positives,
                        help="positive rows assigned to the test split")
    parser.add_argument("--gan-epochs", type=int, default=GanTrainConfig.epochs)
    parser.add_argument("--gan-lr", type=float, default=GanTrainConfig.learning_rate)
    parser.add_argument("--gan-batch", type=int, default=GanTrainConfig.batch_size)
    parser.add_argument("--gan-log-every", type=int, default=GanTrainConfig.log_every)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ganbalance",
        description="Balance minority-class tabular data with a GAN and "
        "compare downstream classifiers against raw and oversampled training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="full mode/model comparison")
    _add_common(run_p)
    for flag, names in (("--modes", experiment.MODES), ("--models", experiment.MODELS)):
        run_p.add_argument(flag, default=",".join(names), help="comma list from %(default)s")
    run_p.add_argument("--mlp-epochs", type=int, default=None)
    run_p.add_argument("--dump-augmented", action="store_true",
                       help="write the augmented training set(s) with provenance")

    synth_p = sub.add_parser("synth", help="train the GAN and dump samples")
    _add_common(synth_p)
    synth_p.add_argument("--n", type=int, required=True,
                         help="number of rows to generate")
    return parser


def _experiment_config(args) -> experiment.ExperimentConfig:
    split = SplitSpec(
        train_size=args.train_size,
        test_size=args.test_size,
        train_positives=args.train_pos,
        test_positives=args.test_pos,
    )
    kwargs = dict(
        data_path=args.data,
        out_dir=args.out,
        seed=args.seed,
        split=split,
        gan=GanTrainConfig(epochs=args.gan_epochs, learning_rate=args.gan_lr,
                           batch_size=args.gan_batch, log_every=args.gan_log_every),
        label_column=args.label_column,
    )
    if args.command == "run":
        kwargs.update(
            modes=tuple(m.strip() for m in args.modes.split(",") if m.strip()),
            models=tuple(m.strip() for m in args.models.split(",") if m.strip()),
            mlp_epochs=args.mlp_epochs,
            dump_augmented=args.dump_augmented,
        )
    return experiment.ExperimentConfig(**kwargs)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _experiment_config(args)
        if args.command == "run":
            results = experiment.run(config)
            for r in results:
                rep = r.report
                print(
                    f"{r.mode:>10}/{r.model:<6} acc={rep.accuracy * 100.0:6.2f}% "
                    f"recall={rep.recall:.4f} precision={rep.precision:.4f} "
                    f"f1={rep.f1:.4f} auc={rep.auc_roc:.4f} ({r.seconds:.1f}s)"
                )
            print(f"outputs written to {config.out_dir}")
        else:
            experiment.run_synth(config, args.n)
            print(f"wrote {args.n} generated rows to {config.out_dir}/generated_samples.csv")
        return 0
    except RunFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"partial outputs written to {args.out}", file=sys.stderr)
        return 3
    except (GanBalanceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
