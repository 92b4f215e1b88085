"""Command-line entry point.

Subcommands:

* ``train``      — synthetic data, one training run, artifacts to --out
* ``eval``       — score an external prediction log, optional diagram
* ``compare``    — markdown comparison table over finished run dirs
* ``diagram``    — reliability diagram from a prediction log
* ``experiment`` — vanilla / curriculum / fixed arms from one seed + table

Every output directory gets a ``run.json`` manifest holding the fully
resolved configuration (without output paths, so reruns into different
directories stay byte-comparable); standalone SVG outputs get a manifest
beside them. Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

if __name__ == "__main__":  # python -m calibkit.cli: before numpy loads, as in calibkit._main
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .data import Dataset, LogFormat, SplitSpec, gen_synthetic, load_predictions, split
from .errors import DomainError, _count, _real
from .losses import IndicatorVariant, LossConfig, auto_gamma, softmax
from .metrics import ClassificationReport, Predictions, build_reliability_table
from .reporting import comparison_table, render_reliability_svg, save_predictions
from .training import TrainConfig, TrainingMode, evaluate, forward, train, train_arms

_VARIANTS = {
    "max-prob": IndicatorVariant.MAX_PROB,
    "true-class": IndicatorVariant.TRUE_CLASS_PROB,
}

# The flag that sets each field a DomainError can name.
_FLAGS = {
    "k": "--classes", "n_per_class": "--per-class", "dim": "--dim", "overlap": "--overlap",
    "ratios": "--split", "seed": "--seed", "total_epochs": "--epochs",
    "batch_size": "--batch-size", "learning_rate": "--lr", "hidden_dim": "--hidden-dim",
    "eval_bins": "--bins-eval", "m_train": "--bins-train", "gamma_e": "--gamma", "s_e": "--se",
    "bin count": "--bins",
}


def _parse_gamma(text: str):
    if text.lower() == "auto":
        return None
    return float(text)  # ValueError -> argparse usage error


def _parse_ratios(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"need three comma-separated ratios, got {text!r}")
    return tuple(float(p) for p in parts)


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("CALIB_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise DomainError(f"CALIB_SEED must be an integer, got {env!r}") from None
        try:
            return _count(seed, "seed", 0)
        except DomainError as exc:  # with its field, run_cli would name --seed
            raise DomainError(f"CALIB_SEED: {exc}") from None
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calibkit", description="Calibration-aware training and evaluation toolkit."
    )
    parser.add_argument("--version", action="version", version=f"calibkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    data = common.add_argument_group("data")
    data.add_argument("--data", choices=["synth"], default="synth")
    data.add_argument("--classes", type=int, default=4)
    data.add_argument("--per-class", type=int, default=500)
    data.add_argument("--dim", type=int, default=8)
    data.add_argument("--overlap", type=float, default=1.5)
    data.add_argument("--split", type=_parse_ratios, default=(0.7, 0.2, 0.1),
                      metavar="TR,VA,TE")
    opt = common.add_argument_group("optimization")
    opt.add_argument("--gamma", type=_parse_gamma, default=None, metavar="{auto|X}",
                     help="calibration weight gamma_E; 'auto' balances it "
                          "against the NLL measured in a one-epoch warm pass")
    opt.add_argument("--se", type=int, default=0, metavar="E",
                     help="epoch at which the curriculum ramp starts")
    opt.add_argument("--epochs", type=int, default=50)
    opt.add_argument("--lr", type=float, default=0.001)
    opt.add_argument("--batch-size", type=int, default=32)
    opt.add_argument("--hidden-dim", type=int, default=16,
                     help="0 trains a linear model")
    opt.add_argument("--bins-train", type=int, default=10, metavar="M")
    opt.add_argument("--bins-eval", type=int, default=15, metavar="M")
    opt.add_argument("--variant", choices=sorted(_VARIANTS), default="max-prob",
                     help="which probability the smoothed correctness uses")
    opt.add_argument("--seed", type=int, default=None,
                     help="falls back to $CALIB_SEED, then 0")

    p_train = sub.add_parser("train", parents=[common],
                             help="train one model on synthetic data")
    p_train.add_argument("--mode", choices=sorted(m.value for m in TrainingMode),
                         default="curriculum")
    p_train.add_argument("--out", required=True, metavar="DIR")
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="score an external prediction log")
    p_eval.add_argument("--predictions", required=True, metavar="FILE")
    p_eval.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p_eval.add_argument("--bins", type=int, default=15, metavar="M")
    p_eval.add_argument("--diagram", metavar="OUT.svg")
    p_eval.set_defaults(func=_cmd_eval)

    p_cmp = sub.add_parser("compare", help="markdown table over finished runs")
    p_cmp.add_argument("run_dirs", nargs="+", metavar="RUN_DIR")
    p_cmp.set_defaults(func=_cmd_compare)

    p_dia = sub.add_parser("diagram", help="reliability diagram from a log")
    p_dia.add_argument("--predictions", required=True, metavar="FILE")
    p_dia.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p_dia.add_argument("--bins", type=int, default=15, metavar="M")
    p_dia.add_argument("--out", required=True, metavar="OUT.svg")
    p_dia.set_defaults(func=_cmd_diagram)

    p_exp = sub.add_parser("experiment", parents=[common],
                           help="vanilla/curriculum/fixed arms plus comparison")
    p_exp.add_argument("--out", required=True, metavar="DIR")
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")


def _prepare_splits(args, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    dataset = gen_synthetic(args.classes, args.per_class, args.dim, args.overlap, seed)
    return split(dataset, SplitSpec(ratios=args.split, seed=seed))


def _resolve_config(args, seed: int, mode: TrainingMode, train_set: Dataset,
                    val_set: Dataset) -> tuple[TrainConfig, str]:
    """The run's config, checked before any training, and its gamma's
    source: 'auto' sets gamma_e to balance the epoch-0 losses of a
    one-epoch vanilla pass of the same run."""
    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        seed=seed,
        loss=LossConfig(gamma_e=1.0 if args.gamma is None else args.gamma,
                        s_e=args.se, total_epochs=args.epochs,
                        m_train=args.bins_train,
                        indicator_variant=_VARIANTS[args.variant]),
        mode=mode,
        hidden_dim=args.hidden_dim,
        eval_bins=args.bins_eval,
    )
    if args.gamma is not None:
        return config, "explicit"
    warm = replace(config, epochs=1, mode=TrainingMode.VANILLA_NLL,
                   loss=replace(config.loss, s_e=0, total_epochs=1))
    first = train(train_set, val_set, warm)[1].epochs[0]
    loss = replace(config.loss, gamma_e=auto_gamma(first.nll, first.soft_ece))
    return replace(config, loss=loss), "auto"


def _manifest(args, *, command: str, seed: int, mode: str | None,
              gamma_value: float, gamma_source: str) -> dict:
    return {
        "version": __version__,
        "command": command,
        "seed": seed,
        "data": {
            "source": args.data,
            "classes": args.classes,
            "per_class": args.per_class,
            "dim": args.dim,
            "overlap": args.overlap,
        },
        "split": {"ratios": list(args.split), "seed": seed},
        "train": {
            "mode": mode,
            "epochs": args.epochs,
            "batch_size": args.batch_size,
            "learning_rate": args.lr,
            "hidden_dim": args.hidden_dim,
            "eval_bins": args.bins_eval,
        },
        "loss": {
            "gamma_e": gamma_value,
            "gamma_source": gamma_source,
            "s_e": args.se,
            "m_train": args.bins_train,
            "indicator_variant": args.variant,
        },
    }


def _report_section(report: ClassificationReport, ece_value: float) -> dict:
    return {
        "macro_precision": report.macro_precision,
        "macro_recall": report.macro_recall,
        "macro_f1": report.macro_f1,
        "accuracy": report.accuracy,
        "ece": ece_value,
        "per_class": [
            {"precision": p, "recall": r, "f1": f} for p, r, f in report.per_class
        ],
    }


def _write_arm(args, trained, test_set: Dataset, out_dir: Path,
               manifest: dict) -> tuple[ClassificationReport, float]:
    """Write one trained arm's artifact set, return (test report, test ECE)."""
    params, report = trained
    preds = Predictions(softmax(forward(params, test_set.features)), test_set.labels)
    test_report, test_ece, table = evaluate(preds, args.bins_eval)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "run.json", manifest)
    epochs = []
    for stat in report.epochs:
        row = asdict(stat)
        row.pop("seconds")  # wall time would break byte-determinism
        epochs.append(row)
    _write_json(out_dir / "report.json", {
        "epochs": epochs,
        "eval_bins": args.bins_eval,
        "val": _report_section(report.final_report, report.final_ece),
        "test": _report_section(test_report, test_ece),
    })
    render_reliability_svg(table, out_dir / "reliability.svg")
    save_predictions(preds, out_dir / "predictions.jsonl", LogFormat.JSONL)
    return test_report, test_ece


def _cmd_train(args) -> int:
    seed = _resolve_seed(args.seed)
    train_set, val_set, test_set = _prepare_splits(args, seed)
    config, gamma_source = _resolve_config(args, seed, TrainingMode.from_name(args.mode),
                                           train_set, val_set)
    gamma_value = config.loss.gamma_e
    out_dir = Path(args.out)
    manifest = _manifest(args, command="train", seed=seed, mode=args.mode,
                         gamma_value=gamma_value, gamma_source=gamma_source)
    trained = train(train_set, val_set, config)
    del train_set, val_set  # only the test split is needed from here on
    test_report, test_ece = _write_arm(args, trained, test_set, out_dir, manifest)
    print(f"mode: {args.mode}")
    print(f"gamma_e: {gamma_value:.6f} ({gamma_source})")
    print(f"test accuracy: {test_report.accuracy:.4f}")
    print(f"test ece (M = {args.bins_eval}): {test_ece:.6f}")
    print(f"artifacts: {out_dir}")
    return 0


def _load_log(args) -> Predictions:
    """The log named by ``--predictions``; a bad ``--bins`` fails before the parse."""
    _count(args.bins, "bin count", 1)
    return load_predictions(args.predictions, LogFormat.from_name(args.format))


def _cmd_eval(args) -> int:
    preds = _load_log(args)
    report, ece_value, table = evaluate(preds, args.bins)
    print(f"n: {preds.labels.shape[0]}")
    print(f"accuracy: {report.accuracy:.4f}")
    print(f"macro_precision: {report.macro_precision:.4f}")
    print(f"macro_recall: {report.macro_recall:.4f}")
    print(f"macro_f1: {report.macro_f1:.4f}")
    print(f"ece (M = {args.bins}): {ece_value:.6f}")
    if args.diagram:
        _write_diagram(args, table, Path(args.diagram), "eval")
    return 0


def _cmd_diagram(args) -> int:
    preds = _load_log(args)
    _write_diagram(args, build_reliability_table(preds, args.bins), Path(args.out), "diagram")
    return 0


def _write_diagram(args, table, out: Path, command: str) -> None:
    """Write the SVG and, beside it, a manifest naming the log it came from."""
    out.parent.mkdir(parents=True, exist_ok=True)
    render_reliability_svg(table, out)
    _write_json(out.with_suffix(".run.json"), {
        "version": __version__,
        "command": command,
        "predictions": str(args.predictions),
        "format": args.format,
        "bins": args.bins,
    })
    print(f"diagram: {out}")


def _metric(section: dict, name: str, where: str = "") -> float:
    # JSON true/false load as bool, and NaN/Infinity as float: the scalar rule rejects them.
    return _real(section[name], f"{where}{name}")


def _cmd_compare(args) -> int:
    entries = []
    for run_dir in args.run_dirs:
        path = Path(run_dir) / "report.json"
        if not path.is_file():
            raise DomainError(f"no report.json under {run_dir}")
        try:
            test = json.loads(path.read_text(encoding="utf-8"))["test"]
            report = ClassificationReport(
                per_class=tuple(
                    tuple(_metric(c, key, f"per_class[{i}].")
                          for key in ("precision", "recall", "f1"))
                    for i, c in enumerate(test["per_class"])
                ),
                macro_precision=_metric(test, "macro_precision"),
                macro_recall=_metric(test, "macro_recall"),
                macro_f1=_metric(test, "macro_f1"),
                accuracy=_metric(test, "accuracy"),
            )
            test_ece = _metric(test, "ece")
        except (ValueError, KeyError, TypeError, RecursionError) as exc:  # RecursionError: deep nesting
            raise DomainError(
                f"report.json under {run_dir} is not a calibkit report "
                f"({type(exc).__name__}: {exc})"
            ) from None
        entries.append((Path(run_dir).name, report, test_ece))
    print(comparison_table(entries), end="")
    return 0


def _cmd_experiment(args) -> int:
    seed = _resolve_seed(args.seed)
    train_set, val_set, test_set = _prepare_splits(args, seed)
    modes = list(TrainingMode)  # vanilla, curriculum, fixed
    config, gamma_source = _resolve_config(args, seed, modes[0], train_set, val_set)
    gamma_value = config.loss.gamma_e
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    arms = train_arms(train_set, val_set, [replace(config, mode=mode) for mode in modes])
    del train_set, val_set  # only the test split is needed from here on
    entries = []
    for mode, trained in zip(modes, arms):
        name = mode.value
        manifest = _manifest(args, command="experiment", seed=seed, mode=name,
                             gamma_value=gamma_value, gamma_source=gamma_source)
        test_report, test_ece = _write_arm(args, trained, test_set, out_dir / name, manifest)
        entries.append((name, test_report, test_ece))
        print(f"{name}: accuracy {test_report.accuracy:.4f}, ece {test_ece:.6f}")
    table_md = comparison_table(entries)
    (out_dir / "comparison.md").write_text(table_md, encoding="utf-8", newline="\n")
    _write_json(out_dir / "run.json", _manifest(
        args, command="experiment", seed=seed, mode=None,
        gamma_value=gamma_value, gamma_source=gamma_source))
    print(table_md, end="")
    return 0


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except DomainError as exc:
        flag = _FLAGS.get(exc.field)
        print(f"error: {f'{flag}: ' if flag else ''}{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the array's size and shape
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
