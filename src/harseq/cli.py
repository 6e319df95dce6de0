"""Command-line interface: data preparation, training, evaluation, suites.

Exit codes: 0 success, 1 validation/config error, 2 runtime/numeric error.
Diagnostics go to stderr; machine-readable outputs go to files (the one
exception is `predict`, which prints one label name per window so the tool
composes in shell pipelines). All randomness funnels through --seed.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from .data import (
    Dataset,
    SyntheticSpec,
    compute_normalization_stats,
    generate_synthetic,
    load_dataset,
    load_dataset_cache,
    normalize,
    save_dataset_cache,
)
from .errors import InvariantError, NumericError, ValidationError
from .experiment import (
    TrainConfig,
    evaluate,
    export_features,
    predict_classes,
    run_downsample_suite,
    run_fewshot_suite,
    train_share,
    train_vanilla,
    write_confusion_csv,
    write_records_json,
    write_summary_csv,
)
from .labelspace import (
    apply_label_map,
    build_label_space,
    load_class_names,
    load_label_map,
    load_stop_tokens,
)
from .model import load_model, save_model


class UsageError(ValidationError):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text):
    """argparse type for counts such as --stride: 0 and negatives are usage errors."""
    message = f"expected a positive integer, got {text!r}"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if value < 1:
        raise argparse.ArgumentTypeError(message)
    return value


CONFIG_KEYS = {
    "epochs": int,
    "batch_size": int,
    "learning_rate": float,
    "p_aug": float,
    "val_fraction": float,
    "seed": int,
    "embedding_path": str,
    "label_map_path": str,
    "stop_tokens_path": str,
    "conv_channels": "channels",
    "hidden_dim": int,
    "embed_dim": int,
    "retrain_full": bool,
}


def _parse_channels(text):
    try:
        parts = tuple(int(p) for p in str(text).split(",") if p.strip())
    except ValueError:
        raise ValidationError(f"conv_channels must be comma-separated integers, got {text!r}")
    return parts


def _coerce(key, raw):
    kind = CONFIG_KEYS[key]
    if kind == "channels":
        return _parse_channels(raw)
    if kind is bool:
        lowered = str(raw).strip().lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ValidationError(f"config key {key!r} expects a boolean, got {raw!r}")
    if kind is str:
        return None if str(raw).strip().lower() == "none" else str(raw).strip()
    try:
        return kind(raw)
    except ValueError:
        raise ValidationError(f"config key {key!r} expects {kind.__name__}, got {raw!r}")


def resolve_config(config_file, flag_values: dict) -> TrainConfig:
    """Built-in defaults < config file (`key = value` lines) < CLI flags."""
    values = TrainConfig().as_dict()
    values["conv_channels"] = tuple(values["conv_channels"])
    if config_file:
        unknown = []
        with open(config_file, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ValidationError(f"{config_file}:{lineno}: expected `key = value`")
                key, _, raw = stripped.partition("=")
                key = key.strip()
                if key not in CONFIG_KEYS:
                    unknown.append(key)
                    continue
                values[key] = _coerce(key, raw.strip())
        if unknown:
            raise ValidationError(f"{config_file}: unknown config keys: {unknown!r}")
    for key, value in flag_values.items():
        if value is not None:
            values[key] = _coerce(key, value) if key == "conv_channels" else value
    return TrainConfig(**values)


def _add_config_flags(parser):
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--batch-size", type=int, dest="batch_size", default=None)
    parser.add_argument("--lr", type=float, dest="learning_rate", default=None)
    parser.add_argument("--p-aug", type=float, dest="p_aug", default=None)
    parser.add_argument("--val-fraction", type=float, dest="val_fraction", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--embeddings", dest="embedding_path", default=None,
                        help="pretrained word-vector file for the decoder embeddings")
    parser.add_argument("--label-map", dest="label_map_path", default=None,
                        help="tab-separated original<TAB>generated class renames")
    parser.add_argument("--stop-tokens", dest="stop_tokens_path", default=None,
                        help="file with one stop token per line")
    parser.add_argument("--conv-channels", dest="conv_channels", default=None,
                        help="two comma-separated conv widths, e.g. 64,128")
    parser.add_argument("--hidden-dim", type=int, dest="hidden_dim", default=None)
    parser.add_argument("--embed-dim", type=int, dest="embed_dim", default=None)
    parser.add_argument("--retrain-full", dest="retrain_full", action="store_const",
                        const=True, default=None,
                        help="after selection, retrain on train+val for the best epoch count")


def _config_from_args(args) -> TrainConfig:
    flags = {key: getattr(args, key, None) for key in CONFIG_KEYS}
    return resolve_config(args.config, flags)


def _load_labeled(data_path, labels_path, window, stride) -> Dataset:
    if str(data_path).endswith(".nkc"):
        return load_dataset_cache(data_path)
    if labels_path is None:
        raise UsageError("--labels is required for CSV inputs")
    if window is None:
        raise UsageError("--window is required for CSV inputs")
    return load_dataset(data_path, labels_path, window, window if stride is None else stride)


def _load_unlabeled_windows(data_path, window, stride):
    """Window a CSV on subject changes only; the label column is ignored."""
    if str(data_path).endswith(".nkc"):
        ds = load_dataset_cache(data_path)
        x, _ = ds.stacked()
        return x
    windows = []
    with open(data_path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        v = len(header) - 3
        run_rows, run_subject = [], None

        def flush():
            if len(run_rows) < window:
                return
            arr = np.array(run_rows, dtype=np.float64).T
            for start in range(0, arr.shape[1] - window + 1, stride):
                windows.append(arr[:, start:start + window].copy())

        for row in reader:
            if not row:
                continue
            if row[0] != run_subject:
                flush()
                run_rows, run_subject = [], row[0]
            run_rows.append([float(cell) for cell in row[3:3 + v]])
        flush()
    return np.stack(windows) if windows else np.zeros((0, v, window))


def _space_for(label_names, config: TrainConfig):
    names = list(label_names)
    if config.label_map_path:
        names = apply_label_map(names, load_label_map(config.label_map_path))
    stop = load_stop_tokens(config.stop_tokens_path) if config.stop_tokens_path else ()
    return build_label_space(names, stop)


def _manifest_stats(manifest):
    from .data import NormalizationStats

    norm = manifest.get("normalization")
    if norm is None:
        raise ValidationError("model manifest has no normalization statistics")
    return NormalizationStats(mean=np.array(norm["mean"]), std=np.array(norm["std"]))


def cmd_synth(args) -> int:
    per_class = _parse_channels(args.per_class)
    if len(per_class) != args.classes:
        raise ValidationError(
            f"--per-class lists {len(per_class)} counts for {args.classes} classes")
    if args.shared_actions < 1 or args.shared_actions > args.classes:
        raise ValidationError("--shared-actions must lie in [1, classes]")
    class_defs = tuple((i % args.shared_actions, i) for i in range(args.classes))
    train_spec = SyntheticSpec(class_defs=class_defs, samples_per_class=per_class,
                               noise_std=args.noise, timesteps=args.timesteps,
                               channels=args.channels, seed=args.seed)
    test_spec = SyntheticSpec(class_defs=class_defs,
                              samples_per_class=(args.test_per_class,) * args.classes,
                              noise_std=args.noise, timesteps=args.timesteps,
                              channels=args.channels, seed=args.seed + 1000)
    os.makedirs(args.out, exist_ok=True)
    train = generate_synthetic(train_spec)
    test = generate_synthetic(test_spec)
    save_dataset_cache(train, os.path.join(args.out, "train.nkc"))
    save_dataset_cache(test, os.path.join(args.out, "test.nkc"))
    with open(os.path.join(args.out, "labels.txt"), "w", encoding="utf-8") as f:
        f.write("\n".join(train.label_names) + "\n")
    print(f"wrote {len(train)} train and {len(test)} test windows to {args.out}",
          file=sys.stderr)
    return 0


def cmd_prepare(args) -> int:
    ds = load_dataset(args.data, args.labels, args.window,
                      args.window if args.stride is None else args.stride)
    save_dataset_cache(ds, args.out)
    print(f"cached {len(ds)} windows to {args.out}", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    config = _config_from_args(args)
    dataset = _load_labeled(args.data, args.labels, args.window, args.stride)
    space = _space_for(dataset.label_names, config)
    stats = compute_normalization_stats(dataset)
    dataset = normalize(dataset, stats)
    if args.model_kind == "share":
        model, record = train_share(dataset, space, config)
    else:
        model, record = train_vanilla(dataset, config)
    os.makedirs(args.out, exist_ok=True)
    save_model(model, args.out, normalization=stats,
               extra={"original_label_names": list(dataset.label_names),
                      "window": dataset.window,
                      "stride": dataset.window if args.stride is None else args.stride})
    with open(os.path.join(args.out, "labels.txt"), "w", encoding="utf-8") as f:
        f.write("\n".join(dataset.label_names) + "\n")
    with open(os.path.join(args.out, "run_record.json"), "w", encoding="utf-8") as f:
        f.write(record.to_json())
    print(f"trained {args.model_kind} model for {config.epochs} epochs into {args.out}",
          file=sys.stderr)
    return 0


def _load_run(args):
    model, manifest = load_model(args.model)
    if getattr(args, "labels", None):
        provided = load_class_names(args.labels)
        stored = manifest["extra"]["original_label_names"]
        if provided != stored:
            raise ValidationError(
                "labels file does not match the model's label set: "
                f"{provided!r} vs {stored!r}")
    return model, manifest


def cmd_predict(args) -> int:
    model, manifest = _load_run(args)
    window = manifest["extra"]["window"]
    stride = manifest["extra"]["stride"] if args.stride is None else args.stride
    x = _load_unlabeled_windows(args.data, window, stride)
    if x.shape[0] == 0:
        return 0
    stats = _manifest_stats(manifest)
    x = (x - stats.mean[None, :, None]) / stats.std[None, :, None]
    names = manifest["extra"]["original_label_names"]
    for class_id in predict_classes(model, x):
        print(names[int(class_id)])
    return 0


def cmd_eval(args) -> int:
    model, manifest = _load_run(args)
    labels_path = args.labels or os.path.join(args.model, "labels.txt")
    window = manifest["extra"]["window"]
    stride = manifest["extra"]["stride"] if args.stride is None else args.stride
    dataset = _load_labeled(args.data, labels_path, window, stride)
    dataset = normalize(dataset, _manifest_stats(manifest))
    metrics = evaluate(model, dataset)
    print(f"accuracy {metrics.accuracy:.6f}")
    print(f"macro_f1 {metrics.macro_f1:.6f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "metrics.json"), "w", encoding="utf-8") as f:
            json.dump(metrics.to_dict(), f, sort_keys=True, indent=2)
            f.write("\n")
        write_confusion_csv(metrics, os.path.join(args.out, "confusion.csv"))
    return 0


def cmd_export_features(args) -> int:
    model, manifest = _load_run(args)
    labels_path = args.labels or os.path.join(args.model, "labels.txt")
    window = manifest["extra"]["window"]
    stride = manifest["extra"]["stride"] if args.stride is None else args.stride
    dataset = _load_labeled(args.data, labels_path, window, stride)
    dataset = normalize(dataset, _manifest_stats(manifest))
    export_features(model, dataset, args.out)
    print(f"wrote features for {len(dataset)} windows to {args.out}", file=sys.stderr)
    return 0


def _run_suite(args, suite, values_flag, values_key) -> int:
    config = _config_from_args(args)
    train_ds = _load_labeled(args.train, args.labels, args.window, args.stride)
    test_ds = _load_labeled(args.test, args.labels, args.window, args.stride)
    space = _space_for(train_ds.label_names, config)
    seeds = [int(s) for s in str(args.seeds).split(",") if s.strip()]
    if values_key == "fractions":
        values = [float(s) for s in str(values_flag).split(",") if s.strip()]
    else:
        values = [int(s) for s in str(values_flag).split(",") if s.strip()]
    records = suite(train_ds, test_ds, space, values, seeds, config)
    os.makedirs(args.out, exist_ok=True)
    write_records_json(records, os.path.join(args.out, "records.json"))
    write_summary_csv(records, os.path.join(args.out, "summary.csv"))
    print(f"wrote {len(records)} run records to {args.out}", file=sys.stderr)
    return 0


def cmd_fewshot(args) -> int:
    return _run_suite(args, run_fewshot_suite, args.fractions, "fractions")


def cmd_downsample(args) -> int:
    return _run_suite(args, run_downsample_suite, args.factors, "factors")


def build_parser() -> _Parser:
    parser = _Parser(prog="harseq",
                     description="Activity recognition by decoding label-name sequences")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--shared-actions", type=int, dest="shared_actions", required=True,
                   help="number of distinct action patterns shared across classes")
    p.add_argument("--per-class", dest="per_class", required=True,
                   help="comma-separated train sample counts, one per class")
    p.add_argument("--test-per-class", type=int, dest="test_per_class", default=50)
    p.add_argument("--timesteps", type=int, default=64)
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", help="window a CSV recording into a dataset cache")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--stride", type=_positive_int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model and write a run directory")
    p.add_argument("--data", required=True, help="CSV recording or .nkc dataset cache")
    p.add_argument("--labels", default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--stride", type=_positive_int, default=None)
    p.add_argument("--model-kind", dest="model_kind", choices=("share", "vanilla"),
                   default="share")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="print one predicted label name per window")
    p.add_argument("--model", required=True, help="run directory from `train`")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", default=None,
                   help="optional labels file checked against the model manifest")
    p.add_argument("--stride", type=_positive_int, default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score labeled data with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--stride", type=_positive_int, default=None)
    p.add_argument("--out", default=None, help="directory for metrics.json and confusion.csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-features", help="write encoder features as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--stride", type=_positive_int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_features)

    for name, value_flag, func in (("fewshot", "--fractions", cmd_fewshot),
                                   ("downsample", "--factors", cmd_downsample)):
        p = sub.add_parser(name, help=f"run the {name} protocol suite")
        p.add_argument("--train", required=True)
        p.add_argument("--test", required=True)
        p.add_argument("--labels", default=None)
        p.add_argument("--window", type=int, default=None)
        p.add_argument("--stride", type=_positive_int, default=None)
        p.add_argument(value_flag, dest=value_flag.strip("-"), required=True)
        p.add_argument("--seeds", default="0,1,2,3,4")
        p.add_argument("--out", required=True)
        _add_config_flags(p)
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, InvariantError, RuntimeError, IndexError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
