"""Command-line interface: data preparation, training, evaluation, suites.

Exit codes: 0 success, 1 validation/config error, 2 runtime/numeric error.
Diagnostics go to stderr; machine-readable outputs go to files (the one
exception is `predict`, which prints one label name per window so the tool
composes in shell pipelines). All randomness funnels through --seed.
"""

import argparse
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .data import (
    Dataset,
    NormalizationStats,
    SyntheticSpec,
    compute_normalization_stats,
    generate_synthetic,
    load_dataset,
    load_dataset_cache,
    normalize,
    read_csv_windows,
    save_dataset_cache,
)
from .errors import (
    DimensionError,
    FormatError,
    InvariantError,
    NumericError,
    ValidationError,
    check_finite_windows,
)
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
    load_label_map,
    load_stop_tokens,
    read_text_lines,
)
from .model import check_manifest, load_model, save_model


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


def _comma_list(convert):
    """argparse type for a comma-separated list such as --seeds 0,1,2; a bad or
    missing item is a usage error naming the flag."""
    def parse(text):
        try:
            values = [convert(item) for item in text.split(",") if item.strip()]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated list of {convert.__name__} values, got {text!r}")
        return values
    return parse


# every training setting and its type, from TrainConfig's fields; conv_channels is
# given as "64,128", and "none" unsets a path
CONFIG_KEYS = {f.name: {tuple: "channels", str | None: str}.get(f.type, f.type)
               for f in fields(TrainConfig)}
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_KIND_NAMES = {bool: "true or false", "channels": "comma-separated integers",
               int: "an integer", float: "a number"}


def _coerce(key, raw):
    """The value of setting `key` from its text, the one parser for flags and
    config lines; a bad value is a ValidationError naming the setting."""
    kind, text = CONFIG_KEYS[key], str(raw).strip()
    if kind is str:
        return None if text.lower() == "none" else text
    try:
        if kind is bool:
            return _BOOLS[text.lower()]
        if kind == "channels":
            return tuple(int(p) for p in text.split(",") if p.strip())
        return kind(text)
    except (KeyError, ValueError):
        raise ValidationError(f"setting {key!r} expects {_KIND_NAMES[kind]}, "
                              f"got {text!r}") from None


def resolve_config(config_file, flag_values: dict) -> TrainConfig:
    """Built-in defaults < config file (`key = value` lines) < CLI flags, each
    value read by `_coerce`."""
    values = TrainConfig().as_dict()
    values["conv_channels"] = tuple(values["conv_channels"])
    if config_file:
        unknown = []
        for lineno, line in enumerate(read_text_lines(config_file), start=1):
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
            values[key] = _coerce(key, raw)
        if unknown:
            raise ValidationError(f"{config_file}: unknown config keys: {unknown!r}")
    for key, value in flag_values.items():
        if value is not None:
            values[key] = _coerce(key, value)
    return TrainConfig(**values)


def _add_config_flags(parser):
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--epochs", default=None)
    parser.add_argument("--batch-size", dest="batch_size", default=None)
    parser.add_argument("--lr", dest="learning_rate", default=None)
    parser.add_argument("--p-aug", dest="p_aug", default=None)
    parser.add_argument("--val-fraction", dest="val_fraction", default=None)
    parser.add_argument("--seed", default=None)
    parser.add_argument("--embeddings", dest="embedding_path", default=None,
                        help="pretrained word-vector file for the decoder embeddings")
    parser.add_argument("--label-map", dest="label_map_path", default=None,
                        help="tab-separated original<TAB>generated class renames")
    parser.add_argument("--stop-tokens", dest="stop_tokens_path", default=None,
                        help="file with one stop token per line")
    parser.add_argument("--conv-channels", dest="conv_channels", default=None,
                        help="two comma-separated conv widths, e.g. 64,128")
    parser.add_argument("--hidden-dim", dest="hidden_dim", default=None)
    parser.add_argument("--embed-dim", dest="embed_dim", default=None)
    parser.add_argument("--retrain-full", dest="retrain_full", action="store_const",
                        const=True, default=None,
                        help="after selection, retrain on train+val for the best epoch count")


def _config_from_args(args) -> TrainConfig:
    flags = {key: getattr(args, key, None) for key in CONFIG_KEYS}
    return resolve_config(args.config, flags)


def _reject_csv_flags_on_caches(args):
    """--window, --stride and --labels do not apply to a .nkc dataset cache."""
    for path in (getattr(args, name, None) for name in ("data", "train", "test")):
        for flag in ("window", "stride", "labels") if str(path).endswith(".nkc") else ():
            if getattr(args, flag, None) is not None:
                what = "carries its own label names" if flag == "labels" else "is already windowed"
                raise UsageError(f"--{flag} does not apply to {path}: a .nkc dataset cache {what}")


def _load_labeled(data_path, labels, window, stride) -> Dataset:
    if str(data_path).endswith(".nkc"):
        return load_dataset_cache(data_path)
    if labels is None:
        raise UsageError("--labels is required for CSV inputs")
    if window is None:
        raise UsageError("--window is required for CSV inputs")
    return load_dataset(data_path, labels, window, window if stride is None else stride)


def _space_for(label_names, config: TrainConfig):
    names = list(label_names)
    if config.label_map_path:
        names = apply_label_map(names, load_label_map(config.label_map_path))
    stop = load_stop_tokens(config.stop_tokens_path) if config.stop_tokens_path else ()
    return build_label_space(names, stop)


def cmd_synth(args) -> int:
    if len(args.per_class) != args.classes:
        raise ValidationError(
            f"--per-class lists {len(args.per_class)} counts for {args.classes} classes")
    if args.shared_actions < 1 or args.shared_actions > args.classes:
        raise ValidationError("--shared-actions must lie in [1, classes]")
    class_defs = tuple((i % args.shared_actions, i) for i in range(args.classes))
    train_spec = SyntheticSpec(class_defs=class_defs, samples_per_class=tuple(args.per_class),
                               noise_std=args.noise, timesteps=args.timesteps,
                               channels=args.channels, seed=args.seed)
    test_spec = SyntheticSpec(class_defs=class_defs,
                              samples_per_class=(args.test_per_class,) * args.classes,
                              noise_std=args.noise, timesteps=args.timesteps,
                              channels=args.channels, seed=args.seed + 1000)
    train = generate_synthetic(train_spec)
    test = generate_synthetic(test_spec)
    os.makedirs(args.out, exist_ok=True)
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
    save_model(model, args.out, normalization=stats,
               extra={"original_label_names": list(dataset.label_names),
                      "window": dataset.window,
                      "stride": dataset.window if args.stride is None else args.stride})
    with open(os.path.join(args.out, "run_record.json"), "w", encoding="utf-8") as f:
        f.write(record.to_json())
    print(f"trained {args.model_kind} model for {config.epochs} epochs into {args.out}",
          file=sys.stderr)
    return 0


# the manifest fields that `harseq train` adds for eval, predict and export-features
_RUN_FIELDS = {"extra": {"original_label_names": [str], "window": int, "stride": int},
               "normalization": {"mean": [float], "std": [float]}}


def _load_run(args):
    """The run in --model as (model, stats, label_names, window, stride), with
    --stride, when given, in place of the run's."""
    model, manifest = load_model(args.model)
    if "extra" not in manifest:
        raise FormatError(f"{args.model}: manifest has no 'extra' section (window, stride, "
                          f"label names), so it was not written by `harseq train`")
    check_manifest(manifest, _RUN_FIELDS, args.model)
    extra, norm = manifest["extra"], manifest["normalization"]
    names = extra["original_label_names"]
    classes = model.space.num_classes if model.kind == "share" else model.num_classes
    if len(names) != classes:
        raise FormatError(f"{args.model}: manifest field 'extra.original_label_names' holds "
                          f"{len(names)} names for the model's {classes} classes")
    if repeated := [name for i, name in enumerate(names) if name in names[:i]]:
        raise FormatError(f"{args.model}: manifest field 'extra.original_label_names' repeats "
                          f"the name {repeated[0]!r}")
    stats = NormalizationStats(*(np.array(norm[k], dtype=np.float64) for k in ("mean", "std")))
    channels = model.encoder.config.in_channels
    if not (stats.mean.shape == stats.std.shape == (channels,) and np.isfinite(stats.mean).all()
            and ((stats.std > 0) & (stats.std < np.inf)).all()):
        raise FormatError(f"{args.model}: manifest field 'normalization' must hold {channels} "
                          f"finite means and {channels} positive finite stds, one per channel")
    stride = extra["stride"] if args.stride is None else args.stride
    return model, stats, names, extra["window"], stride


def _normalized_windows(model, stats, window: int, x, data_path) -> np.ndarray:
    """--data's windows `x` [n, channels, steps] normalized with the statistics of
    the run in --model. The channel count must be the one the run was trained
    on, and windows of another length are scored with a warning; a window that
    is not finite once normalized is a NumericError, raised before any scoring."""
    channels, steps = x.shape[1:]
    expected = model.encoder.config.in_channels
    if channels != expected:
        raise DimensionError(f"{data_path} has {channels} channels per window, but the "
                             f"model was trained on {expected}")
    if steps != window:
        print(f"warning: {data_path} has windows of {steps} steps, but the model was "
              f"trained on windows of {window}", file=sys.stderr)
    x = stats.apply(x)
    check_finite_windows(x, f"of {data_path} is not finite once normalized with the run's "
                         f"statistics")
    return x


def _load_run_dataset(args):
    """The run in --model, and --data windowed as at training and normalized
    by `_normalized_windows`. A CSV's label column is read against the run's
    label names; a cache with other names, or the same names in another
    order, is a ValidationError."""
    model, stats, names, window, stride = _load_run(args)
    dataset = _load_labeled(args.data, names, window, stride)
    if list(dataset.label_names) != names:
        raise ValidationError(f"{args.data} has labels {list(dataset.label_names)!r}, but the "
                              f"model's label set, in order, is {names!r}")
    x = _normalized_windows(model, stats, window, dataset.values, args.data)
    return model, replace(dataset, values=x)


def cmd_predict(args) -> int:
    model, stats, names, window, stride = _load_run(args)
    if str(args.data).endswith(".nkc"):
        x, _ = load_dataset_cache(args.data).stacked()
    else:
        x, _ = read_csv_windows(args.data, window, stride)
    x = _normalized_windows(model, stats, window, x, args.data)
    for class_id in predict_classes(model, x):
        print(names[int(class_id)])
    return 0


def cmd_eval(args) -> int:
    model, dataset = _load_run_dataset(args)
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
    model, dataset = _load_run_dataset(args)
    export_features(model, dataset, args.out)
    print(f"wrote features for {len(dataset)} windows to {args.out}", file=sys.stderr)
    return 0


def _run_suite(args, suite, values) -> int:
    config = _config_from_args(args)
    train_ds = _load_labeled(args.train, args.labels, args.window, args.stride)
    test_ds = _load_labeled(args.test, args.labels, args.window, args.stride)
    space = _space_for(train_ds.label_names, config)
    records = suite(train_ds, test_ds, space, values, args.seeds, config)
    os.makedirs(args.out, exist_ok=True)
    write_records_json(records, os.path.join(args.out, "records.json"))
    write_summary_csv(records, os.path.join(args.out, "summary.csv"))
    print(f"wrote {len(records)} run records to {args.out}", file=sys.stderr)
    return 0


def cmd_fewshot(args) -> int:
    return _run_suite(args, run_fewshot_suite, args.fractions)


def cmd_downsample(args) -> int:
    return _run_suite(args, run_downsample_suite, args.factors)


def build_parser() -> _Parser:
    parser = _Parser(prog="harseq",
                     description="Activity recognition by decoding label-name sequences")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--shared-actions", type=int, dest="shared_actions", required=True,
                   help="number of distinct action patterns shared across classes")
    p.add_argument("--per-class", dest="per_class", type=_comma_list(int), required=True,
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

    for name, help_text, out_help, func in (
            ("predict", "print one predicted label name per window", None, cmd_predict),
            ("eval", "score labeled data with a trained model",
             "directory for metrics.json and confusion.csv", cmd_eval),
            ("export-features", "write encoder features as CSV", "CSV file to write",
             cmd_export_features)):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", required=True, help="run directory from `train`")
        p.add_argument("--data", required=True)
        p.add_argument("--stride", type=_positive_int, default=None)
        if out_help:
            p.add_argument("--out", required=func is cmd_export_features, help=out_help)
        p.set_defaults(func=func)

    for name, value_flag, convert, func in (("fewshot", "--fractions", float, cmd_fewshot),
                                            ("downsample", "--factors", int, cmd_downsample)):
        p = sub.add_parser(name, help=f"run the {name} protocol suite")
        p.add_argument("--train", required=True)
        p.add_argument("--test", required=True)
        p.add_argument("--labels", default=None)
        p.add_argument("--window", type=int, default=None)
        p.add_argument("--stride", type=_positive_int, default=None)
        p.add_argument(value_flag, dest=value_flag.strip("-"), type=_comma_list(convert),
                       required=True)
        p.add_argument("--seeds", type=_comma_list(int), default="0,1,2,3,4")
        p.add_argument("--out", required=True)
        _add_config_flags(p)
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _reject_csv_flags_on_caches(args)
        return args.func(args)
    except (ValidationError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, InvariantError, RuntimeError, IndexError, OSError,
            MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
