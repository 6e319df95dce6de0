"""Dataset ingestion, windowing, and the synthetic generator.

The one canonical on-disk format is a CSV with header
``subject,timestamp,label,ch0,...,ch{v-1}``. Contiguous rows sharing a
subject and label form a run; runs are cut into fixed-length windows with
a configurable stride, and windows never span a label change. Windowed
datasets can be cached to the binary tensor container for fast reload.

The synthetic generator produces classes defined by (action, object)
pattern pairs: classes sharing an action id share a waveform on the
action-driven channels, mirroring shared tokens in their generated label
names ("action{a} object{o}").
"""

import csv
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FormatError, NumericError, ValidationError, check_json, check_shapes
from .labelspace import load_class_names, read_text_lines
from .numkernel import load_container, save_container

# rows of a CSV recording per `np.loadtxt` call: bounds the str objects that a
# call makes of the subject and label cells (about 1 MB at 8192 rows)
CSV_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class TimeSeriesSample:
    values: np.ndarray  # [channels, time]
    class_id: int


@dataclass(frozen=True)
class Dataset:
    """Windows as one array: `values` [n, channels, window] float64 and
    `class_ids` [n] int64 ids into `label_names`. Both are stored C-contiguous
    and read-only, so `stacked()` hands them out without a copy."""

    values: np.ndarray
    class_ids: np.ndarray
    label_names: tuple

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64).view()
        class_ids = np.ascontiguousarray(self.class_ids, dtype=np.int64).view()
        if values.ndim != 3:
            raise ValidationError(f"values must be [n, channels, window], got {values.shape}")
        if class_ids.shape != values.shape[:1]:
            raise ValidationError(f"class_ids has shape {class_ids.shape}, not ({len(values)},)")
        outside = (class_ids < 0) | (class_ids >= len(self.label_names))
        if outside.any():
            raise ValidationError(f"class id {class_ids[outside.argmax()]} outside label set")
        for name, array in (("values", values), ("class_ids", class_ids)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __reduce__(self):
        # a pickled copy is rebuilt through the checks, so its arrays are read-only too
        return Dataset, (self.values, self.class_ids, self.label_names)

    def __len__(self):
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    @property
    def window(self) -> int:
        return self.values.shape[2]

    @property
    def num_classes(self) -> int:
        return len(self.label_names)

    @property
    def samples(self) -> tuple:
        """One read-only `TimeSeriesSample` view per window."""
        return tuple(map(TimeSeriesSample, self.values, self.class_ids.tolist()))

    def stacked(self):
        """(values [n, channels, window], class_ids [n]): the stored arrays."""
        return self.values, self.class_ids


def _class_rows(dataset: Dataset) -> list:
    """Ascending row indices of each class, in class-id order."""
    return [np.flatnonzero(dataset.class_ids == c) for c in range(dataset.num_classes)]


def _take(dataset: Dataset, rows) -> Dataset:
    return replace(dataset, values=dataset.values[rows], class_ids=dataset.class_ids[rows])


@dataclass(frozen=True)
class NormalizationStats:
    mean: np.ndarray  # [channels]
    std: np.ndarray  # [channels], floored at 1e-8

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Z-score [n, channels, time] values channel by channel."""
        return (values - self.mean[:, None]) / self.std[:, None]


def read_csv_windows(data_path, window: int, stride: int, label_names=None):
    """Cut a CSV recording into fixed-length windows.

    With `label_names`, a run is contiguous rows sharing subject and label,
    and unknown label strings are errors; without, the label column is not
    read, a run only ends where the subject changes, and the class ids are
    None. Runs shorter than the window are skipped with a warning; a bad
    header, ragged rows and non-numeric or non-finite values are errors that
    name the row, and bytes that are not UTF-8 are a FormatError.
    Returns (values [n, channels, window], class_ids [n] or None).

    The rows after the header are parsed by `np.loadtxt`, CSV_BLOCK_ROWS rows
    per call, with the csv module's quoting, and runs end where adjacent key
    cells differ. If a call fails, or a row would be an error, the file is
    read again row by row with `float()` on each cell (`_read_rows`): that
    read gives the error that names the row, and the values of cells such as
    `1_0` that `float()` reads and `loadtxt` does not.
    """
    if not 3 <= window <= 2**31:
        raise ValidationError(f"window must lie in [3, 2**31], got {window}")
    if stride < 1:
        raise ValidationError(f"stride must be positive, got {stride}")
    return (_read_block(data_path, window, stride, label_names)
            or _read_rows(data_path, window, stride, label_names))


def _read_block(data_path, window: int, stride: int, label_names):
    """`read_csv_windows` with the rows after the header parsed CSV_BLOCK_ROWS at
    a time, each block in one call, or None where a call fails or a row would be
    an error."""
    lines = read_text_lines(data_path, newline="")
    v = _channel_count(csv.reader(lines), data_path)
    # one record per row: the key cells as str, the channels as float64; a cell
    # that is not read is cut to one character
    row = np.dtype([("subject", object), ("timestamp", "U1"),
                    ("label", "U1" if label_names is None else object),
                    ("values", np.float64, (v,))])
    name_to_id = {n: i for i, n in enumerate(label_names or ())}
    subjects, labels = {}, {}  # each key cell met, with its id; an unknown label's is -1
    parts = []  # (subject ids, class ids, values) per block
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "(loadtxt: input|Input line .*) contained no data")
            while len(block := np.loadtxt(lines, dtype=row, delimiter=",", quotechar='"',
                                          comments=None, ndmin=1, max_rows=CSV_BLOCK_ROWS)):
                values = np.ascontiguousarray(block["values"])
                class_ids = (np.zeros(len(block), dtype=np.int64) if label_names is None else
                             _cell_ids(block["label"], labels,
                                       lambda label: name_to_id.get(label.strip(), -1)))
                if not np.isfinite(values).all() or (class_ids < 0).any():
                    return None
                parts.append((_cell_ids(block["subject"], subjects, lambda _: len(subjects)),
                              class_ids, values))
    except ValueError:  # a cell loadtxt cannot parse, ragged rows, or bytes that are not UTF-8
        return None
    finally:
        lines.close()
    windows = _Windows(data_path, v, window, stride, label_names)
    if parts:
        subject_ids, class_ids, values = map(np.concatenate, zip(*parts))
        del parts  # the windows below are cut from `values`
        change = (subject_ids[1:] != subject_ids[:-1]) | (class_ids[1:] != class_ids[:-1])
        starts = np.flatnonzero(np.concatenate([[True], change])).tolist()
        names = list(subjects)  # in id order
        for lo, hi in zip(starts, [*starts[1:], len(values)]):
            windows.add(values[lo:hi].T, (names[subject_ids[lo]], int(class_ids[lo])))
    return windows.result()


def _cell_ids(cells, known: dict, new_id) -> np.ndarray:
    """The id of each cell in `known`, where a cell not met before is entered
    with id `new_id(cell)`."""
    for cell in set(cells) - known.keys():
        known[cell] = new_id(cell)
    return np.fromiter(map(known.__getitem__, cells), np.int64, len(cells))


def _channel_count(reader, data_path) -> int:
    """The number of channel columns the CSV header read from `reader` names."""
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError(f"{data_path}: empty file") from None
    if len(header) < 4 or [h.strip() for h in header[:3]] != ["subject", "timestamp", "label"]:
        raise FormatError(
            f"{data_path}: header must be subject,timestamp,label,ch0,... got {header}")
    return len(header) - 3


class _Windows:
    """The windows of a recording's runs, cut as they are added in file order."""

    def __init__(self, data_path, channels: int, window: int, stride: int, label_names):
        self.data_path, self.channels = data_path, channels
        self.window, self.stride = window, stride
        self.label_names = label_names
        self.runs, self.ids = [], []

    def add(self, arr, key) -> None:
        """Cut a run's [channels, rows] values; a run shorter than the window is
        skipped with a warning. `key` is (subject, class id)."""
        rows = arr.shape[1]
        if rows < self.window:
            what = (f"subject {key[0]!r}" if self.label_names is None
                    else f"label {self.label_names[key[1]]!r}")
            warnings.warn(f"{self.data_path}: run of {rows} rows ({what}) "
                          f"shorter than window {self.window}, skipped")
            return
        self.runs.append(
            sliding_window_view(arr, self.window, axis=1)[:, ::self.stride].transpose(1, 0, 2))
        self.ids.append(key[1])

    def result(self):
        """(values [n, channels, window], class_ids [n] or None)."""
        values = np.concatenate(self.runs or [np.zeros((0, self.channels, self.window))])
        if self.label_names is None:
            return values, None
        return values, np.repeat(np.array(self.ids, dtype=np.int64), [len(r) for r in self.runs])


def _read_rows(data_path, window: int, stride: int, label_names):
    """`read_csv_windows` row by row: the csv module splits each row, and
    `float()` reads each channel cell. The first bad row raises its error."""
    name_to_id = None if label_names is None else {n: i for i, n in enumerate(label_names)}
    reader = csv.reader(read_text_lines(data_path, newline=""))
    v = _channel_count(reader, data_path)
    windows = _Windows(data_path, v, window, stride, label_names)
    run_rows: list = []
    run_rownums: list = []
    run_key = None

    def flush_run():
        if not run_rows:
            return
        arr = np.array(run_rows, dtype=np.float64).T  # [v, run_len]
        if not np.isfinite(arr).all():
            bad = int(np.flatnonzero(~np.isfinite(arr).all(axis=0))[0])
            raise FormatError(
                f"{data_path}: non-finite channel value at row {run_rownums[bad]}")
        windows.add(arr, run_key)

    for rownum, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3 + v:
            raise FormatError(
                f"{data_path}: row {rownum} has {len(row)} fields, expected {3 + v}")
        class_id = None
        if name_to_id is not None:
            label = row[2].strip()
            if label not in name_to_id:
                raise ValidationError(
                    f"{data_path}: unknown label {label!r} at row {rownum}")
            class_id = name_to_id[label]
        try:
            values = [float(cell) for cell in row[3:]]
        except ValueError:
            raise FormatError(
                f"{data_path}: non-numeric channel value at row {rownum}") from None
        key = (row[0], class_id)
        if key != run_key:
            flush_run()
            run_rows = []
            run_rownums = []
            run_key = key
        run_rows.append(values)
        run_rownums.append(rownum)
    flush_run()
    return windows.result()


def load_dataset(data_path, labels, window: int, stride: int) -> Dataset:
    """Window a CSV recording into a Dataset; `labels` is its class names or a labels file."""
    label_names = list(labels) if isinstance(labels, (list, tuple)) else load_class_names(labels)
    values, class_ids = read_csv_windows(data_path, window, stride, label_names)
    return Dataset(values, class_ids, tuple(label_names))


def compute_normalization_stats(dataset: Dataset) -> NormalizationStats:
    """Per-channel mean/std over every timestep of the given (training) split."""
    if not len(dataset):
        raise ValidationError("cannot compute statistics of an empty dataset")
    x, _ = dataset.stacked()  # [n, v, t]
    mean = x.mean(axis=(0, 2))
    std = np.maximum(x.std(axis=(0, 2)), 1e-8)
    if not (finite := np.isfinite(mean) & np.isfinite(std)).all():
        raise NumericError(f"the mean or std of channel {finite.argmin()} overflows float64")
    return NormalizationStats(mean=mean, std=std)


def normalize(dataset: Dataset, stats: NormalizationStats) -> Dataset:
    """Z-score every channel with the supplied (training split) statistics."""
    return replace(dataset, values=stats.apply(dataset.values))


def downsample(dataset: Dataset, factor: int) -> Dataset:
    """Keep every factor-th timestep of every window."""
    if factor < 1:
        raise ValidationError(f"downsample factor must be positive, got {factor}")
    if factor == 1:
        return dataset
    values = dataset.values[:, :, ::factor]
    if values.shape[2] < 3:
        raise ValidationError(
            f"downsampling by {factor} leaves {values.shape[2]} timesteps (< 3)")
    return replace(dataset, values=values)


def subsample_train(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Uniform subset without replacement, keeping class coverage when possible."""
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(f"fraction must lie in (0, 1], got {fraction}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    if fraction == 1.0:
        return dataset
    target = max(1, int(round(fraction * len(dataset))))
    rng = np.random.default_rng(seed)
    by_class = [idx for idx in _class_rows(dataset) if len(idx)]
    chosen = np.zeros(len(dataset), dtype=bool)
    if target >= len(by_class):
        for idx in by_class:
            chosen[rng.choice(idx)] = True
        extra = target - len(by_class)
        if extra > 0:
            chosen[rng.choice(np.flatnonzero(~chosen), size=extra, replace=False)] = True
    else:
        for c in rng.choice(len(by_class), size=target, replace=False):
            chosen[rng.choice(by_class[c])] = True
    return _take(dataset, chosen)


def stratified_split(dataset: Dataset, holdout_fraction: float, seed: int):
    """Per-class random split into (main, holdout), preserving sample order."""
    if not 0.0 < holdout_fraction < 1.0:
        raise ValidationError(
            f"holdout fraction must lie in (0, 1), got {holdout_fraction}")
    rng = np.random.default_rng(seed)
    hold = np.zeros(len(dataset), dtype=bool)
    for idx in _class_rows(dataset):
        n_hold = min(len(idx) - 1, int(round(holdout_fraction * len(idx))))
        if n_hold > 0:
            hold[rng.choice(idx, size=n_hold, replace=False)] = True
    return _take(dataset, ~hold), _take(dataset, hold)


@dataclass(frozen=True)
class SyntheticSpec:
    """Desk-scale synthetic recipe: classes as (action, object) pattern pairs."""

    class_defs: tuple  # ((action_id, object_id), ...)
    samples_per_class: tuple
    noise_std: float = 0.0
    timesteps: int = 64
    channels: int = 4
    seed: int = 0

    def __post_init__(self):
        if len(set(self.class_defs)) != len(self.class_defs):
            raise ValidationError("synthetic class definitions must be distinct pairs")
        if len(self.samples_per_class) != len(self.class_defs):
            raise ValidationError("samples_per_class must match class_defs in length")
        if not all(isinstance(n, (int, np.integer)) and n >= 0 for n in self.samples_per_class):
            raise ValidationError(
                f"samples_per_class must be non-negative integers, got {self.samples_per_class}")
        if self.timesteps < 3 or self.channels < 2:
            raise ValidationError("need timesteps >= 3 and channels >= 2")
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValidationError(
                f"noise_std must be finite and non-negative, got {self.noise_std}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")


def synthetic_label_names(spec: SyntheticSpec) -> list[str]:
    return [f"action{a} object{o}" for a, o in spec.class_defs]


def _class_signal(spec: SyntheticSpec, action: int, obj: int) -> np.ndarray:
    v, t = spec.channels, spec.timesteps
    n_action = (v + 1) // 2
    ts = np.arange(t)
    signal = np.zeros((v, t))
    for ch in range(n_action):
        phase = 2.0 * np.pi * ch / v
        signal[ch] = 2.0 * np.sin(2.0 * np.pi * (action + 1) * ts / t + phase)
    for j, ch in enumerate(range(n_action, v)):
        level = 0.5 * (obj + 1) * (1.0 if j % 2 == 0 else -1.0)
        signal[ch] = level
    return signal


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic synthetic dataset; identical specs give identical bits."""
    rng = np.random.default_rng(spec.seed)
    class_ids = np.repeat(np.arange(len(spec.class_defs)), spec.samples_per_class)
    signals = np.array([_class_signal(spec, a, o) for a, o in spec.class_defs])
    values = signals.reshape(-1, spec.channels, spec.timesteps)[class_ids]
    if spec.noise_std > 0:  # one draw in window order: the bits of one draw per window
        values += rng.normal(0.0, spec.noise_std, size=values.shape)
    return Dataset(values, class_ids, tuple(synthetic_label_names(spec)))


def save_dataset_cache(dataset: Dataset, path) -> None:
    save_container(path, {"values": dataset.values,
                          "class_ids": dataset.class_ids.astype(np.float64)},
                   metadata={"kind": "dataset",
                             "label_names": list(dataset.label_names),
                             "channels": dataset.channels,
                             "window": dataset.window})


def load_dataset_cache(path) -> Dataset:
    """Read a cache written by `save_dataset_cache`; a missing or wrongly shaped
    tensor or metadata field, a channel value that is not finite, or a class id
    that is not a whole number within int64, is a FormatError that names it."""
    arrays, meta = load_container(path)
    if meta.get("kind") != "dataset":
        raise FormatError(f"{path}: container does not hold a dataset")
    check_json(meta, {"label_names": [str], "channels": int, "window": int},
               f"{path}: dataset metadata")
    n = arrays.get("values", np.empty(0)).shape[:1]
    check_shapes(arrays, {"values": (*n, meta["channels"], meta["window"]), "class_ids": n},
                 f"{path}: dataset", missing="has no '{}' tensor")
    if not (finite := np.isfinite(arrays["values"]).all(axis=(1, 2))).all():
        raise FormatError(f"{path}: tensor 'values' is not finite in window {finite.argmin()}")
    ids = arrays["class_ids"]
    whole = (ids == np.round(ids)) & (np.abs(ids) < 2.0**63)  # also false for NaN and inf
    if not whole.all():
        raise FormatError(f"{path}: tensor 'class_ids' holds {float(ids[~whole][0])}, "
                          f"not a whole class id")
    return Dataset(arrays["values"], ids.astype(np.int64), tuple(meta["label_names"]))
