"""Exception types shared across the package.

The CLI maps ValidationError (and subclasses) to exit code 1 and
runtime/numeric failures to exit code 2.
"""

import numpy as np


class ValidationError(ValueError):
    """Bad input data, configuration, or arguments."""


class DimensionError(ValidationError):
    """Array shape mismatch; the message names the offending axis."""


class FormatError(ValidationError):
    """Malformed external file (CSV, embeddings, config)."""


class ConflictError(ValidationError):
    """Two class names collide after tokenization."""


class CoverageError(ValidationError):
    """A label map does not cover the class set exactly."""


class NumericError(RuntimeError):
    """Non-finite values where finite arithmetic was required."""


class InvariantError(RuntimeError):
    """Internal state protocol violated (e.g. backward before forward)."""


def check_json(value, schema, where, missing="field '{}' is missing", _path=""):
    """A FormatError names the first field of decoded JSON that `schema` rejects.

    A schema is a type, `[item]` for a list of items, or `{key: schema}` for an
    object with those required keys. `int` excludes `bool` and values beyond 64
    bits, and `float` admits `int`. An absent key reads `{where} {missing}`,
    filled in with its dotted path.
    """
    kind = type(schema) if isinstance(schema, (dict, list)) else schema
    if (not isinstance(value, (int, float) if kind is float else kind)
            or (isinstance(value, bool) and kind is not bool)
            or (isinstance(value, int) and not -2**63 <= value < 2**63)):
        field = f" field '{_path}'" if _path else ""
        raise FormatError(f"{where}{field} is not of type {kind.__name__}")
    if isinstance(schema, dict):
        for key, item in schema.items():
            path = f"{_path}.{key}" if _path else key
            if key not in value:
                raise FormatError(f"{where} {missing.format(path)}")
            check_json(value[key], item, where, missing, path)
    elif isinstance(schema, list):
        for i, item in enumerate(value):
            check_json(item, schema[0], where, missing, f"{_path}[{i}]")


def check_shapes(arrays: dict, shapes: dict, where, missing="missing tensor '{}'"):
    """A FormatError names the first `{name: shape}` absent from `arrays` (as
    `{where} {missing}`) or held there with another shape."""
    for name, shape in shapes.items():
        if name not in arrays:
            raise FormatError(f"{where} {missing.format(name)}")
        if arrays[name].shape != tuple(shape):
            raise FormatError(f"{where} tensor '{name}' has shape {arrays[name].shape}, "
                              f"expected {tuple(shape)}")


def check_finite_windows(array, what: str, first: int = 0) -> None:
    """A NumericError, `window {i} {what}`, names the first window of `array`
    [windows, ...] that holds a value that is not finite; its first row is
    window `first`."""
    if not (finite := np.isfinite(array).all(axis=tuple(range(1, array.ndim)))).all():
        raise NumericError(f"window {first + finite.argmin()} {what}")
