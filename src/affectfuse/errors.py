"""Exception types shared across the toolkit, and the finite-field and array-size checks of its configs."""

import math
from dataclasses import fields

import numpy as np

__all__ = ["ParameterError", "DegenerateInputError", "DataError", "NumericError", "require_finite", "require_count"]


class ParameterError(ValueError):
    """Invalid argument, shape, or configuration. CLI exit code 2."""


class DegenerateInputError(ParameterError):
    """Well-formed values too few or too degenerate for the computation: a constant signal, too few
    raters (also for a reference rater index), rows or distinct points, an empty split. CLI exit code 3,
    where the values come from files."""


class DataError(RuntimeError):
    """Malformed or inconsistent input data on disk. CLI exit code 3."""


class NumericError(ArithmeticError):
    """Numerical failure: NaN loss, broken monotonicity, non-finite update. CLI exit code 4."""


def require_finite(config) -> None:
    """Reject a NaN or infinite value in any field of dataclass ``config`` annotated ``float``."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "float" and not math.isfinite(value):
            raise ParameterError(f"{f.name} must be finite, got {value!r}")


def require_count(what: str, count: float) -> None:
    """Reject a count of float64 values, ``what``, that is not finite or is more than numpy can index."""
    limit = np.iinfo(np.intp).max // 8
    if not math.isfinite(count) or count > limit:
        raise ParameterError(f"{what}: {count:.4g} float64 values, more than numpy can index ({limit})")
