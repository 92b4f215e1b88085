"""Exception types, and the four input rules that every boundary applies:
labels (:func:`_class_labels`), arrays (:func:`_float_array`), counts
(:func:`_count`) and scalars (:func:`_real`). Input that breaks a rule stops
with a :class:`DomainError` that names the field."""

import math
import numbers

import numpy as np


class DomainError(ValueError):
    """Invalid input to a toolkit operation (bad shapes, ranges, empty data).

    The CLI maps any DomainError to exit code 1; everything else is a bug.
    ``field`` names the one input at fault, when there is one, and the CLI
    names the flag that sets it.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


class PredictionLogError(DomainError):
    """Problem ingesting an external prediction log file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MissingLogError(PredictionLogError):
    """The prediction log file does not exist."""


class MalformedRowError(PredictionLogError):
    """A row could not be parsed into K probabilities plus a label."""


class ProbabilitySumError(PredictionLogError):
    """A row's probabilities deviate from sum 1 beyond the repair tolerance."""


class LabelRangeError(PredictionLogError):
    """A row's label is outside [0, K)."""


def _class_labels(labels, n: int, k: int) -> np.ndarray:
    """``labels`` as n int64 class indices in [0, k): the one label rule.

    Integer dtypes, Python ints and whole-number floats pass; fractional,
    NaN and non-numeric labels (str, None, bool, complex, mixed object) do
    not. The range is checked before the cast, so a label past int64 or an
    infinite one cannot wrap into range."""
    try:
        y = np.asarray(labels)
    except ValueError:  # ragged nesting
        raise DomainError("labels must be one class index per row, got a ragged sequence",
                          field="labels") from None
    if y.shape != (n,):
        raise DomainError(f"labels must be one class index per row: {n} rows, shape {y.shape}",
                          field="labels")
    if y.dtype.kind == "f":
        if not (y == np.trunc(y)).all():  # NaN fails this too
            raise DomainError("labels must be whole numbers", field="labels")
    # An object array of Python ints is what numpy makes of ints past uint64.
    elif y.dtype.kind not in "iu" and not (
            y.dtype.kind == "O" and all(type(v) is int for v in y.tolist())):
        raise DomainError(f"labels must be integers or whole-number floats, got dtype {y.dtype}",
                          field="labels")
    outside = (y < 0) | (y >= k)
    if outside.any():
        raise DomainError(f"labels outside [0, {k}): got {y[np.argmax(outside)]}", field="labels")
    return y.astype(np.int64, copy=False)


def _float_array(values, name: str, min_shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``values`` as a finite float64 array: the one array rule.

    Integer and float dtypes pass, and float64 passes uncopied; ragged,
    non-numeric, bool and complex input and NaN or inf entries do not.
    With ``min_shape`` the array must have that many axes, each at least
    that long."""
    try:
        a = np.asarray(values)
    except ValueError:  # ragged nesting
        raise DomainError(f"{name} must be a rectangular array, got a ragged sequence",
                          field=name) from None
    if a.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be integers or floats, got dtype {a.dtype}", field=name)
    if min_shape and (a.ndim != len(min_shape) or np.less(a.shape, min_shape).any()):
        raise DomainError(f"{name} must have shape at least {min_shape}, got {a.shape}", field=name)
    a = a.astype(np.float64, copy=False)
    # NaN or inf shows in the min or the max, which need no temporary array.
    if not (np.isfinite(a.min(initial=0.0)) and np.isfinite(a.max(initial=0.0))):
        raise DomainError(f"{name} contain non-finite entries", field=name)
    return a


def _count(value, name: str, minimum: int) -> int:
    """``value`` as an int at or above ``minimum``: the one count rule.

    Python and numpy integers pass; bool, fractional and non-numeric
    values do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}", field=name)
    if value < minimum:
        bound = "non-negative" if minimum == 0 else f">= {minimum}"
        raise DomainError(f"{name} must be {bound}, got {value}", field=name)
    return int(value)


def _real(value, name: str, positive: bool = False) -> float:
    """``value`` as a finite float, positive or else non-negative: the one
    scalar rule. Python and numpy reals pass; bool, str, None, complex, NaN
    and inf do not, nor does an int past the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}", field=name)
    bound = "positive" if positive else "non-negative"
    try:
        x = float(value)
    except OverflowError:  # an int past the float range
        x = math.inf
    if not (math.isfinite(x) and (x > 0.0 if positive else x >= 0.0)):
        raise DomainError(f"{name} must be finite and {bound}, got {value}", field=name)
    return x
