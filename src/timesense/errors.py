"""Exception hierarchy shared across the library.

Each class carries the exit code the command line returns for it, so this
module alone decides the codes: 1 for a missing input file, 2 for every
validation or domain error. The checks below are the one rule for each
kind of argument, and each names the argument: ``<name> must be ...``.
"""

import numbers

import numpy as np


class TimesenseError(Exception):
    """Base class for all library errors."""

    exit_code = 2


class MissingFile(TimesenseError):
    """An input file named by the caller does not exist."""

    exit_code = 1


class InvalidInput(TimesenseError, ValueError):
    """Input or configuration that breaks a documented contract: a malformed
    row or field, a non-finite value, an out-of-range setting, or arrays
    whose shapes disagree. A ValueError too, as ``model``'s types document."""


class InsufficientData(TimesenseError):
    """Well-formed input that holds too little to compute the result: too
    short a signal, too few beats, rows, classes or participants, or a
    degenerate geometry."""


class Unsupported(TimesenseError):
    """A well-formed request the library does not implement, such as the
    importance of a kind that has none or exact Shapley values over too
    many features."""


class FeatureExtractionError(TimesenseError):
    """Wraps a channel-level failure with channel and window context; the
    cause names the participant and the session."""

    def __init__(self, channel, window, cause):
        self.channel = channel
        self.window = window
        self.cause = cause
        super().__init__(f"{channel}/{window}: {cause}")


def check_integer(name, value, least=0):
    """InvalidInput unless ``value`` is an integer of at least ``least``: a
    Python or numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidInput(f"{name} {value} must be >= {least}")


def _real(value):
    """Whether ``value`` is a Python or numpy real number, not a bool."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def check_positive(name, value):
    """InvalidInput unless ``value`` is a finite real above 0, not a bool."""
    if not (_real(value) and 0 < value < np.inf):
        raise InvalidInput(f"{name} must be positive and finite, got {value!r}")


def check_real(name, value):
    """InvalidInput unless ``value`` is a real of at least 0, +inf included,
    not a bool or NaN."""
    if not (_real(value) and 0 <= value):
        raise InvalidInput(f"{name} must be a real >= 0, got {value!r}")


def float_array(name, value):
    """``value`` as a float64 array; InvalidInput when numpy cannot convert
    it, say a string or a ragged nesting."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{name} must be numeric: {exc}") from None


def finite_array(name, value, ndim=None, width=None):
    """``float_array(name, value)``, InvalidInput unless it has ``ndim``
    dimensions, the last of length ``width`` (each when given), and every
    entry is finite."""
    array = float_array(name, value)
    if (ndim is not None and array.ndim != ndim
            or width is not None and array.shape[-1:] != (width,)):
        raise InvalidInput(f"{name} must be {ndim}-dimensional"
                           + ("" if width is None else f" with {width} columns")
                           + f", got shape {array.shape}")
    # counting is the cheaper reduction on the small arrays most calls pass
    if np.count_nonzero(np.isfinite(array)) != array.size:
        raise InvalidInput(f"{name} must be finite")
    return array


def check_labels(name, value, binary=True):
    """``value`` as an int array; InvalidInput unless it is numeric and each
    entry is 0 or 1, or a whole number when not ``binary``. An entry counts
    by its value, so True and 1.0 are 1."""
    labels = np.asarray(value)
    # NaN, inf and huge floats cast to garbage, which fails the comparison
    with np.errstate(invalid="ignore"):
        ints = labels.astype(int) if labels.dtype.kind in "biuf" else None
    if (ints is None or not (ints == labels).all()
            or binary and not ((ints == 0) | (ints == 1)).all()):
        raise InvalidInput(f"{name} must be {'exactly 0 or 1' if binary else 'whole numbers'}")
    return ints
