"""Exception hierarchy shared across the library.

Each class carries the exit code the command line returns for it, so this
module alone decides the codes: 1 for a missing input file, 2 for every
validation or domain error. ``check_seed`` is the one rule every seeded
entry point applies to its seed.
"""

import numbers


class TimesenseError(Exception):
    """Base class for all library errors."""

    exit_code = 2


class MissingFile(TimesenseError):
    """An input file named by the caller does not exist."""

    exit_code = 1


class InvalidInput(TimesenseError):
    """Input or configuration that breaks a documented contract: a malformed
    row or field, a non-finite value, an out-of-range setting, or arrays
    whose shapes disagree."""


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


def check_seed(seed):
    """InvalidInput unless ``seed`` is a non-negative integer: a Python or
    numpy integer, not a bool."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise InvalidInput(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise InvalidInput(f"seed {seed} must be >= 0")
