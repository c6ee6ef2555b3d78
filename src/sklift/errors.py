"""Shared exception types and the process exit codes they map to."""

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class SkliftError(Exception):
    """Base class for package errors."""

    exit_code = EXIT_INTERNAL


class UsageError(SkliftError):
    """Bad arguments, bad configuration, or malformed input files."""

    exit_code = EXIT_USAGE


class TruncationError(SkliftError):
    """A series or coefficient table is too short for the requested operation.

    The message names the truncation or bound that would suffice.
    """

    exit_code = EXIT_USAGE


class UnsupportedFieldError(SkliftError):
    """A cusp space of dimension two or more, whose eigenforms are not rational."""

    exit_code = EXIT_USAGE


class NotAnEigenformError(SkliftError):
    """A proportionality check failed; ``witness`` is the first offending index."""

    exit_code = EXIT_VIOLATION

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InconsistencyError(SkliftError):
    """Two independently computed quantities disagree (internal oracle mismatch)."""


class CacheMismatchError(SkliftError):
    """A cache write found an existing entry with different exact data."""
