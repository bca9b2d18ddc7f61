"""Exception types shared across the package.

Every error that can cross the CLI boundary has a distinct class so the
command layer can map it to a stable exit code.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np


class EvshiftError(Exception):
    """Base class for all package errors."""


class ContractViolationError(EvshiftError):
    """An operation was called with arguments that violate its preconditions."""


def require_finite(params) -> None:
    """Raise ContractViolationError if a float field of a dataclass, or a
    float anywhere inside a tuple field, is inf or nan."""
    for f in dataclasses.fields(params):
        for value in _floats(getattr(params, f.name)):
            if not math.isfinite(value):
                raise ContractViolationError(f"{f.name} must be finite, got {value}")


def require_integer(value, what: str) -> None:
    """Raise ContractViolationError unless value is an integer: a Python
    or numpy int, not a bool, a float or anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractViolationError(f"{what} must be an integer, got {value!r}")


def _floats(value):
    """The floats of a value and of the tuples nested in it."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, tuple):
        for v in value:
            yield from _floats(v)


class OutOfBoundsError(ContractViolationError):
    """An event lies outside the sensor geometry."""


class StreamOrderError(EvshiftError):
    """Event timestamps decreased where a time-ordered stream is required."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"out-of-order timestamp at stream index {index}")


class ParseError(EvshiftError):
    """A file could not be parsed; carries the 1-based offending line number, or None."""

    def __init__(self, path: str, line_no: int | None, message: str):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}: {message}" if line_no is None else f"{path}:{line_no}: {message}")


class NumericalError(EvshiftError):
    """A linear-algebra step failed (singular innovation, non-finite values)."""


class EmptyAlignmentError(EvshiftError):
    """Estimated and ground-truth series share no usable time overlap."""
