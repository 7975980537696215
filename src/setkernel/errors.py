"""Exception types shared across the package."""

from contextlib import contextmanager

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration value or command-line usage."""


class DataError(RuntimeError):
    """Malformed, inconsistent, or unreadable input data."""


class ModelFormatError(DataError):
    """Model file is truncated, corrupted, or has an unsupported version."""


class NumericalError(RuntimeError):
    """A numerical routine failed to produce a usable result."""


@contextmanager
def raise_on_overflow(message: str):
    """Raise NumericalError(message) where numpy arithmetic in the block overflows."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise NumericalError(message) from None
