"""Array validation helpers shared across the library.

These raise early, with messages that name the offending argument, so that
shape bugs surface at API boundaries instead of deep inside linear algebra.
"""

from __future__ import annotations

import numpy as np


def check_1d(array: np.ndarray, name: str = "array") -> np.ndarray:
    """Return ``array`` as a float 1-D ndarray or raise ``ValueError``."""
    arr = np.asarray(array)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    return arr


def check_2d(array: np.ndarray, name: str = "array") -> np.ndarray:
    """Return ``array`` as a 2-D ndarray or raise ``ValueError``."""
    arr = np.asarray(array)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    return arr


def check_finite(array: np.ndarray, name: str = "array") -> None:
    """Raise ``ValueError`` if a 2-D ``array`` holds NaN or ±inf.

    The message names the first bad column and counts the bad rows.
    """
    bad = ~np.isfinite(array)
    if bad.any():
        column = int(np.flatnonzero(bad.any(axis=0))[0])
        rows = int(bad.any(axis=1).sum())
        raise ValueError(
            f"{name} has NaN or inf in {rows} row(s), first in column {column}"
        )


def check_same_length(a: np.ndarray, b: np.ndarray, names: tuple[str, str] = ("a", "b")) -> None:
    """Raise ``ValueError`` unless ``a`` and ``b`` have equal first dimension."""
    if len(a) != len(b):
        raise ValueError(
            f"{names[0]} and {names[1]} must have the same length, "
            f"got {len(a)} and {len(b)}"
        )


def check_binary_labels(y: np.ndarray, name: str = "y") -> np.ndarray:
    """Return ``y`` as an int array of {0, 1} labels or raise ``ValueError``."""
    arr = check_1d(y, name)
    # One elementwise pass; NaN, strings and other values compare unequal
    # to both.  The sorted distinct values are only built for the message.
    if not ((arr == 0) | (arr == 1)).all():
        values = np.unique(arr)
        raise ValueError(f"{name} must contain only binary labels 0/1, got values {values}")
    return arr.astype(np.int64)
