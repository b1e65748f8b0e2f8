"""Shared utilities: seeded randomness, validation, write-sanitizing."""

from repro.utils.freeze import Freezer, freeze_session, install_session_sanitizer
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_1d,
    check_2d,
    check_binary_labels,
    check_same_length,
)

__all__ = [
    "Freezer",
    "check_1d",
    "check_2d",
    "check_binary_labels",
    "check_same_length",
    "ensure_rng",
    "freeze_session",
    "install_session_sanitizer",
    "spawn_rngs",
]
