"""Shared utilities: scaling, RNG handling, validation, persistence."""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.scaling import BoxScaler, StandardScaler
from repro.utils.serialization import load_result, save_result
from repro.utils.validation import (
    check_box_bounds,
    check_finite,
    check_matrix_2d,
    check_vector_1d,
)

__all__ = [
    "BoxScaler",
    "StandardScaler",
    "check_box_bounds",
    "check_finite",
    "check_matrix_2d",
    "check_vector_1d",
    "ensure_rng",
    "load_result",
    "save_result",
    "spawn_rngs",
]
