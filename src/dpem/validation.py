"""Small input-validation helpers used at every public entry point."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "check_flag",
    "check_finite_scalar",
    "check_positive",
    "check_probability",
    "check_vector",
    "check_matrix",
    "check_count",
]


def check_flag(name: str, x) -> bool:
    if not isinstance(x, (bool, np.bool_)):  # the string "false" is truthy
        raise DomainError(f"{name} must be a bool, got {x!r}")
    return bool(x)


def check_finite_scalar(name: str, x) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def check_positive(name: str, x, *, allow_zero: bool = False) -> float:
    x = check_finite_scalar(name, x)
    if x < 0 or (x == 0 and not allow_zero):
        bound = ">= 0" if allow_zero else "> 0"
        raise DomainError(f"{name} must be {bound}, got {x!r}")
    return x


def check_probability(name: str, x) -> float:
    x = check_finite_scalar(name, x)
    if not 0.0 < x < 1.0:
        raise DomainError(f"{name} must lie in (0, 1), got {x!r}")
    return x


def check_count(name: str, n, *, minimum: int = 1) -> int:
    if not isinstance(n, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {type(n).__name__}")
    n = int(n)
    if n < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {n}")
    return n


def check_vector(name: str, v, *, d: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DomainError(f"{name} must be a nonempty 1-d array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError(f"{name} must have finite entries")
    if d is not None and v.shape[0] != d:
        raise DomainError(f"{name} must have length {d}, got {v.shape[0]}")
    return v


def check_matrix(name: str, m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DomainError(f"{name} must be a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError(f"{name} must have finite entries")
    return m
