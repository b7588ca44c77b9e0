"""Deterministic numerics shared by every module.

Splittable RNG streams, seeded scalar sampling, a seeded unit-norm starting
point and the top eigenvalue of a symmetric PSD matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .validation import check_count, check_finite_scalar, check_matrix

__all__ = [
    "RngStream",
    "sample_gaussian",
    "initial_beta",
    "max_eigenvalue",
]


class RngStream:
    """A splittable random stream addressed by (seed, split path).

    Children created by ``split(index)`` depend only on the seed and the
    path of indices, never on how much the parent has already drawn, so
    work can be farmed out in any order (or in parallel) without changing
    any stream's output.
    """

    __slots__ = ("seed", "path", "_generator")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        if not isinstance(seed, (int, np.integer)):
            raise DomainError(f"seed must be an integer, got {type(seed).__name__}")
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self.seed = seed
        self.path = tuple(int(p) for p in path)
        self._generator: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
            self._generator = np.random.default_rng(ss)
        return self._generator

    def split(self, index: int) -> "RngStream":
        if index < 0:
            raise DomainError(f"split index must be >= 0, got {index}")
        return RngStream(self.seed, self.path + (int(index),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(seed={self.seed}, path={self.path})"


def sample_gaussian(rng: RngStream, mean: float, std: float) -> float:
    mean = check_finite_scalar("mean", mean)
    std = check_finite_scalar("std", std)
    if std < 0:
        raise DomainError(f"std must be >= 0, got {std!r}")
    if std == 0.0:
        return mean
    return mean + std * float(rng.generator.standard_normal())


def initial_beta(d: int, rng: RngStream) -> np.ndarray:
    """Random unit-norm starting point: a seeded Gaussian direction."""
    d = check_count("d", d)
    norm = 0.0
    while norm == 0.0:  # a redraw is essentially impossible; it keeps the contract
        v = rng.generator.standard_normal(d)
        norm = math.sqrt(np.einsum("i,i->", v, v))
    return v / norm


def max_eigenvalue(m) -> float:
    """Largest eigenvalue of a symmetric PSD matrix, by a dense symmetric
    eigensolver, accurate however small the eigengap."""
    m = check_matrix("m", m)
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > 1e-9 * scale:
        raise DomainError("matrix must be symmetric within 1e-9")
    eigenvalues = np.linalg.eigvalsh(m)
    if eigenvalues[0] < -1e-9 * scale:
        raise DomainError(f"matrix is not PSD: smallest eigenvalue {eigenvalues[0]!r}")
    return max(float(eigenvalues[-1]), 0.0)
