"""Deterministic numerics shared by every module.

Splittable RNG streams, seeded scalar sampling, the top eigenvalue of a
symmetric PSD matrix, and a Gaussian-expectation quadrature used as the
oracle for closed-form identities.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .validation import check_finite_scalar, check_matrix

__all__ = [
    "RngStream",
    "sample_gaussian",
    "max_eigenvalue",
    "expectation_under_gaussian",
]

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


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


@lru_cache(maxsize=8)
def _hermite_nodes(n: int):
    # scipy's nodes stay finite at high order; the naive recurrences overflow.
    from scipy.special import roots_hermite

    return roots_hermite(n)


def expectation_under_gaussian(
    f: Callable[[np.ndarray], np.ndarray],
    mean: float,
    std: float,
    nodes: int = 200,
    breakpoints: Sequence[float] | None = None,
) -> float:
    """E f(X) for X ~ N(mean, std^2), for bounded piecewise-smooth f.

    Gauss-Hermite at the requested order is used whenever doubling the
    order reproduces the value to 1e-13 (relative).  Integrands with
    interior kinks converge too slowly for any fixed order, so on
    disagreement the value is recomputed by adaptive Gauss-Kronrod over
    +-40 standard deviations; ``breakpoints`` (locations in f's argument
    where smoothness fails) make that refinement reliable and should be
    passed whenever they are known.

    ``f`` must accept numpy arrays elementwise.
    """
    mean = check_finite_scalar("mean", mean)
    std = check_finite_scalar("std", std)
    if std < 0:
        raise DomainError(f"std must be >= 0, got {std!r}")
    if not isinstance(nodes, (int, np.integer)) or nodes < 32:
        raise DomainError(f"nodes must be an integer >= 32, got {nodes!r}")
    if std == 0.0:
        return float(f(np.asarray(mean)))

    root2 = math.sqrt(2.0)
    t1, w1 = _hermite_nodes(int(nodes))
    g1 = float(np.sum(w1 * f(mean + root2 * std * t1)) * _INV_SQRT_PI)
    t2, w2 = _hermite_nodes(2 * int(nodes))
    g2 = float(np.sum(w2 * f(mean + root2 * std * t2)) * _INV_SQRT_PI)
    if abs(g1 - g2) <= 1e-13 * max(1.0, abs(g2)):
        return g2

    from scipy.integrate import quad  # imported here: only this fallback uses it

    pts = None
    if breakpoints is not None:
        std_pts = sorted(
            (float(p) - mean) / std for p in breakpoints if abs((float(p) - mean) / std) < 40.0
        )
        pts = std_pts or None
    value, _ = quad(
        lambda u: float(f(np.asarray(mean + std * u))) * math.exp(-0.5 * u * u) * _INV_SQRT_2PI,
        -40.0,
        40.0,
        points=pts,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=400,
    )
    return float(value)
