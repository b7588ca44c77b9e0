"""The tests' quadrature oracle: E f(X) for Gaussian X, by Gauss-Hermite
with an adaptive Gauss-Kronrod fallback, for checking closed forms such as
the smoothed truncation's against an independent route.  It uses scipy,
which the tests need and the package does not."""

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.special import roots_hermite

from dpem.errors import DomainError
from dpem.validation import check_finite_scalar

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@lru_cache(maxsize=8)
def _hermite_nodes(n: int):
    # scipy's nodes stay finite at high order; the naive recurrences overflow.
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
