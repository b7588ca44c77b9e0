"""Privacy-budget arithmetic on the zero-concentrated DP scale.

An (eps, delta) budget is converted to a zCDP level rho = eps_tilde^2 via
eps_tilde = sqrt(log(1/delta) + eps) - sqrt(log(1/delta)).  This inverts the
Bun-Steinke bound, by which a rho-zCDP mechanism is
(rho + 2 sqrt(rho log(1/delta)), delta)-DP: the two maps undo each other
exactly.  The bound itself is not tight, so a Gaussian mechanism at this rho
is (eps', delta)-DP for some eps' below eps.  Gaussian noise with std
sensitivity / sqrt(2 rho) realizes rho-zCDP, and rho splits additively
across sequentially composed releases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .validation import check_count, check_positive, check_probability

__all__ = [
    "PrivacyBudget",
    "make_budget",
    "zcdp_to_approx_dp",
    "gaussian_sigma_for_zcdp",
    "split_budget_alg1",
    "split_budget_alg2",
]


@dataclass(frozen=True)
class PrivacyBudget:
    """(eps, delta) and the zCDP scale eps_tilde derived from it (rho = eps_tilde^2)."""

    eps: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "eps", check_positive("eps", self.eps))
        object.__setattr__(self, "delta", check_probability("delta", self.delta))
        check_positive("eps_tilde", self.eps_tilde)

    @property
    def eps_tilde(self) -> float:
        log_delta = math.log(1.0 / self.delta)
        return math.sqrt(log_delta + self.eps) - math.sqrt(log_delta)

    @property
    def rho(self) -> float:
        return self.eps_tilde**2


def make_budget(eps: float, delta: float) -> PrivacyBudget:
    return PrivacyBudget(eps=eps, delta=delta)


def zcdp_to_approx_dp(rho: float, delta: float) -> float:
    """The eps for which a rho-zCDP mechanism is (eps, delta)-DP."""
    rho = check_positive("rho", rho)
    delta = check_probability("delta", delta)
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def gaussian_sigma_for_zcdp(sensitivity: float, rho: float) -> float:
    """Noise std making a release of the given L2 sensitivity rho-zCDP:
    sigma = sensitivity / sqrt(2 rho)."""
    sensitivity = check_positive("sensitivity", sensitivity)
    rho = check_positive("rho", rho)
    return sensitivity / math.sqrt(2.0 * rho)


def split_budget_alg1(budget: PrivacyBudget, T: int) -> float:
    """Per-iteration rho for an algorithm touching the full dataset every
    iteration: sequential composition, rho_iter = eps_tilde^2 / T."""
    T = check_count("T", T)
    return budget.rho / T


def split_budget_alg2(budget: PrivacyBudget, d: int) -> float:
    """Per-coordinate rho when each iteration works on its own disjoint
    subset: iterations compose in parallel, so only the d coordinate
    releases split the budget and rho_coord = eps_tilde^2 / d, whatever
    the number of iterations."""
    d = check_count("d", d)
    return budget.rho / d
