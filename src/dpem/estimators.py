"""The four estimation procedures, as plain functions and as estimators.

One builder, ``plan_for``, checks a fit's settings and returns its
``ReleasePlan``, the data that sets the algorithms apart: each iteration's
release, its sensitivity, and the counts of composed releases that the
budget is divided over, from which the plan derives rho and sigma.  Each fit
runs its plan in the one loop, ``_iterate``, which draws iteration t's noise
from child stream t of the caller's RngStream, so traces are bitwise
reproducible however the work is scheduled.  ``run_algorithm``, the CLI's and
the estimator classes' one entry point, resolves the ``auto`` settings.  The
kernel, ``dpem.robust``, is imported by the robust plans alone, so em and
clipped fits never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .accounting import PrivacyBudget, gaussian_sigma_for_zcdp, make_budget
from .base import ALGORITHMS, BaseEstimator
from .errors import ConfigError, ConvergenceError, DomainError
from .models import (
    ModelSpec,
    ObservationSet,
    f_gmm_batch,
    grad_q_batch,
    grad_q_mean,
    tau_bound,
)
from .numeric import RngStream, initial_beta
from .validation import (check_count, check_flag, check_positive, check_probability,
                          check_vector)

__all__ = [
    "ALGORITHMS",
    "IterationTrace",
    "initial_beta",
    "gradient_em",
    "clipped_dp_gradient_em",
    "dp_gradient_em",
    "dp_em_gmm",
    "run_algorithm",
    "GradientEM",
    "ClippedDPGradientEM",
    "DPGradientEM",
    "DPEMGaussianMixture",
]


@dataclass(frozen=True)
class IterationTrace:
    """Parameter iterates beta^0..beta^T, the matching estimation errors
    when the ground truth is known, and an echo of the run's settings."""

    betas: np.ndarray
    errors: Optional[np.ndarray]
    config: dict

    def __post_init__(self):
        # freeze a view: the caller's own array stays writeable
        betas = np.asarray(self.betas, dtype=float).view()
        if betas.ndim != 2 or betas.shape[0] < 1:
            raise DomainError(f"betas must be (T+1, d), got shape {betas.shape}")
        if not np.all(np.isfinite(betas)):
            raise DomainError("betas must have finite entries")
        betas.setflags(write=False)
        object.__setattr__(self, "betas", betas)
        if self.errors is not None:
            errors = np.asarray(self.errors, dtype=float).view()
            if errors.shape != (betas.shape[0],) or not np.all(
                np.isfinite(errors) & (errors >= 0)
            ):
                raise DomainError("errors must be one finite nonnegative value per iterate")
            errors.setflags(write=False)
            object.__setattr__(self, "errors", errors)

    @property
    def final_beta(self) -> np.ndarray:
        return self.betas[-1]

    @property
    def final_error(self) -> float:
        if self.errors is None:
            raise DomainError("trace carries no ground-truth errors")
        return float(self.errors[-1])


SIGN_SYMMETRIC_KINDS = ("gmm", "mrm")


def align_sign(beta0: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Flip beta0 into the half-space containing reference.

    The two-component mixture models are invariant under beta -> -beta,
    so an initial point's sign is a pure gauge choice; fixing it against
    the known truth keeps error curves comparable across runs.  Not
    meaningful for rmc, whose optimum is unique.
    """
    if np.einsum("i,i->", beta0, reference) < 0.0:
        return -beta0
    return beta0


@dataclass(frozen=True)
class ReleasePlan:
    """One algorithm's iteration: release = estimate(samples(t, beta^{t-1})),
    beta^t = beta^{t-1} + eta * release (the release itself if eta is None).
    Here alone rho is set, budget.rho divided by each count of composed releases
    in ``divisions`` in turn (by their product the last bit can differ), and sigma."""

    algorithm: str
    T: int
    samples: Callable
    estimate: Callable
    eta: Optional[float]
    settings: dict
    budget: Optional[PrivacyBudget] = None
    sensitivity: float = 0.0
    divisions: tuple = ()
    add_noise: bool = False
    rho: float = field(init=False, default=0.0)
    sigma: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.budget is not None:
            rho = self.budget.rho
            for count in self.divisions:
                rho /= count
            object.__setattr__(self, "rho", rho)
            object.__setattr__(self, "sigma", gaussian_sigma_for_zcdp(self.sensitivity, rho))

    def echo(self) -> dict:
        """The trace's settings: plain values, not the closures over the data."""
        cfg = {"algorithm": self.algorithm, **self.settings, "eta": self.eta, "T": self.T}
        if self.budget is not None:
            cfg.update(eps=self.budget.eps, delta=self.budget.delta,
                       sensitivity=self.sensitivity, rho=self.rho, sigma=self.sigma,
                       non_private_noise_disabled=not self.add_noise)
        return cfg


def _iterate(plan: ReleasePlan, beta, beta_star, rng) -> IterationTrace:
    """The one loop: runs plan from beta, drawing iteration t's noise from child
    stream t of rng.  The robust plans' samples are a RowSource, whose rows
    are made a block at a time as the kernel takes them, so an iteration
    holds no n x d matrix.  A non-finite per-sample value or iterate, or an
    error against beta_star that overflows, means the run diverged, reported
    with the last finite iterate."""
    betas = [beta]
    errors = None
    # a diverging run is reported once, as a ConvergenceError, not as a
    # burst of numpy's overflow/invalid RuntimeWarnings before it
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, plan.T + 1):
            released = plan.estimate(plan.samples(t, beta))
            if plan.add_noise:
                noise = rng.split(t).generator.standard_normal(beta.size)
                released = released + plan.sigma * noise
            beta = released if plan.eta is None else beta + plan.eta * released
            if not np.all(np.isfinite(beta)):
                raise ConvergenceError(
                    f"diverged at iteration {t}: beta has non-finite entries",
                    last_value=betas[-1],
                )
            betas.append(beta)
        stack = np.vstack(betas)
        if beta_star is not None:
            errors = np.linalg.norm(stack - beta_star, axis=1)
    if errors is not None:
        overflow = np.flatnonzero(~np.isfinite(errors))
        if overflow.size:  # beta^t finite but so large that its error overflows
            t = int(overflow[0])
            raise ConvergenceError(
                f"diverged at iteration {t}: estimation error overflows",
                last_value=betas[max(t - 1, 0)],
            )
    return IterationTrace(stack, errors, plan.echo())


def _sample_rows(t: int, beta, shape: tuple, batch: Callable) -> RowSource:
    """Iteration t's per-sample values at beta^{t-1} = beta, as a RowSource
    whose rows batch(part) gives for the slice part; each row has the bits of
    a whole-matrix call.  A non-finite value means the run diverged."""
    from .robust import RowSource

    def rows(part):
        values = batch(part)
        if not np.all(np.isfinite(values)):
            raise ConvergenceError(
                f"diverged at iteration {t}: per-sample values have non-finite entries",
                last_value=beta)
        return values

    return RowSource(shape, rows)


def _check_run(data: ObservationSet, model: ModelSpec, beta0, truth):
    """beta0 and the truth beta_star (None without a truth) as d-vectors,
    checked with the data against the model before any iteration runs."""
    if data.kind != model.kind:
        raise DomainError(f"data kind {data.kind!r} does not match model {model.kind!r}")
    if data.d != model.d:
        raise DomainError(f"data dimension {data.d} does not match model d={model.d}")
    beta0 = check_vector("beta0", beta0, d=model.d)
    if truth is None:
        return beta0, None
    return beta0, check_vector("beta_star", truth, d=model.d)


def plan_for(algorithm: str, data: ObservationSet, model: ModelSpec, rng, *, T, eta=None,
             budget: Optional[PrivacyBudget] = None, clip=None, tau=None, zeta=None,
             shuffle=True, disable_noise=False) -> ReleasePlan:
    """One fit's ReleasePlan, built without running it: settings checked in the
    fit function's argument order (clip is clip_C), dpgem's shuffle drawn from
    child stream 0 of rng.  A robust release is the kernel's column means over
    count samples at s = sqrt(count tau eps_tilde) / (2 ln(d/zeta)), smoothing
    sqrt(ln(d/zeta)); the kernel is looked up here, so a rebound one is seen."""
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"algorithm: expected one of {ALGORITHMS}, got {algorithm!r}")
    if algorithm == "dpem" and model.kind != "gmm":
        raise DomainError(f"dp_em_gmm requires the gmm model, got {model.kind!r}")
    if algorithm == "clipped":
        clip = check_positive("clip_C", clip)
    if algorithm in ("dpgem", "dpem"):
        tau = check_positive("tau", tau)
    if algorithm != "dpem":
        eta = check_positive("eta", eta)
    T = check_count("T", T, minimum=0 if algorithm == "em" else 1)
    if algorithm == "em":
        # the samples are beta itself: grad_q_mean forms no matrix of gradients
        return ReleasePlan("em", T, lambda t, b: b, lambda b: grad_q_mean(model, data, b),
                           eta, {})
    if algorithm != "clipped":
        zeta = check_probability("zeta", zeta)
    n, d = data.n, model.d
    if algorithm == "dpgem":
        shuffle = check_flag("shuffle", shuffle)
        if n < T:
            raise DomainError(f"need n >= T, got n={n}, T={T}")
    if not isinstance(budget, PrivacyBudget):  # a plan without one would add no noise
        raise DomainError(f"budget must be a PrivacyBudget, got {budget!r}")
    add_noise = not check_flag("disable_noise", disable_noise)
    if algorithm == "clipped":
        # one averaged d-vector per iteration, L2 sensitivity 2 clip_C / n
        return ReleasePlan("clipped", T, lambda t, b: b,
                           lambda b: grad_q_mean(model, data, b, clip), eta,
                           {"clip_C": clip}, budget, 2.0 * clip / n, (T,), add_noise)
    from .robust import PHI_BOUND, RobustMeanParams, robust_mean_columns

    count = n // T if algorithm == "dpgem" else n
    log_term = math.log(d / zeta)
    s = math.sqrt(count * tau * budget.eps_tilde) / (2.0 * log_term)
    params = RobustMeanParams(s=s, beta=math.sqrt(log_term))
    settings = {"tau": tau, "zeta": zeta, "s": s, "smoothing_beta": params.beta}
    if algorithm == "dpem":
        def samples(t, b):
            return _sample_rows(t, b, (n, d),
                                lambda part: f_gmm_batch(data.rows(part), b, model.sigma))

        eta, divisions = None, (T, d)
    else:
        order = rng.split(0).generator.permutation(n) if shuffle else np.arange(n)
        subsets = order[: count * T].reshape(T, count)  # trailing n - mT samples unused

        def samples(t, b):
            return _sample_rows(t, b, (count, d), lambda part: grad_q_batch(
                model, data.take(subsets[t - 1][part]), b))

        settings.update(m=count, shuffle=shuffle)
        divisions = (d,)
    return ReleasePlan(algorithm, T, samples, lambda rows: robust_mean_columns(rows, params),
                       eta, settings, budget, 2.0 * PHI_BOUND * s / count, divisions, add_noise)


def gradient_em(
    data: ObservationSet,
    model: ModelSpec,
    beta0,
    eta: float,
    T: int,
    truth=None,
) -> IterationTrace:
    """Non-private iteration beta^{t+1} = beta^t + eta * mean gradient."""
    beta, beta_star = _check_run(data, model, beta0, truth)
    return _iterate(plan_for("em", data, model, None, T=T, eta=eta), beta, beta_star, None)


def clipped_dp_gradient_em(
    data: ObservationSet,
    model: ModelSpec,
    beta0,
    clip_C: float,
    eta: float,
    T: int,
    budget: PrivacyBudget,
    rng: RngStream,
    truth=None,
    disable_noise: bool = False,
) -> IterationTrace:
    """Per-sample gradients rescaled to norm <= clip_C, averaged, plus
    N(0, sigma^2 I_d) noise; the full dataset is reused every iteration,
    so the T releases compose sequentially."""
    beta, beta_star = _check_run(data, model, beta0, truth)
    return _iterate(plan_for("clipped", data, model, rng, T=T, eta=eta, budget=budget,
                             clip=clip_C, disable_noise=disable_noise), beta, beta_star, rng)


def dp_gradient_em(
    data: ObservationSet,
    model: ModelSpec,
    beta0,
    tau: float,
    eta: float,
    T: int,
    budget: PrivacyBudget,
    zeta: float,
    rng: RngStream,
    truth=None,
    shuffle: bool = True,
    disable_noise: bool = False,
) -> IterationTrace:
    """Gradient EM with per-coordinate robust-smoothed means on disjoint
    subsets.

    The data is split (after an optional seeded shuffle) into T subsets of
    m = floor(n/T) samples; iteration t releases the d-vector of smoothed
    robust means of that subset's gradients plus N(0, sigma^2 I_d) with
    sigma^2 = 16 s^2 d / (9 m^2 eps_tilde^2).  Disjointness makes the
    iterations compose in parallel.  sigma is calibrated as d coordinate
    releases of sensitivity Delta at rho/d each; the vector drawn jointly
    has L2 sensitivity sqrt(d) Delta at the whole rho, and
    Delta / sqrt(2 rho / d) = sqrt(d) Delta / sqrt(2 rho), the same sigma.
    """
    beta, beta_star = _check_run(data, model, beta0, truth)
    return _iterate(plan_for("dpgem", data, model, rng, T=T, eta=eta, budget=budget, tau=tau,
                             zeta=zeta, shuffle=shuffle, disable_noise=disable_noise),
                    beta, beta_star, rng)


def dp_em_gmm(
    data: ObservationSet,
    model: ModelSpec,
    beta0,
    tau: float,
    T: int,
    budget: PrivacyBudget,
    zeta: float,
    rng: RngStream,
    truth=None,
    disable_noise: bool = False,
) -> IterationTrace:
    """Private EM for the two-component mixture: beta^t is the noisy
    per-coordinate robust-smoothed mean of the fixed-point map over the
    full dataset (no step size).  Reusing all n samples every iteration
    costs sequential composition over the T*d coordinate releases, so
    sigma^2 = 16 s^2 d T / (9 n^2 eps_tilde^2).  Each iteration's d-vector
    is noised by one joint N(0, sigma^2 I_d) draw: at L2 sensitivity
    sqrt(d) Delta and rho/T per iteration that is the same sigma."""
    if model.kind != "gmm":  # before the data are checked against the model
        raise DomainError(f"dp_em_gmm requires the gmm model, got {model.kind!r}")
    beta, beta_star = _check_run(data, model, beta0, truth)
    return _iterate(plan_for("dpem", data, model, rng, T=T, budget=budget, tau=tau,
                             zeta=zeta, disable_noise=disable_noise), beta, beta_star, rng)


def _is_auto(name: str, value) -> bool:
    if isinstance(value, str):
        if value != "auto":
            raise ConfigError(f"{name} must be 'auto' or a number, got {value!r}")
        return True
    return False


def run_algorithm(algorithm: str, data: ObservationSet, model: ModelSpec, beta0,
                  rng: RngStream, truth, *, iters="auto", eta=None, eps=None,
                  delta="auto", clip=None, tau="auto", zeta=None, shuffle=True,
                  disable_noise=False, public_truth=True) -> IterationTrace:
    """The one entry point of a fit, for the CLI and the estimator classes.

    Each ``auto`` setting is resolved by its one rule: delta = n^-1.1,
    T = max(1, ceil(ln n)) iterations, and tau = tau_bound at the ground
    truth (dpgem and dpem only).  With a truth on the sign-symmetric gmm
    and mrm, beta0 is flipped into the truth's half-space: beta -> -beta is
    a symmetry of those models, so fixing the gauge makes error curves
    measure convergence, not the arbitrary sign.  Both read the truth, so
    both need ``public_truth``: the truth is a simulation parameter.  A
    truth computed from the rows, as ``preprocess`` computes beta_star,
    would let the release read private data outside the budget; with
    ``public_truth=False`` tau='auto' is refused and beta0 is kept, so the
    truth only scores the trace.  The four fit functions are looked up by
    their module names at call time, so a wrapper rebound over one sees it."""
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"algorithm: expected one of {ALGORITHMS}, got {algorithm!r}")
    beta0, beta_star = _check_run(data, model, beta0, truth)
    if public_truth and beta_star is not None and model.kind in SIGN_SYMMETRIC_KINDS:
        beta0 = align_sign(beta0, beta_star)
    n = data.n
    if _is_auto("delta", delta):
        if n < 2 and algorithm != "em":
            raise ConfigError(f"delta='auto' is n^-1.1, which is not below 1 for n={n}; "
                              "give delta in (0, 1)")
        delta = float(n) ** -1.1
    T = max(1, math.ceil(math.log(n))) if _is_auto("iters", iters) else iters
    if algorithm == "em":
        return gradient_em(data, model, beta0, eta, T, beta_star)
    budget = make_budget(eps, delta)
    if algorithm == "clipped":
        return clipped_dp_gradient_em(data, model, beta0, clip, eta, T, budget, rng,
                                      beta_star, disable_noise=disable_noise)
    if _is_auto("tau", tau):
        if beta_star is None:
            raise ConfigError("tau='auto' needs the ground truth beta_star")
        if not public_truth:
            raise ConfigError("tau: 'auto' reads beta_star, which was computed from "
                              "the private data; give a number")
        tau = tau_bound(model, float(np.max(np.abs(beta_star))),
                        math.sqrt(np.einsum("i,i->", beta_star, beta_star)))
    if algorithm == "dpgem":
        return dp_gradient_em(data, model, beta0, tau, eta, T, budget, zeta, rng,
                              beta_star, shuffle=shuffle, disable_noise=disable_noise)
    return dp_em_gmm(data, model, beta0, tau, T, budget, zeta, rng, beta_star,
                     disable_noise=disable_noise)


class _EMBase(BaseEstimator):
    """Shared fit, one run_algorithm call; subclasses set ``algorithm`` and
    declare their hyperparameters in ``__init__``."""

    algorithm: str

    def fit(self, X, y=None, beta_star=None):
        data = ObservationSet.from_arrays(self.model, X, y)
        model = ModelSpec(self.model, data.d, self.sigma, getattr(self, "p_m", 0.0))
        root = RngStream(self.random_state)
        if not isinstance(self.init, str):
            beta0 = check_vector("init", self.init, d=data.d)
        elif self.init == "random":
            beta0 = initial_beta(data.d, root.split(0))
        else:
            raise ConfigError(f"init must be 'random' or a vector, got {self.init!r}")
        p = self.get_params()
        trace = run_algorithm(
            self.algorithm, data, model, beta0, root.split(1), beta_star, iters=self.n_iter,
            eta=p.get("eta"), eps=p.get("eps"), delta=p.get("delta", "auto"),
            clip=p.get("clip"), tau=p.get("tau"), zeta=p.get("zeta"),
            shuffle=p.get("shuffle"), disable_noise=p.get("unsafe_no_noise", False),
        )
        self.n_features_in_ = data.d
        self.trace_ = trace
        self.beta_ = trace.betas[-1]
        self.n_iter_ = trace.betas.shape[0] - 1
        return self


class GradientEM(_EMBase):
    """Non-private gradient EM."""

    algorithm = "em"

    def __init__(self, model="gmm", sigma=1.0, p_m=0.0, eta=1.0, n_iter="auto",
                 init="random", random_state=0):
        self.model = model
        self.sigma = sigma
        self.p_m = p_m
        self.eta = eta
        self.n_iter = n_iter
        self.init = init
        self.random_state = random_state


class ClippedDPGradientEM(_EMBase):
    """Gradient EM privatized by per-sample clipping plus Gaussian noise."""

    algorithm = "clipped"

    def __init__(self, model="gmm", sigma=1.0, p_m=0.0, clip=1.0, eta=1.0,
                 n_iter="auto", eps=1.0, delta="auto", init="random",
                 random_state=0, unsafe_no_noise=False):
        self.model = model
        self.sigma = sigma
        self.p_m = p_m
        self.clip = clip
        self.eta = eta
        self.n_iter = n_iter
        self.eps = eps
        self.delta = delta
        self.init = init
        self.random_state = random_state
        self.unsafe_no_noise = unsafe_no_noise


class DPGradientEM(_EMBase):
    """Gradient EM privatized by robust-smoothed means on disjoint subsets."""

    algorithm = "dpgem"

    def __init__(self, model="gmm", sigma=1.0, p_m=0.0, tau="auto", eta=1.0,
                 n_iter="auto", eps=1.0, delta="auto", zeta=0.05, shuffle=True,
                 init="random", random_state=0, unsafe_no_noise=False):
        self.model = model
        self.sigma = sigma
        self.p_m = p_m
        self.tau = tau
        self.eta = eta
        self.n_iter = n_iter
        self.eps = eps
        self.delta = delta
        self.zeta = zeta
        self.shuffle = shuffle
        self.init = init
        self.random_state = random_state
        self.unsafe_no_noise = unsafe_no_noise


class DPEMGaussianMixture(_EMBase):
    """Private EM for the two-component Gaussian mixture."""

    algorithm = "dpem"

    def __init__(self, sigma=1.0, tau="auto", n_iter="auto", eps=1.0,
                 delta="auto", zeta=0.05, init="random", random_state=0,
                 unsafe_no_noise=False):
        self.model = "gmm"
        self.sigma = sigma
        self.tau = tau
        self.n_iter = n_iter
        self.eps = eps
        self.delta = delta
        self.zeta = zeta
        self.init = init
        self.random_state = random_state
        self.unsafe_no_noise = unsafe_no_noise
