"""Differentially private EM for latent-variable models.

Robust-mean based noisy gradient EM with zCDP accounting, three latent
models (gmm, mrm, rmc), estimator classes, and a benchmark CLI.
"""

import importlib

# Each public name and the submodule that defines it.  A name is imported on
# first access (PEP 562), so ``import dpem`` loads no submodule and a command
# that needs no numerics, such as ``dpem report``, never loads numpy.
_SUBMODULE = {name: module for module, names in {
    "accounting": ("PrivacyBudget", "gaussian_sigma_for_zcdp", "make_budget",
                   "split_budget_alg1", "split_budget_alg2", "zcdp_to_approx_dp"),
    "base": ("MODEL_KINDS",),
    "errors": ("ConfigError", "ConvergenceError", "DataError", "DomainError", "ParseError"),
    "estimators": ("ClippedDPGradientEM", "DPEMGaussianMixture", "DPGradientEM",
                   "GradientEM", "IterationTrace", "clipped_dp_gradient_em", "dp_em_gmm",
                   "dp_gradient_em", "gradient_em"),
    "models": ("ModelSpec", "ObservationSet", "grad_q_mean", "preprocess_real_gmm",
               "sample_observations", "tau_bound"),
    "numeric": ("RngStream", "initial_beta", "max_eigenvalue", "sample_gaussian"),
    "robust": ("PHI_BOUND", "RobustMeanParams", "central_dp_mean", "local_dp_mean",
               "robust_mean", "select_params_central", "select_params_nonprivate",
               "select_params_local", "smoothed_phi"),
}.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE})
