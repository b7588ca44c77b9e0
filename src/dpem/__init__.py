"""Differentially private EM for latent-variable models.

Robust-mean based noisy gradient EM with zCDP accounting, three latent
models (gmm, mrm, rmc), estimator classes, and a benchmark CLI.
"""

from .accounting import (
    PrivacyBudget,
    gaussian_sigma_for_zcdp,
    make_budget,
    split_budget_alg1,
    split_budget_alg2,
    zcdp_to_approx_dp,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DataError,
    DomainError,
    ParseError,
)
from .estimators import (
    ClippedDPGradientEM,
    DPEMGaussianMixture,
    DPGradientEM,
    GradientEM,
    IterationTrace,
    clipped_dp_gradient_em,
    dp_em_gmm,
    dp_gradient_em,
    gradient_em,
    initial_beta,
)
from .models import (
    MODEL_KINDS,
    ModelSpec,
    ObservationSet,
    f_gmm,
    grad_q,
    preprocess_real_gmm,
    q_value,
    sample_observations,
    tau_bound,
)
from .numeric import (
    RngStream,
    max_eigenvalue,
    sample_gaussian,
)
from .robust import (
    PHI_BOUND,
    RobustMeanParams,
    central_dp_mean,
    correction_C,
    local_dp_mean,
    phi,
    robust_mean,
    select_params_central,
    select_params_nonprivate,
    select_params_local,
    smoothed_phi,
)

__version__ = "0.1.0"

__all__ = [
    "PHI_BOUND",
    "MODEL_KINDS",
    "ClippedDPGradientEM",
    "ConfigError",
    "ConvergenceError",
    "DataError",
    "DomainError",
    "DPEMGaussianMixture",
    "DPGradientEM",
    "GradientEM",
    "IterationTrace",
    "ModelSpec",
    "ObservationSet",
    "ParseError",
    "PrivacyBudget",
    "RngStream",
    "RobustMeanParams",
    "central_dp_mean",
    "clipped_dp_gradient_em",
    "correction_C",
    "dp_em_gmm",
    "dp_gradient_em",
    "f_gmm",
    "gaussian_sigma_for_zcdp",
    "grad_q",
    "gradient_em",
    "initial_beta",
    "local_dp_mean",
    "make_budget",
    "max_eigenvalue",
    "phi",
    "preprocess_real_gmm",
    "q_value",
    "robust_mean",
    "sample_gaussian",
    "sample_observations",
    "select_params_central",
    "select_params_nonprivate",
    "select_params_local",
    "smoothed_phi",
    "split_budget_alg1",
    "split_budget_alg2",
    "tau_bound",
    "zcdp_to_approx_dp",
]
