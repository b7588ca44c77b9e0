"""The tests' per-sample oracles: each model's surrogate objective, its
gradient and the rmc conditional moments for one sample, the gmm fixed-point
map, and the soft truncation phi.  The package's fits run the batched forms
(grad_q_batch, grad_q_mean, f_gmm_batch) and the smoothed kernel; these
one-sample forms are written out term by term so the tests can check the
batched algebra against them."""

import numpy as np

from dpem.errors import DomainError
from dpem.models import ModelSpec
from dpem.robust import _SQRT2, _correction_vec, _v_pair
from dpem.validation import check_finite_scalar, check_positive, check_vector


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # evaluate exp on negative arguments only
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _check_sample(model: ModelSpec, sample):
    if model.kind == "gmm":
        return (check_vector("y", sample, d=model.d),)
    if model.kind == "mrm":
        x, y = sample
        return check_vector("x", x, d=model.d), check_finite_scalar("y", y)
    x_obs, mask, y = sample
    x_obs = check_vector("x_obs", x_obs, d=model.d)
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != x_obs.shape:
        raise DomainError("mask must be boolean with x_obs's shape")
    return x_obs, mask, check_finite_scalar("y", y)


def grad_q(model: ModelSpec, sample, beta) -> np.ndarray:
    """Per-sample ascent direction of the surrogate objective at beta.

    gmm: (2 w - 1) y - beta with w = sigmoid(<beta, y>/sigma^2)
    mrm: (2 w - 1) y x - x x^T beta with w = sigmoid(y <beta, x>/sigma^2)
    rmc: y m_beta - K_beta beta
    """
    beta = check_vector("beta", beta, d=model.d)
    parts = _check_sample(model, sample)
    s2 = model.sigma**2
    if model.kind == "gmm":
        (y,) = parts
        # 2w - 1 evaluated as tanh(t/2): no cancellation near w = 1/2, and
        # tanh's odd symmetry keeps grad_q(y) == grad_q(-y) bitwise
        return np.tanh(0.5 * np.dot(beta, y) / s2) * y - beta
    if model.kind == "mrm":
        x, y = parts
        return np.tanh(0.5 * y * np.dot(beta, x) / s2) * y * x - x * np.dot(x, beta)
    x_obs, mask, y = parts
    m = m_beta(x_obs, mask, y, beta, model.sigma)
    return y * m - K_beta(x_obs, mask, y, beta, model.sigma) @ beta


def q_value(model: ModelSpec, sample, beta, beta_prime) -> float:
    """Per-sample surrogate objective q(beta; beta_prime); additive terms
    constant in beta are dropped.  Its beta-gradient at beta = beta_prime
    equals grad_q."""
    beta = check_vector("beta", beta, d=model.d)
    beta_prime = check_vector("beta_prime", beta_prime, d=model.d)
    parts = _check_sample(model, sample)
    s2 = model.sigma**2
    if model.kind == "gmm":
        (y,) = parts
        w = float(_sigmoid(np.dot(beta_prime, y) / s2))
        return -0.5 * (
            w * float(np.sum((y - beta) ** 2)) + (1.0 - w) * float(np.sum((y + beta) ** 2))
        )
    if model.kind == "mrm":
        x, y = parts
        w = float(_sigmoid(y * np.dot(beta_prime, x) / s2))
        r = float(np.dot(x, beta))
        return -0.5 * (w * (y - r) ** 2 + (1.0 - w) * (y + r) ** 2)
    x_obs, mask, y = parts
    m = m_beta(x_obs, mask, y, beta_prime, model.sigma)
    k = K_beta(x_obs, mask, y, beta_prime, model.sigma)
    return float(y * np.dot(beta, m) - 0.5 * np.dot(beta, k @ beta))


def m_beta(x_obs, mask, y, beta, sigma: float) -> np.ndarray:
    """Conditional mean of the full covariate given the observed part:
    z*x + ((y - <beta, z*x>) / (sigma^2 + ||(1-z)*beta||^2)) (1-z)*beta,
    with z the observed-coordinate indicator."""
    x_obs = check_vector("x_obs", x_obs)
    beta = check_vector("beta", beta, d=x_obs.size)
    y = check_finite_scalar("y", y)
    sigma = check_positive("sigma", sigma)
    miss = 1.0 - np.asarray(mask, dtype=float)
    denom = sigma**2 + float(np.sum(miss * beta * beta))  # >= sigma^2 > 0
    return x_obs + ((y - float(np.dot(beta, x_obs))) / denom) * (miss * beta)


def K_beta(x_obs, mask, y, beta, sigma: float) -> np.ndarray:
    """Conditional second moment of the full covariate:
    diag(1-z) + m m^T - [(1-z)*m][(1-z)*m]^T; exactly symmetric."""
    m = m_beta(x_obs, mask, y, beta, sigma)
    miss = 1.0 - np.asarray(mask, dtype=float)
    u = miss * m
    return np.diag(miss) + np.outer(m, m) - np.outer(u, u)


def f_gmm(y, beta_prime, sigma: float) -> np.ndarray:
    """GMM fixed-point map (2 w - 1) y; satisfies f_gmm(y, b) - b = grad_q."""
    y = check_vector("y", y)
    beta_prime = check_vector("beta_prime", beta_prime, d=y.size)
    sigma = check_positive("sigma", sigma)
    return np.tanh(0.5 * np.dot(beta_prime, y) / sigma**2) * y


def phi(x):
    """Soft truncation: x - x^3/6 on [-sqrt(2), sqrt(2)], saturating at
    +-2*sqrt(2)/3 outside.  Odd, continuous, |phi| <= 2*sqrt(2)/3."""
    c = np.clip(x, -_SQRT2, _SQRT2)
    out = c - c**3 / 6.0
    if np.ndim(x) == 0:
        return float(out)
    return out


def correction_C(a: float, b: float) -> float:
    """Correction term of the smoothed truncation's closed form:
    E phi(a + b*xi) = a(1 - b^2/2) - a^3/6 + C(a, b) for xi ~ N(0, 1).

    Not an independent oracle: it evaluates one entry through the kernel's
    own dpem.robust._v_pair and _correction_vec, so a test comparing the
    kernel with it checks that the kernel's other steps keep C's bits."""
    a = check_finite_scalar("a", a)
    b = check_finite_scalar("b", b)
    if b <= 0:
        raise DomainError(f"b must be > 0, got {b!r}")
    a, b = np.array([a]), np.array([b])
    v = np.stack(_v_pair(a, b))
    return float(_correction_vec(a, a * a, a * a * a / 6.0, b, b * b, v, np.empty(6))[0])
