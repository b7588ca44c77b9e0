"""The three latent-variable models: samplers, the batched per-sample
gradients and their (clipped) mean, the GMM fixed-point map, second-moment
bounds, and the labeled-data-to-GMM preprocessing pipeline.

Models (parameter beta, noise std sigma):
  gmm  y = z * beta + v,        z Rademacher, v ~ N(0, sigma^2 I)
  mrm  y = z <beta, x> + v,     x ~ N(0, I), z Rademacher, v ~ N(0, sigma^2)
  rmc  y = <beta, x> + v, then each coordinate of x is dropped
       independently with probability p_m (mask entry False).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .base import MODEL_KINDS
from .errors import DomainError
from .numeric import RngStream, max_eigenvalue
from .validation import (
    check_count,
    check_finite_scalar,
    check_positive,
    check_vector,
)

__all__ = [
    "MODEL_KINDS",
    "ModelSpec",
    "ObservationSet",
    "sample_observations",
    "grad_q_batch",
    "grad_q_mean",
    "f_gmm_batch",
    "tau_bound",
    "preprocess_real_gmm",
    "SIGMA_FLOOR",
]

# Lower bound applied to the preprocessed noise std so a degenerate
# (zero-covariance) cluster still yields a valid model.
SIGMA_FLOOR = 1e-6


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    d: int
    sigma: float
    p_m: float = 0.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise DomainError(f"kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "d", check_count("d", self.d))
        object.__setattr__(self, "sigma", check_positive("sigma", self.sigma))
        p_m = check_finite_scalar("p_m", self.p_m)
        if not 0.0 <= p_m < 1.0:
            raise DomainError(f"p_m must lie in [0, 1), got {p_m!r}")
        if self.kind != "rmc" and p_m != 0.0:
            raise DomainError("p_m applies to the rmc model only")
        object.__setattr__(self, "p_m", p_m)


def _all_finite(values: np.ndarray) -> bool:
    """np.all(np.isfinite(values)), _ROWS rows at a time, so the check holds
    no n x d temporary."""
    values = np.atleast_1d(values)
    return all(np.isfinite(values[i : i + _ROWS]).all()
               for i in range(0, values.shape[0], _ROWS))


@dataclass(frozen=True)
class ObservationSet:
    """n samples for one model.  gmm: ys is (n, d).  mrm: xs is (n, d) and
    ys is (n,).  rmc: additionally mask is (n, d) boolean, True where the
    coordinate was observed; unobserved xs entries hold 0 and are never
    read (the mask is always consulted first)."""

    kind: str
    ys: np.ndarray
    xs: Optional[np.ndarray] = None
    mask: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise DomainError(f"kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        # arrays are frozen through views, so the caller's own arrays stay
        # writeable; no copy is made
        ys = np.asarray(self.ys, dtype=float).view()
        if not _all_finite(ys):
            raise DomainError("ys must have finite entries")
        if self.kind == "gmm":
            if ys.ndim != 2 or ys.shape[0] == 0:
                raise DomainError(f"gmm ys must be (n, d), got shape {ys.shape}")
            if self.xs is not None or self.mask is not None:
                raise DomainError("gmm observations carry responses only")
        else:
            if ys.ndim != 1 or ys.shape[0] == 0:
                raise DomainError(f"{self.kind} ys must be (n,), got shape {ys.shape}")
            xs = np.asarray(self.xs, dtype=float).view() if self.xs is not None else None
            if xs is None or xs.ndim != 2 or xs.shape[0] != ys.shape[0]:
                raise DomainError(f"{self.kind} xs must be (n, d) matching ys")
            if not _all_finite(xs):
                raise DomainError("xs must have finite entries")
            xs.setflags(write=False)
            object.__setattr__(self, "xs", xs)
            if self.kind == "rmc":
                mask = np.asarray(self.mask).view()
                if mask is None or mask.dtype != bool or mask.shape != xs.shape:
                    raise DomainError("rmc mask must be boolean with xs's shape")
                # _ROWS rows at a time, so the check holds no n x d temporary
                for i in range(0, xs.shape[0], _ROWS):
                    rows = slice(i, i + _ROWS)
                    if np.any(xs[rows] != 0.0, where=~mask[rows]):
                        raise DomainError("unobserved xs entries must hold the 0 sentinel")
                mask.setflags(write=False)
                object.__setattr__(self, "mask", mask)
            elif self.mask is not None:
                raise DomainError("mask applies to the rmc model only")
        ys.setflags(write=False)
        object.__setattr__(self, "ys", ys)

    @classmethod
    def from_arrays(cls, kind: str, X, y=None) -> "ObservationSet":
        """Observations as estimators take them and dataset files hold them:
        X is gmm's (n, d) responses, or (n, d) covariates beside responses y.
        In rmc a NaN in X is a missing covariate (mask False, 0 sentinel)."""
        if kind == "gmm":
            if y is not None:
                raise DomainError("gmm takes no response argument")
            # layout must not change results
            return cls(kind, np.ascontiguousarray(X, dtype=float))
        if y is None:
            raise DomainError(f"{kind} requires a response vector y")
        y = np.ascontiguousarray(y, dtype=float)
        if kind != "rmc":
            return cls(kind, y, np.ascontiguousarray(X, dtype=float))
        # one owned copy, whose missing cells take the 0 sentinel in place
        xs = np.array(X, dtype=float, order="C")
        mask = ~np.isnan(xs)
        np.copyto(xs, 0.0, where=~mask)
        return cls(kind, y, xs, mask)

    @cached_property
    def _row_terms(self):
        """grad_q_mean's per-dataset terms, computed on first use and kept
        for later iterations and fits: each row's ||x_i||^2 and, for rmc,
        the missing-cell indicator 1 - z as n x d floats."""
        sq = np.einsum("ij,ij->i", self.xs, self.xs)
        sq.setflags(write=False)
        if self.kind != "rmc":
            return sq, None
        miss = np.subtract(1.0, self.mask, dtype=float)
        miss.setflags(write=False)
        return sq, miss

    @property
    def n(self) -> int:
        return self.ys.shape[0]

    @property
    def d(self) -> int:
        return self.ys.shape[1] if self.kind == "gmm" else self.xs.shape[1]

    def take(self, indices) -> "ObservationSet":
        """The rows at the 1-d indices, as a new set with frozen copies (see
        rows; dp_gradient_em takes a subset every iteration)."""
        idx = np.asarray(indices)
        if idx.ndim != 1:
            raise DomainError(f"indices must be 1-d, got shape {idx.shape}")
        subset = self.rows(idx)
        if subset.n == 0:
            raise DomainError("indices select no rows")
        return subset

    def rows(self, part) -> "ObservationSet":
        """The rows that part, a slice or 1-d indices, selects: a new set of
        frozen views or copies.  The rows were checked when this set was
        built, so they are not checked again."""
        subset = object.__new__(ObservationSet)
        object.__setattr__(subset, "kind", self.kind)
        for name in ("ys", "xs", "mask"):
            values = getattr(self, name)
            if values is not None:
                values = values[part]
                values.setflags(write=False)
            object.__setattr__(subset, name, values)
        return subset


def sample_observations(
    model: ModelSpec, n: int, beta_star, rng: RngStream
) -> ObservationSet:
    """n samples of the model at beta_star, drawn from rng's generator.

    The n x d array of draws becomes the data in place, and the other n x d
    terms (gmm's z * beta_star, rmc's uniforms for the mask) are made _ROWS
    rows at a time, so the set is about the only table held.  The generator
    fills an array in stream order, so drawing in blocks draws the same
    values, and the sums are those of whole-array arithmetic bit for bit."""
    n = check_count("n", n)
    beta_star = check_vector("beta_star", beta_star, d=model.d)
    gen = rng.generator
    if model.kind == "gmm":
        z = gen.integers(0, 2, size=n) * 2 - 1
        v = gen.standard_normal((n, model.d))
        v *= model.sigma
        for i in range(0, n, _ROWS):
            v[i:i + _ROWS] += z[i:i + _ROWS, None] * beta_star
        return ObservationSet("gmm", v)
    if model.kind == "mrm":
        z = gen.integers(0, 2, size=n) * 2 - 1
        x = gen.standard_normal((n, model.d))
        y = z * np.einsum("ij,j->i", x, beta_star) + model.sigma * gen.standard_normal(n)
        return ObservationSet("mrm", y, x)
    x = gen.standard_normal((n, model.d))
    # the response uses the full covariate; masking happens afterwards
    y = np.einsum("ij,j->i", x, beta_star) + model.sigma * gen.standard_normal(n)
    mask = np.empty((n, model.d), dtype=bool)
    for i in range(0, n, _ROWS):
        rows = mask[i:i + _ROWS]
        np.greater_equal(gen.random(rows.shape), model.p_m, out=rows)
    np.copyto(x, 0.0, where=~mask)
    return ObservationSet("rmc", y, x, mask)


# Rows per block of grad_q_batch, so that the allocator reuses each block's
# temporaries instead of faulting n x d ones in again on every call, and of
# sample_observations' n x d terms.
_ROWS = 1024


def grad_q_batch(model: ModelSpec, data: ObservationSet, beta) -> np.ndarray:
    """(n, d) matrix of the per-sample ascent directions g_i of the
    surrogate objective at beta, whose mean grad_q_mean takes (each g_i is
    written out there), evaluated _ROWS rows at a time into one new array.
    Every product is an einsum, which sums each row alone and in numpy's own
    order, so a row's bits depend neither on the rows beside it nor on BLAS."""
    if data.kind != model.kind:
        raise DomainError(f"data kind {data.kind!r} does not match model {model.kind!r}")
    beta = check_vector("beta", beta, d=model.d)
    s2 = model.sigma**2
    out = np.empty((data.n, model.d))
    for i in range(0, data.n, _ROWS):
        block, ys = out[i:i + _ROWS], data.ys[i:i + _ROWS]
        if model.kind == "gmm":
            t = np.tanh(0.5 * np.einsum("ij,j->i", ys, beta) / s2)
            np.multiply(t[:, None], ys, out=block)
            block -= beta
            continue
        xs = data.xs[i:i + _ROWS]
        if model.kind == "mrm":
            xb = np.einsum("ij,j->i", xs, beta)
            t = np.tanh(0.5 * ys * xb / s2)
            np.subtract((t * ys)[:, None] * xs, xb[:, None] * xs, out=block)
            continue
        miss = np.subtract(1.0, data.mask[i:i + _ROWS], dtype=float)
        mb = miss * beta
        dot_obs = np.einsum("ij,j->i", xs, beta)  # <beta, observed x>: sentinels are 0
        denom = s2 + np.einsum("ij,j->i", miss, beta * beta)
        # u = (1 - z) * m up to the sign of a zero, since sentinel entries are 0
        u = ((ys - dot_obs) / denom)[:, None] * mb
        m = xs + u
        # ys m - K beta, with K = diag(1 - z) + m m^T - u u^T the conditional
        # second moment, is ys m - ((mb + m <m, beta>) - u <u, beta>)
        np.multiply(m, np.einsum("ij,j->i", m, beta)[:, None], out=block)
        block += mb
        u *= np.einsum("ij,j->i", u, beta)[:, None]
        block -= u
        m *= ys[:, None]
        np.subtract(m, block, out=block)
    return out


def grad_q_mean(model: ModelSpec, data: ObservationSet, beta, clip=None) -> np.ndarray:
    """Mean of grad_q_batch's rows g_i, each first scaled by
    s_i = min(1, clip / ||g_i||) when clip is given (s_i = 0 for a zero row).

    No n x d matrix of gradients is formed.  With t = tanh, w_i = 1 - z_i
    (rmc's missing-cell indicator), q_i = <w_i, beta^2> and
    c_i = (y_i - <x_i, beta>) / (sigma^2 + q_i), every row is a multiple of
    the sample's data row plus a multiple of beta:

      gmm  g_i = t_i y_i - beta,  t_i = t(<y_i, beta> / (2 sigma^2))
      mrm  g_i = a_i x_i,  a_i = t_i y_i - <x_i, beta>,
           t_i = t(y_i <x_i, beta> / (2 sigma^2))
      rmc  g_i = a_i x_i + r_i (w_i * beta),  a_i = y_i - (<x_i, beta> + c_i q_i),
           r_i = c_i a_i - 1 + c_i^2 q_i

    so the release takes per-row scalars and two matrix-vector products.  x_i and
    w_i * beta have disjoint supports (the sentinel cells of x_i are 0), so
    rmc's ||g_i||^2 = a_i^2 ||x_i||^2 + r_i^2 q_i, a sum of nonnegative
    terms.  gmm's norm is taken from the formed rows, _ROWS at a time: its
    expansion t^2 ||y||^2 - 2 t <y, beta> + ||beta||^2 cancels, and at
    ||beta|| = 100, sigma = 0.05 and clip = 0.01 it let a clipped row reach
    clip (1 + 9.4e-10)."""
    if data.kind != model.kind:
        raise DomainError(f"data kind {data.kind!r} does not match model {model.kind!r}")
    beta = check_vector("beta", beta, d=model.d)
    if clip is not None:
        clip = check_positive("clip", clip)
    s2 = model.sigma**2
    ys, xs = data.ys, data.xs
    if model.kind == "gmm":
        a = np.tanh(0.5 * np.einsum("ij,j->i", ys, beta) / s2)
        if clip is not None:
            sq = np.empty(data.n)
            for i in range(0, data.n, _ROWS):
                rows = a[i:i + _ROWS, None] * ys[i:i + _ROWS] - beta
                sq[i:i + _ROWS] = np.einsum("ij,ij->i", rows, rows)
    else:
        xx, miss = data._row_terms
        xb = np.einsum("ij,j->i", xs, beta)
        if model.kind == "mrm":
            a = np.tanh(0.5 * ys * xb / s2) * ys - xb
        else:
            q = np.einsum("ij,j->i", miss, beta * beta)
            c = (ys - xb) / (s2 + q)
            a = ys - (xb + c * q)
            r = c * a - 1.0 + c * c * q
        if clip is not None:
            sq = a * a * xx
            if model.kind == "rmc":
                sq += r * r * q
    # where the clip is slack s_i = 1 exactly, and the release is the mean bit
    # for bit
    count = float(data.n)
    if clip is not None:
        norms = np.sqrt(sq)
        with np.errstate(divide="ignore"):
            scale = np.minimum(1.0, clip / np.where(norms > 0, norms, np.inf))
        a *= scale
        count = scale.sum()
        if model.kind == "rmc":
            r *= scale
    if model.kind == "gmm":
        return (np.einsum("i,ij->j", a, ys) - beta * count) / data.n
    if model.kind == "mrm":
        return np.einsum("i,ij->j", a, xs) / data.n
    return (np.einsum("i,ij->j", a, xs) + beta * np.einsum("i,ij->j", r, miss)) / data.n


def f_gmm_batch(data: ObservationSet, beta_prime, sigma: float) -> np.ndarray:
    if data.kind != "gmm":
        raise DomainError(f"f_gmm requires gmm observations, got {data.kind!r}")
    beta_prime = check_vector("beta_prime", beta_prime, d=data.d)
    sigma = check_positive("sigma", sigma)
    t = np.tanh(0.5 * np.einsum("ij,j->i", data.ys, beta_prime) / sigma**2)
    return t[:, None] * data.ys


def tau_bound(model: ModelSpec, beta_star_inf: float, beta_star_l2: float) -> float:
    """Per-coordinate second-moment bound for the gradients at beta_star,
    4 times the base bound

    gmm: ||beta*||_inf^2 + sigma^2
    mrm: max{(||beta*||_2^2 + sigma^2)^2, d ||beta*||_2^2}
    rmc: (sqrt(d) ||beta*||_2 + sigma^2 + ||beta*||_2^2)^2
    """
    beta_star_inf = check_positive("beta_star_inf", beta_star_inf, allow_zero=True)
    beta_star_l2 = check_positive("beta_star_l2", beta_star_l2, allow_zero=True)
    s2 = model.sigma**2
    if model.kind == "gmm":
        base = beta_star_inf**2 + s2
    elif model.kind == "mrm":
        base = max((beta_star_l2**2 + s2) ** 2, model.d * beta_star_l2**2)
    else:
        base = (math.sqrt(model.d) * beta_star_l2 + s2 + beta_star_l2**2) ** 2
    return 4.0 * base


def preprocess_real_gmm(features, labels):
    """Turn binary-labeled vectors into a centered two-cluster problem.

    Clusters are truncated to equal size (first n_min rows of each in input
    order), the noise std is sqrt of the larger per-cluster covariance top
    eigenvalue (floored at SIGMA_FLOOR), rows are translated by minus the
    cluster-mean midpoint, and the target parameter is the translated mean
    of the label-1 cluster, (mu1 - mu0)/2.

    Returns (ObservationSet, beta_star, sigma).
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] == 0:
        raise DomainError(f"features must be (n, d), got shape {features.shape}")
    if not np.all(np.isfinite(features)):
        raise DomainError("features must have finite entries")
    labels = np.asarray(labels)
    if labels.shape != (features.shape[0],):
        raise DomainError("labels must be one per feature row")
    values = set(np.unique(labels).tolist())
    if not values <= {0, 1}:
        raise DomainError(f"labels must be 0 or 1, got {sorted(values)}")
    if values != {0, 1}:
        raise DomainError("both labels must be present")

    idx1 = np.flatnonzero(labels == 1)
    idx0 = np.flatnonzero(labels == 0)
    n_min = min(idx1.size, idx0.size)
    if n_min < 2:
        raise DomainError(f"each cluster needs at least 2 rows, got {n_min}")
    cluster1 = features[idx1[:n_min]]
    cluster0 = features[idx0[:n_min]]

    lam1 = max_eigenvalue(np.cov(cluster1, rowvar=False).reshape(cluster1.shape[1], -1))
    lam0 = max_eigenvalue(np.cov(cluster0, rowvar=False).reshape(cluster0.shape[1], -1))
    sigma = max(math.sqrt(max(lam1, lam0, 0.0)), SIGMA_FLOOR)

    mu1 = cluster1.mean(axis=0)
    mu0 = cluster0.mean(axis=0)
    midpoint = (mu1 + mu0) / 2.0
    ys = np.vstack([cluster1, cluster0]) - midpoint
    beta_star = mu1 - midpoint  # == (mu1 - mu0) / 2
    return ObservationSet("gmm", ys), beta_star, sigma
