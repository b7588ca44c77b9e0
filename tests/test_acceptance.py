"""End-to-end checks of the package's headline guarantees.

Each test prints one `ACCEPTANCE k (name): PASS/FAIL` line before asserting,
so a plain `pytest -rA tests/test_acceptance.py` yields a scoreboard.  The
checks are property-based (bounds, monotone trends, scaling exponents, exact
reductions), not golden numbers.
"""

import math
import time
from functools import lru_cache

import numpy as np
from click.testing import CliRunner
from scipy.integrate import quad
from scipy.special import ndtr, roots_hermite

from dpem.accounting import make_budget
from dpem.cli import cli
from dpem.estimators import (
    SIGN_SYMMETRIC_KINDS,
    align_sign,
    clipped_dp_gradient_em,
    dp_em_gmm,
    dp_gradient_em,
    gradient_em,
    initial_beta,
)
from dpem.models import (
    ModelSpec,
    ObservationSet,
    grad_q_batch,
    sample_observations,
    tau_bound,
)
from dpem.numeric import RngStream
from dpem.robust import (
    PHI_BOUND,
    RobustMeanParams,
    central_dp_mean,
    local_dp_mean,
    robust_mean,
    robust_mean_columns,
    select_params_nonprivate,
    smoothed_phi,
)
from oracles import grad_q, q_value

SWAP_SENSITIVITY = 2.0 * PHI_BOUND  # 4 sqrt(2) / 3


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} ({name}): {status}{suffix}")


# ---------------------------------------------------------------------------
# independent quadrature oracle for the smoothed truncation


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _phi_ref(x):
    c = np.clip(x, -_SQRT2, _SQRT2)
    return c - c**3 / 6.0


def _npdf(u):
    return np.exp(-u * u / 2.0) * _INV_SQRT_2PI


@lru_cache(maxsize=8)
def _gh(n):
    return roots_hermite(n)


def _gauss_expectation(f, std, breakpoints):
    # Gauss-Hermite at two resolutions; fall back to adaptive quadrature
    # with the integrand's kinks listed when they disagree.
    t1, w1 = _gh(200)
    g1 = float(np.sum(w1 * f(_SQRT2 * std * t1)) / math.sqrt(math.pi))
    t2, w2 = _gh(400)
    g2 = float(np.sum(w2 * f(_SQRT2 * std * t2)) / math.sqrt(math.pi))
    if abs(g1 - g2) <= 1e-13 * max(1.0, abs(g2)):
        return g2
    pts = sorted(p / std for p in breakpoints if abs(p / std) < 40.0) or None
    val, _ = quad(lambda u: float(f(std * u)) * _npdf(u), -40.0, 40.0,
                  points=pts, epsabs=1e-13, epsrel=1e-13, limit=400)
    return val


def test_01_smoothed_truncation_closed_form():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        s = 10.0 ** rng.uniform(-2, 3)
        beta = 10.0 ** rng.uniform(-1, 2)
        x = float(np.sign(rng.standard_normal()) * 10.0 ** rng.uniform(-3, 3) * s)
        p = RobustMeanParams(s=s, beta=beta)
        oracle = s * _gauss_expectation(
            lambda e: _phi_ref((x + e * x) / s),
            1.0 / math.sqrt(beta),
            (_SQRT2 * s / x - 1.0, -_SQRT2 * s / x - 1.0),
        )
        worst = max(worst, abs(smoothed_phi(x, p) - oracle))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    report(1, "smoothed truncation matches quadrature oracle", ok,
           f"worst abs err {worst:.3e}, {elapsed:.2f}s")
    assert ok


def test_02_sensitivity_audits():
    rng = np.random.default_rng(42)
    p = RobustMeanParams(s=5.0, beta=16.0)
    t0 = time.perf_counter()

    # full-data mean: swap one sample, |release difference| <= bound / n.
    # Row 0 sits deep in the negative saturation zone so that swapping it
    # to the positive one realizes (almost) the whole bound.
    n = 500
    base = rng.standard_t(3, size=n) + 1.0
    base[0] = -1e12
    bound = SWAP_SENSITIVITY * p.s / n
    base_val = robust_mean(base, p)
    worst_central = 0.0
    for k in range(1000):
        swapped = base.copy()
        if k % 100 == 0:
            swapped[0] = 1e12
        else:
            swapped[rng.integers(n)] = rng.standard_t(3) + 1.0
        diff = abs(robust_mean(swapped, p) - base_val)
        assert diff <= bound * (1.0 + 1e-12)
        worst_central = max(worst_central, diff / bound)

    # per-coordinate release on an m-row subset: same story columnwise
    m, d = 100, 5
    mat = rng.standard_t(3, size=(m, d)) + 1.0
    mat[0, :] = -1e12
    bound_coord = SWAP_SENSITIVITY * p.s / m
    base_cols = robust_mean_columns(mat, p)
    worst_coord = 0.0
    for k in range(1000):
        swapped = mat.copy()
        if k % 100 == 0:
            swapped[0, :] = 1e12
        else:
            swapped[rng.integers(m), :] = rng.standard_t(3, size=d) + 1.0
        diff = float(np.abs(robust_mean_columns(swapped, p) - base_cols).max())
        assert diff <= bound_coord * (1.0 + 1e-12)
        worst_coord = max(worst_coord, diff / bound_coord)

    elapsed = time.perf_counter() - t0
    ok = worst_central >= 0.99 and worst_coord >= 0.99 and elapsed < 10.0
    report(2, "pre-noise releases respect swap sensitivity", ok,
           f"tightest ratios {worst_central:.6f} / {worst_coord:.6f}, {elapsed:.2f}s")
    assert ok


def test_03_budget_round_trip():
    worst = 0.0
    for eps in np.logspace(-2, 1, 10):
        for delta in np.logspace(-8, -2, 10):
            et = make_budget(float(eps), float(delta)).eps_tilde
            back = et**2 + 2.0 * math.sqrt(et**2 * math.log(1.0 / delta))
            worst = max(worst, abs(back - eps))
    ok = worst <= 1e-10
    report(3, "budget conversion round trip", ok, f"worst abs err {worst:.3e}")
    assert ok


def test_04_gradient_correctness():
    rng = np.random.default_rng(100)
    h = 1e-5
    worst = 0.0
    for kind, p_m in (("gmm", 0.0), ("mrm", 0.0), ("rmc", 0.3)):
        model = ModelSpec(kind, 4, 1.2, p_m=p_m) if kind == "rmc" else ModelSpec(kind, 4, 1.2)
        for _ in range(100):
            if kind == "gmm":
                sample = rng.standard_normal(4) * 2.0
            elif kind == "mrm":
                sample = (rng.standard_normal(4), float(rng.standard_normal()))
            else:
                mask = rng.random(4) < 0.7
                if not mask.any():
                    mask[0] = True
                sample = (np.where(mask, rng.standard_normal(4), 0.0), mask,
                          float(rng.standard_normal()))
            beta = rng.standard_normal(4) * 0.8
            fd = np.empty(4)
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                fd[j] = (q_value(model, sample, beta + e, beta)
                         - q_value(model, sample, beta - e, beta)) / (2.0 * h)
            # the oracle, and the package's row for the sample: the
            # gradient that dpgem releases
            if kind == "gmm":
                row = ObservationSet(kind, sample[None, :])
            else:
                row = ObservationSet(kind, np.array([sample[-1]]),
                                     *(part[None, :] for part in sample[:-1]))
            for g in (grad_q(model, sample, beta), grad_q_batch(model, row, beta)[0]):
                worst = max(worst, float(np.linalg.norm(fd - g))
                            / max(float(np.linalg.norm(g)), 1.0))

    # fully observed covariates: the masked path must collapse to the plain
    # least-squares gradient with zero float slack
    model = ModelSpec("rmc", 6, 1.0, p_m=0.5)
    exact = True
    for _ in range(50):
        x = rng.standard_normal(6)
        y = float(rng.standard_normal())
        beta = rng.standard_normal(6)
        g = grad_q(model, (x, np.ones(6, bool), y), beta)
        exact = exact and np.array_equal(g, y * x - np.outer(x, x) @ beta)

    ok = worst < 1e-6 and exact
    report(4, "gradients match finite differences", ok,
           f"worst rel err {worst:.3e}, observed-path exact: {exact}")
    assert ok


def test_05_robust_mean_concentration():
    n, tau, zeta = 10_000, 4.0, 0.05
    p = select_params_nonprivate(n, tau, zeta)
    bound = 5.0 * math.sqrt(tau * math.log(1.0 / zeta) / n)
    t0 = time.perf_counter()
    hits = 0
    for seed in range(100):
        xs = RngStream(seed).split(0).generator.standard_t(3, size=n) + 1.0
        if abs(robust_mean(xs, p) - 1.0) <= bound:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 95 and elapsed < 30.0
    report(5, "robust mean concentrates on heavy tails", ok,
           f"{hits}/100 within {bound:.4f}, {elapsed:.2f}s")
    assert ok


def _dp_mean_median_error(fn, n, n_seeds=50):
    errs = []
    for seed in range(n_seeds):
        root = RngStream(700 + seed)
        xs = root.split(0).generator.standard_t(3, size=n) + 1.0
        est = fn(xs, tau=4.0, eps=1.0, delta=1e-5, zeta=0.05, rng=root.split(1))
        errs.append(abs(est - 1.0))
    return float(np.median(errs))


def test_06_dp_mean_error_rates():
    # central: noise scale ~ s/n with s ~ sqrt(n) gives error ~ n^(-1/2);
    # local: per-user noise with s ~ n^(1/4) averages to ~ n^(-1/4), a rate
    # that only dominates once n is large, hence the larger grid
    ns_central = [1000, 4000, 16_000]
    meds = [_dp_mean_median_error(central_dp_mean, n) for n in ns_central]
    slope_central = float(np.polyfit(np.log(ns_central), np.log(meds), 1)[0])

    ns_local = [10_000, 40_000, 160_000]
    meds = [_dp_mean_median_error(local_dp_mean, n) for n in ns_local]
    slope_local = float(np.polyfit(np.log(ns_local), np.log(meds), 1)[0])

    ok = abs(slope_central + 0.5) <= 0.15 and abs(slope_local + 0.25) <= 0.1
    report(6, "private mean error rates", ok,
           f"central slope {slope_central:.3f} (want -0.5±0.15), "
           f"local slope {slope_local:.3f} (want -0.25±0.1)")
    assert ok


def _make_problem(kind, n, d, seed, p_m=0.0):
    sigma = 1.0
    model = ModelSpec(kind, d, sigma, p_m=p_m) if kind == "rmc" else ModelSpec(kind, d, sigma)
    root = RngStream(seed)
    beta_star = 3.0 * sigma * initial_beta(d, root.split(0))
    data = sample_observations(model, n, beta_star, root.split(1))
    beta0 = initial_beta(d, root.split(2))
    if kind in SIGN_SYMMETRIC_KINDS:
        beta0 = align_sign(beta0, beta_star)
    return model, beta_star, data, beta0, root


def _median_clipped_error(n, d, eps, clip, n_seeds=20, kind="gmm", p_m=0.0):
    T = max(1, math.ceil(math.log(n)))
    errs = []
    for seed in range(n_seeds):
        model, beta_star, data, beta0, root = _make_problem(kind, n, d, seed, p_m)
        trace = clipped_dp_gradient_em(
            data, model, beta0, clip_C=clip, eta=1.0, T=T,
            budget=make_budget(eps, float(n) ** -1.1),
            rng=root.split(3), truth=beta_star,
        )
        errs.append(trace.final_error)
    return float(np.median(errs))


def _median_dpgem_error(kind, n, d, eps, n_seeds=20, p_m=0.0):
    T = max(1, math.ceil(math.log(n)))
    errs = []
    for seed in range(n_seeds):
        model, beta_star, data, beta0, root = _make_problem(kind, n, d, seed, p_m)
        tau = tau_bound(model, float(np.abs(beta_star).max()),
                        float(np.linalg.norm(beta_star)))
        trace = dp_gradient_em(
            data, model, beta0, tau=tau, eta=1.0, T=T,
            budget=make_budget(eps, float(n) ** -1.1),
            zeta=0.05, rng=root.split(3), truth=beta_star,
        )
        errs.append(trace.final_error)
    return float(np.median(errs))


def test_07_clip_scale_sweet_spot():
    t0 = time.perf_counter()
    medians = {C: _median_clipped_error(1000, 20, 0.2, C) for C in (0.1, 1.0, 5.0, 10.0)}
    elapsed = time.perf_counter() - t0
    best = min(medians, key=medians.get)
    ok = best == 1.0 and elapsed < 120.0
    detail = ", ".join(f"C={C}: {v:.3f}" for C, v in medians.items())
    report(7, "moderate clip scale wins", ok, f"{detail}, {elapsed:.1f}s")
    assert ok


def test_08_error_trends():
    t0 = time.perf_counter()
    details = []
    ok = True
    for kind, p_m in (("gmm", 0.0), ("mrm", 0.0), ("rmc", 0.2)):
        eps_meds = [_median_dpgem_error(kind, 2000, 10, e, p_m=p_m)
                    for e in (0.2, 0.5, 1.0)]
        d_meds = [_median_dpgem_error(kind, 2000, d, 0.5, p_m=p_m)
                  for d in (5, 10, 20)]
        mono_eps = eps_meds[0] > eps_meds[1] > eps_meds[2]
        mono_d = d_meds[0] < d_meds[1] < d_meds[2]
        ok = ok and mono_eps and mono_d
        details.append(f"{kind} eps-mono={mono_eps} d-mono={mono_d}")
    ratio = (_median_dpgem_error("gmm", 8000, 10, 0.5)
             / _median_dpgem_error("gmm", 2000, 10, 0.5))
    in_band = 0.35 <= ratio <= 0.75
    ok = ok and in_band
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 900.0
    report(8, "error trends across privacy, dimension, and sample size", ok,
           f"{'; '.join(details)}; gmm err(8000)/err(2000) {ratio:.3f}, {elapsed:.1f}s")
    assert ok


def test_09_subset_mechanism_vs_clipped_baseline():
    parts = []
    ok = True
    for kind, p_m in (("gmm", 0.0), ("mrm", 0.0), ("rmc", 0.2)):
        ours = _median_dpgem_error(kind, 2000, 10, 0.5, p_m=p_m)
        base = _median_clipped_error(2000, 10, 0.5, 1.0, kind=kind, p_m=p_m)
        ok = ok and ours <= base
        parts.append(f"{kind} {ours:.3f} vs clipped {base:.3f}")
    report(9, "subset mechanism beats clipped baseline", ok, "; ".join(parts))
    assert ok


def test_10_noiseless_reductions():
    root = RngStream(0)
    model = ModelSpec("gmm", 5, 1.0)
    beta_star = 3.0 * initial_beta(5, root.split(0))
    data = sample_observations(model, 2000, beta_star, root.split(1))
    beta0 = align_sign(initial_beta(5, root.split(2)), beta_star)
    budget = make_budget(1.0, 2000.0 ** -1.1)

    ref = gradient_em(data, model, beta0, eta=1.0, T=1).final_beta
    # tau = 1e8 makes the truncation scale enormous, so the smoothed robust
    # mean degenerates to the plain mean
    subset = dp_gradient_em(data, model, beta0, tau=1e8, eta=1.0, T=1,
                            budget=budget, zeta=0.05, rng=root.split(3),
                            shuffle=False, disable_noise=True).final_beta
    fixed_point = dp_em_gmm(data, model, beta0, tau=1e8, T=1, budget=budget,
                            zeta=0.05, rng=root.split(4),
                            disable_noise=True).final_beta
    diff_subset = float(np.abs(subset - ref).max())
    diff_fixed = float(np.abs(fixed_point - ref).max())
    ok = diff_subset <= 1e-3 and diff_fixed <= 1e-6
    report(10, "noise-disabled runs reduce to plain EM step", ok,
           f"subset diff {diff_subset:.2e}, fixed-point diff {diff_fixed:.2e}")
    assert ok


def test_11_sweep_determinism(tmp_path):
    runner = CliRunner()
    blobs = {}
    for threads in (1, 8):
        out = tmp_path / f"threads{threads}.csv"
        result = runner.invoke(cli, [
            "sweep", "--algorithm", "dpgem", "--n-list", "400,800",
            "--d-list", "4,8", "--eps-list", "0.2,0.5,1", "--n-seeds", "8",
            "--threads", str(threads), "--out", str(out),
        ], catch_exceptions=False)
        assert result.exit_code == 0, result.output
        blobs[threads] = out.read_bytes()
    ok = blobs[1] == blobs[8]
    report(11, "sweep output independent of thread count", ok,
           f"{len(blobs[1])} bytes compared")
    assert ok
