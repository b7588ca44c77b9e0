import math
import pickle
import warnings

import numpy as np
import pytest

import dpem.estimators
from dpem import robust
from dpem.accounting import (gaussian_sigma_for_zcdp, make_budget, split_budget_alg1,
                             split_budget_alg2)
from dpem.errors import ConfigError, ConvergenceError, DomainError
from dpem.estimators import (
    ALGORITHMS,
    ClippedDPGradientEM,
    DPEMGaussianMixture,
    DPGradientEM,
    GradientEM,
    IterationTrace,
    SIGN_SYMMETRIC_KINDS,
    align_sign,
    clipped_dp_gradient_em,
    dp_em_gmm,
    dp_gradient_em,
    gradient_em,
    initial_beta,
    plan_for,
    run_algorithm,
)
from dpem.models import (
    ModelSpec,
    f_gmm_batch,
    grad_q_batch,
    grad_q_mean,
    preprocess_real_gmm,
    sample_observations,
    tau_bound,
)
from dpem.numeric import RngStream
from dpem.robust import PHI_BOUND, RobustMeanParams, robust_mean_columns


def make_problem(kind, d, n, seed, snr=3.0, sigma=1.0, p_m=0.0):
    root = RngStream(seed)
    model = ModelSpec(kind, d, sigma, p_m=p_m)
    beta_star = snr * sigma * initial_beta(d, root.split(0))
    data = sample_observations(model, n, beta_star, root.split(1))
    beta0 = initial_beta(d, root.split(2))
    if kind in SIGN_SYMMETRIC_KINDS:
        beta0 = align_sign(beta0, beta_star)
    return model, beta_star, data, beta0, root.split(3)


def auto_tau(model, beta_star):
    return tau_bound(
        model, float(np.max(np.abs(beta_star))), float(np.linalg.norm(beta_star))
    )


class TestIterationTrace:
    def test_shape_enforced(self):
        with pytest.raises(DomainError):
            IterationTrace(np.zeros(3), None, {})
        with pytest.raises(DomainError):
            IterationTrace(np.zeros((0, 3)), None, {})

    def test_errors_validated(self):
        betas = np.zeros((3, 2))
        with pytest.raises(DomainError):
            IterationTrace(betas, np.zeros(2), {})
        with pytest.raises(DomainError):
            IterationTrace(betas, np.array([0.0, -1.0, 0.0]), {})

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            IterationTrace(np.zeros((3, 2)), np.array([0.0, float("nan"), 0.0]), {})
        with pytest.raises(DomainError):
            IterationTrace(np.zeros((3, 2)), np.array([0.0, float("inf"), 0.0]), {})
        with pytest.raises(DomainError):
            IterationTrace(np.array([[0.0, 0.0], [float("inf"), 0.0]]), None, {})

    def test_final_accessors(self):
        tr = IterationTrace(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([2.0, 1.0]), {})
        assert np.array_equal(tr.final_beta, [1.0, 1.0])
        assert tr.final_error == 1.0

    def test_final_error_needs_truth(self):
        tr = IterationTrace(np.zeros((2, 2)), None, {})
        with pytest.raises(DomainError):
            tr.final_error

    def test_immutable(self):
        tr = IterationTrace(np.zeros((2, 2)), None, {})
        with pytest.raises(ValueError):
            tr.betas[0, 0] = 1.0

    def test_caller_arrays_stay_writeable(self):
        betas, errors = np.zeros((2, 2)), np.zeros(2)
        tr = IterationTrace(betas, errors, {})
        betas[0, 0] = 1.0
        errors[0] = 1.0
        assert tr.betas[0, 0] == 1.0  # a view, not a copy
        for arr in (tr.betas, tr.errors):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestInit:
    def test_unit_norm_deterministic(self):
        b1 = initial_beta(7, RngStream(5).split(0))
        b2 = initial_beta(7, RngStream(5).split(0))
        assert np.array_equal(b1, b2)
        assert np.linalg.norm(b1) == pytest.approx(1.0, rel=1e-12)

    def test_align_sign(self):
        ref = np.array([1.0, 0.0])
        assert np.array_equal(align_sign(np.array([-0.5, 1.0]), ref), [0.5, -1.0])
        same = np.array([0.5, 1.0])
        assert align_sign(same, ref) is same
        # orthogonal start is left alone
        orth = np.array([0.0, 1.0])
        assert align_sign(orth, ref) is orth


class TestGradientEM:
    def test_t_zero_trace_is_start(self):
        model, beta_star, data, beta0, _ = make_problem("gmm", 3, 100, 1)
        tr = gradient_em(data, model, beta0, 1.0, 0, truth=beta_star)
        assert tr.betas.shape == (1, 3)
        assert np.array_equal(tr.betas[0], beta0)

    def test_noiseless_gmm_converges_to_conditional_mean(self):
        root = RngStream(17)
        model = ModelSpec("gmm", 4, 1e-12)
        beta_star = 2.0 * initial_beta(4, root.split(0))
        data = sample_observations(model, 500, beta_star, root.split(1))
        beta0 = beta_star + 0.05 * initial_beta(4, root.split(2))
        tr = gradient_em(data, model, beta0, 1.0, 50, truth=beta_star)
        assert tr.errors[-1] < 1e-6
        cond = (np.sign(data.ys @ beta_star)[:, None] * data.ys).mean(axis=0)
        assert np.linalg.norm(tr.betas[-1] - cond) < 1e-9

    def test_median_error_random_init(self):
        errs = []
        for k in range(20):
            model, beta_star, data, beta0, _ = make_problem("gmm", 10, 2000, 100 + k)
            tr = gradient_em(data, model, beta0, 1.0, 50, truth=beta_star)
            errs.append(tr.errors[-1])
        assert np.median(errs) <= 0.2 * 3.0

    def test_divergence_raises_with_last_finite_iterate(self):
        for kind in ("gmm", "mrm", "rmc"):
            model, beta_star, data, beta0, _ = make_problem(
                kind, 5, 200, 3, p_m=0.2 if kind == "rmc" else 0.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # reported once, with no RuntimeWarning
                with pytest.raises(ConvergenceError, match="iteration") as info:
                    gradient_em(data, model, beta0, 1e6, 200, truth=beta_star)
            last = info.value.last_value
            assert last.shape == (5,) and np.all(np.isfinite(last)), kind

    def test_mismatched_data_rejected(self):
        model, beta_star, data, beta0, _ = make_problem("gmm", 3, 50, 2)
        other = ModelSpec("mrm", 3, 1.0)
        with pytest.raises(DomainError):
            gradient_em(data, other, beta0, 1.0, 1)
        with pytest.raises(DomainError):
            gradient_em(data, ModelSpec("gmm", 4, 1.0), np.zeros(4), 1.0, 1)


class TestClippedDP:
    def test_identity_when_clip_slack_and_no_noise(self):
        model, beta_star, data, beta0, rng = make_problem("gmm", 4, 300, 3)
        budget = make_budget(1.0, 1e-5)
        plain = gradient_em(data, model, beta0, 0.7, 6)
        clipped = clipped_dp_gradient_em(
            data, model, beta0, 1e12, 0.7, 6, budget, rng, disable_noise=True
        )
        assert np.array_equal(plain.betas, clipped.betas)

    @staticmethod
    def clip_case(case):
        """(model, data, beta0, rng, C) for test_clip_invariant's cases."""
        if case == "gmm-large-beta":
            # ||beta*|| = 100 and sigma = 0.05, started 0.01 from beta*: a
            # gradient row is about 1e-3 of y and beta
            model, beta_star, data, beta0, rng = make_problem("gmm", 5, 400, 4, snr=2000.0,
                                                              sigma=0.05)
            return model, data, beta_star + 0.01 * beta0, rng, 0.01
        model, _, data, beta0, rng = make_problem(case, 5, 400, 4,
                                                  p_m=0.3 if case == "rmc" else 0.0)
        return model, data, beta0, rng, 0.5

    def test_clip_invariant(self):
        # re-walk the trajectory: each row's own release, clipped as the fit
        # clips it, has norm at most C
        for case in ("gmm", "mrm", "rmc", "gmm-large-beta"):
            model, data, beta0, rng, C = self.clip_case(case)
            tr = clipped_dp_gradient_em(data, model, beta0, C, 1.0, 5,
                                        make_budget(1.0, 1e-5), rng)
            rows = [data.take([i]) for i in range(data.n)]
            for beta in tr.betas[:-1]:
                norms = np.linalg.norm(grad_q_batch(model, data, beta), axis=1)
                assert np.any(norms > C), case
                clipped = [np.linalg.norm(grad_q_mean(model, row, beta, C)) for row in rows]
                assert max(clipped) <= C * (1 + 1e-12), case

    def test_expanded_gmm_norm_breaks_the_clip(self):
        # t^2 ||y||^2 - 2 t <y, beta> + ||beta||^2 cancels near a large beta,
        # so grad_q_mean takes gmm's norms from the formed rows
        model, data, beta, _, C = self.clip_case("gmm-large-beta")
        ys = data.ys
        t = np.tanh(0.5 * (ys @ beta) / model.sigma**2)
        expanded = np.sqrt(np.abs(t * t * np.einsum("ij,ij->i", ys, ys)
                                  - 2.0 * t * (ys @ beta) + beta @ beta))
        norms = np.linalg.norm(grad_q_batch(model, data, beta), axis=1)
        assert np.max(np.minimum(1.0, C / expanded) * norms) > C * (1 + 1e-12)

    def test_deterministic(self):
        model, beta_star, data, beta0, _ = make_problem("gmm", 3, 200, 5)
        budget = make_budget(0.5, 1e-4)
        a = clipped_dp_gradient_em(data, model, beta0, 1.0, 1.0, 4, budget, RngStream(9))
        b = clipped_dp_gradient_em(data, model, beta0, 1.0, 1.0, 4, budget, RngStream(9))
        c = clipped_dp_gradient_em(data, model, beta0, 1.0, 1.0, 4, budget, RngStream(10))
        assert np.array_equal(a.betas, b.betas)
        assert not np.array_equal(a.betas, c.betas)

    def test_successive_fits_identical(self):
        # no state carries from one fit to the next
        model, beta_star, data, _, _ = make_problem("rmc", 5, 3000, 29, p_m=0.2)
        X = np.where(data.mask, data.xs, np.nan)
        est = ClippedDPGradientEM(model="rmc", p_m=0.2, n_iter=6, clip=2.0)
        first = est.fit(X, data.ys, beta_star=beta_star).trace_
        second = est.fit(X, data.ys, beta_star=beta_star).trace_
        assert second is not first
        assert second.betas.tobytes() == first.betas.tobytes()
        assert second.errors.tobytes() == first.errors.tobytes()

    def test_config_echo(self):
        model, beta_star, data, beta0, rng = make_problem("gmm", 3, 200, 6)
        budget = make_budget(0.5, 1e-4)
        tr = clipped_dp_gradient_em(data, model, beta0, 2.0, 1.0, 4, budget, rng)
        cfg = tr.config
        assert cfg["algorithm"] == "clipped" and cfg["clip_C"] == 2.0
        assert cfg["sigma"] == pytest.approx(
            2.0 * math.sqrt(2 * 4) / (200 * budget.eps_tilde), rel=1e-12
        )


class TestDPGradientEM:
    def test_needs_enough_samples(self):
        model, beta_star, data, beta0, rng = make_problem("gmm", 3, 5, 7)
        budget = make_budget(1.0, 1e-5)
        with pytest.raises(DomainError):
            dp_gradient_em(data, model, beta0, 1.0, 1.0, 6, budget, 0.05, rng)

    def test_positive_tau_required(self):
        model, beta_star, data, beta0, rng = make_problem("gmm", 3, 50, 8)
        budget = make_budget(1.0, 1e-5)
        with pytest.raises(DomainError):
            dp_gradient_em(data, model, beta0, 0.0, 1.0, 2, budget, 0.05, rng)

    def test_noiseless_single_iteration_is_robust_step(self):
        model, beta_star, data, beta0, rng = make_problem("gmm", 4, 600, 9)
        budget = make_budget(1.0, 1e-4)
        tau = auto_tau(model, beta_star)
        tr = dp_gradient_em(
            data, model, beta0, tau, 1.0, 1, budget, 0.05, rng,
            shuffle=False, disable_noise=True,
        )
        s = math.sqrt(600 * tau * budget.eps_tilde) / (2 * math.log(4 / 0.05))
        params = RobustMeanParams(s=s, beta=math.sqrt(math.log(4 / 0.05)))
        expected = beta0 + robust_mean_columns(grad_q_batch(model, data, beta0), params)
        assert np.array_equal(tr.betas[1], expected)

    def test_noiseless_reduction_to_gradient_em(self):
        # huge tau makes truncation a no-op; T=1 uses the full dataset
        model, beta_star, data, beta0, rng = make_problem("gmm", 5, 2000, 10)
        budget = make_budget(1.0, 2000.0 ** -1.1)
        dp = dp_gradient_em(
            data, model, beta0, 1e8, 1.0, 1, budget, 0.05, rng,
            truth=beta_star, disable_noise=True,
        )
        plain = gradient_em(data, model, beta0, 1.0, 1, truth=beta_star)
        assert float(np.max(np.abs(dp.betas[-1] - plain.betas[-1]))) <= 1e-3

    def test_subset_sensitivity_audit(self):
        model, beta_star, data, beta0, rng = make_problem("mrm", 3, 300, 11)
        budget = make_budget(0.5, 1e-4)
        tau = auto_tau(model, beta_star)
        tr = dp_gradient_em(
            data, model, beta0, tau, 1.0, 3, budget, 0.05, rng, disable_noise=True
        )
        s, m = tr.config["s"], tr.config["m"]
        params = RobustMeanParams(s=s, beta=tr.config["smoothing_beta"])
        bound = 2.0 * PHI_BOUND * s / m
        gen = np.random.default_rng(0)
        grads = gen.standard_normal((m, 3)) * 3.0
        base = robust_mean_columns(grads, params)
        for _ in range(50):
            swapped = grads.copy()
            swapped[gen.integers(m)] = gen.standard_normal(3) * 50.0
            other = robust_mean_columns(swapped, params)
            assert np.all(np.abs(other - base) <= bound + 1e-12)

    def test_noise_is_one_vector_per_iteration(self):
        model, beta_star, data, beta0, rng = make_problem("mrm", 6, 600, 9)
        budget = make_budget(1.0, 1e-4)
        tau = auto_tau(model, beta_star)
        tr = dp_gradient_em(data, model, beta0, tau, 0.5, 2, budget, 0.05, rng,
                            shuffle=False)
        params = RobustMeanParams(s=tr.config["s"], beta=tr.config["smoothing_beta"])
        released = robust_mean_columns(
            grad_q_batch(model, data.take(np.arange(tr.config["m"])), beta0), params)
        noise = tr.config["sigma"] * rng.split(1).generator.standard_normal(6)
        assert np.array_equal(tr.betas[1], beta0 + 0.5 * (released + noise))

    def test_overflowing_gradients_raise_convergence_error(self):
        # beta^1 is finite, but the second subset's gradients at it overflow:
        # the fit diverged, which the kernel refused as bad input before
        model, beta_star, data, _, _ = make_problem("mrm", 3, 400, 0)
        est = DPGradientEM(model="mrm", eta=3e306, eps=0.1, random_state=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="diverged at iteration 2: per-sample"
                               ) as info:
                est.fit(data.xs, data.ys, beta_star=beta_star)
        last = info.value.last_value
        assert np.all(np.isfinite(last)) and np.abs(last).max() > 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(grad_q_batch(model, data, last)))

    @pytest.mark.parametrize("d", [2, 7, 50])
    def test_joint_sigma_equals_per_coordinate(self, d):
        model, beta_star, data, beta0, rng = make_problem("gmm", d, 400, 19)
        for eps in (0.2, 1.0, 4.0):
            budget = make_budget(eps, 1e-5)
            tr = dp_gradient_em(data, model, beta0, 2.0, 1.0, 3, budget, 0.05, rng)
            # disjoint subsets: each iteration may spend the whole rho
            coord = 2.0 * PHI_BOUND * tr.config["s"] / tr.config["m"]
            joint = gaussian_sigma_for_zcdp(math.sqrt(d) * coord, budget.rho)
            assert tr.config["sigma"] == pytest.approx(joint, rel=1e-15)

    def test_trailing_samples_dropped(self):
        # n = 607, T = 3 -> m = 202; the last sample cannot influence the
        # run when it lands in the discarded tail (shuffle off: order kept)
        model, beta_star, data, beta0, rng = make_problem("gmm", 3, 607, 12)
        budget = make_budget(1.0, 1e-4)
        tau = auto_tau(model, beta_star)
        tr = dp_gradient_em(
            data, model, beta0, tau, 1.0, 3, budget, 0.05, RngStream(3),
            shuffle=False, disable_noise=True,
        )
        ys = data.ys.copy()
        ys[-1] = 999.0
        from dpem.models import ObservationSet

        tampered = ObservationSet("gmm", ys)
        tr2 = dp_gradient_em(
            tampered, model, beta0, tau, 1.0, 3, budget, 0.05, RngStream(3),
            shuffle=False, disable_noise=True,
        )
        assert np.array_equal(tr.betas, tr2.betas)

    def test_deterministic_all_models(self):
        budget = make_budget(0.5, 1e-4)
        for kind, p in (("gmm", 0.0), ("mrm", 0.0), ("rmc", 0.2)):
            model, beta_star, data, beta0, _ = make_problem(kind, 3, 240, 13, p_m=p)
            tau = auto_tau(model, beta_star)
            a = dp_gradient_em(data, model, beta0, tau, 1.0, 4, budget, 0.05, RngStream(7))
            b = dp_gradient_em(data, model, beta0, tau, 1.0, 4, budget, 0.05, RngStream(7))
            assert np.array_equal(a.betas, b.betas)

    @pytest.mark.parametrize("kind,p_m", [("gmm", 0.0), ("mrm", 0.0), ("rmc", 0.2)])
    def test_monotone_privacy(self, kind, p_m):
        finals = {}
        for eps in (0.2, 1.0):
            errs = []
            for k in range(20):
                model, beta_star, data, beta0, rng = make_problem(
                    kind, 10, 2000, 500 + k, p_m=p_m
                )
                budget = make_budget(eps, 2000.0 ** -1.1)
                tau = auto_tau(model, beta_star)
                tr = dp_gradient_em(
                    data, model, beta0, tau, 1.0, 8, budget, 0.05, rng, truth=beta_star
                )
                errs.append(tr.errors[-1])
            finals[eps] = float(np.mean(errs))
        assert finals[1.0] <= finals[0.2]


class TestDPEMGmm:
    def test_requires_gmm(self):
        model, beta_star, data, beta0, rng = make_problem("mrm", 3, 100, 14)
        budget = make_budget(1.0, 1e-4)
        with pytest.raises(DomainError):
            dp_em_gmm(data, model, beta0, 1.0, 2, budget, 0.05, rng)

    def test_noiseless_iteration_near_fixed_point(self):
        root = RngStream(42)
        model = ModelSpec("gmm", 5, 1e-9)
        beta_star = 3.0 * initial_beta(5, root.split(0))
        data = sample_observations(model, 2000, beta_star, root.split(1))
        beta0 = align_sign(initial_beta(5, root.split(2)), beta_star)
        budget = make_budget(0.5, 2000.0 ** -1.1)
        tau = auto_tau(model, beta_star)
        tr = dp_em_gmm(
            data, model, beta0, tau, 1, budget, 0.05, root.split(3),
            truth=beta_star, disable_noise=True,
        )
        cond = (np.sign(data.ys @ beta0)[:, None] * data.ys).mean(axis=0)
        # lands within truncation bias of the conditional-mean fixed point
        assert np.linalg.norm(tr.betas[1] - cond) <= 0.05 * np.linalg.norm(beta_star)
        assert tr.errors[1] <= 0.05 * np.linalg.norm(beta_star)

    def test_noiseless_unclipped_matches_unit_step_gradient_em(self):
        model, beta_star, data, beta0, rng = make_problem("gmm", 5, 2000, 15)
        budget = make_budget(1.0, 2000.0 ** -1.1)
        em = gradient_em(data, model, beta0, 1.0, 1)
        dp = dp_em_gmm(
            data, model, beta0, 1e8, 1, budget, 0.05, rng, disable_noise=True
        )
        assert float(np.max(np.abs(dp.betas[1] - em.betas[1]))) <= 1e-6

    def test_scaling_in_n(self):
        meds = {}
        for n in (2000, 8000):
            errs = []
            model = ModelSpec("gmm", 10, 1.0)
            T = math.ceil(math.log(n))
            budget = make_budget(0.5, float(n) ** -1.1)
            for k in range(20):
                r = RngStream(1000 + k)
                beta_star = 3.0 * initial_beta(10, r.split(0))
                data = sample_observations(model, n, beta_star, r.split(1))
                beta0 = align_sign(initial_beta(10, r.split(2)), beta_star)
                tau = auto_tau(model, beta_star)
                tr = dp_em_gmm(
                    data, model, beta0, tau, T, budget, 0.05, r.split(3), truth=beta_star
                )
                errs.append(tr.errors[-1])
            meds[n] = float(np.median(errs))
        assert 0.35 <= meds[8000] / meds[2000] <= 0.75

    def test_noise_is_one_vector_per_iteration(self):
        model, beta_star, data, beta0, rng = make_problem("gmm", 6, 500, 16)
        budget = make_budget(1.0, 1e-4)
        tr = dp_em_gmm(data, model, beta0, 4.0, 2, budget, 0.05, rng)
        params = RobustMeanParams(s=tr.config["s"], beta=tr.config["smoothing_beta"])
        released = robust_mean_columns(f_gmm_batch(data, beta0, model.sigma), params)
        noise = tr.config["sigma"] * rng.split(1).generator.standard_normal(6)
        assert np.array_equal(tr.betas[1], released + noise)

    @pytest.mark.parametrize("d", [2, 7, 50])
    def test_joint_sigma_equals_per_coordinate(self, d):
        model, beta_star, data, beta0, rng = make_problem("gmm", d, 400, 20)
        for eps, T in ((0.2, 1), (1.0, 3), (4.0, 6)):
            budget = make_budget(eps, 1e-5)
            tr = dp_em_gmm(data, model, beta0, 2.0, T, budget, 0.05, rng)
            coord = 2.0 * PHI_BOUND * tr.config["s"] / 400
            joint = gaussian_sigma_for_zcdp(math.sqrt(d) * coord,
                                            split_budget_alg1(budget, T))
            assert tr.config["sigma"] == pytest.approx(joint, rel=1e-15)

    def test_deterministic(self):
        model, beta_star, data, beta0, _ = make_problem("gmm", 4, 400, 16)
        budget = make_budget(0.5, 1e-4)
        tau = auto_tau(model, beta_star)
        a = dp_em_gmm(data, model, beta0, tau, 3, budget, 0.05, RngStream(8))
        b = dp_em_gmm(data, model, beta0, tau, 3, budget, 0.05, RngStream(8))
        assert np.array_equal(a.betas, b.betas)


class TestEstimatorClasses:
    def test_get_set_params_round_trip(self):
        est = DPGradientEM(eps=0.7, zeta=0.01)
        params = est.get_params()
        assert params["eps"] == 0.7 and params["zeta"] == 0.01
        est.set_params(eps=0.9)
        assert est.eps == 0.9
        with pytest.raises(ValueError):
            est.set_params(nonsense=1)

    def test_clone_by_params(self):
        est = ClippedDPGradientEM(clip=0.3, random_state=4)
        twin = ClippedDPGradientEM(**est.get_params())
        assert twin.get_params() == est.get_params()

    def test_fit_attributes_gmm(self):
        model, beta_star, data, beta0, _ = make_problem("gmm", 6, 300, 18)
        est = GradientEM(n_iter=7, random_state=3).fit(data.ys, beta_star=beta_star)
        assert est.n_features_in_ == 6
        assert est.n_iter_ == 7
        assert est.beta_.shape == (6,)
        assert est.trace_.errors is not None

    def test_fit_leaves_caller_data_writeable(self):
        model, beta_star, data, beta0, _ = make_problem("mrm", 3, 200, 18)
        X, y = data.xs.copy(), data.ys.copy()
        GradientEM(model="gmm", n_iter=2).fit(X)
        GradientEM(model="mrm", n_iter=2).fit(X, y)
        X[0, 0] = y[0] = 1.0

    def test_fit_aligns_start_against_truth(self):
        model, beta_star, data, beta0, _ = make_problem("gmm", 6, 300, 19)
        est = GradientEM(n_iter=0, random_state=5).fit(data.ys, beta_star=beta_star)
        assert float(est.trace_.betas[0] @ beta_star) >= 0.0

    def test_fit_mrm_rmc_with_response(self):
        model, beta_star, data, _, _ = make_problem("mrm", 4, 300, 20)
        est = GradientEM(model="mrm", n_iter=3).fit(data.xs, data.ys, beta_star=beta_star)
        assert est.n_features_in_ == 4

        model, beta_star, data, _, _ = make_problem("rmc", 4, 300, 21, p_m=0.3)
        X = np.where(data.mask, data.xs, np.nan)
        est = DPGradientEM(model="rmc", p_m=0.3, eps=1.0).fit(
            X, data.ys, beta_star=beta_star
        )
        assert est.trace_.config["algorithm"] == "dpgem"

    def test_auto_iterations_and_delta(self):
        model, beta_star, data, _, _ = make_problem("gmm", 3, 2000, 22)
        est = DPGradientEM().fit(data.ys, beta_star=beta_star)
        assert est.n_iter_ == math.ceil(math.log(2000))
        assert est.trace_.config["delta"] == pytest.approx(2000.0 ** -1.1)

    def test_auto_delta_needs_two_samples(self):
        X = np.array([[0.5, -1.0]])
        with pytest.raises(ConfigError, match="delta='auto'.*n=1"):
            ClippedDPGradientEM(clip=1.0).fit(X)
        est = ClippedDPGradientEM(clip=1.0, delta=1e-3, n_iter=2).fit(X)
        assert est.trace_.config["delta"] == 1e-3

    def test_tau_auto_needs_truth(self):
        model, beta_star, data, _, _ = make_problem("gmm", 3, 100, 23)
        with pytest.raises(ConfigError):
            DPGradientEM().fit(data.ys)

    def test_explicit_tau_runs_without_truth(self):
        model, beta_star, data, _, _ = make_problem("gmm", 3, 100, 24)
        est = DPGradientEM(tau=5.0).fit(data.ys)
        assert est.trace_.errors is None

    def test_bad_init_and_iters(self):
        model, beta_star, data, _, _ = make_problem("gmm", 3, 100, 25)
        with pytest.raises(ConfigError):
            GradientEM(init="zeros").fit(data.ys)
        with pytest.raises(ConfigError):
            GradientEM(n_iter="many").fit(data.ys)

    def test_explicit_init_vector(self):
        model, beta_star, data, _, _ = make_problem("gmm", 3, 100, 26)
        start = np.array([1.0, 0.0, 0.0])
        est = GradientEM(init=start, n_iter=0).fit(data.ys)
        assert np.array_equal(est.trace_.betas[0], start)

    def test_unsafe_flag_echoed(self):
        model, beta_star, data, _, _ = make_problem("gmm", 3, 100, 27)
        est = DPEMGaussianMixture(tau=4.0, unsafe_no_noise=True).fit(data.ys)
        assert est.trace_.config["non_private_noise_disabled"] is True

    def test_dpem_class_rejects_model_override(self):
        est = DPEMGaussianMixture(tau=1.0)
        assert est.model == "gmm"
        assert "model" not in est.get_params()


def _fit_must_not_run(*args, **kwargs):
    raise AssertionError("the fit ran before the truth was checked")


class TestTruthLength:
    """A beta_star of the wrong length is a DomainError naming it, raised
    before any iteration runs."""

    SHORT = [1.0, 2.0]

    @pytest.fixture(autouse=True)
    def no_iterations(self, monkeypatch):
        monkeypatch.setattr("dpem.estimators.grad_q_batch", _fit_must_not_run)
        monkeypatch.setattr("dpem.estimators.grad_q_mean", _fit_must_not_run)
        monkeypatch.setattr("dpem.estimators.f_gmm_batch", _fit_must_not_run)

    @pytest.mark.parametrize("estimator,kind", [
        (GradientEM(model="mrm"), "mrm"),
        (ClippedDPGradientEM(model="rmc"), "rmc"),
        (DPGradientEM(), "gmm"),
        (DPEMGaussianMixture(), "gmm"),
    ], ids=["em-mrm", "clipped-rmc", "dpgem-gmm", "dpem-gmm"])
    def test_classes(self, estimator, kind):
        _, _, data, _, _ = make_problem(kind, 3, 200, 40)
        X, y = (data.ys, None) if kind == "gmm" else (data.xs, data.ys)
        if kind == "rmc":
            X = np.where(data.mask, data.xs, np.nan)
        with pytest.raises(DomainError, match="beta_star must have length 3, got 2"):
            estimator.fit(X, y, beta_star=self.SHORT)

    @pytest.mark.parametrize("fit", [
        lambda data, model, beta0, rng: gradient_em(data, model, beta0, 1.0, 3,
                                                    truth=TestTruthLength.SHORT),
        lambda data, model, beta0, rng: clipped_dp_gradient_em(
            data, model, beta0, 1.0, 1.0, 3, make_budget(1.0, 1e-3), rng,
            truth=TestTruthLength.SHORT),
        lambda data, model, beta0, rng: dp_gradient_em(
            data, model, beta0, 5.0, 1.0, 3, make_budget(1.0, 1e-3), 0.05, rng,
            truth=TestTruthLength.SHORT),
        lambda data, model, beta0, rng: dp_em_gmm(
            data, model, beta0, 5.0, 3, make_budget(1.0, 1e-3), 0.05, rng,
            truth=TestTruthLength.SHORT),
    ], ids=["gradient_em", "clipped_dp_gradient_em", "dp_gradient_em", "dp_em_gmm"])
    def test_functions(self, fit):
        model, _, data, beta0, rng = make_problem("gmm", 3, 200, 41)
        with pytest.raises(DomainError, match="beta_star must have length 3, got 2"):
            fit(data, model, beta0, rng)


class TestPublicTruth:
    """On data whose beta_star was computed from the rows (preprocess), the
    truth only scores the trace: the released betas must not depend on it."""

    @staticmethod
    def preprocessed_problem():
        g = RngStream(42).generator
        labels = np.arange(400) % 2
        feats = (2 * labels - 1)[:, None] * np.array([1.5, -0.5]) + g.standard_normal((400, 2))
        data, beta_star, sigma = preprocess_real_gmm(feats, labels)
        return ModelSpec("gmm", data.d, sigma), data, beta_star

    @pytest.mark.parametrize("algorithm", ["em", "clipped", "dpgem", "dpem"])
    def test_release_ignores_a_data_derived_truth(self, algorithm):
        model, data, beta_star = self.preprocessed_problem()
        beta0 = initial_beta(data.d, RngStream(3).split(0))
        assert np.dot(beta0, beta_star) != 0.0
        betas = [run_algorithm(algorithm, data, model, beta0, RngStream(3).split(1), truth,
                               eta=1.0, eps=1.0, clip=1.0, tau=9.0, zeta=0.05,
                               public_truth=False).betas
                 for truth in (beta_star, -beta_star)]
        assert np.array_equal(betas[0], betas[1])
        assert np.array_equal(betas[0][0], beta0)

    def test_public_truth_aligns_the_start(self):
        model, data, beta_star = self.preprocessed_problem()
        beta0 = initial_beta(data.d, RngStream(3).split(0))
        starts = [run_algorithm("em", data, model, beta0, RngStream(3).split(1), truth,
                                iters=1, eta=1.0).betas[0] for truth in (beta_star, -beta_star)]
        assert np.array_equal(starts[0], -starts[1])

    def test_auto_tau_needs_a_public_truth(self):
        model, data, beta_star = self.preprocessed_problem()
        beta0 = initial_beta(data.d, RngStream(3).split(0))
        with pytest.raises(ConfigError, match="tau: 'auto'"):
            run_algorithm("dpgem", data, model, beta0, RngStream(3).split(1), beta_star,
                          eta=1.0, eps=1.0, zeta=0.05, public_truth=False)


class TestStringFlags:
    """A flag must be a bool: the string "false" is truthy, so reading it as
    one would silently turn the privacy noise off, or keep the shuffle on."""

    @pytest.mark.parametrize("estimator", [
        ClippedDPGradientEM(unsafe_no_noise="false", n_iter=2),
        DPGradientEM(unsafe_no_noise="false", tau=5.0, n_iter=2),
        DPGradientEM(shuffle="false", tau=5.0, n_iter=2),
        DPEMGaussianMixture(unsafe_no_noise="false", tau=5.0, n_iter=2),
    ], ids=["clipped-noise", "dpgem-noise", "dpgem-shuffle", "dpem-noise"])
    def test_classes(self, estimator):
        _, beta_star, data, _, _ = make_problem("gmm", 3, 200, 42)
        with pytest.raises(DomainError, match="must be a bool, got 'false'"):
            estimator.fit(data.ys, beta_star=beta_star)

    @pytest.mark.parametrize("name,flag", [
        ("clipped", dict(disable_noise="false")),
        ("clipped", dict(disable_noise=0)),
        ("dpgem", dict(disable_noise="false")),
        ("dpgem", dict(shuffle="false")),
        ("dpgem", dict(shuffle=None)),
        ("dpem", dict(disable_noise="no")),
        ("dpem", dict(disable_noise=1)),
    ], ids=["clipped-noise-str", "clipped-noise-int", "dpgem-noise-str",
            "dpgem-shuffle-str", "dpgem-shuffle-none", "dpem-noise-str", "dpem-noise-int"])
    def test_functions(self, name, flag):
        model, _, data, beta0, rng = make_problem("gmm", 3, 200, 43)
        budget = make_budget(1.0, 1e-3)
        fit = {
            "clipped": lambda: clipped_dp_gradient_em(data, model, beta0, 1.0, 1.0, 2,
                                                      budget, rng, **flag),
            "dpgem": lambda: dp_gradient_em(data, model, beta0, 5.0, 1.0, 2, budget, 0.05,
                                            rng, **flag),
            "dpem": lambda: dp_em_gmm(data, model, beta0, 5.0, 2, budget, 0.05, rng,
                                      **flag),
        }[name]
        with pytest.raises(DomainError, match="must be a bool"):
            fit()

    def test_numpy_bools_are_flags(self):
        model, _, data, beta0, rng = make_problem("gmm", 3, 200, 44)
        budget = make_budget(1.0, 1e-3)
        runs = [dp_gradient_em(data, model, beta0, 5.0, 1.0, 2, budget, 0.05, rng,
                               shuffle=flag, disable_noise=flag)
                for flag in (True, np.bool_(True))]
        assert runs[1].betas.tobytes() == runs[0].betas.tobytes()
        assert runs[1].config["non_private_noise_disabled"] is True


class TestBoolsAreNotNumbers:
    """A bool is not a number: True is an int and float(True) is 1.0, so
    reading it as one would silently fit one iteration, or at eps = 1."""

    @pytest.mark.parametrize("estimator, shown", [
        (GradientEM(n_iter=True), "T must be an integer, got bool"),
        (GradientEM(eta=True, n_iter=2), "eta must be a number, got True"),
        (GradientEM(sigma=np.True_, n_iter=2), "sigma must be a number, got"),
        (ClippedDPGradientEM(eps=True, n_iter=2), "eps must be a number, got True"),
        (ClippedDPGradientEM(clip=True, n_iter=2), "clip_C must be a number, got True"),
        (DPGradientEM(tau=np.True_, n_iter=2), "tau must be a number, got"),
        (DPEMGaussianMixture(tau=5.0, n_iter=2, zeta=np.False_),
         "zeta must be a number, got"),
    ], ids=["em-iters", "em-eta", "em-sigma-numpy", "clipped-eps", "clipped-clip",
            "dpgem-tau-numpy", "dpem-zeta-numpy"])
    def test_classes(self, estimator, shown):
        _, beta_star, data, _, _ = make_problem("gmm", 3, 200, 42)
        with pytest.raises(DomainError, match=shown):
            estimator.fit(data.ys, beta_star=beta_star)


# each algorithm's settings as plan_for takes them; _fit passes them to the fit function
SETTINGS = {"em": dict(eta=1.0), "clipped": dict(eta=1.0, clip=2.0),
            "dpgem": dict(eta=1.0, tau=5.0, zeta=0.05), "dpem": dict(tau=5.0, zeta=0.05)}


def _fit(algorithm, data, model, beta0, T, budget, rng, truth=None):
    """The public fit function's trace at SETTINGS[algorithm]."""
    k = SETTINGS[algorithm]
    return {
        "em": lambda: gradient_em(data, model, beta0, k["eta"], T, truth),
        "clipped": lambda: clipped_dp_gradient_em(data, model, beta0, k["clip"], k["eta"],
                                                  T, budget, rng, truth),
        "dpgem": lambda: dp_gradient_em(data, model, beta0, k["tau"], k["eta"], T, budget,
                                        k["zeta"], rng, truth),
        "dpem": lambda: dp_em_gmm(data, model, beta0, k["tau"], T, budget, k["zeta"], rng,
                                  truth),
    }[algorithm]()


class TestReleasePlan:
    @pytest.mark.parametrize("algorithm", ["clipped", "dpgem", "dpem"])
    def test_rho_spent_adds_up_to_the_budget(self, algorithm):
        # sequential releases: T vectors (clipped), T*d coordinates (dpem);
        # dpgem's T subsets are disjoint, so only its d coordinates compose
        d, n, T = 5, 600, 4
        model, _, data, beta0, rng = make_problem("gmm", d, n, 45)
        budget = make_budget(0.7, 1e-4)
        plan = plan_for(algorithm, data, model, rng, T=T, budget=budget,
                        **SETTINGS[algorithm])
        trace = _fit(algorithm, data, model, beta0, T, budget, rng)
        assert plan.divisions == {"clipped": (T,), "dpgem": (d,), "dpem": (T, d)}[algorithm]
        assert plan.rho * math.prod(plan.divisions) == pytest.approx(budget.rho, rel=1e-12)
        count = {"clipped": None, "dpgem": n // T, "dpem": n}[algorithm]
        sensitivity = (2.0 * 2.0 / n if count is None
                       else 2.0 * PHI_BOUND * plan.settings["s"] / count)
        assert plan.sensitivity == pytest.approx(sensitivity, rel=1e-15)
        assert plan.sigma == pytest.approx(plan.sensitivity / math.sqrt(2.0 * plan.rho),
                                           rel=1e-15)
        assert plan.add_noise and plan.T == T and plan.budget == budget
        for key in ("sensitivity", "rho", "sigma"):
            assert trace.config[key] == getattr(plan, key)

    def test_em_plan_spends_nothing(self):
        model, _, data, beta0, _ = make_problem("gmm", 3, 200, 46)
        plan = plan_for("em", data, model, None, T=3, eta=1.0)
        trace = gradient_em(data, model, beta0, 1.0, 3)
        assert plan.budget is None and plan.sigma == 0.0 and not plan.add_noise
        assert plan.divisions == () and plan.rho == 0.0
        assert trace.config == {"algorithm": "em", "eta": 1.0, "T": 3}

    @pytest.mark.parametrize("algorithm", ["clipped", "dpgem", "dpem"])
    def test_private_plan_needs_a_budget(self, algorithm):
        # a plan without a budget would calibrate no sigma and add no noise
        model, _, data, beta0, rng = make_problem("gmm", 3, 200, 47)
        with pytest.raises(DomainError, match="budget must be a PrivacyBudget, got None"):
            _fit(algorithm, data, model, beta0, 2, None, rng)

    def test_rho_is_divided_in_turn(self):
        # dpem's rho is (rho / T) / d, as split_budget_alg1 then d gives it; at
        # this setting rho / (T d) differs in the last bit, so a plan that
        # divided by the product would fail here
        T, d = 6, 3
        model, _, data, _, rng = make_problem("gmm", d, 200, 48)
        budget = make_budget(1.0, float(200) ** -1.1)
        plans = {algorithm: plan_for(algorithm, data, model, rng, T=T, budget=budget,
                                     **SETTINGS[algorithm])
                 for algorithm in ("clipped", "dpgem", "dpem")}
        assert plans["clipped"].rho == split_budget_alg1(budget, T)
        assert plans["dpgem"].rho == split_budget_alg2(budget, d)
        assert plans["dpem"].rho == split_budget_alg1(budget, T) / d
        assert budget.rho / (T * d) != plans["dpem"].rho

    @pytest.mark.parametrize("algorithm, kind", [
        (algorithm, kind) for algorithm in ALGORITHMS for kind in ("gmm", "mrm", "rmc")
        if algorithm != "dpem" or kind == "gmm"])
    def test_plan_reproduces_its_fit(self, algorithm, kind):
        model, beta_star, data, beta0, rng = make_problem(kind, 4, 300, 49,
                                                          p_m=0.2 if kind == "rmc" else 0.0)
        budget = make_budget(0.8, 1e-4)
        trace = _fit(algorithm, data, model, beta0, 3, budget, rng, beta_star)
        plan = plan_for(algorithm, data, model, rng, T=3, budget=budget, **SETTINGS[algorithm])
        replay = dpem.estimators._iterate(plan, beta0, beta_star, rng)
        assert replay.betas.tobytes() == trace.betas.tobytes()
        assert replay.errors.tobytes() == trace.errors.tobytes()
        assert replay.config == trace.config

    def test_run_algorithm_calls_each_public_fit(self, monkeypatch):
        # the benchmark's tracer times fits at these four names; run_algorithm
        # must reach them, not run plan_for's plans itself
        names = {"em": "gradient_em", "clipped": "clipped_dp_gradient_em",
                 "dpgem": "dp_gradient_em", "dpem": "dp_em_gmm"}
        calls = dict.fromkeys(names.values(), 0)

        def counting(name, fit):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fit(*args, **kwargs)
            return wrapper

        for name in names.values():
            monkeypatch.setattr(dpem.estimators, name,
                                counting(name, getattr(dpem.estimators, name)))
        model, beta_star, data, beta0, rng = make_problem("gmm", 3, 200, 50)
        for algorithm, name in names.items():
            before = dict(calls)
            run_algorithm(algorithm, data, model, beta0, rng, beta_star, iters=2, eta=1.0,
                          eps=1.0, clip=1.0, tau=5.0, zeta=0.05)
            assert calls == {**before, name: before[name] + 1}, algorithm


def _kernel_branches(x, p):
    """Whether the kernel meets far entries at p, and closed-form corrections
    whose normal CDF takes _ndtr's tail (|V| >= 8 sqrt 2) and its centre
    (|V| < sqrt 2)."""
    a = x / p.s
    b = np.abs(x) / (p.s * math.sqrt(p.beta))
    far = (np.abs(a) > robust._CLOSED_FORM_LIMIT) | (b > robust._CLOSED_FORM_LIMIT)
    gated = ~far & (b > robust._correction_gate(p.beta))
    v = np.abs(np.concatenate([(math.sqrt(2.0) - a[gated]) / b[gated],
                               (math.sqrt(2.0) + a[gated]) / b[gated]]))
    return far.any(), (v >= 8.0 * math.sqrt(2.0)).any(), (v < math.sqrt(2.0)).any()


class TestStreamedReleases:
    """dpgem and dpem stream each release's per-sample rows through the kernel
    a block at a time; the release keeps the bits of the kernel's column
    means over the whole matrix."""

    @pytest.mark.parametrize("d", [1, 5, 50, 70])
    @pytest.mark.parametrize("n", [1023, 1024, 1025, 2049, 5000])
    @pytest.mark.parametrize("algorithm, kind", [
        ("dpgem", "gmm"), ("dpgem", "mrm"), ("dpgem", "rmc"), ("dpem", "gmm")])
    def test_bit_for_bit(self, monkeypatch, algorithm, kind, n, d):
        model, _, data, beta0, rng = make_problem(kind, d, n, 60 + d,
                                                  p_m=0.2 if kind == "rmc" else 0.0)
        budget = make_budget(0.5, 1e-5)
        if algorithm == "dpgem":  # one subset of all n rows, shuffled
            plan = plan_for("dpgem", data, model, rng, T=1, eta=1.0, budget=budget,
                            tau=5.0, zeta=0.05)
            whole = grad_q_batch(model, data.take(rng.split(0).generator.permutation(n)),
                                 beta0)
        else:
            plan = plan_for("dpem", data, model, rng, T=1, budget=budget, tau=5.0,
                            zeta=0.05)
            whole = f_gmm_batch(data, beta0, model.sigma)
        smoothing = plan.settings["smoothing_beta"]
        # the plan's truncation, one that puts the largest values in the far
        # regime and spreads the rest over the closed form's branches, and
        # the plan's at a wider smoothing: below beta = 3.1 no corrected
        # entry reaches _ndtr's z >= 8 form, whose V+ is past 8 sqrt2
        params = [RobustMeanParams(plan.settings["s"], smoothing),
                  RobustMeanParams(np.abs(whole).max() / 20.0, smoothing),
                  RobustMeanParams(plan.settings["s"], 16.0)]
        assert all(map(any, zip(*(_kernel_branches(whole, p) for p in params))))
        # blocks of 1024 rows at every d, as well as the default's
        for block in (robust._BLOCK, 1024):
            monkeypatch.setattr(robust, "_BLOCK", block)
            for p in params:
                streamed = robust_mean_columns(plan.samples(1, beta0), p).tobytes()
                assert streamed == robust_mean_columns(whole, p).tobytes(), (block, p)
                values = robust._smoothed_phi_array(whole, p.s, p.beta)
                assert streamed == values.mean(axis=0).tobytes(), (block, p)
        assert (plan.estimate(plan.samples(1, beta0)).tobytes()
                == robust_mean_columns(whole, params[0]).tobytes())


class TestPickle:
    @pytest.mark.parametrize("estimator", [
        GradientEM(n_iter=3),
        ClippedDPGradientEM(n_iter=3),
        DPGradientEM(tau=5.0, n_iter=3),
        DPEMGaussianMixture(tau=5.0, n_iter=3),
    ], ids=["em", "clipped", "dpgem", "dpem"])
    def test_fitted_estimator_round_trips(self, estimator):
        _, beta_star, data, _, _ = make_problem("gmm", 4, 2000, 47)
        est = estimator.fit(data.ys, beta_star=beta_star)
        blob = pickle.dumps(est)
        # the trace keeps plain settings, not the plan's closures over the data
        assert len(blob) < data.ys.nbytes // 8
        twin = pickle.loads(blob)
        assert twin.beta_.tobytes() == est.beta_.tobytes()
        assert twin.trace_.betas.tobytes() == est.trace_.betas.tobytes()
        assert twin.trace_.config == est.trace_.config
