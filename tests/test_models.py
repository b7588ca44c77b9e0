import math
import sys
import tracemalloc

import numpy as np
import pytest

from dpem import models
from dpem.accounting import make_budget
from dpem.errors import DomainError
from dpem.estimators import clipped_dp_gradient_em
from dpem.models import (
    MODEL_KINDS,
    ModelSpec,
    ObservationSet,
    f_gmm_batch,
    grad_q_batch,
    grad_q_mean,
    preprocess_real_gmm,
    sample_observations,
    tau_bound,
)
from dpem.numeric import RngStream
from oracles import K_beta, f_gmm, grad_q, m_beta, q_value


def make_sample(model, rng):
    if model.kind == "gmm":
        return rng.standard_normal(model.d) * 2.0
    if model.kind == "mrm":
        return rng.standard_normal(model.d), float(rng.standard_normal())
    mask = rng.random(model.d) < 0.7
    if not mask.any():
        mask[0] = True
    x = np.where(mask, rng.standard_normal(model.d), 0.0)
    return x, mask, float(rng.standard_normal())


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(DomainError):
            ModelSpec("linear", 3, 1.0)

    def test_bad_dims(self):
        with pytest.raises(DomainError):
            ModelSpec("gmm", 0, 1.0)
        with pytest.raises(DomainError):
            ModelSpec("gmm", 3, 0.0)
        with pytest.raises(DomainError):
            ModelSpec("gmm", 3, -1.0)

    def test_p_m_range(self):
        with pytest.raises(DomainError):
            ModelSpec("rmc", 3, 1.0, p_m=1.0)
        with pytest.raises(DomainError):
            ModelSpec("rmc", 3, 1.0, p_m=-0.1)
        assert ModelSpec("rmc", 3, 1.0, p_m=0.0).p_m == 0.0

    def test_p_m_rmc_only(self):
        with pytest.raises(DomainError):
            ModelSpec("gmm", 3, 1.0, p_m=0.2)
        with pytest.raises(DomainError):
            ModelSpec("mrm", 3, 1.0, p_m=0.2)


class TestObservationSet:
    def test_gmm_shape(self):
        with pytest.raises(DomainError):
            ObservationSet("gmm", np.zeros(5))
        with pytest.raises(DomainError):
            ObservationSet("gmm", np.zeros((0, 3)))

    def test_gmm_rejects_covariates(self):
        with pytest.raises(DomainError):
            ObservationSet("gmm", np.zeros((4, 2)), xs=np.zeros((4, 2)))

    def test_mrm_needs_xs(self):
        with pytest.raises(DomainError):
            ObservationSet("mrm", np.zeros(4))
        with pytest.raises(DomainError):
            ObservationSet("mrm", np.zeros(4), xs=np.zeros((3, 2)))

    def test_mask_rmc_only(self):
        with pytest.raises(DomainError):
            ObservationSet(
                "mrm", np.zeros(4), xs=np.zeros((4, 2)), mask=np.ones((4, 2), bool)
            )

    def test_rmc_sentinel_enforced(self):
        xs = np.ones((3, 2))
        mask = np.array([[True, False]] * 3)
        with pytest.raises(DomainError):
            ObservationSet("rmc", np.zeros(3), xs=xs, mask=mask)
        obs = ObservationSet("rmc", np.zeros(3), xs=np.where(mask, xs, 0.0), mask=mask)
        assert obs.n == 3 and obs.d == 2

    def test_rmc_sentinel_enforced_in_every_block(self):
        # the check runs 1024 rows at a time; a bad cell in the third block
        # is refused as one in the first is
        mask = np.ones((3000, 2), dtype=bool)
        mask[2500, 1] = False
        xs = np.where(mask, 1.0, -0.0)
        assert ObservationSet("rmc", np.zeros(3000), xs=xs, mask=mask).n == 3000
        xs[2500, 1] = 1e-300
        with pytest.raises(DomainError, match="unobserved xs entries must hold the 0 sentinel"):
            ObservationSet("rmc", np.zeros(3000), xs=xs, mask=mask)

    def test_rmc_sentinel_check_holds_no_table(self):
        obs = sample_observations(ModelSpec("rmc", 20, 1.0, p_m=0.2), 25000, np.ones(20),
                                  RngStream(2))
        tracemalloc.start()
        try:
            ObservationSet("rmc", obs.ys, obs.xs, obs.mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the finiteness check's n x d bools are 0.125 of the covariates'
        # bytes; a gather of the missing cells took 0.31 more
        assert peak < 0.15 * obs.xs.nbytes

    def test_nonfinite_rejected(self):
        ys = np.zeros((3, 2))
        ys[1, 0] = np.nan
        with pytest.raises(DomainError):
            ObservationSet("gmm", ys)

    def test_arrays_frozen(self):
        obs = ObservationSet("gmm", np.zeros((3, 2)))
        with pytest.raises(ValueError):
            obs.ys[0, 0] = 1.0
        obs2 = sample_observations(ModelSpec("rmc", 3, 1.0, 0.3), 5, np.ones(3), RngStream(0))
        for arr in (obs2.ys, obs2.xs, obs2.mask):
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_caller_arrays_stay_writeable(self):
        ys, xs = np.zeros(3), np.ones((3, 2))
        mask = np.ones((3, 2), dtype=bool)
        for obs in (ObservationSet("gmm", xs), ObservationSet("mrm", ys, xs),
                    ObservationSet("rmc", ys, xs, mask)):
            for arr in (obs.ys, obs.xs, obs.mask):
                if arr is not None:
                    with pytest.raises(ValueError):
                        arr[0] = arr[0]
        ys[0], xs[0, 0], mask[0, 0] = 1.0, 2.0, False

    def test_take(self):
        rows = np.array([7, 2, 5, 2])
        for kind in MODEL_KINDS:
            p_m = 0.3 if kind == "rmc" else 0.0
            obs = sample_observations(ModelSpec(kind, 3, 1.0, p_m=p_m), 10, np.ones(3), RngStream(1))
            sub = obs.take(rows)
            assert sub.kind == obs.kind and sub.n == 4 and sub.d == 3
            for name in ("ys", "xs", "mask"):
                got, parent = getattr(sub, name), getattr(obs, name)
                if parent is None:
                    assert got is None
                    continue
                want = parent[rows]
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                with pytest.raises(ValueError):
                    got[0] = got[0]

    def test_rows_are_frozen_views(self):
        obs = sample_observations(ModelSpec("rmc", 3, 1.0, p_m=0.3), 10, np.ones(3),
                                  RngStream(1))
        sub = obs.rows(slice(4, 9))
        assert sub.kind == "rmc" and sub.n == 5 and sub.d == 3
        for name in ("ys", "xs", "mask"):
            got, parent = getattr(sub, name), getattr(obs, name)
            assert np.shares_memory(got, parent)
            assert got.tobytes() == parent[4:9].tobytes()
            with pytest.raises(ValueError):
                got[0] = got[0]

    def test_take_rejects_bad_indices(self):
        obs = sample_observations(ModelSpec("mrm", 2, 1.0), 10, np.ones(2), RngStream(1))
        for bad in ([[1, 2]], 3, np.zeros(10, dtype=bool), np.array([], dtype=int)):
            with pytest.raises(DomainError):
                obs.take(bad)


class TestSampling:
    def test_deterministic(self):
        for kind, p in (("gmm", 0.0), ("mrm", 0.0), ("rmc", 0.3)):
            m = ModelSpec(kind, 4, 1.2, p_m=p)
            a = sample_observations(m, 50, np.ones(4), RngStream(9))
            b = sample_observations(m, 50, np.ones(4), RngStream(9))
            assert np.array_equal(a.ys, b.ys)
            if kind != "gmm":
                assert np.array_equal(a.xs, b.xs)

    def test_gmm_degenerate_mixture(self):
        beta = np.array([2.0, -1.0, 0.5])
        obs = sample_observations(ModelSpec("gmm", beta.size, 1e-12), 200, beta, RngStream(5))
        dist = np.minimum(
            np.linalg.norm(obs.ys - beta, axis=1), np.linalg.norm(obs.ys + beta, axis=1)
        )
        assert dist.max() < 1e-9

    def test_gmm_moments(self):
        beta = np.array([1.0, 2.0, -1.0])
        sigma = 1.5
        n = 100_000
        obs = sample_observations(ModelSpec("gmm", beta.size, sigma), n, beta, RngStream(11))
        d = beta.size
        # EY = 0; per-coordinate sd of the mean is sqrt(beta_j^2+sigma^2)/sqrt(n)
        assert np.linalg.norm(obs.ys.mean(axis=0)) < 5 * sigma * math.sqrt(d / n) + 5 * np.linalg.norm(beta) / math.sqrt(n)
        second = float(np.mean(np.sum(obs.ys**2, axis=1)))
        want = float(beta @ beta) + d * sigma**2
        se = float(np.std(np.sum(obs.ys**2, axis=1))) / math.sqrt(n)
        assert abs(second - want) < 5 * se

    def test_mrm_moments(self):
        beta = np.array([0.8, -0.6])
        sigma = 0.7
        n = 100_000
        obs = sample_observations(ModelSpec("mrm", beta.size, sigma), n, beta, RngStream(12))
        want = float(beta @ beta) + sigma**2
        se = float(np.std(obs.ys**2)) / math.sqrt(n)
        assert abs(float(np.mean(obs.ys**2)) - want) < 5 * se
        # z symmetric kills the cross moment
        cross = obs.xs.T @ obs.ys / n
        assert np.all(np.abs(cross) < 5 * math.sqrt(want) / math.sqrt(n))

    def test_mrm_degenerate(self):
        obs = sample_observations(ModelSpec("mrm", 3, 2.0), 50_000, np.zeros(3), RngStream(13))
        assert float(np.var(obs.ys)) == pytest.approx(4.0, rel=0.1)

    def test_rmc_missing_fraction(self):
        p = 0.35
        obs = sample_observations(ModelSpec("rmc", 5, 1.0, p), 20_000, np.ones(5), RngStream(14))
        frac = 1.0 - float(obs.mask.mean())
        se = math.sqrt(p * (1 - p) / obs.mask.size)
        assert abs(frac - p) < 5 * se

    def test_rmc_response_uses_full_covariate(self):
        # with sigma tiny and heavy masking the response still reflects the
        # unmasked covariate, so residuals vs the masked x are far from 0
        beta = np.array([3.0, 3.0, 3.0])
        obs = sample_observations(ModelSpec("rmc", beta.size, 1e-6, 0.5), 2000, beta,
                                  RngStream(15))
        resid_masked = obs.ys - obs.xs @ beta
        assert float(np.mean(resid_masked**2)) > 1.0

    def test_rmc_p0_mask_all_true(self):
        obs = sample_observations(ModelSpec("rmc", 3, 1.0, 0.0), 100, np.ones(3), RngStream(16))
        assert obs.mask.all()


class TestGradQ:
    def test_gmm_orthogonal_gives_minus_beta(self):
        m = ModelSpec("gmm", 2, 1.0)
        beta = np.array([3.0, 0.0])
        y = np.array([0.0, 5.0])
        assert np.allclose(grad_q(m, y, beta), -beta, atol=1e-15)

    def test_gmm_worked_value(self):
        m = ModelSpec("gmm", 2, 1.0)
        g = grad_q(m, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        want0 = 2.0 / (1.0 + math.exp(-1.0)) - 2.0
        assert g[0] == pytest.approx(want0, abs=1e-12)
        assert g[0] == pytest.approx(-0.537883, abs=1e-6)
        assert g[1] == 0.0

    def test_mrm_zero_beta(self):
        m = ModelSpec("mrm", 3, 1.0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y = rng.standard_normal(3), float(rng.standard_normal())
            assert np.all(grad_q(m, (x, y), np.zeros(3)) == 0.0)

    def test_rmc_all_observed_is_least_squares(self):
        m = ModelSpec("rmc", 4, 1.0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(4)
            y = float(rng.standard_normal())
            beta = rng.standard_normal(4)
            g = grad_q(m, (x, np.ones(4, bool), y), beta)
            ref = y * x - np.outer(x, x) @ beta
            assert np.array_equal(g, ref)

    def test_gmm_sign_symmetry_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            m = ModelSpec("gmm", d, float(rng.uniform(0.3, 3.0)))
            y = rng.standard_normal(d) * float(rng.uniform(0.1, 30.0))
            beta = rng.standard_normal(d)
            assert np.array_equal(grad_q(m, y, beta), grad_q(m, -y, beta))

    def test_dimension_mismatch(self):
        m = ModelSpec("gmm", 3, 1.0)
        with pytest.raises(DomainError):
            grad_q(m, np.zeros(2), np.zeros(3))
        with pytest.raises(DomainError):
            grad_q(m, np.zeros(3), np.zeros(2))

    def test_overflow_safe_weights(self):
        m = ModelSpec("gmm", 1, 0.01)
        with np.errstate(over="raise"):
            g = grad_q(m, np.array([1e4]), np.array([1e4]))
        assert np.isfinite(g).all()

    def test_batch_matches_loop(self):
        rng = RngStream(21)
        np_rng = np.random.default_rng(21)
        for kind, p in (("gmm", 0.0), ("mrm", 0.0), ("rmc", 0.4)):
            m = ModelSpec(kind, 3, 1.1, p_m=p)
            data = sample_observations(m, 40, np.array([1.0, -0.5, 0.25]), rng.split(hash(kind) % 100))
            beta = np_rng.standard_normal(3)
            batch = grad_q_batch(m, data, beta)
            for i in range(data.n):
                if kind == "gmm":
                    s = data.ys[i]
                elif kind == "mrm":
                    s = (data.xs[i], float(data.ys[i]))
                else:
                    s = (data.xs[i], data.mask[i], float(data.ys[i]))
                assert np.allclose(batch[i], grad_q(m, s, beta), atol=1e-12)

    def test_batch_kind_mismatch(self):
        m = ModelSpec("gmm", 2, 1.0)
        data = sample_observations(ModelSpec("mrm", 2, 1.0), 5, np.ones(2), RngStream(3))
        with pytest.raises(DomainError):
            grad_q_batch(m, data, np.zeros(2))


class TestQValue:
    def test_gmm_zero_beta(self):
        m = ModelSpec("gmm", 3, 1.0)
        y = np.array([1.0, -2.0, 0.5])
        assert q_value(m, y, np.zeros(3), np.zeros(3)) == pytest.approx(
            -0.5 * float(y @ y), rel=1e-15
        )

    def test_gmm_single_component_limit(self):
        m = ModelSpec("gmm", 2, 1.0)
        y = np.array([50.0, 0.0])
        beta = np.array([1.0, 2.0])
        bp = np.array([3.0, 0.0])  # <bp, y>/sigma^2 = 150, w = 1 to double precision
        got = q_value(m, y, beta, bp)
        assert got == pytest.approx(-0.5 * float(np.sum((y - beta) ** 2)), rel=1e-12)

    @pytest.mark.parametrize("kind,p_m", [("gmm", 0.0), ("mrm", 0.0), ("rmc", 0.3)])
    def test_finite_difference_gradient(self, kind, p_m):
        m = ModelSpec(kind, 4, 1.2, p_m=p_m)
        rng = np.random.default_rng(100)
        h = 1e-5
        for _ in range(100):
            sample = make_sample(m, rng)
            beta = rng.standard_normal(4) * 0.8
            g = grad_q(m, sample, beta)
            fd = np.empty(4)
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                fd[j] = (
                    q_value(m, sample, beta + e, beta) - q_value(m, sample, beta - e, beta)
                ) / (2 * h)
            scale = max(float(np.linalg.norm(g)), 1.0)
            assert np.linalg.norm(fd - g) / scale < 1e-6


class TestConditionalMoments:
    def test_all_observed(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(3)
        beta = rng.standard_normal(3)
        mask = np.ones(3, bool)
        assert np.array_equal(m_beta(x, mask, 0.3, beta, 1.0), x)
        assert np.array_equal(K_beta(x, mask, 0.3, beta, 1.0), np.outer(x, x))

    def test_all_missing(self):
        beta = np.array([1.0, 2.0])
        sigma = 1.5
        y = 0.7
        mask = np.zeros(2, bool)
        x = np.zeros(2)
        m = m_beta(x, mask, y, beta, sigma)
        want = (y / (sigma**2 + float(beta @ beta))) * beta
        assert np.allclose(m, want, atol=1e-15)
        K = K_beta(x, mask, y, beta, sigma)
        assert np.allclose(K, np.eye(2), atol=1e-15)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            d = int(rng.integers(1, 7))
            mask = rng.random(d) < 0.5
            x = np.where(mask, rng.standard_normal(d), 0.0)
            K = K_beta(x, mask, float(rng.standard_normal()), rng.standard_normal(d), 1.0)
            assert np.array_equal(K, K.T)

    def test_denominator_floor(self):
        # huge beta on missing coordinates must not blow up
        beta = np.full(3, 1e8)
        m = m_beta(np.zeros(3), np.zeros(3, bool), 1.0, beta, 0.5)
        assert np.all(np.isfinite(m))


class TestFGmm:
    def test_orthogonal_zero(self):
        y = np.array([0.0, 3.0])
        assert np.all(f_gmm(y, np.array([2.0, 0.0]), 1.0) == 0.0)

    def test_relation_to_grad_exact(self):
        m = ModelSpec("gmm", 3, 0.8)
        rng = np.random.default_rng(9)
        for _ in range(50):
            y = rng.standard_normal(3)
            beta = rng.standard_normal(3)
            assert np.array_equal(f_gmm(y, beta, 0.8) - beta, grad_q(m, y, beta))

    def test_fixed_point_near_truth(self):
        beta = np.array([3.0, -2.0, 1.0])
        obs = sample_observations(ModelSpec("gmm", beta.size, 0.5), 100_000, beta, RngStream(31))
        avg = f_gmm_batch(obs, beta, 0.5).mean(axis=0)
        assert np.linalg.norm(avg - beta) < 0.02

    def test_batch_requires_gmm(self):
        data = sample_observations(ModelSpec("mrm", 2, 1.0), 5, np.ones(2), RngStream(4))
        with pytest.raises(DomainError):
            f_gmm_batch(data, np.zeros(2), 1.0)

    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), 0.0])
    def test_batch_rejects_bad_sigma(self, sigma):
        data = sample_observations(ModelSpec("gmm", 2, 1.0), 5, np.ones(2), RngStream(4))
        with pytest.raises(DomainError):
            f_gmm(data.ys[0], np.ones(2), sigma)
        with pytest.raises(DomainError):
            f_gmm_batch(data, np.ones(2), sigma)


def batch_problems(n=1003, d=20):
    """One (model, data, beta) per model kind, rmc with p_m = 0.3."""
    rng = np.random.default_rng(41)
    for kind, p in (("gmm", 0.0), ("mrm", 0.0), ("rmc", 0.3)):
        m = ModelSpec(kind, d, 1.2, p_m=p)
        data = sample_observations(m, n, rng.standard_normal(d) * 2.0, RngStream(n))
        yield m, data, rng.standard_normal(d) * 2.0


class TestBatchBlocks:
    # 1003 rows fit in one default block, 3003 span three; d = 20 because
    # blocks that break OpenBLAS's groups of 4 rows change bits there
    @pytest.mark.parametrize("n", [1003, 3003])
    def test_results_independent_of_row_blocks(self, monkeypatch, n):
        for m, data, beta in batch_problems(n):
            arrays = [a for a in (data.ys, data.xs, data.mask) if a is not None]
            kept = [a.tobytes() for a in arrays]
            default = grad_q_batch(m, data, beta)
            for rows in (4, 64, data.n + 1):
                monkeypatch.setattr(models, "_ROWS", rows)
                got = grad_q_batch(m, data, beta)
                assert got is not default and not np.shares_memory(got, default)
                assert got.tobytes() == default.tobytes(), (m.kind, rows)
            monkeypatch.undo()
            assert [a.tobytes() for a in arrays] == kept

    @staticmethod
    def faults(work):
        """Minor faults of this thread in a second run of work, after a
        warm-up run."""
        import resource

        work()
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        work()
        return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before

    @pytest.mark.skipif(sys.platform != "linux", reason="RUSAGE_THREAD is Linux-only")
    def test_repeated_calls_do_not_fault(self):
        m = ModelSpec("rmc", 20, 1.0, p_m=0.2)
        data = sample_observations(m, 25000, np.full(20, 0.5), RngStream(14))

        def calls():
            grads = None
            for _ in range(11):  # each result stays bound until the next exists
                grads = grad_q_batch(m, data, np.full(20, 0.1))
            return grads

        # about 2.1k for 11 or 30 calls; evaluated without row blocks, as
        # n x d temporaries, 11 calls fault about 46k
        assert self.faults(calls) < 4000

    @pytest.mark.skipif(sys.platform != "linux", reason="RUSAGE_THREAD is Linux-only")
    def test_repeated_fits_do_not_fault(self):
        m = ModelSpec("rmc", 20, 1.0, p_m=0.2)
        data = sample_observations(m, 25000, np.full(20, 0.5), RngStream(14))
        budget = make_budget(1.0, 1e-5)

        def fit():
            clipped_dp_gradient_em(data, m, np.full(20, 0.1), 1.0, 1.0, 11, budget,
                                   RngStream(15))

        # 0 at T = 11 or 30: the release forms only n-vectors, and the
        # dataset's own terms are kept from the warm-up fit
        assert self.faults(fit) < 100


def rmc_grad_oracle(m, data, beta):
    """grad_q_batch's rmc rows as first written, K_beta beta term by term, in
    the same row blocks (blocks that start elsewhere change last bits)."""
    s2 = m.sigma**2
    out = []
    for i in range(0, data.n, models._ROWS):
        xs, ys = data.xs[i:i + models._ROWS], data.ys[i:i + models._ROWS]
        miss = 1.0 - data.mask[i:i + models._ROWS].astype(float)
        dot_obs = xs @ beta
        denom = s2 + miss @ (beta * beta)
        mm = xs + ((ys - dot_obs) / denom)[:, None] * (miss * beta)
        u = miss * mm
        k_beta = miss * beta + mm * (mm @ beta)[:, None] - u * (u @ beta)[:, None]
        out.append(ys[:, None] * mm - k_beta)
    return np.concatenate(out)


class TestRmcBlock:
    @pytest.mark.parametrize("p_m", [0.0, 0.2, 0.99])
    @pytest.mark.parametrize("n", [1023, 1024, 1025])
    def test_matches_term_by_term_oracle(self, n, p_m):
        m = ModelSpec("rmc", 20, 1.2, p_m=p_m)
        rng = np.random.default_rng(n)
        data = sample_observations(m, n, rng.standard_normal(20) * 2.0, RngStream(n))
        beta = rng.standard_normal(20) * 2.0
        assert np.array_equal(grad_q_batch(m, data, beta), rmc_grad_oracle(m, data, beta))
        # the first row misses every covariate, the last none, and the
        # missing cells hold the -0.0 sentinel
        mask = data.mask.copy()
        mask[0], mask[-1] = False, True
        xs = np.where(mask, np.where(data.mask, data.xs, rng.standard_normal((n, 20))), -0.0)
        edged = ObservationSet("rmc", data.ys, xs, mask)
        assert np.signbit(edged.xs[0]).all()
        assert np.array_equal(grad_q_batch(m, edged, beta), rmc_grad_oracle(m, edged, beta))


def dense_release(m, data, beta, clip=None):
    """The em and clipped releases over grad_q_batch's matrix: the mean of
    its rows, each first scaled to norm at most clip."""
    grads = grad_q_batch(m, data, beta)
    if clip is not None:
        norms = np.linalg.norm(grads, axis=1)
        with np.errstate(divide="ignore"):
            grads *= np.minimum(1.0, clip / np.where(norms > 0, norms, np.inf))[:, None]
    return grads.mean(axis=0)


def edge_rows(m, data, beta):
    """data whose first row has a zero gradient: gmm's row is beta itself
    (its weight tanh saturates at 1), mrm's covariates are 0, and rmc's row
    is observed with x = 0 and y = 0.  rmc's second row misses every
    covariate, its last row none, and its missing cells hold -0.0."""
    if m.kind == "gmm":
        ys = data.ys.copy()
        ys[0] = beta
        return ObservationSet("gmm", ys)
    ys, xs = data.ys.copy(), data.xs.copy()
    ys[0], xs[0] = 0.0, 0.0
    if m.kind == "mrm":
        return ObservationSet("mrm", ys, xs)
    mask = data.mask.copy()
    mask[0], mask[1], mask[-1] = True, False, True
    xs[-1] = 1.5
    return ObservationSet("rmc", ys, np.where(mask, xs, -0.0), mask)


class TestGradQMean:
    """The em and clipped release, computed from per-sample coefficients,
    against the mean over grad_q_batch's rows."""

    @pytest.mark.parametrize("clip", [None, 1e12, 10.0, 0.5],
                             ids=["none", "slack", "binding-10", "binding-0.5"])
    @pytest.mark.parametrize("n", [1, 1023, 3003])
    def test_matches_dense_release(self, n, clip):
        for m, data, beta in batch_problems(n):
            for rows in (data, edge_rows(m, data, beta)) if n > 1 else (data,):
                want = dense_release(m, rows, beta, clip)
                got = grad_q_mean(m, rows, beta, clip)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), m.kind

    def test_clips_bind(self):
        # the binding clips above scale some rows and leave others
        for m, data, beta in batch_problems():
            norms = np.linalg.norm(grad_q_batch(m, data, beta), axis=1)
            assert np.any(norms < 10.0) and np.any(norms > 10.0), m.kind

    def test_edge_rows(self):
        for m, data, beta in batch_problems():
            edged = edge_rows(m, data, beta)
            grads = grad_q_batch(m, edged, beta)
            assert not grads[0].any(), m.kind
            if m.kind == "rmc":
                assert not edged.mask[1].any() and edged.mask[-1].all()
                assert np.signbit(edged.xs[~edged.mask]).all()
            # a zero row adds nothing to the clipped sum, whatever its s, so
            # the release times n matches the other rows' release times n
            rest = edged.take(np.arange(1, edged.n))
            assert np.allclose(grad_q_mean(m, edged, beta, 0.5) * edged.n,
                               grad_q_mean(m, rest, beta, 0.5) * rest.n,
                               rtol=1e-12, atol=0.0)

    def test_slack_clip_is_the_mean_bitwise(self):
        for m, data, beta in batch_problems():
            plain = grad_q_mean(m, data, beta)
            assert grad_q_mean(m, data, beta, 1e300).tobytes() == plain.tobytes()

    def test_checks_its_inputs(self):
        m, data, beta = next(batch_problems(10))
        with pytest.raises(DomainError):
            grad_q_mean(ModelSpec("mrm", 20, 1.0), data, beta)
        with pytest.raises(DomainError):
            grad_q_mean(m, data, beta[:3])
        for clip in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(DomainError):
                grad_q_mean(m, data, beta, clip)


class TestTauBound:
    def test_gmm_example(self):
        m = ModelSpec("gmm", 4, 1.0)
        assert tau_bound(m, 1.0, 2.0) == pytest.approx(4.0 * 2.0)
        assert tau_bound(m, 1.0, 2.0) == pytest.approx(4.0 * 2.0)

    def test_mrm_example(self):
        m = ModelSpec("mrm", 10, 1.0)
        assert tau_bound(m, 1.0, 1.0) == pytest.approx(4.0 * 10.0)

    def test_rmc_formula(self):
        m = ModelSpec("rmc", 4, 1.0, p_m=0.1)
        want = (math.sqrt(4) * 2.0 + 1.0 + 4.0) ** 2
        assert tau_bound(m, 2.0, 2.0) == pytest.approx(4.0 * want)

    @pytest.mark.parametrize("kind,p_m", [("gmm", 0.0), ("mrm", 0.0), ("rmc", 0.2)])
    def test_bounds_empirical_second_moment(self, kind, p_m):
        d = 5
        m = ModelSpec(kind, d, 1.0, p_m=p_m)
        root = RngStream(55)
        direction = np.ones(d) / math.sqrt(d)
        beta_star = 2.0 * direction
        data = sample_observations(m, 100_000, beta_star, root.split(0))
        grads = grad_q_batch(m, data, beta_star)
        per_coord = float(np.max(np.mean(grads**2, axis=0)))
        bound = tau_bound(
            m, float(np.max(np.abs(beta_star))), float(np.linalg.norm(beta_star))
        )
        assert per_coord <= bound

class TestStationarity:
    """The expected ascent direction at beta_star.

    For rmc the conditional moments are exact, so beta_star is stationary.
    For gmm/mrm the logistic weight is the surrogate's (its constant differs
    from the exact component posterior), so the expectation at beta_star is a
    small nonzero vector along beta_star; we pin it against a quadrature
    oracle over the reduced one- or two-dimensional integrand.
    """

    def test_rmc_stationary_at_truth(self):
        m = ModelSpec("rmc", 4, 1.0, p_m=0.2)
        beta_star = np.array([1.5, -0.5, 1.0, 0.25])
        data = sample_observations(m, 100_000, beta_star, RngStream(77))
        grads = grad_q_batch(m, data, beta_star)
        mean = grads.mean(axis=0)
        se = grads.std(axis=0) / math.sqrt(data.n)
        assert np.all(np.abs(mean) <= 5 * se + 1e-12)

    def test_gmm_mean_gradient_matches_quadrature(self):
        from scipy.integrate import quad

        sigma = 1.0
        beta_star = np.array([1.5, -0.5, 1.0, 0.25])
        norm = float(np.linalg.norm(beta_star))
        unit = beta_star / norm

        # project onto the beta_star direction: u ~ half N(norm, sigma^2),
        # half N(-norm, sigma^2); orthogonal coordinates integrate to zero
        def dens(u):
            c = 1.0 / math.sqrt(2 * math.pi * sigma**2)
            return 0.5 * c * (
                math.exp(-((u - norm) ** 2) / (2 * sigma**2))
                + math.exp(-((u + norm) ** 2) / (2 * sigma**2))
            )

        scalar = quad(
            lambda u: math.tanh(norm * u / (2 * sigma**2)) * u * dens(u),
            -40, 40, limit=400,
        )[0] - norm
        want = scalar * unit

        m = ModelSpec("gmm", 4, sigma)
        data = sample_observations(m, 100_000, beta_star, RngStream(78))
        grads = grad_q_batch(m, data, beta_star)
        mean = grads.mean(axis=0)
        se = grads.std(axis=0) / math.sqrt(data.n)
        assert float(np.linalg.norm(want)) > 5 * float(np.max(se))  # bias is real
        assert np.all(np.abs(mean - want) <= 5 * se)

    def test_mrm_mean_gradient_matches_quadrature(self):
        sigma = 1.0
        beta_star = np.array([1.5, -0.5, 1.0, 0.25])
        norm = float(np.linalg.norm(beta_star))
        unit = beta_star / norm

        # reduce to (u, v) with u = <unit, x>, y = norm*u + v (the two mixture
        # branches give equal contributions); Gauss-Hermite product grid
        nodes, weights = np.polynomial.hermite_e.hermegauss(120)
        u = nodes[:, None]
        v = sigma * nodes[None, :]
        w2 = np.outer(weights, weights) / (2 * math.pi)
        y = norm * u + v
        integrand = np.tanh(y * norm * u / (2 * sigma**2)) * y * u
        scalar = float(np.sum(integrand * w2)) - norm
        want = scalar * unit

        m = ModelSpec("mrm", 4, sigma)
        data = sample_observations(m, 100_000, beta_star, RngStream(79))
        grads = grad_q_batch(m, data, beta_star)
        mean = grads.mean(axis=0)
        se = grads.std(axis=0) / math.sqrt(data.n)
        assert float(np.linalg.norm(want)) > 5 * float(np.max(se))
        assert np.all(np.abs(mean - want) <= 5 * se)


class TestPreprocess:
    def test_two_point_clusters(self):
        feats = np.array([[2.0], [2.0], [-2.0], [-2.0]])
        labels = np.array([1, 1, 0, 0])
        obs, beta_star, sigma = preprocess_real_gmm(feats, labels)
        assert beta_star == pytest.approx([2.0])
        assert sigma == 1e-6  # zero within-cluster spread hits the floor
        assert obs.kind == "gmm" and obs.n == 4

    def test_unbalanced_truncation_keeps_first_rows(self):
        feats = np.array(
            [[0.0, 0.0], [10.0, 0.0], [2.0, 0.0], [12.0, 0.0], [99.0, 99.0]]
        )
        labels = np.array([1, 0, 1, 0, 1])
        obs, beta_star, sigma = preprocess_real_gmm(feats, labels)
        # the third label-1 row is dropped, so the outlier never enters
        assert obs.n == 4
        assert beta_star == pytest.approx([-5.0, 0.0])
        assert sigma == pytest.approx(math.sqrt(2.0))

    def test_needs_both_labels(self):
        with pytest.raises(DomainError):
            preprocess_real_gmm(np.zeros((4, 2)), np.ones(4, dtype=int))
        with pytest.raises(DomainError):
            preprocess_real_gmm(np.zeros((4, 2)), np.array([0, 1, 2, 0]))

    def test_needs_two_rows_per_cluster(self):
        feats = np.zeros((3, 2))
        with pytest.raises(DomainError):
            preprocess_real_gmm(feats, np.array([1, 0, 0]))

    def test_monte_carlo_round_trip(self):
        d, n, sigma = 3, 40_000, 1.3
        beta = np.array([2.0, -1.0, 0.5])
        rng = RngStream(91).generator
        z = rng.integers(0, 2, size=n) * 2 - 1
        feats = z[:, None] * beta + sigma * rng.standard_normal((n, d))
        labels = (z > 0).astype(int)
        obs, beta_star, sig = preprocess_real_gmm(feats, labels)
        assert np.linalg.norm(beta_star - beta) < 5 * sigma * math.sqrt(d / n)
        assert sig**2 == pytest.approx(sigma**2, rel=0.10)

    def test_translation_invariance_exact_on_representable_inputs(self):
        # integer data, integer shift: every intermediate stays exact
        feats = np.array([[1.0, 2.0], [3.0, 4.0], [-1.0, 0.0], [5.0, -2.0]])
        labels = np.array([1, 1, 0, 0])
        obs1, t1, s1 = preprocess_real_gmm(feats, labels)
        shift = np.array([128.0, -64.0])
        obs2, t2, s2 = preprocess_real_gmm(feats + shift, labels)
        assert np.array_equal(t1, t2)
        assert s1 == s2
        assert np.array_equal(obs1.ys, obs2.ys)

    def test_translation_invariance_generic(self):
        rng = np.random.default_rng(17)
        feats = rng.standard_normal((30, 3))
        labels = (rng.random(30) < 0.5).astype(int)
        labels[:2], labels[2:4] = 1, 0
        obs1, t1, s1 = preprocess_real_gmm(feats, labels)
        shift = rng.standard_normal(3) * 5
        obs2, t2, s2 = preprocess_real_gmm(feats + shift, labels)
        assert np.allclose(t1, t2, atol=1e-10)
        assert s1 == pytest.approx(s2, abs=1e-10)
