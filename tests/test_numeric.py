import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpem.errors import ConvergenceError, DomainError
from dpem.numeric import RngStream, max_eigenvalue, sample_gaussian
from quadrature import expectation_under_gaussian


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(123).generator.standard_normal(8)
        b = RngStream(123).generator.standard_normal(8)
        assert np.array_equal(a, b)

    def test_split_is_position_independent(self):
        # consuming draws from the parent must not shift children
        r1 = RngStream(5)
        r1.generator.standard_normal(100)
        child_after_use = r1.split(3).generator.standard_normal(4)
        child_fresh = RngStream(5).split(3).generator.standard_normal(4)
        assert np.array_equal(child_after_use, child_fresh)

    def test_distinct_paths_decorrelated(self):
        xs = RngStream(0).split(0).generator.standard_normal(1000)
        ys = RngStream(0).split(1).generator.standard_normal(1000)
        assert abs(float(np.corrcoef(xs, ys)[0, 1])) < 0.1

    def test_nested_split_path(self):
        a = RngStream(9).split(2).split(7).generator.standard_normal(3)
        b = RngStream(9).split(2).split(7).generator.standard_normal(3)
        assert np.array_equal(a, b)

    def test_seed_range_validated(self):
        with pytest.raises(DomainError):
            RngStream(-1)
        with pytest.raises(DomainError):
            RngStream(2**64)


class TestSampling:
    def test_zero_std_returns_mean(self):
        assert sample_gaussian(RngStream(1), 3.0, 0.0) == 3.0

    def test_negative_std_rejected(self):
        with pytest.raises(DomainError):
            sample_gaussian(RngStream(1), 0.0, -1.0)

    def test_gaussian_moments(self):
        g = RngStream(2024).generator
        xs = np.array([g.standard_normal() for _ in range(10**6)])
        assert abs(float(xs.mean())) < 0.005  # 5 / sqrt(1e6)
        ys = 2.0 * g.standard_normal(10**6)
        assert float(np.var(ys)) == pytest.approx(4.0, abs=0.04)

    def test_gaussian_mean_std_path(self):
        draws = np.array([sample_gaussian(RngStream(i), 1.5, 0.5)
                          for i in range(20000)])
        assert float(draws.mean()) == pytest.approx(1.5, abs=5 * 0.5 / math.sqrt(20000))


class TestMaxEigenvalue:
    def test_diagonal(self):
        m = np.diag([1.0, 7.0, 3.0])
        assert max_eigenvalue(m) == pytest.approx(7.0, rel=1e-9)

    def test_zero_matrix(self):
        assert max_eigenvalue(np.zeros((4, 4))) == 0.0

    def test_rotation_invariance(self):
        g = np.random.default_rng(3)
        for _ in range(20):
            d = int(g.integers(2, 8))
            a = g.standard_normal((d, d))
            m = a @ a.T
            q, _ = np.linalg.qr(g.standard_normal((d, d)))
            assert max_eigenvalue(q @ m @ q.T) == pytest.approx(
                max_eigenvalue(m), abs=1e-8 * max(1.0, max_eigenvalue(m)))

    def test_matches_dense_solver(self):
        g = np.random.default_rng(11)
        for _ in range(25):
            a = g.standard_normal((6, 6))
            m = a @ a.T
            assert max_eigenvalue(m) == pytest.approx(
                float(np.linalg.eigvalsh(m)[-1]), rel=1e-8)

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(DomainError):
            max_eigenvalue(m)

    def test_indefinite_rejected(self):
        with pytest.raises(DomainError):
            max_eigenvalue(np.diag([1.0, -5.0]))

    def test_degenerate_spectrum_converges(self):
        # equal top eigenvalues stall naive power iteration residuals
        assert max_eigenvalue(np.eye(5) * 2.5) == pytest.approx(2.5, rel=1e-9)

    def test_near_degenerate_top_eigenvalues(self):
        # relative eigengap 1e-4: too slow a contraction for power iteration
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((6, 6)))
        m = q @ np.diag([3.0, 3.0 * (1 - 1e-4), 1.0, 0.5, 0.1, 0.0]) @ q.T
        m = (m + m.T) / 2
        assert max_eigenvalue(m) == pytest.approx(3.0, rel=1e-12)

    def test_negative_minor_eigenvalue_rejected(self):
        with pytest.raises(DomainError):
            max_eigenvalue(np.diag([5.0, 1.0, -1.0]))


class TestExpectationUnderGaussian:
    def test_odd_bounded_function_is_zero(self):
        f = lambda x: np.tanh(x)
        assert abs(expectation_under_gaussian(f, 0.0, 1.7)) <= 1e-12

    def test_degenerate_std(self):
        assert expectation_under_gaussian(lambda x: x * x, 2.0, 0.0) == 4.0

    def test_quadratic_exact(self):
        # E[(m + s Z)^2] = m^2 + s^2
        v = expectation_under_gaussian(lambda x: x * x, 1.0, 2.0)
        assert v == pytest.approx(5.0, abs=1e-10)

    def test_nodes_floor(self):
        with pytest.raises(DomainError):
            expectation_under_gaussian(lambda x: x, 0.0, 1.0, nodes=16)

    def test_kinked_integrand_with_breakpoints(self):
        # |x| has a kink; closed form E|m + s Z| is available
        m, s = 0.3, 1.1
        cdf = 0.5 * math.erfc(m / (s * math.sqrt(2)))  # Phi(-m/s)
        want = s * math.sqrt(2 / math.pi) * math.exp(-m * m / (2 * s * s)) \
            + m * (1 - 2 * cdf)
        got = expectation_under_gaussian(np.abs, m, s, breakpoints=[0.0])
        assert got == pytest.approx(want, abs=1e-11)

    @given(st.floats(min_value=-3, max_value=3), st.floats(min_value=0.1, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_affine_exactness(self, m, s):
        got = expectation_under_gaussian(lambda x: 2.0 * x - 1.0, m, s)
        assert got == pytest.approx(2.0 * m - 1.0, abs=1e-10)
