import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpem.accounting import (
    PrivacyBudget,
    gaussian_sigma_for_zcdp,
    make_budget,
    split_budget_alg1,
    split_budget_alg2,
    zcdp_to_approx_dp,
)
from dpem.errors import DomainError


def test_eps_tilde_formula():
    b = make_budget(1.0, 1e-5)
    want = math.sqrt(math.log(1e5) + 1.0) - math.sqrt(math.log(1e5))
    assert b.eps_tilde == pytest.approx(want, rel=1e-15)
    # this value is commonly quoted rounded; stay within a part in a thousand
    assert b.eps_tilde == pytest.approx(0.144351, rel=1e-3)


def test_round_trip_identity():
    # eps_tilde^2 + 2 sqrt(eps_tilde^2 log(1/delta)) recovers eps
    for eps in (0.1, 0.5, 1.0, 3.0):
        for delta in (1e-3, 1e-5, 1e-8):
            b = make_budget(eps, delta)
            back = zcdp_to_approx_dp(b.rho, delta)
            assert back == pytest.approx(eps, abs=1e-10)


@given(st.floats(min_value=0.01, max_value=5),
       st.floats(min_value=1e-10, max_value=0.1))
@settings(max_examples=100, deadline=None)
def test_round_trip_property(eps, delta):
    b = make_budget(eps, delta)
    assert zcdp_to_approx_dp(b.eps_tilde**2, delta) == pytest.approx(eps, abs=1e-9)


def test_budget_validation():
    with pytest.raises(DomainError):
        make_budget(0.0, 1e-5)
    with pytest.raises(DomainError):
        make_budget(1.0, 0.0)
    with pytest.raises(DomainError):
        make_budget(1.0, 1.0)
    with pytest.raises(DomainError):
        PrivacyBudget(eps=1e-300, delta=1e-5)  # eps_tilde rounds to 0
    assert make_budget(0.5, 1e-6) == PrivacyBudget(eps=0.5, delta=1e-6)


def test_rho_is_eps_tilde_squared():
    b = make_budget(0.7, 1e-6)
    assert b.rho == pytest.approx(b.eps_tilde**2, rel=1e-15)


def test_gaussian_sigma_for_zcdp():
    # sigma = sensitivity / sqrt(2 rho)
    assert gaussian_sigma_for_zcdp(2.0, 0.5) == pytest.approx(2.0)
    assert gaussian_sigma_for_zcdp(1.0, 0.02) == pytest.approx(5.0)
    with pytest.raises(DomainError):
        gaussian_sigma_for_zcdp(-1.0, 0.5)
    with pytest.raises(DomainError):
        gaussian_sigma_for_zcdp(1.0, 0.0)


def test_split_alg1_even_per_iteration():
    b = make_budget(1.0, 1e-5)
    rho_iter = split_budget_alg1(b, 10)
    assert rho_iter == pytest.approx(b.rho / 10)
    # composing the iterations back must not exceed the total budget
    assert 10 * rho_iter == pytest.approx(b.rho)


def test_split_alg2_per_coordinate():
    b = make_budget(0.5, 1e-4)
    # disjoint subsets: iterations compose in parallel, coordinates in series
    assert split_budget_alg2(b, d=8) == pytest.approx(b.rho / 8)


def test_split_validation():
    b = make_budget(1.0, 1e-5)
    with pytest.raises(DomainError):
        split_budget_alg1(b, 0)
    with pytest.raises(DomainError):
        split_budget_alg2(b, 0)


def test_example_noise_scale_clipped_iteration():
    # one iteration of the clipped algorithm: sensitivity 2C/n, budget rho/T
    b = make_budget(1.0, 1e-5)
    n, T, C = 1000, 25, 1.0
    sigma = gaussian_sigma_for_zcdp(2 * C / n, split_budget_alg1(b, T))
    assert sigma == pytest.approx(C * math.sqrt(2 * T) / (n * b.eps_tilde), rel=1e-12)
    assert sigma == pytest.approx(0.048989, rel=1e-3)


def test_monotone_in_eps():
    deltas = np.logspace(-8, -3, 6)
    for delta in deltas:
        tilde = [make_budget(e, float(delta)).eps_tilde for e in (0.1, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(tilde, tilde[1:]))
