import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

from dpem import robust
from dpem.accounting import gaussian_sigma_for_zcdp, make_budget
from dpem.errors import DomainError
from dpem.numeric import RngStream
from dpem.robust import (
    PHI_BOUND,
    RobustMeanParams,
    central_dp_mean,
    local_dp_mean,
    robust_mean,
    robust_mean_columns,
    select_params_central,
    select_params_nonprivate,
    select_params_local,
    smoothed_phi,
)
from oracles import correction_C, phi
from quadrature import expectation_under_gaussian

SQRT2 = math.sqrt(2.0)


def oracle(x, s, beta):
    """Quadrature route: s * E phi(x(1+eta)/s), eta ~ N(0, 1/beta)."""
    if x == 0.0:
        return 0.0
    knots = [SQRT2 * s / x - 1.0, -SQRT2 * s / x - 1.0]
    val = expectation_under_gaussian(
        lambda e: phi((x + e * x) / s), 0.0, 1.0 / math.sqrt(beta),
        breakpoints=knots)
    return s * val


def pow_closed_form(a, b):
    """The closed form with every power taken by libm pow: the reference
    that the kernel's product form must match to rounding."""
    with np.errstate(over="ignore", divide="ignore"):
        v_minus = np.clip((SQRT2 - a) / b, -40.0, 40.0)
        v_plus = np.clip((SQRT2 + a) / b, -40.0, 40.0)
    f_minus, f_plus = ndtr(-v_minus), ndtr(-v_plus)
    e_minus, e_plus = np.exp(-0.5 * v_minus**2), np.exp(-0.5 * v_plus**2)
    c = 1.0 / math.sqrt(2.0 * math.pi)
    corr = (PHI_BOUND * (f_minus - f_plus)
            - (a - a**3 / 6.0) * (f_minus + f_plus)
            + b * c * (1.0 - a**2 / 2.0) * (e_plus - e_minus)
            + (a * b**2 / 2.0) * (f_plus + f_minus + c * (v_plus * e_plus + v_minus * e_minus))
            + (b**3 / 6.0) * c * ((2.0 + v_minus**2) * e_minus - (2.0 + v_plus**2) * e_plus))
    return a * (1.0 - b**2 / 2.0) - a**3 / 6.0 + corr


def single_window_expectation(a, b):
    """The far-regime evaluation for one entry at a time: the reference that
    the kernel's batched evaluation must reproduce bit for bit."""
    v_minus = (SQRT2 - a) / b
    v_plus = (SQRT2 + a) / b
    tails = PHI_BOUND * ((1.0 - ndtr(v_minus)) - ndtr(-v_plus))
    lo = max(-v_plus, -39.0)
    hi = min(v_minus, 39.0)
    if hi <= lo:
        return float(tails)
    n_panels = max(1, int(math.ceil((hi - lo) / 0.25)))
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    nodes, weights = np.polynomial.legendre.leggauss(32)
    u = mid[:, None] + half[:, None] * nodes
    z = a + b * u
    pdf = np.exp(-0.5 * u * u) * (1.0 / math.sqrt(2.0 * math.pi))
    return float(tails + np.sum(half * (((z - z**3 / 6.0) * pdf) @ weights)))


def kernel_args(x, s, beta):
    """The (a, b) the kernel derives from x: x/s and |x|/(s sqrt(beta))."""
    return x / s, abs(x) / (s * math.sqrt(beta))


# smoothing concentrations at which the correction gate is checked, down to
# the smallest positive double, where the gate is widest
GATE_BETAS = (5e-324, 1e-300, 1e-30, 1.0, math.sqrt(math.log(1000.0)), 50.0)


def gate_edge_a(v, beta):
    """The a > 0 at which min(V-, V+) = (sqrt2 - a)/b equals v, with the
    kernel's b = a / sqrt(beta)."""
    root = math.sqrt(beta)
    return SQRT2 * root / (v + root)


def gate_entries():
    """{(beta, s): x} for 2.4M entries whose min(V-, V+) runs from 0.5 to 40,
    densest at V*(beta), for every beta of GATE_BETAS at two scales s."""
    entries = {}
    for beta in GATE_BETAS:
        v_cut = robust._correction_cutoff(beta)
        v = np.concatenate([np.linspace(0.5, 40.0, 50_000),
                            v_cut * (1.0 + np.linspace(-1e-3, 1e-3, 50_000))])
        for s in (0.37, 3e5):
            entries[beta, s] = np.outer(gate_edge_a(v, beta) * s, [1.0, -1.0])
    return entries


def largest_at_most(limit, divisor):
    """The largest double x with fl(x / divisor) <= limit."""
    x = limit * divisor
    while x / divisor > limit:
        x = math.nextafter(x, 0.0)
    while math.nextafter(x, math.inf) / divisor <= limit:
        x = math.nextafter(x, math.inf)
    return x


def smallest_above_zero(divisor):
    """The smallest double x with fl(x / divisor) > 0."""
    x = math.ulp(0.0)
    while x / divisor == 0.0:
        x = math.nextafter(x, math.inf)
    return x


FAR_S, FAR_BETA = 1.7, 25.0


def mixed_far_row():
    """Far-regime entries (|a| > 10 or b > 10).  With b = |a| / sqrt(beta)
    every window is centred at -a/b = -+5, where it still carries mass, and
    is 2 sqrt(2) / b wide, so the entries need one panel (over two evaluation
    chunks of them), two panels, six panels (over two chunks), or none (tail
    mass only, where the window's two ends round together)."""
    a = np.concatenate([
        np.linspace(60.0, 200.0, 2100),  # b in [12, 40]: window < 0.25
        np.linspace(30.0, 50.0, 40),     # b in [6, 10]: window in (0.28, 0.48)
        np.linspace(10.2, 10.6, 400),    # b ~ 2.1: window ~ 1.35
        [1e6, 1e300],                    # deep saturation
    ])
    return np.concatenate([a, -a]) * FAR_S


class TestPhi:
    def test_zero(self):
        assert phi(0.0) == 0.0

    def test_knot(self):
        assert phi(SQRT2) == pytest.approx(2 * SQRT2 / 3, rel=1e-15)
        assert phi(SQRT2) == pytest.approx(PHI_BOUND, rel=1e-15)

    def test_cubic_branch(self):
        assert phi(-1.0) == pytest.approx(-5.0 / 6.0, rel=1e-15)

    def test_saturation(self):
        assert phi(10.0) == pytest.approx(2 * SQRT2 / 3, rel=1e-15)
        assert phi(-1e300) == pytest.approx(-PHI_BOUND, rel=1e-15)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_odd_and_bounded(self, x):
        assert phi(-x) == -phi(x)
        assert abs(phi(x)) <= PHI_BOUND + 1e-15

    def test_vectorized(self):
        xs = np.array([0.0, 1.0, 5.0, -5.0])
        out = phi(xs)
        assert out.shape == xs.shape
        assert out[2] == -out[3]


class TestCorrectionC:
    def test_zero_a(self):
        for b in (1e-6, 0.3, 2.0, 50.0):
            assert correction_C(0.0, b) == pytest.approx(0.0, abs=1e-15)

    def test_nonpositive_b(self):
        with pytest.raises(DomainError):
            correction_C(1.0, 0.0)
        with pytest.raises(DomainError):
            correction_C(1.0, -2.0)

    def test_small_b_limit(self):
        # b -> 0 forces F- -> 1, F+ -> 0 for a > sqrt(2), so C -> phi(a) - (a - a^3/6)
        want = 2 * SQRT2 / 3 - 2.0 + 8.0 / 6.0
        assert correction_C(2.0, 1e-8) == pytest.approx(want, abs=1e-10)
        assert want == pytest.approx(0.2761424, abs=1e-7)

    def test_identity_against_quadrature(self):
        # E phi(a + b xi) = a(1 - b^2/2) - a^3/6 + C(a, b), xi standard normal
        for a, b in ((0.5, 0.5), (1.2, 0.9), (-0.7, 2.0), (3.0, 0.4)):
            lhs = expectation_under_gaussian(
                lambda z: phi(a + b * z), 0.0, 1.0,
                breakpoints=[(SQRT2 - a) / b, (-SQRT2 - a) / b])
            rhs = a * (1 - b * b / 2) - a**3 / 6 + correction_C(a, b)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def exact_tail(v, b):
    """E[g(a + b xi); xi > v] in mpmath, with g(y) = (y - sqrt2)^2 (y + 2
    sqrt2)/6 and v = (sqrt2 - a)/b: with u = xi - v, g = b^2 u^2 (3 sqrt2 +
    b u)/6, and xi's tail moments give E[u^2; u > 0] and E[u^3; u > 0]."""
    q, p = mpmath.ncdf(-v), mpmath.npdf(v)
    second = (1 + v * v) * q - v * p
    third = (v * v + 2) * p - v * (v * v + 3) * q
    return b * b * (3 * mpmath.sqrt(2) * second + b * third) / 6


def exact_correction(a, b):
    """C(a, b) = E[g(Y); Y > sqrt2] - E[g(-Y); Y < -sqrt2], Y = a + b xi,
    in mpmath: the tails at V- and V+."""
    root2 = mpmath.sqrt(2)
    return exact_tail((root2 - a) / b, b) - exact_tail((root2 + a) / b, b)


def correction_bound(v, beta):
    """The bound on |C|/|value| at robust._V_BOUND, in mpmath."""
    return 3 * mpmath.npdf(v) * (v**-4 + v**-6) / mpmath.sqrt(beta)


class TestCorrectionBound:
    """The bound that lets the closed form skip C(a, b) past V*(beta)."""

    def test_exact_correction_matches_kernel(self):
        # the mpmath form of C, where C is far from negligible
        with mpmath.workdps(50):
            for a, b in ((0.5, 0.5), (1.2, 0.9), (-0.7, 2.0), (3.0, 0.4), (0.16, 0.16)):
                want = exact_correction(mpmath.mpf(a), mpmath.mpf(b))
                assert correction_C(a, b) == pytest.approx(float(want), abs=1e-14), (a, b)

    @pytest.mark.parametrize("beta", GATE_BETAS)
    def test_bound_holds_past_the_cutoff(self, beta):
        # exact |C|/|value| on the kernel's entries whose V = min(V-, V+) runs
        # over [V*, V* + 4]; V+ - V- = 2 sqrt(beta) cancels the digits of
        # sqrt(beta) in C, which the working precision adds to its 50
        v_cut = robust._correction_cutoff(beta)
        digits = 50 + max(0, -math.floor(math.log10(math.sqrt(beta))))
        with mpmath.workdps(digits):
            root = mpmath.sqrt(mpmath.mpf(beta))
            for v in mpmath.linspace(mpmath.mpf(v_cut), v_cut + 4, 41):
                a = mpmath.sqrt(2) * root / (v + root)
                b = a / root
                value = a * (1 - b * b / 2 - a * a / 6)
                ratio = abs(exact_correction(a, b) / value)
                assert ratio <= correction_bound(v, beta), (beta, v)
                assert ratio < mpmath.mpf(2) ** -56, (beta, v)

    @pytest.mark.parametrize("beta", GATE_BETAS)
    def test_cutoff_meets_the_bound(self, beta):
        v_cut = robust._correction_cutoff(beta)
        with mpmath.workdps(50):
            assert 2 * correction_bound(mpmath.mpf(v_cut), beta) <= mpmath.mpf(2) ** -55
        assert v_cut <= robust._V_BOUND

    def test_cutoff_stays_tight(self):
        # the plans' beta = sqrt(log(1/zeta)) at zeta = 1e-3; the five-term
        # bound this one replaced put V* at 9.0
        assert robust._correction_cutoff(math.sqrt(math.log(1000.0))) < 8.0


class TestRobustMeanParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            RobustMeanParams(s=0.0, beta=1.0)
        with pytest.raises(DomainError):
            RobustMeanParams(s=1.0, beta=-1.0)
        with pytest.raises(DomainError):
            RobustMeanParams(s=1.0, beta=1.0, sigma=-0.5)


class TestSmoothedPhi:
    def test_zero(self):
        p = RobustMeanParams(s=2.0, beta=4.0)
        assert smoothed_phi(0.0, p) == 0.0

    @given(st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=0.05, max_value=50),
           st.floats(min_value=0.2, max_value=50))
    @settings(max_examples=300, deadline=None)
    def test_odd_and_bounded(self, x, s, beta):
        p = RobustMeanParams(s=s, beta=beta)
        v = smoothed_phi(x, p)
        assert abs(v) <= PHI_BOUND * s * (1 + 1e-12)
        assert smoothed_phi(-x, p) == pytest.approx(-v, abs=1e-13 * max(1, s))

    def test_matches_quadrature_both_regimes(self):
        cases = [
            (1.3, 2.0, 4.0),      # closed form
            (0.02, 1.0, 0.5),     # tiny argument
            (54.28, 3.606, 0.474),  # windowed evaluation, kinked integrand
            (1e6, 2.0, 4.0),      # deep saturation
        ]
        for x, s, beta in cases:
            p = RobustMeanParams(s=s, beta=beta)
            assert smoothed_phi(x, p) == pytest.approx(oracle(x, s, beta), abs=1e-8)

    def test_regime_boundary_continuity(self):
        # the evaluator switches strategies; values must agree across the seam
        s, beta = 1.0, 1.0
        p = RobustMeanParams(s=s, beta=beta)
        for x in (9.999, 10.0, 10.001):
            assert smoothed_phi(x, p) == pytest.approx(oracle(x, s, beta), abs=1e-9)

    def test_closed_form_matches_pow_reference(self):
        # products in place of pow move each cube by about an ulp of |a|^3,
        # which the closed form's cancellation passes on undamped
        s = 2.0
        eps = np.finfo(float).eps
        for a0 in np.linspace(-10.0, 10.0, 41):
            for b0 in np.concatenate([[1e-3, 0.05], np.linspace(0.25, 10.0, 40)]):
                if a0 == 0.0:
                    continue
                x = a0 * s
                beta = (a0 / b0) ** 2
                a, b = kernel_args(x, s, beta)
                want = min(max(s * pow_closed_form(a, b), -PHI_BOUND * s), PHI_BOUND * s)
                got = smoothed_phi(x, RobustMeanParams(s=s, beta=beta))
                tol = s * max(1e-13, 2.0 * eps * (1.0 + abs(a) ** 3 + b**3))
                assert got == pytest.approx(want, abs=tol), (a, b)

    def test_correction_gate_is_exact(self):
        # C(a, b) is skipped where min(V-, V+) >= V*(beta); just either side
        # of V*, and of _V_BOUND = 40 where every term of C is exactly 0.0,
        # the value must equal the ungated closed form bit for bit
        s = 1.5
        probes = []  # (x, beta, V the probe sits at)
        for beta in GATE_BETAS:
            v_cut = robust._correction_cutoff(beta)
            for v in (v_cut * (1 - 1e-9), v_cut * (1 + 1e-9), v_cut - 0.5, v_cut + 0.5):
                probes += [(sign * gate_edge_a(v, beta) * s, beta, v) for sign in (1.0, -1.0)]
        for b0 in (1e-3, 0.01, 0.03):
            edge = SQRT2 - 40.0 * b0  # |a| at which min(V-, V+) == 40
            for a0 in (edge * (1 - 1e-9), edge * (1 + 1e-9)):
                probes += [(sign * a0 * s, (a0 / b0) ** 2, 40.0) for sign in (1.0, -1.0)]
        sides = set()
        for x, beta, v in probes:
            a, b = kernel_args(x, s, beta)
            v_min = min((SQRT2 - a) / b, (SQRT2 + a) / b)
            sides.add((beta, v_min >= robust._correction_cutoff(beta)))
            c = correction_C(a, b)
            if v_min >= 40.0:
                assert c == 0.0, (beta, v)
            want = s * ((a * (1.0 - b * b / 2.0) - a * a * a / 6.0) + c)
            p = RobustMeanParams(s=s, beta=beta)
            assert smoothed_phi(x, p) == want, (beta, v)
        for beta in GATE_BETAS:
            assert {(beta, False), (beta, True)} <= sides, beta

    def test_correction_gate_keeps_every_entry_below_the_cutoff(self):
        # the closed form gates C(a, b) on b; every entry whose computed
        # min(V-, V+) is below V*(beta) must pass that gate
        for (beta, s), x in gate_entries().items():
            a, b = x / s, np.abs(x) / (s * math.sqrt(beta))
            v_min = np.minimum((SQRT2 - a) / b, (SQRT2 + a) / b)
            below = v_min < robust._correction_cutoff(beta)
            assert below.any() and not below.all(), (beta, s)
            assert np.all(b[below] > robust._correction_gate(beta)), (beta, s)

    @pytest.mark.parametrize("beta", [FAR_BETA, 0.04])
    def test_closed_form_block_matches_mixed_block(self, beta):
        # a block wholly in the closed form's domain skips both fix-ups;
        # its values must equal the same entries' in a block that runs them.
        # The domain's edges: max |a| = 10 binds at beta = 25 and max b = 10
        # at beta = 0.04, and min b is the smallest positive double.
        s, scale = FAR_S, FAR_S * math.sqrt(beta)
        limit = robust._CLOSED_FORM_LIMIT
        top = largest_at_most(limit, s if beta >= 1.0 else scale)
        bottom = smallest_above_zero(scale)
        assert top / s <= limit and top / scale <= limit
        inside = np.concatenate([[top, -top, bottom, -bottom],
                                 np.linspace(-0.99, 0.99, 66) * top])  # no 0

        def matches_mixed(block):
            mixed = np.concatenate([block, [200.0 * s, 0.0]])  # far and b == 0
            want = robust._smoothed_phi_array(mixed, s, beta)[: block.size]
            return np.array_equal(robust._smoothed_phi_array(block, s, beta), want)

        assert matches_mixed(inside)
        # one ulp past each edge: |a| or b just over 10, and b == 0
        for past in (math.nextafter(top, math.inf), math.nextafter(bottom, 0.0)):
            assert matches_mixed(np.concatenate([inside, [past, -past]])), past

    def test_underflowing_scale_is_not_a_closed_form_block(self):
        # s sqrt(beta) underflows to 0.0: the fix-ups' guards must not divide
        # by it, also where max |a| <= 10, every value stays within the bound,
        # and b = 0/0 at +-0 gives +0.0, never -0.0 or nan
        p = RobustMeanParams(s=1e-200, beta=1e-300, sigma=0.0)
        assert p.s * math.sqrt(p.beta) == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            means = robust_mean_columns(np.array([[1.0, -2.0], [1e-300, 0.5]]), p)
            for x in ([0.0, -0.0, 1.0, -2.0, 1e-300], [-0.0, 0.0, 10.0 * p.s]):
                got = robust._smoothed_phi_array(np.array(x), p.s, p.beta)
                assert got.tobytes() == np.zeros(len(x)).tobytes(), x
        assert np.all(np.abs(means) <= PHI_BOUND * p.s)

    def test_correction_gate_matches_ungated_kernel(self, monkeypatch):
        # the gated kernel must equal one adding C on every entry
        gated = {(beta, s): (x, robust._smoothed_phi_array(x, s, beta))
                 for (beta, s), x in gate_entries().items()}
        monkeypatch.setattr(robust, "_correction_cutoff", lambda beta: math.inf)
        assert sum(x.size for x, _ in gated.values()) >= 10**6
        for (beta, s), (x, got) in gated.items():
            assert np.array_equal(got, robust._smoothed_phi_array(x, s, beta)), (beta, s)

    def test_columns_bitwise_equal_per_entry(self):
        s, beta = FAR_S, FAR_BETA
        row = np.concatenate([[0.0, 1e-320, -1e-320, 0.3, -2.5, 5.0 * s],
                              mixed_far_row()])
        mat = np.vstack([row, row[::-1]])
        p = RobustMeanParams(s=s, beta=beta)
        per_entry = np.array([[smoothed_phi(float(x), p) for x in r] for r in mat])
        got = robust_mean_columns(mat, p)
        assert np.array_equal(got, per_entry.mean(axis=0))

    def test_far_regime_bitwise_equal_to_one_at_a_time(self):
        s, beta = FAR_S, FAR_BETA
        row = mixed_far_row()
        p = RobustMeanParams(s=s, beta=beta)
        got = robust_mean_columns(row[None, :], p)
        bound = PHI_BOUND * s
        want = np.array([min(max(s * single_window_expectation(*kernel_args(x, s, beta)),
                                 -bound), bound) for x in row])
        assert np.array_equal(got, want)

    def test_far_regime_matches_quadrature(self):
        s, beta = FAR_S, FAR_BETA
        row = mixed_far_row()[::97]
        p = RobustMeanParams(s=s, beta=beta)
        got = robust_mean_columns(row[None, :], p)
        for x, v in zip(row, got):
            assert v == pytest.approx(oracle(float(x), s, beta), abs=1e-8), x

    def test_small_x_linearity(self):
        # for |x| << s the estimator is nearly the identity
        p = RobustMeanParams(s=100.0, beta=9.0)
        assert smoothed_phi(0.5, p) == pytest.approx(0.5, rel=1e-3)


def ndtr_port(x):
    """robust._ndtr of a copy of x, on scratch of its own."""
    x = np.array(x, dtype=float)
    return robust._ndtr(x, np.empty(2 * x.size))


def ulps_apart(got, want):
    """Units in the last place between nonnegative doubles."""
    return np.abs(got.view(np.int64) - want.view(np.int64))


MAXLOG = 7.09782712893383996843e2


class TestNdtr:
    """robust._ndtr, the kernel's normal CDF, against scipy's Cephes ndtr,
    whose operations it repeats, and against mpmath."""

    @staticmethod
    def edge_points():
        # each of Cephes's region edges |x| = 1, sqrt2, 8 sqrt2 and
        # sqrt(2 MAXLOG) with both neighbours, then zeros, subnormals and +-40
        edges = [np.nextafter(e, d) for e in (1.0, SQRT2, 8.0 * SQRT2, math.sqrt(2.0 * MAXLOG))
                 for d in (0.0, e, math.inf)]
        tiny = np.finfo(float).tiny
        points = edges + [0.0, 5e-324, 1e-310, tiny, 40.0]
        return np.array(points + [-p for p in points])

    def test_matches_scipy_on_dense_grid(self):
        x = np.concatenate([np.linspace(-40.0, 40.0, 2_000_001), self.edge_points()])
        got, want = ndtr_port(x), ndtr(x)
        saturated = (want == 0.0) | (want == 1.0)
        assert saturated.sum() > 800_000
        assert np.array_equal(got[saturated], want[saturated])
        normal = want >= np.finfo(float).tiny
        assert ulps_apart(got[normal], want[normal]).max() <= 4
        assert np.all(got[~normal] >= 0.0)  # -0.0 would read as far apart
        assert ulps_apart(got[~normal], want[~normal]).max() <= 4

    def test_bitwise_where_exp_agrees(self):
        # the port repeats Cephes's operations, so it differs from scipy only
        # through np.exp: below |x| = sqrt2 no exp is taken, and elsewhere
        # every value whose exp(-z^2) numpy and libm round alike is identical
        x = np.concatenate([np.linspace(-40.0, 40.0, 200_001), self.edge_points()])
        z = np.abs(x * math.sqrt(0.5))  # Cephes's SQRT1_2, not 1/SQRT2
        libm = np.array([math.exp(-(v * v)) for v in z.tolist()])
        same = (np.abs(x) < SQRT2) | (np.exp(-(z * z)) == libm)
        assert same.mean() > 0.95
        assert np.array_equal(ndtr_port(x[same]), ndtr(x[same]))

    def test_region_edges_and_signed_zero(self):
        x = self.edge_points()
        got = ndtr_port(x)
        assert ulps_apart(got, ndtr(x)).max() <= 4
        assert got[x == 0.0].tolist() == [0.5, 0.5]
        assert ndtr_port([40.0, -40.0]).tolist() == [1.0, 0.0]

    def test_matches_mpmath(self):
        # Cephes takes exp(-z^2) at the rounded z^2 = x^2/2, whose relative
        # error z^2 eps becomes that of the tail value
        g = RngStream(21).generator
        x = np.concatenate([g.uniform(-38.4, 40.0, 600), g.uniform(-3.0, 3.0, 200),
                            self.edge_points()])
        got = ndtr_port(x)
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            for xi, value in zip(x.tolist(), got.tolist()):
                exact = mpmath.ncdf(xi)
                if exact < np.finfo(float).tiny:
                    continue
                rel = abs((mpmath.mpf(value) - exact) / exact)
                assert rel <= (16.0 + 2.0 * xi * xi) * eps, xi

    def test_kernel_within_pow_tolerance_of_scipy_kernel(self, monkeypatch):
        # the same kernel with scipy's ndtr in place of the port, over the
        # gate test's entries, within the closed form's rounding tolerance
        ported = {key: robust._smoothed_phi_array(x, key[1], key[0])
                  for key, x in gate_entries().items()}
        monkeypatch.setattr(robust, "_ndtr", lambda x, floats: ndtr(x, out=x))
        eps = np.finfo(float).eps
        for (beta, s), x in gate_entries().items():
            want = robust._smoothed_phi_array(x, s, beta)
            a, b = kernel_args(x, s, beta)
            tol = s * 2.0 * eps * (1.0 + np.abs(a) ** 3 + b**3)
            assert np.all(np.abs(ported[beta, s] - want) <= tol), (beta, s)


def interleaved_regimes():
    """A (21, 20) matrix whose flat entries cycle through b == 0, near and far
    kinds with period 3, so that every kind sits on both sides of the block
    boundaries of any block size not divisible by 3."""
    s, beta = FAR_S, FAR_BETA
    zero = [0.0, 5e-324, -5e-324, -0.0]  # |x| / (s sqrt(beta)) underflows to 0
    near = np.concatenate([[1e-320, 5.0 * s, -10.0 * s, 0.3],
                           np.linspace(-9.9, 9.9, 136) * s])
    far = mixed_far_row()[::29]
    kinds = [zero, near, far]
    flat = [kinds[i % 3][(i // 3) % len(kinds[i % 3])] for i in range(420)]
    return np.array(flat).reshape(21, 20)


class TestKernelBlocks:
    P = RobustMeanParams(s=FAR_S, beta=FAR_BETA)

    def test_results_independent_of_block_size(self, monkeypatch):
        mat = interleaved_regimes()
        default = (robust._smoothed_phi_array(mat, FAR_S, FAR_BETA).tobytes(),
                   robust_mean_columns(mat, self.P).tobytes())
        for block in (1, 7, 64):
            monkeypatch.setattr(robust, "_BLOCK", block)
            got = (robust._smoothed_phi_array(mat, FAR_S, FAR_BETA).tobytes(),
                   robust_mean_columns(mat, self.P).tobytes())
            assert got == default, block
        per_entry = np.array([[smoothed_phi(float(x), self.P) for x in r] for r in mat])
        values = np.frombuffer(default[0]).reshape(mat.shape)
        assert np.array_equal(values, per_entry)
        # every third entry has b == 0 and keeps x, signed zeros included
        assert values.ravel()[::3].tobytes() == mat.ravel()[::3].tobytes()
        assert np.array_equal(np.frombuffer(default[1]), per_entry.mean(axis=0))

    @pytest.mark.parametrize("block", [1, 7, 64, 2**16])
    def test_column_means_are_numpys(self, monkeypatch, block):
        # the sums carried across blocks add the rows in .mean(axis=0)'s
        # order: row by row, a -0.0 column staying -0.0, and pairwise down
        # a single column
        g = RngStream(14).generator
        monkeypatch.setattr(robust, "_BLOCK", block)
        for shape in ((1, 3), (2, 3), (3, 3), (200, 1), (57, 2), (70, 5), (300, 20)):
            mat = g.standard_t(3, shape) * 4.0
            mat[:, -1] = -0.0
            want = robust._smoothed_phi_array(mat, FAR_S, FAR_BETA).mean(axis=0)
            got = robust_mean_columns(mat, self.P)
            assert got.tobytes() == want.tobytes(), shape

    def test_results_do_not_alias_scratch(self):
        g = RngStream(11).generator
        first, second = (g.standard_t(3, (700, 100)) * 4.0 for _ in range(2))
        cols = robust_mean_columns(first, self.P)
        values = robust._smoothed_phi_array(first, FAR_S, FAR_BETA)
        local = local_dp_mean(first[:, 0], 4.0, 1.0, 1e-5, 0.05, RngStream(5))
        kept = cols.copy(), values.copy()
        robust_mean_columns(second, self.P)
        robust._smoothed_phi_array(second, FAR_S, FAR_BETA)
        local_dp_mean(second[:, 0], 4.0, 1.0, 1e-5, 0.05, RngStream(5))
        assert cols.tobytes() == kept[0].tobytes()
        assert values.tobytes() == kept[1].tobytes()
        assert local == local_dp_mean(first[:, 0], 4.0, 1.0, 1e-5, 0.05, RngStream(5))

    def test_concurrent_calls_match_serial(self):
        g = RngStream(12).generator
        matrices = [g.standard_t(3, (1500, 50)) * 4.0 for _ in range(4)]
        serial = [robust_mean_columns(m, self.P).tobytes() for m in matrices]
        start = threading.Barrier(len(matrices))
        got = [[] for _ in matrices]

        def worker(k):
            start.wait()
            for _ in range(5):
                got[k].append(robust_mean_columns(matrices[k], self.P).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(matrices))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[want] * 5 for want in serial]

    @pytest.mark.skipif(sys.platform != "linux", reason="RUSAGE_THREAD is Linux-only")
    def test_repeated_calls_do_not_fault(self):
        import resource

        matrix = RngStream(13).generator.standard_normal((5000, 50)) * 3.0
        p = RobustMeanParams(s=6.1, beta=2.6)
        # two warm-up calls: the second is the first whose scratch rows come
        # from the heap, and it faults their pages in once
        for _ in range(2):
            robust_mean_columns(matrix, p)
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        for _ in range(10):
            robust_mean_columns(matrix, p)
        faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
        # 1 fault in each of 10 fresh processes; room left for a stray one
        assert faults < 100


class TestRobustMean:
    def test_rejects_empty_and_nonfinite(self):
        p = RobustMeanParams(s=1.0, beta=1.0)
        with pytest.raises(DomainError):
            robust_mean(np.array([]), p)
        with pytest.raises(DomainError):
            robust_mean(np.array([1.0, float("nan")]), p)

    def test_near_identity_on_small_data(self):
        p = RobustMeanParams(s=1000.0, beta=16.0)
        xs = np.array([1.0, 2.0, 3.0])
        assert robust_mean(xs, p) == pytest.approx(2.0, rel=1e-4)

    def test_outlier_influence_is_bounded(self):
        p = RobustMeanParams(s=5.0, beta=9.0)
        xs = np.ones(100)
        ys = xs.copy()
        ys[0] = 1e9
        shift = abs(robust_mean(ys, p) - robust_mean(xs, p))
        assert shift <= 2 * PHI_BOUND * p.s / 100 + 1e-12

    def test_columns_matches_per_column(self):
        p = RobustMeanParams(s=3.0, beta=4.0)
        mat = RngStream(4).generator.standard_normal((40, 3)) * 2.0
        cols = robust_mean_columns(mat, p)
        for j in range(3):
            assert cols[j] == pytest.approx(robust_mean(mat[:, j], p), abs=1e-14)

    @given(st.integers(min_value=1, max_value=2**63 - 1))
    @settings(max_examples=60, deadline=None)
    def test_sensitivity_bound_random_swaps(self, seed):
        # one changed sample moves the release by at most (4 sqrt 2 / 3) s / n
        g = RngStream(seed % 2**64).generator
        n = 30
        p = RobustMeanParams(s=float(10 ** g.uniform(-1, 2)),
                             beta=float(10 ** g.uniform(-1, 2)))
        xs = g.standard_t(3, n) * 10 ** g.uniform(-2, 4)
        ys = xs.copy()
        ys[int(g.integers(n))] = g.standard_t(3) * 10 ** g.uniform(-2, 8)
        diff = abs(robust_mean(xs, p) - robust_mean(ys, p))
        assert diff <= (4 * SQRT2 / 3) * p.s / n * (1 + 1e-12)


class TestParamSchedules:
    def test_nonprivate_formulas(self):
        p = select_params_nonprivate(10000, 4.0, 0.05)
        log_term = math.log(1 / 0.05)
        assert p.beta == pytest.approx(2 * log_term)
        assert p.s == pytest.approx(math.sqrt(10000 * 4.0 / (2 * log_term)))
        assert p.sigma == 0.0

    def test_central_formulas(self):
        n, tau, eps, delta, zeta = 2000, 4.0, 1.0, 1e-5, 0.05
        p = select_params_central(n, tau, eps, delta, zeta)
        assert p.beta == pytest.approx(math.sqrt(math.log(1 / zeta)))
        want_s = math.sqrt(n * eps * tau) / (
            math.log(1 / zeta) * math.log(1 / delta) ** 0.25)
        assert p.s == pytest.approx(want_s)
        sens = (4 * SQRT2 / 3) * p.s / n
        assert p.sigma == pytest.approx(
            gaussian_sigma_for_zcdp(sens, make_budget(eps, delta).rho))

    def test_local_formulas(self):
        n, tau, eps, delta, zeta = 4000, 4.0, 1.0, 1e-5, 0.05
        p = select_params_local(n, tau, eps, delta, zeta)
        want_s = n ** 0.25 * math.sqrt(eps * tau) / (
            math.log(1 / zeta) * math.log(1 / delta) ** 0.25)
        assert p.s == pytest.approx(want_s)
        sens = (4 * SQRT2 / 3) * p.s  # per-user release, no 1/n
        assert p.sigma == pytest.approx(
            gaussian_sigma_for_zcdp(sens, make_budget(eps, delta).rho))

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            select_params_nonprivate(0, 1.0, 0.05)
        with pytest.raises(DomainError):
            select_params_central(100, 1.0, -1.0, 1e-5, 0.05)
        with pytest.raises(DomainError):
            select_params_local(100, 1.0, 1.0, 2.0, 0.05)


class TestDpMeans:
    def test_central_deterministic(self):
        xs = RngStream(1).generator.standard_t(3, 500) + 1.0
        a = central_dp_mean(xs, 4.0, 1.0, 1e-5, 0.05, RngStream(9))
        b = central_dp_mean(xs, 4.0, 1.0, 1e-5, 0.05, RngStream(9))
        assert a == b

    def test_central_is_robust_mean_plus_one_draw(self):
        xs = RngStream(3).generator.standard_t(3, 100) + 1.0
        p = select_params_central(100, 4.0, 1.0, 1e-5, 0.05)
        want = robust_mean(xs, p) + p.sigma * RngStream(8).generator.standard_normal()
        assert central_dp_mean(xs, 4.0, 1.0, 1e-5, 0.05, RngStream(8)) == want

    def test_local_is_mean_of_noised_releases(self):
        xs = RngStream(3).generator.standard_t(3, 100) + 1.0
        p = select_params_local(100, 4.0, 1.0, 1e-5, 0.05)
        releases = robust._smoothed_phi_array(xs, p.s, p.beta)
        noise = p.sigma * RngStream(8).generator.standard_normal(100)
        want = float(np.mean(releases + noise))
        assert local_dp_mean(xs, 4.0, 1.0, 1e-5, 0.05, RngStream(8)) == want

    @pytest.mark.parametrize("fn", [central_dp_mean, local_dp_mean])
    def test_one_sample_rejected(self, fn):
        with pytest.raises(DomainError):
            fn([1.0], 4.0, 1.0, 1e-5, 0.05, RngStream(0))

    def test_local_more_noise_than_central(self):
        xs = RngStream(2).generator.standard_t(3, 2000) + 1.0
        errs_c, errs_l = [], []
        for seed in range(30):
            root = RngStream(100 + seed)
            errs_c.append(abs(central_dp_mean(xs, 4.0, 1.0, 1e-5, 0.05,
                                              root.split(0)) - 1.0))
            errs_l.append(abs(local_dp_mean(xs, 4.0, 1.0, 1e-5, 0.05,
                                            root.split(1)) - 1.0))
        assert float(np.median(errs_l)) > float(np.median(errs_c))

    def test_local_deterministic(self):
        xs = RngStream(6).generator.standard_normal(200)
        a = local_dp_mean(xs, 4.0, 1.0, 1e-5, 0.05, RngStream(4))
        b = local_dp_mean(xs, 4.0, 1.0, 1e-5, 0.05, RngStream(4))
        assert a == b
