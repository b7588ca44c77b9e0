"""Robust mean estimation by smoothed soft truncation, plus its private forms.

The estimator soft-truncates each sample by phi(x) = x - x^3/6 on
[-sqrt(2), sqrt(2)], saturating at +-2*sqrt(2)/3 outside, smooths the
truncation with multiplicative Gaussian noise (closed form below), averages,
and for the private variants adds Gaussian noise, calibrated on the zCDP
scale of ``dpem.accounting``, either once to the mean (central model) or to
every per-user release (local model).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .accounting import gaussian_sigma_for_zcdp, make_budget
from .errors import DomainError
from .numeric import RngStream, sample_gaussian
from .validation import (
    check_count,
    check_finite_scalar,
    check_positive,
    check_probability,
    check_vector,
)

__all__ = [
    "PHI_BOUND",
    "RobustMeanParams",
    "smoothed_phi",
    "robust_mean",
    "robust_mean_columns",
    "RowSource",
    "select_params_nonprivate",
    "select_params_central",
    "select_params_local",
    "central_dp_mean",
    "local_dp_mean",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Saturation value of the soft truncation: phi(sqrt(2)) = 2*sqrt(2)/3.
PHI_BOUND = 2.0 * _SQRT2 / 3.0

# Beyond this the closed form loses ~b^3 * eps in float64; switch to the
# saturation + window evaluation, which has no cancellation there.
_CLOSED_FORM_LIMIT = 10.0

# Past |V| = 38.6 the normal CDF and pdf in C(a, b) underflow to exactly 0.0.
# V is clipped to +-_V_BOUND, which keeps V*V and V*E finite for subnormal b
# without changing a value; where the signed V- and V+ are both >= _V_BOUND,
# every term of C(a, b) is exactly 0.0.
#
# The closed form adds C(a, b) only where V = min(V-, V+) < V*(beta), a
# gate it tests on b (_correction_gate), and V*(beta) <= _V_BOUND.  Beyond
# V* the computed |C| is below |value| 2^-55, under ulp(value)/4, so
# value + C rounds back to value: skipping C changes no bit.  The bound:
# with Y = a + b xi and g(y) = (y - sqrt2)^2 (y + 2 sqrt2)/6 >= 0, phi(y)
# is y - y^3/6 + g(y) above sqrt2 and y - y^3/6 - g(-y) below -sqrt2, so
# C = E[g(Y) 1{Y > sqrt2}] - E[g(-Y) 1{Y < -sqrt2}], two nonnegative tails.
# With xi = V- + u the first is E[b^2 u^2 (3 sqrt2 + b u)/6; u > 0] <=
# pdf(V-) (sqrt2 b^2/V-^3 + b^3/V-^4), as pdf(V- + u) <= pdf(V-) e^{-V- u};
# the second is the same at V+.  The kernel has b = |a|/sqrt(beta), and
# V = (sqrt2 - |a|)/b gives b <= sqrt2/V and, for V >= sqrt3, |value| =
# |a| (1 - b^2/2 - a^2/6) >= (2/3)|a|.  So
#   |C|/|value| <= 3 pdf(V) (V^-4 + V^-6)/sqrt(beta).
# At V* each computed term of C is below 3e-12 |value|, so their rounding
# stays far inside a factor 2: V* is where twice the bound equals 2^-55.
_V_BOUND = 40.0


@functools.cache
def _correction_cutoff(beta: float) -> float:
    """V*(beta), the V >= sqrt3 past which twice the bound at _V_BOUND,
    6 pdf(V) (V^-4 + V^-6)/sqrt(beta), is below 2^-55, found by bisection
    and rounded up to a hundredth: the closed form skips C(a, b) where
    min(V-, V+) >= V*.  It is 7.85 at beta = 1, 7.61 at 50 and 28.21 at
    beta = 5e-324."""
    log_target = math.log(2.0**-55 / 6.0 * math.sqrt(2.0 * math.pi)) + 0.5 * math.log(beta)
    lo, hi = math.sqrt(3.0), _V_BOUND
    while lo < (mid := (lo + hi) / 2.0) < hi:
        above = math.log(mid**-4 + mid**-6) - mid * mid / 2.0 > log_target
        lo, hi = (mid, hi) if above else (lo, mid)
    return math.ceil(hi * 100.0) / 100.0


# The normal CDF is Cephes ndtr, erf and erfc, with their coefficients from
# W. J. Cody, "Rational Chebyshev approximations for the error function",
# Math. Comp. 23 (1969).  With z = |x|/sqrt2, Phi(x) = 1/2 + erf(x/sqrt2)/2
# for z < 1/sqrt2; otherwise h = erfc(z)/2, and Phi(x) = 1 - h for x > 0, h
# else.  erfc(z) = 1 - erf(z) for z < 1, exp(-z^2) P(z)/Q(z) for z < 8,
# exp(-z^2) R(z)/S(z) while z^2 <= MAXLOG, and 0 beyond; erf(z) =
# z T(z^2)/U(z^2).  Coefficients run from the highest power down; Q, S and U
# are monic.
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = math.sqrt(0.5)


def _polynomial(z, coefficients, out):
    """The polynomial at z by Horner's rule into out, as Cephes polevl does
    (p1evl for a leading 1, since 1 z = z)."""
    np.multiply(z, coefficients[0], out=out)
    for c in coefficients[1:-1]:
        out += c
        out *= z
    out += coefficients[-1]
    return out


def _ndtr(x, floats):
    """Phi(x) of the 1-d x, written over x, on 2 x.size entries of floats.
    Every step is Cephes ndtr's, so each value is scipy's wherever np.exp
    rounds as libm's exp does; elsewhere they were at most 4 ulp apart on a
    dense grid over [-40, 40].  The [1, 8) form runs on all of x, and the
    entries outside it are evaluated again on their own; the z >= 8 form
    serves the far regime and corrections at beta > 3.1 only (below, V+ <
    V* + 2 sqrt(beta) < 8 sqrt2).  Finite |x| <= _V_BOUND raises no
    floating-point warning; at larger |x| the values stay right."""
    n = x.size
    z, poly = floats[: 2 * n].reshape(2, n)
    np.abs(np.multiply(x, _SQRT1_2, out=z), out=z)
    upper = x > 0.0
    h = np.exp(np.negative(np.multiply(z, z, out=x), out=x), out=x)
    h *= _polynomial(z, _P, poly)
    h /= _polynomial(z, _Q, poly)
    # With c = [x > 0] and half = 1/2 - c, Phi = c + half erfc(z): a product
    # by -+1/2 is exact, so this is 1 - erfc(z)/2 or erfc(z)/2 to the bit.
    half = np.subtract(0.5, upper, out=poly)
    h *= half
    tail = np.flatnonzero(z >= 8.0)
    if tail.size:
        zt = z[tail]
        square = zt * zt
        erfc = (np.exp(-square) * _polynomial(zt, _R, np.empty(tail.size))
                / _polynomial(zt, _S, np.empty(tail.size)))
        erfc[square > _MAXLOG] = 0.0
        h[tail] = half[tail] * erfc
    centre = np.flatnonzero(z < 1.0)
    if centre.size:
        zc = z[centre]
        square = zc * zc
        erf = (zc * _polynomial(square, _T, np.empty(centre.size))
               / _polynomial(square, _U, np.empty(centre.size)))
        h[centre] = half[centre] * (1.0 - erf)
    h += upper
    if centre.size:
        # Phi = 1/2 + erf(x/sqrt2)/2, where erf(x/sqrt2)/2 = -half erf(z)
        inner = zc < _SQRT1_2
        if inner.any():
            inner_idx = centre[inner]
            h[inner_idx] = 0.5 - half[inner_idx] * erf[inner]
    return h


# 32-point Gauss-Legendre panels, <= 0.25 std wide, resolve the window
# integrand (cubic times normal pdf) to machine precision.
_GL_POINTS = 32
_PANEL_WIDTH = 0.25


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The rule's nodes and weights, computed on the first far-regime entry,
    so a process that meets none never loads numpy.polynomial."""
    return np.polynomial.legendre.leggauss(_GL_POINTS)

# Far-regime entries are integrated in chunks of at most this many
# quadrature nodes, which bounds the temporaries however many entries are far.
_WINDOW_CHUNK_NODES = 1 << 16

# The kernel evaluates this many flat entries at a time, float intermediates
# in scratch rows that each call allocates once and reuses for all its blocks.
# Whole-array n*d temporaries make glibc return their pages to the OS and
# fault them in again on the next call; blocks of 2**16 fault no more.  Of
# 2**12 to 2**18, 2**15 and 2**16 were the fastest on a gmm dpem fit's
# 5000x50 calls (2-core Xeon, 2 MiB L2 per core): smaller blocks pay numpy's
# per-call cost (+36 % at 2**14) and larger ones spill the cache (+8 % at
# 2**17, +12 % at 2**18), and each numpy call stays long enough for two pool
# threads to overlap.  robust_mean_columns takes its rows in blocks of about
# this many entries, so a call holds the scratch, one block of values and
# one block of results, however many rows it reads; nothing is held once it
# returns.  A block of n entries lays its rows end to end on the first
# _FLOAT_ROWS * n floats, so that any run of them is one contiguous array.
_BLOCK = 1 << 16
_FLOAT_ROWS = 15  # a and b, then _closed_form's 13


@dataclass(frozen=True)
class RobustMeanParams:
    """Estimator parameters: truncation scale s, smoothing concentration beta
    (multiplicative noise is N(0, 1/beta)), and Gaussian noise std sigma (0
    for non-private use)."""

    s: float
    beta: float
    sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "s", check_positive("s", self.s))
        object.__setattr__(self, "beta", check_positive("beta", self.beta))
        object.__setattr__(self, "sigma", check_positive("sigma", self.sigma, allow_zero=True))


def _v_pair(a, b, v_minus=None, v_plus=None):
    """Signed standardized distances V- = (sqrt2 - a)/b, V+ = (sqrt2 + a)/b
    from the mean a to the truncation knots, for b > 0 (inf for subnormal b),
    into new arrays or into v_minus and v_plus."""
    with np.errstate(over="ignore", divide="ignore"):
        v_minus = np.divide(np.subtract(_SQRT2, a, out=v_minus), b, out=v_minus)
        v_plus = np.divide(np.add(_SQRT2, a, out=v_plus), b, out=v_plus)
    return v_minus, v_plus


def _correction_vec(a, a2, cubic, b, b2, v, floats):
    """C(a, b) elementwise over k entries, from a^2, a^3/6, b^2 and the
    unclipped V- and V+ stacked in v (2, k), on 6 k entries of floats; the
    result is b's array, and every input is overwritten.  Each term is the
    same sequence of operations as C(a, b) written out (products in either
    order), so it carries the same bits."""
    k = a.size
    f, vv, e = floats[: 6 * k].reshape(3, 2, k)
    np.clip(v, -_V_BOUND, _V_BOUND, out=v)
    # each term's factor before its F or E part: t2's -(a - cubic) in cubic,
    # t4's a b2/2 in a, t5's (b2 b/6) _INV_SQRT_2PI in b2 and t3's
    # (b _INV_SQRT_2PI) (1 - a2/2) in a2
    np.negative(np.subtract(a, cubic, out=cubic), out=cubic)
    np.divide(np.multiply(a, b2, out=a), 2.0, out=a)
    np.divide(np.multiply(b2, b, out=b2), 6.0, out=b2)
    b2 *= _INV_SQRT_2PI
    np.subtract(1.0, np.divide(a2, 2.0, out=a2), out=a2)
    a2 *= np.multiply(b, _INV_SQRT_2PI, out=b)
    # F- = Phi(-V-) and F+ = Phi(-V+) in one call, whose scratch vv and e reuse
    flat = np.negative(v, out=f).reshape(-1)
    _ndtr(flat, floats[2 * k : 6 * k])
    np.multiply(v, v, out=vv)
    np.exp(np.multiply(-0.5, vv, out=e), out=e)
    # t1 = PHI_BOUND * (f_minus - f_plus)
    total = np.multiply(PHI_BOUND, np.subtract(f[0], f[1], out=b), out=b)
    # f_minus + f_plus, which is also t4's f_plus + f_minus: addition commutes
    f_sum, spare = np.add(f[0], f[1], out=f[0]), f[1]
    total += np.multiply(cubic, f_sum, out=cubic)
    # t3's factor times (e_plus - e_minus)
    a2 *= np.subtract(e[1], e[0], out=spare)
    total += a2
    # t4's factor times (f_plus + f_minus
    #                    + _INV_SQRT_2PI * (v_plus * e_plus + v_minus * e_minus))
    np.multiply(v, e, out=v)
    inner = np.add(v[1], v[0], out=spare)
    inner *= _INV_SQRT_2PI
    a *= np.add(f_sum, inner, out=f_sum)
    total += a
    # t5's factor times ((2.0 + vm2) * e_minus - (2.0 + vp2) * e_plus)
    np.add(2.0, vv, out=vv)
    vv *= e
    b2 *= np.subtract(vv[0], vv[1], out=spare)
    total += b2
    return total


def _powers(a, b, a2, cubic, b2):
    """a^2, a^3/6 and b^2 into a2, cubic and b2."""
    np.multiply(a, a, out=a2)
    np.divide(np.multiply(a2, a, out=cubic), 6.0, out=cubic)
    np.multiply(b, b, out=b2)


def _correction_gate(beta: float) -> float:
    """The b above which the closed form adds C(a, b).  With the kernel's
    b = |a|/sqrt(beta), min(V-, V+) = sqrt2/b - sqrt(beta), so min(V-, V+) <
    V*(beta) is b > sqrt2/(V* + sqrt(beta)).  The margin 1e-6 covers the
    rounding of the computed V; the few entries it adds lie past V*, where
    |C| <= 3 pdf(V) (V^-4 + V^-6)/sqrt(beta) |value| rounds away."""
    return _SQRT2 / (_correction_cutoff(beta) + math.sqrt(beta)) * (1.0 - 1e-6)


def _closed_form(a, b, value, floats, b_cut):
    """Write E phi(a + b*xi) = (a(1 - b^2/2) - a^3/6) + C(a, b) into value,
    over 1-d arrays of n entries, for 0 < b and |a|, b <= _CLOSED_FORM_LIMIT,
    on 13 n entries of floats.  C is added only where b > b_cut =
    _correction_gate(beta), which holds wherever V = min(V-, V+) < V*(beta);
    beyond V* |C| <= 3 pdf(V) (V^-4 + V^-6) |value|/sqrt(beta) < ulp(value)/4
    (_V_BOUND), so every value is bit-identical to adding C everywhere."""
    n = a.size
    a2, cubic, b2 = floats[: 3 * n].reshape(3, n)
    _powers(a, b, a2, cubic, b2)
    # value = a * (1.0 - b2 / 2.0) - cubic
    np.subtract(1.0, np.divide(b2, 2.0, out=value), out=value)
    np.subtract(np.multiply(a, value, out=value), cubic, out=value)
    idx = np.flatnonzero(b > b_cut)  # integer gathers are ~6x faster than boolean ones
    k = idx.size
    if k:
        # The correction works on the first 6 k floats and its terms follow;
        # a^2, a^3/6 and b^2 are taken again from the gathered a and b, which
        # touches fewer pages, and V- and V+ are computed on them alone.
        terms = floats[6 * k : 13 * k].reshape(7, k)
        # mode="clip" keeps take from buffering its output; idx is in range
        np.take(a, idx, out=terms[0], mode="clip")
        np.take(b, idx, out=terms[3], mode="clip")
        _powers(terms[0], terms[3], terms[1], terms[2], terms[4])
        _v_pair(terms[0], terms[3], terms[5], terms[6])
        correction = _correction_vec(*terms[:5], terms[5:], floats[: 6 * k])
        # value[idx] += correction
        current = np.take(value, idx, out=terms[0], mode="clip")
        value[idx] = np.add(current, correction, out=current)


def _window_expectation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """E phi(a + b*xi), xi ~ N(0,1), over 1-d arrays, as saturated-tail mass plus
    the integral over the window where |a + b*xi| <= sqrt(2).  No
    large-argument cancellation, unlike the closed form."""
    v_minus, v_plus = _v_pair(a, b)
    # Phi(v-) and Phi(-v+) in one call; v clipped to +-_V_BOUND, where Phi is
    # already exactly 0 or 1, keeps _ndtr's intermediates finite
    tails = np.clip(np.concatenate([v_minus, -v_plus]), -_V_BOUND, _V_BOUND)
    _ndtr(tails, np.empty(2 * tails.size))
    out = PHI_BOUND * ((1.0 - tails[: a.size]) - tails[a.size :])
    lo = np.maximum(-v_plus, -39.0)
    hi = np.minimum(v_minus, 39.0)
    windowed = np.flatnonzero(hi > lo)
    widths = hi[windowed] - lo[windowed]
    n_panels = np.maximum(1, np.ceil(widths / _PANEL_WIDTH)).astype(np.int64)
    # Entries sharing a panel count share the array shapes of a one-at-a-time
    # evaluation, so each value comes out bit-identical to it.
    order = np.argsort(n_panels, kind="stable")
    sorted_panels = n_panels[order]
    starts = np.flatnonzero(np.diff(sorted_panels, prepend=0))
    for start, group in zip(starts, np.split(windowed[order], starts[1:])):
        panels = int(sorted_panels[start])
        rows = max(1, _WINDOW_CHUNK_NODES // (panels * _GL_POINTS))
        for k in range(0, group.size, rows):
            idx = group[k : k + rows]
            out[idx] += _window_integral(a[idx], b[idx], lo[idx], hi[idx], panels)
    return out


def _window_integral(a, b, lo, hi, panels: int) -> np.ndarray:
    """Integral of phi(a + b*u) * pdf(u) over [lo, hi], one row per entry,
    by `panels` equal Gauss-Legendre panels."""
    nodes, weights = _gauss_legendre()
    edges = np.linspace(lo, hi, panels + 1, axis=-1)
    mid = (edges[:, :-1] + edges[:, 1:]) / 2.0
    half = (edges[:, 1:] - edges[:, :-1]) / 2.0
    u = mid[:, :, None] + half[:, :, None] * nodes
    z = a[:, None, None] + b[:, None, None] * u
    pdf = np.exp(-0.5 * u * u) * _INV_SQRT_2PI
    # the cube as a product: z**3 is a libm pow call per node, ~80x slower
    panel_sums = np.einsum("ijk,k->ij", (z - z * z * z / 6.0) * pdf, weights)
    return np.sum(half * panel_sums, axis=-1)


def _smoothed_phi_array(x: np.ndarray, s: float, beta: float) -> np.ndarray:
    """Vectorized smoothed truncation; x any shape, finite.  The result is a
    new array, filled _BLOCK entries at a time on scratch rows of this call."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    floats = np.empty(_FLOAT_ROWS * min(x.size, _BLOCK))
    _smoothed_phi_into(x.ravel(), s, beta, out.reshape(-1), floats)
    return out


def _smoothed_phi_into(flat: np.ndarray, s: float, beta: float, out: np.ndarray,
                       floats: np.ndarray) -> None:
    """The smoothed truncation of the 1-d flat into out, _BLOCK entries at a
    time on floats, which holds _FLOAT_ROWS min(flat.size, _BLOCK) or more."""
    scale = s * math.sqrt(beta)
    b_cut = _correction_gate(beta)
    for start in range(0, flat.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        _smoothed_phi_block(flat[block], s, scale, b_cut, out[block], floats)


def _smoothed_phi_block(x: np.ndarray, s: float, scale: float, b_cut: float,
                        out: np.ndarray, floats: np.ndarray) -> None:
    """The smoothed truncation of the 1-d block x at truncation scale s,
    with scale = s sqrt(beta) and b_cut = _correction_gate(beta), written
    into out on the first _FLOAT_ROWS x.size floats."""
    n = x.size
    a, b = floats[: 2 * n].reshape(2, n)
    np.divide(x, s, out=a)
    magnitude = np.abs(x, out=b)
    smallest, largest = float(magnitude.min()), float(magnitude.max())
    with np.errstate(over="ignore"):
        np.divide(magnitude, scale, out=b)
    # The closed form runs on the whole block; outside its domain (far
    # entries, or no positive b) it may overflow, and the fix-ups replace it.
    with np.errstate(over="ignore", invalid="ignore"):
        _closed_form(a, b, out, floats[2 * n : _FLOAT_ROWS * n], b_cut)
    np.multiply(s, out, out=out)
    # Correctly rounded division is monotone, so these quotients are exactly
    # the block's max |a|, max b and min b: each fix-up runs only on a block
    # that may hold its entries.  scale underflows to 0.0 for a tiny s and
    # beta, which makes b = inf, or 0/0 = nan at x = +-0.
    limit = _CLOSED_FORM_LIMIT
    if scale == 0.0 or largest / s > limit or largest / scale > limit:
        far = np.flatnonzero((np.abs(a) > limit) | (b > limit))
        if far.size:
            out[far] = s * _window_expectation(a[far], b[far])
    if not (scale > 0.0 and smallest / scale > 0.0):
        # b == 0 where |x| << s sqrt(beta) underflows it (the value is ~x),
        # and b is nan where scale == 0.0 (the value is +0.0)
        zero = np.flatnonzero(~(b > 0.0))
        out[zero] = x[zero] if scale > 0.0 else 0.0
    bound = PHI_BOUND * s
    np.clip(out, -bound, bound, out=out)


def smoothed_phi(x: float, p: RobustMeanParams) -> float:
    """Per-sample smoothed truncation s * E phi(x(1 + eta)/s) with
    eta ~ N(0, 1/beta).  Odd in x, zero at zero, |value| <= (2*sqrt(2)/3) s.
    """
    x = check_finite_scalar("x", x)
    if x == 0.0:
        return 0.0
    return float(_smoothed_phi_array(np.asarray(x), p.s, p.beta))


def robust_mean(xs, p: RobustMeanParams) -> float:
    """Average of per-sample smoothed truncations; deterministic."""
    return float(np.mean(_smoothed_phi_array(check_vector("xs", xs), p.s, p.beta)))


class RowSource:
    """An (n, d) matrix made a block of rows at a time: source[i:j] computes
    rows i..j-1 as a C-ordered float array, which the source has checked
    finite.  robust_mean_columns takes the rows a block at a time and holds
    one block at once; np.asarray builds the whole matrix."""

    def __init__(self, shape: tuple, rows: Callable[[slice], np.ndarray]):
        self.shape, self._rows = shape, rows

    def __getitem__(self, part: slice) -> np.ndarray:
        return self._rows(part)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self[0 : self.shape[0]], dtype=dtype)


def robust_mean_columns(matrix, p: RobustMeanParams) -> np.ndarray:
    """Per-column robust mean of an (n, d) value matrix or RowSource.

    The rows go through the kernel a block of about _BLOCK entries at a
    time, into one reused buffer whose first row holds the sum of the rows
    before the block.  numpy sums axis 0 of a C-ordered array row by row, in
    order, so reducing that buffer carries .mean(axis=0)'s sum bit for bit.
    At d = 1 the column is contiguous and numpy sums it pairwise instead, so
    it is one block."""
    if not isinstance(matrix, RowSource):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.size == 0:
            raise DomainError(f"matrix must be a nonempty (n, d) array, got shape {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            raise DomainError("matrix must have finite entries")
    n, d = matrix.shape
    rows = n if d == 1 else min(n, max(1, _BLOCK // d))
    values = np.empty((rows + 1, d))
    total = np.empty(d)
    floats = np.empty(_FLOAT_ROWS * min(rows * d, _BLOCK))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        k = stop - start
        _smoothed_phi_into(matrix[start:stop].reshape(-1), p.s, p.beta,
                           values[1 : k + 1].reshape(-1), floats)
        # the first block's sum starts at its first row, as numpy's does
        np.add.reduce(values[1 if start == 0 else 0 : k + 1], axis=0, out=total)
        values[0] = total
    return total / n


def select_params_nonprivate(n: int, tau: float, zeta: float) -> RobustMeanParams:
    """Non-private schedule: beta = 2 log(1/zeta), s = sqrt(n tau / (2 log(1/zeta)))."""
    n = check_count("n", n, minimum=2)
    tau = check_positive("tau", tau)
    zeta = check_probability("zeta", zeta)
    log_term = math.log(1.0 / zeta)
    return RobustMeanParams(
        s=math.sqrt(n * tau / (2.0 * log_term)),
        beta=2.0 * log_term,
        sigma=0.0,
    )


def _private_params(n, tau, eps, delta, zeta, scale) -> RobustMeanParams:
    """The private schedules' shared part: beta = sqrt(log(1/zeta)),
    s = numerator / (log(1/zeta) log^(1/4)(1/delta)) and sigma calibrated
    by the zCDP Gaussian mechanism at the budget's rho, valid for every
    eps > 0, to one release's sensitivity (4 sqrt(2)/3) s / divisor, where
    scale(n, eps, tau) gives (numerator, divisor)."""
    n = check_count("n", n, minimum=2)
    tau = check_positive("tau", tau)
    eps = check_positive("eps", eps)
    delta = check_probability("delta", delta)
    zeta = check_probability("zeta", zeta)
    log_zeta = math.log(1.0 / zeta)
    log_delta = math.log(1.0 / delta)
    numerator, divisor = scale(n, eps, tau)
    s = numerator / (log_zeta * log_delta**0.25)
    sensitivity = (2.0 * PHI_BOUND) * s / divisor
    return RobustMeanParams(
        s=s,
        beta=math.sqrt(log_zeta),
        sigma=gaussian_sigma_for_zcdp(sensitivity, make_budget(eps, delta).rho),
    )


def select_params_central(
    n: int, tau: float, eps: float, delta: float, zeta: float
) -> RobustMeanParams:
    """Central-model schedule: beta = sqrt(log(1/zeta)),
    s = sqrt(n eps tau) / (log(1/zeta) log^(1/4)(1/delta)), and sigma
    calibrated to the mean's sensitivity (4 sqrt(2)/3) s / n."""
    return _private_params(n, tau, eps, delta, zeta,
                           lambda n, eps, tau: (math.sqrt(n * eps * tau), n))


def select_params_local(
    n: int, tau: float, eps: float, delta: float, zeta: float
) -> RobustMeanParams:
    """Local-model schedule: s = n^(1/4) sqrt(eps tau) / (log(1/zeta)
    log^(1/4)(1/delta)); sigma is per user, calibrated as in the central
    schedule to one release's sensitivity (4 sqrt(2)/3) s, hence
    independent of n."""
    return _private_params(n, tau, eps, delta, zeta,
                           lambda n, eps, tau: (n**0.25 * math.sqrt(eps * tau), 1))


def central_dp_mean(xs, tau: float, eps: float, delta: float, zeta: float,
                    rng: RngStream) -> float:
    """Robust mean of the n = len(xs) samples plus one draw of N(0, sigma^2)
    calibrated to the mean's sensitivity."""
    xs = check_vector("xs", xs)
    p = select_params_central(xs.size, tau, eps, delta, zeta)
    return robust_mean(xs, p) + sample_gaussian(rng, 0.0, p.sigma)


def local_dp_mean(xs, tau: float, eps: float, delta: float, zeta: float,
                  rng: RngStream) -> float:
    """Each of the n = len(xs) users releases their smoothed truncation plus
    N(0, sigma^2); the output is the average of the n releases."""
    xs = check_vector("xs", xs)
    p = select_params_local(xs.size, tau, eps, delta, zeta)
    releases = _smoothed_phi_array(xs, p.s, p.beta)
    return float(np.mean(releases + p.sigma * rng.generator.standard_normal(xs.size)))
