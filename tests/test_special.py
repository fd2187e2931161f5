import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyexciton.special import (
    DAWSON_STABILITY_RADIUS,
    _epstein_sin,
    _upper_gamma,
    dawson,
    gamma_fn,
    lambert_w_m1,
    polylog_circle,
    riemann_zeta,
)

# ---------------------------------------------------------------- oracles


def zeta_series_oracle(s: float, terms: int = 1_000_000) -> float:
    """Direct series plus Euler-Maclaurin tail through the n^-s-2 term."""
    k = np.arange(1, terms, dtype=float)
    head = float(np.sum(k**-s))
    n = float(terms)
    tail = n ** (1 - s) / (s - 1) + 0.5 * n**-s + s * n ** (-s - 1) / 12.0
    return head + tail


def lambert_bisection_oracle(y: float) -> float:
    """Bisection for the w <= -1 root of w e^w = y.

    w e^w decreases on (-inf, -1], so f = w e^w - y is positive left of the
    root and negative right of it.
    """
    f = lambda w: w * math.exp(w) - y
    lo, hi = -800.0, -1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dawson_quadrature_oracle(z: complex, n: int = 400) -> complex:
    """Gauss-Legendre quadrature of e^{-z^2} int_0^z e^{u^2} du on the segment."""
    x, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (x + 1) * z
    return np.exp(-z * z) * complex(np.sum(w * np.exp(u * u))) * z * 0.5


def dawson_series_oracle(x: float) -> float:
    """Real-axis Taylor series, valid for moderate |x|."""
    term = x
    total = x
    for n in range(1, 300):
        term *= -2.0 * x * x / (2 * n + 1)
        total += term
        if abs(term) < 1e-20:
            break
    return total


# ---------------------------------------------------------------- zeta


class TestZeta:
    def test_basel(self):
        assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6, abs=1e-12)

    def test_zeta4(self):
        assert riemann_zeta(4.0) == pytest.approx(math.pi**4 / 90, abs=1e-12)

    def test_zeta3_vs_series_oracle(self):
        assert riemann_zeta(3.0) == pytest.approx(zeta_series_oracle(3.0), abs=1e-12)

    @pytest.mark.parametrize("s", [1.1, 1.5, 2.5, 3.7, 6.0, 12.0, 30.0, 80.0])
    def test_generic_values_vs_oracle(self, s):
        assert riemann_zeta(s) == pytest.approx(zeta_series_oracle(s), abs=1e-12)

    def test_monotone_decreasing_to_one(self):
        grid = [1.5, 2.0, 3.0, 5.0, 10.0, 25.0, 60.0]
        vals = [riemann_zeta(s) for s in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            riemann_zeta(1.0)
        with pytest.raises(ValueError):
            riemann_zeta(0.5)

    def test_internal_continuation(self):
        # the d = 1 small-q expansion calls scipy's zeta below s = 1; check it
        # against the functional equation at -1/2
        from scipy.special import zeta

        lhs = float(zeta(-0.5))
        rhs = (
            2.0**-0.5
            * math.pi**-1.5
            * math.sin(-math.pi / 4)
            * gamma_fn(1.5)
            * riemann_zeta(1.5)
        )
        assert lhs == pytest.approx(rhs, rel=1e-13)
        assert float(zeta(0.0)) == -0.5


# ---------------------------------------------------------------- polylog


class TestPolylogCircle:
    def test_at_one(self):
        assert polylog_circle(2.0, 0.0) == pytest.approx(math.pi**2 / 6, abs=1e-12)

    def test_at_minus_one(self):
        val = polylog_circle(2.0, math.pi)
        assert val.real == pytest.approx(-math.pi**2 / 12, abs=1e-10)
        assert val.imag == pytest.approx(0.0, abs=1e-10)

    def test_order_one_closed_form(self):
        # Li_1(e^{iq}) = -log(2 sin(q/2)) + i (pi - q)/2
        val = polylog_circle(1.0, math.pi / 2)
        assert val.real == pytest.approx(-0.5 * math.log(2.0), abs=1e-10)
        assert val.imag == pytest.approx(math.pi / 4, abs=1e-10)

    def test_divergence_refused(self):
        with pytest.raises(ValueError):
            polylog_circle(1.0, 0.0)
        with pytest.raises(ValueError):
            polylog_circle(0.5, 0.0)

    @pytest.mark.parametrize("beta", [0.7, 1.0, 1.4, 2.0, 2.5, 3.0, 4.0, 6.2])
    @pytest.mark.parametrize("q", [0.01, 0.2, 0.499, 0.501, 1.0, 2.2, 3.14159])
    def test_values_vs_mpmath_oracle(self, beta, q):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        ref = complex(mpmath.polylog(beta, mpmath.exp(1j * q)))
        assert polylog_circle(beta, q) == pytest.approx(ref, abs=1e-10)

    def test_conjugate_symmetry(self):
        a = polylog_circle(2.3, 0.7)
        b = polylog_circle(2.3, -0.7)
        assert b == pytest.approx(a.conjugate(), abs=1e-12)

    def test_branch_seam_consistency(self):
        # values on the two sides of q = 0.5 must join up
        for beta in (1.0, 1.5, 2.0, 3.3):
            lo = polylog_circle(beta, 0.4999999)
            hi = polylog_circle(beta, 0.5000001)
            assert abs(hi - lo) < 1e-5
            mid_small = polylog_circle(beta, 0.49)
            mid_abel = polylog_circle(beta, 0.51)
            assert abs(mid_small - mid_abel) < 0.2  # smooth continuation, coarse guard

    @pytest.mark.parametrize("beta", [0.7, 1.0, 1.4, 2.0, 2.5, 3.0, 4.0, 6.2])
    @pytest.mark.parametrize("q", [1e-6, 1e-3, -2.0, 0.3, 1.0, 2.5, math.pi])
    def test_sine_sum_vs_mpmath(self, beta, q):
        # beta = 6.2 steps Gamma(a, x) down from a = 0.4 to a = -2.6
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = float(2 * mpmath.im(mpmath.polylog(beta, mpmath.exp(1j * mpmath.mpf(q)))))
        assert _epstein_sin(beta, q) == pytest.approx(ref, abs=1e-12)

    def test_order_one_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for q in (1e-6, 0.3, -1.0, math.pi):
                sawtooth = math.copysign(math.pi - abs(q), q) / 2  # Im Li_1(e^{iq})
                assert polylog_circle(1.0, q).imag == pytest.approx(sawtooth, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.01, 1.05, 1.5, 2.0, 3.0])
    def test_tiny_q_is_not_rounded_to_zero(self, beta):
        # a q inside (-pi, pi] is used as given: reducing 1e-170 mod 2 pi
        # rounds it to 0 and loses the imaginary part, 5e-9 at beta = 1.05
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = complex(mpmath.polylog(beta, mpmath.exp(1j * mpmath.mpf(1e-170))))
        got = polylog_circle(beta, 1e-170)
        assert got.imag == pytest.approx(ref.imag, rel=1e-12, abs=1e-12)  # Im is 1.25e85 at beta = 0.5
        assert got.real == pytest.approx(ref.real, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    @pytest.mark.parametrize("q", [5e-324, -5e-324, 1e-310])
    def test_q_whose_ewald_shift_underflows_is_refused(self, beta, q):
        # q/2pi underflows (5e-324) or is subnormal (1e-310), so the Ewald
        # split would read q as 0, or keep only a few of its digits; refused
        # instead of returning inf + nan j with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too small"):
                polylog_circle(beta, q)
            # the smallest q it resolves gives the leading term Gamma(1 - beta) (-iq)^(beta - 1)
            q = 2.0 * math.pi * np.finfo(float).tiny
            got = polylog_circle(beta, q)
        lead = complex(-math.log(q), math.pi / 2) if beta == 1.0 else math.gamma(1 - beta) * (-1j * q) ** (beta - 1)
        assert np.isfinite(got.real) and np.isfinite(got.imag)
        assert abs(got - lead) <= 1e-12 * abs(lead)

    def test_derivative_chain(self):
        # d/dq Re Li_beta(e^{iq}) = -Im Li_{beta-1}(e^{iq}) to 1e-6 by central differences
        h = 1e-5
        for beta in (2.0, 2.5, 3.0, 4.0):
            for q in np.linspace(0.2, 3.0, 9):
                num = (polylog_circle(beta, q + h).real - polylog_circle(beta, q - h).real) / (2 * h)
                ref = -polylog_circle(beta - 1.0, q).imag
                assert num == pytest.approx(ref, abs=1e-6)


# ---------------------------------------------------------------- gamma


class TestGamma:
    def test_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_factorial(self):
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-12)

    def test_reflection_identity(self):
        x = 0.3
        resid = gamma_fn(x) * gamma_fn(1 - x) - math.pi / math.sin(math.pi * x)
        assert abs(resid) < 1e-12 * abs(math.pi / math.sin(math.pi * x))

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
    def test_poles(self, x):
        with pytest.raises(ValueError):
            gamma_fn(x)

    def test_negative_non_integer(self):
        # Gamma(-0.5) = -2 sqrt(pi)
        assert gamma_fn(-0.5) == pytest.approx(-2 * math.sqrt(math.pi), rel=1e-12)


class TestUpperGamma:
    # the orders the d = 2 Ewald sums use at s = 3 and 4: the fractional-part
    # recurrence (a = -1/2), the E_1 recurrence (a = -1), and gammaincc (a > 0)
    @pytest.mark.parametrize("a", [-0.5, -1.0, 1.5, 2.0])
    def test_vs_mpmath_gammainc(self, a):
        mpmath = pytest.importorskip("mpmath")

        xs = np.array([1e-4, 0.03, 0.5, math.pi, 2 * math.pi, 4 * math.pi])
        got = _upper_gamma(a, xs)
        with mpmath.workdps(30):
            ref = [float(mpmath.gammainc(a, mpmath.mpf(float(x)))) for x in xs]
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)


# ---------------------------------------------------------------- Lambert W


class TestLambertWm1:
    def test_branch_point(self):
        assert lambert_w_m1(-1.0 / math.e) == -1.0

    def test_value_vs_bisection_oracle(self):
        y = -0.1
        assert lambert_w_m1(y) == pytest.approx(lambert_bisection_oracle(y), abs=1e-10)
        assert lambert_w_m1(y) == pytest.approx(-3.577152063957297, abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-0.36787944117144, max_value=-1e-12))
    def test_round_trip(self, y):
        w = lambert_w_m1(y)
        assert w <= -1.0
        assert abs(w * math.exp(w) - y) <= 1e-12

    @pytest.mark.parametrize("eps,rel", [(1e-16, 1e-8), (1e-12, 1e-10), (1e-10, 1e-10)])
    def test_near_branch_point_vs_mpmath_oracle(self, eps, rel):
        # w e^w is flat at w = -1, so the round trip cannot see an error here;
        # scipy's lambertw(y, -1) is off by 2.3e-5 relative at eps = 1e-10
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        y = -1.0 / math.e + eps
        ref = float(mpmath.lambertw(mpmath.mpf(y), -1).real)
        assert lambert_w_m1(y) == pytest.approx(ref, rel=rel)

    def test_monotone_decreasing(self):
        # W_-1 runs from -1 down to -inf as y increases toward 0-
        ys = np.linspace(-1 / math.e + 1e-6, -1e-8, 50)
        ws = [lambert_w_m1(float(y)) for y in ys]
        assert all(b < a for a, b in zip(ws, ws[1:]))

    def test_domain(self):
        for y in (-1.0, 0.0, 1e-3):
            with pytest.raises(ValueError):
                lambert_w_m1(y)


# ---------------------------------------------------------------- Dawson


class TestDawson:
    def test_zero(self):
        assert dawson(0.0) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        st.complex_numbers(
            min_magnitude=1e-3, max_magnitude=20.0, allow_nan=False, allow_infinity=False
        )
    )
    def test_odd(self, z):
        a, b = dawson(z), dawson(-z)
        scale = max(1.0, abs(a))
        assert abs(a + b) <= 1e-12 * scale

    def test_value_vs_quadrature_oracle(self):
        assert dawson(1.0).real == pytest.approx(0.5380795069127684, abs=1e-9)
        for z in (1.0, 0.5 + 0.5j, 2 - 3j, 3.2j, 1.5 + 2.5j, 5 + 1j, 4 + 4j, 7 + 0.3j):
            ref = dawson_quadrature_oracle(complex(z))
            assert abs(dawson(z) - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_real_axis_vs_series(self):
        for x in np.linspace(-3.0, 3.0, 25):
            if x == 0:
                continue
            val = dawson(float(x))
            assert val.imag == pytest.approx(0.0, abs=1e-14)
            assert val.real == pytest.approx(dawson_series_oracle(float(x)), abs=1e-12)

    def test_radius_refusal(self):
        with pytest.raises(ValueError, match="radius"):
            dawson(DAWSON_STABILITY_RADIUS + 1.0)
