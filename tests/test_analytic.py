import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyexciton.analytic import (
    CrossoverScales,
    StructureFunction,
    asymptotic_profile,
    coefficients,
    critical_alpha,
    crossover,
    exact_profile_alpha1,
    forster_ratio,
    is_critical,
    lattice_sum,
    levy_coefficient_continuum,
    small_q_expansion,
    structure_function_eval,
)
from levyexciton.manybody import relaxation_time
from levyexciton.model import ModelParams, finite_lattice_sum
from levyexciton.special import _epstein_cos, DAWSON_STABILITY_RADIUS, riemann_zeta

ZETA2 = math.pi**2 / 6
ZETA4 = math.pi**4 / 90


def mp(alpha, d=1, N=256, gamma=10.0, J=1.0, bc="periodic"):
    return ModelParams(d=d, alpha=alpha, J=J, gamma=gamma, N=N, bc=bc)


# ---------------------------------------------------------------- oracles


def lattice_sum_cutoff_oracle(s: float, d: int, R: int) -> float:
    """Brute-force sum over the ball |r| <= R plus the continuum integral tail."""
    rng = np.arange(-R, R + 1)
    if d == 1:
        q = rng.astype(float) ** 2
        q = q[q > 0]
        part = float(np.sum(q ** (-s / 2)))
        tail = 2.0 * R ** (1.0 - s) / (s - 1.0)
    elif d == 2:
        X, Y = np.meshgrid(rng, rng, indexing="ij")
        q = (X * X + Y * Y).ravel().astype(float)
        q = q[(q > 0) & (q <= R * R)]
        part = float(np.sum(q ** (-s / 2)))
        tail = 2.0 * math.pi * R ** (2.0 - s) / (s - 2.0)
    else:
        part = 0.0
        for z in rng:
            X, Y = np.meshgrid(rng, rng, indexing="ij")
            q = (X * X + Y * Y + z * z).astype(float)
            m = (q > 0) & (q <= R * R)
            part += float(np.sum(q[m] ** (-s / 2)))
        tail = 4.0 * math.pi * R ** (3.0 - s) / (s - 3.0)
    return part + tail


def zeta_series(s, terms=2_000_000):
    k = np.arange(1, terms, dtype=float)
    return float(np.sum(k**-s)) + terms ** (1 - s) / (s - 1) + 0.5 * float(terms) ** -s


# ---------------------------------------------------------------- lattice sums


class TestLatticeSum:
    def test_d1_equals_two_zeta4(self):
        assert lattice_sum(4.0, 1) == pytest.approx(2 * ZETA4, rel=1e-12)

    def test_d1_generic_vs_series_oracle(self):
        # frozen from the series oracle: 2 zeta(2.5) = 2.68297451450...
        assert lattice_sum(2.5, 1) == pytest.approx(2 * zeta_series(2.5), rel=1e-8)
        assert lattice_sum(2.5, 1) == pytest.approx(2.6829745145, abs=1e-8)

    def test_d2_s4_vs_cutoff_oracle_and_closed_form(self):
        got = lattice_sum(4.0, 2)
        assert got == pytest.approx(lattice_sum_cutoff_oracle(4.0, 2, 2000), rel=1e-8)
        catalan = 0.9159655941772190
        assert got == pytest.approx(4 * ZETA2 * catalan, rel=1e-12)
        assert got == pytest.approx(6.0268, abs=2e-4)

    @pytest.mark.parametrize("s,d,R", [(2.5, 2, 1500), (3.0, 2, 1500), (4.0, 3, 220), (6.0, 3, 100)])
    def test_higher_d_vs_cutoff_oracle(self, s, d, R):
        # the oracle itself is O(R^(d-s)) accurate; compare at its own accuracy
        tol = max(10 * float(R) ** (d - s), 1e-10)
        got = lattice_sum(s, d)
        assert got == pytest.approx(lattice_sum_cutoff_oracle(s, d, R), abs=tol * got)

    def test_divergence_refusal(self):
        for s, d in ((1.0, 1), (2.0, 2), (2.9, 3)):
            with pytest.raises(ValueError, match="diverges"):
                lattice_sum(s, d)

    def test_finite_monotone_toward_infinite(self):
        vals = [finite_lattice_sum(3.0, N, 1, "open") for N in (11, 41, 161, 641)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < lattice_sum(3.0, 1)


# ---------------------------------------------------------------- structure function


class TestStructureFunction:
    def test_alpha1_closed_form_exact(self):
        sf = StructureFunction(mp(1.0))
        for q in np.linspace(-math.pi, math.pi, 17):
            ref = q**2 / 2 - math.pi * abs(q) + 2 * ZETA2
            assert structure_function_eval(sf, q) == pytest.approx(ref, abs=1e-10)

    def test_alpha1_at_pi(self):
        sf = StructureFunction(mp(1.0))
        assert structure_function_eval(sf, math.pi) == pytest.approx(-math.pi**2 / 6, abs=1e-10)

    def test_alpha2_vs_cosine_sum_oracle(self):
        sf = StructureFunction(mp(2.0))
        k = np.arange(1, 1_000_001, dtype=float)
        ref = 2.0 * float(np.sum(np.cos(0.3 * k) * k**-4))
        assert structure_function_eval(sf, 0.3) == pytest.approx(ref, abs=1e-7)

    def test_q0_identity_same_code_path(self):
        for params in (mp(1.3), mp(2.0, d=2, N=32), mp(1.75, d=3, N=16)):
            sf = StructureFunction(params)
            assert structure_function_eval(sf, np.zeros(params.d)) == lattice_sum(
                2 * params.alpha, params.d
            )

    def test_even_in_q(self):
        sf = StructureFunction(mp(1.7))
        for q in (0.2, 1.1, 2.9):
            assert structure_function_eval(sf, q) == pytest.approx(
                structure_function_eval(sf, -q), rel=1e-12
            )
        sf2 = StructureFunction(mp(1.8, d=2, N=32))
        q = np.array([0.4, -1.0])
        assert structure_function_eval(sf2, q) == pytest.approx(
            structure_function_eval(sf2, -q), rel=1e-12
        )

    def test_a0_dominates(self):
        sf = StructureFunction(mp(1.6))
        for q in np.linspace(-math.pi, math.pi, 21):
            assert sf.a0 - structure_function_eval(sf, q) >= -1e-12

    def test_second_derivative_matches_diffusion(self):
        # (d^2/dq^2) A(q)/kappa at 0 = -2 D/kappa = -2 zeta(2 alpha - 2), alpha = 3
        sf = StructureFunction(mp(3.0))
        h = 1e-3
        second = (
            structure_function_eval(sf, h) - 2 * sf.a0 + structure_function_eval(sf, -h)
        ) / h**2
        assert second == pytest.approx(-2 * riemann_zeta(4.0), abs=1e-4)

    def test_d2_value_vs_direct_oracle(self):
        # away from q = 0 the cosine tail beyond the cube |r_i| <= R oscillates
        # to ~0, so the plain truncated sum is the oracle (measured gap 2e-11)
        sf = StructureFunction(mp(2.0, d=2, N=32))
        q = np.array([0.7, 0.3])
        R = 400
        rng = np.arange(-R, R + 1)
        X, Y = np.meshgrid(rng, rng, indexing="ij")
        r2 = (X * X + Y * Y).astype(float)
        mask = r2 > 0
        direct = float(np.sum(np.cos(q[0] * X[mask] + q[1] * Y[mask]) * r2[mask] ** -2.0))
        assert structure_function_eval(sf, q) == pytest.approx(direct, rel=1e-10)

    def test_d3_zone_boundary_value(self):
        # direct sum over |r_i| <= 60 without a tail: 0.4668; Ewald: 0.46643
        sf = StructureFunction(mp(1.75, d=3, N=16))
        assert structure_function_eval(sf, [math.pi, 0.0, 0.0]) == pytest.approx(0.46643, abs=1e-5)

    def test_divergent_regime_refused(self):
        with pytest.raises(ValueError):
            StructureFunction(mp(0.5))


def epstein_mpmath_oracle(s: float, d: int, q, R: int = 4) -> float:
    """The same Ewald split term by term in 25-digit mpmath (``mpmath.gammainc``)."""
    mpmath = pytest.importorskip("mpmath")

    with mpmath.workdps(25):
        s = mpmath.mpf(s)
        q = [mpmath.mpf(float(v)) for v in q]
        t1 = t2 = mpmath.mpf(0)
        for n in itertools.product(range(-R, R + 1), repeat=d):
            r2 = sum(k * k for k in n)
            if r2:
                x = mpmath.pi * r2
                phase = mpmath.cos(sum(k * v for k, v in zip(n, q)))
                t1 += phase * mpmath.gammainc(s / 2, x) * x ** (-s / 2)
            u2 = sum((k + v / (2 * mpmath.pi)) ** 2 for k, v in zip(n, q))
            if u2:
                x = mpmath.pi * u2
                t2 += mpmath.gammainc((d - s) / 2, x) * x ** ((s - d) / 2)
            else:
                t2 += 2 / (s - d)
        return float(mpmath.pi ** (s / 2) / mpmath.gamma(s / 2) * (t1 + t2 - 2 / s))


def cosine_sum_mpmath_oracle(s: float, q: float) -> float:
    """2 Re Li_s(e^{iq}) = sum_{k != 0} cos(qk) |k|^(-s) in 30-digit mpmath.

    Integer s calls ``mpmath.polylog``; other s use the equal and much faster
    Hurwitz-zeta form 2 Gamma(1 - s) (2 pi)^(s - 1) sin(pi s / 2)
    [zeta(1 - s, x) + zeta(1 - s, 1 - x)], x = q / 2 pi (DLMF 25.13.2).
    """
    mpmath = pytest.importorskip("mpmath")

    with mpmath.workdps(30):
        s, q = mpmath.mpf(s), mpmath.mpf(float(q))
        if q == 0:
            return float(2 * mpmath.zeta(s))
        if s == int(s):
            return float(2 * mpmath.re(mpmath.polylog(s, mpmath.exp(1j * q))))
        x = q / (2 * mpmath.pi)
        hurwitz = mpmath.zeta(1 - s, x) + mpmath.zeta(1 - s, 1 - x)
        return float(2 * mpmath.gamma(1 - s) * (2 * mpmath.pi) ** (s - 1) * mpmath.sin(mpmath.pi * s / 2) * hurwitz)


class TestEwaldRoute:
    @pytest.mark.parametrize("alpha", [0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0])
    def test_d1_matches_polylog_route(self, alpha):
        qs = np.linspace(0.0, math.pi, 257)
        ewald = np.array([_epstein_cos(2 * alpha, 1, np.array([q])) for q in qs])
        poly = np.array([cosine_sum_mpmath_oracle(2 * alpha, q) for q in qs])
        np.testing.assert_allclose(ewald, poly, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_order_equal_to_dimension_is_finite(self, d):
        # off q = 0 no u is 0, so the limit 2/(s - d), infinite at s = d, must not enter
        q = np.array([0.9, -0.4, 2.0][:d])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = _epstein_cos(float(d), d, q)
        assert value == pytest.approx(epstein_mpmath_oracle(float(d), d, q), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.75, 1.0, 1.7, 3.0])
    def test_d1_value_is_the_ewald_sum_and_a0_at_zero(self, alpha):
        sf = StructureFunction(mp(alpha))
        assert structure_function_eval(sf, 0.0) == sf.a0 == 2.0 * riemann_zeta(2 * alpha)
        for q in (1e-170, 1e-6, 0.4, -2.9):
            assert structure_function_eval(sf, q) == _epstein_cos(2 * alpha, 1, np.array([q]))

    def test_d3_small_q_matches_expansion(self):
        params = mp(1.75, d=3, N=16)
        sf = StructureFunction(params)
        for q in (np.array([0.01, 0.0, 0.0]), np.array([0.0, -0.006, 0.008])):
            got = structure_function_eval(sf, q)
            assert got == pytest.approx(small_q_expansion(params, q).value, abs=1e-3)

    @pytest.mark.parametrize("s", [3.0, 4.0])  # Gamma(a, x) at a = -1/2 and at the integer a = -1
    def test_d2_vs_mpmath_gammainc(self, s):
        for q in (np.zeros(2), np.array([0.7, 0.3]), np.array([0.01, -0.02]), np.array([math.pi, math.pi])):
            ref = epstein_mpmath_oracle(s, 2, q)
            assert _epstein_cos(s, 2, q) == pytest.approx(ref, rel=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([(2, 1.25), (2, 2.0), (2, 3.0), (3, 1.75), (3, 2.5), (3, 4.0)]),
        st.lists(st.floats(-math.pi, math.pi), min_size=3, max_size=3),
        st.permutations([0, 1, 2]),
        st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3),
    )
    def test_cubic_symmetry_and_maximum_at_origin(self, case, q, perm, signs):
        d, alpha = case
        sf = StructureFunction(mp(alpha, d=d, N=16))
        q = np.array(q[:d])
        image = (q * np.array(signs[:d]))[[i for i in perm if i < d]]
        value = structure_function_eval(sf, q)
        assert structure_function_eval(sf, image) == pytest.approx(value, rel=1e-13, abs=1e-13)
        assert value <= sf.a0 + 1e-12

    @pytest.mark.parametrize("d, alpha", [(2, 1.25), (2, 2.0), (2, 3.0), (3, 1.75), (3, 2.5), (3, 4.0)])
    def test_denormal_momentum_gives_the_q0_value(self, d, alpha):
        # pi u^2 underflows towards 0 here; Gamma(a, x) x^(-a) must take its
        # u -> 0 limit rather than overflow (found by the Hypothesis test above)
        sf = StructureFunction(mp(alpha, d=d, N=16))
        q = np.array([0.0, 5.266427758685845e-158, 0.0][:d])
        assert structure_function_eval(sf, q) == pytest.approx(sf.a0, rel=1e-13)


# ---------------------------------------------------------------- small-q expansions


class TestSmallQ:
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    def test_integer_alpha_exact_everywhere(self, alpha):
        sf = StructureFunction(mp(alpha))
        for q in (0.05, 0.3, 1.0, 2.0):
            exp = small_q_expansion(mp(alpha), q)
            assert exp.branch == "d1-integer"
            assert exp.order == "exact"
            assert exp.value == pytest.approx(structure_function_eval(sf, q), abs=1e-9)

    def test_generic_alpha_q4_residual(self):
        params = mp(1.25)
        sf = StructureFunction(params)
        h = 0.1
        resid = small_q_expansion(params, h).value - structure_function_eval(sf, h)
        assert abs(resid) < 1e-5  # next omitted term is O(q^4)
        resid2 = small_q_expansion(params, h / 2).value - structure_function_eval(sf, h / 2)
        assert abs(resid2) < abs(resid) / 8  # shrinks at least like q^3 (q^4 expected)

    def test_half_integer_log_term(self):
        # alpha = 3/2: A/kappa ~ (q^2/2) log q^2 + 2 zeta3 - (3/2) q^2
        params = mp(1.5)
        for q in (0.05, 0.1):
            got = small_q_expansion(params, q)
            assert got.branch == "d1-half-integer"
            analytic_part = 2 * riemann_zeta(3.0) - 1.5 * q**2
            log_term = got.value - analytic_part
            assert log_term == pytest.approx(0.5 * q**2 * math.log(q**2), rel=1e-12)

    def test_half_integer_tracks_exact(self):
        params = mp(1.5)
        sf = StructureFunction(params)
        for q in (0.02, 0.1):
            got = small_q_expansion(params, q).value
            assert got == pytest.approx(structure_function_eval(sf, q), abs=5e-4 * max(q, 0.05))

    @pytest.mark.parametrize("alpha", [2.5, 3.5])
    def test_half_integer_higher_branch_is_fourth_order(self, alpha):
        # s = alpha - 1/2 >= 2: the log term sits at q^(2s), the series is cut at q^2
        params = mp(alpha)
        sf = StructureFunction(params)
        for q in (0.05, 0.0125):
            got = small_q_expansion(params, q)
            assert (got.branch, got.order) == ("d1-half-integer", "O(q^4)")
            assert abs(got.value - structure_function_eval(sf, q)) <= 0.2 * q**4

    def test_q0_exact_for_all_branches(self):
        for alpha in (1.0, 1.5, 2.0, 1.3, 2.25):
            got = small_q_expansion(mp(alpha), 0.0)
            assert got.value == pytest.approx(2 * riemann_zeta(2 * alpha), rel=1e-12)
        got2 = small_q_expansion(mp(1.8, d=2, N=32), np.zeros(2))
        assert got2.value == pytest.approx(lattice_sum(3.6, 2), rel=1e-12)

    def test_d2_levy_singular_term_converges(self):
        # alpha < alpha_cr in d = 2: A(q) - A(0) ~ c1 |q|^(2a-d); the omitted
        # q^2 correction dies off only like q^(d+2-2a), so compare ratios
        params = mp(1.8, d=2, N=32)
        sf = StructureFunction(params)
        a0 = sf.a0

        def ratio(qs):
            q = np.array([qs, qs])
            exact = structure_function_eval(sf, q) - a0
            approx = small_q_expansion(params, q).value - a0
            return exact / approx

        r_big, r_small = ratio(0.05), ratio(0.01)
        assert abs(r_small - 1.0) < abs(r_big - 1.0)
        assert abs(r_small - 1.0) < 0.12

    def test_d2_mixed_expansion_coefficient_ratio(self):
        # The d >= 2 expansion ships the continuum q^2 coefficient verbatim,
        # sum_r r^(-2a+2)/2. The true lattice coefficient carries the per-axis
        # share sum_r r_i^2 r^(-2a) = sum_r r^(-2a+2)/d, so the measured
        # correction ratio converges to 1/d (reported, not silently fixed).
        params = mp(2.6, d=2, N=32)
        sf = StructureFunction(params)
        a0 = sf.a0
        ratios = []
        for qs in (0.05, 0.02):
            q = np.array([qs, qs])
            exact = structure_function_eval(sf, q) - a0
            approx = small_q_expansion(params, q).value - a0
            ratios.append(exact / approx)
        assert ratios[-1] == pytest.approx(0.5, abs=0.01)
        assert abs(ratios[1] - 0.5) < abs(ratios[0] - 0.5)


# ---------------------------------------------------------------- coefficients


class TestCoefficients:
    def test_diffusion_values(self):
        c2 = coefficients(mp(2.0))
        assert c2.D_alpha / mp(2.0).kappa == pytest.approx(ZETA2, abs=1e-6)
        c3 = coefficients(mp(3.0))
        assert c3.D_alpha / mp(3.0).kappa == pytest.approx(ZETA4, abs=1e-6)

    def test_levy_coefficient_alpha1(self):
        c = coefficients(mp(1.0))
        assert c.regime == "levy"
        assert c.D_alpha is None
        assert c.C_alpha / mp(1.0).kappa == pytest.approx(math.pi, rel=1e-12)

    @pytest.mark.parametrize("d,acr", [(1, 1.5), (2, 2.0), (3, 2.5)])
    def test_alpha_cr(self, d, acr):
        p = mp(acr + 0.6, d=d, N=16)
        assert coefficients(p).alpha_cr == acr

    def test_regime_boundary(self):
        assert coefficients(mp(1.5)).regime == "levy"
        assert coefficients(mp(1.501)).regime == "mixed"

    @pytest.mark.parametrize("offset", [-5e-10, 5e-10])
    @pytest.mark.parametrize("d", [1, 2])
    def test_alpha_within_tolerance_of_alpha_cr_is_critical(self, d, offset):
        # one test of alpha_cr for the regime, the q^2 term and the tau(N) law
        alpha = critical_alpha(d) + offset
        assert is_critical(alpha, d)
        co = coefficients(mp(alpha, d=d, N=16))
        assert (co.regime, co.D_alpha) == ("levy", None)
        if d == 1:
            assert relaxation_time(100, alpha, 2.0, 1.0) == relaxation_time(100, 1.5, 2.0, 1.0)
            assert relaxation_time(100, alpha, 2.0, 1.0) < relaxation_time(100, 1.6, 2.0, 1.0)

    @pytest.mark.parametrize("alpha", [0.75, 1.25, 1.8, 2.3])
    def test_d1_and_continuum_formulas_agree(self, alpha):
        # the d = 1 formula: the q^(2 alpha - 1) coefficient of 2 Re Li_{2 alpha}(e^{iq}),
        # -2 Gamma(1 - 2 alpha) sin(pi alpha)
        ref = -2.0 * math.gamma(1.0 - 2.0 * alpha) * math.sin(math.pi * alpha)
        assert levy_coefficient_continuum(alpha, 1, kappa=1.0) == pytest.approx(ref, rel=1e-13, abs=0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_d1_integer_alpha_is_the_polylog_coefficient(self, n):
        # at alpha = n the coefficient is the limit (-1)^(n+1) pi / (2n - 1)!
        ref = (-1.0) ** (n + 1) * math.pi / math.factorial(2 * n - 1)
        assert levy_coefficient_continuum(float(n), 1, kappa=1.0) == pytest.approx(ref, rel=1e-13, abs=0)

    @pytest.mark.parametrize("alpha", [1.01, 2.99, 4.02])
    def test_d1_coefficient_keeps_its_digits_near_integer_alpha(self, alpha):
        # in double precision -2 Gamma(1 - 2 alpha) sin(pi alpha) is a pole times a
        # zero here and loses about 1e-14; the continuum form does not
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            ref = float(-2 * mpmath.gamma(1 - 2 * a) * mpmath.sin(mpmath.pi * a))
        p = mp(alpha)
        assert coefficients(p).C_alpha / p.kappa == pytest.approx(ref, rel=2e-15, abs=0)

    def test_half_integer_is_log_modified(self):
        assert levy_coefficient_continuum(1.5, 1, 1.0) is None
        assert coefficients(mp(1.5)).C_alpha is None


# ---------------------------------------------------------------- profiles


class TestAsymptoticProfile:
    def test_levy_tail_value(self):
        p = mp(1.0)  # kappa = 0.2
        t = 1.0 / p.kappa
        assert asymptotic_profile(100, t, p) == pytest.approx(1e-4, rel=1e-12)

    def test_gaussian_peak(self):
        p = mp(2.0)
        t = 3.0 / p.kappa
        D = p.kappa * ZETA2
        assert asymptotic_profile(0, t, p) == pytest.approx(
            1.0 / math.sqrt(4 * math.pi * D * t), rel=1e-9
        )

    @pytest.mark.parametrize("d, alpha", [(1, 2.5), (2, 3.0), (3, 3.0)])
    def test_gaussian_core_uses_coefficients_d_alpha(self, d, alpha):
        # D_alpha is computed only by coefficients; the core reads it from there
        p = mp(alpha, d=d, N=16)
        t = 3.0 / p.kappa
        D = coefficients(p).D_alpha
        assert asymptotic_profile(np.zeros(d), t, p) == pytest.approx(
            1.0 / (4 * math.pi * D * t) ** (d / 2), rel=1e-15
        )

    def test_branches_cross_at_xi(self):
        p = mp(2.0)
        t = 3.0 / p.kappa
        xi = crossover(p, t).xi_exact
        D = p.kappa * ZETA2
        gauss = math.exp(-(xi**2) / (4 * D * t)) / math.sqrt(4 * math.pi * D * t)
        tail = p.kappa * t / xi**4
        assert abs(gauss - tail) <= 1e-10 * gauss

    @pytest.mark.parametrize(
        "d, site, batch",
        [(1, 3, [3]), (1, np.int64(3), np.array([3])), (1, np.array(3), [[3]]), (2, np.array([1, 2]), [[1, 2]])],
    )
    def test_one_site_gives_float_and_a_batch_an_array(self, d, site, batch):
        # one site is a scalar in d = 1 and a d-vector in d > 1
        p = mp(3.0, d=d, N=16)
        t = 3.0 / p.kappa
        value = asymptotic_profile(site, t, p)
        assert type(value) is float
        out = asymptotic_profile(batch, t, p)
        assert isinstance(out, np.ndarray) and out.size == 1 and out.ravel()[0] == value

    def test_origin_levy_uses_spectral_value(self):
        from levyexciton.classical import cme_spectral_solve

        p = mp(1.0, N=128)
        t = 0.5 / p.kappa
        ref = cme_spectral_solve(p, t).values[0]
        assert asymptotic_profile(0, t, p) == pytest.approx(ref, rel=1e-12)


class TestExactProfileAlpha1:
    def test_matches_tail_at_large_j(self):
        p = mp(1.0)
        t = 0.5 / p.kappa
        got = exact_profile_alpha1(50, t, p)
        assert got == pytest.approx(0.5 / 50**2, rel=0.05)

    def test_even_in_j(self):
        p = mp(1.0)
        t = 0.5 / p.kappa
        js = np.arange(1, 40)
        np.testing.assert_allclose(
            exact_profile_alpha1(js, t, p), exact_profile_alpha1(-js, t, p), rtol=0, atol=0
        )

    def test_normalization_vs_spectral_oracle(self):
        from levyexciton.classical import cme_spectral_solve

        p = mp(1.0, N=4096)
        t = 0.5 / p.kappa
        js = np.arange(-200, 201)
        total = float(np.sum(exact_profile_alpha1(js, t, p)))
        ring = cme_spectral_solve(p, t).values
        ref = float(ring[js % 4096].sum())
        # the window itself holds ~1 - 2 kt/200 of the mass; the closed form
        # must match the exact ring solver on it to 1e-3
        assert total == pytest.approx(ref, abs=1e-3)
        assert total == pytest.approx(1.0, abs=2 * 0.5 / 200 + 1e-3)

    def test_reduction_equals_dawson_difference(self):
        # the Im-w evaluation is an exact reduction of the two-Dawson form
        from levyexciton.special import dawson

        p = mp(1.0)
        t = 0.5 / p.kappa  # kappa t = 0.5
        kt = 0.5
        s2 = math.sqrt(2 * kt)
        for j in range(0, 5):
            zp = (1j * j + math.pi * kt) / s2
            zm = (1j * j - math.pi * kt) / s2
            direct = (dawson(zp) - dawson(zm)) / math.sqrt(2 * kt * math.pi**2)
            assert direct.imag == pytest.approx(0.0, abs=1e-12)
            # the difference form loses ~ e^{j^2/(2 kt)} in relative accuracy
            # to cancellation; grade the tolerance accordingly
            tol = max(1e-11, 1e-14 * math.exp(j**2 / (2 * kt)))
            assert exact_profile_alpha1(j, t, p) == pytest.approx(direct.real, rel=tol)

    @pytest.mark.parametrize("kt", [0.5, 5.0, 50.0])
    def test_beyond_stability_radius_matches_mpmath(self, kt):
        # oracle: n_j = Im[e^{-z^2} erfc(-i z)] / sqrt(2 pi kt) at 40 digits,
        # from the first site outside the Dawson stability radius out to 1e8;
        # the tail kt/j^2 is 0.6 %, 4 % and 65 % off at that first site
        mpmath = pytest.importorskip("mpmath")
        p = mp(1.0)
        j0 = math.ceil(math.sqrt(2 * kt * DAWSON_STABILITY_RADIUS**2 - (math.pi * kt) ** 2))
        js = np.array([j0, 2 * j0, 10 * j0, 10**4, 10**6, 10**8])
        got = exact_profile_alpha1(js, kt / p.kappa, p)
        with mpmath.workdps(40):
            for j, value in zip(js, got):
                z = (mpmath.pi * kt + 1j * int(j)) / mpmath.sqrt(2 * kt)
                ref = mpmath.im(mpmath.exp(-(z**2)) * mpmath.erfc(-1j * z)) / mpmath.sqrt(2 * mpmath.pi * kt)
                assert value == pytest.approx(float(ref), rel=1e-12)


# ---------------------------------------------------------------- crossover


class TestCrossover:
    def test_branch_point_identity(self):
        p = mp(2.0)
        D = p.kappa * ZETA2
        t_cr = crossover(p, 1.0).t_cr
        sc = crossover(p, t_cr)
        assert sc.xi_exact == pytest.approx(math.sqrt(4 * 2.0 * D * t_cr), rel=1e-6)

    def test_absent_below_tcr(self):
        p = mp(2.0)
        t_cr = crossover(p, 1.0).t_cr
        assert crossover(p, 0.5 * t_cr).xi_exact is None

    def test_crossing_residual(self):
        p = mp(2.0)  # kappa = 0.2
        t = 3.0 / p.kappa
        sc = crossover(p, t)
        D = p.kappa * ZETA2
        g = math.exp(-(sc.xi_exact**2) / (4 * D * t)) / math.sqrt(4 * math.pi * D * t)
        tail = p.kappa * t / sc.xi_exact**4
        assert abs(g - tail) <= 1e-10 * g

    def test_increasing_in_time(self):
        p = mp(2.0)
        t_cr = crossover(p, 1.0).t_cr
        ts = np.linspace(1.05 * t_cr, 40 * t_cr, 25)
        xis = [crossover(p, float(t)).xi_exact for t in ts]
        assert all(b > a for a, b in zip(xis, xis[1:]))

    def test_approx_below_and_slowly_approaching_exact(self):
        # W_-1(y) ~ log(-y) underestimates |W|, so the log form sits below the
        # exact length and closes in only logarithmically
        p = mp(2.0)
        ratios = []
        for t in (15.0, 500.0, 5e4):
            sc = crossover(p, t)
            ratios.append(sc.xi_approx / sc.xi_exact)
        assert all(0.7 < r < 1.0 for r in ratios)
        assert ratios[-1] > ratios[0]

    def test_levy_regime_refused(self):
        with pytest.raises(ValueError):
            crossover(mp(1.0), 1.0)

    def test_result_type(self):
        assert isinstance(crossover(mp(2.0), 20.0), CrossoverScales)


# ---------------------------------------------------------------- Foerster


class TestForster:
    def test_d3(self):
        assert forster_ratio(3) == pytest.approx(2.8, rel=0.02)

    def test_d2(self):
        assert forster_ratio(2) == pytest.approx(1.5, rel=0.02)

    def test_d1_equals_zeta4(self):
        assert forster_ratio(1) == pytest.approx(lattice_sum(4.0, 1) / 2.0, rel=1e-14)
        assert forster_ratio(1) == pytest.approx(ZETA4, rel=1e-12)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            forster_ratio(4)
