import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from levyexciton import manybody
from levyexciton.manybody import (
    CHI2_FIT_WINDOW,
    FitWindowError,
    OddSector,
    SpinConfiguration,
    chi_squared_series,
    domain_wall_config,
    fit_tau,
    fractional_reference,
    kmc_simulate,
    occupation_evolution,
    particle_hole_asymmetry,
    relaxation_fit,
    site_labels,
    step_cosine_coefficients,
)
from levyexciton.model import InvariantError, ModelParams, open_line_rates


def chain(alpha, N=64, kappa=1.0):
    # gamma chosen so that 2 J^2/gamma = kappa with J = 1
    return ModelParams(d=1, alpha=alpha, J=1.0, gamma=2.0 / kappa, N=N, bc="open")


# ---------------------------------------------------------------- oracles


def exact_sep_occupation(params, occ0, t_out):
    """Ensemble density from the fully enumerated exclusion generator."""
    N = params.N
    w = open_line_rates(params)
    particles = int(occ0.sum())
    states = list(itertools.combinations(range(N), particles))
    index = {s: i for i, s in enumerate(states)}
    M = np.zeros((len(states), len(states)))
    for s in states:
        occ = set(s)
        for j in s:
            for target in range(N):
                if target not in occ and target != j:
                    rate = w[abs(target - j)]
                    s2 = tuple(sorted((occ - {j}) | {target}))
                    M[index[s2], index[s]] += rate
                    M[index[s], index[s]] -= rate
    p0 = np.zeros(len(states))
    p0[index[tuple(np.flatnonzero(occ0))]] = 1.0
    out = []
    for t in t_out:
        p = expm(M * t) @ p0
        n = np.zeros(N)
        for s, prob in zip(states, p):
            for j in s:
                n[j] += prob
        out.append(n)
    return np.array(out)


# ---------------------------------------------------------------- configuration


class TestConfiguration:
    def test_domain_wall(self):
        c = domain_wall_config(8)
        np.testing.assert_array_equal(c.occupations, [1, 1, 1, 1, 0, 0, 0, 0])
        assert c.n_particles == 4

    def test_odd_N_rejected(self):
        with pytest.raises(ValueError):
            domain_wall_config(9)

    def test_labels(self):
        assert site_labels(6).tolist() == [-3, -2, -1, 0, 1, 2]


# ---------------------------------------------------------------- KMC


class TestKmc:
    def test_particle_count_conserved_along_trajectory(self):
        p = chain(2.0, N=32)
        n_traj = 7
        res = kmc_simulate(domain_wall_config(32), p, np.linspace(0.05, 1.0, 12), n_traj, seed=11)
        counts = n_traj * res.mean
        np.testing.assert_array_equal(counts, np.rint(counts))
        assert np.all(np.rint(counts).sum(axis=1) == n_traj * 16)

    def test_reproducible_per_seed_and_index(self):
        # trajectory i draws only from trajectory_rng(seed, i), so adding a
        # fifth trajectory adds exactly that trajectory's occupations
        p = chain(1.5, N=24)
        c0 = domain_wall_config(24)
        ts = [0.2, 0.6]

        def added(n):
            last = n * kmc_simulate(c0, p, ts, n, seed=99).mean
            rest = (n - 1) * kmc_simulate(c0, p, ts, n - 1, seed=99).mean
            return np.rint(last - rest)

        a, b, c = added(5), added(5), added(6)
        assert set(np.unique(a)) <= {0.0, 1.0}
        assert np.all(a.sum(axis=1) == 12)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("occ", [np.zeros(10), np.ones(10)])
    def test_empty_and_full_chain_stay_put(self, occ):
        c0 = SpinConfiguration(occ)
        res = kmc_simulate(c0, chain(1.0, N=10), [0.0, 1.0, 5.0], n_traj=3, seed=2)
        np.testing.assert_array_equal(res.mean, np.tile(occ, (3, 1)))

    def test_time_zero_is_the_initial_configuration(self):
        c0 = domain_wall_config(20)
        res = kmc_simulate(c0, chain(1.0, N=20), [0.0], n_traj=300, seed=4)
        np.testing.assert_array_equal(res.mean, c0.occupations[None, :])

    @pytest.mark.parametrize(
        "t_out",
        [[], [1.0, 0.5], [0.5, 0.5], [-0.1, 1.0], [np.nan], [1.0, np.inf]],
        ids=["empty", "unsorted", "repeated", "negative", "nan", "inf"],
    )
    def test_bad_output_times_rejected(self, t_out):
        with pytest.raises(ValueError):
            kmc_simulate(domain_wall_config(8), chain(2.0, N=8), t_out, n_traj=2, seed=0)

    def test_infinite_output_time_refused_before_sampling(self, monkeypatch):
        # the event loop never reaches t = inf, so the grid is refused before
        # any trajectory's generator is made
        def no_rng(seed, index):
            raise AssertionError("sampling started")

        monkeypatch.setattr(manybody, "trajectory_rng", no_rng)
        with pytest.raises(ValueError, match="finite"):
            kmc_simulate(domain_wall_config(16), chain(1.0, N=16), [1.0, np.inf], n_traj=4, seed=0)

    def test_configuration_length_must_match(self):
        with pytest.raises(ValueError, match="10 sites.*params.N = 12"):
            kmc_simulate(domain_wall_config(10), chain(2.0, N=12), [0.5], n_traj=2, seed=0)

    def test_unbiased_vs_enumerated_generator(self):
        # 6 sites, 3 particles: the full many-body generator fits in memory
        p = chain(2.0, N=6)
        occ0 = domain_wall_config(6).occupations.astype(float)
        ts = np.array([0.3, 1.0])
        exact = exact_sep_occupation(p, occ0, ts)
        res = kmc_simulate(domain_wall_config(6), p, ts, n_traj=20000, seed=5)
        dev = np.abs(res.mean - exact) / np.maximum(res.stderr, 1e-12)
        assert float(dev.max()) < 4.0

    def test_duality_exact_on_enumerated_generator(self):
        # the ensemble-averaged exclusion density equals the one-particle
        # linear equation exactly (not just statistically)
        p = chain(1.5, N=6)
        occ0 = domain_wall_config(6).occupations.astype(float)
        ts = np.array([0.2, 0.7, 2.0])
        exact = exact_sep_occupation(p, occ0, ts)
        linear = occupation_evolution(p, ts)
        assert np.max(np.abs(exact - linear)) < 1e-12

    def test_flat_profile_at_long_times(self):
        p = chain(2.0, N=16)
        res = kmc_simulate(domain_wall_config(16), p, [400.0], n_traj=400, seed=3)
        assert np.max(np.abs(res.mean - 0.5)) < 0.12


# ---------------------------------------------------------------- linear occupation


class TestOccupation:
    def test_mass_conserved(self):
        p = chain(2.0, N=100)
        traj = occupation_evolution(p, [0.0, 0.5, 2.0, 10.0])
        np.testing.assert_allclose(traj.sum(axis=1), 50.0, atol=5e-8)

    def test_short_time_profile(self):
        # n_j(t) ~ kappa t sum_{r=j+1}^{N/2+j} r^(-2a) for label j >= 0
        p = chain(2.0, N=40)
        t = 1e-3
        traj = occupation_evolution(p, [t])[0]
        labels = site_labels(40)
        w = np.arange(1, 200, dtype=float) ** -4.0
        for j in (0, 1, 3, 7):
            ref = t * np.sum(w[j : 20 + j])  # r = j+1 .. N/2+j
            got = traj[labels == j][0]
            assert got == pytest.approx(ref, rel=0.01)

    def test_right_tail_exponent(self):
        p = chain(2.0, N=100)
        traj = occupation_evolution(p, [0.5])[0]
        labels = site_labels(100)
        js = np.arange(5, 45)
        vals = np.array([traj[labels == j][0] for j in js])
        slope = np.polyfit(np.log(js), np.log(vals), 1)[0]
        assert slope == pytest.approx(-3.0, abs=0.2)  # -(2 alpha - 1)

    def test_methods_agree(self):
        p = chain(1.5, N=48)
        a = occupation_evolution(p, [0.4, 1.5], method="eig")
        b = occupation_evolution(p, [0.4, 1.5], method="ode")
        assert np.max(np.abs(a - b)) < 1e-8

    @pytest.mark.parametrize("alpha, N", [(1.25, 32), (1.5, 48)])
    def test_methods_agree_to_rounding(self, alpha, N):
        # companion of the test above: the odd-sector eigh and the Chebyshev
        # series in the full generator are both exact up to rounding
        p = chain(alpha, N=N)
        ts = [0.0, 0.5, 2.0, 8.0, 100.0]
        a = occupation_evolution(p, ts, method="eig")
        b = occupation_evolution(p, ts, method="ode")
        assert np.max(np.abs(a - b)) <= 1e-13

    def test_flat_stationary_profile(self):
        p = chain(1.0, N=32)
        traj = occupation_evolution(p, [1e6])[0]
        np.testing.assert_allclose(traj, 0.5, atol=1e-9)

    @pytest.mark.parametrize("method", ["eig", "ode"])
    def test_t0_row_is_the_wall(self, method):
        traj = occupation_evolution(chain(2.0, N=32), [0.0, 1.0], method=method)
        assert np.array_equal(traj[0], domain_wall_config(32).occupations)

    @pytest.mark.parametrize("method", ["eig", "ode"])
    @pytest.mark.parametrize(
        "times", [[-1.0], [np.nan], [], [1.0, 1.0], [1.0, np.inf]], ids=["negative", "nan", "empty", "repeated", "inf"]
    )
    def test_bad_time_grid(self, method, times):
        with pytest.raises(ValueError, match="strictly increasing and non-negative"):
            occupation_evolution(chain(2.0, N=32), times, method=method)

    def test_occupation_outside_unit_interval_raises(self, monkeypatch):
        # a growing mode (sign-flipped spectrum) must not pass silently
        eigh = np.linalg.eigh

        def flipped(W):
            lam, U = eigh(W)
            return -lam, U

        monkeypatch.setattr(np.linalg, "eigh", flipped)
        with pytest.raises(InvariantError, match="negative population"):
            occupation_evolution(chain(2.0, N=32), [0.0, 1.0])

    def test_chi2_vs_mpmath_full_generator(self):
        # oracle: 40-digit eigendecomposition of the full N x N generator (no
        # reflection symmetry used) at three times across the chi^2 fit window,
        # for both the profile route and the mode sum on the slowest-mode grid
        mpmath = pytest.importorskip("mpmath")

        N = 40
        p = chain(3.0, N=N)
        grid, chi_grid = OddSector(p).relaxation_series()
        lo, hi = CHI2_FIT_WINDOW
        inside = np.flatnonzero((chi_grid >= lo) & (chi_grid <= hi))
        picks = inside[[0, inside.size // 2, -1]]
        ts = grid[picks]
        chi = chi_squared_series(occupation_evolution(p, ts))
        with mpmath.workdps(40):
            w = [mpmath.mpf(0)] + [mpmath.mpf(p.kappa) / mpmath.mpf(r) ** (2 * p.alpha) for r in range(1, N)]
            W = mpmath.matrix(N, N)
            for i in range(N):
                for j in range(N):
                    if i != j:
                        W[i, j] = w[abs(i - j)]
                W[i, i] = -mpmath.fsum(w[abs(i - j)] for j in range(N))
            lam, Q = mpmath.eigsy(W)
            c = [mpmath.fsum(Q[j, k] for j in range(N // 2)) for k in range(N)]
            for t, got, summed in zip(ts, chi, chi_grid[picks]):
                decay = [mpmath.exp(lam[k] * mpmath.mpf(t)) * c[k] for k in range(N)]
                n = [mpmath.fsum(Q[j, k] * decay[k] for k in range(N)) for j in range(N)]
                ref = mpmath.fsum((x - mpmath.mpf(1) / 2) ** 2 for x in n) / (N // 2)
                assert abs(got - float(ref)) <= 1e-11 * float(ref)
                assert abs(summed - float(ref)) <= 1e-11 * float(ref)


class TestParticleHole:
    def test_t0_exact(self):
        occ = domain_wall_config(20).occupations.astype(float)[None, :]
        assert particle_hole_asymmetry(occ)[0] == 0.0

    def test_under_evolution(self):
        p = chain(1.0, N=100)
        traj = occupation_evolution(p, [0.1, 0.5, 3.0])
        worst, site, ti = particle_hole_asymmetry(traj)
        assert worst <= 1e-8

    def test_under_evolution_ode(self):
        # the eig route is symmetric by construction; the integrator is not
        p = chain(1.0, N=100)
        traj = occupation_evolution(p, [0.1, 0.5, 3.0], method="ode")
        worst, site, ti = particle_hole_asymmetry(traj)
        assert worst <= 1e-8

    def test_violation_reported_with_site(self):
        bad = np.full((1, 8), 0.5)
        bad[0, 2] = 0.7  # breaks n_j + n_{-1-j} = 1
        worst, site, ti = particle_hole_asymmetry(bad)
        assert worst == pytest.approx(0.2, abs=1e-12)
        assert site in (-2, 1)  # label of the offending pair


class TestChiSquared:
    def test_initial_value_half(self):
        occ = domain_wall_config(30).occupations.astype(float)[None, :]
        assert chi_squared_series(occ)[0] == 0.5

    def test_monotone_non_increasing(self):
        p = chain(2.0, N=64)
        ts = np.linspace(0.0, 200.0, 40)
        chi = chi_squared_series(occupation_evolution(p, ts))
        assert np.all(np.diff(chi) <= 1e-15)

    def test_late_time_exponential(self):
        p = chain(2.0, N=64)
        ts = np.linspace(0.0, 1500.0, 400)
        chi = chi_squared_series(occupation_evolution(p, ts))
        m = (chi >= 1e-6) & (chi <= 1e-2)
        slope, intercept = np.polyfit(ts[m], np.log(chi[m]), 1)
        pred = slope * ts[m] + intercept
        ss_res = np.sum((np.log(chi[m]) - pred) ** 2)
        ss_tot = np.sum((np.log(chi[m]) - np.mean(np.log(chi[m]))) ** 2)
        assert 1 - ss_res / ss_tot >= 0.999


# ---------------------------------------------------------------- relaxation fits


class TestRelaxationFit:
    def test_synthetic_model_recovered(self):
        beta, b = 1.7, 0.9
        Ns = [100, 200, 400, 800]
        series = []
        for N in Ns:
            tau = N**beta / (2 * math.pi**beta * b)
            ts = np.linspace(0.0, 16 * tau, 400)
            series.append((ts, 0.5 * np.exp(-ts / tau)))
        fit = relaxation_fit(series, Ns, alpha=1.35)
        assert fit.beta == pytest.approx(beta, abs=1e-6)
        assert fit.b_alpha == pytest.approx(b, abs=1e-6)

    def test_needs_four_sizes(self):
        with pytest.raises(FitWindowError):
            relaxation_fit([(np.array([0.0]), np.array([0.5]))], [100], alpha=2.0)

    def test_window_guard(self):
        ts = np.linspace(0, 1, 50)
        chi = 0.5 * np.exp(-ts)  # never reaches 1e-2
        with pytest.raises(FitWindowError):
            fit_tau(ts, chi)

    def test_critical_model_uses_log(self):
        # tau = N^2 / (2 pi^2 b (ln(N/pi) + 3/2)): recover b with the critical model
        b = 2.0
        Ns = [100, 200, 400, 800]
        series = []
        for N in Ns:
            tau = N**2 / (2 * math.pi**2 * b * (math.log(N / math.pi) + 1.5))
            ts = np.linspace(0.0, 16 * tau, 400)
            series.append((ts, 0.5 * np.exp(-ts / tau)))
        fit = relaxation_fit(series, Ns, alpha=1.5)
        assert fit.critical
        assert fit.beta == 2.0
        assert fit.b_alpha == pytest.approx(b, rel=1e-4)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_fit_inverts_the_relaxation_time_law(self, alpha):
        beta, b = (2.0 if alpha >= 1.5 else 2 * alpha - 1.0), 0.7
        Ns = [100, 200, 400, 800]
        series = []
        for N in Ns:
            tau = manybody.relaxation_time(N, alpha, beta, b)
            ts = np.linspace(0.0, 16 * tau, 400)
            series.append((ts, 0.5 * np.exp(-ts / tau)))
        fit = relaxation_fit(series, Ns, alpha=alpha)
        assert fit.critical == (alpha == 1.5)
        assert fit.beta == pytest.approx(beta, abs=1e-6)
        assert fit.b_alpha == pytest.approx(b, rel=1e-4)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_slowest_mode_matches_full_generator(self, alpha):
        # the odd-sector spectrum is the part of the full N x N generator's
        # spectrum whose modes are odd under j -> N-1-j; every regime reads
        # its grid from the largest of those eigenvalues
        N = 60
        p = chain(alpha, N=N)
        w = open_line_rates(p)
        r = np.arange(N)
        W = w[np.abs(r[:, None] - r)]
        W -= np.diag(W.sum(axis=1))
        lam, Q = np.linalg.eigh(W)
        odd = np.linalg.norm(Q + Q[::-1], axis=0) < 1e-6
        modes = OddSector(p)
        np.testing.assert_allclose(modes.lam, lam[odd], rtol=1e-10)
        assert modes.tau == pytest.approx(0.5 / abs(lam[odd][-1]), rel=1e-12)
        grid, chi = modes.relaxation_series()
        assert grid.size == 360 and grid[0] == 0.0 and chi[0] == 0.5
        assert grid[-1] == pytest.approx(18 * modes.tau, rel=1e-14)

    @pytest.mark.parametrize("alpha, rtol", [(1.0, 2e-7), (1.5, 1e-10), (2.0, 1e-10), (3.0, 1e-10)])
    @pytest.mark.parametrize("N", [100, 200, 400, 800])
    def test_fit_tau_is_the_slowest_mode(self, alpha, rtol, N):
        # two routes to tau: the chi^2 fit over the window, and 1/(2 |lambda_1|);
        # at alpha = 1 the next mode still weighs on the window at ~1e-7
        modes = OddSector(chain(alpha, N=N))
        assert fit_tau(*modes.relaxation_series()) == pytest.approx(modes.tau, rel=rtol)

    def test_tau_increasing_in_N(self):
        p = chain(2.0)
        Ns = [50, 100, 200, 400]
        series = []
        for N in Ns:
            pn = ModelParams(d=1, alpha=2.0, J=1.0, gamma=2.0, N=N, bc="open")
            tau_guess = N**2 / (2 * math.pi**2 * 1.6)
            ts = np.linspace(0.0, 18 * tau_guess, 350)
            series.append((ts, chi_squared_series(occupation_evolution(pn, ts))))
        fit = relaxation_fit(series, Ns, alpha=2.0)
        assert all(b > a for a, b in zip(fit.taus, fit.taus[1:]))
        assert fit.beta == pytest.approx(2.0, abs=0.2)


# ---------------------------------------------------------------- fractional reference


class TestFractionalReference:
    def test_step_reconstruction_with_gibbs(self):
        p = chain(2.0, N=100)
        x = np.linspace(0.0, 100.0, 20001)
        n0 = fractional_reference(x, 0.0, p, beta=2.0, b=1.6, modes=2001)
        # interior plateaus are recovered; the wall shows the ~9% overshoot
        left = (x > 5) & (x < 45)
        right = (x > 55) & (x < 95)
        assert np.max(np.abs(n0[left] - 1.0)) < 0.02
        assert np.max(np.abs(n0[right] - 0.0)) < 0.02
        overshoot = np.max(n0) - 1.0
        assert 0.05 < overshoot < 0.12

    def test_mode_decay_by_construction(self):
        p = chain(2.0, N=100)
        beta, b, t = 1.5, 0.8, 37.0
        c0 = step_cosine_coefficients(100, 6)
        m = np.arange(1, 7, dtype=float)
        decay = np.exp(-b * (m * math.pi / 100) ** beta * t)
        # reconstruct the coefficients from the reference on a fine grid
        x = np.linspace(0.0, 100.0, 400001)
        n = fractional_reference(x, t, p, beta=beta, b=b, modes=6)
        for mi in range(1, 7):
            proj = np.trapezoid((n - 0.5) * np.cos(math.pi * mi * x / 100), x) * (2 / 100)
            assert proj == pytest.approx(c0[mi - 1] * decay[mi - 1], abs=1e-12)

    def test_even_modes_vanish(self):
        c0 = step_cosine_coefficients(64, 10)
        np.testing.assert_allclose(c0[1::2], 0.0, atol=1e-14)

    def test_chi2_single_mode_decay(self):
        # late times: chi^2 ratio follows exp(-2 (pi/N)^beta b dt)
        p = chain(2.0, N=100)
        beta, b = 2.0, 1.6
        labels = site_labels(100)
        x = labels + 50 + 0.5  # site centers on [0, N]
        t1, t2 = 4000.0, 5000.0
        n1 = fractional_reference(x, t1, p, beta=beta, b=b)
        n2 = fractional_reference(x, t2, p, beta=beta, b=b)
        chi1 = np.sum((n1 - 0.5) ** 2) / (100 * 0.5)
        chi2 = np.sum((n2 - 0.5) ** 2) / (100 * 0.5)
        ref = math.exp(-2 * (math.pi / 100) ** beta * b * (t2 - t1))
        assert chi2 / chi1 == pytest.approx(ref, rel=1e-6)

    def test_domain_guard(self):
        p = chain(2.0, N=100)
        with pytest.raises(ValueError):
            fractional_reference([-1.0], 0.0, p, beta=2.0, b=1.0)

    def test_scalar_gives_float_and_array_gives_array(self):
        # the rule of exact_profile_alpha1: a scalar x gives a float, any array an array
        p = chain(2.0, N=100)
        args = (3.0, p, 2.0, 1.6)
        for x in (25.0, np.float64(25.0), np.array(25.0)):
            assert type(fractional_reference(x, *args)) is float
        one = fractional_reference([25.0], *args)
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        assert one[0] == fractional_reference(25.0, *args)
