import io
import math

import numpy as np
import pytest

from levyexciton.classical import (
    DensityProfile,
    axis_profile,
    cme_integrate,
    cme_spectral_solve,
    fit_power_law,
    moments,
    ring_decay_rates,
    tail_fit,
)
from levyexciton.model import InvariantError, ModelParams
from levyexciton.special import riemann_zeta


def mp(alpha, N=64, gamma=10.0, J=1.0, bc="periodic", d=1):
    return ModelParams(d=d, alpha=alpha, J=J, gamma=gamma, N=N, bc=bc)


def delta_profile(params, site=0):
    n0 = np.zeros(params.shape)
    origin = (site,) * params.d if np.isscalar(site) else tuple(site)
    n0[origin] = 1.0
    return DensityProfile(0.0, n0, params.bc, origin)


class TestIntegrate:
    def test_three_site_complete_graph(self):
        # all pairwise distances are 1 on a 3-ring: n_0(t) = (1 + 2 e^{-3wt})/3
        p = mp(alpha=1.7, N=3)
        w = p.kappa
        ts = np.linspace(0.1, 3.0, 7) / w
        profs = cme_integrate(delta_profile(p), p, ts)
        for prof in profs:
            ref = (1 + 2 * math.exp(-3 * w * prof.t)) / 3
            assert prof.values[0] == pytest.approx(ref, abs=1e-9)

    def test_mass_conserved(self):
        p = mp(2.0, N=48)
        profs = cme_integrate(delta_profile(p), p, np.linspace(0.5, 10.0, 5))
        for prof in profs:
            assert prof.total() == pytest.approx(1.0, abs=1e-9)

    def test_matches_spectral_oracle(self):
        p = mp(2.0, N=64)
        t = 1.0 / p.kappa
        ode = cme_integrate(delta_profile(p), p, [t])[0]
        spec = cme_spectral_solve(p, t)
        assert np.max(np.abs(ode.values - spec.values)) < 1e-7

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_matches_spectral_small_rings(self, alpha):
        p = mp(alpha, N=96)
        t = 0.8 / p.kappa
        ode = cme_integrate(delta_profile(p), p, [t])[0]
        spec = cme_spectral_solve(p, t)
        assert np.max(np.abs(ode.values - spec.values)) < 1e-7

    def test_open_bc_d2_mass_and_spread(self):
        p = mp(1.5, N=20, bc="open", d=2)
        prof = cme_integrate(delta_profile(p, 0), p, [0.5 / p.kappa])[0]
        assert prof.total() == pytest.approx(1.0, abs=1e-9)
        assert prof.values[0, 0] < 1.0
        assert np.all(prof.values >= -1e-12)

    @pytest.mark.parametrize("bc", ["periodic", "open"])
    def test_grid_of_only_t0_returns_initial_profile(self, bc):
        p = mp(2.0, N=11, bc=bc)
        start = delta_profile(p, 5)
        (prof,) = cme_integrate(start, p, [0.0])
        assert prof.t == 0.0 and prof.origin == (5,)
        np.testing.assert_array_equal(prof.values, start.values)
        assert prof.values is not start.values

    def test_bad_time_grid(self):
        p = mp(2.0, N=16)
        with pytest.raises(ValueError):
            cme_integrate(delta_profile(p), p, [2.0, 1.0])

    @pytest.mark.parametrize("grid", [[1.0, np.inf], [np.inf], [np.nan]])
    def test_non_finite_time_refused(self, grid):
        p = mp(2.0, N=16, bc="open")
        with pytest.raises(ValueError, match="finite"):
            cme_integrate(delta_profile(p), p, grid)


class TestSpectral:
    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan, -1.0])
    def test_bad_time_refused(self, t):
        # exp(lambda t) at t = inf is a profile of NaN
        with pytest.raises(ValueError, match="finite, strictly increasing and non-negative"):
            cme_spectral_solve(mp(2.0, N=16), t)

    def test_grid_equals_the_per_time_calls_bit_for_bit(self):
        p = mp(1.5, N=33, d=2)
        ts = [0.0, 0.5, 2.0]
        profs = cme_spectral_solve(p, ts)
        assert isinstance(profs, list) and [q.t for q in profs] == ts
        for prof, t in zip(profs, ts):
            one = cme_spectral_solve(p, t)
            assert isinstance(one, DensityProfile)
            assert np.array_equal(prof.values, one.values) and prof.origin == one.origin

    def test_leaky_generator_raises(self, monkeypatch):
        # lambda(0) < 0 drains mass: the profile must be refused, not returned
        import levyexciton.classical as classical

        ring_eigenvalues = classical._ring_eigenvalues
        monkeypatch.setattr(classical, "_ring_eigenvalues", lambda params: ring_eigenvalues(params) - 1e-3)
        with pytest.raises(InvariantError, match="population sum drifted"):
            cme_spectral_solve(mp(2.0, N=16), [0.5, 1.0])

    def test_t0_delta(self):
        p = mp(1.0, N=128)
        prof = cme_spectral_solve(p, 0.0)
        ref = np.zeros(128)
        ref[0] = 1.0
        np.testing.assert_allclose(prof.values, ref, atol=1e-14)

    def test_steady_state_rate_is_exactly_zero(self):
        for p in (mp(1.3, N=64), mp(2.2, N=17, d=2)):
            rates = ring_decay_rates(p)
            assert rates[0] == 0.0  # exact by construction
            assert rates[1] > 0.0

    def test_profile_even(self):
        p = mp(1.5, N=129)
        v = cme_spectral_solve(p, 2.0).values
        assert np.max(np.abs(v[1:] - v[1:][::-1])) < 1e-10

    def test_monotone_approach_to_uniform(self):
        p = mp(2.0, N=64)
        ts = np.linspace(0.0, 40.0, 15)
        d2 = [np.sum((cme_spectral_solve(p, t).values - 1 / 64) ** 2) for t in ts]
        assert all(b <= a + 1e-15 for a, b in zip(d2, d2[1:]))

    def test_requires_periodic(self):
        with pytest.raises(ValueError):
            cme_spectral_solve(mp(2.0, bc="open"), 1.0)

    def test_alpha1_matches_closed_form(self):
        # two independent representations of the same density: the ring solver
        # vs the infinite-lattice closed form. They differ by the minimum-image
        # wrap bias of the ring kernel, which scales as 1/N.
        from levyexciton.analytic import exact_profile_alpha1

        js = np.arange(-200, 201)
        gaps = []
        for N in (4096, 8192):
            p = mp(1.0, N=N)
            t = 0.5 / p.kappa
            ring = cme_spectral_solve(p, t).values
            closed = exact_profile_alpha1(js, t, p)
            gaps.append(np.max(np.abs(ring[js % N] - closed)))
        assert gaps[0] < 2e-4
        assert gaps[1] < 1e-4
        assert gaps[1] == pytest.approx(gaps[0] / 2, rel=0.05)

    def test_alpha1_closed_form_vs_quadrature_oracle(self):
        # direct quadrature of the characteristic function on the infinite line
        from scipy.integrate import quad

        from levyexciton.analytic import exact_profile_alpha1

        p = mp(1.0, N=4096)
        kt = 0.5
        t = kt / p.kappa
        for j in (0, 1, 5, 17):
            ref = quad(lambda q: math.cos(j * q) * math.exp(kt * (q**2 / 2 - math.pi * q)),
                       0.0, math.pi, limit=400)[0] / math.pi
            assert exact_profile_alpha1(j, t, p) == pytest.approx(ref, rel=1e-10)


class TestOpenBcOracle:
    def test_d2_matches_dense_generator(self):
        # 5x5 open lattice: the FFT-convolution right-hand side must equal the
        # explicitly assembled generator's matrix exponential
        from scipy.linalg import expm

        p = mp(1.5, N=5, bc="open", d=2)
        n = 25
        W = np.zeros((n, n))
        for a in range(n):
            xa, ya = divmod(a, 5)
            for b in range(n):
                if a == b:
                    continue
                xb, yb = divmod(b, 5)
                r2 = (xa - xb) ** 2 + (ya - yb) ** 2
                W[b, a] = p.kappa * r2 ** (-p.alpha)
        W -= np.diag(W.sum(axis=0))
        n0 = np.zeros(n)
        n0[0] = 1.0
        t = 0.7 / p.kappa
        ref = (expm(W * t) @ n0).reshape(5, 5)
        got = cme_integrate(delta_profile(p, 0), p, [t])[0].values
        assert np.max(np.abs(got - ref)) < 1e-9

    @pytest.mark.parametrize(
        "d, N", [(1, 30), (2, 16), (3, 7), (1, 2), (1, 5), (1, 8), (2, 2), (2, 5), (2, 8)]
    )
    def test_rhs_matches_dense_matvec(self, d, N):
        # 2N - 1 = 59, 31 and 13 are prime, so the generator runs at the padded
        # fast length; N = 2, 5, 8 give odd or tiny lengths 3, 9, 15. The
        # axis-by-axis transform must equal the assembled generator exactly
        from levyexciton.classical import _generator
        from levyexciton.model import open_kernel_and_escape

        p = mp(1.5, N=N, bc="open", d=d)
        coords = np.indices(p.shape).reshape(d, -1).T.astype(float)
        r2 = np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=-1)
        W = np.zeros_like(r2)
        W[r2 > 0] = p.kappa * r2[r2 > 0] ** (-p.alpha)
        _, escape = open_kernel_and_escape(p)
        # at d = 3 the field reaches 4.4, where 1e-15 is below the rounding of
        # the dense row sums themselves, so only there the bound scales with it
        rows = W.sum(axis=1)
        assert np.max(np.abs(escape.ravel() - rows)) <= 1e-15 * (rows.max() if d == 3 else 1.0)
        n = np.random.default_rng(0).random(p.n_sites)
        n /= n.sum()
        ref = W @ n - W.sum(axis=1) * n
        apply, _ = _generator(p)
        assert np.max(np.abs(apply(n.reshape(p.shape)).ravel() - ref)) <= 1e-15


def distance_generator(p):
    """The open-lattice generator assembled site by site from distances."""
    coords = np.indices(p.shape).reshape(p.d, -1).T.astype(float)
    r2 = np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=-1)
    W = np.zeros_like(r2)
    W[r2 > 0] = p.kappa * r2[r2 > 0] ** (-p.alpha)
    return W - np.diag(W.sum(axis=1))


class TestChebyshevPropagator:
    @pytest.mark.parametrize("d, N, alpha", [(1, 40, 1.5), (2, 9, 1.5), (3, 6, 2.0)])
    def test_open_matches_dense_eigh(self, d, N, alpha):
        p = mp(alpha, N=N, bc="open", d=d)
        lam, U = np.linalg.eigh(distance_generator(p))
        start = delta_profile(p, 0)
        ts = np.array([0.0, 0.05, 0.3, 1.0, 4.0]) / p.kappa
        profs = cme_integrate(start, p, ts)
        c = U.T @ start.values.ravel()
        for prof, t in zip(profs, ts):
            ref = U @ (np.exp(lam * t) * c)
            assert np.max(np.abs(prof.values.ravel() - ref)) <= 1e-14
        np.testing.assert_array_equal(profs[0].values, start.values)

    @pytest.mark.parametrize("alpha, N", [(1.0, 64), (2.0, 65), (1.5, 16)])
    def test_ring_matches_spectral_at_long_times(self, alpha, N):
        # kappa t up to 500 puts z = a t in the thousands, where K ~ sqrt(z)
        p = mp(alpha, N=N)
        ts = np.array([0.1, 1.0, 10.0, 100.0, 500.0]) / p.kappa
        for prof, t in zip(cme_integrate(delta_profile(p), p, ts), ts):
            assert np.max(np.abs(prof.values - cme_spectral_solve(p, t).values)) <= 1e-13

    def test_ring_matches_spectral_in_d2(self):
        p = mp(1.5, N=12, d=2)
        t = 3.0 / p.kappa
        prof = cme_integrate(delta_profile(p, (0, 0)), p, [t])[0]
        assert np.max(np.abs(prof.values - cme_spectral_solve(p, t).values)) <= 1e-14

    @pytest.mark.parametrize("z", [1e-3, 1.0, 4.0, 30.0, 2e3])
    def test_term_count_is_the_smallest_certified_one(self, z):
        from scipy.special import ive

        from levyexciton.classical import TRUNCATION, _term_count

        K = _term_count(z)
        tail = lambda k: 2.0 * float(np.sum(ive(np.arange(k + 1, k + 400), z)))  # noqa: E731
        assert tail(K) <= TRUNCATION < tail(K - 1)

    def test_negativity_breach_raises(self):
        p = mp(2.0, N=16)
        n0 = np.zeros(16)
        n0[0], n0[1] = 1.0, -1e-3  # a negative occupation is refused, not clipped
        with pytest.raises(InvariantError, match="negative population"):
            cme_integrate(n0, p, [0.0, 1.0])

    def test_mass_breach_raises(self, monkeypatch):
        from levyexciton import classical

        generator = classical._generator

        def leaky(p):
            apply, a = generator(p)
            return (lambda n: apply(n) - 0.01 * a * n), a

        monkeypatch.setattr(classical, "_generator", leaky)
        p = mp(2.0, N=16)
        with pytest.raises(InvariantError, match="population sum drifted"):
            cme_integrate(delta_profile(p), p, [1.0])

    def test_logs_work_and_pins_figS2_d3_cost(self, caplog):
        # the figS2 d = 3 lattice: a, z_max, K and the convolution count go to
        # the silent-by-default package logger at DEBUG
        import logging
        import re

        p = mp(2.0, N=30, bc="open", d=3)
        start = delta_profile(p, 0)

        def convolutions(ts):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="levyexciton"):
                cme_integrate(start, p, ts)
            (rec,) = [r for r in caplog.records if r.name == "levyexciton.classical"]
            assert re.search(r"a = \S+, z_max = \S+, K = \d+", rec.getMessage())
            return int(re.search(r"convolutions = (\d+)", rec.getMessage()).group(1))

        assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("levyexciton").handlers)
        one = convolutions([1.25])
        assert one <= 30
        assert convolutions([0.625, 1.25]) <= one


class TestRingVarianceIdentity:
    def test_slope_equals_kernel_second_moment(self):
        # exact finite-ring identity: d<j^2>/dt = sum_r r^2 w_r while the
        # density has not wrapped around the ring (no thermodynamic limit)
        from levyexciton.model import min_image, ring_rate_row

        p = mp(2.5, N=512)
        w = ring_rate_row(p)
        rs = min_image(np.arange(512), 512).astype(float)
        slope_ref = float(np.sum(rs**2 * w))
        t1, t2 = 0.2 / p.kappa, 0.4 / p.kappa
        _, v1 = moments(cme_spectral_solve(p, t1))
        _, v2 = moments(cme_spectral_solve(p, t2))
        assert (v2 - v1) / (t2 - t1) == pytest.approx(slope_ref, rel=1e-9)


class TestMoments:
    def test_delta(self):
        p = mp(2.0, N=33)
        mean, var = moments(delta_profile(p))
        assert np.allclose(mean, 0.0) and var == 0.0

    def test_variance_slope_alpha3(self):
        p = mp(3.0, N=2001)
        slope_ref = p.kappa * 2 * riemann_zeta(4.0)
        for kt in (0.5, 2.0, 5.0):
            t = kt / p.kappa
            _, var = moments(cme_spectral_solve(p, t))
            assert var / t == pytest.approx(slope_ref, rel=0.01)

    def test_mean_stays_zero(self):
        p = mp(1.5, N=201)
        for t in (1.0, 10.0):
            mean, _ = moments(cme_spectral_solve(p, t))
            assert abs(mean[0]) < 1e-9


class TestTailFit:
    def test_synthetic_exact(self):
        p = mp(2.0, N=512)
        j = np.arange(512)
        coords = np.where(j > 256, j - 512, j).astype(float)
        vals = np.zeros(512)
        nz = coords != 0
        vals[nz] = 3.0 / np.abs(coords[nz]) ** 4
        vals[0] = 1.0
        prof = DensityProfile(1.0, vals, "periodic")
        expo, amp = tail_fit(prof, (10, 100))
        assert expo == pytest.approx(-4.0, abs=1e-12)
        assert amp == pytest.approx(3.0, rel=1e-12)

    def test_levy_tail_alpha1(self):
        p = mp(1.0, N=1000)
        t = 1.0 / p.kappa
        prof = cme_spectral_solve(p, t)
        expo, amp = tail_fit(prof, (20, 250))
        assert expo == pytest.approx(-2.0, abs=0.05)
        assert amp == pytest.approx(1.0, rel=0.10)  # kappa t = 1

    def test_mixed_tail_alpha2(self):
        from levyexciton.analytic import crossover

        p = mp(2.0, N=1000)
        t = 3.0 / p.kappa
        xi = crossover(p, t).xi_exact
        prof = cme_spectral_solve(p, t)
        expo, _ = tail_fit(prof, (int(3 * xi), 250))
        assert expo == pytest.approx(-4.0, abs=0.2)

    def test_rejects_nonpositive(self):
        vals = np.zeros(64)
        vals[0] = 1.0
        with pytest.raises(ValueError):
            tail_fit(DensityProfile(1.0, vals, "periodic"), (5, 20))

    def test_power_law_fit_guard(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2, 3], [1.0, -1.0, 0.5])


class TestCsv:
    def test_d2_axis_cut(self):
        p = mp(1.5, N=12, bc="open", d=2)
        prof = cme_integrate(delta_profile(p, 0), p, [0.2 / p.kappa])[0]
        cut = axis_profile(prof, axis=0)
        assert cut.values.shape == (12,)
        np.testing.assert_allclose(cut.values, prof.values[:, 0])
