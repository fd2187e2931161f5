import logging
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq, linear_sum_assignment

from levyexciton.classical import cme_integrate
from levyexciton.model import InvariantError, ModelParams, format_float, hopping_row, sum_r2_hopping_sq
from levyexciton import quantum
from levyexciton.quantum import (
    EIG_RESIDUAL_TOL,
    ConditioningError,
    CorrelationMatrix,
    DegenerateSpectrumError,
    build_circulant,
    build_h,
    initial_g_delta,
    momentum,
    perturbative_spectrum,
    propagate_G,
    slow_modes,
    solve_dephasing_block,
    solve_dephasing_spectrum,
    spectral_propagate_G,
    unperturbed_spectrum,
    variance_closed_form,
    variance_of_density,
)


def mp(alpha, N=41, gamma=10.0, J=1.0, bc="open"):
    return ModelParams(d=1, alpha=alpha, J=J, gamma=gamma, N=N, bc=bc)


def ring(alpha, N, gamma=0.1, J=1.0):
    return ModelParams(d=1, alpha=alpha, J=J, gamma=gamma, N=N, bc="periodic")


class TestPropagation:
    def test_gamma0_matches_unitary_oracle(self):
        # dephasing off: populations equal |e^{-iht} psi|^2 from the dense propagator
        p = ModelParams(d=1, alpha=1.3, J=1.0, gamma=0.0, N=3, bc="open")
        h = build_h(p)
        ts = [0.3, 0.9]
        states = propagate_G(initial_g_delta(p, site=1), p, ts)
        for cm in states:
            psi0 = np.zeros(3, complex)
            psi0[1] = 1.0
            psi = expm(-1j * h * cm.t) @ psi0
            np.testing.assert_allclose(cm.density, np.abs(psi) ** 2, atol=1e-9)

    def test_trace_conserved(self):
        p = mp(2.0, N=21)
        for cm in propagate_G(initial_g_delta(p), p, [0.2, 1.0, 3.0]):
            assert cm.trace() == pytest.approx(1.0, abs=1e-9)
            cm.check()

    def test_variance_matches_closed_form_before_edge_contact(self):
        # the infinite-lattice law holds on the finite chain until density
        # reaches the edges; by gamma t = 20 at alpha = 3 the leakage is < 1e-6
        p = mp(3.0, N=41)
        ts = np.linspace(0.1, 2.0, 8)  # gamma t in [1, 20]
        states = propagate_G(initial_g_delta(p), p, ts)
        ref = variance_closed_form(p, ts)
        got = np.array([variance_of_density(s) for s in states])
        assert np.max(np.abs(got - ref)) < 1e-6


def dense_generator(p):
    """The generator of dG/dt on row-major vec G, as an N^2 x N^2 matrix: the oracle's input."""
    N = p.N
    h, eye = build_h(p), np.eye(N)
    L = 1j * (np.kron(h, eye) - np.kron(eye, h.T)) - p.gamma * np.eye(N * N)
    on_diagonal = np.arange(N) * (N + 1)
    L[on_diagonal, on_diagonal] += p.gamma
    return L


class TestTaylorPropagator:
    @pytest.mark.parametrize(
        "p, t_max",
        [(mp(a, N=21, gamma=g), 5.0) for a in (1.0, 3.0) for g in (10.0, 100.0)] + [(ring(2.0, 21, gamma=0.1), 40.0)],
        ids=["open-a1-g10", "open-a1-g100", "open-a3-g10", "open-a3-g100", "ring-a2-g0.1"],
    )
    def test_matches_dense_expm(self, p, t_max):
        G0 = initial_g_delta(p)
        ts = np.linspace(0.0, t_max, 11)
        step = expm(dense_generator(p) * (ts[1] - ts[0]))
        ref = G0.G.ravel()
        for cm in propagate_G(G0, p, ts):
            assert np.max(np.abs(cm.G.ravel() - ref)) <= 1e-12
            ref = step @ ref

    def test_logs_its_work(self, caplog):
        p = ring(2.0, 31, gamma=0.1)
        with caplog.at_level(logging.DEBUG, logger="levyexciton"):
            propagate_G(initial_g_delta(p), p, np.linspace(0.0, 40.0, 81))
        (rec,) = [r for r in caplog.records if r.name == "levyexciton.quantum"]
        got = dict(re.findall(r"(\w+) = (\S+?)(?:,|$)", rec.getMessage()))
        levels = np.linalg.eigvalsh(build_h(p))
        norm = levels[-1] - levels[0] + p.gamma / 2
        anchors = math.ceil(norm * 40.0 / quantum.TAYLOR_THETA)
        assert float(got["norm"]) == pytest.approx(norm, rel=1e-5)
        assert float(got["H"]) == pytest.approx(40.0 / anchors, rel=1e-5)
        assert int(got["degree"]) == quantum.TAYLOR_DEGREE == 50
        assert int(got["anchors"]) == anchors
        assert int(got["applications"]) == anchors * quantum.TAYLOR_DEGREE

    def test_refuses_work_above_the_bound(self, monkeypatch):
        p = ring(2.0, 31, gamma=0.1)
        levels = np.linalg.eigvalsh(build_h(p))
        anchors = math.ceil((levels[-1] - levels[0] + p.gamma / 2) * 40.0 / quantum.TAYLOR_THETA)
        work = anchors * (p.N**3 + quantum.TAYLOR_STEP_OVERHEAD)
        monkeypatch.setattr(quantum, "TAYLOR_MAX_WORK", work)
        propagate_G(initial_g_delta(p), p, [0.0, 40.0])
        monkeypatch.setattr(quantum, "TAYLOR_MAX_WORK", work - 1)
        with pytest.raises(quantum.TaylorWorkError, match=f"take {anchors} Taylor steps at N = 31"):
            propagate_G(initial_g_delta(p), p, [0.0, 40.0])

    def test_small_ring_pays_the_per_step_cost(self, caplog):
        # a step's fixed cost is about 37^3 of work, 30 times 11^3: steps x N^3
        # alone would let a ring this small run for minutes under the bound
        p = ring(2.0, 11, gamma=0.1)
        levels = np.linalg.eigvalsh(build_h(p))
        norm = levels[-1] - levels[0] + p.gamma / 2
        t = 1e5 * quantum.TAYLOR_THETA / norm
        anchors = math.ceil(norm * t / quantum.TAYLOR_THETA)
        assert anchors * p.N**3 <= quantum.TAYLOR_MAX_WORK < anchors * (p.N**3 + quantum.TAYLOR_STEP_OVERHEAD)
        with caplog.at_level(logging.DEBUG, logger="levyexciton"):
            with pytest.raises(quantum.TaylorWorkError, match=f"take {anchors} Taylor steps at N = 11"):
                propagate_G(initial_g_delta(p), p, [0.0, t])
        assert not [r for r in caplog.records if r.name == "levyexciton.quantum"]  # refused before the step plan


def test_import_leaves_scipy_integrate_out():
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    code = "import sys, levyexciton; print('scipy.integrate' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "False"


class TestVarianceOrigin:
    def test_ring_default_origin_is_the_excited_site(self):
        # initial_g_delta excites site N // 2; measured about site 0 the
        # minimum-image wrap cuts through the exciton and the variance
        # (89.8 here) exceeds that of the uniform ring, (N^2 - 1)/12 = 80
        p = ring(2.0, 31, gamma=0.1)
        (state,) = propagate_G(initial_g_delta(p), p, [5.0])
        var = variance_of_density(state)
        assert var == variance_of_density(state, origin=15)
        assert var < (31**2 - 1) / 12
        assert var == pytest.approx(68.92, abs=0.01)


class TestClosedFormVariance:
    def test_zero_at_zero(self):
        assert variance_closed_form(mp(2.0), 0.0) == 0.0

    def test_ballistic_limit(self):
        p = mp(2.0)
        S = sum_r2_hopping_sq(p)
        t = 1e-4 / p.gamma
        assert variance_closed_form(p, t) == pytest.approx(S * t**2, rel=1e-3)

    def test_diffusive_slope(self):
        # gamma t >> 1: slope -> 2 sum r^2 H_r^2 / gamma; for alpha = 3 and a
        # long chain the slope per kappa tends to 2 zeta(4)
        p = mp(3.0, N=2001)
        S = sum_r2_hopping_sq(p)
        t1, t2 = 300.0 / p.gamma, 400.0 / p.gamma
        slope = (variance_closed_form(p, t2) - variance_closed_form(p, t1)) / (t2 - t1)
        assert slope == pytest.approx(2 * S / p.gamma, rel=1e-6)
        zeta4 = math.pi**4 / 90
        assert slope / p.kappa == pytest.approx(2 * zeta4, rel=1e-3)

    def test_crossover_time_scales_as_inverse_gamma(self):
        # time where the variance has dropped to half its ballistic asymptote
        # is a fixed multiple of 1/gamma, independent of alpha
        def tstar(alpha, gamma):
            p = mp(alpha, N=41, gamma=gamma)
            S = sum_r2_hopping_sq(p)
            f = lambda t: variance_closed_form(p, t) / (S * t**2) - 0.5
            return brentq(f, 1e-6 / gamma, 1e3 / gamma)

        base = tstar(1.0, 10.0) * 10.0
        for alpha in (1.5, 2.0, 3.0):
            for gamma in (0.5, 10.0, 40.0):
                assert tstar(alpha, gamma) * gamma == pytest.approx(base, rel=1e-9)


class TestZenoLimit:
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    def test_populations_approach_the_classical_walk_as_gamma_squared(self, alpha):
        # under strong dephasing the populations follow the classical walk at
        # rates 2 h(r)^2 / gamma (Haken & Strobl, Z. Phys. 262, 1973), with an
        # O(1/gamma^2) error: doubling gamma divides it by 4 (measured 3.89,
        # 4.01, 4.03 at alpha = 1, 2, 3)
        def error(gamma):
            p = mp(alpha, N=41, gamma=gamma)
            ts = np.array([0.5, 1.0, 2.0]) / p.kappa
            n0 = np.zeros(p.N)
            n0[p.N // 2] = 1.0
            quantum_states = propagate_G(initial_g_delta(p), p, ts)
            return max(
                float(np.max(np.abs(cm.density - prof.values)))
                for cm, prof in zip(quantum_states, cme_integrate(n0, p, ts))
            )

        assert 3.8 <= error(20.0) / error(40.0) <= 4.2


class TestCirculant:
    def test_q0_is_zero_matrix(self):
        C0 = build_circulant(0, ring(2.0, 11))
        assert np.max(np.abs(C0)) == 0.0

    def test_anti_hermitian(self):
        rng = np.random.default_rng(3)
        p = ring(1.5, 13)
        for qi in rng.integers(0, 13, size=5):
            C = build_circulant(int(qi), p)
            assert np.max(np.abs(C + C.conj().T)) < 1e-12

    def test_circulant_structure_entrywise(self):
        p = ring(2.0, 7)
        C = build_circulant(3, p)
        q = momentum(p, 3)
        h = build_h(p)
        for m in range(7):
            for j in range(7):
                ref = 1j * (1 - np.exp(1j * q * (m - j))) * h[m, j]
                assert C[m, j] == pytest.approx(ref, abs=1e-14)
        # each row is the previous row shifted cyclically
        for m in range(1, 7):
            np.testing.assert_allclose(C[m], np.roll(C[m - 1], 1), atol=1e-14)


class TestUnperturbedSpectrum:
    def test_purely_imaginary(self):
        p = ring(2.0, 11)
        for qi in range(11):
            E0 = unperturbed_spectrum(qi, p)
            assert np.max(np.abs(E0.real)) < 1e-12

    def test_exactly_one_zero_per_nonzero_q(self):
        # q = 0 is the trivial block (C_0 vanishes identically); every other
        # momentum carries exactly one zero mode on an odd ring
        p = ring(1.5, 11)
        for qi in range(1, 11):
            E0 = unperturbed_spectrum(qi, p)
            assert np.sum(np.abs(E0) <= 1e-12) == 1
        assert np.max(np.abs(unperturbed_spectrum(0, p))) == 0.0

    def test_conjugate_pairing(self):
        p = ring(2.0, 9)
        for qi in (1, 4):
            x = np.sort(unperturbed_spectrum(qi, p).imag)
            np.testing.assert_allclose(x, -x[::-1], atol=1e-12)

    def test_matches_dense_diagonalization(self):
        p = ring(1.5, 9)
        for qi in (1, 5):
            E0 = np.sort(unperturbed_spectrum(qi, p).imag)
            dense = np.sort(np.linalg.eigvals(build_circulant(qi, p)).imag)
            np.testing.assert_allclose(E0, dense, atol=1e-9)

    def test_even_N_refused(self):
        with pytest.raises(ValueError, match="odd"):
            unperturbed_spectrum(1, ring(2.0, 10))

    @pytest.mark.parametrize("alpha, qi", [(1.0, 81), (2.0, 89)])
    def test_band_difference_matches_mpmath(self, alpha, qi):
        # level k is i(eps_k - eps_{k-q}), eps_k = 2 sum_{m=1}^{(N-1)/2} h_m cos(2 pi m k / N)
        # (h_0 = 0), summed in 30 digits from the same float row; a complex FFT of the
        # circulant's row i(1 - e^{-iqm}) h_m misses it by up to 1.3e-13, with real parts up to 4.9e-13
        mpmath = pytest.importorskip("mpmath")
        p = ring(alpha, 201)
        h = hopping_row(p)
        with mpmath.workdps(30):
            eps = [
                mpmath.fsum(2 * mpmath.mpf(h[m]) * mpmath.cos(2 * mpmath.pi * m * k / p.N) for m in range(1, 101))
                for k in range(p.N)
            ]
            ref = np.array([float(eps[k] - eps[(k - qi) % p.N]) for k in range(p.N)])
        E0 = unperturbed_spectrum(qi, p)
        assert np.max(np.abs(E0.imag - ref)) <= 1e-14
        assert np.all(E0.real == 0.0)


class TestPerturbativeSpectrum:
    def test_first_order_shift_is_uniform(self):
        p = ring(2.0, 11)
        for qi in (1, 6):
            E0 = unperturbed_spectrum(qi, p)
            E1 = perturbative_spectrum(qi, p, order=1)
            np.testing.assert_allclose(E1 - E0, p.gamma * (11 - 1) / 11, atol=1e-14)

    def test_gamma0_returns_unperturbed(self):
        p = ModelParams(d=1, alpha=2.0, J=1.0, gamma=0.0, N=11, bc="periodic")
        np.testing.assert_allclose(
            perturbative_spectrum(3, p), unperturbed_spectrum(3, p), atol=1e-14
        )

    def test_min_re_approaches_gamma_at_retained_order(self):
        # The real-part correction is first order (second order only moves the
        # imaginary parts), and that is the order retained for the fast-branch
        # claim: every decaying mode decays at gamma (N-1)/N, independent of
        # alpha. Third order adds band-edge outliers where the series
        # self-invalidates (gaps ~ J/N^2), so the minimum is taken at order 2.
        # slow_modes reports the first-order minimum over all N blocks, which
        # is this loop's value exactly, also at N = 301 where order 2 refuses
        # near-degenerate blocks. slow_modes writes that value down without
        # the series: every q != 0 block's levels are exactly imaginary, so
        # its first-order real parts are gamma (N-1)/N to the bit.
        for alpha, N in ((1.0, 51), (2.0, 51), (3.0, 51), (2.0, 61), (2.0, 301), (3.0, 301)):
            p = ring(alpha, N)
            best = math.inf
            for qi in range(p.N):
                if qi:
                    assert np.all(perturbative_spectrum(qi, p, order=1).real == p.gamma * (p.N - 1) / p.N)
                try:
                    re = perturbative_spectrum(qi, p, order=2).real
                except DegenerateSpectrumError:
                    assert N == 301
                    continue
                best = min(best, float(np.min(re[re > 1e-12 * p.gamma])))
            if N < 301:
                assert best == pytest.approx(p.gamma * (p.N - 1) / p.N, rel=0.05)
            assert slow_modes(p).perturbative_min_re == best

    def test_slow_modes_first_order_minimum_is_exact(self):
        # the levels are exactly imaginary, so every first-order real part is gamma (N-1)/N to the bit
        p = ring(2.0, 51)
        assert slow_modes(p).perturbative_min_re == p.gamma * (p.N - 1) / p.N

    def test_third_order_is_real_valued_correction(self):
        p = ring(2.0, 31)
        e2 = perturbative_spectrum(5, p, order=2)
        e3 = perturbative_spectrum(5, p, order=3)
        np.testing.assert_allclose(e3.imag, e2.imag, atol=1e-14)
        assert np.max(np.abs(e3.real - e2.real)) > 0  # third order moves Re only

    def test_near_degenerate_levels_refused(self):
        # shrinking J compresses all unperturbed gaps below the guard
        p = ModelParams(d=1, alpha=3.0, J=1e-10, gamma=0.1, N=11, bc="periodic")
        with pytest.raises(DegenerateSpectrumError):
            perturbative_spectrum(3, p)


class TestSlowModes:
    def test_gamma0_spectrum_is_unperturbed(self):
        # with dephasing off, each dense block reduces to the circulant one
        p = ModelParams(d=1, alpha=1.5, J=1.0, gamma=0.0, N=13, bc="periodic")
        for qi in (1, 5, 9):
            blk = solve_dephasing_block(qi, p)
            got = np.sort(blk.eigenvalues.imag)
            ref = np.sort(unperturbed_spectrum(qi, p).imag)
            np.testing.assert_allclose(got, ref, atol=1e-9)
            assert np.max(np.abs(blk.eigenvalues.real)) < 1e-9

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_block1_slow_root_is_diffusive(self, alpha):
        # past the detachment size the real root of block q = 2 pi / N decays
        # at D q^2, D = sum_r r^2 h(r)^2 / gamma (measured ratio 1.0024 at
        # alpha = 2, 1.0075 at alpha = 3)
        p = ring(alpha, 801)
        blk = solve_dephasing_block(1, p)
        (root,) = blk.eigenvalues.real[blk.branch == "real"]
        q = momentum(p, 1)
        assert root / (sum_r2_hopping_sq(p) / p.gamma * q**2) == pytest.approx(1.0, rel=0.01)

    def test_complex_gap_matches_perturbation(self):
        p = ring(2.0, 51)
        s = slow_modes(p)
        assert s.complex_gap == pytest.approx(p.gamma * (p.N - 1) / p.N, rel=0.05)

    def test_eigen_residual_reported(self):
        p = ring(1.0, 31)
        blk = solve_dephasing_block(4, p)
        assert blk.residual < 1e-8
        assert blk.condition >= 1.0
        assert set(blk.branch) <= {"real", "complex"}

    def test_real_parts_in_physical_range(self):
        p = ring(3.0, 31)
        s = slow_modes(p)
        for blk in s.sets:
            re = blk.eigenvalues.real
            assert np.all(re >= -1e-10)
            assert np.all(re <= p.gamma + 1e-10)


class TestSpectralPropagate:
    def test_t0_reproduces_initial(self):
        p = ring(1.5, 21)
        G0 = initial_g_delta(p)
        got = spectral_propagate_G(G0, p, 0.0)
        np.testing.assert_allclose(got.G, G0.G, atol=1e-10)

    def test_conditioning_guard(self, monkeypatch):
        monkeypatch.setattr(quantum, "COND_LIMIT", 1.0)
        p = ring(1.5, 11)
        with pytest.raises(ConditioningError, match="propagate_G"):
            spectral_propagate_G(initial_g_delta(p), p, 1.0)

    def test_matches_ode_oracle(self):
        p = ring(1.0, 51)
        G0 = initial_g_delta(p)
        t = 250.0
        spec = spectral_propagate_G(G0, p, t)
        ode = propagate_G(G0, p, [t])[0]
        assert np.max(np.abs(spec.density - ode.density)) < 1e-5

    def test_long_time_populations_dominate(self):
        p = ring(1.0, 51)
        cm = spectral_propagate_G(initial_g_delta(p), p, 250.0)
        pop = np.min(np.abs(cm.density))
        coh = np.max(np.abs(cm.G - np.diag(cm.G.diagonal())))
        assert np.min(cm.density) > 0
        assert np.max(cm.density) >= 10 * coh

    def test_weak_dephasing_diffusion_approaches_cme(self):
        # gamma = 0.1, alpha = 2: late-time variance slope vs 2 D_alpha of the
        # classical equation, within 15 percent at N = 201
        from levyexciton.analytic import coefficients

        p = ring(2.0, 201)
        D = coefficients(p).D_alpha
        G0 = initial_g_delta(p)
        ts = np.linspace(14.0, 30.0, 9)
        states = spectral_propagate_G(G0, p, ts)
        var = np.array([variance_of_density(s, origin=p.N // 2) for s in states])
        slope = np.polyfit(ts, var, 1)[0]
        assert slope == pytest.approx(2 * D, rel=0.15)


class TestHermiticityInvariants:
    def test_invariants_at_outputs(self):
        p = ring(2.0, 21, gamma=1.0)
        for cm in propagate_G(initial_g_delta(p), p, [0.5, 2.0, 8.0]):
            assert np.max(np.abs(cm.G - cm.G.conj().T)) < 1e-10
            assert cm.trace() == pytest.approx(1.0, abs=1e-9)
            assert cm.density.min() > -1e-12


def dephasing_block(qi, p):
    """Site-basis block C_q + gamma X, the dense oracle's input."""
    return build_circulant(qi, p) + p.gamma * np.diag((np.arange(p.N) != 0).astype(float))


def sites(W):
    """Plane-wave columns (row k: e^{2 pi i m k / N} / sqrt N) as site amplitudes (row m)."""
    return np.fft.ifft(W, axis=0) * math.sqrt(W.shape[0])


def plane_wave_block(qi, p):
    """The block diag(d) - (gamma/N) 1 1^T that both solver paths diagonalize."""
    return np.diag(unperturbed_spectrum(qi, p) + p.gamma) - p.gamma / p.N


def assert_pairing_diagonal(W):
    # the block is complex symmetric, so W^T W is diagonal
    P = W.T @ W
    off = np.abs(P - np.diag(P.diagonal()))
    assert np.max(off) <= 1e-10 * np.min(np.abs(P.diagonal()))


def set_distance(a, b):
    """Largest gap of the best one-to-one matching between two eigenvalue sets."""
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


class TestSecularSolver:
    @pytest.mark.parametrize("gamma", [0.01, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("N", [31, 61, 101])
    def test_roots_match_dense_eig(self, gamma, N):
        for alpha in (1.0, 2.0, 3.0):
            p = ring(alpha, N, gamma=gamma)
            for qi in (1, N // 4, N // 2, N - 2):
                blk = solve_dephasing_block(qi, p)
                assert blk.solver == "secular"
                M = dephasing_block(qi, p)
                assert set_distance(blk.eigenvalues, np.linalg.eigvals(M)) <= 1e-11
                assert blk.residual <= EIG_RESIDUAL_TOL
                V = sites(blk.eigenvectors)
                assert np.max(np.abs(M @ V - V * blk.eigenvalues)) <= EIG_RESIDUAL_TOL

    def test_q0_block_is_exact(self):
        p = ring(2.0, 21, gamma=0.3)
        blk = solve_dephasing_block(0, p)
        ref = np.full(21, 0.3)
        ref[0] = 0.0
        np.testing.assert_array_equal(blk.eigenvalues, ref)
        M = dephasing_block(0, p)
        V = sites(blk.eigenvectors)
        np.testing.assert_allclose(M @ V, V * blk.eigenvalues, atol=1e-15)
        np.testing.assert_allclose(V.conj().T @ V, np.eye(21), atol=1e-15)

    def test_gamma0_block_is_plane_waves(self):
        p = ring(1.5, 13, gamma=0.0)
        blk = solve_dephasing_block(4, p)
        E0 = unperturbed_spectrum(4, p)
        assert set_distance(blk.eigenvalues, E0) == 0.0
        M = dephasing_block(4, p)
        V = sites(blk.eigenvectors)
        assert np.max(np.abs(M @ V - V * blk.eigenvalues)) <= 1e-13

    def test_eigenvalues_sorted_on_both_paths(self, monkeypatch):
        # by (Re E, Im E); a conjugate pair, equal in Re up to rounding, is
        # listed lower Im first
        p = ring(2.0, 31, gamma=1.0)
        blocks = [solve_dephasing_block(7, p)]
        monkeypatch.setattr(quantum, "_secular_roots", lambda d, rho, z: (z, False))
        blocks.append(solve_dephasing_block(7, p))
        assert [b.solver for b in blocks] == ["secular", "dense"]
        np.testing.assert_allclose(blocks[0].eigenvalues, blocks[1].eigenvalues, atol=1e-11)
        for b in blocks:
            step = np.diff(b.eigenvalues)
            tie = np.abs(step.real) <= 1e-10
            assert tie.any()
            assert np.all(step.real[~tie] > 0)
            assert np.all(step.imag[tie] > 0)

    def test_condition_bound_brackets_dense_cond(self):
        for gamma in (0.1, 10.0):
            p = ring(2.0, 31, gamma=gamma)
            for qi in (0, 3, 15):
                blk = solve_dephasing_block(qi, p)
                V = blk.eigenvectors
                # eigenvalue condition numbers from the rows of V^-1 (left eigenvectors)
                kappa = np.linalg.norm(np.linalg.inv(V), axis=1) * np.linalg.norm(V, axis=0)
                cond = np.linalg.cond(V)
                assert kappa.max() <= cond * (1 + 1e-10)
                assert cond <= blk.condition * (1 + 1e-10)

    def test_unconverged_roots_fall_back_to_dense(self, monkeypatch):
        p = ring(3.0, 31, gamma=0.1)
        secular = solve_dephasing_block(5, p)
        monkeypatch.setattr(quantum, "_secular_roots", lambda d, rho, z: (z, False))
        blk = solve_dephasing_block(5, p)
        assert blk.solver == "dense"
        assert set_distance(blk.eigenvalues, np.linalg.eigvals(dephasing_block(5, p))) <= 1e-12
        np.testing.assert_allclose(blk.eigenvalues, secular.eigenvalues, atol=1e-11)
        # the propagator uses the dense blocks the same way
        G0 = initial_g_delta(p)
        ode = propagate_G(G0, p, [3.0])[0]
        spec = spectral_propagate_G(G0, p, 3.0)
        assert np.max(np.abs(spec.G - ode.G)) < 1e-8

    def test_near_degenerate_block_and_its_mirror(self):
        # N = 201, alpha = 2, gamma = 10: two unperturbed levels of block 67 lie 2e-8
        # apart, and a root between them leaves the secular eigenvectors' residual
        # above EIG_RESIDUAL_TOL; whichever path solves it, block and mirror must be right
        p = ring(2.0, 201, gamma=10.0)
        got = {}
        for s in quantum._blocks(p):
            if s.q_index in (67, 134):
                got[s.q_index] = s
            if len(got) == 2:
                break
        for qi, s in got.items():
            M = dephasing_block(qi, p)
            assert set_distance(s.eigenvalues, np.linalg.eigvals(M)) <= 1e-11
            assert s.residual <= EIG_RESIDUAL_TOL
            V = sites(s.eigenvectors)
            assert np.max(np.abs(M @ V - V * s.eigenvalues)) <= EIG_RESIDUAL_TOL

    def test_block_minus_q_is_the_mirror_of_block_q(self):
        p = ring(1.0, 41, gamma=0.5)
        sets = solve_dephasing_spectrum(p)
        assert [s.q_index for s in sets] == list(range(41))
        for qi in (1, 20, 21, 40):
            s = sets[qi]
            M = dephasing_block(qi, p)
            V = sites(s.eigenvectors)
            assert np.max(np.abs(M @ V - V * s.eigenvalues)) <= EIG_RESIDUAL_TOL
            assert set_distance(s.eigenvalues, np.linalg.eigvals(M)) <= 1e-11

    def test_pairing_is_diagonal_on_every_path(self, monkeypatch):
        # w_j is its own unconjugated left eigenvector: secular, q = 0 and dense blocks
        p = ring(2.0, 31, gamma=1.0)
        blocks = [solve_dephasing_block(7, p), solve_dephasing_block(0, p)]
        monkeypatch.setattr(quantum, "_secular_roots", lambda d, rho, z: (z, False))
        blocks.append(solve_dephasing_block(7, p))
        assert [b.solver for b in blocks] == ["secular", "secular", "dense"]
        for b in blocks:
            assert_pairing_diagonal(b.eigenvectors)

    def test_dense_residual_is_the_plane_wave_column_residual(self, monkeypatch):
        monkeypatch.setattr(quantum, "_secular_roots", lambda d, rho, z: (z, False))
        p = ring(3.0, 31, gamma=1.0)
        blk = solve_dephasing_block(5, p)
        assert blk.solver == "dense"
        M, W = plane_wave_block(5, p), blk.eigenvectors
        # both are rounding-level sums, so they agree to rounding, not bit for bit
        assert blk.residual == pytest.approx(np.max(np.linalg.norm(M @ W - W * blk.eigenvalues, axis=0)), rel=0.05)
        assert blk.residual <= EIG_RESIDUAL_TOL

    def test_slow_modes_counts_mirrored_blocks(self):
        # the summary holds every block of the full solve, q by q, without eigenvectors
        p = ring(2.0, 31, gamma=1.0)
        summary = slow_modes(p)
        full = solve_dephasing_spectrum(p)
        assert [s.q_index for s in summary.sets] == [s.q_index for s in full] == list(range(31))
        for s, f in zip(summary.sets, full):
            assert s.eigenvectors is None
            assert np.array_equal(s.eigenvalues, f.eigenvalues)
            assert np.array_equal(s.branch, f.branch)
        assert summary.n_real == sum(int(np.sum((s.branch == "real") & (s.eigenvalues.real > 1e-12))) for s in full)


class TestBlockWalk:
    def test_each_half_block_solved_once_and_all_blocks_covered(self, monkeypatch):
        # the walk solves q = 0..(N-1)/2 once each, in order, and mirrors the rest
        p = ring(2.0, 21, gamma=1.0)
        solved = []
        solve = quantum.solve_dephasing_block

        def counting(q_index, params):
            solved.append(q_index)
            return solve(q_index, params)

        monkeypatch.setattr(quantum, "solve_dephasing_block", counting)
        for blocks in (solve_dephasing_spectrum, lambda p: slow_modes(p).sets):
            sets = blocks(p)
            assert solved == list(range(11))
            assert [s.q_index for s in sets] == list(range(21))
            solved.clear()
        states = spectral_propagate_G(initial_g_delta(p), p, [0.5, 2.0])
        assert solved == list(range(11))
        ode = propagate_G(initial_g_delta(p), p, [0.5, 2.0])
        assert max(np.max(np.abs(a.G - b.G)) for a, b in zip(states, ode)) < 1e-8

    def test_spectrum_rows_format_each_mirror_pair_once(self):
        p = ring(2.0, 21, gamma=1.0)
        sets = solve_dephasing_spectrum(p)
        rows = list(quantum.spectrum_rows(sets))
        plain = [
            (str(s.q_index), str(k), format_float(E.real), format_float(E.imag), str(s.branch[k]))
            for s in sets
            for k, E in enumerate(s.eigenvalues)
        ]
        assert rows == plain
        by_q = {int(r[0]): [] for r in rows}
        for r in rows:
            by_q[int(r[0])].append(r)
        for q in range(1, 11):  # block N - q reuses block q's strings
            assert all(a[2] is b[2] and a[3] is b[3] for a, b in zip(by_q[q], by_q[21 - q]))
        # sets that share no arrays give the same rows
        copies = [replace(s, eigenvalues=s.eigenvalues.copy(), branch=s.branch.copy()) for s in sets]
        assert list(quantum.spectrum_rows(copies)) == plain


class TestPropagatorParity:
    @pytest.mark.parametrize("grid", [[-1.0], [0.0, 2.0, 1.0], [1.0, 1.0], [np.nan], [1.0, np.inf]])
    @pytest.mark.parametrize("propagate", [propagate_G, spectral_propagate_G])
    def test_bad_time_grid_refused(self, propagate, grid):
        p = ring(2.0, 11)
        with pytest.raises(ValueError, match="strictly increasing and non-negative"):
            propagate(initial_g_delta(p), p, grid)

    @pytest.mark.parametrize("propagate", [propagate_G, spectral_propagate_G])
    def test_grid_of_only_t0_returns_initial_state(self, propagate):
        p = ring(2.0, 11)
        G0 = initial_g_delta(p)
        (state,) = propagate(G0, p, [0.0])
        assert state.t == 0.0
        assert np.max(np.abs(state.G - G0.G)) < 1e-12

    @pytest.mark.parametrize("propagate", [propagate_G, spectral_propagate_G])
    def test_t0_state_is_the_input_bit_for_bit(self, propagate):
        # a pure state of random amplitudes: the spectral FFT round trip moves
        # it by rounding, so t = 0 must not go through the propagator at all
        p = ring(2.0, 21, gamma=1.0)
        rng = np.random.default_rng(7)
        psi = rng.normal(size=21) + 1j * rng.normal(size=21)
        G0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        states = propagate(G0.copy(), p, [0.0, 1.0])
        assert states[0].t == 0.0
        assert np.array_equal(states[0].G, G0)
        assert states[1].G is not states[0].G

    @pytest.mark.parametrize("propagate", [propagate_G, spectral_propagate_G])
    def test_scalar_time_gives_one_state(self, propagate):
        p = ring(2.0, 11)
        G0 = initial_g_delta(p)
        state = propagate(G0, p, 1.0)
        assert isinstance(state, CorrelationMatrix)
        assert state.t == 1.0
        assert np.array_equal(state.G, propagate(G0, p, [1.0])[0].G)

    def test_scalar_negative_time_refused(self):
        p = ring(2.0, 11)
        with pytest.raises(ValueError, match="strictly increasing and non-negative"):
            spectral_propagate_G(initial_g_delta(p), p, -1.0)

    @pytest.mark.parametrize("propagate", [propagate_G, spectral_propagate_G])
    def test_invariant_breach_raises(self, propagate):
        # a non-Hermitian start fails the hermiticity check at the first output
        p = ring(2.0, 11)
        G = initial_g_delta(p).G
        G[0, 1] = 0.5
        with pytest.raises(InvariantError, match="hermiticity"):
            propagate(G, p, [0.0, 1.0])

    def test_spectral_states_pass_invariants(self):
        p = ring(2.0, 21, gamma=1.0)
        for cm in spectral_propagate_G(initial_g_delta(p), p, [0.5, 2.0, 8.0]):
            assert np.max(np.abs(cm.G - cm.G.conj().T)) < 1e-10
            assert cm.trace() == pytest.approx(1.0, abs=1e-9)
            assert cm.density.min() > -1e-12
