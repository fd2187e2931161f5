import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq, linear_sum_assignment

from levyexciton.model import ModelParams, sum_r2_hopping_sq
from levyexciton import quantum
from levyexciton.quantum import (
    EIG_RESIDUAL_TOL,
    ConditioningError,
    CorrelationMatrix,
    DegenerateSpectrumError,
    PropagationError,
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
        for alpha in (1.0, 2.0, 3.0):
            p = ring(alpha, 51)
            best = math.inf
            for qi in range(p.N):
                re = perturbative_spectrum(qi, p, order=2).real
                best = min(best, float(np.min(re[re > 1e-12 * p.gamma])))
            assert best == pytest.approx(p.gamma * (p.N - 1) / p.N, rel=0.05)

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
        s = slow_modes(p, keep_sets=True)
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

    def test_conditioning_guard(self):
        from levyexciton.quantum import ConditioningError

        p = ring(1.5, 11)
        with pytest.raises(ConditioningError, match="propagate_G"):
            spectral_propagate_G(initial_g_delta(p), p, 1.0, cond_limit=1.0)

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
                V = blk.eigenvectors
                assert np.max(np.abs(M @ V - V * blk.eigenvalues)) <= EIG_RESIDUAL_TOL

    def test_q0_block_is_exact(self):
        p = ring(2.0, 21, gamma=0.3)
        blk = solve_dephasing_block(0, p)
        ref = np.full(21, 0.3)
        ref[0] = 0.0
        np.testing.assert_array_equal(blk.eigenvalues, ref)
        M = dephasing_block(0, p)
        V = blk.eigenvectors
        np.testing.assert_allclose(M @ V, V * blk.eigenvalues, atol=1e-15)
        np.testing.assert_allclose(V.conj().T @ V, np.eye(21), atol=1e-15)

    def test_gamma0_block_is_plane_waves(self):
        p = ring(1.5, 13, gamma=0.0)
        blk = solve_dephasing_block(4, p)
        E0 = unperturbed_spectrum(4, p)
        assert set_distance(blk.eigenvalues, E0) == 0.0
        M = dephasing_block(4, p)
        V = blk.eigenvectors
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

    def test_block_minus_q_is_the_mirror_of_block_q(self):
        p = ring(1.0, 41, gamma=0.5)
        sets = solve_dephasing_spectrum(p)
        assert [s.q_index for s in sets] == list(range(41))
        for qi in (1, 20, 21, 40):
            s = sets[qi]
            M = dephasing_block(qi, p)
            V = s.eigenvectors
            assert np.max(np.abs(M @ V - V * s.eigenvalues)) <= EIG_RESIDUAL_TOL
            assert set_distance(s.eigenvalues, np.linalg.eigvals(M)) <= 1e-11

    def test_slow_modes_counts_mirrored_blocks(self):
        p = ring(2.0, 31, gamma=1.0)
        half = slow_modes(p)
        full = slow_modes(p, keep_sets=True)
        assert len(full.sets) == 31 and half.sets == []
        assert (half.real_gap, half.complex_gap, half.n_real) == (full.real_gap, full.complex_gap, full.n_real)
        assert full.n_real == sum(int(np.sum((s.branch == "real") & (s.eigenvalues.real > 1e-12))) for s in full.sets)


class TestPropagatorParity:
    @pytest.mark.parametrize("grid", [[-1.0], [0.0, 2.0, 1.0], [1.0, 1.0], [np.nan]])
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
        with pytest.raises(PropagationError, match="hermiticity"):
            propagate(G, p, [0.0, 1.0])

    def test_spectral_states_pass_invariants(self):
        p = ring(2.0, 21, gamma=1.0)
        for cm in spectral_propagate_G(initial_g_delta(p), p, [0.5, 2.0, 8.0]):
            assert np.max(np.abs(cm.G - cm.G.conj().T)) < 1e-10
            assert cm.trace() == pytest.approx(1.0, abs=1e-9)
            assert cm.density.min() > -1e-12
