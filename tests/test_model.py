import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from levyexciton import classical, quantum
from levyexciton.model import (
    InvariantError,
    ModelParams,
    classical_rate,
    escape_rate,
    finite_lattice_sum,
    hopping_amplitude,
    min_image,
    open_line_rates,
    ring_rate_row,
    sum_r2_hopping_sq,
)


def ring(N=16, alpha=2.0, J=1.0, gamma=10.0, bc="periodic", d=1):
    return ModelParams(d=d, alpha=alpha, J=J, gamma=gamma, N=N, bc=bc)


class TestParams:
    def test_kappa_value(self):
        assert ring(J=1.0, gamma=10.0).kappa == pytest.approx(0.2, abs=1e-15)

    def test_kappa_requires_positive_gamma(self):
        p = ModelParams(d=1, alpha=2.0, J=1.0, gamma=0.0, N=8)
        with pytest.raises(ValueError):
            p.kappa

    def test_thermodynamic_refusal(self):
        p = ModelParams(d=2, alpha=1.0, J=1.0, gamma=1.0, N=8)
        with pytest.raises(ValueError):
            p.require_thermodynamic()
        ModelParams(d=2, alpha=1.01, J=1.0, gamma=1.0, N=8).require_thermodynamic()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("d", 0),
            ("d", 4),
            ("N", 1),
            ("bc", "twisted"),
            ("alpha", -1.0),
            ("alpha", float("nan")),
            ("J", float("inf")),
            ("gamma", float("nan")),
            ("gamma", float("inf")),
            ("gamma", -1.0),
            ("N", 2.5),
            ("d", 1.5),
        ],
    )
    def test_validation(self, field, value):
        kw = dict(d=1, alpha=2.0, J=1.0, gamma=1.0, N=8, bc="periodic")
        kw[field] = value
        with pytest.raises(ValueError):
            ModelParams(**kw)

    def test_zero_dephasing_and_numpy_integers_are_legal(self):
        p = ModelParams(d=np.int64(1), alpha=2.0, J=1.0, gamma=0.0, N=np.int64(9))
        assert p.n_sites == 9

    def test_config_round_trip(self):
        p = ModelParams(d=2, alpha=1.75, J=0.5, gamma=3.0, N=64, bc="open")
        assert ModelParams.from_config(p.to_config()) == p

    def test_config_round_trip_with_numpy_scalars(self):
        p = ModelParams(d=np.int64(1), alpha=np.float64(2.0), J=np.float64(0.5), gamma=np.float64(3.0), N=np.int64(9))
        assert p.to_config() == {"d": "1", "alpha": "2.0", "J": "0.5", "gamma": "3.0", "N": "9", "bc": "periodic"}
        assert ModelParams.from_config(p.to_config()) == p

    def test_config_rejects_unknown_keys(self):
        block = ring().to_config()
        block["typo"] = "1"
        with pytest.raises(ValueError, match="unknown"):
            ModelParams.from_config(block)


class TestIndexing:
    @given(st.integers(2, 50), st.integers(-200, 200))
    def test_min_image_bound(self, N, delta):
        assert abs(int(min_image(delta, N))) <= N // 2


class TestHopping:
    def test_open_power_law(self):
        p = ring(alpha=3.0, bc="open")
        assert hopping_amplitude(p, 2) == pytest.approx(0.125, abs=1e-15)

    def test_ring_image_sum(self):
        p = ring(N=5, alpha=1.0)
        assert hopping_amplitude(p, 1) == pytest.approx(1.25, abs=1e-15)

    def test_even_in_r(self):
        rng = np.random.default_rng(7)
        p = ring(N=31, alpha=1.7)
        po = ring(N=31, alpha=1.7, bc="open")
        for r in rng.integers(1, 15, size=100):
            assert hopping_amplitude(p, int(r)) == pytest.approx(hopping_amplitude(p, -int(r)), rel=1e-15)
            assert hopping_amplitude(po, int(r)) == pytest.approx(hopping_amplitude(po, -int(r)), rel=1e-15)

    def test_zero_displacement_rejected(self):
        with pytest.raises(ValueError):
            hopping_amplitude(ring(), 0)
        with pytest.raises(ValueError):
            hopping_amplitude(ring(N=8), 8)  # wraps onto the same site
        with pytest.raises(ValueError):
            hopping_amplitude(ring(N=8, bc="open"), 8)  # leaves the chain


class TestClassicalRate:
    def test_nearest_neighbor(self):
        assert classical_rate(ring(alpha=1.0), 1) == pytest.approx(0.2, abs=1e-15)

    def test_power_evaluation(self):
        got = classical_rate(ring(alpha=2.0, bc="open"), 3)
        assert got == pytest.approx(0.2 / 81, rel=1e-14)

    def test_pair_symmetry_on_ring(self):
        p = ring(N=16)
        for j in range(16):
            for m in range(16):
                if j == m:
                    continue
                assert classical_rate(p, m - j) == pytest.approx(classical_rate(p, j - m), rel=1e-15)

    def test_rates_positive_finite(self):
        p = ring(N=33, alpha=1.2)
        row = ring_rate_row(p)
        assert np.all(row[1:] > 0)
        assert np.all(np.isfinite(row))

    def test_zero_displacement_rejected(self):
        with pytest.raises(ValueError):
            classical_rate(ring(), 0)
        with pytest.raises(ValueError):
            classical_rate(ring(N=8), 8)  # wraps onto the same site


class TestEscape:
    def test_open_escape_monotone_in_N(self):
        vals = [escape_rate(ring(N=N, alpha=1.0, bc="open")) for N in (9, 17, 33, 65)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_open_escape_approaches_infinite_sum(self):
        from levyexciton.analytic import lattice_sum

        p = ring(N=20001, alpha=1.5, bc="open")
        inf = p.kappa * lattice_sum(3.0, 1)
        assert escape_rate(p) == pytest.approx(inf, rel=1e-6)


ALPHAS = (1.0, 1.5, 2.0, 3.0)


class TestConventions:
    """Each kernel a solver indexes agrees with the one-displacement functions."""

    @pytest.mark.parametrize("bc", ["periodic", "open"])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_build_h_is_hopping_amplitude(self, alpha, bc):
        from levyexciton.quantum import build_h

        p = ring(N=33, alpha=alpha, J=0.7, bc=bc)
        H = build_h(p)
        amp = [[hopping_amplitude(p, i - j) if i != j else 0.0 for j in range(p.N)] for i in range(p.N)]
        assert np.array_equal(H, amp)

    @pytest.mark.parametrize("d, N", [(1, 64), (2, 12)])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_ring_rate_row_is_classical_rate(self, alpha, d, N):
        p = ring(N=N, alpha=alpha, d=d)
        row = ring_rate_row(p)
        for r in np.ndindex(p.shape):
            if any(r):
                assert row[r] == classical_rate(p, r)

    @pytest.mark.parametrize("d, N", [(1, 33), (1, 32), (2, 9), (3, 6)])
    @pytest.mark.parametrize("bc", ["periodic", "open"])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_escape_rate_is_kappa_times_lattice_sum(self, alpha, bc, d, N):
        # the finite sum over the source site's displacements, against its rates one by one
        p = ring(N=N, alpha=alpha, d=d, bc=bc)
        assert escape_rate(p) == p.kappa * finite_lattice_sum(2 * alpha, N, d, bc)
        axis = range(-(N // 2), N - N // 2) if bc == "periodic" else range(-((N - 1) // 2), N - (N - 1) // 2)
        rates = [classical_rate(p, r) for r in itertools.product(axis, repeat=d) if any(r)]
        assert escape_rate(p) == pytest.approx(math.fsum(rates), rel=1e-13)

    @pytest.mark.parametrize("N", [33, 32])
    @pytest.mark.parametrize("bc", ["periodic", "open"])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_sum_r2_hopping_sq_sums_hopping_amplitude(self, alpha, bc, N):
        # the displacement set from the source site; h depends on |r| only
        p = ring(N=N, alpha=alpha, J=0.7, bc=bc)
        ref = math.fsum(r * r * hopping_amplitude(p, r) ** 2 for r in range(-(N // 2), N - N // 2) if r)
        assert sum_r2_hopping_sq(p) == pytest.approx(ref, rel=1e-15)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_open_line_rates_match_classical_rate(self, alpha):
        # the exclusion chain, its dual walk and the open convolution grid all
        # read kappa (r^2)^(-alpha), bit for bit (kappa = 1 keeps every bit)
        p = ring(N=400, alpha=alpha, gamma=2.0, bc="open")
        w = open_line_rates(p)[1:]
        assert np.array_equal(w, [classical_rate(p, r) for r in range(1, p.N)])


# -- the propagators' frame ------------------------------------------------------

FRAME_RING = ModelParams(d=1, alpha=2.0, J=1.0, gamma=1.0, N=11, bc="periodic")
FRAME_TORUS = ModelParams(d=2, alpha=1.5, J=1.0, gamma=10.0, N=33, bc="periodic")  # its t = 0 ifftn is off the delta
G_DELTA = quantum.initial_g_delta(FRAME_RING)
N_DELTA = classical.DensityProfile(0.0, np.eye(1, FRAME_TORUS.n_sites).reshape(FRAME_TORUS.shape), "periodic")


def _one_term_series(monkeypatch):
    # e^{-gamma t/2} (1 + t L') keeps only e^{-x}(1 + x) of the trace
    monkeypatch.setattr(quantum, "TAYLOR_DEGREE", 1)


def _shifted_blocks(monkeypatch):
    # every mode, the steady one too, decays at an extra rate 1e-3
    solve = quantum.solve_dephasing_block

    def shifted(qi, p):
        s = solve(qi, p)
        return replace(s, eigenvalues=s.eigenvalues + 1e-3)

    monkeypatch.setattr(quantum, "solve_dephasing_block", shifted)


def _draining_generator(monkeypatch):
    generator = classical._generator

    def leaky(p):
        apply, a = generator(p)
        return (lambda n: apply(n) - 0.01 * a * n), a

    monkeypatch.setattr(classical, "_generator", leaky)


def _draining_ring(monkeypatch):
    eigenvalues = classical._ring_eigenvalues
    monkeypatch.setattr(classical, "_ring_eigenvalues", lambda p: eigenvalues(p) - 1e-3)


def _array(state):
    return state.G if isinstance(state, quantum.CorrelationMatrix) else state.values


@pytest.mark.parametrize(
    "run, start, leak",
    [
        (lambda t: quantum.propagate_G(G_DELTA, FRAME_RING, t), G_DELTA, _one_term_series),
        (lambda t: quantum.spectral_propagate_G(G_DELTA, FRAME_RING, t), G_DELTA, _shifted_blocks),
        (lambda t: classical.cme_integrate(N_DELTA, FRAME_TORUS, t), N_DELTA, _draining_generator),
        (lambda t: classical.cme_spectral_solve(FRAME_TORUS, t), N_DELTA, _draining_ring),
    ],
    ids=["propagate_G", "spectral_propagate_G", "cme_integrate", "cme_spectral_solve"],
)
def test_every_propagator_runs_in_the_frame(monkeypatch, run, start, leak):
    # the t = 0 state is the start bit for bit, a scalar time gives one state,
    # and a generator that loses population is refused with the typed error
    zero, later = run([0.0, 0.5])
    assert zero.t == 0.0 and np.array_equal(_array(zero), _array(start))
    one = run(0.5)
    assert not isinstance(one, list) and one.t == 0.5 and np.array_equal(_array(one), _array(later))
    leak(monkeypatch)
    with pytest.raises(InvariantError, match="population sum drifted"):
        run([0.0, 1.0])
