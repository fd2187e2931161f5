"""Single-exciton quantum dynamics with local dephasing (d = 1).

State: the two-point correlation matrix G_{jm} = <S+_j S-_m>, which obeys
the closed linear equation

    dG/dt = i [h^T, G] - gamma (G - diag G),

with h the single-particle hopping matrix. Populations are the diagonal;
dephasing damps only coherences. ``propagate_G`` applies e^{Lt} of this
generator L as e^{-gamma t/2} e^{L't}, by a Taylor series of L' = L + gamma/2
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011) over steps with
||L'|| H <= ``TAYLOR_THETA`` = 8, at the degree ``TAYLOR_DEGREE`` = 50 that
rounds the truncation error away; it is within 2.1e-14 of dense ``expm``.
Both G propagators run in the frame :func:`levyexciton.model.propagated`.
Besides direct propagation the module carries the weak-dephasing spectral
machinery: for each momentum q of the translation-invariant ring the
evolution block is C_q + gamma X with C_q an anti-Hermitian circulant and
X = diag(1 - delta_{m,0}); eigenvalues E give decay modes e^{-E t},
perturbation theory in gamma gives the fast branch, and the exact spectrum
exposes the slow (non-perturbative) one.

Every block is solved, checked and stored in the plane-wave basis, where it
is the complex symmetric diag(d) - (gamma/N) 1 1^T, d = E0 + gamma with E0
the circulant's levels i(eps_k - eps_{k-q}), eps the band (one real FFT of
the hopping row): its roots solve (gamma/N) sum_k 1/(d_k - E) = 1, its
eigenvectors are (D - E)^-1 1 (Golub, SIAM Rev. 15, 1973), each its own
unconjugated left eigenvector (Horn & Johnson, Matrix Analysis, 4.4). Dense
``eig`` of the same matrix is the fallback, under the same check; only
``spectral_propagate_G`` maps to sites. Blocks q and -q are transposes of each
other, so one walk (``_blocks``) solves (N + 1)/2 blocks and mirrors the rest;
a mirror shares its block's eigenvalues, which the propagator's decay factors
and the spectrum rows use.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np
import scipy.fft

from .model import InvariantError, ModelParams, axis_moments, format_float, hopping_row, propagated, sum_r2_hopping_sq
from .model import write_csv

HERMITICITY_TOL = 1e-10
REAL_BRANCH_IM_TOL = 1e-9
EIG_RESIDUAL_TOL = 1e-8
COND_LIMIT = 1e8  # largest eigenbasis condition bound spectral_propagate_G accepts
DEGENERACY_GAP = 1e-8
SECULAR_MAX_SWEEPS = 200
SORT_TIE_TOL = 1e-10
TAYLOR_THETA = 8.0  # bound on ||L' H|| over one step of propagate_G; 12 loses digits on rings
TAYLOR_DEGREE = next(
    m for m in range(1, 200) if math.exp(TAYLOR_THETA) * TAYLOR_THETA ** (m + 1) / math.factorial(m + 1) <= 2.0**-53
)
# one Taylor step costs about a (N^3 + TAYLOR_STEP_OVERHEAD), the constant being its fixed Python and call
# cost: timed on open chains on a 2-vCPU host with one BLAS thread, 0.66 ms per step at N = 11, 1.9 ms at
# N = 41 and 25 ms at N = 128, so a ~ 1.2e-8 s and the constant ~ 0.66 ms / a ~ 37^3
TAYLOR_STEP_OVERHEAD = 5e4
TAYLOR_MAX_WORK = 1e9  # largest steps x (N^3 + TAYLOR_STEP_OVERHEAD) propagate_G takes on: ~12-16 s at any N

_log = logging.getLogger(__name__)
_ring_h_row = hopping_row  # the name perfbench/tracer.py spans for the ring row


class DegenerateSpectrumError(RuntimeError):
    """Unperturbed levels too close for the perturbative corrections."""


class ConditioningError(RuntimeError):
    """Spectral propagation refused: eigenbasis too ill-conditioned."""


class SpectralError(RuntimeError):
    """Dense diagonalization failed for a momentum block."""


class TaylorWorkError(RuntimeError):
    """propagate_G refused: its Taylor series would take more than ``TAYLOR_MAX_WORK`` steps x (N^3 + c)."""


def build_h(params: ModelParams) -> np.ndarray:
    """Single-particle hopping matrix h[i, j] = h(|i - j|) under the parameter set's bc.

    h is :func:`levyexciton.model.hopping_row`: two images on rings (whose
    row is even, h(r) = h(N - r)), J / r^a on open chains. Symmetric with
    zero diagonal.
    """
    if params.d != 1:
        raise ValueError("quantum layer is one-dimensional")
    idx = np.arange(params.N)
    return hopping_row(params)[np.abs(idx[:, None] - idx[None, :])]


@dataclass
class CorrelationMatrix:
    """Two-point correlation state at one time.

    Hermitian, unit trace for a single exciton, real non-negative diagonal
    (the exciton density n_j = G_jj).
    """

    t: float
    G: np.ndarray
    bc: str

    def check(self):
        G = self.G
        herm = float(np.max(np.abs(G - G.conj().T)))
        if herm > HERMITICITY_TOL:
            raise InvariantError(f"hermiticity violated: {herm:.3e} at t = {self.t}")
        return self

    @property
    def density(self) -> np.ndarray:
        return self.G.diagonal().real

    def trace(self) -> float:
        return float(self.G.trace().real)


def initial_g_delta(params: ModelParams, site: int | None = None) -> CorrelationMatrix:
    """Exciton localized on one site (default: the chain center)."""
    N = params.N
    if site is None:
        site = N // 2
    G = np.zeros((N, N), dtype=complex)
    G[site, site] = 1.0
    return CorrelationMatrix(0.0, G, params.bc)


def _states(G0, params: ModelParams, t, evolve) -> CorrelationMatrix | list[CorrelationMatrix]:
    """The G propagators' frame: ``evolve(G0, ts)`` gives G at ts > 0; the populations are the checked G's density."""
    G0 = np.array(G0.G if isinstance(G0, CorrelationMatrix) else G0, dtype=complex)

    def states(ts):
        return [CorrelationMatrix(float(tv), G, params.bc) for tv, G in zip(ts, evolve(G0, ts))]

    return propagated(t, CorrelationMatrix(0.0, G0, params.bc), states, lambda cm: cm.check().density)


def propagate_G(G0: CorrelationMatrix, params: ModelParams, t_grid) -> CorrelationMatrix | list[CorrelationMatrix]:
    """Propagate G by a Taylor series of the shifted dephasing generator.

    e^{Lt} = e^{-gamma t/2} e^{L't}, L' = L + gamma/2, and ||L'|| is at most
    (max - min level of h) + gamma/2: the commutator with h is normal and
    gamma(diag - 1/2) has norm gamma/2. The span to the last output time is
    cut into the fewest equal steps H with ||L'|| H <= ``TAYLOR_THETA``; the
    degree m = ``TAYLOR_DEGREE`` is the smallest with e^theta theta^(m+1) /
    (m+1)! <= 2^-53. Each step's start forms the terms (H^k/k!) L'^k G once,
    and every output time in the step, and the next start, is their
    polynomial in tau/H times e^{-gamma tau/2}. h is real symmetric, so L'
    takes real matrix products: h G on G's float view, G h as (h G^T)^T, for
    any G. The largest entry error against dense ``expm`` is 2.1e-14 (N = 21,
    gamma = 0.1 to 100). The norm bound, H and the work are logged at DEBUG;
    above ``TAYLOR_MAX_WORK`` steps x (N^3 + c), c = ``TAYLOR_STEP_OVERHEAD``
    the fixed cost of a step, :class:`TaylorWorkError` is raised first.

    The output times, the t = 0 state (G0 exactly) and the invariant checks
    come from the frame, :func:`_states`.
    """
    N, gamma = params.N, params.gamma
    h = build_h(params)
    levels = np.linalg.eigvalsh(h)
    norm = float(levels[-1] - levels[0]) + gamma / 2
    diag = np.diag_indices(N)
    k = np.arange(TAYLOR_DEGREE + 1)

    def evolve(G, ts):
        anchors = max(1, math.ceil(norm * ts[-1] / TAYLOR_THETA))
        if anchors * (N**3 + TAYLOR_STEP_OVERHEAD) > TAYLOR_MAX_WORK:
            msg = f"{anchors} Taylor steps at N = {N} to t = {ts[-1]:g} (generator norm {norm:.3g})"
            limit = f"{TAYLOR_MAX_WORK:.0e} steps x (N^3 + {TAYLOR_STEP_OVERHEAD:.0e})"
            raise TaylorWorkError(f"propagate_G would take {msg}; refused above {limit}")
        H = ts[-1] / anchors
        _log.debug(
            "propagate_G: norm = %.6g, H = %.6g, degree = %d, anchors = %d, applications = %d",
            norm, H, TAYLOR_DEGREE, anchors, anchors * TAYLOR_DEGREE,
        )
        step_of = np.minimum((ts // H).astype(int), anchors - 1)
        U = np.empty((k.size, N, N), dtype=complex)
        out = np.empty((ts.size, N, N), dtype=complex)
        for a in range(anchors):
            U[0] = G
            for j in k[1:]:
                X, c = U[j - 1], H / j
                U[j] = (h @ X.view(float)).view(complex) - (h @ X.T.copy().view(float)).view(complex).T
                U[j] *= 1j * c
                U[j] -= (c * gamma / 2) * X
                U[j][diag] += (c * gamma) * X.diagonal()
            here = np.flatnonzero(step_of == a)
            tau = np.append(ts[here] - a * H, H)  # the last row starts the next step
            w = (tau[:, None] / H) ** k * np.exp(-gamma * tau / 2)[:, None]
            rows = (w @ U.reshape(k.size, -1).view(float)).view(complex).reshape(-1, N, N)
            out[here] = rows[:-1]
            G = rows[-1]
        return out

    return _states(G0, params, t_grid, evolve)


def variance_of_density(cm: CorrelationMatrix, origin: int | None = None) -> float:
    """Variance of the exciton density in displacements from ``origin``.

    The default origin is the site N // 2 that :func:`initial_g_delta`
    excites, on both bcs; rings measure the minimum image.
    """
    n = cm.density
    return axis_moments(n, n.size // 2 if origin is None else origin, cm.bc)[1]


def variance_closed_form(params: ModelParams, t) -> np.ndarray:
    """Exact infinite-lattice variance law, evaluated with the finite kernel.

    2 sum_r r^2 H_r^2 / gamma^2 * (gamma t + e^{-gamma t} - 1): ballistic
    sum_r r^2 H_r^2 t^2 for gamma t << 1, diffusive slope 2 sum r^2 H_r^2 /
    gamma for gamma t >> 1. The displacement sum runs over the finite
    lattice; for alpha <= (d+2)/2 it diverges with N and results are reported
    normalized by it.
    """
    S = sum_r2_hopping_sq(params)
    gamma = params.gamma
    tt = np.asarray(t, dtype=float)
    out = 2.0 * S / gamma**2 * (gamma * tt + np.exp(-gamma * tt) - 1.0)
    return out if out.ndim else float(out)


# -- weak-dephasing spectral machinery -----------------------------------------


def _require_odd_ring(params: ModelParams):
    if params.bc != "periodic" or params.d != 1:
        raise ValueError("spectral machinery requires a one-dimensional ring")
    if params.N % 2 == 0:
        raise ValueError(
            "even rings have exact degeneracies in the unperturbed spectrum; use odd N"
        )


def momentum(params: ModelParams, q_index: int) -> float:
    return 2.0 * math.pi * q_index / params.N


def build_circulant(q_index: int, params: ModelParams) -> np.ndarray:
    """Anti-Hermitian circulant block C_q with entries i[1 - e^{iq(m-j)}] h_{m,j}."""
    _require_odd_ring(params)
    q = momentum(params, q_index)
    m = np.arange(params.N)
    return 1j * (1.0 - np.exp(1j * q * (m[:, None] - m[None, :]))) * build_h(params)


def unperturbed_spectrum(q_index: int, params: ModelParams) -> np.ndarray:
    """Eigenvalues of C_q: i(eps_k - eps_{k-q}), with real parts exactly 0.

    Entry k belongs to the plane wave e^{2 pi i m k / N} / sqrt N, whose
    coherence with plane wave k - q oscillates at the band-energy difference
    (Haken & Strobl, Z. Phys. 262, 1973); the band eps_k = sum_m h_m e^{2 pi
    i m k / N} is real, as the ring row is even, so one real FFT of
    :func:`levyexciton.model.hopping_row` gives every level. For odd N
    exactly one eigenvalue vanishes per momentum and the remainder come in
    conjugate pairs.
    """
    _require_odd_ring(params)
    eps = np.fft.rfft(hopping_row(params)).real
    eps = np.concatenate((eps, eps[:0:-1]))  # eps_{N-k} = eps_k
    E0 = np.zeros(params.N, dtype=complex)
    E0.imag = eps - eps[(np.arange(params.N) - q_index) % params.N]
    return E0


def perturbative_spectrum(q_index: int, params: ModelParams, order: int = 3) -> np.ndarray:
    """Dephasing-corrected eigenvalues through third order in gamma.

    E = E0 + gamma (N-1)/N - i gamma^2 d2 + gamma^3 d3, with the second- and
    third-order coefficients built from the unperturbed level differences
    (the dephasing projector has constant matrix elements in the plane-wave
    basis). Near-degenerate unperturbed levels are refused.
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2, or 3")
    N = params.N
    gamma = params.gamma
    if q_index % N == 0:
        # C_0 vanishes identically, so gamma X is the exact block (no series needed)
        return _steady_block(params).eigenvalues
    E0 = unperturbed_spectrum(q_index, params)
    E = E0 + gamma * (N - 1) / N
    if order == 1:
        return E
    x = E0.imag  # E0 = i x, x real
    dx = x[:, None] - x[None, :]  # x_k - x_p
    off = ~np.eye(N, dtype=bool)
    if np.min(np.abs(dx[off])) < DEGENERACY_GAP:
        raise DegenerateSpectrumError(
            f"unperturbed gap below {DEGENERACY_GAP} at q index {q_index}"
        )
    with np.errstate(divide="ignore"):
        inv = np.where(off, 1.0 / np.where(off, dx, 1.0), 0.0)
    # delta2_k = (i/N^2) sum_{p != k} 1/(E0_p - E0_k) = (1/N^2) sum 1/(x_p - x_k)
    d2 = -inv.sum(axis=1) / N**2
    E = E - 1j * gamma**2 * d2
    if order == 2:
        return E
    s1 = inv.sum(axis=1)  # sum_p 1/(x_k - x_p)
    s2 = (inv**2).sum(axis=1)
    # sum_{p != k, s != k, p != s} 1/((E0_k-E0_p)(E0_k-E0_s)) with E0 = i x:
    # each factor 1/(i dx) contributes -i/dx, product = -(1/dx_p)(1/dx_s)
    d3 = -(s1**2 - s2) / N**3
    return E + gamma**3 * d3


@dataclass
class SpectralSet:
    """Eigen-data of one momentum block C_q + gamma X.

    Eigenvalues are sorted by (Re E, Im E); eigenvectors are unit columns w_j
    in the plane-wave basis (row k: e^{2 pi i m k / N} / sqrt N), or None in
    the blocks of :func:`slow_modes`; ``residual`` is :func:`_block_residual`.
    ``condition`` is the certified upper bound sqrt(N) ||kappa||_2 on the
    2-norm condition number of the eigenvector matrix, kappa_j being the
    eigenvalue condition numbers; ``solver`` says which path produced the
    block, ``"secular"`` or ``"dense"``.
    """

    q_index: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    branch: np.ndarray  # "real" / "complex" per eigenvalue
    residual: float
    condition: float
    solver: str


def _pairing_norms(W: np.ndarray) -> np.ndarray:
    """n_j = w_j^T w_j.

    The block is complex symmetric, so w_j is also the left eigenvector paired
    with itself (unconjugated) and 1/|n_j| is eigenvalue j's condition number.
    """
    return np.einsum("kj,kj->j", W, W)


def _spectral_set(q_index: int, E: np.ndarray, W: np.ndarray, residual: float, solver: str) -> SpectralSet:
    # sort by (Re E, Im E) with real parts equal to SORT_TIE_TOL counted as
    # ties: the roots come in conjugate pairs E, conj(E), whose real parts
    # differ only by rounding, and either solver must list a pair the same way
    by_re = np.argsort(E.real, kind="stable")
    tie_tol = SORT_TIE_TOL * max(1.0, float(np.max(np.abs(E))))
    group = np.concatenate(([0], np.cumsum(np.diff(E.real[by_re]) > tie_tol)))
    order = by_re[np.lexsort((E.imag[by_re], group))]
    E, W = E[order], W[:, order]
    branch = np.where(np.abs(E.imag) <= REAL_BRANCH_IM_TOL, "real", "complex")
    with np.errstate(divide="ignore"):
        kappa = 1.0 / np.abs(_pairing_norms(W))
    # max kappa <= cond_2(W) <= ||W||_F ||W^-1||_F = sqrt(N) ||kappa||_2
    condition = math.sqrt(W.shape[0]) * float(np.linalg.norm(kappa))
    return SpectralSet(q_index, E, W, branch, residual, condition, solver)


def _secular_seeds(d: np.ndarray, gamma: float) -> np.ndarray:
    """Starting points for the roots of the block's secular equation.

    d = gamma + i x. When the dephasing coupling gamma/N is below the median
    spacing of the levels x, each root starts at its first-order position
    d_k - gamma/N. Otherwise N - 1 roots start halfway between neighbouring
    levels, where they settle as gamma grows, and the last one where the
    block's trace (the eigenvalue sum) puts it.
    """
    N = d.size
    x = np.sort(d.imag)
    if gamma / N <= np.median(np.diff(x)):
        return d - gamma / N
    z = np.empty(N, dtype=complex)
    z[:-1] = gamma + 0.5j * (x[1:] + x[:-1])
    z[-1] = d.sum() - gamma - z[:-1].sum()
    return z


def _secular_roots(d: np.ndarray, rho: float, z: np.ndarray) -> tuple[np.ndarray, bool]:
    """All N roots of p(E) = prod_k (d_k - E) * (1 - rho sum_k 1/(d_k - E)).

    Aberth-Ehrlich iteration from the starting points ``z``, evaluated
    through the secular function f(E) = 1 - rho sum_k 1/(d_k - E), so that a
    sweep costs O(N) per root; converged roots are frozen. Returns the roots
    and whether all of them converged within ``SECULAR_MAX_SWEEPS`` sweeps.
    """
    z = np.array(z, dtype=complex)
    tol = 64.0 * np.finfo(float).eps * float(np.max(np.abs(d)))
    active = np.arange(z.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(SECULAR_MAX_SWEEPS):
            za = z[active]
            r = 1.0 / (d[None, :] - za[:, None])
            s1 = r.sum(axis=1)
            f = 1.0 - rho * s1
            fp = -rho * (r * r).sum(axis=1)
            gaps = za[:, None] - z[None, :]
            gaps[np.arange(active.size), active] = np.inf
            # p'/p = f'/f - s1; the Aberth step is 1 / (p'/p - sum_i 1/(z_j - z_i))
            step = f / (fp - f * (s1 + (1.0 / gaps).sum(axis=1)))
            if not np.all(np.isfinite(step)):
                return z, False
            z[active] = za - step
            active = active[np.abs(step) > tol]
            if active.size == 0:
                return z, True
    return z, False


def _steady_block(params: ModelParams) -> SpectralSet:
    """q = 0: C_0 = 0 and the block is gamma I - (gamma/N) 1 1^T.

    The steady mode is the uniform column 1/sqrt N (the site e_0); the level
    gamma takes the orthonormal real columns sqrt(2/N) cos(2 pi m k / N) and
    sqrt(2/N) sin(2 pi m k / N), m = 1..(N-1)/2, so the pairing is the identity.
    """
    N = params.N
    E = np.full(N, params.gamma, dtype=complex)
    E[0] = 0.0
    phase = 2.0 * math.pi * (np.outer(np.arange(N), np.arange(1, (N + 1) // 2)) % N) / N  # reduced: keeps digits
    W = np.empty((N, N), dtype=complex)
    W[:, 0] = 1.0 / math.sqrt(N)
    W[:, 1::2] = math.sqrt(2.0 / N) * np.cos(phase)
    W[:, 2::2] = math.sqrt(2.0 / N) * np.sin(phase)
    return _spectral_set(0, E, W, 0.0, "secular")


def _block_residual(d: np.ndarray, rho: float, E: np.ndarray, W: np.ndarray) -> float:
    """max_j ||M w_j - E_j w_j||_2 for M = diag(d) - rho 1 1^T, or inf when sum E != tr M."""
    with np.errstate(invalid="ignore"):
        res = float(np.max(np.linalg.norm((d[:, None] - E) * W - rho * W.sum(axis=0), axis=0)))
    trace_dev = abs(E.sum() - (d.sum() - rho * d.size))
    return res if trace_dev <= EIG_RESIDUAL_TOL * max(1.0, float(np.max(np.abs(d)))) else math.inf


def solve_dephasing_block(q_index: int, params: ModelParams) -> SpectralSet:
    """Eigen-decomposition of one momentum block M = diag(d) - (gamma/N) 1 1^T.

    The roots come from :func:`_secular_roots`; eigenvector j is the unit
    column (D - E_j)^-1 1, in the plane-wave basis of :class:`SpectralSet`.
    q = 0 and gamma = 0 are solved exactly. A block whose roots do not
    converge or fail :func:`_block_residual` (column residual at most
    ``EIG_RESIDUAL_TOL``, roots summing to the trace) goes to dense ``eig``
    of the same M (``solver == "dense"``), which passes the same check or
    raises :class:`SpectralError`.
    """
    _require_odd_ring(params)
    N, gamma = params.N, params.gamma
    if q_index % N == 0:
        return _steady_block(params)
    d = unperturbed_spectrum(q_index, params) + gamma
    if gamma == 0.0:
        return _spectral_set(q_index, d, np.eye(N, dtype=complex), 0.0, "secular")
    rho = gamma / N
    E, converged = _secular_roots(d, rho, _secular_seeds(d, gamma))
    if converged:
        with np.errstate(divide="ignore", invalid="ignore"):
            W = 1.0 / (d[:, None] - E)
            W /= np.linalg.norm(W, axis=0)
        res = _block_residual(d, rho, E, W)
        if res <= EIG_RESIDUAL_TOL:
            return _spectral_set(q_index, E, W, res, "secular")
    try:
        E, W = np.linalg.eig(np.diag(d) - rho)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigensolver failed at q index {q_index}: {exc}") from exc
    res = _block_residual(d, rho, E, W)
    if not res <= EIG_RESIDUAL_TOL:
        raise SpectralError(f"dense eig fails the residual or trace check ({res:.3e}) at q index {q_index}")
    return _spectral_set(q_index, E, W, res, "dense")


def _blocks(params: ModelParams):
    """All N momentum blocks, solving only q = 0..(N-1)/2.

    Each block q > 0 is followed by its mirror N - q: M_{-q} = M_q^T =
    P M_q P, P the reflection, which maps plane wave k to -k. So block -q
    shares the eigenvalues of block q and has the eigenvectors P w_j. A
    caller holds at most one block pair at a time.
    """
    N = params.N
    flip = (-np.arange(N)) % N  # P on plane-wave rows: k -> -k
    for qi in range((N + 1) // 2):
        s = solve_dephasing_block(qi, params)
        yield s
        if qi:
            yield replace(s, q_index=N - qi, eigenvectors=s.eigenvectors[flip])


def solve_dephasing_spectrum(params: ModelParams) -> list[SpectralSet]:
    """All N momentum blocks (deterministic q order)."""
    return sorted(_blocks(params), key=lambda s: s.q_index)


def decaying(re: np.ndarray, gamma: float) -> np.ndarray:
    """The real parts ``re`` of eigenvalues that decay: those above 1e-12 gamma, the steady mode's zero."""
    return re[re > 1e-12 * gamma]


@dataclass
class SlowModeSummary:
    """Slow-branch data for one system size; ``sets`` holds all N blocks, without eigenvectors."""

    N: int
    real_gap: float
    complex_gap: float
    n_real: int
    perturbative_min_re: float
    sets: list


def slow_modes(params: ModelParams) -> SlowModeSummary:
    """Classify the dephasing spectrum into fast complex and slow real branches.

    real_gap: smallest nonzero real part among real-classified eigenvalues
    (the slow branch); complex_gap: smallest real part of the complex branch,
    which perturbation theory places at gamma (N-1)/N; perturbative_min_re:
    smallest decaying real part of the first-order series over all N blocks
    (second order moves only imaginary parts, so it is the real part at
    order 2 too, and it needs no level gaps): gamma (N-1)/N to the bit, as
    block 0 decays at gamma and each q != 0 block's levels are exactly
    imaginary. Each block drops its eigenvectors once solved.
    """
    sets = sorted((replace(s, eigenvectors=None) for s in _blocks(params)), key=lambda s: s.q_index)
    re = np.concatenate([s.eigenvalues.real for s in sets])
    real = np.concatenate([s.branch for s in sets]) == "real"
    slow = decaying(re[real], params.gamma)
    pert = params.gamma * (params.N - 1) / params.N
    return SlowModeSummary(params.N, float(np.min(slow)), float(np.min(re[~real])), slow.size, pert, sets)


def spectral_propagate_G(G0: CorrelationMatrix, params: ModelParams, t):
    """Evolve G through the per-momentum eigendecompositions.

    G(0) is expanded on the eigenmatrices A^{q,k}_{j,m} = e^{iqj} a^{q,k}_{m-j}
    by the biorthogonal pairing: one ``fft2`` of the shifted diagonals of
    G(0) takes the center coordinate to the block label q and the relative
    one to the plane-wave basis of the blocks; each row is projected on its
    block's eigenvectors w_j (their own left eigenvectors), each coefficient
    damped by e^{-E t}, formed once per mirror pair q, N - q, which share their
    eigenvalues, and one ``scipy.fft.ifft2`` per output time returns to sites.
    It runs in the frame of :func:`propagate_G`, which it agrees with. An
    eigenbasis condition bound above ``COND_LIMIT`` raises
    :class:`ConditioningError` with the offending block.
    """
    _require_odd_ring(params)
    N = params.N
    # shifted-diagonal representation: S[j, mu] = G_{j, (j+mu) mod N}
    j = np.arange(N)
    shift = (j[:, None] + j[None, :]) % N

    def evolve(Gin, ts):
        ghat = np.fft.fft2(Gin[j[:, None], shift])  # ghat[q, k]
        # one N x N slab per output time: the evolved ghat[q, k] first, G after
        slabs = np.empty((ts.size, N, N), dtype=complex)
        for s in _blocks(params):
            if s.condition > COND_LIMIT:
                raise ConditioningError(
                    f"eigenbasis condition {s.condition:.2e} at q index {s.q_index} "
                    f"exceeds {COND_LIMIT:.1e}; fall back to propagate_G"
                )
            if s.q_index <= N // 2:  # a solved block: its mirror, next, shares the eigenvalues
                decay = np.exp(-np.outer(s.eigenvalues, ts))
            W = s.eigenvectors
            c = (W.T @ ghat[s.q_index]) / _pairing_norms(W)
            slabs[:, s.q_index, :] = (W @ (c[:, None] * decay)).T
        for G in slabs:
            G[j[:, None], shift] = scipy.fft.ifft2(G)
        return slabs

    return _states(G0, params, t, evolve)


SPECTRUM_CSV_HEADER = "q_index,k_index,re_E,im_E,branch"


def spectrum_rows(sets: list[SpectralSet]):
    """CSV rows under :data:`SPECTRUM_CSV_HEADER`, one per eigenvalue.

    A mirror block N - q shares block q's eigenvalue array (:func:`_blocks`),
    so each pair's numbers are formatted once.
    """
    text = {}  # id -> (array, strings); holding the array keeps its id from being reused
    for s in sets:
        E = s.eigenvalues
        _, strings = text.pop(id(E), (None, None))
        if strings is None:
            strings = list(map(format_float, E.real.tolist())), list(map(format_float, E.imag.tolist()))
            text[id(E)] = (E, strings)
        yield from zip(repeat(str(s.q_index)), map(str, range(E.size)), *strings, s.branch.tolist())


def spectra_to_csv(sets: list[SpectralSet], path):
    """CSV export with columns q_index, k_index, re_E, im_E, branch."""
    write_csv(path, SPECTRUM_CSV_HEADER, spectrum_rows(sets))
