"""Single-exciton quantum dynamics with local dephasing (d = 1).

State: the two-point correlation matrix G_{jm} = <S+_j S-_m>, which obeys
the closed linear equation

    dG/dt = i [h^T, G] - gamma (G - diag G),

with h the single-particle hopping matrix. Populations are the diagonal;
dephasing damps only coherences. Besides direct ODE propagation the module
carries the weak-dephasing spectral machinery: for each momentum q of the
translation-invariant ring the evolution block is C_q + gamma X with C_q an
anti-Hermitian circulant and X = diag(1 - delta_{m,0}); eigenvalues E give
decay modes e^{-E t}, perturbation theory in gamma gives the fast branch,
and the exact spectrum exposes the slow (non-perturbative) one.

In the plane-wave basis the block is diag(d) - (gamma/N) 1 1^T with
d = E0 + gamma, E0 the circulant's levels (one FFT). Its eigenvalues are the
roots of the secular equation (gamma/N) sum_k 1/(d_k - E) = 1 and its
eigenvectors are (D - E)^-1 1 (Golub, SIAM Rev. 15, 1973), so every block is
solved in O(N^2) per root-finder sweep; dense ``eig`` is the per-block
fallback. Blocks q and -q are transposes of each other, so only
(N + 1)/2 blocks are solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .model import ModelParams, min_image, output_times, sum_r2_hopping_sq, write_csv

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
DIAG_NEGATIVITY_TOL = -1e-12
REAL_BRANCH_IM_TOL = 1e-9
EIG_RESIDUAL_TOL = 1e-8
DEGENERACY_GAP = 1e-8
SECULAR_MAX_SWEEPS = 200
SORT_TIE_TOL = 1e-10


class PropagationError(RuntimeError):
    """Invariant breach or integrator failure during G propagation."""


class DegenerateSpectrumError(RuntimeError):
    """Unperturbed levels too close for the perturbative corrections."""


class ConditioningError(RuntimeError):
    """Spectral propagation refused: eigenbasis too ill-conditioned."""


class SpectralError(RuntimeError):
    """Dense diagonalization failed for a momentum block."""


def build_h(params: ModelParams) -> np.ndarray:
    """Single-particle hopping matrix under the parameter set's bc.

    Periodic rings sum the two images, h(r) = J [r^-a + (N-r)^-a]; open
    chains use J / |i-j|^a. Symmetric with zero diagonal.
    """
    if params.d != 1:
        raise ValueError("quantum layer is one-dimensional")
    N = params.N
    idx = np.arange(N)
    if params.bc == "periodic":
        return _ring_h_row(params)[(idx[:, None] - idx[None, :]) % N]
    r = np.abs(idx[:, None] - idx[None, :]).astype(float)
    np.fill_diagonal(r, np.inf)
    return params.J / r**params.alpha


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
            raise PropagationError(f"hermiticity violated: {herm:.3e} at t = {self.t}")
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


def _check_G(G: np.ndarray, trace0: float, t: float):
    herm = float(np.max(np.abs(G - G.conj().T)))
    if herm > HERMITICITY_TOL:
        raise PropagationError(f"hermiticity drift {herm:.3e} at t = {t}")
    tr = float(G.trace().real)
    if abs(tr - trace0) > TRACE_TOL * max(1.0, abs(trace0)):
        raise PropagationError(f"trace drift {tr - trace0:.3e} at t = {t}")
    dmin = float(G.diagonal().real.min())
    if dmin < DIAG_NEGATIVITY_TOL:
        raise PropagationError(f"negative population {dmin:.3e} at t = {t}")


def propagate_G(
    G0: CorrelationMatrix,
    params: ModelParams,
    t_grid,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> list[CorrelationMatrix]:
    """Adaptive integration of the dephasing equation of motion.

    Output times must be strictly increasing and non-negative
    (``ValueError`` otherwise). Hermiticity, trace conservation, and
    population positivity are asserted at every output time; a breach raises
    :class:`PropagationError`.
    """
    t_grid = output_times(t_grid)
    N = params.N
    h = build_h(params)
    hT = h.T.copy()
    gamma = params.gamma
    Gin = G0.G if isinstance(G0, CorrelationMatrix) else np.asarray(G0, dtype=complex)
    trace0 = float(Gin.trace().real)

    def rhs(t, y):
        G = y.view(complex).reshape(N, N)
        dG = 1j * (hT @ G - G @ hT) - gamma * (G - np.diag(np.diag(G)))
        return dG.ravel().view(float)

    Y = Gin.astype(complex).ravel().view(float)[:, None]  # the grid [0.0] needs no integration
    if t_grid[-1] > 0:
        sol = solve_ivp(
            rhs,
            (0.0, float(t_grid[-1])),
            Y[:, 0],
            t_eval=t_grid,
            method="DOP853",
            rtol=rtol,
            atol=atol,
        )
        if not sol.success:
            raise PropagationError(f"integrator failed: {sol.message}")
        Y = sol.y
    out = []
    for k, t in enumerate(t_grid):
        G = Y[:, k].copy().view(complex).reshape(N, N)
        _check_G(G, trace0, float(t))
        out.append(CorrelationMatrix(float(t), G, params.bc))
    return out


def variance_of_density(cm: CorrelationMatrix, origin: int | None = None) -> float:
    """Variance of the exciton density in displacement coordinates."""
    n = cm.density
    N = n.size
    if origin is None:
        origin = N // 2 if cm.bc == "open" else 0
    x = np.arange(N) - origin
    if cm.bc == "periodic":
        x = min_image(x, N)
    x = x.astype(float)
    mean = float(n @ x)
    return float(n @ x**2) - mean**2


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


def _ring_h_row(params: ModelParams) -> np.ndarray:
    """h(r), r = 0..N-1, with the two-image ring convention."""
    N = params.N
    r = np.arange(1, N, dtype=float)
    row = np.zeros(N)
    row[1:] = params.J * (r**-params.alpha + (N - r) ** -params.alpha)
    return row


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
    N = params.N
    q = momentum(params, q_index)
    m = np.arange(N)
    diff = m[:, None] - m[None, :]
    hmat = _ring_h_row(params)[diff % N]
    return 1j * (1.0 - np.exp(1j * q * diff)) * hmat


def _to_sites(W: np.ndarray) -> np.ndarray:
    """Plane-wave coefficients (rows k) to site amplitudes (rows m).

    Column k of the identity maps to the unit plane wave e^{2 pi i m k / N} / sqrt N.
    """
    return np.fft.ifft(W, axis=0) * math.sqrt(W.shape[0])


def unperturbed_spectrum(q_index: int, params: ModelParams) -> np.ndarray:
    """Eigenvalues of C_q: the DFT of its first row, purely imaginary.

    Entry k belongs to the plane wave of :func:`_to_sites` column k. For odd
    N exactly one eigenvalue vanishes per momentum and the remainder come in
    conjugate pairs.
    """
    _require_odd_ring(params)
    N = params.N
    q = momentum(params, q_index)
    row = 1j * (1.0 - np.exp(-1j * q * np.arange(N))) * _ring_h_row(params)
    return np.fft.ifft(row) * N


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
        # C_0 vanishes identically, so gamma X is the exact block: one steady
        # mode plus an (N-1)-fold level at gamma (no series needed)
        out = np.full(N, gamma, dtype=complex)
        out[0] = 0.0
        return out
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

    Eigenvalues are sorted by (Re E, Im E); eigenvectors are unit columns in
    the site basis. ``condition`` is the certified upper bound
    sqrt(N) ||kappa||_2 on the 2-norm condition number of the eigenvector
    matrix, kappa_j being the eigenvalue condition numbers; ``solver`` says
    which path produced the block, ``"secular"`` or ``"dense"``.
    """

    q_index: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    branch: np.ndarray  # "real" / "complex" per eigenvalue
    residual: float
    condition: float
    solver: str


def _reflect(N: int) -> np.ndarray:
    """Row permutation m -> -m mod N."""
    return (-np.arange(N)) % N


def _pairing_norms(V: np.ndarray) -> np.ndarray:
    """n_j = (P v_j)^T v_j, P the reflection m -> -m.

    The block satisfies M^T = P M P, so P v_j is the left eigenvector paired
    with v_j (unconjugated) and 1/|n_j| is eigenvalue j's condition number.
    """
    return np.einsum("mj,mj->j", V[_reflect(V.shape[0])], V)


def _spectral_set(q_index: int, E: np.ndarray, V: np.ndarray, residual: float, solver: str) -> SpectralSet:
    # sort by (Re E, Im E) with real parts equal to SORT_TIE_TOL counted as
    # ties: the roots come in conjugate pairs E, conj(E), whose real parts
    # differ only by rounding, and either solver must list a pair the same way
    by_re = np.argsort(E.real, kind="stable")
    tie_tol = SORT_TIE_TOL * max(1.0, float(np.max(np.abs(E))))
    group = np.concatenate(([0], np.cumsum(np.diff(E.real[by_re]) > tie_tol)))
    order = by_re[np.lexsort((E.imag[by_re], group))]
    E, V = E[order], V[:, order]
    branch = np.where(np.abs(E.imag) <= REAL_BRANCH_IM_TOL, "real", "complex")
    with np.errstate(divide="ignore"):
        kappa = 1.0 / np.abs(_pairing_norms(V))
    # max kappa <= cond_2(V) <= ||V||_F ||V^-1||_F = sqrt(N) ||kappa||_2
    condition = math.sqrt(V.shape[0]) * float(np.linalg.norm(kappa))
    return SpectralSet(q_index, E, V, branch, residual, condition, solver)


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
    """q = 0: C_0 = 0 and the block is gamma X, diagonal in the site basis.

    The steady mode is e_0; the (N-1)-fold level gamma takes the even and odd
    combinations (e_m +- e_-m)/sqrt 2, which keep the reflection pairing of
    :func:`_pairing_norms` diagonal.
    """
    N = params.N
    E = np.full(N, params.gamma, dtype=complex)
    E[0] = 0.0
    V = np.zeros((N, N), dtype=complex)
    V[0, 0] = 1.0
    m = np.arange(1, (N + 1) // 2)
    s = 1.0 / math.sqrt(2.0)
    V[m, 2 * m - 1] = V[N - m, 2 * m - 1] = s
    V[m, 2 * m] = s
    V[N - m, 2 * m] = -s
    return _spectral_set(0, E, V, 0.0, "secular")


def _dense_block(q_index: int, params: ModelParams) -> SpectralSet:
    """Fallback: dense non-Hermitian ``eig`` of the site-basis block."""
    M = build_circulant(q_index, params) + params.gamma * np.diag(
        (np.arange(params.N) != 0).astype(float)
    )
    try:
        E, V = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigensolver failed at q index {q_index}: {exc}") from exc
    res = float(np.max(np.abs(M @ V - V * E)) / max(1.0, float(np.max(np.abs(V)))))
    if not res <= EIG_RESIDUAL_TOL:
        raise SpectralError(f"eigen-residual {res:.3e} at q index {q_index}")
    return _spectral_set(q_index, E, V, res, "dense")


def solve_dephasing_block(q_index: int, params: ModelParams) -> SpectralSet:
    """Eigen-decomposition of one momentum block from its secular equation.

    The roots come from :func:`_secular_roots`; eigenvector j is the unit
    column (D - E_j)^-1 1 mapped to the site basis by an FFT. The residual
    max_j ||M w_j - E_j w_j||_2 is taken in the plane-wave basis (the FFT is
    unitary, so it bounds the site-basis residual), and the roots must sum to
    the block's trace. q = 0 and gamma = 0 are solved exactly. A block whose
    roots do not converge or fail either check goes to dense ``eig``
    (``solver == "dense"``), which raises :class:`SpectralError` when it
    fails too.
    """
    _require_odd_ring(params)
    N, gamma = params.N, params.gamma
    if q_index % N == 0:
        return _steady_block(params)
    d = unperturbed_spectrum(q_index, params) + gamma
    if gamma == 0.0:
        return _spectral_set(q_index, d, _to_sites(np.eye(N, dtype=complex)), 0.0, "secular")
    rho = gamma / N
    E, converged = _secular_roots(d, rho, _secular_seeds(d, gamma))
    if converged:
        with np.errstate(divide="ignore", invalid="ignore"):
            W = 1.0 / (d[:, None] - E[None, :])
            W /= np.linalg.norm(W, axis=0)
            R = (d[:, None] - E[None, :]) * W - rho * W.sum(axis=0)
            res = float(np.max(np.linalg.norm(R, axis=0)))
        trace_dev = abs(E.sum() - (d.sum() - gamma))
        if res <= EIG_RESIDUAL_TOL and trace_dev <= EIG_RESIDUAL_TOL * max(1.0, float(np.max(np.abs(d)))):
            return _spectral_set(q_index, E, _to_sites(W), res, "secular")
    return _dense_block(q_index, params)


def _mirror(s: SpectralSet, N: int) -> SpectralSet:
    """Block -q from block q: M_{-q} = M_q^T = P M_q P, eigenvectors P v_j."""
    V = s.eigenvectors[_reflect(N)]
    return SpectralSet(
        (N - s.q_index) % N, s.eigenvalues.copy(), V, s.branch.copy(), s.residual, s.condition, s.solver
    )


def _half_spectrum(params: ModelParams):
    """Blocks q = 0..(N-1)/2, solved one at a time; the rest are their mirrors."""
    for qi in range((params.N + 1) // 2):
        yield solve_dephasing_block(qi, params)


def solve_dephasing_spectrum(params: ModelParams) -> list[SpectralSet]:
    """All N momentum blocks (deterministic q order)."""
    N = params.N
    sets = [None] * N
    for s in _half_spectrum(params):
        sets[s.q_index] = s
        if s.q_index:
            sets[N - s.q_index] = _mirror(s, N)
    return sets


@dataclass
class SlowModeSummary:
    """Slow-branch data for one system size."""

    N: int
    real_gap: float
    complex_gap: float
    n_real: int
    sets: list


def slow_modes(params: ModelParams, keep_sets: bool = False) -> SlowModeSummary:
    """Classify the dephasing spectrum into fast complex and slow real branches.

    real_gap: smallest nonzero real part among real-classified eigenvalues
    (the slow branch); complex_gap: smallest real part of the complex branch,
    which perturbation theory places at gamma (N-1)/N. Without ``keep_sets``
    only one block's eigenvectors are held at a time.
    """
    if keep_sets:
        sets = solve_dephasing_spectrum(params)
        blocks = [(s, 1) for s in sets]
    else:
        sets = []
        # block -q repeats the eigenvalues of block q
        blocks = ((s, 2 if s.q_index else 1) for s in _half_spectrum(params))
    reals, comps = [], []
    n_real = 0
    for s, copies in blocks:
        re = s.eigenvalues.real
        mask = s.branch == "real"
        slow = re[mask & (re > 1e-12 * params.gamma)]
        reals.append(slow)
        comps.append(re[~mask])
        n_real += copies * slow.size
    return SlowModeSummary(
        N=params.N,
        real_gap=float(np.min(np.concatenate(reals))),
        complex_gap=float(np.min(np.concatenate(comps))),
        n_real=n_real,
        sets=sets,
    )


def spectral_propagate_G(G0: CorrelationMatrix, params: ModelParams, t, cond_limit: float = 1e8):
    """Evolve G through the per-momentum eigendecompositions.

    G(0) is expanded on the eigenmatrices A^{q,k}_{j,m} = e^{iqj} a^{q,k}_{m-j}
    by the biorthogonal pairing: Fourier transform the shifted diagonals of
    G(0) over the center coordinate, project each momentum component on the
    left eigenvectors P v_j of its block (P the reflection m -> -m), damp each
    coefficient by e^{-E t}, and transform back. Output times must be
    strictly increasing and non-negative; hermiticity, trace and population
    positivity are checked at every one, as in :func:`propagate_G`, which it
    agrees with. An ill-conditioned eigenbasis raises
    :class:`ConditioningError` with the offending block.
    """
    _require_odd_ring(params)
    N = params.N
    ts = output_times(t)
    Gin = G0.G if isinstance(G0, CorrelationMatrix) else np.asarray(G0, dtype=complex)
    trace0 = float(Gin.trace().real)
    # shifted-diagonal representation: S[j, mu] = G_{j, (j+mu) mod N};
    # the block label q enters as G ~ e^{+iqj}, so analysis is fft/N
    j = np.arange(N)
    shift = (j[:, None] + j[None, :]) % N
    ghat = np.fft.fft(Gin[j[:, None], shift], axis=0) / N  # ghat[q, mu]
    flip = _reflect(N)
    # one N x N slab per output time: the evolved ghat[q, mu] first, G after
    slabs = np.empty((ts.size, N, N), dtype=complex)
    for s in _half_spectrum(params):
        if s.condition > cond_limit:
            raise ConditioningError(
                f"eigenbasis condition {s.condition:.2e} at q index {s.q_index} "
                f"exceeds {cond_limit:.1e}; fall back to propagate_G"
            )
        V = s.eigenvectors
        norms = _pairing_norms(V)
        decay = np.exp(-np.outer(s.eigenvalues, ts))
        q = s.q_index
        c = (V.T @ ghat[q][flip]) / norms
        slabs[:, q, :] = (V @ (c[:, None] * decay)).T
        if q:
            # block -q has right eigenvectors P v_j and left ones v_j
            c = (V.T @ ghat[N - q]) / norms
            slabs[:, N - q, :] = (V @ (c[:, None] * decay))[flip].T
    out = []
    for G, tv in zip(slabs, ts):
        # back to site representation: G_{j, j+mu} = sum_q e^{iqj} slab[q, mu]
        G[j[:, None], shift] = np.fft.ifft(G, axis=0) * N
        _check_G(G, trace0, float(tv))
        out.append(CorrelationMatrix(float(tv), G, params.bc))
    if np.ndim(t) == 0:
        return out[0]
    return out


SPECTRUM_CSV_HEADER = "q_index,k_index,re_E,im_E,branch"


def spectrum_rows(sets: list[SpectralSet]):
    """CSV rows under :data:`SPECTRUM_CSV_HEADER`, one per eigenvalue."""
    for s in sets:
        for k, E in enumerate(s.eigenvalues):
            yield str(s.q_index), str(k), "%.16e" % E.real, "%.16e" % E.imag, s.branch[k]


def spectra_to_csv(sets: list[SpectralSet], path):
    """CSV export with columns q_index, k_index, re_E, im_E, branch."""
    write_csv(path, SPECTRUM_CSV_HEADER, spectrum_rows(sets))
