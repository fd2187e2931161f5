"""The symmetric exclusion process with long jumps (d = 1, open chain).

Hard-core particles exchange with empty sites at distance r at rate
kappa / r^(2 alpha). Two routes to the occupation profile n_j(t):

* :func:`kmc_simulate` -- uniformized kinetic Monte Carlo over the full
  many-body configuration space, trajectories in lockstep; trajectory i draws
  from ``trajectory_rng(seed, i)`` in blocks of 128 gaps, particles and jumps;
* :func:`occupation_evolution` -- the linear single-particle equation, which
  the ensemble-averaged exclusion density obeys *exactly* (duality of the
  symmetric process).

Sites are indexed 0..N-1 internally and carry physical labels
j = site - N/2 in [-N/2, N/2 - 1]; the domain wall occupies all j < 0.
For comparisons with the continuum fractional-diffusion reference on [0, N]
the site centers sit at x_j = j + N/2 + 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, open_line_rates, output_times

CHI2_FIT_WINDOW = (1e-6, 1e-2)


class FitWindowError(RuntimeError):
    """Relaxation data does not cover the fit window with enough decay."""


@dataclass
class SpinConfiguration:
    """Occupation bit-vector of the chain; particle number is conserved."""

    occupations: np.ndarray

    def __post_init__(self):
        occ = np.asarray(self.occupations)
        if not np.all((occ == 0) | (occ == 1)):
            raise ValueError("occupations must be 0/1")
        self.occupations = occ.astype(np.uint8)

    @property
    def n_particles(self) -> int:
        return int(self.occupations.sum())


def domain_wall_config(N: int) -> SpinConfiguration:
    """Left half occupied, right half empty (N even)."""
    if N % 2:
        raise ValueError("domain wall needs an even number of sites")
    occ = np.zeros(N, dtype=np.uint8)
    occ[: N // 2] = 1
    return SpinConfiguration(occ)


def site_labels(N: int) -> np.ndarray:
    """Physical labels j = site - N/2."""
    return np.arange(N) - N // 2


# -- kinetic Monte Carlo ----------------------------------------------------------

_CHUNK = 256  # trajectories advanced together
_BLOCK = 128  # events each trajectory draws at a time


@dataclass
class EnsembleResult:
    """Trajectory-averaged occupations with standard errors."""

    times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_traj: int
    seed: int


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """Per-trajectory stream: one master seed, counter-split by index."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def kmc_simulate(
    config0: SpinConfiguration, params: ModelParams, t_out, n_traj: int, seed: int
) -> EnsembleResult:
    """Ensemble of exclusion-process trajectories by uniformization.

    Events fire at the constant total rate Lambda = n * sum_{0<|r|<N} w(|r|)
    for n particles. Each picks a particle uniformly and a signed jump r with
    weight w(|r|); a target off the chain or occupied makes it a null event.
    The clock does not depend on the configuration, so chunks of 256
    trajectories advance together as arrays. Trajectory i draws only from
    ``trajectory_rng(seed, i)``, in blocks of 128 events, each block three
    calls in this order: ``exponential(1/Lambda, 128)`` gaps,
    ``integers(0, n, 128)`` particles and ``uniform(0, sum w, 128)`` jump
    variates; it thus depends on (seed, i) alone. CLI runs with
    ``trajectories > 0`` write other ``kmc.csv`` and ``duality_check.txt``
    bytes than the earlier Gillespie sampler did.

    Output time t holds the state after every event at or before t, so t = 0
    is ``config0`` exactly. The mean is an exact integer count over
    ``n_traj``; occupations are Bernoulli, so the stderr follows from it.
    """
    if params.bc != "open" or params.d != 1:
        raise ValueError("the exclusion process runs on the open chain")
    if n_traj < 1:
        raise ValueError("need at least one trajectory")
    t_out = output_times(t_out)
    N, occ0 = params.N, config0.occupations
    if occ0.size != N:
        raise ValueError(f"configuration has {occ0.size} sites but params.N = {N}")
    sites = np.flatnonzero(occ0)
    n, W = sites.size, 3 * N  # rows of W cells: the chain at N..2N-1, walls around it
    w = open_line_rates(params)[1:]
    cum = np.cumsum(np.concatenate((w[::-1], w)))  # jumps -(N-1)..-1, 1..N-1
    lam = n * cum[-1] if n and N > 1 else 0.0
    counts = np.zeros((t_out.size, N), dtype=np.int64)
    if lam == 0.0:  # nothing can move
        counts[:] = n_traj * occ0
    for start in range(0, n_traj if lam else 0, _CHUNK):
        rngs = [trajectory_rng(seed, i) for i in range(start, min(start + _CHUNK, n_traj))]
        rows = np.arange(len(rngs))[:, None]
        occ = np.pad(np.tile(occ0, (rows.size, 1)), ((0, 0), (N, N)), constant_values=1)
        flat = occ.ravel()
        at = (N + sites + W * rows).ravel()  # flat cell of each particle
        t, nxt = np.zeros(rows.size), np.zeros(rows.size, dtype=np.int64)  # clock, outputs done
        # block buffers, reused: event k of trajectory i sits at [k, i]
        T = np.empty((_BLOCK, rows.size))
        who, jump = np.empty((2, _BLOCK, rows.size), dtype=np.int64)
        while nxt.min() < t_out.size:
            for i, g in enumerate(rngs):
                T[:, i] = g.exponential(1.0 / lam, _BLOCK)
                who[:, i] = g.integers(0, n, _BLOCK)
                jump[:, i] = np.searchsorted(cum[:-1], g.uniform(0.0, cum[-1], _BLOCK), side="right")
            who += n * rows.T
            jump -= N - 1  # index into the kernel -> signed jump, skipping 0
            jump += jump >= 0
            T[0] += t
            np.cumsum(T, axis=0, out=T)  # event times
            due = np.searchsorted(t_out, T)  # outputs to record before each event
            record = np.any(due > np.vstack((nxt, due[:-1])), axis=1)
            for k in range(_BLOCK):
                r = np.flatnonzero(due[k] > nxt) if record[k] else ()
                while len(r):
                    np.add.at(counts, nxt[r], occ[r, N : 2 * N])
                    nxt[r] += 1
                    r = r[due[k, r] > nxt[r]]
                src = at[who[k]]
                dst = np.where(flat[src + jump[k]] == 0, src + jump[k], src)
                flat[src] = 0
                flat[dst] = 1
                at[who[k]] = dst
            t = T[-1].copy()
        if np.any(counts.sum(axis=1) != n * (start + rows.size)):
            raise RuntimeError("particle number changed in the exclusion sampler")
    mean = counts / n_traj
    var = mean * (1.0 - mean) / max(n_traj - 1, 1)
    return EnsembleResult(t_out, mean, np.sqrt(var), n_traj, seed)


# -- linear occupation dynamics -----------------------------------------------------


def occupation_evolution(params: ModelParams, times, method: str = "eig") -> np.ndarray:
    """Occupation profile n_j(t) of the domain wall under the linear equation.

    The generator is identical to the classical single-particle one on the
    open chain (duality). ``method="eig"`` uses that the generator commutes
    with the reflection j -> N-1-j while n - 1/2 is odd under it: the left
    half y = (n - 1/2)[:N/2] obeys dy/dt = W_odd y with the real symmetric
    block W_odd[i, k] = w(|i - k|) - w(N-1-i-k) - delta_ik escape_i. One
    ``eigh`` of size N/2 then evolves every output time exactly, and
    n[N/2:] = 1/2 - y[::-1] makes mass N/2 and particle-hole symmetry exact
    by construction. ``method="ode"`` reuses the adaptive classical
    integrator as an independent cross-check. Either route refuses an
    occupation outside [0, 1] by more than 1e-12.
    """
    if params.bc != "open" or params.d != 1:
        raise ValueError("occupation dynamics runs on the open chain")
    if params.N % 2:
        raise ValueError("domain wall needs even N")
    times = output_times(times)
    N, half = params.N, params.N // 2
    if method == "eig":
        w = open_line_rates(params)
        i = np.arange(half)
        image = w[N - 1 - i[:, None] - i]  # w(l - i) at l = N-1-k, the mirror of k
        W = w[np.abs(i[:, None] - i)] - image
        # row i leaks 2 sum_k image[i, k] into the right half; summing that
        # directly, not as escape rate minus in-half rates, keeps the slow
        # rates accurate when w decays fast
        np.fill_diagonal(W, 0.0)
        W[i, i] = -W.sum(axis=1) - 2.0 * image.sum(axis=1)
        lam, U = np.linalg.eigh(W)
        c = U.T @ np.full(half, 0.5)
        y = (np.exp(np.outer(times, lam)) * c) @ U.T
        y[times == 0] = 0.5  # the wall itself, exactly, as on the ODE route
        out = np.empty((times.size, N))
        out[:, :half] = 0.5 + y
        out[:, half:] = 0.5 - y[:, ::-1]
    elif method == "ode":
        from .classical import cme_integrate

        n0 = domain_wall_config(N).occupations.astype(float)
        nz = times > 0
        out = np.empty((times.size, N))
        if times[0] == 0:
            out[0] = n0
        profs = cme_integrate(n0, params, times[nz]) if nz.any() else []
        for row, prof in zip(np.nonzero(nz)[0], profs):
            out[row] = prof.values
    else:
        raise ValueError(f"unknown method {method!r}")
    lo, hi = float(out.min()), float(out.max())
    if lo < -1e-12 or hi > 1.0 + 1e-12:
        raise RuntimeError(f"occupations [{lo:.3e}, {hi:.3e}] leave [0, 1] in occupation evolution")
    return out


def particle_hole_asymmetry(trajectory: np.ndarray):
    """Worst violation of n_j + n_{-1-j} = 1 -> (value, site label, time index)."""
    traj = np.atleast_2d(np.asarray(trajectory, dtype=float))
    dev = np.abs(traj + traj[:, ::-1] - 1.0)
    ti, si = np.unravel_index(np.argmax(dev), dev.shape)
    return float(dev[ti, si]), int(si - traj.shape[1] // 2), int(ti)


def chi_squared_series(trajectory: np.ndarray) -> np.ndarray:
    """Normalized deviation from the flat profile: sum_j (n_j - 1/2)^2 / (N/2)."""
    traj = np.atleast_2d(np.asarray(trajectory, dtype=float))
    N = traj.shape[1]
    return np.sum((traj - 0.5) ** 2, axis=1) / (N * 0.5)


# -- relaxation-time fits -------------------------------------------------------------


@dataclass
class RelaxationFit:
    """tau(N) scaling of the chi^2 decay.

    beta is the dynamical exponent of tau = N^beta / (2 pi^beta b_alpha); at
    the critical point the model carries the extra log N factor and beta is
    pinned to 2. b_alpha is the generalized diffusion constant
    (sites^beta / time).
    """

    Ns: list
    taus: list
    beta: float
    b_alpha: float
    residual: float
    critical: bool


def fit_tau(times: np.ndarray, chi: np.ndarray) -> float:
    """Exponential relaxation time from the chi^2/N tail.

    Fits log chi^2 linearly over the window chi^2/N in [1e-6, 1e-2]; the
    data must cover at least two decades of decay inside it.
    """
    times = np.asarray(times, dtype=float)
    chi = np.asarray(chi, dtype=float)
    lo, hi = CHI2_FIT_WINDOW
    m = (chi >= lo) & (chi <= hi)
    if m.sum() < 5:
        raise FitWindowError(
            f"only {int(m.sum())} points inside the chi^2 window [{lo:g}, {hi:g}]"
        )
    span = np.max(chi[m]) / np.min(chi[m])
    if span < 99.0:
        raise FitWindowError(f"window covers {math.log10(span):.2f} decades; need >= 2")
    slope, _ = np.polyfit(times[m], np.log(chi[m]), 1)
    if slope >= 0:
        raise FitWindowError("chi^2 does not decay inside the window")
    return -1.0 / slope


def relaxation_fit(series, Ns, alpha: float) -> RelaxationFit:
    """Power-law fit of tau(N) across system sizes.

    ``series`` is a list of (times, chi) pairs matching ``Ns`` (>= 4 sizes).
    Away from the critical exponent the model is tau = N^beta/(2 pi^beta b);
    at alpha = 3/2 the fit model includes the log N factor with beta = 2.
    """
    if len(Ns) < 4:
        raise FitWindowError("need at least 4 system sizes")
    if len(series) != len(Ns):
        raise ValueError("series/Ns length mismatch")
    taus = [fit_tau(t, chi) for t, chi in series]
    logtau = np.log(taus)
    critical = abs(alpha - 1.5) < 1e-9
    if critical:
        model = np.array([N**2 * math.log(N) / (2 * math.pi**2) for N in Ns])
        logb = np.mean(np.log(model) - logtau)
        beta = 2.0
        b = float(np.exp(logb))
        resid = float(np.sqrt(np.mean((np.log(model) - logb - logtau) ** 2)))
    else:
        x = np.log(Ns) - math.log(math.pi)
        coef, res, *_ = np.polyfit(x, logtau, 1, full=True)
        beta = float(coef[0])
        b = float(np.exp(-coef[1]) / 2.0)
        resid = float(np.sqrt(res[0] / len(Ns))) if len(res) else 0.0
    return RelaxationFit(list(Ns), list(map(float, taus)), beta, b, resid, critical)


# -- fractional-diffusion reference ----------------------------------------------------


def step_cosine_coefficients(N: int, modes: int) -> np.ndarray:
    """Cosine coefficients c_m of the domain-wall step on [0, N].

    c_m = (2/N) int_0^N (n0(x) - 1/2) cos(pi m x / N) dx with n0 the unit
    step dropping at x = N/2, integrated exactly over its two constant
    pieces (nothing about the odd-m pattern is hard-coded).
    """
    m = np.arange(1, modes + 1, dtype=float)
    pieces = ((0.0, N / 2.0, 0.5), (N / 2.0, float(N), -0.5))
    c = np.zeros(modes)
    for a, b, value in pieces:
        c += value * (np.sin(math.pi * m * b / N) - np.sin(math.pi * m * a / N)) * N / (math.pi * m)
    return c * (2.0 / N)


def fractional_reference(x, t: float, params: ModelParams, beta: float, b: float, modes: int = 2001):
    """Solution of dn/dt = b (fractional Laplacian)^(beta/2) n on [0, N].

    Cosine modes of the domain-wall step decay as exp(-b (m pi / N)^beta t):
    n(x, t) = 1/2 + sum_m c_m(0) e^{-b (m pi/N)^beta t} cos(pi m x / N).
    """
    N = params.N
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any((x < 0) | (x > N)):
        raise ValueError("x must lie in [0, N]")
    c0 = step_cosine_coefficients(N, modes)
    m = np.arange(1, modes + 1, dtype=float)
    decay = np.exp(-b * (m * math.pi / N) ** beta * t)
    cosmat = np.cos(math.pi * np.outer(m, x) / N)
    out = 0.5 + (c0 * decay) @ cosmat
    return out if out.size > 1 else float(out[0])


# -- exports ------------------------------------------------------------------------------


def relaxation_summary(fit: RelaxationFit, alpha: float) -> str:
    """Structured text block with the fitted relaxation scaling."""
    lines = [
        f"alpha = {alpha!r}",
        "N_list = " + ", ".join(str(n) for n in fit.Ns),
        "tau_list = " + ", ".join("%.16e" % t for t in fit.taus),
        "beta = %.16e" % fit.beta,
        "b_alpha = %.16e" % fit.b_alpha,
        "residual = %.16e" % fit.residual,
        f"critical_log_model = {fit.critical}",
    ]
    return "\n".join(lines) + "\n"
