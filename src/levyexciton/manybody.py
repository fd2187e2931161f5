"""The symmetric exclusion process with long jumps (d = 1, open chain).

Hard-core particles exchange with empty sites at distance r at rate
kappa / r^(2 alpha). Two routes to the occupation profile n_j(t):

* :func:`kmc_simulate` -- continuous-time kinetic Monte Carlo over the full
  many-body configuration space;
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

from .model import ModelParams, open_line_rates

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
    def n_sites(self) -> int:
        return self.occupations.size

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


class _Fenwick:
    """Binary-indexed tree over per-site rates: O(log N) update and selection."""

    def __init__(self, vals):
        self.n = len(vals)
        self.tree = np.zeros(self.n + 1)
        self.values = np.zeros(self.n)
        for i, v in enumerate(vals):
            if v:
                self.add(i, v)
        self._maxbit = 1 << self.n.bit_length()

    def add(self, i, dv):
        self.values[i] += dv
        i += 1
        while i <= self.n:
            self.tree[i] += dv
            i += i & (-i)

    def total(self) -> float:
        i = self.n
        s = 0.0
        while i > 0:
            s += self.tree[i]
            i -= i & (-i)
        return s

    def find(self, target: float) -> int:
        """Smallest index whose prefix sum exceeds target."""
        idx = 0
        bit = self._maxbit
        rem = target
        while bit:
            nxt = idx + bit
            if nxt <= self.n and self.tree[nxt] <= rem:
                idx = nxt
                rem -= self.tree[nxt]
            bit >>= 1
        return min(idx, self.n - 1)


def _escape_rates(params: ModelParams) -> np.ndarray:
    """In-lattice escape rate per site of the open chain."""
    w = open_line_rates(params)
    cs = np.concatenate(([0.0], np.cumsum(w[1:])))  # cs[r] = sum w(1..r)
    j = np.arange(params.N)
    return cs[j] + cs[params.N - 1 - j]


def kmc_trajectory(
    config0: SpinConfiguration,
    params: ModelParams,
    t_out,
    rng: np.random.Generator,
) -> np.ndarray:
    """One continuous-time trajectory, sampled at the requested times.

    Event generation uses per-particle in-lattice attempt rates with
    Fenwick-tree selection; attempted exchanges onto occupied targets are
    null events that still advance time (exact thinning of the exclusion
    generator). Returns occupations with shape (len(t_out), N).
    """
    if params.bc != "open" or params.d != 1:
        raise ValueError("the exclusion process runs on the open chain")
    N = params.N
    t_out = np.atleast_1d(np.asarray(t_out, dtype=float))
    w = open_line_rates(params)
    disp = np.concatenate((-np.arange(N - 1, 0, -1), np.arange(1, N)))
    cum = np.cumsum(np.concatenate((w[1:][::-1], w[1:])))
    cum_total = cum[-1]
    E = _escape_rates(params)
    occ = config0.occupations.copy()
    tree = _Fenwick(E * occ)
    total = tree.total()
    out = np.empty((t_out.size, N), dtype=np.uint8)
    k_out = 0
    t = 0.0
    while k_out < t_out.size:
        if total <= 0:
            break
        dt = rng.exponential(1.0 / total)
        while k_out < t_out.size and t + dt > t_out[k_out]:
            out[k_out] = occ
            k_out += 1
        if k_out >= t_out.size:
            return out
        t += dt
        j = tree.find(rng.uniform(0.0, total))
        # conditional in-lattice displacement (resampling does not advance time)
        while True:
            r = disp[np.searchsorted(cum, rng.uniform(0.0, cum_total), side="right")]
            tgt = j + r
            if 0 <= tgt < N:
                break
        if occ[tgt] == 0:
            occ[j] = 0
            occ[tgt] = 1
            tree.add(j, -E[j])
            tree.add(tgt, E[tgt])
            total = tree.total()
    while k_out < t_out.size:
        out[k_out] = occ
        k_out += 1
    return out


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
    config0: SpinConfiguration,
    params: ModelParams,
    t_out,
    n_traj: int,
    seed: int,
) -> EnsembleResult:
    """Ensemble of exclusion-process trajectories; reproducible per (seed, index).

    The ensemble mean is accumulated in fixed chunks with pairwise summation,
    so results are bit-identical for a given seed regardless of platform
    threading. Occupations are Bernoulli, hence the standard error follows
    from the mean alone.
    """
    if n_traj < 1:
        raise ValueError("need at least one trajectory")
    t_out = np.atleast_1d(np.asarray(t_out, dtype=float))
    acc = np.zeros((t_out.size, params.N))
    chunk = []
    for i in range(n_traj):
        chunk.append(kmc_trajectory(config0, params, t_out, trajectory_rng(seed, i)))
        if len(chunk) == 256:
            acc += np.sum(np.asarray(chunk, dtype=float), axis=0)
            chunk = []
    if chunk:
        acc += np.sum(np.asarray(chunk, dtype=float), axis=0)
    mean = acc / n_traj
    var = mean * (1.0 - mean) / max(n_traj - 1, 1)
    return EnsembleResult(t_out, mean, np.sqrt(var), n_traj, seed)


# -- linear occupation dynamics -----------------------------------------------------


def _open_generator(params: ModelParams) -> np.ndarray:
    j = np.arange(params.N)
    W = open_line_rates(params)[np.abs(j[:, None] - j[None, :])]
    np.fill_diagonal(W, -W.sum(axis=1))
    return W


def occupation_evolution(params: ModelParams, times, method: str = "eig") -> np.ndarray:
    """Occupation profile n_j(t) of the domain wall under the linear equation.

    The generator is identical to the classical single-particle one on the
    open chain (duality). ``method="eig"`` evolves through the exact
    symmetric eigendecomposition (an exact integrator, cheap at any time);
    ``method="ode"`` reuses the adaptive classical integrator as an
    independent cross-check. Mass N/2 is conserved to 1e-9.
    """
    if params.bc != "open" or params.d != 1:
        raise ValueError("occupation dynamics runs on the open chain")
    if params.N % 2:
        raise ValueError("domain wall needs even N")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    n0 = domain_wall_config(params.N).occupations.astype(float)
    if method == "eig":
        W = _open_generator(params)
        lam, U = np.linalg.eigh(W)
        # the generator is negative semidefinite with one conserved zero mode;
        # pin rounding noise so e^{lam t} stays bounded at any horizon
        lam = np.where(lam > -1e-12, 0.0, lam)
        c = U.T @ n0
        out = np.array([U @ (c * np.exp(lam * t)) for t in times])
    elif method == "ode":
        from .classical import cme_integrate

        nz = times > 0
        out = np.empty((times.size, params.N))
        if times[0] == 0:
            out[0] = n0
        profs = cme_integrate(n0, params, times[nz]) if nz.any() else []
        for row, prof in zip(np.nonzero(nz)[0], profs):
            out[row] = prof.values
    else:
        raise ValueError(f"unknown method {method!r}")
    mass0 = params.N / 2.0
    drift = np.max(np.abs(out.sum(axis=1) - mass0))
    if drift > 1e-9 * mass0:
        raise RuntimeError(f"mass drift {drift:.2e} in occupation evolution")
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
