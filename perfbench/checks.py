"""Output checks: each compares a unit's result with an independent route.

Tolerances are ones the compared routes reach at the benchmark's sizes, not
golden bytes: a faster solver may reorder eigenvalues or move the last
digits and still pass. A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(AssertionError):
    """A unit's output disagrees with its independent route."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def read_csv(path, usecols=None) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=usecols)


def read_keyed_text(path) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.partition("=")
            if sep:
                out[key.strip()] = value.strip()
    return out


# -- dephasing ring spectrum ---------------------------------------------------------


def ring_hopping_row(N: int, alpha: float, J: float) -> np.ndarray:
    r = np.arange(1, N, dtype=float)
    row = np.zeros(N)
    row[1:] = J * (r**-alpha + (N - r) ** -alpha)
    return row


def plane_wave_diagonal(q_index: int, N: int, alpha: float, J: float, gamma: float) -> np.ndarray:
    """d_k = E0_k + gamma, E0 the DFT of the circulant block's first row.

    In the plane-wave basis the momentum block C_q + gamma X is
    diag(d) - (gamma/N) 1 1^T, so every eigenvalue is a root of the secular
    equation f(E) = 1 - (gamma/N) sum_k 1/(d_k - E) = 0.
    """
    m = np.arange(N)
    q = 2.0 * math.pi * q_index / N
    first_row = 1j * (1.0 - np.exp(-1j * q * m)) * ring_hopping_row(N, alpha, J)
    return np.fft.ifft(first_row) * N + gamma


def secular_newton_steps(E: np.ndarray, d: np.ndarray, gamma: float) -> np.ndarray:
    """|f/f'| at each eigenvalue E: the distance to the nearest secular root, to first order."""
    inv = 1.0 / (d[None, :] - E[:, None])
    f = 1.0 - (gamma / d.size) * inv.sum(axis=1)
    fp = -(gamma / d.size) * (inv**2).sum(axis=1)
    return np.abs(f / fp)


def check_ring_spectrum_csv(path, N: int, alpha: float, J: float, gamma: float, tol: float = 1e-8) -> float:
    """Every eigenvalue in a spectrum CSV solves its block's secular equation,
    and each block's eigenvalues sum, and sum in squares, to the block's
    trace and the trace of its square, so a root listed twice or missed fails."""
    data = read_csv(path, usecols=(0, 1, 2, 3))
    require(data.shape[0] == N * N, f"{path.name}: {data.shape[0]} rows, expected {N * N}")
    q_idx = data[:, 0].astype(int)
    E = data[:, 2] + 1j * data[:, 3]
    worst = 0.0
    for qi in range(N):
        Eq = E[q_idx == qi]
        require(Eq.size == N, f"{path.name}: block {qi} has {Eq.size} eigenvalues")
        d = plane_wave_diagonal(qi, N, alpha, J, gamma)
        # tr M = sum d - gamma; tr M^2 = sum d^2 - 2 (gamma/N) sum d + gamma^2
        for power, trace in ((1, d.sum() - gamma), (2, (d * d).sum() - 2.0 * gamma / N * d.sum() + gamma**2)):
            dev = abs((Eq**power).sum() - trace) / max(1.0, float(np.sum(np.abs(Eq) ** power)))
            require(dev <= tol, f"{path.name}: block {qi} eigenvalue power-{power} sum off its trace by {dev:.3e}")
            worst = max(worst, dev)
        if qi == 0:
            # C_0 = 0, so the block is gamma X: one steady mode, the rest at gamma
            dev = np.sort(np.abs(Eq))
            worst = max(worst, float(dev[0]), float(np.max(np.abs(np.sort_complex(Eq)[1:] - gamma))))
            continue
        steps = secular_newton_steps(Eq, d, gamma)
        worst = max(worst, float(np.max(steps / np.maximum(1.0, np.abs(Eq)))))
    require(worst <= tol, f"{path.name}: secular residual {worst:.3e} > {tol:.0e}")
    return worst


# -- exclusion process -----------------------------------------------------------------


def bernstein_deviation_bound(variance: np.ndarray, n_tests: int, family_risk: float = 1e-6) -> np.ndarray:
    """Bound on |S - E S| for S a sum of negatively associated variables in [0, 1].

    Bernstein's inequality, which holds for independent and for negatively
    associated summands alike, gives P(|S - E S| >= x) <= 2 exp(-x^2 / (2 V + 2 x / 3))
    for total variance at most V. Splitting the family risk evenly over the
    tests (Bonferroni) and solving for x gives a bound that an exact sampler
    exceeds anywhere with probability at most ``family_risk``, for any seed
    and however rare the occupation.
    """
    L = math.log(2.0 * n_tests / family_risk)
    return L / 3.0 + np.sqrt(L * L / 9.0 + 2.0 * variance * L)


def check_duality(mean: np.ndarray, lin: np.ndarray, n_traj: int) -> float:
    """KMC occupation means against the exact dual prediction; returns the largest
    per-site |z| = |mean - lin| / sqrt(lin (1 - lin) / n).

    Two families of tests share one family risk: the occupation count of every
    site at every time, and, per time, the number of particles in the right
    half (the charge carried across the domain wall). The symmetric exclusion
    process started from a fixed configuration is negatively associated
    (Borcea, Branden and Liggett 2009), so the right-half count of one
    trajectory has variance at most sum lin (1 - lin) over its sites. The
    pooled test is what rejects a sampler that runs at the wrong speed: with
    a few hundred trajectories, the per-site tests alone cannot see it.
    """
    n_times, N = mean.shape
    sums = mean.sum(axis=1)
    require(
        np.max(np.abs(sums - N / 2)) <= 1e-9 * N,
        f"mean particle number {sums} differs from N/2 = {N / 2}",
    )
    var = lin * (1.0 - lin)
    require(np.all(var > 0), "dual prediction has a deterministic site")
    right = slice(N // 2, None)
    n_tests = mean.size + n_times
    site = np.abs(mean - lin) * n_traj / bernstein_deviation_bound(n_traj * var, n_tests)
    charge = np.abs(mean[:, right].sum(axis=1) - lin[:, right].sum(axis=1)) * n_traj
    pooled = charge / bernstein_deviation_bound(n_traj * var[:, right].sum(axis=1), n_tests)
    for name, excess in (("site occupation", site), ("right-half particle number", pooled)):
        worst = float(np.max(excess))
        require(worst <= 1.0, f"{name} deviates from the dual prediction by {worst:.3f}x its Bonferroni-Bernstein bound")
    return float(np.max(np.abs(mean - lin) / np.sqrt(var / n_traj)))


# -- closed forms ------------------------------------------------------------------------


def cosine_series_even_power(q: np.ndarray, n: int) -> np.ndarray:
    """2 sum_{r>=1} cos(r q) / r^(2n) for 0 <= q <= 2 pi, n in {1, 2}.

    Bernoulli-polynomial closed form (-1)^(n-1) (2 pi)^(2n) B_2n(q/2pi) / (2n)!.
    """
    x = np.asarray(q, dtype=float) / (2.0 * math.pi)
    if n == 1:
        B = x * x - x + 1.0 / 6.0
    elif n == 2:
        B = x**4 - 2.0 * x**3 + x * x - 1.0 / 30.0
    else:
        raise ValueError("closed form coded for n = 1, 2")
    return (-1.0) ** (n - 1) * (2.0 * math.pi) ** (2 * n) * B / math.factorial(2 * n)


def lattice_sum_reference(s: float, d: int) -> float:
    """sum_{r != 0} |r|^-s over Z^d from scipy: 2 zeta(s) (d = 1), 4 zeta(w) beta(w) (d = 2)."""
    from scipy.special import zeta

    if d == 1:
        return 2.0 * float(zeta(s))
    if d == 2:
        w = s / 2.0
        dirichlet_beta = 4.0**-w * (float(zeta(w, 0.25)) - float(zeta(w, 0.75)))
        return 4.0 * float(zeta(w)) * dirichlet_beta
    raise ValueError("reference coded for d = 1, 2")


def relative(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)
