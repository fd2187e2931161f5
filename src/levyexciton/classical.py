"""Exact solvers for the single-exciton classical master equation.

The walk obeys  dn_j/dt = sum_{r != 0} w(r) (n_{j+r} - n_j)  with the
long-range rates w(r) = kappa / |r|^(2 alpha) from :mod:`levyexciton.model`.
Two independent routes are provided:

* :func:`cme_integrate` -- the Chebyshev-Bessel series of exp(tW) with the
  generator W applied by FFT convolution (both boundary conditions, d <= 3;
  on open lattices each axis is transformed only over the lines that hold
  data or are kept, see :func:`levyexciton.model.open_kernel_and_escape`).
  Its term count is fixed up front by a certified 1e-16 truncation bound;
* :func:`cme_spectral_solve` -- the exact matrix exponential of the finite
  periodic generator, obtained from the DFT of the ring kernel row.

On rings the two agree to rounding, which makes the spectral route an
independent oracle for the series. Both run in the propagators' frame,
:func:`levyexciton.model.propagated`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fftn, ifftn, irfftn, rfftn
from scipy.special import ive

from .model import ModelParams, axis_moments, displacement_axis, open_kernel_and_escape, propagated, ring_rate_row

TRUNCATION = 1e-16  # bound on the dropped Chebyshev terms, relative to ||n0||_2

_log = logging.getLogger(__name__)


@dataclass
class DensityProfile:
    """Real site occupations at one time.

    ``origin`` is the site index of the initial delta; coordinates reported
    by :meth:`coordinates` are displacements from it (minimum image on
    rings). values are probabilities: non-negative up to rounding and
    summing to the conserved mass.
    """

    t: float
    values: np.ndarray
    bc: str
    origin: tuple[int, ...] | None = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.origin is None:
            self.origin = (0,) * self.values.ndim

    def total(self) -> float:
        return float(self.values.sum())

    def coordinates(self):
        """Per-axis displacement coordinates relative to the origin site."""
        return [displacement_axis(n, o, self.bc).astype(float) for n, o in zip(self.values.shape, self.origin)]


def _generator(params: ModelParams):
    """The generator W as a map on lattice-shaped arrays, and its largest escape rate a.

    W n = w * n - escape n by FFT: the ring kernel's DFT on rings,
    :func:`levyexciton.model.open_kernel_and_escape` on open lattices. W is
    real symmetric, so Gershgorin puts its spectrum in [-2a, 0].
    """
    if params.bc == "periodic":
        wq = rfftn(ring_rate_row(params))
        a = float(wq.reshape(-1)[0].real)  # every site escapes at sum_r w(r)
        lam = wq - a
        return (lambda n: irfftn(rfftn(n) * lam, s=n.shape)), a
    convolve, escape = open_kernel_and_escape(params)
    return (lambda n: convolve(n) - escape * n), float(escape.max())


def _term_count(z: float) -> int:
    """Smallest K with 2 sum_{k > K} ive(k, z) <= TRUNCATION.

    e^{-z} I_k(z) is the law of the difference of two Poisson(z/2) counts, so
    the tail falls like exp(-k^2 / 2z): K ~ sqrt(z), far inside 16 sqrt(z) + 64.
    """
    tail = 2.0 * np.cumsum(ive(np.arange(int(16.0 * math.sqrt(z)) + 65), z)[::-1])[::-1]
    return int(np.argmax(tail[1:] <= TRUNCATION))  # tail[k] = 2 sum_{j >= k} ive(j, z)


def cme_integrate(n0, params: ModelParams, t_grid) -> DensityProfile | list[DensityProfile]:
    """Propagate a density profile through the classical master equation.

    ``n0`` is a :class:`DensityProfile` or an array of the lattice shape.
    exp(tW) n0 is the Chebyshev-Bessel series sum_k c_k(a t) T_k(W/a + I) n0
    with c_0 = ive(0, z) and c_k = 2 ive(k, z) (Tal-Ezer & Kosloff 1984).
    W/a + I has its spectrum in [-1, 1], so ||T_k||_2 <= 1, and the K terms
    fixed by z_max = a t_max leave a 2-norm error of at most
    TRUNCATION * ||n0||_2. One three-term recurrence serves every output
    time t > 0; the t = 0 profile is a copy of n0. A profile that breaches
    mass or positivity raises :class:`levyexciton.model.InvariantError`.
    """
    start = n0 if isinstance(n0, DensityProfile) else DensityProfile(0.0, n0, params.bc)
    n0 = np.array(start.values, dtype=float)
    if n0.shape != params.shape:
        raise ValueError(f"initial profile shape {n0.shape} != lattice {params.shape}")

    def evolve(ts):
        apply, a = _generator(params)
        z = a * ts
        K = _term_count(float(z[-1]))
        Y = ive(0, z)[:, None] * n0.ravel()
        prev, cur = None, n0
        for k in range(1, K + 1):
            step = cur + apply(cur) / a  # (W/a + I) T_{k-1} n0
            prev, cur = cur, step if k == 1 else 2.0 * step - prev
            Y += 2.0 * ive(k, z)[:, None] * cur.ravel()
        _log.debug("cme_integrate: a = %.6g, z_max = %.6g, K = %d, convolutions = %d", a, z[-1], K, K)
        return [DensityProfile(float(t), y.reshape(params.shape), params.bc, start.origin) for t, y in zip(ts, Y)]

    return propagated(t_grid, DensityProfile(0.0, n0, params.bc, start.origin), evolve, lambda prof: prof.values)


def _ring_eigenvalues(params: ModelParams) -> np.ndarray:
    """Decay eigenvalues lambda(q) <= 0 of the finite periodic generator.

    The DFT of the kernel row, shifted so lambda(0) = 0 holds exactly in
    floating point.
    """
    lam = fftn(ring_rate_row(params)).real
    lam0 = lam.reshape(-1)[0]
    return lam - lam0


def ring_decay_rates(params: ModelParams) -> np.ndarray:
    """Sorted decay rates of the finite periodic generator (0 = steady state)."""
    return np.sort(-_ring_eigenvalues(params).ravel())


def cme_spectral_solve(params: ModelParams, t) -> DensityProfile | list[DensityProfile]:
    """Exact ring density at the times t from a delta at the origin.

    Inverse DFT of exp(lambda(q) t) with lambda the DFT of the finite ring's
    kernel row; equals the matrix exponential of the finite generator, so it
    is exact for the ring rather than a thermodynamic-limit approximation.
    The t = 0 profile is the delta itself; a scalar time gives one profile, a
    grid a list. Each profile is checked for mass and positivity as in
    :func:`cme_integrate`.
    """
    if params.bc != "periodic":
        raise ValueError("spectral solve requires periodic bc")
    lam = _ring_eigenvalues(params)
    delta = DensityProfile(0.0, np.eye(1, params.n_sites).reshape(params.shape), params.bc)

    def evolve(ts):
        return [DensityProfile(float(tv), ifftn(np.exp(lam * tv)).real, params.bc) for tv in ts]

    return propagated(t, delta, evolve, lambda prof: prof.values)


def moments(profile: DensityProfile):
    """Mean displacement vector and scalar variance of a normalized profile, summed from its marginals' moments."""
    n = profile.values
    axes = range(n.ndim)
    marginals = (n.sum(axis=tuple(b for b in axes if b != a)) for a in axes)
    per_axis = [axis_moments(w, o, profile.bc) for w, o in zip(marginals, profile.origin)]
    return np.array([m for m, _ in per_axis]), sum(v for _, v in per_axis)


def fit_power_law(x, y):
    """Least-squares line in log-log coordinates -> (exponent, amplitude)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("power-law fit window contains non-positive values")
    slope, intercept = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope), float(np.exp(intercept))


def tail_fit(profile: DensityProfile, j_window):
    """Fit the algebraic tail n ~ A |j|^s over positive displacements.

    ``j_window`` = (j_min, j_max) inclusive. The window must exclude the
    Gaussian core (j_min >= 2 xi when a crossover exists). Returns
    (exponent, amplitude); for the asymptotic tail these approach -2 alpha
    and kappa t.
    """
    if profile.values.ndim != 1:
        raise ValueError("tail_fit expects a one-dimensional profile; take an axis cut first")
    coords = profile.coordinates()[0]
    sel = tail_window(coords, j_window)
    return fit_power_law(coords[sel], profile.values[sel])


def tail_window(coords, j_window) -> np.ndarray:
    """Mask of the displacements ``coords`` inside the inclusive (j_min, j_max).

    Refuses a window with j_min < 1 or j_min >= j_max, or one holding fewer
    than 4 sites.
    """
    j_min, j_max = int(j_window[0]), int(j_window[1])
    if not 1 <= j_min < j_max:
        raise ValueError("window must satisfy 1 <= j_min < j_max")
    sel = (coords >= j_min) & (coords <= j_max)
    if sel.sum() < 4:
        raise ValueError("window contains fewer than 4 sites")
    return sel


def axis_profile(profile: DensityProfile, axis: int = 0):
    """1d cut along a lattice axis through the origin site -> DensityProfile."""
    idx = list(profile.origin)
    sl = tuple(slice(None) if ax == axis else idx[ax] for ax in range(profile.values.ndim))
    values = profile.values[sl]
    return DensityProfile(profile.t, values, profile.bc, origin=(profile.origin[axis],))
