"""Exact solvers for the single-exciton classical master equation.

The walk obeys  dn_j/dt = sum_{r != 0} w(r) (n_{j+r} - n_j)  with the
long-range rates w(r) = kappa / |r|^(2 alpha) from :mod:`levyexciton.model`.
Two independent routes are provided:

* :func:`cme_integrate` -- adaptive ODE integration with the generator
  applied by FFT convolution (works for both boundary conditions and d <= 3);
* :func:`cme_spectral_solve` -- the exact matrix exponential of the finite
  periodic generator, obtained from the DFT of the ring kernel row.

On rings the two agree to integrator accuracy, which makes the spectral
route a machine-precision oracle for the ODE path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fftn, ifftn, irfftn, rfftn
from scipy.integrate import solve_ivp

from .model import ModelParams, min_image, open_kernel_and_escape, output_times, ring_rate_row

MASS_TOL = 1e-9
NEGATIVITY_TOL = -1e-12


class IntegrationError(RuntimeError):
    """Raised when the adaptive integrator fails; carries the last good state."""

    def __init__(self, message, last_profile=None):
        super().__init__(message)
        self.last_profile = last_profile


@dataclass
class DensityProfile:
    """Real site occupations at one time.

    ``origin`` is the site index of the initial delta; coordinates reported
    by :meth:`coordinates` are displacements from it (minimum image on
    rings). values are probabilities: non-negative up to integrator
    tolerance and summing to the conserved mass.
    """

    t: float
    values: np.ndarray
    bc: str
    origin: tuple[int, ...] | None = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.origin is None:
            self.origin = (0,) * self.values.ndim

    @property
    def shape(self):
        return self.values.shape

    def total(self) -> float:
        return float(self.values.sum())

    def coordinates(self):
        """Per-axis displacement coordinates relative to the origin site."""
        out = []
        for ax, n in enumerate(self.values.shape):
            c = np.arange(n) - self.origin[ax]
            if self.bc == "periodic":
                c = min_image(c, n)
            out.append(c.astype(float))
        return out


def _make_rhs(params: ModelParams):
    shape = params.shape
    if params.bc == "periodic":
        wq = fftn(ring_rate_row(params))
        esc = float(wq.reshape(-1)[0].real)

        def rhs(t, y):
            n = y.reshape(shape)
            conv = ifftn(fftn(n) * wq).real
            return (conv - esc * n).ravel()

        return rhs
    w, escape = open_kernel_and_escape(params)
    fshape = [2 * s - 1 for s in shape]
    wf = rfftn(w, s=fshape)
    sl = tuple(slice(s - 1, 2 * s - 1) for s in shape)

    def rhs(t, y):
        n = y.reshape(shape)
        conv = irfftn(rfftn(n, s=fshape) * wf, s=fshape)[sl]
        return (conv - escape * n).ravel()

    return rhs


def _check_invariants(values: np.ndarray, mass0: float, t: float):
    mass = float(values.sum())
    if abs(mass - mass0) > MASS_TOL * max(1.0, abs(mass0)):
        raise IntegrationError(f"mass drifted to {mass} (from {mass0}) at t = {t}")
    vmin = float(values.min())
    if vmin < NEGATIVITY_TOL:
        raise IntegrationError(f"negativity {vmin} beyond tolerance at t = {t}")


def cme_integrate(
    n0,
    params: ModelParams,
    t_grid,
    rtol: float = 1e-10,
    atol: float = 3e-14,
) -> list[DensityProfile]:
    """Propagate a density profile through the classical master equation.

    ``n0`` is a :class:`DensityProfile` or an array of the lattice shape.
    Output profiles are checked for mass conservation (1e-9 relative) and
    non-negativity (>= -1e-12); violations raise :class:`IntegrationError`
    rather than being clipped, so integrator bugs stay visible.
    """
    t_grid = output_times(t_grid)
    origin = None
    if isinstance(n0, DensityProfile):
        origin = n0.origin
        n0 = n0.values
    n0 = np.asarray(n0, dtype=float)
    if n0.shape != params.shape:
        raise ValueError(f"initial profile shape {n0.shape} != lattice {params.shape}")
    mass0 = float(n0.sum())
    Y = n0.reshape(-1, 1)  # the grid [0.0] needs no integration
    if t_grid[-1] > 0:
        sol = solve_ivp(
            _make_rhs(params),
            (0.0, float(t_grid[-1])),
            n0.ravel(),
            t_eval=t_grid,
            method="DOP853",
            rtol=rtol,
            atol=atol,
        )
        if not sol.success:
            last = None
            if sol.y.size:
                last = DensityProfile(float(sol.t[-1]), sol.y[:, -1].reshape(params.shape), params.bc, origin)
            raise IntegrationError(f"integrator failed: {sol.message}", last_profile=last)
        Y = sol.y
    out = []
    for k, t in enumerate(t_grid):
        values = Y[:, k].reshape(params.shape)
        _check_invariants(values, mass0, float(t))
        out.append(DensityProfile(float(t), values.copy(), params.bc, origin))
    return out


@dataclass(frozen=True)
class CharacteristicGrid:
    """Discrete ring momenta with the characteristic-function values K(q, t)."""

    q: np.ndarray
    K: np.ndarray
    t: float


def _ring_eigenvalues(params: ModelParams) -> np.ndarray:
    """Decay eigenvalues lambda(q) <= 0 of the finite periodic generator.

    The DFT of the kernel row, shifted so lambda(0) = 0 holds exactly in
    floating point (this pins K(0, t) = 1 bit-exactly).
    """
    lam = fftn(ring_rate_row(params)).real
    lam0 = lam.reshape(-1)[0]
    return lam - lam0


def characteristic_grid(params: ModelParams, t: float) -> CharacteristicGrid:
    """K(q, t) = exp([A(q) - A(0)] t) on the N^d discrete momentum grid."""
    if params.bc != "periodic":
        raise ValueError("characteristic function requires periodic bc")
    lam = _ring_eigenvalues(params)
    q = 2.0 * np.pi * np.fft.fftfreq(params.N)
    return CharacteristicGrid(q=q, K=np.exp(lam * t), t=float(t))


def ring_decay_rates(params: ModelParams) -> np.ndarray:
    """Sorted decay rates of the finite periodic generator (0 = steady state)."""
    return np.sort(-_ring_eigenvalues(params).ravel())


def cme_spectral_solve(params: ModelParams, t: float) -> DensityProfile:
    """Exact ring density at time t from a delta at the origin.

    Inverse DFT of exp(lambda(q) t) with lambda the DFT of the finite ring's
    kernel row; equals the matrix exponential of the finite generator, so it
    is exact for the ring rather than a thermodynamic-limit approximation.
    """
    if params.bc != "periodic":
        raise ValueError("spectral solve requires periodic bc")
    if t < 0:
        raise ValueError("time must be non-negative")
    lam = _ring_eigenvalues(params)
    values = ifftn(np.exp(lam * t)).real
    return DensityProfile(float(t), values, params.bc, origin=(0,) * params.d)


def moments(profile: DensityProfile):
    """Mean displacement vector and scalar variance of a normalized profile."""
    n = profile.values
    coords = profile.coordinates()
    grids = np.meshgrid(*coords, indexing="ij")
    mean = np.array([float(np.sum(n * g)) for g in grids])
    var = float(sum(np.sum(n * (g - m) ** 2) for g, m in zip(grids, mean)))
    return mean, var


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
    j_min, j_max = int(j_window[0]), int(j_window[1])
    if not 1 <= j_min < j_max:
        raise ValueError("window must satisfy 1 <= j_min < j_max")
    coords = profile.coordinates()[0]
    sel = (coords >= j_min) & (coords <= j_max)
    if sel.sum() < 4:
        raise ValueError("window contains fewer than 4 sites")
    return fit_power_law(coords[sel], profile.values[sel])


def axis_profile(profile: DensityProfile, axis: int = 0):
    """1d cut along a lattice axis through the origin site -> DensityProfile."""
    idx = list(profile.origin)
    sl = tuple(slice(None) if ax == axis else idx[ax] for ax in range(profile.values.ndim))
    values = profile.values[sl]
    return DensityProfile(profile.t, values, profile.bc, origin=(profile.origin[axis],))
