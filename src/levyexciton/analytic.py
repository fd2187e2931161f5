"""Closed-form and asymptotic transport quantities.

Everything the classical walk admits in closed form lives here: the lattice
structure function and its small-momentum expansions, diffusion and Levy
coefficients, the asymptotic density profiles, the Gaussian/power-law
crossover length, and the Foerster enhancement ratio.

Conventions: the structure function is reported *dimensionless*, i.e. divided
by the classical rate kappa, so `structure_function_eval(sf, 0)` equals the
pure lattice sum sum_{r != 0} |r|^(-2 alpha). Coefficients D_alpha and
C_alpha carry their physical kappa factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import wofz

from .model import ModelParams, finite_displacement_norms
from .special import (
    _upper_gamma,
    _zeta_any,
    DAWSON_STABILITY_RADIUS,
    gamma_fn,
    lambert_w_m1,
    polylog_circle,
    riemann_zeta,
)

_INTEGER_TOL = 1e-9

# half-width of the image cube in both Ewald sums: the first omitted term is
# below exp(-pi 4.5^2) ~ 1e-28 of the kept ones
_EWALD_CUBE = 4


def _is_integer(x: float) -> bool:
    return abs(x - round(x)) < _INTEGER_TOL


# -- lattice sums ----------------------------------------------------------------


def _epstein_cos(s: float, d: int, q) -> float:
    """sum over nonzero r in Z^d of cos(q.r) |r|^(-s), s > d, by Ewald splitting.

    Epstein's theta split at unit scale gives pi^(s/2) / Gamma(s/2) times
    T1 + T2 - 2/s with T1 = sum_{r != 0} cos(q.r) Gamma(s/2, pi r^2) (pi r^2)^(-s/2)
    and T2 = sum_k Gamma((d - s)/2, pi u^2) (pi u^2)^((s - d)/2), u = |k + q/2pi|;
    a term with u -> 0 is its limit 2/(s - d). Both sums run over the cube |n_i| <= 4.
    """
    axis = np.arange(-_EWALD_CUBE, _EWALD_CUBE + 1, dtype=float)
    n = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
    x = math.pi * np.sum(n**2, axis=1)
    nz = x > 0
    t1 = np.sum(np.cos(n[nz] @ q) * _upper_gamma(s / 2.0, x[nz]) * x[nz] ** (-s / 2.0))
    x = math.pi * np.sum((n + q / (2.0 * math.pi)) ** 2, axis=1)
    xp = x ** ((s - d) / 2.0)
    far = xp > 1e-300  # nearer terms equal their u -> 0 limit to double precision
    t2 = np.sum(_upper_gamma((d - s) / 2.0, x[far]) * xp[far]) + np.count_nonzero(~far) * 2.0 / (s - d)
    return float(math.pi ** (s / 2.0) / gamma_fn(s / 2.0) * (t1 + t2 - 2.0 / s))


def lattice_sum(s: float, d: int, N: int | None = None, bc: str = "periodic") -> float:
    """sum_{r != 0} |r|^(-s) over Z^d (N = None) or a finite N^d lattice.

    The infinite sum requires s > d; it is 2 zeta(s) in d = 1 and the q = 0
    Ewald sum of the structure function in d >= 2, accurate to ~1e-15
    relative. The finite sum is exact for any s and matches the displacement
    sets used by the solvers (minimum image for periodic, central site for open).
    """
    s = float(s)
    if not 1 <= d <= 3:
        raise ValueError(f"dimension must be 1..3, got {d}")
    if N is None:
        if s <= d:
            raise ValueError(f"lattice sum diverges for s = {s} <= d = {d}")
        return 2.0 * riemann_zeta(s) if d == 1 else _epstein_cos(s, d, np.zeros(d))
    vals, counts = finite_displacement_norms(N, d, bc)
    return float(np.sum(counts * vals ** (-s / 2.0)))


# -- structure function ------------------------------------------------------------


class StructureFunction:
    """Dimensionless structure function A(q)/kappa = sum_{r!=0} r^(-2a) cos(q.r).

    d = 1 evaluates through the polylogarithm on the unit circle; d >= 2 uses
    the Ewald (Epstein theta) split of the lattice sum, whose q = 0 value is
    :func:`lattice_sum`. Evaluation is read-only and safe to share across
    workers. ``radius`` is accepted for compatibility and ignored.
    """

    def __init__(self, params: ModelParams, radius: int | None = None):
        params.require_thermodynamic()  # the q = 0 sum needs 2 alpha > d
        self.params = params
        self.a0 = lattice_sum(2 * params.alpha, params.d)

    def __call__(self, q) -> float:
        return structure_function_eval(self, q)


def structure_function_eval(sf: StructureFunction, q) -> float:
    """A(q)/kappa at momentum q (|q_i| <= pi)."""
    p = sf.params
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.size != p.d:
        raise ValueError(f"momentum must have {p.d} components, got {q.size}")
    if np.max(np.abs(q)) > math.pi + 1e-12:
        raise ValueError("momentum components must lie in [-pi, pi]")
    if p.d == 1:
        return 2.0 * polylog_circle(2 * p.alpha, float(q[0])).real
    return _epstein_cos(2 * p.alpha, p.d, q)


# -- small-momentum expansions ------------------------------------------------------


@dataclass(frozen=True)
class SmallQExpansion:
    """Near-origin approximation of A(q)/kappa with its provenance.

    ``order`` names the first neglected order ("exact" when the closed form
    terminates); ``branch`` records which expansion family applied.
    """

    value: float
    order: str
    branch: str


def small_q_expansion(params: ModelParams, q) -> SmallQExpansion:
    """Branch-selected expansion of the structure function about q = 0.

    Valid as an approximation for |q| <~ 0.3 (not enforced). The branch is
    chosen by the arithmetic class of alpha: integer alpha in d = 1 terminates
    exactly; half-integer alpha carries a q^(2 alpha - 1) log q^2 term;
    generic alpha combines the fractional singular power with a zeta Taylor
    series; d >= 2 uses the continuum singular power.
    """
    a, d = params.alpha, params.d
    qv = np.atleast_1d(np.asarray(q, dtype=float))
    if qv.size != d:
        raise ValueError(f"momentum must have {d} components")
    qn = float(np.sqrt(np.sum(qv**2)))

    if d == 1:
        if _is_integer(a):
            n = int(round(a))
            value = (-1.0) ** n * math.pi / math.factorial(2 * n - 1) * qn ** (2 * n - 1)
            for j in range(0, n + 1):
                zj = -0.5 if j == n else riemann_zeta(2 * n - 2 * j)
                value += 2.0 * (-1.0) ** j * zj * qn ** (2 * j) / math.factorial(2 * j)
            return SmallQExpansion(value, "exact", "d1-integer")
        if _is_integer(2 * a):
            s = int(round(a - 0.5))
            if qn == 0.0:
                return SmallQExpansion(2.0 * riemann_zeta(2 * s + 1), "O(q^4)", "d1-half-integer")
            if s == 1:
                value = 0.5 * qn**2 * math.log(qn**2) + 2.0 * riemann_zeta(3) - 1.5 * qn**2
            else:
                value = (
                    (-1.0) ** (s + 1) * qn ** (2 * s) / math.factorial(2 * s) * math.log(qn**2)
                    + 2.0 * riemann_zeta(2 * s + 1)
                    - riemann_zeta(2 * s - 1) * qn**2
                )
            return SmallQExpansion(value, "O(q^4)", "d1-half-integer")
        c_over_kappa = -2.0 * gamma_fn(1.0 - 2 * a) * math.sin(math.pi * a)
        value = -c_over_kappa * qn ** (2 * a - 1)
        value += 2.0 * _zeta_any(2 * a)
        value -= _zeta_any(2 * a - 2) * qn**2
        return SmallQExpansion(value, "O(q^4)", "d1-generic")

    # d >= 2: continuum singular power about q = 0
    params.require_thermodynamic()
    if _is_integer(a - d / 2.0) and a - d / 2.0 >= 0:
        raise ValueError(
            f"continuum expansion has a pole at alpha = {a} for d = {d}; "
            "evaluate the structure function directly"
        )
    a0 = lattice_sum(2 * a, d)
    sing = math.pi ** (d / 2.0) * 2.0 ** (d - 2 * a) * gamma_fn(d / 2.0 - a) / gamma_fn(a)
    value = a0 + sing * qn ** (2 * a - d)
    alpha_cr = (d + 2) / 2.0
    if a > alpha_cr:
        value -= 0.5 * lattice_sum(2 * a - 2, d) * qn**2
        return SmallQExpansion(value, "O(q^4)", "continuum-mixed")
    return SmallQExpansion(value, "O(q^2)", "continuum-levy")


# -- asymptotic coefficients ---------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticCoefficients:
    """Transport coefficients of the long-time profile.

    D_alpha (sites^2/time) is populated only in the mixed regime
    (alpha > alpha_cr); C_alpha (sites^(2 alpha - d)/time) is None at the
    log-modified points where the singular power carries a logarithm.
    """

    D_alpha: float | None
    C_alpha: float | None
    alpha_cr: float
    regime: str


def levy_coefficient_d1(alpha: float, kappa: float) -> float | None:
    """C_alpha in d = 1 from the polylog expansion coefficients.

    Generic alpha: -2 kappa Gamma(1 - 2 alpha) sin(pi alpha); integer alpha:
    (-1)^(alpha+1) pi kappa / (2 alpha - 1)!. Half-integer alpha has a
    logarithmic singular term and no pure power coefficient (None).
    """
    if _is_integer(alpha):
        n = int(round(alpha))
        return (-1.0) ** (n + 1) * math.pi * kappa / math.factorial(2 * n - 1)
    if _is_integer(2 * alpha):
        return None
    return -2.0 * kappa * gamma_fn(1.0 - 2 * alpha) * math.sin(math.pi * alpha)


def levy_coefficient_continuum(alpha: float, d: int, kappa: float) -> float | None:
    """C_alpha from the continuum (translation-invariant) formula.

    -kappa pi^(d/2) 2^(d - 2 alpha) Gamma(d/2 - alpha) / Gamma(alpha);
    None at the Gamma poles alpha - d/2 in {0, 1, 2, ...}.
    """
    if _is_integer(alpha - d / 2.0) and alpha - d / 2.0 >= 0:
        return None
    return (
        -kappa
        * math.pi ** (d / 2.0)
        * 2.0 ** (d - 2 * alpha)
        * gamma_fn(d / 2.0 - alpha)
        / gamma_fn(alpha)
    )


def coefficients(params: ModelParams) -> AsymptoticCoefficients:
    """Diffusion coefficient, Levy coefficient, and regime classification."""
    params.require_thermodynamic()
    a, d = params.alpha, params.d
    kappa = params.kappa
    alpha_cr = (d + 2) / 2.0
    regime = "levy" if a <= alpha_cr else "mixed"
    D = None
    if regime == "mixed":
        D = 0.5 * kappa * lattice_sum(2 * a - 2, d)
    C = levy_coefficient_d1(a, kappa) if d == 1 else levy_coefficient_continuum(a, d, kappa)
    return AsymptoticCoefficients(D_alpha=D, C_alpha=C, alpha_cr=alpha_cr, regime=regime)


# -- asymptotic profiles ---------------------------------------------------------------


def asymptotic_profile(j, t: float, params: ModelParams):
    """Long-time density at site displacement j from the initial exciton.

    alpha <= alpha_cr: pure algebraic tail kappa t / |j|^(2 alpha).
    alpha > alpha_cr: the larger of the Gaussian core
    exp(-|j|^2 / 4 D t) / (4 pi D t)^(d/2) and the tail, which cross exactly
    once beyond the peak (taking the max avoids a stitching discontinuity).

    j may be a scalar (d = 1), a d-vector, or an array of those. The origin
    with alpha <= alpha_cr has no asymptotic value; the finite-ring spectral
    solver supplies it for periodic parameters (documented limitation).
    """
    if t <= 0:
        raise ValueError("profile is defined for t > 0")
    params.require_thermodynamic()
    a, d = params.alpha, params.d
    kappa = params.kappa
    jj = np.asarray(j, dtype=float)
    if d == 1:
        r2 = np.atleast_1d(jj) ** 2
    else:
        arr = np.atleast_2d(jj)
        if arr.shape[-1] != d:
            raise ValueError(f"site vectors must have {d} components")
        r2 = np.sum(arr**2, axis=-1)
    alpha_cr = (d + 2) / 2.0
    with np.errstate(divide="ignore"):
        tail = kappa * t * r2 ** (-a)
    if a <= alpha_cr:
        if np.any(r2 == 0):
            if params.bc != "periodic":
                raise ValueError(
                    "origin density in the Levy regime requires the spectral "
                    "solver on a periodic lattice"
                )
            from .classical import cme_spectral_solve

            origin = cme_spectral_solve(params, t).values[(0,) * d]
            tail = np.where(r2 == 0, origin, tail)
        out = tail
    else:
        D = 0.5 * kappa * lattice_sum(2 * a - 2, d)
        gauss = np.exp(-r2 / (4 * D * t)) / (4 * math.pi * D * t) ** (d / 2.0)
        out = np.maximum(gauss, np.where(r2 == 0, 0.0, tail))
    if np.isscalar(j) or (isinstance(j, np.ndarray) and j.ndim == 0):
        return float(out[0])
    if d > 1 and np.asarray(j).ndim == 1:
        return float(out[0])
    return out


def exact_profile_alpha1(j, t: float, params: ModelParams):
    """Closed-form ring density for alpha = 1, d = 1 (Dawson-integral form).

    n_j(t) = [D((i j + pi k t)/sqrt(2 k t)) - D((i j - pi k t)/sqrt(2 k t))]
             / sqrt(2 k t pi^2).

    For integer j the two exploding e^{-z^2} halves of the Dawson values
    cancel identically (sin(pi j) = 0), leaving the numerically stable
    reduction n_j = Im w(z_+) / sqrt(2 pi k t) with w the Faddeeva function
    (``scipy.special.wofz``); that reduction is what is evaluated here. Once
    the Dawson argument leaves the stability radius the asymptotic tail
    kappa t / j^2 takes over.
    """
    if abs(params.alpha - 1.0) > 1e-12 or params.d != 1:
        raise ValueError("closed form holds for alpha = 1, d = 1")
    if t <= 0:
        raise ValueError("profile is defined for t > 0")
    kt = params.kappa * t
    jj = np.atleast_1d(np.asarray(j))
    if not np.all(jj == np.round(jj)):
        raise ValueError("site index must be integer")
    jabs = np.abs(jj.astype(float))
    s2 = math.sqrt(2.0 * kt)
    zplus = (1j * jabs + math.pi * kt) / s2
    inside = np.abs(zplus) <= DAWSON_STABILITY_RADIUS
    out = np.empty_like(jabs)
    if np.any(inside):
        out[inside] = np.imag(wofz(zplus[inside])) / math.sqrt(2.0 * math.pi * kt)
    if np.any(~inside):
        out[~inside] = kt / jabs[~inside] ** 2
    if np.isscalar(j) or (isinstance(j, np.ndarray) and np.asarray(j).ndim == 0):
        return float(out[0])
    return out


# -- crossover scales -----------------------------------------------------------------


@dataclass(frozen=True)
class CrossoverScales:
    """Gaussian-to-tail crossover data at a given time.

    xi_exact exists only for t >= t_cr (domain of the -1 Lambert branch) and
    equals sqrt(4 alpha D t_cr) exactly at t = t_cr. xi_approx is the
    large-time logarithmic form and may be NaN before its log turns positive.
    """

    xi_exact: float | None
    xi_approx: float
    t_cr: float


def crossover(params: ModelParams, t: float) -> CrossoverScales:
    """Crossover length between the Gaussian core and the algebraic tail."""
    coeff = coefficients(params)
    if coeff.regime != "mixed":
        raise ValueError("crossover exists only for alpha > alpha_cr")
    a, d = params.alpha, params.d
    kappa = params.kappa
    D = coeff.D_alpha
    acr = coeff.alpha_cr
    t_cr = (
        1.0
        / (4.0 * D)
        * (math.pi ** (d / 2.0) * kappa * math.e**a / (4.0 * D * a**a)) ** (1.0 / (a - acr))
    )
    arg = -(1.0 / a) * ((math.pi ** (d / 2.0) * kappa / (4.0 * D)) * (4.0 * D * t) ** (acr - a)) ** (
        1.0 / a
    )
    branch_pt = -1.0 / math.e
    xi_exact = None
    if arg >= branch_pt:
        xi_exact = math.sqrt(-4.0 * a * D * t * lambert_w_m1(arg))
    elif arg > branch_pt * (1.0 + 1e-12):
        xi_exact = math.sqrt(4.0 * a * D * t)
    log_arg = (4.0 * a**a * D / (math.pi ** (d / 2.0) * kappa)) * (4.0 * D * t) ** (a - acr)
    xi_approx = math.sqrt(4.0 * D * t * math.log(log_arg)) if log_arg > 1.0 else float("nan")
    return CrossoverScales(xi_exact=xi_exact, xi_approx=xi_approx, t_cr=t_cr)


# -- Foerster enhancement ---------------------------------------------------------------


def forster_ratio(d: int) -> float:
    """Squared-diffusion-length enhancement of dipolar (alpha = 3) hopping.

    Ratio of the long-range variance sum to the nearest-neighbor one,
    lattice_sum(4, d) / (2 d); the Lorentzian spectral-overlap factor of the
    transfer rates cancels between numerator and denominator.
    """
    if d not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2, or 3")
    return lattice_sum(4.0, d) / (2.0 * d)
