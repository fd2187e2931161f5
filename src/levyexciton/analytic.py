"""Closed-form and asymptotic transport quantities.

Everything the classical walk admits in closed form lives here: the infinite
lattice sums, the lattice structure function and its small-momentum
expansions, alpha_cr = (d + 2)/2 and the one test for it (:func:`is_critical`),
diffusion and Levy coefficients, the asymptotic density profiles, the
Gaussian/power-law crossover length, and the Foerster enhancement ratio.

Conventions: the structure function is reported *dimensionless*, i.e. divided
by the classical rate kappa, so `structure_function_eval(sf, 0)` equals the
pure lattice sum sum_{r != 0} |r|^(-2 alpha). Coefficients D_alpha and
C_alpha carry their physical kappa factors; C_alpha has one formula in every d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import wofz, zeta

from .classical import cme_spectral_solve
from .model import ModelParams
from .special import _epstein_cos, gamma_fn, lambert_w_m1, riemann_zeta

_INTEGER_TOL = 1e-9


def _is_integer(x: float) -> bool:
    return abs(x - round(x)) < _INTEGER_TOL


# -- lattice sums ----------------------------------------------------------------


def lattice_sum(s: float, d: int) -> float:
    """sum_{r != 0} |r|^(-s) over Z^d, for s > d.

    2 zeta(s) in d = 1 and the q = 0 Ewald sum of the structure function in
    d >= 2, accurate to ~1e-15 relative. Sums over a finite lattice are
    :func:`levyexciton.model.finite_lattice_sum`.
    """
    s = float(s)
    if not 1 <= d <= 3:
        raise ValueError(f"dimension must be 1..3, got {d}")
    if s <= d:
        raise ValueError(f"lattice sum diverges for s = {s} <= d = {d}")
    return 2.0 * riemann_zeta(s) if d == 1 else _epstein_cos(s, d, np.zeros(d))


def _half_variance_sum(alpha: float, d: int) -> float:
    """1/2 sum_{r != 0} |r|^(2 - 2 alpha): D_alpha / kappa, and minus the q^2 coefficient of A(q)/kappa."""
    return 0.5 * lattice_sum(2 * alpha - 2, d)


# -- structure function ------------------------------------------------------------


class StructureFunction:
    """Dimensionless structure function A(q)/kappa = sum_{r!=0} r^(-2a) cos(q.r).

    Every d uses the Ewald (Epstein theta) split of the lattice sum
    (``special._epstein_cos``, whose d = 1 case is 2 Re Li_{2 alpha}(e^{iq}));
    q = 0 returns ``a0``, the :func:`lattice_sum`. Evaluation is read-only and
    safe to share across workers. ``radius`` is accepted for compatibility
    and ignored.
    """

    def __init__(self, params: ModelParams, radius: int | None = None):
        params.require_thermodynamic()  # the q = 0 sum needs 2 alpha > d
        self.params = params
        self.a0 = lattice_sum(2 * params.alpha, params.d)


def structure_function_eval(sf: StructureFunction, q) -> float:
    """A(q)/kappa at momentum q (|q_i| <= pi)."""
    p = sf.params
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.size != p.d:
        raise ValueError(f"momentum must have {p.d} components, got {q.size}")
    if np.max(np.abs(q)) > math.pi + 1e-12:
        raise ValueError("momentum components must lie in [-pi, pi]")
    if not q.any():
        return sf.a0
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

    Valid as an approximation for |q| <~ 0.3 (not enforced). d = 1 is the polylog
    series -C_alpha q^(2 alpha - 1) + 2 sum_j (-1)^j zeta(2 alpha - 2j) q^(2j)/(2j)!
    (Lewin 1981), exact to j = alpha for integer alpha and cut at j = 1 otherwise;
    half-integer alpha carries a q^(2 alpha - 1) log q^2 term instead of the power.
    d >= 2 uses the continuum singular power.
    """
    a, d = params.alpha, params.d
    qv = np.atleast_1d(np.asarray(q, dtype=float))
    if qv.size != d:
        raise ValueError(f"momentum must have {d} components")
    qn = float(np.sqrt(np.sum(qv**2)))

    if d == 1:
        C = levy_coefficient_continuum(a, 1, 1.0)
        if C is None:  # half-integer alpha
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
        # scipy's zeta(0) is exactly -1/2, so the integer series' last term keeps its bits
        exact = _is_integer(a)
        value = -C * qn ** (2 * a - 1)
        for j in range(int(round(a)) + 1 if exact else 2):
            value += 2.0 * (-1.0) ** j * float(zeta(2 * a - 2 * j)) * qn ** (2 * j) / math.factorial(2 * j)
        return SmallQExpansion(value, "exact" if exact else "O(q^4)", "d1-integer" if exact else "d1-generic")

    # d >= 2: continuum singular power about q = 0
    params.require_thermodynamic()
    C = levy_coefficient_continuum(a, d, 1.0)
    if C is None:
        raise ValueError(
            f"continuum expansion has a pole at alpha = {a} for d = {d}; "
            "evaluate the structure function directly"
        )
    value = lattice_sum(2 * a, d) - C * qn ** (2 * a - d)
    if a > critical_alpha(d) and not is_critical(a, d):
        value -= _half_variance_sum(a, d) * qn**2
        return SmallQExpansion(value, "O(q^4)", "continuum-mixed")
    return SmallQExpansion(value, "O(q^2)", "continuum-levy")


# -- asymptotic coefficients ---------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticCoefficients:
    """Transport coefficients of the long-time profile.

    D_alpha (sites^2/time) is populated only in the mixed regime (alpha >
    alpha_cr and not :func:`is_critical`); C_alpha (sites^(2 alpha - d)/time)
    is None at the log-modified points where the singular power carries a logarithm.
    """

    D_alpha: float | None
    C_alpha: float | None
    alpha_cr: float
    regime: str


def critical_alpha(d: int) -> float:
    """alpha_cr = (d + 2)/2, above which the variance sum converges; unlike :func:`coefficients`, for any alpha."""
    return (d + 2) / 2.0


def is_critical(alpha: float, d: int) -> bool:
    """Whether alpha is alpha_cr to within ``_INTEGER_TOL``: the regime boundary of every caller."""
    return abs(alpha - critical_alpha(d)) < _INTEGER_TOL


def levy_coefficient_continuum(alpha: float, d: int, kappa: float) -> float | None:
    """C_alpha from the continuum (translation-invariant) formula, in every d.

    -kappa pi^(d/2) 2^(d - 2 alpha) Gamma(d/2 - alpha) / Gamma(alpha), which
    in d = 1 is the polylog coefficient -2 kappa Gamma(1 - 2 alpha) sin(pi alpha);
    None at the Gamma poles alpha - d/2 in {0, 1, 2, ...} (log-modified points).
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
    a, d, kappa = params.alpha, params.d, params.kappa
    alpha_cr = critical_alpha(d)
    regime = "mixed" if a > alpha_cr and not is_critical(a, d) else "levy"
    D = kappa * _half_variance_sum(a, d) if regime == "mixed" else None
    C = levy_coefficient_continuum(a, d, kappa)
    return AsymptoticCoefficients(D_alpha=D, C_alpha=C, alpha_cr=alpha_cr, regime=regime)


# -- asymptotic profiles ---------------------------------------------------------------


def asymptotic_profile(j, t: float, params: ModelParams):
    """Long-time density at site displacement j from the initial exciton.

    alpha <= alpha_cr: pure algebraic tail kappa t / |j|^(2 alpha).
    alpha > alpha_cr: the larger of the Gaussian core
    exp(-|j|^2 / 4 D t) / (4 pi D t)^(d/2), D = ``coefficients(params).D_alpha``,
    and the tail, which cross exactly once beyond the peak (taking the max
    avoids a stitching discontinuity).

    j may be a scalar (d = 1), a d-vector, or an array of those. The origin
    with alpha <= alpha_cr has no asymptotic value; the finite-ring spectral
    solver supplies it for periodic parameters (documented limitation).
    """
    if t <= 0:
        raise ValueError("profile is defined for t > 0")
    coeff = coefficients(params)
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
    with np.errstate(divide="ignore"):
        tail = kappa * t * r2 ** (-a)
    if coeff.regime == "levy":
        if np.any(r2 == 0):
            if params.bc != "periodic":
                raise ValueError(
                    "origin density in the Levy regime requires the spectral "
                    "solver on a periodic lattice"
                )
            origin = cme_spectral_solve(params, t).values[(0,) * d]
            tail = np.where(r2 == 0, origin, tail)
        out = tail
    else:
        D = coeff.D_alpha
        gauss = np.exp(-r2 / (4 * D * t)) / (4 * math.pi * D * t) ** (d / 2.0)
        out = np.maximum(gauss, np.where(r2 == 0, 0.0, tail))
    return float(out[0]) if np.ndim(j) == (d > 1) else out  # one site: a scalar in d = 1, a d-vector in d > 1


def exact_profile_alpha1(j, t: float, params: ModelParams):
    """Closed-form ring density for alpha = 1, d = 1 (Dawson-integral form).

    n_j(t) = [D((i j + pi k t)/sqrt(2 k t)) - D((i j - pi k t)/sqrt(2 k t))]
             / sqrt(2 k t pi^2).

    For integer j the two exploding e^{-z^2} halves of the Dawson values
    cancel identically (sin(pi j) = 0), leaving the numerically stable
    reduction n_j = Im w(z_+) / sqrt(2 pi k t) with w the Faddeeva function
    (``scipy.special.wofz``); that reduction is what is evaluated here, at
    every j: ``wofz`` keeps its accuracy far beyond the Dawson stability
    radius, where the tail kappa t / j^2 is still percents off.
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
    out = np.imag(wofz((1j * jabs + math.pi * kt) / math.sqrt(2.0 * kt))) / math.sqrt(2.0 * math.pi * kt)
    return float(out[0]) if np.ndim(j) == 0 else out


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
