"""Special functions for the analytic layer.

Provides the Riemann zeta function (s > 1), the polylogarithm on the unit
circle Li_beta(e^{iq}), the gamma function, the -1 branch of the Lambert W
function, the Dawson integral at complex argument, and the Ewald lattice
sums behind the structure function. Complex values are plain Python/NumPy
``complex``.

Zeta and Dawson wrap ``scipy.special`` (``zeta``, ``dawsn``); the alpha = 1
ring profile calls ``scipy.special.wofz`` directly. scipy has no
polylogarithm: :func:`polylog_circle` is the d = 1 case of the Epstein theta
(Ewald) split, ``_epstein_cos`` for its real part and ``_epstein_sin`` for
its imaginary part; ``_epstein_cos`` also carries every d >= 2 structure
function value and lattice sum. Their upper incomplete gamma
``_upper_gamma`` is ``gammaincc * gamma`` for positive order; the negative
orders that ``gammaincc`` refuses come by recurrence from the fractional
part, or from ``exp1`` at integer order. One stays hand-written:
:func:`lambert_w_m1`, because ``scipy.special.lambertw(y, -1)`` is NaN at
y = -1/e and off by 2.3e-5 relative at y = -1/e + 1e-10.

Tolerances are contracts: zeta and gamma to 1e-12, polylog to 1e-10 absolute,
Dawson to 1e-9 inside the documented stability radius. Internal targets aim
one decade tighter.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.special as sc

__all__ = [
    "riemann_zeta",
    "polylog_circle",
    "gamma_fn",
    "lambert_w_m1",
    "dawson",
    "DAWSON_STABILITY_RADIUS",
]


def riemann_zeta(s: float) -> float:
    """zeta(s) for s > 1 (``scipy.special.zeta``)."""
    s = float(s)
    if s <= 1:
        raise ValueError(f"zeta is summed only for s > 1, got {s}")
    return float(sc.zeta(s))


def gamma_fn(x: float) -> float:
    """Gamma function on the real line away from the poles 0, -1, -2, ..."""
    x = float(x)
    if x <= 0 and x == round(x):
        raise ValueError(f"gamma has a pole at {x}")
    return math.gamma(x)


# -- polylogarithm on the unit circle ------------------------------------------


def polylog_circle(beta: float, q: float) -> complex:
    """Li_beta(e^{iq}) for q in (-pi, pi].

    At q = 0 the series is zeta(beta) and requires beta > 1; elsewhere any
    beta > 0 is admitted (for beta <= 1 the value grows without bound as
    q -> 0), except a q whose q/2pi falls below the normal float range
    (``ValueError``). Accuracy 1e-10 absolute or better, relative where the
    value exceeds 1. The real and imaginary parts are the d = 1 Ewald sums
    :func:`_epstein_cos` and :func:`_epstein_sin`, halved.
    """
    beta = float(beta)
    q = float(q)
    if beta <= 0:
        raise ValueError(f"polylog order must be positive, got {beta}")
    if not -math.pi < q <= math.pi:  # reducing an inner q would round a small one away
        q = (q + math.pi) % (2.0 * math.pi) - math.pi
    if q == 0.0:
        if beta <= 1:
            raise ValueError("Li_beta(1) diverges for beta <= 1")
        return complex(riemann_zeta(beta), 0.0)
    if abs(q) / (2.0 * math.pi) < np.finfo(float).tiny:  # the Ewald shift q/2pi would lose its digits
        raise ValueError(f"q = {q!r} is too small to resolve: q/2pi is below the normal float range")
    return complex(0.5 * _epstein_cos(beta, 1, np.array([q])), 0.5 * _epstein_sin(beta, q))


# -- Lambert W, branch -1 -------------------------------------------------------


def lambert_w_m1(y: float) -> float:
    """W_{-1}(y) for y in [-1/e, 0): the w <= -1 root of w e^w = y.

    Residual |w e^w - y| <= 1e-12 (Halley refinement from a branch-point or
    logarithmic initial guess).
    """
    y = float(y)
    ylo = -1.0 / math.e
    if not ylo <= y < 0:
        raise ValueError(f"W_-1 domain is [-1/e, 0), got {y}")
    p2 = 2.0 * (1.0 + math.e * y)
    if p2 <= 0.0:
        return -1.0
    if p2 < 2e-2:
        p = math.sqrt(p2)
        w = -1.0 - p - p2 / 6.0 - 11.0 * p * p2 / 72.0
    else:
        L1 = math.log(-y)
        L2 = math.log(-L1)
        w = L1 - L2 + L2 / L1
    for _ in range(60):
        ew = math.exp(w)
        f = w * ew - y
        if f == 0.0:
            break
        wp1 = w + 1.0
        dw = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= dw
        if abs(dw) < 1e-15 * max(1.0, abs(w)):
            break
    if abs(w * math.exp(w) - y) > 1e-12:
        raise ArithmeticError(f"Lambert W_-1 failed to converge at y={y}")
    return w


# -- Dawson integral at complex argument ----------------------------------------

DAWSON_STABILITY_RADIUS = 25.0


def dawson(z) -> complex:
    """Dawson integral D(z) = e^{-z^2} int_0^z e^{u^2} du.

    Odd in z; accurate to better than 1e-9 (relative for large values) inside
    the stability radius |z| <= 25. Larger arguments are refused; the
    Faddeeva function ``scipy.special.wofz`` keeps its accuracy there.
    """
    z = complex(z)
    if abs(z) > DAWSON_STABILITY_RADIUS:
        raise ValueError(
            f"|z| = {abs(z):.3g} outside the Dawson stability radius "
            f"{DAWSON_STABILITY_RADIUS}; use scipy.special.wofz"
        )
    return complex(sc.dawsn(z))


# -- upper incomplete gamma (internal; used by the Ewald lattice sums) ----------


def _upper_gamma(a: float, x):
    """Gamma(a, x) for real a and x > 0, elementwise over an array x.

    a > 0 is ``gammaincc * gamma``. For a <= 0, the recurrence
    Gamma(b - 1, x) = (Gamma(b, x) - x^(b-1) e^(-x)) / (b - 1) steps down from
    the fractional part of a, or from Gamma(0, x) = E_1(x) at integer a.
    """
    x = np.asarray(x, dtype=float)
    if a > 0:
        return sc.gammaincc(a, x) * sc.gamma(a)
    b = a - math.floor(a)
    g = sc.exp1(x) if b == 0.0 else sc.gammaincc(b, x) * sc.gamma(b)
    e = np.exp(-x)
    for _ in range(round(b - a)):
        b -= 1.0
        g = (g - x**b * e) / b
    return g


# -- Ewald (Epstein theta) lattice sums -----------------------------------------

# half-width of the image cube in both Ewald sums: the first omitted term is
# below exp(-pi 4.5^2) ~ 1e-28 of the kept ones
_EWALD_CUBE = 4
_EWALD_AXIS = np.arange(-_EWALD_CUBE, _EWALD_CUBE + 1, dtype=float)


def _ewald_cube(d: int):
    """The cube's points n as rows, and its nonzero points r with pi r^2."""
    n = np.array(list(itertools.product(_EWALD_AXIS, repeat=d)))
    x = math.pi * np.sum(n**2, axis=1)
    return n, n[x > 0], x[x > 0]


_EWALD_CUBES = {d: _ewald_cube(d) for d in (1, 2, 3)}


def _epstein_cos(s: float, d: int, q) -> float:
    """sum over nonzero r in Z^d of cos(q.r) |r|^(-s) by Ewald splitting.

    Epstein's theta split at unit scale gives pi^(s/2) / Gamma(s/2) times
    T1 + T2 - 2/s with T1 = sum_{r != 0} cos(q.r) Gamma(s/2, pi r^2) (pi r^2)^(-s/2)
    and T2 = sum_k Gamma((d - s)/2, pi u^2) (pi u^2)^((s - d)/2), u = |k + q/2pi|.
    Both sums run over the cube |n_i| <= 4. A term with pi u^2 below 1e-300
    takes its small-x form 2/(s - d) + Gamma((d - s)/2) (sqrt(pi) u)^(s - d),
    or -gamma_E - 2 ln(sqrt(pi) u) at s = d, which drops O(pi u^2); at u = 0
    (infinite for s <= d) and for s - d >= 2 only the limit 2/(s - d) is
    kept. q = 0 needs s > d; off the reciprocal lattice 2 pi Z^d any s is
    admitted.
    """
    n, r, x = _EWALD_CUBES[d]
    t1 = np.sum(np.cos(r @ q) * _upper_gamma(s / 2.0, x) * x ** (-s / 2.0))
    u = n + q / (2.0 * math.pi)
    x = math.pi * np.einsum("ij,ij->i", u, u)
    e = (s - d) / 2.0
    far = x > 1e-300 ** (1.0 / e if e > 1 else 1.0)  # pi u^2 and (pi u^2)^e both above 1e-300
    t2 = np.sum(_upper_gamma(-e, x[far]) * x[far] ** e)
    if not far.all():
        for v in u[~far]:
            big = np.max(np.abs(v))  # |v| = big |v / big| does not underflow
            y = math.sqrt(math.pi) * big * math.sqrt(np.sum((v / big) ** 2)) if big else 0.0
            if y == 0.0 or s - d >= 2:  # the second term is below double precision
                t2 += 2.0 / (s - d) if s > d else math.inf
            elif s == d:
                t2 += -np.euler_gamma - 2.0 * math.log(y)
            else:
                t2 += 2.0 / (s - d) + gamma_fn((d - s) / 2.0) * y ** (s - d)
    return float(math.pi ** (s / 2.0) / gamma_fn(s / 2.0) * (t1 + t2 - 2.0 / s))


def _epstein_sin(s: float, q: float) -> float:
    """sum over nonzero k in Z of sgn(k) sin(qk) |k|^(-s), q off 2 pi Z, by the same split.

    With b = (s + 1)/2 and a = 3/2 - b it is pi^b / Gamma(b) times S1 + S2 with
    S1 = sum_{k != 0} k sin(qk) Gamma(b, pi k^2) (pi k^2)^(-b) and
    S2 = sum_m u Gamma(a, pi u^2) (pi u^2)^(-a), u = m + q/2pi; there is no
    constant term.
    """
    b = (s + 1.0) / 2.0
    _, k, x = _EWALD_CUBES[1]
    k = k.ravel()
    s1 = np.sum(k * np.sin(q * k) * _upper_gamma(b, x) * x**-b)
    a = 1.5 - b
    u = _EWALD_AXIS + q / (2.0 * math.pi)
    x = math.pi * u**2
    w = np.sign(u) * np.abs(u) ** (s - 1.0) * math.pi**-a  # u x^(-a), finite as u -> 0
    # for a <= 0, Gamma(a, x) overflows as u -> 0, where the term is O(u): drop it
    keep = (x > 0) & (x**-a > 1e-300) if a <= 0 else slice(None)
    s2 = np.sum(_upper_gamma(a, x[keep]) * w[keep])
    return float(math.pi**b / gamma_fn(b) * (s1 + s2))
