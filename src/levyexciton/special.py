"""Special functions for the analytic layer.

Provides the Riemann zeta function (s > 1), the polylogarithm on the unit
circle Li_beta(e^{iq}), the gamma function, the -1 branch of the Lambert W
function, and the Dawson integral at complex argument. Complex values are
plain Python/NumPy ``complex``.

Zeta and Dawson wrap ``scipy.special`` (``zeta``, ``dawsn``); the alpha = 1
ring profile calls ``scipy.special.wofz`` directly. The upper incomplete
gamma ``_upper_gamma`` of the Ewald lattice sums is ``gammaincc * gamma`` for
positive order; the negative orders that ``gammaincc`` refuses come by
recurrence from the fractional part, or from ``exp1`` at integer order. Two
stay hand-written:

* :func:`polylog_circle`: scipy has no polylogarithm.
* :func:`lambert_w_m1`: ``scipy.special.lambertw(y, -1)`` is NaN at
  y = -1/e and off by 2.3e-5 relative at y = -1/e + 1e-10.

Tolerances are contracts: zeta and gamma to 1e-12, polylog to 1e-10 absolute,
Dawson to 1e-9 inside the documented stability radius. Internal targets aim
one decade tighter.
"""

from __future__ import annotations

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


def _zeta_any(s: float) -> float:
    """zeta on the real line away from s = 1 (internal helper).

    The public contract of :func:`riemann_zeta` stays s > 1; values at and
    below 1 are needed only inside the small-q polylog expansion.
    """
    s = float(s)
    if s == 1:
        raise ValueError("zeta has a pole at s = 1")
    return float(sc.zeta(s))


def gamma_fn(x: float) -> float:
    """Gamma function on the real line away from the poles 0, -1, -2, ..."""
    x = float(x)
    if x <= 0 and x == round(x):
        raise ValueError(f"gamma has a pole at {x}")
    return math.gamma(x)


# -- polylogarithm on the unit circle ------------------------------------------


def _polylog_small_q(beta: float, q: float, n_terms: int = 30) -> complex:
    """Convergent expansion of Li_beta(e^{iq}) about q = 0 (|q| < 2 pi).

    Non-integer beta uses the singular term Gamma(1-beta) (-iq)^(beta-1) plus
    the zeta Taylor series; integer beta replaces the colliding term by the
    harmonic-logarithmic one.
    """
    iq = 1j * q
    nearest = round(beta)
    if abs(beta - nearest) > 1e-9:
        out = gamma_fn(1.0 - beta) * (-iq) ** (beta - 1.0)
        fac = 1.0 + 0.0j
        for j in range(n_terms):
            if j > 0:
                fac *= iq / j
            out += _zeta_any(beta - j) * fac
        return out
    n = int(nearest)
    harm = sum(1.0 / i for i in range(1, n))
    out = iq ** (n - 1) / math.factorial(n - 1) * (harm - np.log(-iq))
    fac = 1.0 + 0.0j
    for j in range(n_terms):
        if j > 0:
            fac *= iq / j
        if j == n - 1:
            continue
        out += _zeta_any(n - j) * fac
    return out


def _polylog_series_abel(beta: float, q: float, tol: float = 1e-12) -> complex:
    """Direct series with an iterated summation-by-parts tail (|q| >= ~0.5).

    The head is summed to K chosen so the certified tail bound
    (beta)_(m-1) K^(1-beta-m) / |1-z|^m drops below ``tol``.
    """
    z = np.exp(1j * q)
    one_minus = 1.0 - z
    az = abs(one_minus)
    m = 12
    poch = 1.0
    for i in range(m - 1):
        poch *= beta + i
    K = int(max(48, (poch / (tol * az**m)) ** (1.0 / (beta + m - 1)))) + 1
    k = np.arange(1, K + 1, dtype=float)
    head = complex(np.sum(np.exp(1j * q * k) * k**-beta))
    c = (K + 1 + np.arange(0, m + 1, dtype=float)) ** -beta
    diffs = [c]
    for _ in range(m - 1):
        prev = diffs[-1]
        diffs.append(prev[:-1] - prev[1:])
    tail = 0.0 + 0.0j
    fac = 1.0 / one_minus
    for j in range(m):
        tail += diffs[j][0] * fac
        fac *= -z / one_minus
    return head + tail * np.exp(1j * q * (K + 1))


def polylog_circle(beta: float, q: float) -> complex:
    """Li_beta(e^{iq}) for q in (-pi, pi].

    At q = 0 the series is zeta(beta) and requires beta > 1; elsewhere any
    beta > 0 is admitted. Absolute accuracy 1e-10 or better.
    """
    beta = float(beta)
    q = float(q)
    if beta <= 0:
        raise ValueError(f"polylog order must be positive, got {beta}")
    q = (q + math.pi) % (2.0 * math.pi) - math.pi
    if q == -math.pi:  # reduction maps the endpoint to -pi; the domain keeps +pi
        q = math.pi
    if q == 0.0:
        if beta <= 1:
            raise ValueError("Li_beta(1) diverges for beta <= 1")
        return complex(riemann_zeta(beta), 0.0)
    if q < 0:
        return polylog_circle(beta, -q).conjugate()
    if q < 0.5:
        return _polylog_small_q(beta, q)
    return _polylog_series_abel(beta, q)


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
    the stability radius |z| <= 25. Larger arguments are refused: the caller
    is expected to switch to the asymptotic tail instead.
    """
    z = complex(z)
    if abs(z) > DAWSON_STABILITY_RADIUS:
        raise ValueError(
            f"|z| = {abs(z):.3g} outside the Dawson stability radius "
            f"{DAWSON_STABILITY_RADIUS}; use the asymptotic form"
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
    for _ in range(round(b - a)):
        b -= 1.0
        g = (g - x**b * np.exp(-x)) / b
    return g
