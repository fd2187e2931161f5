"""Physical parameters, lattice geometry, and the long-range rate kernels.

The model is a d-dimensional hypercubic lattice (lattice constant fixed to 1)
of N sites per axis. Excitons hop coherently with amplitude J/r^alpha and
dephase locally at rate gamma. In the strong-dephasing (Zeno) limit the
dynamics reduces to an incoherent walk with rates kappa/r^(2*alpha), where
kappa = 2 J^2 / gamma.

Everything downstream (classical solvers, quantum propagators, the exclusion
process) consumes the kernels built here, so the distance conventions are
fixed in one place:

* periodic bc: per-axis minimum-image displacement; in d=1 the *hopping
  amplitude* additionally sums the two ring images,
  h(r) = J [ r^-alpha + (N-r)^-alpha ].
* open bc: plain Euclidean distance.

The grid check every propagator applies to its output times
(:func:`output_times`) and the one CSV writer (:func:`write_csv`) live here too.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

BOUNDARY_CONDITIONS = ("periodic", "open")

_CONFIG_KEYS = ("d", "alpha", "J", "gamma", "N", "bc")


@dataclass(frozen=True)
class ModelParams:
    """Single source of physical truth shared by all solvers.

    Attributes
    ----------
    d : int
        Lattice dimension, 1 <= d <= 3.
    alpha : float
        Hopping decay exponent (dimensionless).
    J : float
        Coherent hopping amplitude (inverse time, hbar = 1).
    gamma : float
        Local dephasing rate (inverse time), non-negative.
    N : int
        Sites per axis; the lattice holds N**d sites.
    bc : str
        Boundary condition, ``"periodic"`` or ``"open"``.
    """

    d: int
    alpha: float
    J: float
    gamma: float
    N: int
    bc: str = "periodic"

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral) for v in (self.d, self.N)):
            raise ValueError(f"d and N must be integers, got d = {self.d!r}, N = {self.N!r}")
        if not all(math.isfinite(v) for v in (self.alpha, self.J, self.gamma)):
            raise ValueError(f"alpha, J, gamma must be finite, got {self.alpha}, {self.J}, {self.gamma}")
        if self.gamma < 0:
            raise ValueError(f"dephasing rate must be non-negative, got {self.gamma}")
        if not 1 <= self.d <= 3:
            raise ValueError(f"lattice dimension must be 1..3, got {self.d}")
        if self.N < 2:
            raise ValueError(f"need at least 2 sites per axis, got {self.N}")
        if self.bc not in BOUNDARY_CONDITIONS:
            raise ValueError(f"bc must be one of {BOUNDARY_CONDITIONS}, got {self.bc!r}")
        if self.alpha <= 0:
            raise ValueError(f"decay exponent must be positive, got {self.alpha}")

    @property
    def kappa(self) -> float:
        """Zeno-limit classical hopping rate 2 J^2 / gamma; requires gamma > 0."""
        if self.gamma <= 0:
            raise ValueError("kappa = 2 J^2/gamma requires a positive dephasing rate")
        return 2.0 * self.J**2 / self.gamma

    @property
    def n_sites(self) -> int:
        return self.N**self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.d

    def require_thermodynamic(self):
        """Refuse operations whose thermodynamic limit needs alpha > d/2."""
        if self.alpha <= self.d / 2:
            raise ValueError(
                f"thermodynamic-limit sums diverge for alpha={self.alpha} <= d/2={self.d / 2}"
            )

    # -- flat key-value serialization (CLI contract) --------------------------

    def to_config(self) -> dict[str, str]:
        """Flat key-value block with keys ``d, alpha, J, gamma, N, bc``."""
        return {
            "d": str(self.d),
            "alpha": repr(self.alpha),
            "J": repr(self.J),
            "gamma": repr(self.gamma),
            "N": str(self.N),
            "bc": self.bc,
        }

    @classmethod
    def from_config(cls, block: dict[str, str]) -> "ModelParams":
        unknown = set(block) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown model keys: {sorted(unknown)}")
        missing = set(_CONFIG_KEYS) - set(block)
        if missing:
            raise ValueError(f"missing model keys: {sorted(missing)}")
        return cls(
            d=int(block["d"]),
            alpha=float(block["alpha"]),
            J=float(block["J"]),
            gamma=float(block["gamma"]),
            N=int(block["N"]),
            bc=block["bc"],
        )


def output_times(t) -> np.ndarray:
    """A propagator's output times as a float array.

    Every propagator starts at t = 0 and runs forward to a finite time, so the
    grid must be non-empty, finite, strictly increasing and non-negative.
    """
    grid = np.atleast_1d(np.asarray(t, dtype=float))
    if grid.size == 0 or not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0) and grid[0] >= 0):
        raise ValueError("output times must be finite, strictly increasing and non-negative")
    return grid


def write_csv(path, header: str, rows) -> None:
    """Stream a CSV file: the header line, then one line per row of string fields."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# -- lattice indexing ---------------------------------------------------------


def min_image(delta, N: int):
    """Per-axis minimum-image displacement on an N-ring; never exceeds N/2."""
    delta = np.asarray(delta)
    return (delta + N // 2) % N - N // 2


# -- kernels -------------------------------------------------------------------


def hopping_amplitude(params: ModelParams, r) -> float:
    """Coherent hopping amplitude at displacement r (r != 0).

    Open bc: J / |r|^alpha. Periodic bc in d=1 sums the two ring images,
    J [ |r|^-alpha + (N-|r|)^-alpha ]; in d >= 2 the minimum-image distance
    is used (a convenience -- the quantum layer is one-dimensional).
    """
    r = np.atleast_1d(np.asarray(r, dtype=int))
    if np.all(r == 0):
        raise ValueError("hopping amplitude is undefined at r = 0")
    if params.bc == "periodic":
        if params.d == 1 and r.size == 1:
            a = abs(int(r[0])) % params.N
            if a == 0:
                raise ValueError("displacement wraps to the same site")
            return params.J * (a ** -params.alpha + (params.N - a) ** -params.alpha)
        rm = min_image(r, params.N).astype(float)
        return params.J * float(np.sum(rm**2)) ** (-params.alpha / 2)
    return params.J * float(np.sum(r.astype(float) ** 2)) ** (-params.alpha / 2)


def classical_rate(params: ModelParams, r) -> float:
    """Incoherent hopping rate kappa / |r|^(2 alpha) at displacement r != 0.

    The distance follows the bc convention (minimum image on rings).
    Symmetric under r -> -r, hence the walk satisfies detailed balance.
    """
    kappa = params.kappa  # validates gamma > 0
    r = np.atleast_1d(np.asarray(r, dtype=int))
    if params.bc == "periodic":
        r = min_image(r, params.N)
    if np.all(r == 0):
        raise ValueError("classical rate is undefined at r = 0")
    r2 = float(np.sum(r.astype(float) ** 2))
    return kappa * r2 ** (-params.alpha)


def ring_rate_row(params: ModelParams) -> np.ndarray:
    """Periodic rate kernel w(r) over per-axis displacements 0..N-1 (w[0] = 0).

    Shape ``params.shape``; in d = 1 this is the first row of the ring
    generator. Built from squared integer minimum-image distances so that
    every solver (spectral, ODE, many-body) shares bit-identical rates.
    """
    if params.bc != "periodic":
        raise ValueError("ring kernel requires periodic bc")
    N = params.N
    axis = np.minimum(np.arange(N), N - np.arange(N)).astype(float)
    r2 = sum(g**2 for g in np.meshgrid(*([axis] * params.d), indexing="ij"))
    w = np.zeros_like(r2)
    nz = r2 > 0
    w[nz] = params.kappa * r2[nz] ** (-params.alpha)
    return w


def open_line_rates(params: ModelParams) -> np.ndarray:
    """w[r] for r = 0..N-1 on an open chain (w[0] = 0); d = 1."""
    N = params.N
    r = np.arange(1, N, dtype=float)
    w = np.zeros(N)
    w[1:] = params.kappa * r ** (-2 * params.alpha)
    return w


def open_kernel_and_escape(params: ModelParams):
    """Convolution with the open-lattice rate kernel, plus per-site escape rates.

    Returns ``(convolve, escape)``. ``convolve(n)`` is the linear convolution
    sum over lattice sites l of w(|l - j|) n_l, for an array n of the lattice
    shape. The kernel w(r) on (-(N-1)..N-1)^d is zero-padded on each axis to
    ``next_fast_len(2N - 1)``: any length >= 2N - 1 leaves the slice
    [N-1, 2N-1) free of wrap-around, and a fast length avoids FFTs of prime
    size (2N - 1 = 59 at N = 30). The kernel is transformed once. The escape
    field escape[j] = sum over in-lattice targets of w(|l - j|) varies near
    open edges and is the convolution of the all-ones occupation.
    """
    from scipy.fft import irfftn, next_fast_len, rfftn

    shape = params.shape
    grids = np.meshgrid(*[np.arange(-(s - 1), s) for s in shape], indexing="ij")
    r2 = sum(g.astype(float) ** 2 for g in grids)
    w = np.zeros_like(r2)
    nz = r2 > 0
    w[nz] = params.kappa * r2[nz] ** (-params.alpha)
    fshape = [next_fast_len(2 * s - 1, real=True) for s in shape]
    wf = rfftn(w, s=fshape)
    sl = tuple(slice(s - 1, 2 * s - 1) for s in shape)

    def convolve(n):
        return irfftn(rfftn(n, s=fshape) * wf, s=fshape)[sl]

    return convolve, convolve(np.ones(shape))


def finite_displacement_norms(N: int, d: int, bc: str) -> tuple[np.ndarray, np.ndarray]:
    """Unique squared displacement norms and multiplicities of the finite lattice.

    Periodic: per-axis minimum-image displacement set of the N-ring.
    Open: displacements reachable from the central site.
    """
    if bc == "periodic":
        axis = min_image(np.arange(N), N)
    else:
        lo = -((N - 1) // 2)
        axis = np.arange(lo, lo + N)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    q = sum(g.astype(np.int64) ** 2 for g in grids).ravel()
    q = q[q > 0]
    vals, counts = np.unique(q, return_counts=True)
    return vals.astype(float), counts.astype(float)


def escape_rate(params: ModelParams) -> float:
    """Total escape rate from a site: sum over r != 0 of kappa / r^(2 alpha).

    Periodic: exact row sum of the ring kernel. Open: rate from the central
    site, which grows monotonically with N toward the infinite-lattice value
    (finite for alpha > d/2).
    """
    vals, counts = finite_displacement_norms(params.N, params.d, params.bc)
    return params.kappa * float(np.sum(counts * vals ** (-params.alpha)))


def sum_r2_hopping_sq(params: ModelParams) -> float:
    """sum_r r^2 H_r^2 over the finite displacement set (d = 1).

    H_r is the bc-dependent hopping amplitude; the sum controls both the
    ballistic and the diffusive regime of the dephasing dynamics. Diverges
    with N for alpha <= (d+2)/2, in which case callers normalize by it.
    """
    if params.d != 1:
        raise ValueError("hopping-moment sum implemented for d = 1 only")
    N = params.N
    if params.bc == "periodic":
        rs = min_image(np.arange(1, N), N).astype(float)
        a = np.arange(1, N, dtype=float)
        h = params.J * (a**-params.alpha + (N - a) ** -params.alpha)
    else:
        lo = -((N - 1) // 2)
        rs = np.array([r for r in range(lo, lo + N) if r != 0], dtype=float)
        h = params.J * np.abs(rs) ** -params.alpha
    return float(np.sum(rs**2 * h**2))
