"""Physical parameters, lattice geometry, and the long-range rate kernels.

The model is a d-dimensional hypercubic lattice (lattice constant fixed to 1)
of N sites per axis. Excitons hop coherently with amplitude J/r^alpha and
dephase locally at rate gamma. In the strong-dephasing (Zeno) limit the
dynamics reduces to an incoherent walk with rates kappa/r^(2*alpha), where
kappa = 2 J^2 / gamma.

Each lattice convention is written once, here, and the solvers index the
rows and grids these functions return:

* displacements from a site: :func:`displacement_axis` (minimum image on
  rings), their squared lengths: :func:`_squared_distances` on a grid; the
  mean and variance of site weights in them: :func:`axis_moments`;
* coherent hopping: :func:`hopping_row`, J [r^-alpha + (N-r)^-alpha] on a
  d = 1 ring (two images), J / r^alpha on an open chain;
* rates kappa (|r|^2)^(-alpha), one law of those squared lengths, so every
  rate table and :func:`classical_rate` agree bit for bit;
* finite lattice sums: :func:`finite_lattice_sum`, from site 0 of a ring or
  the central site of an open lattice.

D_alpha and alpha_cr = (d + 2)/2 come from :mod:`levyexciton.analytic` (``coefficients``,
``critical_alpha``). The propagators' frame (:func:`output_times`, and
:func:`propagated` with its population check), the number format of every
artifact (:func:`format_float`) and the CSV writer live here too.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

BOUNDARY_CONDITIONS = ("periodic", "open")
CONSERVATION_TOL = 1e-9  # drift of a state's population sum, relative (absolute below 1)
NEGATIVITY_TOL = -1e-12  # lowest population a state may hold


class InvariantError(RuntimeError):
    """A propagated state lost its population sum, positivity or hermiticity."""


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
        if self.gamma > 0 and not math.isfinite(2.0 * self.J * self.J / self.gamma):
            raise ValueError(f"kappa = 2 J^2/gamma overflows at J = {self.J}, gamma = {self.gamma}")

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
        """Flat key-value block with keys ``d, alpha, J, gamma, N, bc``: ``str`` of each field."""
        return {f.name: str(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_config(cls, block: dict[str, str]) -> "ModelParams":
        keys = {f.name for f in fields(cls)}
        unknown = set(block) - keys
        if unknown:
            raise ValueError(f"unknown model keys: {sorted(unknown)}")
        missing = keys - set(block)
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


def propagated(t, x0, evolve, populations):
    """The frame of every propagator: its states at the output times ``t``, from ``x0``.

    ``evolve(ts)`` gives the states at the times ts > 0, if any; the t = 0 state
    is ``x0`` itself. Each state's ``populations(x)`` keep the sum of ``x0``'s
    within ``CONSERVATION_TOL`` and stay >= ``NEGATIVITY_TOL``, or
    :class:`InvariantError` is raised. A grid gives a list, a scalar time one state.
    """
    ts = output_times(t)
    later = ts[ts > 0]
    states = [x0] * (ts.size - later.size) + (list(evolve(later)) if later.size else [])
    total0 = float(populations(x0).sum())
    for tv, x in zip(ts, states):
        pops = populations(x)
        total, low = float(pops.sum()), float(pops.min())
        if abs(total - total0) > CONSERVATION_TOL * max(1.0, abs(total0)):
            raise InvariantError(f"population sum drifted to {total} (from {total0}) at t = {tv}")
        if low < NEGATIVITY_TOL:
            raise InvariantError(f"negative population {low:.3e} at t = {tv}")
    return states[0] if np.ndim(t) == 0 else states


def format_float(x: float) -> str:
    """A number as every artifact writes it: ``%.16e``, which reads back exactly."""
    return "%.16e" % x


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


def displacement_axis(N: int, origin: int, bc: str) -> np.ndarray:
    """Integer displacements of sites 0..N-1 from ``origin``; the minimum image on rings."""
    c = np.arange(N) - origin
    return min_image(c, N) if bc == "periodic" else c


def axis_moments(w: np.ndarray, origin: int, bc: str) -> tuple[float, float]:
    """Mean and variance of the displacements from ``origin`` under the normalized weights ``w`` of one axis's sites."""
    x = displacement_axis(w.size, origin, bc).astype(float)
    mean = float(w @ x)
    return mean, float(w @ x**2) - mean**2


def _source_axis(N: int, bc: str) -> np.ndarray:
    """Displacements seen from the source site of the finite sums: site 0 on rings, the central one on chains."""
    return displacement_axis(N, 0 if bc == "periodic" else (N - 1) // 2, bc)


def _squared_distances(*axes) -> np.ndarray:
    """|r|^2 over the grid of displacements r whose k-th coordinates are ``axes[k]``, in floats."""
    return sum(g**2 for g in np.meshgrid(*(np.asarray(a, dtype=float) for a in axes), indexing="ij"))


def _squared_length(params: ModelParams, r) -> float:
    """|r|^2 of the displacement r under the bc (per-axis minimum image on rings); refuses r = 0."""
    r = np.atleast_1d(np.asarray(r, dtype=int))
    if params.bc == "periodic":
        r = min_image(r, params.N)
    r2 = _squared_distances(*r[:, None]).item()
    if r2 == 0:
        raise ValueError(f"displacement {r.tolist()} is the site itself; kernels are undefined at r = 0")
    return r2


# -- kernels -------------------------------------------------------------------


def _off_site_power(r2: np.ndarray, amp: float, alpha: float) -> np.ndarray:
    """amp (r2)^-alpha from squared distances r2, and 0 where r2 = 0 (the site itself): the one rate law."""
    out = np.zeros_like(r2)
    nz = r2 > 0
    out[nz] = amp * r2[nz] ** -alpha
    return out


def hopping_row(params: ModelParams) -> np.ndarray:
    """h(r), r = 0..N-1, in d = 1 (h(0) = 0).

    J [r^-alpha + (N-r)^-alpha] on rings (two images), J / r^alpha on chains.
    """
    N = params.N
    r = np.arange(1, N, dtype=float)
    row = np.zeros(N)
    if params.bc == "periodic":
        row[1:] = params.J * (r**-params.alpha + (N - r) ** -params.alpha)
    else:
        row[1:] = params.J / r**params.alpha
    return row


def hopping_amplitude(params: ModelParams, r) -> float:
    """Coherent hopping amplitude at displacement r (r != 0).

    In d = 1 the entry of :func:`hopping_row` at the bc distance (an open
    chain refuses |r| >= N). In d >= 2, J / |r|^alpha with the bc distance
    (minimum image on rings; a convenience, the quantum layer is 1-d).
    """
    r2 = _squared_length(params, r)
    if params.d > 1:
        return params.J * r2 ** (-params.alpha / 2)
    dist = math.isqrt(int(r2))
    if dist >= params.N:
        raise ValueError(f"displacement {r} leaves the {params.N}-site chain")
    return float(hopping_row(params)[dist])


def classical_rate(params: ModelParams, r) -> float:
    """Incoherent hopping rate kappa / |r|^(2 alpha) at displacement r != 0.

    The bc distance (minimum image on rings) through the one power law of
    every rate table, so it equals their entries bit for bit. Even in r,
    hence the walk obeys detailed balance.
    """
    return float(_off_site_power(np.array([_squared_length(params, r)]), params.kappa, params.alpha)[0])


def ring_rate_row(params: ModelParams) -> np.ndarray:
    """Periodic rate kernel w(r) over per-axis displacements 0..N-1 (w[0] = 0).

    Shape ``params.shape``; in d = 1 this is the first row of the ring
    generator. Built from squared integer minimum-image distances, so that
    every ring solver reads bit-identical rates, each equal to
    :func:`classical_rate`.
    """
    if params.bc != "periodic":
        raise ValueError("ring kernel requires periodic bc")
    r2 = _squared_distances(*[_source_axis(params.N, params.bc)] * params.d)
    return _off_site_power(r2, params.kappa, params.alpha)


def open_line_rates(params: ModelParams) -> np.ndarray:
    """w[r] = kappa (r^2)^(-alpha) for r = 0..N-1 on an open chain (w[0] = 0); d = 1."""
    return _off_site_power(_squared_distances(np.arange(params.N)), params.kappa, params.alpha)


def open_kernel_and_escape(params: ModelParams):
    """Convolution with the open-lattice rate kernel, plus per-site escape rates.

    Returns ``(convolve, escape)``. ``convolve(n)`` is the linear convolution
    sum over lattice sites l of w(|l - j|) n_l, for an array n of the lattice
    shape: the circular one of n and the kernel w(r) on (-(N-1)..N-1)^d,
    transformed once, on a box of ``next_fast_len(2N - 1)`` per axis (no
    prime sizes, 2N - 1 = 59 at N = 30), where the offsets j - l + N - 1 of
    l, j < N lie in [0, 2N - 2], so the slice [N-1, 2N-1) has no wrap-around.
    n fills the first N entries of each axis: the forward transform goes
    axis by axis from the last, over only the lines the done axes have
    filled; the inverse goes from the first and slices each axis at once
    (the others act line by line, so dropped lines feed no kept output).
    The escape field escape[j] = sum over in-lattice targets of w(|l - j|)
    varies near open edges and is the convolution of the all-ones occupation.
    """
    from scipy.fft import fft, ifft, irfft, next_fast_len, rfft, rfftn

    shape = params.shape
    w = _off_site_power(_squared_distances(*(np.arange(-(s - 1), s) for s in shape)), params.kappa, params.alpha)
    fshape = [next_fast_len(2 * s - 1, real=True) for s in shape]
    wf = rfftn(w, s=fshape)
    keep = [slice(s - 1, 2 * s - 1) for s in shape]

    def convolve(n):
        x = rfft(n, n=fshape[-1], axis=-1)
        for ax in reversed(range(n.ndim - 1)):
            x = fft(x, n=fshape[ax], axis=ax, overwrite_x=True)
        x *= wf  # in place, as the complex transforms: fresh arrays cost page faults
        for ax in range(n.ndim - 1):
            x = ifft(x, n=fshape[ax], axis=ax, overwrite_x=True)[(slice(None),) * ax + (keep[ax],)]
        return irfft(x, n=fshape[-1], axis=-1)[..., keep[-1]]

    return convolve, convolve(np.ones(shape))


def finite_displacement_norms(N: int, d: int, bc: str) -> tuple[np.ndarray, np.ndarray]:
    """Unique squared displacement norms and multiplicities of the finite lattice.

    Periodic: per-axis minimum-image displacement set of the N-ring.
    Open: displacements reachable from the central site.
    """
    q = _squared_distances(*[_source_axis(N, bc)] * d).ravel()
    vals, counts = np.unique(q[q > 0], return_counts=True)
    return vals, counts.astype(float)


def finite_lattice_sum(s: float, N: int, d: int, bc: str) -> float:
    """sum_{r != 0} |r|^(-s) over the displacement set of :func:`finite_displacement_norms`."""
    vals, counts = finite_displacement_norms(N, d, bc)
    return float(np.sum(counts * vals ** (-s / 2.0)))


def escape_rate(params: ModelParams) -> float:
    """Total escape rate from a site: sum over r != 0 of kappa / r^(2 alpha).

    Periodic: exact row sum of the ring kernel. Open: rate from the central
    site, which grows monotonically with N toward the infinite-lattice value
    (finite for alpha > d/2).
    """
    return params.kappa * finite_lattice_sum(2 * params.alpha, params.N, params.d, params.bc)


def sum_r2_hopping_sq(params: ModelParams) -> float:
    """sum_r r^2 h(r)^2 over the finite displacement set (d = 1), h from :func:`hopping_row`.

    It sets both the ballistic and the diffusive regime of the dephasing
    dynamics. Diverges with N for alpha <= (d+2)/2, where callers normalize by it.
    """
    if params.d != 1:
        raise ValueError("hopping-moment sum implemented for d = 1 only")
    r = _source_axis(params.N, params.bc)
    r = r[r != 0]
    h = hopping_row(params)[np.abs(r)]  # a ring row is even: h(r) = h(N - r) bit for bit
    return float(np.sum(r.astype(float) ** 2 * h**2))
