"""The four benchmark workloads, each a list of units with an output check.

A unit is one call a user makes: either ``cli.run`` on an
``ExperimentConfig`` shaped like a figure preset, or a direct library call.
``build`` is the set-up step: it creates the configs and inputs from the
seed and returns units whose ``run`` does the timed work and whose ``check``
verifies the result afterwards, untimed and untraced.

Each workload is dominated by a different layer (see README.md for why each
one was chosen). ``scale="tiny"`` shrinks every size for the smoke tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from levyexciton import analytic, classical, cli, manybody, quantum
from levyexciton.cli import ExperimentConfig, RunOptions
from levyexciton.model import ModelParams

import checks
from checks import read_csv, read_keyed_text, relative, require


@dataclass
class Unit:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], dict | None]


def mp(**kw) -> ModelParams:
    base = dict(d=1, alpha=1.0, J=1.0, gamma=10.0, N=1000, bc="periodic")
    base.update(kw)
    return ModelParams(**base)


def cli_unit(name: str, kind: str, model: ModelParams, run: RunOptions, workdir: Path, check) -> Unit:
    out = workdir / name
    run.out_dir = str(out)
    config = ExperimentConfig(kind, model, run)
    return Unit(name, lambda: cli.run(config), lambda manifest: check(out))


def build(workload: str, seed: int, workdir: Path, scale: str = "full") -> list[Unit]:
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(BUILDERS)}")
    return BUILDERS[workload](seed, Path(workdir), scale == "tiny")


# -- ring-spectrum ------------------------------------------------------------------------
# Per-momentum dense eig and cond dominate: figS3-shaped spectrum units and a
# figS4-shaped spectral variance unit on the same odd rings, plus one ODE
# cross-check on the smallest ring. Rings avoid criterion 11's sizes.


def ring_spectrum(seed: int, workdir: Path, tiny: bool) -> list[Unit]:
    rings = [7, 11] if tiny else [31, 61]
    gamma, J = 0.1, 1.0
    ts = np.linspace(0.0, 40.0, 81)
    small = ModelParams(d=1, alpha=2.0, J=J, gamma=gamma, N=rings[0], bc="periodic")
    shared: dict[str, np.ndarray] = {}

    def variance(states, N):
        return np.array([quantum.variance_of_density(s, origin=N // 2) for s in states])

    def run_cross():
        G0 = quantum.initial_g_delta(small)
        return quantum.propagate_G(G0, small, ts), quantum.spectral_propagate_G(G0, small, ts)

    def check_cross(out):
        ode, spec = out
        herm = max(float(np.max(np.abs(s.G - s.G.conj().T))) for s in spec)
        drift = max(abs(s.trace() - 1.0) for s in spec)
        require(herm <= 1e-10, f"spectral G hermiticity {herm:.3e}")
        require(drift <= 1e-9, f"spectral G trace drift {drift:.3e}")
        v_ode, v_spec = variance(ode, small.N), variance(spec, small.N)
        dev = float(np.max(np.abs(v_spec - v_ode) / np.maximum(1.0, np.abs(v_ode))))
        require(dev <= 1e-9, f"spectral vs ODE variance {dev:.3e}")
        shared["v_ode"] = v_ode

    def check_spectrum(alpha, tag):
        def check(out):
            for N in rings:
                checks.check_ring_spectrum_csv(out / f"spectrum_N{N}_{tag}.csv", N, alpha, J, gamma)
            summary = read_keyed_text(out / f"spectrum_summary_{tag}.txt")
            require(summary["sizes"] == ", ".join(map(str, rings)), "spectrum summary sizes")

        return check

    def check_variance(out):
        require("v_ode" in shared, "ODE reference from the cross-check unit is missing")
        qme = read_csv(out / f"variance_N{rings[0]}.csv")[:, 1]
        dev = float(np.max(np.abs(qme - shared["v_ode"]) / np.maximum(1.0, np.abs(shared["v_ode"]))))
        require(dev <= 1e-9, f"CLI spectral variance vs ODE {dev:.3e}")
        for N in rings:
            data = read_csv(out / f"variance_N{N}.csv")
            require(data.shape == (ts.size, 4) and np.all(np.isfinite(data)), f"variance_N{N}.csv shape")

    units = [Unit(f"crosscheck-N{rings[0]}", run_cross, check_cross)]
    for alpha in (1.0, 2.0, 3.0):
        tag = f"a{int(10 * alpha)}"
        units.append(
            cli_unit(
                f"spectrum-{tag}",
                "spectrum",
                mp(alpha=alpha, N=rings[-1], gamma=gamma),
                RunOptions(n_list=list(rings), tag=tag),
                workdir,
                check_spectrum(alpha, tag),
            )
        )
    units.append(
        cli_unit(
            "variance-spectral",
            "quantum-variance",
            mp(alpha=2.0, N=rings[-1], gamma=gamma),
            RunOptions(t_max=float(ts[-1]), n_times=ts.size, n_list=list(rings), method="spectral"),
            workdir,
            check_variance,
        )
    )
    return units


# -- open-transport -----------------------------------------------------------------------
# Adaptive integrators with FFT right-hand sides and symmetric eigh dominate;
# no ring eig runs, so this is the no-change side for ring-spectrum work.


def open_transport(seed: int, workdir: Path, tiny: bool) -> list[Unit]:
    def check_profile(d, alpha, tag):
        def check(out):
            data = read_csv(out / f"profile_{tag}.csv")
            for t in np.unique(data[:, 0]):
                rows = data[data[:, 0] == t]
                n = rows[:, -1]
                require(abs(n.sum() - 1.0) <= 1e-9, f"{tag}: mass {n.sum()!r} at t = {t}")
                require(n.min() >= -1e-12, f"{tag}: negative density {n.min():.3e} at t = {t}")
                # corner excitation: the density is symmetric under swapping axes
                side = round(len(n) ** (1.0 / d))
                cube = n.reshape((side,) * d)
                asym = float(np.max(np.abs(cube - np.swapaxes(cube, 0, 1))))
                require(asym <= 1e-12, f"{tag}: axis-swap asymmetry {asym:.3e} at t = {t}")
            fits = read_csv(out / f"tail_fits_{tag}.csv")
            dev = float(np.max(np.abs(fits[:, 1] + 2.0 * alpha)))
            require(dev <= 0.25, f"{tag}: tail exponents {fits[:, 1]} vs -{2 * alpha}")

        return check

    def check_variance(out):
        # exact variance law vs the propagated state where boundary leakage is
        # below 1e-6 (gamma t <= 25 at N = 41)
        data = read_csv(out / "variance_N41.csv")
        early = data[:, 0] * 10.0 <= 25.0
        sup = float(np.max(np.abs(data[early, 1] - data[early, 2])))
        require(sup <= 1e-6, f"QME vs variance law sup {sup:.3e} for gamma t <= 25")

    def check_relax(alpha, tag):
        expected = 2.0 * alpha - 1.0 if alpha < 1.5 else 2.0

        def check(out):
            beta = float(read_keyed_text(out / f"relaxation_{tag}.txt")["beta"])
            require(abs(beta - expected) <= 0.2, f"beta = {beta:.4f}, expected {expected}")

        return check

    occ_params = mp(alpha=1.25, N=16 if tiny else 32, bc="open", gamma=2.0)
    occ_times = np.array([0.0, 0.5, 2.0, 8.0])

    def run_occ():
        return (
            manybody.occupation_evolution(occ_params, occ_times, method="eig"),
            manybody.occupation_evolution(occ_params, occ_times, method="ode"),
        )

    def check_occ(out):
        dev = float(np.max(np.abs(out[0] - out[1])))
        require(dev <= 1e-8, f"occupation eig vs ode {dev:.3e}")

    (d2, d2_fit), (d3, d3_fit) = ((30, (4, 20)), (14, (3, 13))) if tiny else ((100, (10, 80)), (30, (4, 29)))
    relax_sizes = [50, 100, 150, 200] if tiny else [100, 200, 400, 800]
    units = [
        cli_unit(
            "figS2-d2",
            "classical-profile",
            mp(d=2, alpha=1.5, N=d2, bc="open"),
            RunOptions(times=[1.25, 2.5], excitation="edge", fit_j_min=d2_fit[0], fit_j_max=d2_fit[1], tag="d2"),
            workdir,
            check_profile(2, 1.5, "d2"),
        ),
        cli_unit(
            "figS2-d3",
            "classical-profile",
            mp(d=3, alpha=2.0, N=d3, bc="open"),
            RunOptions(times=[1.25], excitation="edge", fit_j_min=d3_fit[0], fit_j_max=d3_fit[1], tag="d3"),
            workdir,
            check_profile(3, 2.0, "d3"),
        ),
        cli_unit(
            "fig1b",
            "quantum-variance",
            mp(alpha=3.0, N=41, bc="open"),
            RunOptions(t_max=10.0, n_times=201, n_list=[21, 41]),
            workdir,
            check_variance,
        ),
    ]
    for alpha in (1.0, 3.0):
        tag = f"a{int(10 * alpha)}"
        units.append(
            cli_unit(
                f"fig2b-{tag}",
                "manybody-relax",
                mp(alpha=alpha, N=relax_sizes[0], bc="open", gamma=2.0),
                RunOptions(n_list=list(relax_sizes), tag=tag),
                workdir,
                check_relax(alpha, tag),
            )
        )
    units.append(Unit(f"occupation-eig-vs-ode-N{occ_params.N}", run_occ, check_occ))
    return units


# -- exclusion-kmc ------------------------------------------------------------------------
# The pure-Python Fenwick event loop is the whole cost. alpha = 1 (below
# alpha_cr = 3/2) and alpha = 2 (above) have different null-event fractions.


def exclusion_kmc(seed: int, workdir: Path, tiny: bool) -> list[Unit]:
    sizes = [16] if tiny else [64, 100]
    # 200 trajectories to t = 1.5: enough for the duality check to reject a
    # sampler that never moves, and one that runs at half speed (alpha = 1)
    n_traj = 20 if tiny else 200
    ts = np.array([0.5, 1.5])
    streams = np.random.SeedSequence(seed).generate_state(2 * len(sizes))
    units = []
    for k, (N, alpha) in enumerate((N, a) for N in sizes for a in (1.0, 2.0)):
        params = ModelParams(d=1, alpha=alpha, J=1.0, gamma=2.0, N=N, bc="open")
        start = manybody.domain_wall_config(N)
        stream = int(streams[k])

        def run(params=params, start=start, stream=stream):
            ens = manybody.kmc_simulate(start, params, ts, n_traj, stream)
            return ens, manybody.occupation_evolution(params, ts)

        def check(out):
            ens, lin = out
            return {"manybody.duality_zmax": checks.check_duality(ens.mean, lin, ens.n_traj)}

        units.append(Unit(f"kmc-N{N}-a{int(10 * alpha)}", run, check))
    return units


# -- closed-form --------------------------------------------------------------------------
# Special functions, analytic closed forms and rate-kernel construction dominate.


def closed_form(seed: int, workdir: Path, tiny: bool) -> list[Unit]:
    def check_report(out):
        data = np.genfromtxt(out / "coefficients.csv", delimiter=",", names=True, dtype=None, encoding="ascii")
        kappa = mp().kappa
        checked = 0
        for row in data:
            d, alpha = int(row["d"]), float(row["alpha"])
            if row["regime"] == "mixed" and d in (1, 2):
                ref = 0.5 * kappa * checks.lattice_sum_reference(2 * alpha - 2, d)
                require(relative(float(row["D_alpha"]), ref) <= 1e-11, f"D_alpha d={d} alpha={alpha}")
                checked += 1
        require(checked >= 4, f"only {checked} coefficient rows checked")

    def check_ring_profile(alpha):
        def check(out):
            data = read_csv(out / "profile.csv")
            for t in np.unique(data[:, 0]):
                n = data[data[:, 0] == t, -1]
                require(abs(n.sum() - 1.0) <= 1e-9, f"mass {n.sum()!r} at t = {t}")
            fits = read_csv(out / "tail_fits.csv")
            dev = float(np.max(np.abs(fits[:, 1] + 2.0 * alpha)))
            require(dev <= 0.1, f"tail exponents {fits[:, 1]} vs -{2 * alpha}")

        return check

    n_q = 9 if tiny else 257
    q1 = np.linspace(0.0, math.pi, n_q)
    small_q = (0.025, 0.05)
    d1_alphas = (0.75, 1.0, 1.25, 1.5, 2.0)

    def run_d1():
        out = {}
        for alpha in d1_alphas:
            sf = analytic.StructureFunction(mp(alpha=alpha))
            values = np.array([analytic.structure_function_eval(sf, q) for q in q1])
            expansions = [analytic.small_q_expansion(sf.params, q).value for q in small_q]
            smalls = [analytic.structure_function_eval(sf, q) for q in small_q]
            out[alpha] = (values, np.array(expansions), np.array(smalls))
        return out

    def check_d1(out):
        for alpha, (values, expansions, smalls) in out.items():
            require(relative(values[0], analytic.lattice_sum(2 * alpha, 1)) <= 1e-12, f"A(0) != lattice sum, alpha={alpha}")
            if alpha in (1.0, 2.0):
                dev = float(np.max(np.abs(values - checks.cosine_series_even_power(q1, int(alpha)))))
                require(dev <= 1e-9, f"polylog vs Bernoulli closed form {dev:.3e}, alpha={alpha}")
            dev = float(np.max(np.abs(expansions - smalls)))
            require(dev <= 1e-6, f"small-q expansion vs A(q) {dev:.3e}, alpha={alpha}")

    def sf_unit(d, alpha, radius, qs):
        params = mp(d=d, alpha=alpha)
        vecs = [np.full(d, q / math.sqrt(d)) for q in qs]

        def run():
            sf = analytic.StructureFunction(params, radius=radius)
            values = np.array([analytic.structure_function_eval(sf, v) for v in vecs])
            return values, analytic.small_q_expansion(params, vecs[1]).value

        def check(out):
            values, expansion = out
            require(relative(values[0], analytic.lattice_sum(2 * alpha, d)) <= 1e-12, f"d={d}: A(0) != lattice sum")
            require(np.all(values[1:] < values[0]), f"d={d}: A(q) exceeds A(0)")
            require(relative(expansion, values[1]) <= 1e-2, f"d={d}: small-q expansion off by {relative(expansion, values[1]):.3e}")

        return Unit(f"structure-d{d}", run, check)

    mixed = [(1, 2.0), (1, 3.0), (2, 2.5), (2, 3.0), (3, 3.0), (3, 4.0)]
    times = (3.0, 10.0, 100.0)
    ring = mp(alpha=1.0, N=8192)
    t_ring = 0.5 / ring.kappa
    js = np.arange(-200, 201)

    def run_forms():
        sums = {(s, d): analytic.lattice_sum(s, d) for d in (1, 2, 3) for s in (d + 0.5, d + 1.0, d + 2.0, 2.0 * d + 2.0)}
        scales = []
        for d, alpha in mixed:
            params = mp(d=d, alpha=alpha)
            coeff = analytic.coefficients(params)
            for kt in times:
                t = kt / params.kappa
                sc = analytic.crossover(params, t)
                if sc.xi_exact is not None:
                    j = sc.xi_exact if d == 1 else np.r_[sc.xi_exact, np.zeros(d - 1)]
                    scales.append((params, coeff, t, sc.xi_exact, analytic.asymptotic_profile(j, t, params)))
        closed = analytic.exact_profile_alpha1(js, t_ring, ring)
        spectral = classical.cme_spectral_solve(ring, t_ring).values[js % ring.N]
        return sums, scales, closed, spectral

    def check_forms(out):
        sums, scales, closed, spectral = out
        for (s, d), value in sums.items():
            if d < 3:
                require(relative(value, checks.lattice_sum_reference(s, d)) <= 1e-11, f"lattice sum s={s} d={d}")
        require(len(scales) >= len(mixed), f"only {len(scales)} crossover scales exist")
        for params, coeff, t, xi, profile in scales:
            D, d = coeff.D_alpha, params.d
            gauss = math.exp(-(xi**2) / (4 * D * t)) / (4 * math.pi * D * t) ** (d / 2.0)
            tail = params.kappa * t * xi ** (-2 * params.alpha)
            require(relative(gauss, tail) <= 1e-8, f"crossover equation off by {relative(gauss, tail):.3e}")
            require(relative(profile, tail) <= 1e-8, "asymptotic profile at xi is not the tail value")
        sup = float(np.max(np.abs(closed - spectral)))
        require(sup <= 1e-4, f"alpha = 1 closed form vs N = {ring.N} ring sup {sup:.3e}")

    return [
        cli_unit("analytic-report", "analytic-report", mp(), RunOptions(), workdir, check_report),
        cli_unit(
            "fig1c",
            "classical-profile",
            mp(alpha=1.0),
            RunOptions(times=[5.0, 15.0], fit_j_min=20, fit_j_max=250),
            workdir,
            check_ring_profile(1.0),
        ),
        cli_unit(
            "fig1d",
            "classical-profile",
            mp(alpha=2.0),
            RunOptions(times=[5.0, 15.0], fit_j_min=35, fit_j_max=250),
            workdir,
            check_ring_profile(2.0),
        ),
        Unit("structure-d1", run_d1, check_d1),
        sf_unit(2, 1.5, 400 if tiny else None, (0.0, 0.05, 0.3) if tiny else np.r_[0.0, 0.05, np.linspace(0.1, math.pi, 31)]),
        sf_unit(3, 2.0, 100 if tiny else None, (0.0, 0.05) if tiny else (0.0, 0.05, math.pi / 2)),
        Unit("closed-forms", run_forms, check_forms),
    ]


BUILDERS = {
    "ring-spectrum": ring_spectrum,
    "open-transport": open_transport,
    "exclusion-kmc": exclusion_kmc,
    "closed-form": closed_form,
}
