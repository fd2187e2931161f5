"""Experiment runner: config parsing, dispatch, and figure-ready data files.

One experiment = one parameter set + one run block, described either by an
INI config file (sections ``[experiment]``, ``[model]``, ``[run]``) or by a
named preset; command-line flags override file keys. Every run writes CSV
artifacts plus ``manifest.json`` listing each artifact with a content hash.
Outputs are deterministic given the config (including the seed); timestamps
live only in the manifest. No plotting: figures are produced externally.

Exit codes: 0 success, 2 configuration error, 3 solver error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import analytic, classical, manybody, quantum
from .model import ModelParams, sum_r2_hopping_sq

EXPERIMENT_KINDS = (
    "quantum-variance",
    "classical-profile",
    "classical-moments",
    "manybody-relax",
    "spectrum",
    "analytic-report",
)

SCHEMA_VERSION = "1"

_RUN_KEYS = (
    "times",
    "t_max",
    "n_times",
    "trajectories",
    "seed",
    "out",
    "n_list",
    "fit_j_min",
    "fit_j_max",
    "normalize",
    "excitation",
    "method",
    "tag",
)


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


class SolverRunError(RuntimeError):
    """A solver failed while executing the experiment."""


@dataclass
class RunOptions:
    """Run block: output times, sampling, seeds, windows, destination."""

    times: list[float] | None = None
    t_max: float | None = None
    n_times: int = 101
    trajectories: int = 0
    seed: int = 12345
    out_dir: str = "."
    n_list: list[int] | None = None
    fit_j_min: int | None = None
    fit_j_max: int | None = None
    normalize: bool = False
    excitation: str = "center"
    method: str = "auto"
    tag: str = ""


@dataclass
class ExperimentConfig:
    """Validated experiment description: kind + model block + run block."""

    kind: str
    model: ModelParams
    run: RunOptions = field(default_factory=RunOptions)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.run.excitation not in ("center", "edge"):
            raise ConfigError(f"excitation must be center|edge, got {self.run.excitation!r}")
        if self.run.method not in ("auto", "ode", "spectral"):
            raise ConfigError(f"method must be auto|ode|spectral, got {self.run.method!r}")
        if self.run.trajectories < 0:
            raise ConfigError("trajectories must be non-negative")
        if not self.model.gamma > 0:
            # every kind uses kappa = 2 J^2/gamma or divides by gamma
            raise ConfigError(f"gamma must be positive, got {self.model.gamma}")


# -- config file parsing ---------------------------------------------------------


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def load_config(path) -> ExperimentConfig:
    """Parse an INI experiment file, rejecting unknown sections and keys."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # model keys J and N are case-sensitive contract names
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    known = {"experiment", "model", "run"}
    extra = set(cp.sections()) - known
    if extra:
        raise ConfigError(f"unknown config sections: {sorted(extra)}")
    if "experiment" not in cp or "kind" not in cp["experiment"]:
        raise ConfigError("config must declare [experiment] kind")
    ek = set(cp["experiment"]) - {"kind"}
    if ek:
        raise ConfigError(f"unknown experiment keys: {sorted(ek)}")
    kind = cp["experiment"]["kind"].strip()
    if "model" not in cp:
        raise ConfigError("config must declare a [model] section")
    try:
        model = ModelParams.from_config(dict(cp["model"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    run = RunOptions()
    if "run" in cp:
        block = dict(cp["run"])
        unknown = set(block) - set(_RUN_KEYS)
        if unknown:
            raise ConfigError(f"unknown run keys: {sorted(unknown)}")
        if "times" in block:
            run.times = _parse_float_list(block["times"])
        if "t_max" in block:
            run.t_max = float(block["t_max"])
        if "n_times" in block:
            run.n_times = int(block["n_times"])
        if "trajectories" in block:
            run.trajectories = int(block["trajectories"])
        if "seed" in block:
            run.seed = int(block["seed"])
        if "out" in block:
            run.out_dir = block["out"]
        if "n_list" in block:
            run.n_list = _parse_int_list(block["n_list"])
        if "fit_j_min" in block:
            run.fit_j_min = int(block["fit_j_min"])
        if "fit_j_max" in block:
            run.fit_j_max = int(block["fit_j_max"])
        if "normalize" in block:
            run.normalize = block["normalize"].strip().lower() in ("1", "true", "yes", "on")
        if "excitation" in block:
            run.excitation = block["excitation"].strip()
        if "method" in block:
            run.method = block["method"].strip()
        if "tag" in block:
            run.tag = block["tag"].strip()
    return ExperimentConfig(kind=kind, model=model, run=run)


# -- output helpers ----------------------------------------------------------------


def _fmt(x: float) -> str:
    return "%.16e" % x


def _write_csv(path: Path, header: str, rows) -> Path:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    return path


def _artifact_name(base: str, tag: str) -> str:
    if not tag:
        return base
    stem, dot, ext = base.partition(".")
    return f"{stem}_{tag}{dot}{ext}"


class _Collector:
    """Accumulates artifact paths and renders the manifest."""

    def __init__(self, out_dir: Path, config_echo: dict):
        self.out_dir = out_dir
        self.echo = config_echo
        self.paths: list[Path] = []

    def add(self, path: Path):
        self.paths.append(path)

    def write_manifest(self) -> Path:
        entries = []
        for p in sorted(self.paths):
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            entries.append(
                {"name": p.name, "schema_version": SCHEMA_VERSION, "sha256": digest}
            )
        manifest = {
            "artifacts": entries,
            "config": self.echo,
            "created": datetime.now(timezone.utc).isoformat(),
        }
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return path


def _config_echo(config: ExperimentConfig) -> dict:
    run = {k: getattr(config.run, k if k != "out" else "out_dir") for k in _RUN_KEYS}
    return {"kind": config.kind, "model": config.model.to_config(), "run": run}


def _time_grid(run: RunOptions, default_t_max: float) -> np.ndarray:
    if run.times is not None:
        ts = np.asarray(run.times, dtype=float)
        if ts.size == 0 or np.any(ts < 0):
            raise ConfigError("times must be non-negative and non-empty")
        return np.sort(ts)
    t_max = run.t_max if run.t_max is not None else default_t_max
    return np.linspace(0.0, t_max, run.n_times)


# -- experiment implementations ------------------------------------------------------


def _run_quantum_variance(config: ExperimentConfig, col: _Collector):
    p = config.model
    run = config.run
    ts = _time_grid(run, default_t_max=10.0 / p.gamma * 10.0)
    sizes = run.n_list or [p.N]
    primary = max(sizes)
    for N in sizes:
        pn = replace(p, N=N)
        norm = sum_r2_hopping_sq(pn) if run.normalize else 1.0
        G0 = quantum.initial_g_delta(pn)
        if run.method == "spectral":
            states = quantum.spectral_propagate_G(G0, pn, ts)
        else:
            states = quantum.propagate_G(G0, pn, ts)
        origin = pn.N // 2
        var_q = np.array([quantum.variance_of_density(s, origin=origin) for s in states])
        var_cf = np.asarray(quantum.variance_closed_form(pn, ts))
        classical_line = 2.0 * sum_r2_hopping_sq(pn) / pn.gamma * ts

        def rows():
            return (
                (_fmt(t), _fmt(v / norm), _fmt(c / norm), _fmt(cl / norm))
                for t, v, c, cl in zip(ts, var_q, var_cf, classical_line)
            )

        name = _artifact_name(f"variance_N{N}.csv", run.tag)
        col.add(_write_csv(col.out_dir / name, "t,qme,eq3,classical", rows()))
        if N == primary:
            name = _artifact_name("variance.csv", run.tag)
            col.add(_write_csv(col.out_dir / name, "t,qme,eq3,classical", rows()))


def _classical_trajectory(config: ExperimentConfig, ts) -> list[classical.DensityProfile]:
    p = config.model
    run = config.run
    if p.bc == "periodic" and run.method != "ode":
        return [classical.cme_spectral_solve(p, t) for t in ts]
    if run.excitation == "edge":
        origin = (0,) * p.d
    else:
        origin = tuple((s // 2) for s in p.shape)
    n0 = np.zeros(p.shape)
    n0[origin] = 1.0
    start = classical.DensityProfile(0.0, n0, p.bc, origin)
    nz = ts[ts > 0]
    profs = classical.cme_integrate(start, p, nz) if nz.size else []
    out = []
    for t in ts:
        if t == 0:
            out.append(classical.DensityProfile(0.0, n0.copy(), p.bc, origin))
        else:
            out.append(profs[int(np.searchsorted(nz, t))])
    return out


def _run_classical_profile(config: ExperimentConfig, col: _Collector):
    run = config.run
    if run.times is None:
        raise ConfigError("classical-profile requires explicit output times")
    ts = np.sort(np.asarray(run.times, dtype=float))
    profs = _classical_trajectory(config, ts)
    name = _artifact_name("profile.csv", run.tag)
    path = col.out_dir / name
    classical.trajectory_to_csv(profs, path)
    col.add(path)
    if run.fit_j_min is not None and run.fit_j_max is not None:
        rows = []
        for prof in profs:
            if prof.t <= 0:
                continue
            cut = prof if prof.values.ndim == 1 else classical.axis_profile(prof, axis=0)
            expo, amp = classical.tail_fit(cut, (run.fit_j_min, run.fit_j_max))
            rows.append((_fmt(prof.t), _fmt(expo), _fmt(amp)))
        name = _artifact_name("tail_fits.csv", run.tag)
        col.add(_write_csv(col.out_dir / name, "t,exponent,amplitude", rows))


def _run_classical_moments(config: ExperimentConfig, col: _Collector):
    p = config.model
    ts = _time_grid(config.run, default_t_max=5.0 / p.kappa)
    profs = _classical_trajectory(config, ts)
    rows = []
    for prof in profs:
        mean, var = classical.moments(prof)
        fields = [_fmt(prof.t)] + [_fmt(m) for m in mean] + [_fmt(var)]
        rows.append(tuple(fields))
    header = "t," + ",".join(f"mean{k + 1}" for k in range(p.d)) + ",variance"
    name = _artifact_name("moments.csv", config.run.tag)
    col.add(_write_csv(col.out_dir / name, header, rows))


def _relax_time_grid(params: ModelParams, N: int) -> np.ndarray:
    """Geometric guess for the chi^2 decay horizon of an N-site chain."""
    acr = (params.d + 2) / 2.0
    kappa = params.kappa
    if params.alpha > acr:
        b = 0.5 * kappa * analytic.lattice_sum(2 * params.alpha - 2, 1)
        beta = 2.0
    elif abs(params.alpha - acr) < 1e-9:
        b = kappa
        beta = 2.0
    else:
        b = math.pi * kappa
        beta = 2.0 * params.alpha - 1.0
    tau = N**beta / (2.0 * math.pi**beta * b)
    if abs(params.alpha - acr) < 1e-9:
        tau *= math.log(N)
    return np.linspace(0.0, 18.0 * tau, 360)


def _run_manybody_relax(config: ExperimentConfig, col: _Collector):
    p = config.model
    run = config.run
    if p.bc != "open" or p.d != 1:
        raise ConfigError("manybody-relax requires d = 1 open bc")
    sizes = run.n_list or [p.N]
    series = []
    for N in sizes:
        pn = replace(p, N=N)
        ts = (
            np.sort(np.asarray(run.times, dtype=float))
            if run.times is not None and run.n_list is None
            else _relax_time_grid(pn, N)
        )
        traj = manybody.occupation_evolution(pn, ts)
        chi = manybody.chi_squared_series(traj)
        series.append((ts, chi))
        rows = ((_fmt(t), _fmt(c)) for t, c in zip(ts, chi))
        name = _artifact_name(f"chi_N{N}.csv", run.tag)
        col.add(_write_csv(col.out_dir / name, "t,chi2_over_N", rows))
    # occupation profile for the configured N at the requested times
    ts_occ = (
        np.sort(np.asarray(run.times, dtype=float))
        if run.times is not None
        else series[-1][0][:: max(1, len(series[-1][0]) // 8)]
    )
    traj = manybody.occupation_evolution(p, ts_occ)
    labels = manybody.site_labels(p.N)
    rows = (
        (_fmt(t), str(labels[j]), _fmt(traj[ti, j]))
        for ti, t in enumerate(ts_occ)
        for j in range(p.N)
    )
    name = _artifact_name("occupation.csv", run.tag)
    col.add(_write_csv(col.out_dir / name, "t,j,n", rows))
    if len(sizes) >= 4:
        fit = manybody.relaxation_fit(series, sizes, p.alpha)
        name = _artifact_name("relaxation.txt", run.tag)
        path = col.out_dir / name
        path.write_text(manybody.relaxation_summary(fit, p.alpha))
        col.add(path)
    if run.trajectories > 0:
        config0 = manybody.domain_wall_config(p.N)
        ens = manybody.kmc_simulate(config0, p, ts_occ, run.trajectories, run.seed)
        name = _artifact_name("kmc.csv", run.tag)
        path = col.out_dir / name
        manybody.ensemble_to_csv(ens, path)
        col.add(path)
        lin = manybody.occupation_evolution(p, ts_occ)
        # each trajectory's occupation is Bernoulli(lin) by duality, so the
        # mean's stderr is sqrt(lin (1 - lin) / n); where lin is exactly 0 or
        # 1 the ensemble must agree with it exactly
        stderr = np.sqrt(np.clip(lin * (1.0 - lin), 0.0, None) / ens.n_traj)
        gap = np.abs(ens.mean - lin)
        with np.errstate(divide="ignore", invalid="ignore"):
            dev = np.where(stderr > 0, gap / stderr, np.where(gap == 0, 0.0, np.inf))
        name = _artifact_name("duality_check.txt", run.tag)
        path = col.out_dir / name
        path.write_text(
            "max_abs_deviation = %.16e\nmax_deviation_over_stderr = %.16e\n"
            % (float(np.max(gap)), float(np.max(dev)))
        )
        col.add(path)


def _run_spectrum(config: ExperimentConfig, col: _Collector):
    p = config.model
    run = config.run
    sizes = run.n_list or [p.N]
    gaps_r, gaps_c, pert_min = [], [], []
    for N in sizes:
        pn = replace(p, N=N)
        summary = quantum.slow_modes(pn, keep_sets=True)
        gaps_r.append(summary.real_gap)
        gaps_c.append(summary.complex_gap)
        name = _artifact_name(f"spectrum_N{N}.csv", run.tag)
        path = col.out_dir / name
        quantum.spectra_to_csv(summary.sets, path)
        col.add(path)
        # real parts at the retained perturbative order (first-order shift);
        # blocks with near-degenerate levels have no perturbative series
        pmin = math.inf
        for qi in range(pn.N):
            try:
                re = quantum.perturbative_spectrum(qi, pn, order=2).real
            except quantum.DegenerateSpectrumError:
                continue
            pmin = min(pmin, float(np.min(re[re > 1e-12 * pn.gamma])))
        pert_min.append(pmin)
    lines = [
        "sizes = " + ", ".join(str(n) for n in sizes),
        "real_branch_gaps = " + ", ".join(_fmt(g) for g in gaps_r),
        "complex_branch_gaps = " + ", ".join(_fmt(g) for g in gaps_c),
        "perturbative_min_re = " + ", ".join(_fmt(g) for g in pert_min),
    ]
    if len(sizes) >= 2:
        slope = float(np.polyfit(np.log(sizes), np.log(gaps_r), 1)[0])
        lines.append("real_branch_exponent = " + _fmt(slope))
    name = _artifact_name("spectrum_summary.txt", run.tag)
    path = col.out_dir / name
    path.write_text("\n".join(lines) + "\n")
    col.add(path)


def _run_analytic_report(config: ExperimentConfig, col: _Collector):
    p = config.model
    rows = []
    report = []
    for d in (1, 2, 3):
        acr = (d + 2) / 2.0
        report.append(f"d = {d}: alpha_cr = {acr}, forster_ratio = {analytic.forster_ratio(d):.6f}")
        for alpha in (0.75, 1.0, 1.25, 1.75, 2.0, 2.5, 3.0, 4.0):
            if alpha <= d / 2.0:
                continue
            pd = replace(p, d=d, alpha=alpha, N=p.N, bc="periodic")
            co = analytic.coefficients(pd)
            rows.append(
                (
                    str(d),
                    _fmt(alpha),
                    _fmt(co.alpha_cr),
                    co.regime,
                    _fmt(co.D_alpha) if co.D_alpha is not None else "",
                    _fmt(co.C_alpha) if co.C_alpha is not None else "",
                )
            )
            if co.regime == "mixed":
                sc = analytic.crossover(pd, 3.0 / pd.kappa)
                report.append(
                    f"  alpha = {alpha}: D/kappa = {co.D_alpha / pd.kappa:.6f}, "
                    f"t_cr = {sc.t_cr:.6g}, xi(kappa t = 3) = "
                    + (f"{sc.xi_exact:.6f}" if sc.xi_exact else "below t_cr")
                )
            else:
                c_txt = f"{co.C_alpha / pd.kappa:.6f}" if co.C_alpha is not None else "log-modified"
                report.append(f"  alpha = {alpha}: levy regime, C/kappa = {c_txt}")
    name = _artifact_name("coefficients.csv", config.run.tag)
    col.add(
        _write_csv(
            col.out_dir / name,
            "d,alpha,alpha_cr,regime,D_alpha,C_alpha",
            rows,
        )
    )
    name = _artifact_name("report.txt", config.run.tag)
    path = col.out_dir / name
    path.write_text("\n".join(report) + "\n")
    col.add(path)


_DISPATCH = {
    "quantum-variance": _run_quantum_variance,
    "classical-profile": _run_classical_profile,
    "classical-moments": _run_classical_moments,
    "manybody-relax": _run_manybody_relax,
    "spectrum": _run_spectrum,
    "analytic-report": _run_analytic_report,
}


def run(config: ExperimentConfig) -> Path:
    """Execute one experiment; returns the manifest path."""
    out_dir = Path(config.run.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    col = _Collector(out_dir, _config_echo(config))
    _DISPATCH[config.kind](config, col)
    return col.write_manifest()


def run_many(configs: list[ExperimentConfig]) -> Path:
    """Execute a preset made of several configs into one directory."""
    out_dir = Path(configs[0].run.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    col = _Collector(out_dir, {"preset_members": [_config_echo(c) for c in configs]})
    for c in configs:
        if Path(c.run.out_dir) != out_dir:
            raise ConfigError("preset members must share one output directory")
        _DISPATCH[c.kind](c, col)
    return col.write_manifest()


# -- figure presets -------------------------------------------------------------------


def figure_presets() -> dict[str, list[ExperimentConfig]]:
    """Named desk-scale configurations, one per reproduced figure."""

    def mp(**kw):
        base = dict(d=1, alpha=1.0, J=1.0, gamma=10.0, N=1000, bc="periodic")
        base.update(kw)
        return ModelParams(**base)

    presets: dict[str, list[ExperimentConfig]] = {}
    presets["fig1b"] = [
        ExperimentConfig(
            "quantum-variance",
            mp(alpha=3.0, N=41, bc="open"),
            RunOptions(t_max=10.0, n_times=201, n_list=[21, 41]),
        )
    ]
    presets["fig1c"] = [
        ExperimentConfig(
            "classical-profile",
            mp(alpha=1.0),
            RunOptions(times=[5.0, 15.0], fit_j_min=20, fit_j_max=250),
        )
    ]
    presets["fig1d"] = [
        ExperimentConfig(
            "classical-profile",
            mp(alpha=2.0),
            RunOptions(times=[5.0, 15.0], fit_j_min=35, fit_j_max=250),
        )
    ]
    presets["fig2a"] = [
        ExperimentConfig(
            "manybody-relax",
            mp(alpha=a, N=100, bc="open", gamma=2.0),
            RunOptions(times=[0.5], tag=f"a{int(10 * a)}"),
        )
        for a in (1.0, 1.5, 2.0, 3.0)
    ]
    presets["fig2b"] = [
        ExperimentConfig(
            "manybody-relax",
            mp(alpha=a, N=100, bc="open", gamma=2.0),
            RunOptions(n_list=[100, 200, 400, 800], tag=f"a{int(10 * a)}"),
        )
        for a in (1.0, 2.0, 3.0)
    ]
    presets["figS1"] = [
        ExperimentConfig(
            "quantum-variance",
            mp(alpha=a, N=41, bc="open"),
            RunOptions(t_max=10.0, n_times=201, n_list=[21, 41], normalize=True, tag=f"a{int(10 * a)}"),
        )
        for a in (1.0, 1.5)
    ]
    presets["figS2"] = [
        ExperimentConfig(
            "classical-profile",
            mp(d=2, alpha=1.5, N=100, bc="open"),
            RunOptions(times=[1.25, 2.5], excitation="edge", fit_j_min=10, fit_j_max=80, tag="d2"),
        ),
        ExperimentConfig(
            "classical-profile",
            mp(d=3, alpha=2.0, N=30, bc="open"),
            RunOptions(times=[1.25], excitation="edge", fit_j_min=4, fit_j_max=29, tag="d3"),
        ),
    ]
    presets["figS3"] = [
        ExperimentConfig(
            "spectrum",
            mp(alpha=a, N=201, gamma=0.1),
            RunOptions(n_list=[51, 101, 201], tag=f"a{int(10 * a)}"),
        )
        for a in (1.0, 2.0, 3.0)
    ]
    presets["figS4"] = [
        ExperimentConfig(
            "quantum-variance",
            mp(alpha=2.0, N=201, gamma=0.1),
            RunOptions(t_max=40.0, n_times=81, n_list=[51, 101, 201], method="spectral"),
        )
    ]
    return presets


# -- command line ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="levyexciton",
        description="Run exciton-transport experiments and emit figure-ready CSV data.",
    )
    ap.add_argument("--config", metavar="PATH", help="INI experiment description")
    ap.add_argument("--preset", metavar="NAME", help="named figure preset")
    ap.add_argument("--list-presets", action="store_true", help="print preset names and exit")
    ap.add_argument("--out", metavar="DIR", help="output directory")
    ap.add_argument("--seed", type=int, metavar="U64", help="master random seed")
    ap.add_argument("--alpha", type=float, help="override hopping decay exponent")
    ap.add_argument("--gamma", type=float, help="override dephasing rate")
    ap.add_argument("--N", type=int, help="override sites per axis")
    ap.add_argument("--dim", type=int, help="override lattice dimension")
    ap.add_argument("--bc", choices=("periodic", "open"), help="override boundary condition")
    ap.add_argument("--t-max", type=float, dest="t_max", help="override time horizon")
    ap.add_argument("--trajectories", type=int, help="override KMC trajectory count")
    return ap


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    model_kw = {}
    if args.alpha is not None:
        model_kw["alpha"] = args.alpha
    if args.gamma is not None:
        model_kw["gamma"] = args.gamma
    if args.N is not None:
        model_kw["N"] = args.N
    if args.dim is not None:
        model_kw["d"] = args.dim
    if args.bc is not None:
        model_kw["bc"] = args.bc
    try:
        model = replace(config.model, **model_kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    run_kw = {}
    if args.out is not None:
        run_kw["out_dir"] = args.out
    if args.seed is not None:
        run_kw["seed"] = args.seed
    if args.t_max is not None:
        run_kw["t_max"] = args.t_max
        run_kw["times"] = None
    if args.trajectories is not None:
        run_kw["trajectories"] = args.trajectories
    run = replace(config.run, **run_kw) if run_kw else config.run
    return ExperimentConfig(config.kind, model, run)


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if args.list_presets:
        for name in sorted(figure_presets()):
            print(name)
        return 0
    try:
        if bool(args.config) == bool(args.preset):
            raise ConfigError("exactly one of --config or --preset is required")
        if args.config:
            configs = [load_config(args.config)]
        else:
            presets = figure_presets()
            if args.preset not in presets:
                raise ConfigError(
                    f"unknown preset {args.preset!r}; known: {', '.join(sorted(presets))}"
                )
            configs = presets[args.preset]
        configs = [_apply_overrides(c, args) for c in configs]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        manifest = run_many(configs) if len(configs) > 1 else run(configs[0])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver failure -> exit 3 with the solver's message
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    print(manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
