"""Experiment runner: config parsing, dispatch, and figure-ready data files.

One experiment = one parameter set + one run block, described either by an
INI config file (sections ``[experiment]``, ``[model]``, ``[run]``) or by a
named preset; command-line flags override file keys. Every run writes CSV
artifacts plus ``manifest.json`` listing each artifact with a content hash.
Outputs are deterministic given the config (including the seed); timestamps
live only in the manifest. No plotting: figures are produced externally.

Exit codes: 0 success; 2 configuration error (a file configparser cannot read,
unknown or unparseable keys, invalid model parameters, J = 0, a
kappa = 2 J^2/gamma that overflows, output times that are empty, repeated,
negative, NaN or infinite, a ``classical-profile`` run without ``times``, a
negative seed for KMC trajectories, sizes below 2 or repeated, a tail-fit window
with one bound or holding fewer than four sites, a kind or ``method = spectral``
on a lattice its solver does not cover, an even ring spectrum or an odd domain
wall, a ``tag`` holding a path separator), with nothing written; 3 solver error
(among them a Taylor propagation above ``quantum.TAYLOR_MAX_WORK``).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import itertools
import json
import sys
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import analytic, classical, manybody, quantum
from .model import ModelParams, displacement_axis, format_float, output_times, sum_r2_hopping_sq, write_csv

SCHEMA_VERSION = "1"


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


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
        kind = _KINDS.get(self.kind)
        if kind is None:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.run.excitation not in ("center", "edge"):
            raise ConfigError(f"excitation must be center|edge, got {self.run.excitation!r}")
        if self.run.method not in ("auto", "ode", "spectral"):
            raise ConfigError(f"method must be auto|ode|spectral, got {self.run.method!r}")
        if self.run.trajectories < 0:
            raise ConfigError("trajectories must be non-negative")
        if self.run.seed < 0 and self.run.trajectories > 0:
            raise ConfigError(f"seed must be non-negative, got {self.run.seed}")
        if any(n < 2 for n in self.run.n_list or ()):
            raise ConfigError(f"n_list sizes must be at least 2, got {self.run.n_list}")
        if len(set(self.run.n_list or ())) < len(self.run.n_list or ()):
            raise ConfigError(f"n_list sizes must be distinct, got {self.run.n_list}")
        if not self.model.gamma > 0:
            # every kind uses kappa = 2 J^2/gamma or divides by gamma
            raise ConfigError(f"gamma must be positive, got {self.model.gamma}")
        if not self.model.kappa > 0:
            # every kind's time scale is 1/kappa
            raise ConfigError(f"kappa = 2 J^2/gamma must be positive, got J = {self.model.J}")
        d, bc = self.model.d, self.model.bc
        if kind.chain_bcs and (d != 1 or bc not in kind.chain_bcs):
            need = "|".join(kind.chain_bcs)
            raise ConfigError(f"{self.kind} needs d = 1 and bc = {need}, got d = {d}, bc = {bc}")
        if self.run.method == "spectral" and bc != "periodic" and kind.propagates:
            raise ConfigError(f"method = spectral needs bc = periodic for {self.kind}")
        sizes = [self.model.N, *(self.run.n_list or ())]
        ring_spectrum = self.kind == "spectrum" or (self.kind == "quantum-variance" and self.run.method == "spectral")
        if ring_spectrum and any(n % 2 == 0 for n in sizes):
            raise ConfigError(f"{self.kind} needs odd sizes (even rings have exact degeneracies), got {sizes}")
        if self.kind == "manybody-relax" and any(n % 2 for n in sizes):
            raise ConfigError(f"the domain wall needs even sizes, got {sizes}")
        if Path(self.run.tag).name != self.run.tag:
            raise ConfigError(f"tag must not hold a path separator, got {self.run.tag!r}")
        # refuse a bad or missing grid before the run writes
        if _time_grid(self) is None and kind.propagates:
            raise ConfigError(f"{self.kind} requires explicit output times")
        window = (self.run.fit_j_min, self.run.fit_j_max)
        if self.kind == "classical-profile" and window.count(None) == 1:
            raise ConfigError(f"tail-fit window needs both fit_j_min and fit_j_max, got {window}")
        if self.kind == "classical-profile" and None not in window:
            # the axis cut through the excited site, which tail_fit sees
            try:
                classical.tail_window(displacement_axis(self.model.N, _origin(self)[0], bc), window)
            except ValueError as exc:
                raise ConfigError(f"tail-fit window {window}: {exc}") from exc


# -- config file parsing ---------------------------------------------------------


def _list_of(cast):
    return lambda text: [cast(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _flag(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes", "on")


# [run] config key -> (RunOptions field, parser of the raw value)
_RUN_KEYS = {
    "times": ("times", _list_of(float)),
    "t_max": ("t_max", float),
    "n_times": ("n_times", int),
    "trajectories": ("trajectories", int),
    "seed": ("seed", int),
    "out": ("out_dir", str),
    "n_list": ("n_list", _list_of(int)),
    "fit_j_min": ("fit_j_min", int),
    "fit_j_max": ("fit_j_max", int),
    "normalize": ("normalize", _flag),
    "excitation": ("excitation", str.strip),
    "method": ("method", str.strip),
    "tag": ("tag", str.strip),
}


def load_config(path) -> ExperimentConfig:
    """Parse an INI experiment file, rejecting unknown sections and keys."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # model keys J and N are case-sensitive contract names
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
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
        for key, text in block.items():
            name, parse = _RUN_KEYS[key]
            try:
                setattr(run, name, parse(text))
            except ValueError as exc:
                raise ConfigError(f"run key {key}: {exc}") from exc
    return ExperimentConfig(kind=kind, model=model, run=run)


# -- output helpers ----------------------------------------------------------------


class _Collector:
    """Writes every artifact of a run into ``out_dir`` and renders the manifest.

    An artifact is named ``base`` with ``_tag`` inserted before its extension
    when the run has a tag.
    """

    def __init__(self, out_dir: Path, config_echo: dict):
        self.out_dir = out_dir
        self.echo = config_echo
        self.paths: list[Path] = []

    def _register(self, base: str, tag: str) -> Path:
        if tag:
            stem, dot, ext = base.partition(".")
            base = f"{stem}_{tag}{dot}{ext}"
        path = self.out_dir / base
        self.paths.append(path)
        return path

    def csv(self, base: str, tag: str, header: str, rows):
        write_csv(self._register(base, tag), header, rows)

    def text(self, base: str, tag: str, lines):
        self._register(base, tag).write_text("\n".join(lines) + "\n")

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
    # tolist() makes numpy scalars and arrays, alone or in lists, plain Python for JSON
    run = {key: np.asarray(getattr(config.run, name)).tolist() for key, (name, _) in _RUN_KEYS.items()}
    return {"kind": config.kind, "model": config.model.to_config(), "run": run}


def _time_grid(config: ExperimentConfig) -> np.ndarray | None:
    """The run's output times, or None when it has none.

    The sorted ``times`` if given; else ``n_times`` points up to ``t_max``, or
    up to the kind's horizon, for a kind that has one.
    """
    run = config.run
    horizon = _KINDS[config.kind].horizon
    try:
        if run.times is not None:
            return output_times(np.sort(np.asarray(run.times, dtype=float)))
        if horizon is None:
            return None
        t_max = run.t_max if run.t_max is not None else horizon(config.model)
        with np.errstate(invalid="ignore"):  # an infinite t_max gives NaN, which output_times refuses
            return output_times(np.linspace(0.0, t_max, run.n_times))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# -- experiment implementations ------------------------------------------------------


def _run_quantum_variance(config: ExperimentConfig, col: _Collector):
    p = config.model
    run = config.run
    ts = _time_grid(config)
    sizes = run.n_list or [p.N]
    primary = max(sizes)
    for N in sizes:
        pn = replace(p, N=N)
        norm = sum_r2_hopping_sq(pn) if run.normalize else 1.0
        propagate = quantum.spectral_propagate_G if run.method == "spectral" else quantum.propagate_G
        states = propagate(quantum.initial_g_delta(pn), pn, ts)
        var_q = np.array([quantum.variance_of_density(s) for s in states])
        var_cf = np.asarray(quantum.variance_closed_form(pn, ts))
        classical_line = 2.0 * sum_r2_hopping_sq(pn) / pn.gamma * ts

        def rows():
            return (
                (format_float(t), format_float(v / norm), format_float(c / norm), format_float(cl / norm))
                for t, v, c, cl in zip(ts, var_q, var_cf, classical_line)
            )

        col.csv(f"variance_N{N}.csv", run.tag, "t,qme,eq3,classical", rows())
        if N == primary:
            col.csv("variance.csv", run.tag, "t,qme,eq3,classical", rows())


def _origin(config: ExperimentConfig) -> tuple[int, ...]:
    """Initial site of a classical run: a lattice corner or the central site."""
    p = config.model
    if config.run.excitation == "edge":
        return (0,) * p.d
    return tuple((s // 2) for s in p.shape)


def _classical_trajectory(config: ExperimentConfig, ts) -> list[classical.DensityProfile]:
    p = config.model
    if p.bc == "periodic" and config.run.method != "ode":
        return classical.cme_spectral_solve(p, ts)
    origin = _origin(config)
    n0 = np.zeros(p.shape)
    n0[origin] = 1.0
    return classical.cme_integrate(classical.DensityProfile(0.0, n0, p.bc, origin), p, ts)


def _run_classical_profile(config: ExperimentConfig, col: _Collector):
    run = config.run
    profs = _classical_trajectory(config, _time_grid(config))

    def rows():
        # one row per site per output time: t, j1..jd, n. Every profile of the
        # trajectory shares one lattice and origin, and product() visits the
        # sites in the C order of values.
        axes = [[str(j) for j in c.astype(int).tolist()] for c in profs[0].coordinates()]
        for prof in profs:
            t = format_float(prof.t)
            for js, n in zip(itertools.product(*axes), prof.values.flat):
                yield (t, *js, format_float(n))

    header = "t," + ",".join(f"j{k + 1}" for k in range(config.model.d)) + ",n"
    col.csv("profile.csv", run.tag, header, rows())
    if run.fit_j_min is not None and run.fit_j_max is not None:

        def fits():
            for prof in profs:
                if prof.t <= 0:
                    continue
                cut = prof if prof.values.ndim == 1 else classical.axis_profile(prof, axis=0)
                expo, amp = classical.tail_fit(cut, (run.fit_j_min, run.fit_j_max))
                yield format_float(prof.t), format_float(expo), format_float(amp)

        col.csv("tail_fits.csv", run.tag, "t,exponent,amplitude", fits())


def _run_classical_moments(config: ExperimentConfig, col: _Collector):
    p = config.model
    profs = _classical_trajectory(config, _time_grid(config))

    def rows():
        for prof in profs:
            mean, var = classical.moments(prof)
            yield (format_float(prof.t), *map(format_float, mean), format_float(var))

    header = "t," + ",".join(f"mean{k + 1}" for k in range(p.d)) + ",variance"
    col.csv("moments.csv", config.run.tag, header, rows())


def _run_manybody_relax(config: ExperimentConfig, col: _Collector):
    # compute and fit everything first: a solver or fit failure then writes nothing
    p = config.model
    run = config.run
    times = _time_grid(config)
    sizes = run.n_list or [p.N]
    modes = {N: manybody.OddSector(replace(p, N=N)) for N in dict.fromkeys([*sizes, p.N])}  # one eigh per size
    # each size's chi^2 on its slowest-mode grid, unless times are set without an n_list
    grids = times is None or run.n_list is not None
    series = [modes[N].relaxation_series() for N in sizes] if grids else []
    # occupation profile for the configured N at the requested times, else at 8 points of its own grid
    ts_occ = times if times is not None else modes[p.N].relaxation_series()[0][::45]
    lin = modes[p.N].occupations(ts_occ)
    series = series or [(times, manybody.chi_squared_series(lin))]
    fit = manybody.relaxation_fit(series, sizes, p.alpha) if len(sizes) >= 4 else None
    wall = manybody.domain_wall_config(p.N)
    ens = manybody.kmc_simulate(wall, p, ts_occ, run.trajectories, run.seed) if run.trajectories > 0 else None
    for N, (ts, chi) in zip(sizes, series):
        rows = ((format_float(t), format_float(c)) for t, c in zip(ts, chi))
        col.csv(f"chi_N{N}.csv", run.tag, "t,chi2_over_N", rows)
    labels = [str(j) for j in manybody.site_labels(p.N)]
    rows = (
        (t, j, format_float(n))
        for t, occ in zip(map(format_float, ts_occ), lin)
        for j, n in zip(labels, occ.tolist())
    )
    col.csv("occupation.csv", run.tag, "t,j,n", rows)
    if fit is not None:
        col.text("relaxation.txt", run.tag, manybody.relaxation_summary(fit, p.alpha).splitlines())
    if ens is not None:
        rows = (
            (t, j, format_float(m), format_float(e))
            for t, mean, err in zip(map(format_float, ens.times), ens.mean, ens.stderr)
            for j, m, e in zip(labels, mean.tolist(), err.tolist())
        )
        col.csv("kmc.csv", run.tag, "t,j,n_mean,n_stderr", rows)
        lines = [
            "max_abs_deviation = " + format_float(float(np.max(np.abs(ens.mean - lin)))),
            "max_deviation_over_stderr = " + format_float(float(np.max(manybody.duality_zscore(ens, lin)))),
        ]
        col.text("duality_check.txt", run.tag, lines)


def _run_spectrum(config: ExperimentConfig, col: _Collector):
    p = config.model
    run = config.run
    sizes = run.n_list or [p.N]
    gaps_r, gaps_c, pert_min = [], [], []
    for N in sizes:
        summary = quantum.slow_modes(replace(p, N=N))
        gaps_r.append(summary.real_gap)
        gaps_c.append(summary.complex_gap)
        pert_min.append(summary.perturbative_min_re)
        rows = quantum.spectrum_rows(summary.sets)
        col.csv(f"spectrum_N{N}.csv", run.tag, quantum.SPECTRUM_CSV_HEADER, rows)
    lines = [
        "sizes = " + ", ".join(str(n) for n in sizes),
        "real_branch_gaps = " + ", ".join(format_float(g) for g in gaps_r),
        "complex_branch_gaps = " + ", ".join(format_float(g) for g in gaps_c),
        "perturbative_min_re = " + ", ".join(format_float(g) for g in pert_min),
    ]
    if len(sizes) >= 2:
        slope, _ = classical.fit_power_law(sizes, gaps_r)
        lines.append("real_branch_exponent = " + format_float(slope))
    col.text("spectrum_summary.txt", run.tag, lines)


def _run_analytic_report(config: ExperimentConfig, col: _Collector):
    p = config.model
    rows = []
    report = []
    for d in (1, 2, 3):
        acr = analytic.critical_alpha(d)
        report.append(f"d = {d}: alpha_cr = {acr}, forster_ratio = {analytic.forster_ratio(d):.6f}")
        for alpha in (0.75, 1.0, 1.25, 1.75, 2.0, 2.5, 3.0, 4.0):
            if alpha <= d / 2.0:
                continue
            pd = replace(p, d=d, alpha=alpha, N=p.N, bc="periodic")
            co = analytic.coefficients(pd)
            rows.append(
                (
                    str(d),
                    format_float(alpha),
                    format_float(co.alpha_cr),
                    co.regime,
                    format_float(co.D_alpha) if co.D_alpha is not None else "",
                    format_float(co.C_alpha) if co.C_alpha is not None else "",
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
    col.csv("coefficients.csv", config.run.tag, "d,alpha,alpha_cr,regime,D_alpha,C_alpha", rows)
    col.text("report.txt", config.run.tag, report)


class _Kind(NamedTuple):
    """What the CLI knows about one experiment kind."""

    runner: Callable[[ExperimentConfig, _Collector], None]
    chain_bcs: tuple[str, ...]  # the d = 1 bcs its solvers cover; empty: any lattice
    propagates: bool  # runs on the output-time grid, so reads method and needs a grid
    horizon: Callable[[ModelParams], float] | None  # t_max when neither times nor t_max is set


_KINDS = {
    "quantum-variance": _Kind(_run_quantum_variance, ("periodic", "open"), True, lambda p: 10.0 / p.gamma * 10.0),
    "classical-profile": _Kind(_run_classical_profile, (), True, None),
    "classical-moments": _Kind(_run_classical_moments, (), True, lambda p: 5.0 / p.kappa),
    "manybody-relax": _Kind(_run_manybody_relax, ("open",), False, None),
    "spectrum": _Kind(_run_spectrum, ("periodic",), False, None),
    "analytic-report": _Kind(_run_analytic_report, (), False, None),
}


def _execute(configs: list[ExperimentConfig], echo: dict) -> Path:
    out_dir = Path(configs[0].run.out_dir)
    if any(Path(c.run.out_dir) != out_dir for c in configs):
        raise ConfigError("preset members must share one output directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    col = _Collector(out_dir, echo)
    for c in configs:
        _KINDS[c.kind].runner(c, col)
    return col.write_manifest()


def run(config: ExperimentConfig) -> Path:
    """Execute one experiment; returns the manifest path."""
    return _execute([config], _config_echo(config))


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
        for a in (1.0, 1.5, 2.0, 3.0)
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


# command-line flag (argparse dest) -> ModelParams field, and -> RunOptions field
_MODEL_FLAGS = {"alpha": "alpha", "gamma": "gamma", "N": "N", "dim": "d", "bc": "bc"}
_RUN_FLAGS = {"out": "out_dir", "seed": "seed", "t_max": "t_max", "trajectories": "trajectories"}


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    def given(flags):
        return {name: getattr(args, flag) for flag, name in flags.items() if getattr(args, flag) is not None}

    try:
        model = replace(config.model, **given(_MODEL_FLAGS))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    run_kw = given(_RUN_FLAGS)
    if args.t_max is not None:
        run_kw["times"] = None
    return ExperimentConfig(config.kind, model, replace(config.run, **run_kw))


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
    # a preset of several members writes one directory, its manifest echoing each member
    echo = _config_echo(configs[0]) if len(configs) == 1 else {"preset_members": [_config_echo(c) for c in configs]}
    try:
        manifest = _execute(configs, echo)
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
