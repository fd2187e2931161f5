import hashlib
import json
import math
import tempfile
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from levyexciton import manybody
from levyexciton.classical import cme_spectral_solve
from levyexciton.cli import (
    _KINDS,
    ConfigError,
    ExperimentConfig,
    RunOptions,
    figure_presets,
    load_config,
    main,
    run,
)
from levyexciton.model import ModelParams, sum_r2_hopping_sq


CONFIG_TEXT = """\
[experiment]
kind = classical-profile

[model]
d = 1
alpha = 1.0
J = 1.0
gamma = 10.0
N = 128
bc = periodic

[run]
times = 2.5, 5.0
out = {out}
fit_j_min = 8
fit_j_max = 40
"""


def write_config(tmp_path, text=None, **kw):
    cfg = tmp_path / "exp.ini"
    cfg.write_text((text or CONFIG_TEXT).format(out=tmp_path / "out", **kw))
    return cfg


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.kind == "classical-profile"
        assert cfg.model == ModelParams(d=1, alpha=1.0, J=1.0, gamma=10.0, N=128, bc="periodic")
        assert cfg.run.times == [2.5, 5.0]
        assert cfg.run.fit_j_min == 8

    def test_unknown_run_key_rejected(self, tmp_path):
        bad = CONFIG_TEXT + "typo_key = 3\n"
        with pytest.raises(ConfigError, match="unknown run keys"):
            load_config(write_config(tmp_path, text=bad))

    def test_unknown_model_key_rejected(self, tmp_path):
        bad = CONFIG_TEXT.replace("bc = periodic", "bc = periodic\nxx = 1")
        with pytest.raises(ConfigError, match="unknown model keys"):
            load_config(write_config(tmp_path, text=bad))

    def test_unknown_section_rejected(self, tmp_path):
        bad = CONFIG_TEXT + "\n[extra]\na = 1\n"
        with pytest.raises(ConfigError, match="unknown config sections"):
            load_config(write_config(tmp_path, text=bad))

    def test_unknown_kind_rejected(self, tmp_path):
        bad = CONFIG_TEXT.replace("classical-profile", "mystery")
        with pytest.raises(ConfigError, match="unknown experiment kind"):
            load_config(write_config(tmp_path, text=bad))

    def test_readme_example_config_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        path = tmp_path / "readme.ini"
        path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        cfg = load_config(path)
        assert cfg.kind == "classical-profile"
        assert cfg.model.N == 1000
        assert cfg.run.times == [5.0, 15.0]
        assert (cfg.run.fit_j_min, cfg.run.fit_j_max) == (20, 250)


class TestRun:
    def test_classical_profile_artifacts(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        manifest_path = run(cfg)
        out = tmp_path / "out"
        assert (out / "profile.csv").exists()
        assert (out / "tail_fits.csv").exists()
        manifest = json.loads(manifest_path.read_text())
        names = {e["name"] for e in manifest["artifacts"]}
        assert {"profile.csv", "tail_fits.csv"} <= names
        for entry in manifest["artifacts"]:
            assert entry["schema_version"] == "1"
            assert len(entry["sha256"]) == 64
        assert manifest["config"]["model"]["N"] == "128"
        echo = manifest["config"]["run"]
        assert set(echo) == {
            "times", "t_max", "n_times", "trajectories", "seed", "out", "n_list",
            "fit_j_min", "fit_j_max", "normalize", "excitation", "method", "tag",
        }
        assert echo["out"] == str(tmp_path / "out")
        assert echo["times"] == [2.5, 5.0] and echo["n_times"] == 101

    def test_profile_csv_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        run(cfg)
        raw = (tmp_path / "out" / "profile.csv").read_text().strip().splitlines()
        assert raw[0] == "t,j1,n"
        assert len(raw) == 1 + 2 * 128
        # loss-free float round trip at 17 significant digits
        t0, _, n0 = raw[1].split(",")
        assert float(t0) == 2.5
        assert float(n0) == cme_spectral_solve(cfg.model, 2.5).values[0]

    def test_profile_csv_parses_and_conserves(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        run(cfg)
        rows = (tmp_path / "out" / "profile.csv").read_text().strip().splitlines()
        assert rows[0] == "t,j1,n"
        data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
        for t in np.unique(data[:, 0]):
            mass = data[data[:, 0] == t, 2].sum()
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_rerun_byte_identical(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        run(cfg)
        body1 = (tmp_path / "out" / "profile.csv").read_bytes()
        run(cfg)
        body2 = (tmp_path / "out" / "profile.csv").read_bytes()
        assert body1 == body2

    def test_analytic_report(self, tmp_path):
        cfg = ExperimentConfig(
            "analytic-report",
            ModelParams(d=1, alpha=2.0, J=1.0, gamma=10.0, N=64),
            RunOptions(out_dir=str(tmp_path)),
        )
        run(cfg)
        report = (tmp_path / "report.txt").read_text()
        assert "alpha_cr = 1.5" in report
        assert "forster_ratio" in report
        rows = (tmp_path / "coefficients.csv").read_text().strip().splitlines()
        assert rows[0] == "d,alpha,alpha_cr,regime,D_alpha,C_alpha"
        assert len(rows) > 10

    def test_quantum_variance_columns(self, tmp_path):
        cfg = ExperimentConfig(
            "quantum-variance",
            ModelParams(d=1, alpha=3.0, J=1.0, gamma=10.0, N=15, bc="open"),
            RunOptions(t_max=0.5, n_times=6, out_dir=str(tmp_path)),
        )
        run(cfg)
        rows = (tmp_path / "variance.csv").read_text().strip().splitlines()
        assert rows[0] == "t,qme,eq3,classical"
        assert len(rows) == 7

    def test_manybody_relax_with_kmc(self, tmp_path):
        cfg = ExperimentConfig(
            "manybody-relax",
            ModelParams(d=1, alpha=2.0, J=1.0, gamma=2.0, N=16, bc="open"),
            RunOptions(times=[0.3], trajectories=50, seed=7, out_dir=str(tmp_path)),
        )
        run(cfg)
        for name in ("occupation.csv", "chi_N16.csv", "kmc.csv", "duality_check.txt"):
            assert (tmp_path / name).exists()
        kmc_rows = (tmp_path / "kmc.csv").read_text().strip().splitlines()
        assert kmc_rows[0] == "t,j,n_mean,n_stderr"

    def test_duality_check_ratio_is_order_one(self, tmp_path):
        # the deviation is scaled by the dual prediction's Bernoulli stderr,
        # so sites where every trajectory agrees no longer divide by zero
        cfg = ExperimentConfig(
            "manybody-relax",
            ModelParams(d=1, alpha=2.0, J=1.0, gamma=2.0, N=16, bc="open"),
            RunOptions(times=[0.3, 1.0], trajectories=200, seed=7, out_dir=str(tmp_path)),
        )
        run(cfg)
        lines = (tmp_path / "duality_check.txt").read_text().splitlines()
        stats = dict(line.split(" = ") for line in lines)
        ratio = float(stats["max_deviation_over_stderr"])
        assert 0.5 < ratio < 6.0

    def test_duality_check_ratio_is_finite_with_t0(self, tmp_path):
        # at t = 0 the dual prediction is the wall itself, exactly 0 or 1
        cfg = ExperimentConfig(
            "manybody-relax",
            ModelParams(d=1, alpha=2.0, J=1.0, gamma=2.0, N=64, bc="open"),
            RunOptions(times=[0.0, 0.5], trajectories=50, seed=3, out_dir=str(tmp_path)),
        )
        run(cfg)
        lines = (tmp_path / "duality_check.txt").read_text().splitlines()
        assert float(dict(line.split(" = ") for line in lines)["max_deviation_over_stderr"]) < 6.0

    def test_critical_relaxation_exit_0(self, tmp_path):
        # fig2b at alpha_cr = 3/2: the grid comes from each size's slowest mode,
        # so the fit window holds enough points at every N
        cfg = ExperimentConfig(
            "manybody-relax",
            ModelParams(d=1, alpha=1.5, J=1.0, gamma=2.0, N=100, bc="open"),
            RunOptions(n_list=[100, 200, 400, 800], out_dir=str(tmp_path)),
        )
        run(cfg)
        fit = dict(line.split(" = ") for line in (tmp_path / "relaxation.txt").read_text().splitlines())
        assert fit["critical_log_model"] == "True"
        assert float(fit["beta"]) == 2.0
        assert float(fit["b_alpha"]) == pytest.approx(cfg.model.kappa, rel=0.1)

    def test_occupation_profile_on_its_own_grid(self, tmp_path):
        # fig2b's shape: the N = 100 profile is sampled on N = 100's own
        # relaxation grid, not on the last n_list size's, where it is flat
        p = ModelParams(d=1, alpha=1.5, J=1.0, gamma=2.0, N=100, bc="open")
        run(ExperimentConfig("manybody-relax", p, RunOptions(n_list=[100, 200, 400, 800], out_dir=str(tmp_path))))
        rows = np.loadtxt(tmp_path / "occupation.csv", delimiter=",", skiprows=1)
        assert rows[:, 0].max() <= 18.0 * manybody.OddSector(p).tau
        assert np.any(rows[rows[:, 0] > 0, 2] != 0.5)

    def test_one_eigh_per_size(self, tmp_path, monkeypatch):
        # the grid, the chi^2 series and the configured N's profile read one
        # diagonalization of each size's odd-sector block
        eigh, sizes = np.linalg.eigh, []

        def counting(a):
            sizes.append(len(a))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        for times, n_list in (([0.5], None), (None, [20, 40, 60, 80]), ([0.5, 2.0], [20, 40, 60, 80])):
            sizes.clear()
            cfg = ExperimentConfig(
                "manybody-relax",
                ModelParams(d=1, alpha=2.0, J=1.0, gamma=2.0, N=40, bc="open"),
                RunOptions(times=times, n_list=n_list, out_dir=str(tmp_path)),
            )
            run(cfg)
            assert sorted(sizes) == [N // 2 for N in (n_list or [40])]

    def test_classical_moments_kind(self, tmp_path):
        cfg = ExperimentConfig(
            "classical-moments",
            ModelParams(d=1, alpha=3.0, J=1.0, gamma=10.0, N=201),
            RunOptions(t_max=5.0, n_times=6, out_dir=str(tmp_path)),
        )
        run(cfg)
        rows = (tmp_path / "moments.csv").read_text().strip().splitlines()
        assert rows[0] == "t,mean1,variance"
        data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
        # variance grows linearly after the delta start (t = 0 is the
        # transformed delta, zero up to FFT rounding)
        assert abs(data[0, 2]) < 1e-10
        assert np.all(np.diff(data[:, 2]) > 0)

    def test_spectrum_kind(self, tmp_path):
        cfg = ExperimentConfig(
            "spectrum",
            ModelParams(d=1, alpha=2.0, J=1.0, gamma=0.1, N=15, bc="periodic"),
            RunOptions(out_dir=str(tmp_path)),
        )
        run(cfg)
        rows = (tmp_path / "spectrum_N15.csv").read_text().strip().splitlines()
        assert rows[0] == "q_index,k_index,re_E,im_E,branch"
        assert len(rows) == 1 + 15 * 15
        summary = (tmp_path / "spectrum_summary.txt").read_text()
        assert "perturbative_min_re" in summary

    def test_spectrum_complete_with_degenerate_perturbative_blocks(self, tmp_path):
        # at N = 301 some blocks have near-degenerate levels, which void the
        # second-order series; the exact spectrum stays complete and the
        # first-order perturbative minimum needs no level gaps
        from levyexciton import quantum

        p = ModelParams(d=1, alpha=2.0, J=1.0, gamma=0.1, N=301, bc="periodic")
        with pytest.raises(quantum.DegenerateSpectrumError):
            quantum.perturbative_spectrum(129, p, order=2)
        run(ExperimentConfig("spectrum", p, RunOptions(out_dir=str(tmp_path), n_list=[301])))
        rows = (tmp_path / "spectrum_N301.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 301 * 301
        summary = dict(
            line.split(" = ") for line in (tmp_path / "spectrum_summary.txt").read_text().splitlines()
        )
        assert 0.0 < float(summary["perturbative_min_re"]) < math.inf


# one tiny run per experiment kind; the tags check the artifact naming
TINY_RUNS = {
    "quantum-variance": (
        ModelParams(d=1, alpha=3.0, J=1.0, gamma=10.0, N=9, bc="open"),
        RunOptions(t_max=0.5, n_times=4, n_list=[7, 9], tag="q"),
    ),
    "classical-profile": (
        ModelParams(d=2, alpha=1.5, J=1.0, gamma=10.0, N=8, bc="open"),
        RunOptions(times=[0.0, 0.5], excitation="edge", fit_j_min=1, fit_j_max=7),
    ),
    "classical-moments": (
        ModelParams(d=1, alpha=2.0, J=1.0, gamma=10.0, N=32),
        RunOptions(t_max=1.0, n_times=4),
    ),
    "manybody-relax": (
        ModelParams(d=1, alpha=2.0, J=1.0, gamma=2.0, N=10, bc="open"),
        RunOptions(times=[0.3], n_list=[8, 10, 12, 14], trajectories=20, seed=3, tag="m"),
    ),
    "spectrum": (
        ModelParams(d=1, alpha=2.0, J=1.0, gamma=0.1, N=7),
        RunOptions(n_list=[5, 7]),
    ),
    "analytic-report": (
        ModelParams(d=1, alpha=2.0, J=1.0, gamma=10.0, N=64),
        RunOptions(tag="r"),
    ),
}


def test_manifest_with_numpy_sizes(tmp_path):
    # sizes taken from a numpy array are echoed as plain JSON numbers
    cfg = ExperimentConfig(
        "quantum-variance",
        ModelParams(d=1, alpha=3.0, J=1.0, gamma=10.0, N=np.int64(11), bc="open"),
        RunOptions(t_max=0.5, n_times=4, n_list=list(np.array([7, 11])), out_dir=str(tmp_path)),
    )
    manifest = json.loads(run(cfg).read_text())
    assert manifest["config"]["run"]["n_list"] == [7, 11]
    assert manifest["config"]["model"]["N"] == "11"


@pytest.mark.parametrize("kind", sorted(TINY_RUNS))
def test_manifest_lists_exactly_the_written_files(tmp_path, kind):
    model, opts = TINY_RUNS[kind]
    opts = replace(opts, out_dir=str(tmp_path))
    manifest = json.loads(run(ExperimentConfig(kind, model, opts)).read_text())
    listed = {e["name"]: e["sha256"] for e in manifest["artifacts"]}
    on_disk = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
    assert set(listed) == on_disk
    assert len(listed) == len(manifest["artifacts"])
    for name, digest in listed.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
    if opts.tag:
        assert all(name.partition(".")[0].endswith("_" + opts.tag) for name in listed)


class TestMain:
    def test_exit_codes(self, tmp_path):
        assert main(["--list-presets"]) == 0
        assert main([]) == 2  # neither config nor preset
        assert main(["--preset", "nope", "--out", str(tmp_path)]) == 2
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg)]) == 0

    SMALL_CHAINS = (
        CONFIG_TEXT.replace("classical-profile", "manybody-relax")
        .replace("N = 128\nbc = periodic", "N = 8\nbc = open")
        .replace("out = {out}", "out = {out}\nn_list = 2, 4, 6, 8")
    )

    def test_solver_error_exit_3(self, tmp_path, monkeypatch):
        # a relaxation fit that refuses its data is a solver failure
        def refuse(series, Ns, alpha):
            raise manybody.FitWindowError("only 4 points inside the chi^2 window")

        monkeypatch.setattr(manybody, "relaxation_fit", refuse)
        cfg = write_config(tmp_path, text=self.SMALL_CHAINS)
        assert main(["--config", str(cfg)]) == 3
        # the fit runs before any artifact is written, so the failed run leaves none
        assert not list((tmp_path / "out").glob("*"))

    def test_two_site_chain_relaxes_exit_0(self, tmp_path):
        # each size's grid spans 18 slowest-mode times, so even the two-site
        # chain's chi^2 = e^{-4 kappa t} / 2 fills the fit window
        assert main(["--config", str(write_config(tmp_path, text=self.SMALL_CHAINS))]) == 0
        fit = dict(line.split(" = ") for line in (tmp_path / "out" / "relaxation.txt").read_text().splitlines())
        tau2 = float(fit["tau_list"].split(", ")[0])
        assert tau2 == pytest.approx(1 / (4 * 0.2), rel=1e-9)  # kappa = 2 J^2 / gamma = 0.2

    @pytest.mark.parametrize(
        "flags",
        [["--gamma", "nan"], ["--gamma", "0"], ["--gamma", "-1"], ["--alpha", "inf"], ["--alpha", "-1"]],
    )
    def test_bad_parameter_overrides_exit_2(self, tmp_path, flags, capsys):
        assert main(["--preset", "fig1b", "--out", str(tmp_path), *flags]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("line", ["gamma = nan", "gamma = 0", "gamma = -2.0", "J = inf", "J = 0.0", "N = 2.5"])
    def test_bad_parameter_in_config_exit_2(self, tmp_path, line):
        key = line.split(" = ")[0]
        text = "\n".join(line if row.startswith(key + " = ") else row for row in CONFIG_TEXT.splitlines())
        assert main(["--config", str(write_config(tmp_path, text=text + "\n"))]) == 2

    @pytest.mark.parametrize(
        "kind, run_line",
        [
            ("classical-profile", "times = -1.0, 2.0"),
            ("classical-profile", "times = 1.0, 1.0"),
            ("classical-moments", "times = nan"),
            ("classical-moments", "n_times = 0"),
            ("classical-moments", "t_max = -1"),
            ("classical-moments", "n_times = abc"),
            ("classical-moments", "tag = a/b"),
        ],
    )
    def test_bad_run_values_exit_2(self, tmp_path, kind, run_line, capsys):
        text = (
            CONFIG_TEXT.replace("classical-profile", kind)
            .replace("times = 2.5, 5.0", run_line)
            .replace("N = 128\nbc = periodic", "N = 64\nbc = open")
        )
        assert main(["--config", str(write_config(tmp_path, text=text))]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "kind, lattice, sizes",
        [
            ("spectrum", "N = 11\nbc = periodic", "11, 11, 13"),
            ("quantum-variance", "N = 11\nbc = periodic", "11, 13, 11"),
            ("manybody-relax", "N = 8\nbc = open", "8, 10, 8"),
        ],
    )
    def test_repeated_size_exit_2(self, tmp_path, kind, lattice, sizes, capsys):
        # a size listed twice would be solved twice, listed twice in the
        # manifest and counted twice by the size fits
        text = (
            CONFIG_TEXT.replace("classical-profile", kind)
            .replace("N = 128\nbc = periodic", lattice)
            .replace("fit_j_min = 8\nfit_j_max = 40\n", f"n_list = {sizes}\n")
        )
        assert main(["--config", str(write_config(tmp_path, text=text))]) == 2
        assert "n_list sizes must be distinct" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kind, old, new",
        [
            ("manybody-relax", "out = {out}", "out = {out}\ntrajectories = 2\nseed = -1"),
            ("quantum-variance", "out = {out}", "out = {out}\nn_list = 0, 5"),
            ("classical-profile", "fit_j_min = 8", "fit_j_min = 30"),  # 30, 31 only
            ("classical-profile", "fit_j_min = 8", "fit_j_min = 0"),
            ("classical-profile", "times = 2.5, 5.0", "t_max = 2.0"),
        ],
        ids=["negative-seed", "size-below-2", "window-under-4-sites", "window-from-0", "profile-without-times"],
    )
    def test_run_values_a_solver_refuses_exit_2(self, tmp_path, kind, old, new, capsys):
        # caught at config time, before the run creates its output directory
        text = (
            CONFIG_TEXT.replace("classical-profile", kind)
            .replace(old, new)
            .replace("N = 128\nbc = periodic", "N = 64\nbc = open")
        )
        assert main(["--config", str(write_config(tmp_path, text=text))]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kind, bc, run_lines",
        [
            ("classical-profile", "periodic", "times = 1.0, inf"),
            ("classical-profile", "open", "times = 1.0, inf"),
            ("manybody-relax", "open", "times = 1.0, inf\ntrajectories = 4"),
            ("classical-moments", "periodic", "t_max = inf"),
        ],
        ids=["profile-ring", "profile-open", "relax-kmc", "moments-t-max"],
    )
    def test_infinite_output_time_exit_2(self, tmp_path, kind, bc, run_lines, capsys):
        # no propagator reaches t = inf (the KMC event loop would never stop)
        text = (
            CONFIG_TEXT.replace("classical-profile", kind)
            .replace("times = 2.5, 5.0", run_lines)
            .replace("N = 128\nbc = periodic", f"N = 16\nbc = {bc}")
            .replace("fit_j_min = 8\nfit_j_max = 40\n", "")
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused by the check, not by a numpy warning
            assert main(["--config", str(write_config(tmp_path, text=text))]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("drop", ["fit_j_min = 8\n", "fit_j_max = 40\n"], ids=["no-min", "no-max"])
    def test_half_tail_window_exit_2(self, tmp_path, drop, capsys):
        # a window with one bound would fit nothing and write no tail_fits.csv
        assert main(["--config", str(write_config(tmp_path, text=CONFIG_TEXT.replace(drop, "")))]) == 2
        assert "needs both fit_j_min and fit_j_max" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kind, model, run_line",
        [
            ("quantum-variance", "d = 2", ""),
            ("spectrum", "d = 2", ""),
            ("spectrum", "bc = open", ""),
            ("manybody-relax", "N = 64", ""),
            ("quantum-variance", "bc = open", "method = spectral"),
            ("classical-profile", "bc = open", "method = spectral"),
            ("classical-moments", "bc = open", "method = spectral"),
            ("manybody-relax", "bc = open\nN = 101", ""),
            ("manybody-relax", "bc = open", "n_list = 100, 101, 200, 400"),
            ("spectrum", "N = 30", ""),
            ("quantum-variance", "N = 30", "method = spectral"),
        ],
        ids=["qv-d2", "spectrum-d2", "spectrum-open", "relax-ring", "qv-spectral-open",
             "profile-spectral-open", "moments-spectral-open", "relax-odd-N", "relax-odd-size",
             "spectrum-even-N", "qv-spectral-even-N"],
    )
    def test_kind_off_its_geometry_exit_2(self, tmp_path, kind, model, run_line, capsys):
        # refused at config time, before the run creates its output directory
        rows = CONFIG_TEXT.splitlines()
        for line in model.splitlines():
            key = line.split(" = ")[0]
            rows = [line if row.startswith(key + " = ") else row for row in rows]
        text = "\n".join(rows).replace("classical-profile", kind)
        text = text.replace("out = {out}", "out = {out}\n" + run_line)
        assert main(["--config", str(write_config(tmp_path, text=text + "\n"))]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_geometry_override_exit_2(self, tmp_path, capsys):
        assert main(["--preset", "fig1b", "--out", str(tmp_path / "out"), "--dim", "2"]) == 2
        assert "quantum-variance needs d = 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_odd_size_override_on_domain_wall_preset_exit_2(self, tmp_path, capsys):
        assert main(["--preset", "fig2a", "--out", str(tmp_path / "out"), "--N", "101"]) == 2
        assert "the domain wall needs even sizes" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("preset", ["fig1c", "fig1d", "figS2"])
    def test_t_max_override_on_profile_preset_exit_2(self, tmp_path, preset, capsys):
        # --t-max clears the preset's times, and classical-profile has no horizon of its own
        assert main(["--preset", preset, "--out", str(tmp_path / "out"), "--t-max", "2.0"]) == 2
        assert "classical-profile requires explicit output times" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kind, geometry, run_line",
        [
            ("quantum-variance", "N = 64\nbc = open", ""),
            ("classical-profile", "N = 128\nbc = periodic", ""),
            ("classical-moments", "N = 128\nbc = periodic", ""),
            ("manybody-relax", "N = 64\nbc = open", "n_list = 8, 10"),
            ("spectrum", "N = 15\nbc = periodic", ""),
            ("analytic-report", "N = 128\nbc = periodic", ""),
        ],
        ids=["quantum-variance", "classical-profile", "classical-moments", "manybody-relax", "spectrum",
             "analytic-report"],
    )
    def test_zero_hopping_exit_2(self, tmp_path, kind, geometry, run_line, capsys):
        # kappa = 2 J^2/gamma = 0 leaves no time scale; refused before the run writes
        text = (
            CONFIG_TEXT.replace("classical-profile", kind)
            .replace("J = 1.0", "J = 0.0")
            .replace("N = 128\nbc = periodic", geometry)
            .replace("out = {out}", "out = {out}\n" + run_line)
        )
        assert main(["--config", str(write_config(tmp_path, text=text))]) == 2
        assert "kappa = 2 J^2/gamma must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["quantum-variance", "classical-moments"])
    @pytest.mark.parametrize("model", ["J = 1e200", "J = 1e5\ngamma = 1e-300"], ids=["J-1e200", "gamma-1e-300"])
    def test_overflowing_kappa_exit_2(self, tmp_path, kind, model, capsys):
        # J**2 overflows at J = 1e200; at J = 1e5, gamma = 1e-300 kappa is inf
        # and its horizon 5/kappa is 0; either is refused before the run writes
        text = CONFIG_TEXT.replace("classical-profile", kind).replace("times = 2.5, 5.0\n", "")  # the kind's horizon
        rows = text.replace("N = 128\nbc = periodic", "N = 16\nbc = open").splitlines()
        for line in model.splitlines():
            rows = [line if row.startswith(line.split(" = ")[0] + " = ") else row for row in rows]
        assert main(["--config", str(write_config(tmp_path, text="\n".join(rows) + "\n"))]) == 2
        assert "kappa = 2 J^2/gamma overflows" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_tail_window_follows_the_excitation(self, tmp_path):
        # sites 30..40 from a corner of a 64-site open chain hold 11 sites
        text = (
            CONFIG_TEXT.replace("fit_j_min = 8", "fit_j_min = 30\nexcitation = edge")
            .replace("N = 128\nbc = periodic", "N = 64\nbc = open")
        )
        assert load_config(write_config(tmp_path, text=text)).run.fit_j_min == 30

    def test_multi_member_preset_writes_one_manifest(self, tmp_path):
        assert main(["--preset", "figS1", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        members = manifest["config"]["preset_members"]
        assert [m["run"]["tag"] for m in members] == ["a10", "a15"]
        assert all(m["kind"] == "quantum-variance" and m["run"]["normalize"] for m in members)
        names = sorted(e["name"] for e in manifest["artifacts"])
        assert names == sorted(f"variance{n}_{tag}.csv" for tag in ("a10", "a15") for n in ("", "_N21", "_N41"))

    def test_normalize_flag_divides_by_the_hopping_moment(self, tmp_path):
        text = (
            CONFIG_TEXT.replace("classical-profile", "quantum-variance")
            .replace("alpha = 1.0", "alpha = 1.5")
            .replace("N = 128\nbc = periodic", "N = 15\nbc = open")
            .replace("fit_j_min = 8\nfit_j_max = 40\n", "")
        )
        plain = load_config(write_config(tmp_path, text=text))
        scaled = load_config(write_config(tmp_path, text=text + "normalize = yes\n"))
        assert not plain.run.normalize and scaled.run.normalize
        tables = []
        for cfg, out in ((plain, tmp_path / "plain"), (scaled, tmp_path / "scaled")):
            run(replace(cfg, run=replace(cfg.run, out_dir=str(out))))
            tables.append(np.loadtxt(out / "variance.csv", delimiter=",", skiprows=1))
        norm = sum_r2_hopping_sq(plain.model)
        assert np.array_equal(tables[1][:, 0], tables[0][:, 0])
        assert np.array_equal(tables[1][:, 1:], tables[0][:, 1:] / norm)

    def test_taylor_work_refused_exit_3(self, tmp_path, capsys):
        # a 128-site ring at J = 1e5 at alpha = 1 would need 765,304 Taylor steps to t = 5
        text = (
            CONFIG_TEXT.replace("classical-profile", "quantum-variance")
            .replace("J = 1.0", "J = 1e5")
            .replace("fit_j_min = 8\nfit_j_max = 40\n", "")
        )
        started = time.perf_counter()
        assert main(["--config", str(write_config(tmp_path, text=text))]) == 3
        assert time.perf_counter() - started < 20.0
        err = capsys.readouterr().err
        assert "solver error" in err and "Taylor steps" in err
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize(
        "text",
        ["kind = classical-profile\n", CONFIG_TEXT.replace("[model]", "kind = spectrum\n\n[model]")],
        ids=["no-section-header", "repeated-key"],
    )
    def test_unparseable_config_file_exit_2(self, tmp_path, text, capsys):
        assert main(["--config", str(write_config(tmp_path, text=text))]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out2 = tmp_path / "other"
        rc = main(["--config", str(cfg), "--out", str(out2), "--alpha", "2.0", "--N", "64"])
        assert rc == 0
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["config"]["model"]["alpha"] == "2.0"
        assert manifest["config"]["model"]["N"] == "64"


class TestPresets:
    def test_all_presets_present(self):
        names = set(figure_presets())
        assert names == {"fig1b", "fig1c", "fig1d", "fig2a", "fig2b", "figS1", "figS2", "figS3", "figS4"}

    def test_preset_parameters(self):
        presets = figure_presets()
        fig1c = presets["fig1c"][0]
        assert fig1c.model.N == 1000 and fig1c.model.gamma == 10.0 * fig1c.model.J
        # kappa t in {1, 3}
        kt = [t * fig1c.model.kappa for t in fig1c.run.times]
        assert kt == pytest.approx([1.0, 3.0])
        fig2a = presets["fig2a"][0]
        assert fig2a.model.N == 100
        assert fig2a.run.times[0] * fig2a.model.kappa == pytest.approx(0.5)
        figs3 = presets["figS3"]
        assert {c.model.alpha for c in figs3} == {1.0, 2.0, 3.0}
        assert all(c.model.gamma == 0.1 and c.model.J == 1.0 for c in figs3)
        figs2 = presets["figS2"]
        assert {c.model.d for c in figs2} == {2, 3}
        assert {c.model.N for c in figs2} == {100, 30}
        assert all(c.run.excitation == "edge" for c in figs2)

    def test_run_preset_fig1c_and_determinism(self, tmp_path):
        presets = figure_presets()
        cfg = presets["fig1c"][0]
        cfg = ExperimentConfig(cfg.kind, cfg.model, RunOptions(**{**cfg.run.__dict__, "out_dir": str(tmp_path)}))
        run(cfg)
        body1 = (tmp_path / "profile.csv").read_bytes()
        run(cfg)
        assert (tmp_path / "profile.csv").read_bytes() == body1
        fits = (tmp_path / "tail_fits.csv").read_text().strip().splitlines()
        # tail exponent near -2 at both times
        for row in fits[1:]:
            _, expo, _ = row.split(",")
            assert float(expo) == pytest.approx(-2.0, abs=0.1)


# a [model] value: a float (nan, inf, the edges of the float range and a subnormal
# among them), an int, or junk text
_FLOAT = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-320, 0.0]), st.floats())
_JUNK = st.text(alphabet="abefinx+-._ 0123456789", max_size=8)


def _model_value(*numbers):
    return st.one_of(*numbers, _FLOAT.map(repr), st.integers(-(10**6), 10**6).map(str), _JUNK)


_MODEL_VALUES = st.fixed_dictionaries(
    {
        "d": _model_value(st.integers(-1, 4).map(str)),
        "alpha": _model_value(),
        "J": _model_value(),
        "gamma": _model_value(),
        "N": _model_value(st.integers(-2, 40).map(str)),
        "bc": _model_value(st.sampled_from(["periodic", "open"])),
    }
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(model=_MODEL_VALUES, kind=st.sampled_from(sorted(_KINDS)), times=st.booleans())
@example(model=dict(d="1", alpha="2.0", J="1e200", gamma="10.0", N="16", bc="open"), kind="quantum-variance", times=True)
@example(model=dict(d="1", alpha="2.0", J="1e5", gamma="1e-300", N="16", bc="open"), kind="quantum-variance", times=False)
def test_load_config_returns_a_config_or_raises_config_error(model, kind, times):
    body = "".join(f"{key} = {value}\n" for key, value in model.items())
    text = f"[experiment]\nkind = {kind}\n\n[model]\n{body}\n[run]\n" + ("times = 0.5, 1.0\n" if times else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ini"
        path.write_text(text)
        try:
            config = load_config(path)
        except ConfigError:
            return
    assert isinstance(config, ExperimentConfig) and 0 < config.model.kappa < math.inf  # every kind's time scale
