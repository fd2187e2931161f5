import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from levyexciton.classical import cme_spectral_solve
from levyexciton.cli import (
    ConfigError,
    ExperimentConfig,
    RunOptions,
    figure_presets,
    load_config,
    main,
    run,
)
from levyexciton.model import ModelParams


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

    def test_spectrum_skips_degenerate_perturbative_blocks(self, tmp_path):
        # at N = 301 two blocks have near-degenerate levels; the exact
        # spectrum stays complete and the perturbative minimum skips them
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

    def test_solver_error_exit_3(self, tmp_path):
        # spectrum on an even ring trips the degeneracy refusal inside quantum
        text = CONFIG_TEXT.replace("classical-profile", "spectrum").replace(
            "N = 128", "N = 16"
        )
        cfg = write_config(tmp_path, text=text)
        assert main(["--config", str(cfg)]) == 3

    @pytest.mark.parametrize(
        "flags",
        [["--gamma", "nan"], ["--gamma", "0"], ["--gamma", "-1"], ["--alpha", "inf"], ["--alpha", "-1"]],
    )
    def test_bad_parameter_overrides_exit_2(self, tmp_path, flags, capsys):
        assert main(["--preset", "fig1b", "--out", str(tmp_path), *flags]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("line", ["gamma = nan", "gamma = 0", "gamma = -2.0", "J = inf", "N = 2.5"])
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
