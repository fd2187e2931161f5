"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import passrun  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_runs_and_checks_every_unit(workload, tmp_path):
    units = workloads.build(workload, 3, tmp_path / "plain", scale="tiny")
    plain = passrun.run_pass(units)
    assert [u["unit"] for u in plain["units"]] == [u.name for u in units]
    assert all(u["ok"] and u["checked"] for u in plain["units"]), plain["units"]
    assert plain["wall_s"] > 0 and plain["cpu_s"] > 0

    tracer = Tracer()
    traced = passrun.run_pass(workloads.build(workload, 3, tmp_path / "traced", scale="tiny"), tracer)
    assert all(u["ok"] for u in traced["units"]), traced["units"]
    layer = tracer.layer_metrics()
    assert set(layer) == {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_ratio"}
    assert tracer.self_times()  # spans were recorded
    assert not tracer._patches  # every patch was undone


def test_failing_unit_is_counted_and_the_pass_goes_on(tmp_path):
    units = workloads.build("closed-form", 3, tmp_path, scale="tiny")

    def boom():
        raise RuntimeError("deliberate")

    def reject(out):
        raise checks.CheckFailed("deliberate")

    units[0] = workloads.Unit(units[0].name, boom, units[0].check)
    units[1] = workloads.Unit(units[1].name, units[1].run, reject)
    outcome = passrun.run_pass(units)["units"]
    assert [u["ok"] for u in outcome] == [False, False] + [True] * (len(units) - 2)
    assert outcome[0]["error"].startswith("run: RuntimeError") and not outcome[0]["checked"]
    assert outcome[1]["error"].startswith("check: ") and outcome[1]["checked"]


def test_counting_rng_leaves_the_kmc_stream_unchanged():
    from levyexciton import manybody
    from levyexciton.model import ModelParams

    params = ModelParams(d=1, alpha=1.0, J=1.0, gamma=2.0, N=12, bc="open")
    args = (manybody.domain_wall_config(12), params, [0.5, 2.0], 5, 11)
    plain = manybody.kmc_simulate(*args)
    tracer = Tracer()
    tracer.install()
    try:
        counted = manybody.kmc_simulate(*args)
    finally:
        tracer.uninstall()
    assert np.array_equal(plain.mean, counted.mean)
    assert tracer.counts["manybody.kmc.trajectories"] == 5
    assert tracer.counts["manybody.kmc.attempts"] > 0


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert tracer.self_times() == {"a": (1, 6.0), "b": (2, 3.0), "c": (1, 1.0)}


def test_duality_check_rejects_a_biased_ensemble():
    lin = np.tile(np.linspace(0.9, 0.1, 8), (2, 1))
    assert checks.check_duality(lin.copy(), lin, 1000) == 0.0
    biased = lin.copy()
    biased[:, [0, -1]] = biased[:, [-1, 0]]  # particle number kept, profile wrong
    with pytest.raises(checks.CheckFailed):
        checks.check_duality(biased, lin, 1000)


def test_duality_check_rejects_frozen_and_slow_samplers_at_benchmark_size(tmp_path, monkeypatch):
    from levyexciton import manybody

    exact = manybody.kmc_simulate

    def frozen(config0, params, t_out, n_traj, seed):
        occ = np.tile(config0.occupations.astype(float), (len(t_out), 1))
        return manybody.EnsembleResult(np.asarray(t_out), occ, np.zeros_like(occ), n_traj, seed)

    def half_speed(config0, params, t_out, n_traj, seed):
        return exact(config0, params, np.asarray(t_out) / 2, n_traj, seed)

    units = workloads.build("exclusion-kmc", 4, tmp_path)
    for sampler, rejected in ((frozen, [u.name for u in units]), (half_speed, ["kmc-N64-a10", "kmc-N100-a10"])):
        monkeypatch.setattr(manybody, "kmc_simulate", sampler)
        for unit in (u for u in units if u.name in rejected):
            with pytest.raises(checks.CheckFailed):
                unit.check(unit.run())


def test_ring_spectrum_check_rejects_a_repeated_root(tmp_path):
    from levyexciton import quantum
    from levyexciton.model import ModelParams

    params = ModelParams(d=1, alpha=2.0, J=1.0, gamma=0.1, N=7, bc="periodic")
    sets = quantum.solve_dephasing_spectrum(params)
    path = tmp_path / "spectrum.csv"
    quantum.spectra_to_csv(sets, path)
    assert checks.check_ring_spectrum_csv(path, 7, 2.0, 1.0, 0.1) <= 1e-8
    sets[3].eigenvalues[1] = sets[3].eigenvalues[0]  # one root twice, another missed
    quantum.spectra_to_csv(sets, path)
    with pytest.raises(checks.CheckFailed):
        checks.check_ring_spectrum_csv(path, 7, 2.0, 1.0, 0.1)


def test_tracer_refuses_a_missing_public_function(monkeypatch):
    from levyexciton import quantum

    monkeypatch.delattr(quantum, "_ring_h_row")  # private copies may be folded away
    monkeypatch.delattr(quantum, "propagate_G")
    tracer = Tracer()
    with pytest.raises(AttributeError, match="propagate_G"):
        tracer.install()
    assert not tracer._patches and not tracer.active


@pytest.mark.parametrize("trace", [False, True])
def test_runner_reports_every_metric(trace, capsys):
    passes = run.run_workload("closed-form", 5, 0.0, trace, scale="tiny")
    result = run.report("closed-form", 5, trace, passes, SPEC)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == sum(len(p["units"]) for p in passes)
    out = capsys.readouterr().out
    record = json.loads(next(line for line in out.splitlines() if line.startswith("# record "))[len("# record ") :])
    assert record["work_counts"]["repeat_exactly"]
    assert record["env"]["src_lines"] > 0 and record["env"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-form", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
