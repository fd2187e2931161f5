"""The artifact runner and comparator of tools/artifacts.py on hand-made trees, and the benchmark tracer against src/."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("artifacts", Path(__file__).parents[1] / "tools" / "artifacts.py")
artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifacts)


def make_tree(root: Path, files: dict, created: str) -> Path:
    """One run directory ``root/run`` holding ``files`` and their manifest."""
    run = root / "run"
    run.mkdir(parents=True)
    entries = []
    for name, text in files.items():
        (run / name).write_text(text)
        entries.append({"name": name, "schema_version": "1", "sha256": hashlib.sha256(text.encode()).hexdigest()})
    manifest = {
        "artifacts": entries,
        "config": {"kind": "spectrum", "run": {"out": str(run), "tag": "a10"}},
        "created": created,
    }
    (run / "manifest.json").write_text(json.dumps(manifest))
    return root


FILES = {"chi.csv": "t,chi2\n0.0,5.0e-01\n1.5,2.0e-01\n", "summary.txt": "beta = 2.0\nsizes = 51, 101\n"}


def test_identical_trees_ignore_created_and_output_paths(tmp_path):
    a = make_tree(tmp_path / "a", FILES, "2026-01-01T00:00:00")
    b = make_tree(tmp_path / "b", FILES, "2026-02-02T00:00:00")
    assert artifacts.compare_trees(a, b) == []


def test_numeric_difference_is_reported_per_file(tmp_path):
    a = make_tree(tmp_path / "a", FILES, "x")
    b = make_tree(tmp_path / "b", {**FILES, "chi.csv": "t,chi2\n0.0,5.0e-01\n1.5,2.0000000000000004e-01\n"}, "x")
    (line,) = artifacts.compare_trees(a, b)
    assert line.startswith("run/chi.csv: max abs 2.776e-17, max rel 1.388e-16")


@pytest.mark.parametrize(
    "changed",
    [{"summary.txt": "beta = 2.0\nsizes = 51, 201\nextra = 1\n"}, {"summary.txt": "gamma = 2.0\nsizes = 51, 101\n"}],
    ids=["line-count", "key"],
)
def test_layout_change_is_reported(tmp_path, changed):
    a = make_tree(tmp_path / "a", FILES, "x")
    b = make_tree(tmp_path / "b", {**FILES, **changed}, "x")
    assert artifacts.compare_trees(a, b) == ["run/summary.txt: layout differs"]


def test_artifact_list_and_config_changes_are_reported(tmp_path):
    a = make_tree(tmp_path / "a", FILES, "x")
    b = make_tree(tmp_path / "b", {"chi.csv": FILES["chi.csv"]}, "x")
    manifest = json.loads((b / "run" / "manifest.json").read_text())
    manifest["config"]["run"]["tag"] = "a20"
    (b / "run" / "manifest.json").write_text(json.dumps(manifest))
    assert artifacts.compare_trees(a, b) == [
        "run: config echoes differ",
        "run: artifact lists differ: ['summary.txt']",
    ]


STUB_DEMO = """\
from pathlib import Path

OUT = Path(__file__).with_suffix("")
OUT.mkdir(exist_ok=True)
(OUT / "table.csv").write_text("x,y\\n1,{value}\\n")
"""


def test_demos_run_from_copies_and_get_manifests(tmp_path):
    for side, value in (("a", "2.0"), ("b", "2.5")):
        src = tmp_path / f"src-{side}"
        (src / "demos").mkdir(parents=True)
        (src / "demos" / "stub.py").write_text(STUB_DEMO.format(value=value))
        artifacts.run_demos(src, tmp_path / f"out-{side}")
        assert not (src / "demos" / "stub").exists()  # the copy ran, not the script
    run = tmp_path / "out-a" / "demo-stub"
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["config"] == {"demo": "stub"}
    (entry,) = manifest["artifacts"]
    assert entry["name"] == "stub/table.csv"
    assert entry["sha256"] == hashlib.sha256((run / "stub" / "table.csv").read_bytes()).hexdigest()
    assert artifacts.compare_trees(tmp_path / "out-a", tmp_path / "out-a") == []
    assert artifacts.compare_trees(tmp_path / "out-a", tmp_path / "out-b") == [
        "demo-stub/stub/table.csv: max abs 5.000e-01, max rel 2.000e-01"
    ]


def test_demos_run_with_relative_paths(tmp_path, monkeypatch):
    # the demo runs with its own folder as working directory, so a relative
    # OUT must not be read a second time from there
    (tmp_path / "src" / "demos").mkdir(parents=True)
    (tmp_path / "src" / "demos" / "stub.py").write_text(STUB_DEMO.format(value="2.0"))
    monkeypatch.chdir(tmp_path)
    artifacts.run_demos(Path("src"), Path("art-x"))
    (entry,) = json.loads((tmp_path / "art-x" / "demo-stub" / "manifest.json").read_text())["artifacts"]
    assert entry["name"] == "stub/table.csv"
    assert (tmp_path / "art-x" / "demo-stub" / "stub" / "table.csv").read_text() == "x,y\n1,2.0\n"


def test_benchmark_tracer_installs_and_uninstalls_against_src():
    # perfbench's tracer refuses to install when a public name it spans is gone;
    # this makes such a deletion fail here, not only in the benchmark's traced pass
    root = Path(__file__).resolve().parents[1]
    code = (
        "import levyexciton.analytic as analytic\n"
        "from tracer import Tracer\n"
        "plain = analytic.coefficients\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "assert analytic.coefficients is not plain and tracer._patches\n"
        "tracer.uninstall()\n"
        "assert analytic.coefficients is plain and not tracer._patches\n"
    )
    path = os.pathsep.join(filter(None, [str(root / "perfbench"), str(root / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_benchmark_smoke_tests_pass_against_src():
    # perfbench's own tests run its tracer and workloads on tiny inputs; they read
    # SpectralSet fields and solver entry points that src/ may change
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"],
        cwd=root, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-2000:]
