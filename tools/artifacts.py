"""Run every figure preset and demo of a source tree, and compare two such output trees.

    python tools/artifacts.py run SRC OUT     # each preset of SRC/src, plus analytic-report, into OUT/<name>/,
                                              # and each script of SRC/demos into OUT/demo-<name>/
    python tools/artifacts.py compare A B     # exit 0 when every artifact is byte-identical

``run`` starts one fresh interpreter per preset and per demo with one BLAS
thread, so that two trees are measured the same way. A demo runs from a copy
in OUT/demo-<name>/, writes its files into the folder <name>/ beside that
copy, and gets a manifest listing them as <name>/<file>. ``compare`` reads
the manifests first: the artifact lists, the config echoes and the sha256 of each artifact. It
ignores the manifest's ``created`` stamp and the output paths (``out`` in the
config echo). For each artifact whose hash differs it prints the largest
absolute and relative difference over the numbers in the file; tokens that
are not numbers must match exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ANALYTIC_REPORT = """\
[experiment]
kind = analytic-report

[model]
d = 1
alpha = 1.0
J = 1.0
gamma = 10.0
N = 128
bc = periodic
"""

ONE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def run_presets(src: Path, out: Path) -> None:
    """Write OUT/<preset>/ for every preset SRC lists, and OUT/analytic-report/."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src.resolve() / "src")}
    cli = [sys.executable, "-m", "levyexciton.cli"]
    names = subprocess.run([*cli, "--list-presets"], env=env, check=True, capture_output=True, text=True)
    jobs = [(name, ["--preset", name]) for name in names.stdout.split()]
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "analytic-report.ini"
        ini.write_text(ANALYTIC_REPORT)
        jobs.append(("analytic-report", ["--config", str(ini)]))
        for name, args in jobs:
            print(name, flush=True)
            subprocess.run([*cli, *args, "--out", str(out / name)], env=env, check=True, stdout=subprocess.DEVNULL)


def run_demos(src: Path, out: Path) -> None:
    """Run each script of SRC/demos from a copy in OUT/demo-<name>/ and write its manifest there."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src.resolve() / "src")}
    for script in sorted((src / "demos").glob("*.py")):
        run = out / f"demo-{script.stem}"
        run.mkdir(parents=True, exist_ok=True)
        print(run.name, flush=True)
        shutil.copy(script, run)
        subprocess.run([sys.executable, script.name], cwd=run, env=env, check=True, stdout=subprocess.DEVNULL)
        entries = [
            {"name": str(path.relative_to(run)), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
            for path in sorted((run / script.stem).rglob("*"))
            if path.is_file()
        ]
        manifest = {"artifacts": entries, "config": {"demo": script.stem}}
        (run / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _without_out(echo):
    """The config echo with every ``out`` key dropped."""
    if isinstance(echo, dict):
        return {k: _without_out(v) for k, v in echo.items() if k != "out"}
    if isinstance(echo, list):
        return [_without_out(v) for v in echo]
    return echo


_SPLIT = re.compile(r"[,\s=]+")


def numeric_difference(a: str, b: str) -> tuple[float, float] | None:
    """(max abs, max rel) difference between two texts of the same layout.

    None when the layouts differ: another line count or token count, or a
    non-numeric token that does not match.
    """
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) != len(lines_b):
        return None
    worst_abs = worst_rel = 0.0
    for la, lb in zip(lines_a, lines_b):
        ta, tb = _SPLIT.split(la.strip()), _SPLIT.split(lb.strip())
        if len(ta) != len(tb):
            return None
        for x, y in zip(ta, tb):
            if x == y:
                continue
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                return None
            if math.isnan(fx) and math.isnan(fy):
                continue
            diff = abs(fx - fy)
            worst_abs = max(worst_abs, diff)
            worst_rel = max(worst_rel, diff / max(abs(fx), abs(fy)))
    return worst_abs, worst_rel


def compare_trees(a: Path, b: Path) -> list[str]:
    """One line per difference between the run directories under A and B."""
    report = []
    runs = sorted({p.name for p in a.iterdir() if p.is_dir()} | {p.name for p in b.iterdir() if p.is_dir()})
    for name in runs:
        ma, mb = a / name / "manifest.json", b / name / "manifest.json"
        if not (ma.exists() and mb.exists()):
            report.append(f"{name}: manifest missing on one side")
            continue
        ja, jb = json.loads(ma.read_text()), json.loads(mb.read_text())
        if _without_out(ja["config"]) != _without_out(jb["config"]):
            report.append(f"{name}: config echoes differ")
        sha_a = {e["name"]: e["sha256"] for e in ja["artifacts"]}
        sha_b = {e["name"]: e["sha256"] for e in jb["artifacts"]}
        if sorted(sha_a) != sorted(sha_b):
            report.append(f"{name}: artifact lists differ: {sorted(set(sha_a) ^ set(sha_b))}")
        for art in sorted(set(sha_a) & set(sha_b)):
            if sha_a[art] == sha_b[art]:
                continue
            diff = numeric_difference((a / name / art).read_text(), (b / name / art).read_text())
            if diff is None:
                report.append(f"{name}/{art}: layout differs")
            else:
                report.append(f"{name}/{art}: max abs {diff[0]:.3e}, max rel {diff[1]:.3e}")
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run every preset, analytic-report and demo of a source tree")
    r.add_argument("src", type=Path, help="source tree holding src/levyexciton")
    r.add_argument("out", type=Path, help="output directory, one subdirectory per run")
    c = sub.add_parser("compare", help="compare two output trees of `run`")
    c.add_argument("a", type=Path)
    c.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    if args.cmd == "run":
        run_presets(args.src, args.out)
        run_demos(args.src, args.out)
        return 0
    report = compare_trees(args.a, args.b)
    n = sum(len(json.loads(m.read_text())["artifacts"]) for m in args.a.glob("*/manifest.json"))
    print("\n".join([*report, f"{len(report)} differences over {n} artifacts"]))
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
