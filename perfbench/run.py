"""levyexciton benchmark: time-to-result per workload, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Closed loop, one unit at a time: each pass runs every unit of the workload
once in a fresh interpreter (``passrun.py``), so no in-process cache survives
from one pass to the next, exactly as for a CLI user. Passes repeat until
``--seconds`` is used up. BLAS runs single-threaded.

The first pass is traced and its timings are discarded; it supplies the
work counts recorded with the environment. ``--trace 0`` then runs untraced
passes and reports the end-to-end metrics as medians over them.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (medians over the traced passes after the first) plus the
tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import WORK_COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
BLAS_THREADS = 1  # no more than nproc; one thread keeps small dense solves steady on a shared box
RUN_BUDGET_S = 150.0  # hard stop for one workload's passes, under the 180 s limit


class PassError(RuntimeError):
    """A pass process crashed, timed out or printed no result."""


def _child_env() -> dict:
    env = dict(os.environ)
    # fixed string hashing: passes repeat the same allocation pattern, which
    # keeps peak RSS from jumping between runs
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn_pass(workload: str, seed: int, traced: bool, timeout: float, scale: str = "full") -> dict:
    workdir = WORK / f"pass-{os.getpid()}-{workload}"
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    cmd += ["--scale", scale] + (["--trace"] if traced else [])
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{workload} pass exceeded {timeout:.0f} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["process_s"] = time.perf_counter() - started
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> list[dict]:
    """Run passes until ``seconds`` is spent; at least one untraced (and with
    ``trace`` one more traced) pass after the traced warm-up pass."""
    start = time.perf_counter()
    passes: list[dict] = []
    while True:
        traced = not passes or (trace and len(passes) % 2 == 0)
        remaining = RUN_BUDGET_S - (time.perf_counter() - start)
        if remaining <= 0:
            raise PassError(f"{workload}: passes did not finish within {RUN_BUDGET_S:.0f} s")
        passes.append(spawn_pass(workload, seed, traced, remaining, scale))
        untraced = sum(not p["traced"] for p in passes)
        enough = untraced >= 1 and (not trace or len(passes) - untraced >= 2)
        elapsed = time.perf_counter() - start
        if enough and elapsed + passes[-1]["process_s"] > seconds:
            return passes


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measured(passes: list[dict], trace: bool) -> list[dict]:
    """The passes the metrics come from: the untraced ones, or the traced ones
    after the warm-up pass."""
    if not trace:
        return [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    return traced[1:] or traced


def load_spec() -> dict:
    """Workload names and metric units, from BENCHMARK.json at the checkout root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(passes: list[dict], trace: bool, spec: dict) -> tuple[dict, dict]:
    """-> (metrics for the result line, details for the human-readable report)."""
    sampled = measured(passes, trace)
    details: dict[str, tuple] = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        if name == "trace.overhead_ratio":
            untraced = measured(passes, False)
            value = statistics.median(p["wall_s"] for p in sampled) / statistics.median(p["wall_s"] for p in untraced)
            details[name] = (value, value, value, len(sampled), unit)
        else:
            details[name] = (*quartiles([p["layer"][name] if trace else p[name] for p in sampled]), len(sampled), unit)
    metrics = {name: {"value": d[1], "unit": d[4]} for name, d in details.items()}
    return metrics, details


def work_counts(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    counts = {name: traced[0]["layer"][name] for name in WORK_COUNTS}
    counts["repeat_exactly"] = all(p["layer"][n] == counts[n] for p in traced for n in WORK_COUNTS)
    return counts


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "levyexciton").glob("*.py")))


def report(workload: str, seed: int, trace: bool, passes: list[dict], spec: dict) -> dict:
    attempted = sum(len(p["units"]) for p in passes)
    failed = sum(not u["ok"] for p in passes for u in p["units"])
    metrics, details = summarize(passes, trace, spec)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "env": passes[0]["env"] | {"nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(), "src_lines": src_lines()},
        "work_counts": work_counts(passes),
        "fail_frac": failed / attempted,
    }
    print("# record " + json.dumps(record))
    for p in passes:
        for u in p["units"]:
            if not u["ok"]:
                print(f"# FAILED {workload}/{u['unit']}: {u['error']}")
    sampled = measured(passes, trace)
    if trace:
        shares = {k: statistics.median(p["shares"].get(k, 0.0) for p in sampled) for k in sampled[0]["shares"]}
        print(f"# {workload} self-time share of traced wall: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    for name, (q1, med, q3, n, unit) in details.items():
        print(f"# {workload} {name} = {med:.6g} {unit} (median; quartiles {q1:.6g} .. {q3:.6g}; n = {n})")
    for k, u in enumerate(passes[0]["units"]):
        unit_wall = statistics.median(p["units"][k]["wall_s"] for p in sampled)
        print(f"# {workload} unit {u['unit']} wall_s = {unit_wall:.6g} s (median, n = {len(sampled)})")
    print(f"# {workload} fail_frac = {failed}/{attempted} = {failed / attempted:.4g}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="levyexciton benchmark")
    ap.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "levyexciton" / "__init__.py").is_file():
        print(f"levyexciton sources not found under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads + ["all"]:
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}, all")
    WORK.mkdir(exist_ok=True)
    for workload in workloads if args.workload == "all" else (args.workload,):
        try:
            passes = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except PassError as exc:
            print(f"benchmark aborted: {exc}", file=sys.stderr)
            return 1
        result = report(workload, args.seed, bool(args.trace), passes, spec)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
