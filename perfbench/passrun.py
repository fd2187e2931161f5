"""One pass of one workload in a fresh interpreter.

Usage (normally started by run.py, once per pass)::

    python3 perfbench/passrun.py --workload NAME --seed N --workdir DIR [--trace]

Imports levyexciton from the checkout's ``src``, builds the workload (the
set-up time), runs every unit once, checks each output, and prints one JSON
line with the pass's timings, unit outcomes and, with ``--trace``, the
per-layer metrics. Spans of a traced pass are written to
``perfbench/_work/spans-<workload>.json`` when the pass ends.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run_pass(units, tracer=None) -> dict:
    """Run each unit, then its check; a failure is recorded and the pass goes on.

    Only ``unit.run`` is timed and traced. Returns wall and CPU seconds summed
    over the units, one outcome per unit, and the checks' diagnostics.
    """
    wall = cpu = 0.0
    outcomes = []
    diagnostics: dict[str, float] = {}
    if tracer is not None:
        tracer.install()
    try:
        for unit in units:
            error = None
            if tracer is not None:
                tracer.active = True
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                with tracer.span("unit:" + unit.name) if tracer is not None else nullcontext():
                    out = unit.run()
            except Exception as exc:  # a failing unit is counted, not fatal
                error = "run: " + "".join(traceback.format_exception_only(exc)).strip()
            unit_wall = time.perf_counter() - w0
            wall += unit_wall
            cpu += time.process_time() - c0
            if tracer is not None:
                tracer.active = False
            checked = error is None
            if checked:
                try:
                    for key, value in (unit.check(out) or {}).items():
                        diagnostics[key] = max(value, diagnostics.get(key, value))
                except Exception as exc:  # includes CheckFailed
                    error = "check: " + "".join(traceback.format_exception_only(exc)).strip()
            outcomes.append({"unit": unit.name, "ok": error is None, "checked": checked, "error": error, "wall_s": unit_wall})
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"wall_s": wall, "cpu_s": cpu, "units": outcomes, "diagnostics": diagnostics}


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True, help="scratch directory for CLI artifacts")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--scale", default="full", choices=("full", "tiny"))
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import levyexciton

    if Path(levyexciton.__file__).resolve().parent != (SRC / "levyexciton").resolve():
        print(f"levyexciton imported from {levyexciton.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    units = workloads.build(args.workload, args.seed, Path(args.workdir), args.scale)
    setup_s = time.perf_counter() - T0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    result = run_pass(units, tracer)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["traced"] = tracer is not None
    result["env"] = environment()
    if tracer is not None:
        tracer.maxima.update(result["diagnostics"])
        result["layer"] = tracer.layer_metrics()
        result["shares"] = tracer.layer_shares(result["wall_s"])
        spans_dir = HERE / "_work"
        spans_dir.mkdir(exist_ok=True)
        tracer.dump_spans(spans_dir / f"spans-{args.workload}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
