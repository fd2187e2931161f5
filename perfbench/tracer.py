"""In-memory span tracer that instruments levyexciton from the outside.

Every traced function is replaced by a wrapper in each module that holds a
reference to it, so calls made through ``from .special import polylog_circle``
style imports are caught as well as calls through the defining module. A
span records (name, start, end, parent); self time is a span's duration minus
the time its direct children cover. Work counts (integrator right-hand-side
calls, KMC attempts) are read from return values or from a counting proxy
that leaves the wrapped object's behaviour bit-identical.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE_MODULES = ("", ".model", ".special", ".analytic", ".classical", ".quantum", ".manybody", ".cli")

# (defining module, attribute, span name). A missing public name is an error,
# so that a rename cannot turn its metrics into zeros that read as a gain; a
# missing private one (``_name``) is skipped, since the kernel consolidation
# folds those into ``model``.
FUNCTION_SPANS = (
    ("quantum", "solve_dephasing_block", "quantum.block"),
    ("quantum", "perturbative_spectrum", "quantum.perturbative"),
    ("quantum", "spectral_propagate_G", "quantum.spectral_propagate"),
    ("quantum", "propagate_G", "quantum.propagate_G"),
    ("classical", "cme_integrate", "classical.cme_integrate"),
    ("classical", "cme_spectral_solve", "classical.spectral"),
    ("manybody", "kmc_simulate", "manybody.kmc"),
    ("manybody", "occupation_evolution", "manybody.occupation"),
    ("manybody", "relaxation_fit", "manybody.fit"),
    ("analytic", "structure_function_eval", "analytic.structure_function"),
    ("analytic", "small_q_expansion", "analytic.structure_function"),
    ("analytic", "lattice_sum", "analytic.lattice_sum"),
    ("analytic", "asymptotic_profile", "analytic.profiles"),
    ("analytic", "exact_profile_alpha1", "analytic.profiles"),
    ("analytic", "coefficients", "analytic.coefficients"),
    ("analytic", "crossover", "analytic.coefficients"),
    ("special", "polylog_circle", "special.polylog_circle"),
    ("special", "lambert_w_m1", "special.lambert_w_m1"),
    ("special", "riemann_zeta", "special.zeta_gamma"),
    ("special", "_zeta_any", "special.zeta_gamma"),
    ("special", "gamma_fn", "special.zeta_gamma"),
    ("special", "_upper_gamma_cf", "special.zeta_gamma"),
    ("special", "dawson", "special.dawson"),
    ("special", "_faddeeva_upper", "special.dawson"),
    # rate kernels: the public constructors in model plus quantum.build_h, and
    # the private per-module copies that a kernel consolidation folds into
    # model, so model.kernel stays comparable across that refactor
    ("model", "ring_rate_row", "model.kernel"),
    ("model", "open_line_rates", "model.kernel"),
    ("model", "open_kernel_and_escape", "model.kernel"),
    ("model", "finite_displacement_norms", "model.kernel"),
    ("model", "escape_rate", "model.kernel"),
    ("model", "sum_r2_hopping_sq", "model.kernel"),
    ("model", "hopping_amplitude", "model.kernel"),
    ("model", "classical_rate", "model.kernel"),
    ("quantum", "build_h", "model.kernel"),
    ("quantum", "_ring_h_row", "model.kernel"),
    ("classical", "_periodic_kernel", "model.kernel"),
    ("manybody", "_open_generator", "model.kernel"),
    ("manybody", "_escape_rates", "model.kernel"),
    ("cli", "run", "cli"),
)

# numpy.linalg is looked up as an attribute at call time by every caller
LINALG_SPANS = (("eig", "quantum.eig"), ("cond", "quantum.cond"), ("eigh", "manybody.eigh"))

# work counts that repeat exactly at a fixed seed
WORK_COUNTS = (
    "classical.rhs_calls",
    "quantum.rhs_calls",
    "quantum.blocks",
    "manybody.occupation.calls",
    "manybody.kmc.attempts",
)


class CountingRNG:
    """Generator proxy that counts ``exponential`` draws (one per KMC attempt)."""

    def __init__(self, gen, counts):
        self._gen = gen
        self._counts = counts
        self.uniform = gen.uniform  # drawn several times per attempt; skip __getattr__

    def exponential(self, *args, **kwargs):
        self._counts["manybody.kmc.attempts"] += 1
        return self._gen.exponential(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Records spans and counts while ``active``; patches are undone by ``uninstall``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- patching ----------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, modules, orig, wrapped):
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, key, wrapped)

    def install(self):
        import numpy as np

        mods = [importlib.import_module("levyexciton" + m) for m in PACKAGE_MODULES]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
        hooks = {
            "quantum.block": self._on_block,
            "cli": self._on_cli_run,
        }
        required = [(home, attr) for home, attr, _ in FUNCTION_SPANS if not attr.startswith("_")]
        required += [("manybody", "trajectory_rng"), ("analytic", "StructureFunction")]
        missing = [f"levyexciton.{home}.{attr}" for home, attr in required if not hasattr(by_name[home], attr)]
        if missing:
            raise AttributeError(f"{', '.join(missing)} gone; update tracer.py")
        for home, attr, name in FUNCTION_SPANS:
            orig = getattr(by_name[home], attr, None)
            if orig is not None:
                self._patch_everywhere(mods, orig, self.wrap(name, orig, hooks.get(name)))
        for attr, name in LINALG_SPANS:
            self._set(np.linalg, attr, self.wrap(name, getattr(np.linalg, attr)))
        # one solve_ivp wrapper per caller module, to split nfev by layer; a
        # module that stops integrating (say, for expm_multiply) has no RHS calls
        for home in ("classical", "quantum"):
            mod = by_name[home]
            if hasattr(mod, "solve_ivp"):
                self._set(mod, "solve_ivp", self.wrap(f"{home}.solve_ivp", mod.solve_ivp, self._nfev_hook(home)))
        mb = by_name["manybody"]
        orig_rng = mb.trajectory_rng

        @functools.wraps(orig_rng)
        def counting_rng(*args, **kwargs):
            gen = orig_rng(*args, **kwargs)
            if not self.active:
                return gen
            self.counts["manybody.kmc.trajectories"] += 1
            return CountingRNG(gen, self.counts)

        self._set(mb, "trajectory_rng", counting_rng)
        StructureFunction = by_name["analytic"].StructureFunction
        self._set(StructureFunction, "__init__", self.wrap("analytic.structure_function", StructureFunction.__init__))
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- result hooks ------------------------------------------------------------

    def _nfev_hook(self, layer):
        def hook(sol):
            self.counts[f"{layer}.rhs_calls"] += int(getattr(sol, "nfev", 0))

        return hook

    def _on_block(self, spectral_set):
        vecs = getattr(spectral_set, "eigenvectors", None)
        if vecs is not None:
            self.counts["quantum.eigvec_bytes"] += vecs.nbytes
        for attr, key in (("residual", "quantum.max_residual"), ("condition", "quantum.max_condition")):
            value = getattr(spectral_set, attr, None)
            if value is not None:
                self.maxima[key] = max(self.maxima[key], float(value))

    def _on_cli_run(self, manifest_path):
        manifest = json.loads(manifest_path.read_text())
        self.counts["cli.artifacts"] += len(manifest["artifacts"])
        written = manifest_path.stat().st_size
        for entry in manifest["artifacts"]:
            written += (manifest_path.parent / entry["name"]).stat().st_size
        self.counts["cli.bytes_written"] += written

    # -- aggregation -------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, total self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[name][0] += 1
            out[name][1] += (end - start) - inner
        return {k: (v[0], v[1]) for k, v in out.items()}

    def layer_metrics(self) -> dict[str, float]:
        st = self.self_times()

        def calls(name):
            return float(st.get(name, (0, 0.0))[0])

        def self_s(name):
            return st.get(name, (0, 0.0))[1]

        m = {
            "quantum.blocks": calls("quantum.block"),
            "quantum.block.self_s": self_s("quantum.block"),
            "quantum.eig_s": self_s("quantum.eig"),
            "quantum.cond_s": self_s("quantum.cond"),
            "quantum.perturbative.calls": calls("quantum.perturbative"),
            "quantum.perturbative.self_s": self_s("quantum.perturbative"),
            "quantum.spectral_propagate.self_s": self_s("quantum.spectral_propagate"),
            "quantum.propagate_G.calls": calls("quantum.propagate_G"),
            "quantum.propagate_G.self_s": self_s("quantum.propagate_G") + self_s("quantum.solve_ivp"),
            "classical.cme_integrate.calls": calls("classical.cme_integrate"),
            "classical.cme_integrate.self_s": self_s("classical.cme_integrate") + self_s("classical.solve_ivp"),
            "classical.spectral.calls": calls("classical.spectral"),
            "classical.spectral.self_s": self_s("classical.spectral"),
            "manybody.kmc.self_s": self_s("manybody.kmc"),
            "manybody.occupation.calls": calls("manybody.occupation"),
            "manybody.occupation.self_s": self_s("manybody.occupation"),
            "manybody.eigh_s": self_s("manybody.eigh"),
            "manybody.fit.self_s": self_s("manybody.fit"),
            "analytic.structure_function.calls": calls("analytic.structure_function"),
            "analytic.structure_function.self_s": self_s("analytic.structure_function"),
            "analytic.lattice_sum.calls": calls("analytic.lattice_sum"),
            "analytic.lattice_sum.self_s": self_s("analytic.lattice_sum"),
            "analytic.profiles.self_s": self_s("analytic.profiles"),
            "analytic.coefficients.self_s": self_s("analytic.coefficients"),
            "model.kernel.calls": calls("model.kernel"),
            "model.kernel.self_s": self_s("model.kernel"),
            "cli.self_s": self_s("cli"),
        }
        for fam in ("polylog_circle", "lambert_w_m1", "zeta_gamma", "dawson"):
            m[f"special.{fam}.calls"] = calls(f"special.{fam}")
            m[f"special.{fam}.self_s"] = self_s(f"special.{fam}")
        for key in (
            "quantum.rhs_calls",
            "classical.rhs_calls",
            "quantum.eigvec_bytes",
            "manybody.kmc.trajectories",
            "manybody.kmc.attempts",
            "cli.bytes_written",
            "cli.artifacts",
        ):
            m[key] = float(self.counts.get(key, 0.0))
        for key in ("quantum.max_residual", "quantum.max_condition", "manybody.duality_zmax"):
            m[key] = float(self.maxima.get(key, 0.0))
        kmc_s = m["manybody.kmc.self_s"]
        m["manybody.kmc.attempts_per_s"] = m["manybody.kmc.attempts"] / kmc_s if kmc_s > 0 else 0.0
        return m

    def layer_shares(self, wall_s: float) -> dict[str, float]:
        """Share of the traced wall time spent in each layer's own code."""
        shares: dict[str, float] = defaultdict(float)
        for name, (_, s) in self.self_times().items():
            layer = "benchmark" if name.startswith("unit:") else name.split(".", 1)[0]
            shares[layer] += s / wall_s if wall_s > 0 else 0.0
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

    def dump_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
