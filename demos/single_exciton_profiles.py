"""Single-exciton density profiles: pure Levy tails vs the mixed regime.

Walks through the classical-master-equation phenomenology on a ring:

1. alpha = 1 (below the critical exponent 3/2): the profile is a Levy stable
   shape whose tail is kappa t / j^2 with amplitude growing linearly in time;
   the Dawson-integral closed form reproduces the solver.
2. alpha = 2 (above critical): a Gaussian core of width sqrt(2 D t) coexists
   with the same algebraic tail; the crossover length comes from the -1
   branch of the Lambert W function.

Writes profile data and fit summaries as CSV next to this script.
"""

import math
from pathlib import Path

import numpy as np

from levyexciton.analytic import coefficients, crossover, exact_profile_alpha1
from levyexciton.classical import cme_spectral_solve, tail_fit
from levyexciton.model import ModelParams, format_float, write_csv

OUT = Path(__file__).with_suffix("")
OUT.mkdir(exist_ok=True)

# ---- pure Levy regime: alpha = 1, kappa t in {1, 3} -------------------------

params = ModelParams(d=1, alpha=1.0, J=1.0, gamma=10.0, N=1000, bc="periodic")
kappa = params.kappa
print(f"alpha = 1 ring, kappa = {kappa}")
rows = []
for kt in (1.0, 3.0):
    prof = cme_spectral_solve(params, kt / kappa)
    expo, amp = tail_fit(prof, (20, 250))
    print(f"  kappa t = {kt}: tail exponent {expo:+.3f} (expected -2), amplitude {amp:.3f} "
          f"(expected {kt})")
    coords = prof.coordinates()[0]
    for j, n in zip(coords, prof.values):
        rows.append((f"{kt:.1f}", str(int(j)), format_float(n)))
write_csv(OUT / "levy_profiles.csv", "kappa_t,j,n", rows)

# closed form agrees with the solver site by site
prof = cme_spectral_solve(params, 0.5 / kappa)
js = np.arange(-150, 151)
closed = exact_profile_alpha1(js, 0.5 / kappa, params)
gap = np.max(np.abs(prof.values[js % params.N] - closed))
print(f"  Dawson closed form vs solver, |j| <= 150 at kappa t = 0.5: sup {gap:.2e}")

# ---- mixed regime: alpha = 2 -------------------------------------------------

params = ModelParams(d=1, alpha=2.0, J=1.0, gamma=10.0, N=1000, bc="periodic")
co = coefficients(params)
print(f"\nalpha = 2 ring: D/kappa = {co.D_alpha / params.kappa:.4f} (zeta(2) = {math.pi ** 2 / 6:.4f})")
rows = []
for kt in (1.0, 3.0):
    t = kt / params.kappa
    sc = crossover(params, t)
    prof = cme_spectral_solve(params, t)
    expo, amp = tail_fit(prof, (int(3 * sc.xi_exact), 250))
    print(f"  kappa t = {kt}: xi_exact = {sc.xi_exact:.2f} (log form {sc.xi_approx:.2f}), "
          f"tail exponent {expo:+.3f} (expected -4)")
    coords = prof.coordinates()[0]
    for j, n in zip(coords, prof.values):
        rows.append((f"{kt:.1f}", str(int(j)), format_float(n)))
write_csv(OUT / "mixed_profiles.csv", "kappa_t,j,n", rows)
print(f"\nwrote {OUT}/levy_profiles.csv and {OUT}/mixed_profiles.csv")
