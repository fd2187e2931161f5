"""Joule expansion of hard-core excitons with long jumps.

Starting from a domain wall (left half occupied), the exclusion process
spreads with power-law occupation tails ~ kappa t / j^(2 alpha - 1) and
relaxes to the flat profile exponentially, with a half-time growing as
tau ~ N^beta: beta = 2 alpha - 1 below the critical exponent (faster
equilibration for longer range), beta = 2 above it, and
tau ~ N^2 / (ln(N/pi) + 3/2) at alpha_cr = 3/2.

Cross-checks the stochastic sampler against the exact linear occupation
dynamics (duality), then extracts (beta, b_alpha) from chi^2 decay.
"""

import math
from pathlib import Path

import numpy as np

from levyexciton.manybody import (
    OddSector,
    domain_wall_config,
    duality_zscore,
    kmc_simulate,
    occupation_evolution,
    relaxation_fit,
    relaxation_summary,
    site_labels,
)
from levyexciton.model import ModelParams, format_float, write_csv

OUT = Path(__file__).with_suffix("")
OUT.mkdir(exist_ok=True)


def chain(alpha, N):
    return ModelParams(d=1, alpha=alpha, J=1.0, gamma=2.0, N=N, bc="open")  # kappa = 1


# ---- occupation profiles at kappa t = 0.5 ------------------------------------

print("occupation tails at kappa t = 0.5, N = 100:")
rows = []
for alpha in (1.0, 1.5, 2.0, 3.0):
    traj = occupation_evolution(chain(alpha, 100), [0.5])[0]
    labels = site_labels(100)
    js = np.arange(5, 45)
    vals = np.array([traj[labels == j][0] for j in js])
    slope = np.polyfit(np.log(js), np.log(vals), 1)[0]
    print(f"  alpha = {alpha}: right-tail exponent {slope:+.2f} (expected {-(2 * alpha - 1):+.1f})")
    for j, n in zip(labels, traj):
        rows.append((f"{alpha:g}", str(j), format_float(n)))
write_csv(OUT / "occupation_kt05.csv", "alpha,j,n", rows)

# ---- stochastic sampler vs exact linear dynamics ------------------------------

p = chain(2.0, 64)
ts = np.array([0.1, 0.25, 0.5])
res = kmc_simulate(domain_wall_config(64), p, ts, n_traj=4000, seed=17)
lin = occupation_evolution(p, ts)
z = duality_zscore(res, lin)
print(f"\nduality check (4000 trajectories): max deviation {np.max(np.abs(res.mean - lin)):.4f}, "
      f"max |z| = {z.max():.2f}")

# ---- relaxation-time scaling ---------------------------------------------------

print("\nrelaxation scaling over N in {100, 200, 400, 800}:")
for alpha, b_ref, name in ((1.0, math.pi, "C_1/kappa = pi"),
                           (1.5, 1.0, "kappa at alpha_cr"),
                           (2.0, math.pi**2 / 6, "zeta(2)"),
                           (3.0, math.pi**4 / 90, "zeta(4)")):
    Ns = [100, 200, 400, 800]
    # each size's grid spans 18 decay times of its slowest odd-sector mode
    series = [OddSector(chain(alpha, N)).relaxation_series() for N in Ns]
    fit = relaxation_fit(series, Ns, alpha)
    print(f"  alpha = {alpha}: beta = {fit.beta:.3f}, b/kappa = {fit.b_alpha:.3f} (compare {name} = {b_ref:.3f})")
    (OUT / f"relaxation_alpha{alpha:g}.txt").write_text(relaxation_summary(fit, alpha))

print(f"\nwrote occupation and relaxation data under {OUT}/")
