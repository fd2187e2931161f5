"""Ballistic-to-diffusive crossover of a dephasing exciton.

Propagates the two-point correlation matrix on a finite chain at strong
dephasing (gamma = 10 J) and compares the variance of the exciton density
against the exact law 2 sum_r r^2 H_r^2 / gamma^2 (gamma t + e^{-gamma t} - 1):
quadratic (coherent) growth for t << 1/gamma, linear (classical) growth
beyond, with the crossover pinned at t ~ 1/gamma regardless of alpha.
"""

from pathlib import Path

import numpy as np

from levyexciton.model import ModelParams, format_float, sum_r2_hopping_sq, write_csv
from levyexciton.quantum import initial_g_delta, propagate_G, variance_closed_form, variance_of_density

OUT = Path(__file__).with_suffix("")
OUT.mkdir(exist_ok=True)

gamma = 10.0
ts = np.linspace(0.05, 5.0, 60)  # gamma t up to 50

for alpha in (3.0, 1.5):
    params = ModelParams(d=1, alpha=alpha, J=1.0, gamma=gamma, N=41, bc="open")
    S = sum_r2_hopping_sq(params)
    states = propagate_G(initial_g_delta(params), params, ts)
    var_q = np.array([variance_of_density(s) for s in states])
    var_cf = variance_closed_form(params, ts)
    ballistic = S * ts**2
    diffusive = 2 * S / gamma * ts
    sup = np.max(np.abs(var_q - var_cf))
    print(f"alpha = {alpha}: sup |QME - closed form| over gamma t <= 50: {sup:.2e}")
    i10 = np.argmin(np.abs(gamma * ts - 10.0))
    print(f"  at gamma t = 10: variance = {var_q[i10]:.4f}, "
          f"ballistic branch {ballistic[i10]:.4f}, diffusive branch {diffusive[i10]:.4f}")
    rows = (map(format_float, row) for row in zip(ts, var_q, var_cf, ballistic, diffusive))
    write_csv(OUT / f"variance_alpha{alpha:g}.csv", "t,qme,closed_form,ballistic,diffusive", rows)

print(f"wrote variance tables under {OUT}/")
