"""Tour of the closed-form layer: coefficients, crossover scales, enhancement.

No solvers here -- everything comes from lattice sums, polylogarithms, and
the Lambert W function: critical exponents per dimension, diffusion and Levy
coefficients, the Gaussian/tail crossover length with its onset time, and
the dipolar (alpha = 3) diffusion enhancement over nearest-neighbor hopping.
"""

import math

import numpy as np

from levyexciton.analytic import (
    StructureFunction,
    coefficients,
    critical_alpha,
    crossover,
    forster_ratio,
    lattice_sum,
    small_q_expansion,
    structure_function_eval,
)
from levyexciton.model import ModelParams

print("critical exponent and Foerster enhancement per dimension:")
for d in (1, 2, 3):
    print(f"  d = {d}: alpha_cr = {critical_alpha(d)}, L3^2/Linf^2 = {forster_ratio(d):.3f}")

print("\ntransport coefficients at kappa = 1 (J = 1, gamma = 2):")
for d in (1, 2, 3):
    for alpha in (1.0, 1.25, 2.0, 2.5, 3.0, 4.0):
        if alpha <= d / 2:
            continue
        p = ModelParams(d=d, alpha=alpha, J=1.0, gamma=2.0, N=64, bc="periodic")
        co = coefficients(p)
        if co.regime == "mixed":
            print(f"  d={d} alpha={alpha}: diffusive, D = {co.D_alpha:.4f}")
        else:
            c = "log-modified" if co.C_alpha is None else f"{co.C_alpha:.4f}"
            print(f"  d={d} alpha={alpha}: levy, C = {c}")

print("\ncrossover length at alpha = 2, d = 1 (kappa = 1):")
p = ModelParams(d=1, alpha=2.0, J=1.0, gamma=2.0, N=64, bc="periodic")
t_cr = crossover(p, 1.0).t_cr
print(f"  onset time t_cr = {t_cr:.4f}")
for t in (0.5, 1.0, 3.0, 10.0, 100.0):
    sc = crossover(p, t)
    xi = "below onset" if sc.xi_exact is None else f"{sc.xi_exact:7.3f} (log form {sc.xi_approx:7.3f})"
    print(f"  kappa t = {t:6.1f}: xi = {xi}")

print("\nstructure function vs its near-origin expansion (alpha = 1, exact closed form):")
p1 = ModelParams(d=1, alpha=1.0, J=1.0, gamma=2.0, N=64, bc="periodic")
sf1 = StructureFunction(p1)
for q in (0.05, 0.2, 1.0, math.pi):
    exact = structure_function_eval(sf1, q)
    exp = small_q_expansion(p1, q)
    print(f"  q = {q:5.3f}: A/kappa = {exact:+.6f}, expansion ({exp.branch}, {exp.order}) = {exp.value:+.6f}")

print("\nlattice sums (dimensionless):")
for d, s in ((1, 4.0), (2, 4.0), (3, 4.0), (2, 3.0)):
    print(f"  sum |r|^-{s} over Z^{d}: {lattice_sum(s, d):.8f}")
