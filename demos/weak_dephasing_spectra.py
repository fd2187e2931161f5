"""Weak-dephasing spectral structure of the dephasing Liouvillian (gamma << J).

Per ring momentum q the evolution block is C_q + gamma X with C_q an
anti-Hermitian circulant. Perturbation theory puts every decaying mode at
Re E = gamma (N-1)/N, but the exact spectrum reveals N-1 *real* slow
eigenvalues that sink below gamma as N grows: the emergent classical
transport branch. Its gap follows the classical master-equation rate of the
slowest density mode once that rate drops below gamma, i.e. past
N* = 2 pi sqrt(D_alpha / gamma); below N* it saturates at ~gamma.

Desk sizes {51, 101, 201} sit astride N* for alpha = 2, 3 (which is why the
asymptotic 1/N^2 law needs larger rings; pass --large to add N = 301, 401).
"""

import argparse
import math
from pathlib import Path

import numpy as np

from levyexciton.analytic import coefficients
from levyexciton.classical import ring_decay_rates
from levyexciton.model import ModelParams, format_float, write_csv
from levyexciton.quantum import slow_modes, solve_dephasing_spectrum, spectra_to_csv

OUT = Path(__file__).with_suffix("")
OUT.mkdir(exist_ok=True)

ap = argparse.ArgumentParser()
ap.add_argument("--large", action="store_true", help="extend to N = 301, 401 (under a minute)")
args = ap.parse_args()

gamma, J = 0.1, 1.0
sizes = [51, 101, 201] + ([301, 401] if args.large else [])

for alpha in (1.0, 2.0, 3.0):
    print(f"alpha = {alpha}:")
    p_big = ModelParams(d=1, alpha=alpha, J=J, gamma=gamma, N=sizes[-1], bc="periodic")
    co = coefficients(p_big) if alpha > 1.5 else None
    if co is not None:
        nstar = 2 * math.pi * math.sqrt(co.D_alpha / gamma)
        print(f"  slow-branch detachment size N* ~ {nstar:.0f}")
    gaps, cgaps = [], []
    for N in sizes:
        p = ModelParams(d=1, alpha=alpha, J=J, gamma=gamma, N=N, bc="periodic")
        s = slow_modes(p)
        gaps.append(s.real_gap)
        cgaps.append(s.complex_gap)
        lam = ring_decay_rates(p)  # classical reference: slowest ring density mode
        print(f"  N = {N}: real gap {s.real_gap:.5f}, complex gap {s.complex_gap:.5f}, "
              f"perturbative {s.perturbative_min_re:.5f}, classical slowest rate {lam[1]:.5f}")
    slope = np.polyfit(np.log(sizes), np.log(gaps), 1)[0]
    print(f"  slow-branch exponent over {sizes}: {slope:+.3f}")
    if args.large:
        tail = np.polyfit(np.log(sizes[-3:]), np.log(gaps[-3:]), 1)[0]
        print(f"  slow-branch exponent over {sizes[-3:]} (past N*): {tail:+.3f}")
    rows = ((str(N), format_float(g), format_float(c)) for N, g, c in zip(sizes, gaps, cgaps))
    write_csv(OUT / f"gaps_alpha{alpha:g}.csv", "N,real_gap,complex_gap", rows)

# full spectrum export for one mid-size case
p = ModelParams(d=1, alpha=2.0, J=J, gamma=gamma, N=101, bc="periodic")
spectra_to_csv(solve_dephasing_spectrum(p), OUT / "spectrum_alpha2_N101.csv")
print(f"\nwrote gap tables and spectrum_alpha2_N101.csv under {OUT}/")
