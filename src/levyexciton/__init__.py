"""Exciton transport in dephasing lattices with power-law hopping.

Subpackages by physics layer: :mod:`~levyexciton.model` (parameters and rate
kernels), :mod:`~levyexciton.special` (special functions, on scipy.special
where it suffices), :mod:`~levyexciton.analytic` (closed forms and asymptotics),
:mod:`~levyexciton.classical` (single-exciton master-equation solvers),
:mod:`~levyexciton.quantum` (dephasing dynamics of the correlation matrix and
weak-dephasing spectra), :mod:`~levyexciton.manybody` (the long-jump
exclusion process), and :mod:`~levyexciton.cli` (the experiment runner).
Solvers log work counts at DEBUG to the ``levyexciton`` logger, silent by default.
"""

import logging

from .model import ModelParams, classical_rate, hopping_amplitude
from .analytic import (
    AsymptoticCoefficients,
    CrossoverScales,
    StructureFunction,
    asymptotic_profile,
    coefficients,
    crossover,
    exact_profile_alpha1,
    forster_ratio,
    lattice_sum,
    small_q_expansion,
    structure_function_eval,
)
from .classical import DensityProfile, cme_integrate, cme_spectral_solve, moments, tail_fit
from .manybody import (
    SpinConfiguration,
    chi_squared_series,
    domain_wall_config,
    fractional_reference,
    kmc_simulate,
    occupation_evolution,
    relaxation_fit,
)
from .quantum import (
    CorrelationMatrix,
    build_circulant,
    initial_g_delta,
    perturbative_spectrum,
    propagate_G,
    slow_modes,
    spectral_propagate_G,
    unperturbed_spectrum,
    variance_closed_form,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "ModelParams",
    "classical_rate",
    "hopping_amplitude",
    "AsymptoticCoefficients",
    "CrossoverScales",
    "StructureFunction",
    "asymptotic_profile",
    "coefficients",
    "crossover",
    "exact_profile_alpha1",
    "forster_ratio",
    "lattice_sum",
    "small_q_expansion",
    "structure_function_eval",
    "DensityProfile",
    "cme_integrate",
    "cme_spectral_solve",
    "moments",
    "tail_fit",
    "SpinConfiguration",
    "chi_squared_series",
    "domain_wall_config",
    "fractional_reference",
    "kmc_simulate",
    "occupation_evolution",
    "relaxation_fit",
    "CorrelationMatrix",
    "build_circulant",
    "initial_g_delta",
    "perturbative_spectrum",
    "propagate_G",
    "slow_modes",
    "spectral_propagate_G",
    "unperturbed_spectrum",
    "variance_closed_form",
    "__version__",
]
