"""Simulation toolkit for quasi-stationary distributions of absorbed Markov jump chains.

Four approximation routes to the same object, cross-validated against a
principal-eigenvector oracle on finite windows:

- Fleming-Viot particle systems (:mod:`qsdsim.fv`),
- the return-process map and its fixed-point iteration (:mod:`qsdsim.returnproc`),
- the discrete-time history-renewal chain (:mod:`qsdsim.afp`),
- a supercritical multitype-branching profile estimator (:mod:`qsdsim.branching`).
"""

from .chain import (
    AbsorbedChainModel,
    AbsorptionSample,
    Distribution,
    mean_distribution,
    read_model_file,
    simulate_until_absorption,
    tv_distance,
    write_model_file,
)
from .conditioned import ConditionedPath, evolve_conditioned, qsd_residual, theta_of
from .models import (
    BirthDeathSpec,
    DiscreteChainModel,
    GaltonWatsonSpec,
    build_birth_death,
    build_finite,
    build_galton_watson,
    resolve_model,
    uniformize,
)
from .afp import AfpResult, afp_run
from .branching import (
    BranchingPopulation,
    KsEstimate,
    ShiftedMeanMatrix,
    build_shifted,
    ks_estimate,
)
from .fv import (
    CorrelationProbe,
    FvTrace,
    ParticleConfig,
    correlation_probe,
    fv_run,
    fv_stationary,
)
from .harness import (
    ExperimentConfig,
    RateFit,
    ReportBudget,
    cross_method_report,
    emit_config,
    parse_config,
    parse_distribution,
    rate_fit,
    run_config,
)
from .oracle import QsdSolution, minimal_qsd_reference, solve_qsd_discrete, solve_qsd_power
from .returnproc import (
    CoupledRun,
    CouplingIndicator,
    PhiIterationResult,
    Trajectory,
    coupled_tagged_run,
    fv_run_graphical,
    phi_iterate,
    phi_map,
    simulate_mu_return,
    simulate_tagged_limit,
)
from .rng import RngStream

__all__ = [
    "AbsorbedChainModel",
    "AbsorptionSample",
    "AfpResult",
    "BirthDeathSpec",
    "BranchingPopulation",
    "ConditionedPath",
    "CorrelationProbe",
    "CoupledRun",
    "CouplingIndicator",
    "DiscreteChainModel",
    "Distribution",
    "ExperimentConfig",
    "FvTrace",
    "GaltonWatsonSpec",
    "KsEstimate",
    "ParticleConfig",
    "PhiIterationResult",
    "QsdSolution",
    "RateFit",
    "ReportBudget",
    "RngStream",
    "ShiftedMeanMatrix",
    "Trajectory",
    "afp_run",
    "build_birth_death",
    "build_finite",
    "build_galton_watson",
    "build_shifted",
    "correlation_probe",
    "coupled_tagged_run",
    "cross_method_report",
    "emit_config",
    "evolve_conditioned",
    "fv_run",
    "fv_run_graphical",
    "fv_stationary",
    "ks_estimate",
    "mean_distribution",
    "minimal_qsd_reference",
    "parse_config",
    "parse_distribution",
    "phi_iterate",
    "phi_map",
    "qsd_residual",
    "rate_fit",
    "read_model_file",
    "resolve_model",
    "run_config",
    "simulate_mu_return",
    "simulate_tagged_limit",
    "simulate_until_absorption",
    "solve_qsd_discrete",
    "solve_qsd_power",
    "theta_of",
    "tv_distance",
    "uniformize",
    "write_model_file",
]

__version__ = "0.1.0"
