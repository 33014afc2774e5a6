"""Lindblad rate equations: coupled Lindblad-like evolutions of auxiliary
density matrices with classical rate-equation structure.

The physical state is the channel sum ``rho_S = sum_R rho_R``; channels
exchange weight like a continuous-time Markov chain while each carries its
own Lindblad self-dynamics.  The package provides a deterministic solver
(exact exponential), spectral stationary analysis,
Laplace-domain memory kernels, a reproducible Monte Carlo trajectory
unraveling of Walk-class models, closed-form qubit dephasing/depolarizing
reservoirs used as oracles, and the ``lre`` command line tool.
"""

from .linalg import (
    choi_matrix,
    devectorize,
    hamiltonian_superop,
    kraus_superop,
    min_eigenvalue,
    psd_check,
    vectorize,
)
from .model import (
    CPValidationError,
    LindbladRateModel,
    MarkovDecayError,
    ModelFieldError,
    ModelStructureError,
    OperatorBasis,
    StackedGenerator,
    ValidationReport,
    assemble_generator,
    build_from_correlations,
    embed_channels,
    reduce_from_tripartite,
    sum_channels,
    validate_model,
)
from .qubit import (
    PRESETS,
    DephasingParams,
    DepolarizingParams,
    QubitElements,
    cp_bound_check,
    dephasing_kernel,
    dephasing_model,
    dephasing_stationary,
    depolarizing_model,
    depolarizing_stationary,
    h_of_t,
    h_of_u,
)
from .solver import (
    DefectiveSpectrumError,
    EvolutionResult,
    KernelSample,
    SingularSolveError,
    SolverError,
    StationaryProjector,
    evolve,
    homogeneity_check,
    memory_kernel_at,
    stationary_projector,
    stationary_state,
)
from .stochastic import (
    EnsembleAccumulator,
    StochasticModel,
    convert_walk_to_rate_model,
    run_ensemble,
)

__version__ = "0.1.0"
