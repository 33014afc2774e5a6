"""The public API of ``lindbladrate``, pinned by parameter name.

Every public callable the package exports is listed with the names of its
parameters (a dataclass's fields, a function's arguments), so a change that
adds or removes a function, a field or a keyword shows in this file's diff.
Exception classes are listed as ``None``.
"""

import inspect

import lindbladrate

API = {
    "CPValidationError": None,
    "DefectiveSpectrumError": None,
    "DephasingParams": ("gamma_a", "gamma_b", "gamma_ab", "gamma_ba", "p_a", "p_b"),
    "DepolarizingParams": ("gamma_ab", "gamma_ba", "p_a", "p_b"),
    "EnsembleAccumulator": ("grid", "channel_sums", "channel_sq_re", "channel_sq_im", "count", "dim"),
    "EvolutionResult": ("times", "stacked", "system", "trace_residual", "hermiticity_residual", "min_eigenvalue"),
    "KernelSample": ("u", "kernel", "shifted", "condition", "rank", "residual"),
    "LindbladRateModel": ("basis", "weights", "blocks", "hamiltonians", "system_hamiltonian"),
    "MarkovDecayError": None,
    "ModelFieldError": None,
    "ModelStructureError": None,
    "OperatorBasis": ("ops",),
    "QubitElements": ("pop_plus", "pop_minus", "coh_plus"),
    "SingularSolveError": None,
    "SolverError": None,
    "StackedGenerator": ("matrix", "num_channels", "dim", "weights"),
    "StationaryProjector": (
        "projector", "reduced_map", "zero_dimension", "generator", "eigenvalues", "scale", "embedding",
        "memory_embedding", "stationary_memory",
    ),
    "StochasticModel": ("basis", "hamiltonian", "dissipator_blocks", "hop_rates", "kraus_maps", "weights"),
    "ValidationReport": ("blocks", "weight_sum", "weights_nonnegative", "hamiltonian_residual", "passed"),
    "assemble_generator": ("model", "validate"),
    "build_from_correlations": ("chi", "tau", "system_hamiltonian", "basis", "quadrature"),
    "choi_matrix": ("superop",),
    "convert_walk_to_rate_model": ("model", "basis"),
    "cp_bound_check": ("p", "grid"),
    "dephasing_kernel": ("p", "u"),
    "dephasing_model": ("p",),
    "dephasing_stationary": ("p", "rho0"),
    "depolarizing_model": ("p",),
    "depolarizing_stationary": ("p", "rho0"),
    "devectorize": ("vector",),
    "embed_channels": ("weights", "x"),
    "evolve": ("model", "rho0", "grid"),
    "h_of_t": ("p", "t"),
    "h_of_u": ("p", "u"),
    "hamiltonian_superop": ("h",),
    "homogeneity_check": ("model_or_analysis",),
    "kraus_superop": ("kraus_ops",),
    "memory_kernel_at": ("model_or_analysis", "u"),
    "min_eigenvalue": ("matrix",),
    "psd_check": ("matrix", "tol"),
    "reduce_from_tripartite": ("b", "num_channels", "basis", "weights", "hamiltonians"),
    "run_ensemble": ("model", "rho0", "grid", "n", "master_seed"),
    "stationary_projector": ("model_or_generator",),
    "stationary_state": ("model_or_analysis", "rho0"),
    "sum_channels": ("y", "k"),
    "validate_model": ("model",),
    "vectorize": ("matrix",),
}


def _surface() -> dict:
    out = {}
    for name in dir(lindbladrate):
        obj = getattr(lindbladrate, name)
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        if isinstance(obj, type) and issubclass(obj, Exception):
            out[name] = None
        else:
            out[name] = tuple(inspect.signature(obj).parameters)
    return out


def test_public_callables_and_parameters_pinned():
    assert _surface() == API
