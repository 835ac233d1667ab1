"""Voter dynamics on weighted graphs and their kernel limits.

Every name in `__all__` is resolved on first access (PEP 562), from the
submodule that `_NAMES` lists it under, and so is each of those
submodules: `import voterlim` loads neither numpy nor any submodule.
That lets the CLI's process entry (`voterlim._entry`) set up the process
before numpy loads, also under `python -m voterlim.cli`, which imports
this package first.  The names are looked up in their modules on every
access, never copied here, so a name patched in its module is patched
here too.
"""

import importlib

_NAMES = {
    "_version": ("__version__",),
    "dynamics": (
        "CONSENSUS_EPS",
        "InitialCondition",
        "Trajectory",
        "average_initial",
        "consensus_diameter",
        "default_horizon",
        "detect_consensus",
        "exceptional_measure",
        "make_initial",
        "read_trajectory",
        "solve_continuum",
        "solve_exact",
        "solve_finite",
        "step_exceedance_measure",
        "step_l2_distance",
        "volterra_residual",
        "write_trajectory",
    ),
    "errors": (
        "DomainError",
        "SizeLimitError",
        "SolverConvergenceError",
        "UnsupportedVariantError",
        "ValidationError",
        "VoterlimError",
    ),
    "experiments": (
        "ErrorRow",
        "ErrorTable",
        "ExperimentConfig",
        "MCResult",
        "ProximityReport",
        "consensus_proximity",
        "convergence_study",
        "experiment_metadata",
        "random_consensus_mc",
    ),
    "graphs": (
        "DEFAULT_N_MAX",
        "RNG_ALGORITHM",
        "WeightedGraph",
        "discretize_kernel",
        "laplacian",
        "pixel_kernel",
        "sample_w_random",
    ),
    "kernels": (
        "BipartiteKernel",  # Kernel and BipartiteKernel: perfbench aliases of StepKernel
        "Kernel",
        "Partition",
        "StepKernel",
        "common_refinement",
        "l2_distance",
        "make_kernel",
        "overlap_matrix",
    ),
    "structure": (
        "Component",
        "ComponentDecomposition",
        "NecessaryConditionReport",
        "TwinSet",
        "connected_components",
        "decompose_solution",
        "find_maximal_twin_sets",
        "is_connected",
        "necessary_condition",
        "predict_limit",
        "structure_report",
    ),
}

__all__ = [name for names in _NAMES.values() for name in names]

_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}


def __getattr__(name: str):
    if name in _NAMES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
