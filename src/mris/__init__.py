"""Numerical laboratory for Markovian repeated interaction systems.

A quantum system is struck by a sequence of thermal probes whose species is
drawn by a Markov chain.  The package builds the extended one-step generator
of the joint (state, label) process, finds and classifies its steady states,
samples and enumerates the two-time entropy measurement statistics, and
checks the ergodic, fluctuation, and linear-response structure of the model
at numerically certifiable tolerances.

The public names below are resolved on first access (PEP 562): ``import
mris`` loads no submodule, and a process loads only the modules it uses.
"""

import importlib

_EXPORTS = {
    "adiabatic": ("AdiabaticError", "AdiabaticResult", "AdiabaticSchedule",
                  "adiabatic_evolve", "schedule_generator"),
    "chains": ("ChainClassification", "ChainError", "MarkovChain",
               "classify_chain", "sample_path", "stationary_vector"),
    "extended": ("EssDecomposition", "ExtendedGenerator", "ExtendedObservable",
                 "ExtendedState", "GeneratorClassification", "GeneratorError",
                 "NotIrreducibleError", "RealBasisError", "build_generator",
                 "classify_generator", "deformed_generator", "ess_decompose",
                 "evolve", "expectation", "find_ess", "initial_extended_state"),
    "fluctuations": ("FluctuationError", "GreenKuboResult", "KineticMatrix",
                     "RateFunctionResult", "SymmetryReport", "clt_covariance",
                     "e_of_alpha", "entropy_rate_function", "gc_symmetry_report",
                     "green_kubo", "kinetic_coefficients", "rate_function",
                     "translation_symmetry_report"),
    "modelfile": ("ModelFileError", "load_model", "model_to_dict",
                  "parse_model_dict", "write_model_file"),
    "models": ("ModelError", "MrisModel", "ProbeSpec", "TimeReversalData",
               "UnravelingEntry", "build_model", "check_equilibrium", "check_tri",
               "entropy_flux_observable", "flux_extended", "flux_observable",
               "one_step_balance", "temperature_deform", "unraveling"),
    "quantum": ("QuantumChannel", "QuantumError", "channel_from_kraus",
                "choi_matrix", "choi_verify", "entropy_vn",
                "interaction_kraus_atoms", "partial_trace_env", "propagator",
                "reduced_map", "relative_entropy", "spectral_projections",
                "tensor", "thermal_state", "trace_norm"),
    "tolerances": ("DEFAULT", "Tolerances"),
    "trajectories": ("AutocorrResult", "EntropySample", "ErgodicEstimate",
                     "ExactDistribution", "NumericalCorruption",
                     "TrajectoryConfig", "TrajectoryError",
                     "empirical_cumulant", "enumerate_full_statistics",
                     "ergodic_average", "flux_autocorrelation",
                     "sample_entropy_process", "simulate_states"),
}
_SUBMODULES = tuple(_EXPORTS) + ("cli", "fixtures", "output")
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCE) | set(_SUBMODULES))
