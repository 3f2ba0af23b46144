"""Numerical laboratory for Markovian repeated interaction systems.

A quantum system is struck by a sequence of thermal probes whose species is
drawn by a Markov chain.  The package builds the extended one-step generator
of the joint (state, label) process, finds and classifies its steady states,
samples and enumerates the two-time entropy measurement statistics, and
checks the ergodic, fluctuation, and linear-response structure of the model
at numerically certifiable tolerances.
"""

from .adiabatic import (AdiabaticError, AdiabaticResult, AdiabaticSchedule,
                        adiabatic_evolve, schedule_generator)
from .chains import (ChainClassification, ChainError, MarkovChain,
                     classify_chain, sample_path, stationary_vector)
from .extended import (EssDecomposition, ExtendedGenerator, ExtendedObservable,
                       ExtendedState, GeneratorClassification, GeneratorError,
                       NotIrreducibleError, adjoint_matrix, build_generator,
                       classify_generator, deformed_generator, ess_decompose,
                       evolve, expectation, find_ess, initial_extended_state)
from .fluctuations import (FluctuationError, GreenKuboResult, KineticMatrix,
                           RateFunctionResult, SymmetryReport, clt_covariance,
                           e_of_alpha, entropy_rate_function, gc_symmetry_report,
                           green_kubo, kinetic_coefficients, rate_function,
                           translation_symmetry_report)
from .modelfile import (ModelFileError, load_model, model_to_dict,
                        parse_model_dict, write_model_file)
from .models import (ModelError, MrisModel, ProbeSpec, TimeReversalData,
                     UnravelingEntry, build_model, check_equilibrium, check_tri,
                     entropy_flux_observable, flux_extended, flux_observable,
                     one_step_balance, reduced_channel, temperature_deform,
                     unraveling)
from .quantum import (QuantumChannel, QuantumError, channel_from_kraus,
                      choi_matrix, choi_verify, entropy_vn,
                      interaction_kraus_atoms, partial_trace_env, propagator,
                      reduced_map, relative_entropy, spectral_projections,
                      tensor, thermal_state, trace_norm)
from .tolerances import DEFAULT, Tolerances
from .trajectories import (AutocorrResult, EntropySample, ErgodicEstimate,
                           ExactDistribution, NumericalCorruption,
                           RealBasisError, TrajectoryConfig, TrajectoryError,
                           empirical_cumulant, enumerate_full_statistics,
                           ergodic_average, flux_autocorrelation,
                           sample_entropy_process, simulate_states)

__version__ = "0.1.0"
