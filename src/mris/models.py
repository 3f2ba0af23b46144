"""Physical repeated-interaction models: probes, propagators, channels,
measurement unravelings, flux observables, and thermodynamic diagnostics.

A model is a system Hamiltonian, a driving Markov chain over probe labels,
one thermal probe specification per label, and initial system states.  All
derived objects (probe states, propagators U_w, reduced channels L_w,
two-time-measurement unravelings, flux observables) are built eagerly by
build_model, each probe's channel and unraveling from one eigensolve of
its probe state and one Kraus decomposition (quantum.interaction_kraus_atoms).  The build certifies each
channel once and keeps that certificate on the model
(MrisModel.certificates); ``mris validate`` reports it.  What the numerics
derive from a model is a read-only cached property, taken once per model on
first use (one that raises keeps nothing).
A model keeps nothing else: no analysis stores what it computes on it.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import extended
from .chains import MarkovChain
from .quantum import (QuantumChannel, _cluster_spectrum, _kraus_atoms,
                      channel_from_kraus, check_density_matrix, check_hermitian,
                      choi_verify, entropy_vn, partial_trace_env, propagator,
                      relative_entropy, superop_from_kraus, tensor, thermal_state)
from .tolerances import DEFAULT, Tolerances


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class ProbeSpec:
    """One reservoir species: probe Hamiltonian, inverse temperature,
    interaction duration, and the coupling on system (x) probe."""
    h_env: np.ndarray
    beta: float
    tau: float
    coupling: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h_env", np.asarray(self.h_env, dtype=complex))
        object.__setattr__(self, "coupling", np.asarray(self.coupling, dtype=complex))
        # written so that NaN fails them too
        if not 0 <= self.beta < math.inf:
            raise ModelError(f"inverse temperature must be finite and >= 0, got {self.beta}")
        if not 0 < self.tau < math.inf:
            raise ModelError(
                f"interaction duration must be finite and positive, got {self.tau}")


@dataclass(frozen=True)
class TimeReversalData:
    """Anti-unitaries represented as (unitary W, then entrywise conjugation)."""
    w_sys: np.ndarray
    w_env: dict

    def __post_init__(self):
        object.__setattr__(self, "w_sys", np.asarray(self.w_sys, dtype=complex))
        object.__setattr__(self, "w_env",
                           {k: np.asarray(v, dtype=complex) for k, v in self.w_env.items()})


# ---------------------------------------------------------------------------
# measurement unraveling of one channel
# ---------------------------------------------------------------------------

@dataclass
class UnravelingEntry:
    """The two-time measurement of one channel.  Its outcomes xi = (s, s')
    pair the entropy eigenvalue read before and after the interaction; they
    are stored as stacks in lexicographic (s, s') cluster order, one row per
    outcome, each with the CP map it selects and its probability operator
    G = sum K^dagger K, so that p(xi) = tr(rho G)."""
    label: object
    s_env: np.ndarray                    # entropy observable -log rho_env
    varsigma: np.ndarray                 # clustered entropy eigenvalues, ascending
    projections: list                    # probe-space projections per cluster
    kms_residual: float                  # ||S_E - beta (H_E - F)||, None at beta=0
    s_initial: np.ndarray                # per-outcome s
    s_final: np.ndarray                  # per-outcome s'
    deltas: np.ndarray                   # per-outcome increments s' - s
    _superops: np.ndarray = field(repr=False)     # (n_outcomes, d^2, d^2)
    _prob_ops: np.ndarray = field(repr=False)     # (n_outcomes, d, d)

    @property
    def n_outcomes(self):
        return len(self.deltas)

    @property
    def prob_ops(self):
        return self._prob_ops

    def completeness_residual(self, channel: QuantumChannel) -> float:
        return float(np.abs(self._superops.sum(axis=0) - channel.superop).max())


def _build_unraveling(label, atoms, p_env, phi, h_env, beta, free_energy, d_sys,
                      tol: Tolerances) -> UnravelingEntry:
    """The unraveling of the channel whose Kraus atoms (of
    quantum.interaction_kraus_atoms on the probe state with eigenpairs
    (p_env, phi)) are ``atoms``: the atoms grouped by the entropy clusters of
    their source and arrival eigenvectors."""
    if p_env.min() <= tol.prob_floor:
        raise ModelError(
            f"probe state for {label!r} is singular; the entropy observable "
            "-log rho is undefined")
    varsigma_raw = -np.log(p_env)
    s_env = (phi * varsigma_raw) @ phi.conj().T

    kms_residual = None
    if beta > 0 and free_energy is not None:
        ref = beta * (h_env - free_energy * np.eye(h_env.shape[0]))
        kms_residual = float(np.abs(s_env - ref).max())
        if not kms_residual <= 1e-10:      # so that NaN fails too
            raise ModelError(
                f"entropy observable for {label!r} disagrees with beta(H - F) "
                f"(residual {kms_residual:.3e}); probe state is not thermal for h_env")

    # cluster the entropy spectrum (ascending) to width degeneracy_tol
    varsigma, projections, clusters = _cluster_spectrum(
        varsigma_raw, phi, np.argsort(varsigma_raw), tol.degeneracy)
    cluster_of = {i: ci for ci, c in enumerate(clusters) for i in c}

    grouped = {}
    for i, j, k in atoms:
        grouped.setdefault((cluster_of[i], cluster_of[j]), []).append(k)

    n = len(clusters)
    zero = [np.zeros((d_sys, d_sys), dtype=complex)]
    kraus = [np.stack(grouped.get((ci, cj), zero)) for ci in range(n) for cj in range(n)]
    s_initial, s_final = np.repeat(varsigma, n), np.tile(varsigma, n)
    return UnravelingEntry(
        label=label, s_env=s_env, varsigma=varsigma, projections=projections,
        kms_residual=kms_residual, s_initial=s_initial, s_final=s_final,
        deltas=s_final - s_initial,
        _superops=np.stack([superop_from_kraus(ks) for ks in kraus]),
        _prob_ops=np.stack([np.einsum("xji,xjk->ik", ks.conj(), ks) for ks in kraus]))


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

class OutcomeTable(NamedTuple):        # MrisModel.outcome_table
    superops: np.ndarray
    funcs: np.ndarray
    deltas: np.ndarray
    n_out: np.ndarray


class Certificate(NamedTuple):         # MrisModel.certificates[label]
    """What build_model certified of one probe: its channel's Choi margin and
    TP residual (quantum.choi_verify) and the residual of its unraveling's
    resummation to the channel."""
    min_choi_eig: float
    tp_residual: float
    completeness: float


class SteadyState(NamedTuple):
    """MrisModel.steady_state: R_+ and its residual (find_ess), its real
    coordinates, A^{-1}, kappa_1 and (pi_+, rho_+); every array read-only.  A
    named tuple: immutable, and cheaper to define at import than a dataclass."""
    state: extended.ExtendedState
    residual: float
    coords: np.ndarray
    inverse: np.ndarray
    condition: float
    decomposition: extended.EssDecomposition


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass
class MrisModel:
    h_sys: np.ndarray
    chain: MarkovChain
    probes: dict
    rho_init: dict
    tri: TimeReversalData = None
    tol: Tolerances = DEFAULT
    # derived, filled by build_model
    rho_env: dict = None
    u: dict = None
    channels: dict = None
    unravelings: dict = None
    certificates: dict = None
    flux: dict = None

    @property
    def labels(self):
        return self.chain.labels

    @property
    def dim_sys(self) -> int:
        return self.h_sys.shape[0]

    def dim_env(self, label) -> int:
        return self.probes[self.labels[self.chain.index(label)]].h_env.shape[0]

    @functools.cached_property
    def generator(self) -> extended.ExtendedGenerator:
        """The one-step generator, assembled from real_superops."""
        return extended._chain_generator(self.chain, self.real_superops, self.channels)

    @functools.cached_property
    def outcome_table(self) -> OutcomeTable:
        """Per-(label, outcome) tables of the two-time measurement, read-only
        and in the real Hermitian basis of extended._hermitian_basis (U):
        outcome superoperators U S U^H (m, n_max, d^2, d^2), probability
        functionals G.reshape(-1) U^H (m, n_max, d^2), so that p = funcs @ x
        for a state with coordinates x, increments (m, n_max) and outcome
        counts (m,).  Labels with fewer outcomes are zero-padded to the
        widest label.  The tilt kernel, the entropy sampler and the exact
        enumeration all read this one table; a map that does not preserve
        Hermiticity raises RealBasisError."""
        entries = [self.unravelings[l] for l in self.labels]
        n_out = np.array([e.n_outcomes for e in entries])
        shape = (len(entries), n_out.max(), self.dim_sys ** 2)
        superops = np.zeros(shape + shape[-1:], dtype=complex)
        prob_funcs = np.zeros(shape, dtype=complex)
        deltas = np.zeros(shape[:2])
        for w, e in enumerate(entries):
            superops[w, :e.n_outcomes] = e._superops
            prob_funcs[w, :e.n_outcomes] = e.prob_ops.reshape(e.n_outcomes, -1)
            deltas[w, :e.n_outcomes] = e.deltas
        uh = extended._hermitian_basis(self.dim_sys).conj().T
        return OutcomeTable(*_read_only(
            extended._fold(superops),
            extended._real(prob_funcs @ uh, "probability functionals"), deltas, n_out))

    @functools.cached_property
    def real_superops(self) -> np.ndarray:
        """The channel superoperators U S_v U^H (m, d^2, d^2), read-only: the
        model's one fold of them, from which extended._generator_stack
        assembles every real generator of the model."""
        return _read_only(extended._fold(
            np.stack([self.channels[l].superop for l in self.labels])))[0]

    @functools.cached_property
    def steady_state(self) -> SteadyState:
        """The model's one steady-state solve (extended._steady_state) and
        its decomposition (extended.ess_decompose)."""
        r_plus, residual, x, a_inv, kappa = extended._steady_state(self.generator, self.tol)
        decomp = extended.ess_decompose(self.generator, r_plus, self.tol)
        _read_only(r_plus.blocks, x, a_inv, decomp.pi_plus, *decomp.rho_plus.values())
        return SteadyState(r_plus, residual, x, a_inv, kappa, decomp)

    def ess(self):
        """(R_+, residual) of extended.find_ess, from steady_state."""
        return self.steady_state.state, self.steady_state.residual

    def initial_state(self) -> extended.ExtendedState:
        return extended.initial_extended_state(self.chain, self.rho_init)


def _check_shape(a, n: int, what: str):
    if np.shape(a) != (n, n):
        raise ModelError(f"{what} has shape {np.shape(a)}, expected {(n, n)}")


def build_model(h_sys, chain: MarkovChain, probes: dict, rho_init: dict,
                tri: TimeReversalData = None, tol: Tolerances = DEFAULT) -> MrisModel:
    """Assemble and validate every derived object of an MRIS model."""
    h_sys = check_hermitian(h_sys, tol.herm, "system hamiltonian")
    d = h_sys.shape[0]
    for label in chain.labels:
        if label not in probes:
            raise ModelError(f"no probe for chain label {label!r}")
        if label not in rho_init:
            raise ModelError(f"no initial state for chain label {label!r}")
        _check_shape(rho_init[label], d, f"rho_init[{label!r}]")
    if tri is not None:
        _check_shape(tri.w_sys, d, "W_S")
        for label in chain.labels:
            if label not in tri.w_env:
                raise ModelError(f"no W_E for chain label {label!r}")
            _check_shape(tri.w_env[label], len(probes[label].h_env),
                         f"W_E[{label!r}]")

    model = MrisModel(h_sys=h_sys, chain=chain, probes=dict(probes),
                      rho_init={l: check_density_matrix(rho_init[l], tol, f"rho_init[{l!r}]")
                                for l in chain.labels},
                      tri=tri, tol=tol,
                      rho_env={}, u={}, channels={}, unravelings={},
                      certificates={}, flux={})

    for label in chain.labels:
        spec = probes[label]
        h_env = check_hermitian(spec.h_env, tol.herm, f"probe hamiltonian {label!r}")
        v = check_hermitian(spec.coupling, tol.herm, f"coupling {label!r}")
        d_env = h_env.shape[0]
        if v.shape != (d * d_env, d * d_env):
            raise ModelError(
                f"coupling {label!r} has shape {v.shape}, expected {(d * d_env,) * 2}")
        rho_e, f_e = thermal_state(h_env, spec.beta, tol)
        h_total = tensor(h_sys, np.eye(d_env)) + tensor(np.eye(d), h_env) + v
        u = propagator(h_total, spec.tau, tol)
        # one eigensolve of the probe state feeds the atoms and the unraveling
        p_env, phi = np.linalg.eigh(check_hermitian(rho_e, 1e-8, "probe state"))
        atoms, _ = _kraus_atoms(u, p_env, phi, d, tol.prob_floor)
        channel = channel_from_kraus([k for _, _, k in atoms], tol)
        # channel_from_kraus has refused a map that is not trace preserving
        report = choi_verify(channel)
        if not report["min_choi_eig"] >= -tol.psd:
            raise ModelError(f"reduced map failed its CPTP certificate: {report}")
        unrav = _build_unraveling(label, atoms, p_env, phi, h_env, spec.beta, f_e, d, tol)
        comp = unrav.completeness_residual(channel)
        if not comp <= 1e-12:
            raise ModelError(f"unraveling of {label!r} does not resum to the channel "
                             f"(residual {comp:.3e})")
        model.rho_env[label] = rho_e
        model.u[label] = u
        model.channels[label] = channel
        model.unravelings[label] = unrav
        model.certificates[label] = Certificate(report["min_choi_eig"],
                                                report["tp_residual"], comp)
        model.flux[label] = _flux_matrix(u, h_env, rho_e, d)
    return model


# ---------------------------------------------------------------------------
# fluxes
# ---------------------------------------------------------------------------

def _flux_matrix(u, h_env, rho_env, d_sys) -> np.ndarray:
    """J = tr_env( U* [U, 1 (x) H_env] (1 (x) rho_env) ).

    <rho, J> is the energy flowing out of the probe into the system during one
    interaction started from rho; the heat dumped into the probe is -<rho, J>.
    """
    d_env = h_env.shape[0]
    h_tilde = tensor(np.eye(d_sys), h_env)
    rho_tilde = tensor(np.eye(d_sys), rho_env)
    j = partial_trace_env(u.conj().T @ (u @ h_tilde - h_tilde @ u) @ rho_tilde,
                          d_sys, d_env)
    j = (j + j.conj().T) / 2
    return j


def flux_observable(model: MrisModel, omega) -> np.ndarray:
    """Energy-flux observable J(omega) on the system."""
    return model.flux[model.labels[model.chain.index(omega)]]


def flux_extended(model: MrisModel, nu) -> extended.ExtendedObservable:
    """The extended observable with J(nu) in block nu and zero elsewhere."""
    d = model.dim_sys
    blocks = np.zeros((model.chain.n, d, d), dtype=complex)
    blocks[model.chain.index(nu)] = flux_observable(model, nu)
    return extended.ExtendedObservable(model.labels, blocks)


def entropy_flux_observable(model: MrisModel) -> extended.ExtendedObservable:
    """Blockwise entropy-flux observable J_S = -(the flux formula with S_env
    for H_env); <rho, J_S> is the entropy dumped into the reservoir in one
    step.  For thermal probes each block equals -beta_w J(w) (checked in the
    tests, not assumed here).  0 - J, unlike -J, keeps exact zeros positive."""
    blocks = np.stack([
        0.0 - _flux_matrix(model.u[l], model.unravelings[l].s_env,
                           model.rho_env[l], model.dim_sys)
        for l in model.labels])
    return extended.ExtendedObservable(model.labels, blocks)


def unraveling(model: MrisModel, omega) -> UnravelingEntry:
    return model.unravelings[model.labels[model.chain.index(omega)]]


# ---------------------------------------------------------------------------
# assumption checks
# ---------------------------------------------------------------------------

def check_tri(model: MrisModel) -> dict:
    """Time-reversal invariance in the conjugation representation.

    With theta = (entrywise conjugation) o W, the two conditions are
    W_env conj(H_env) = H_env W_env and
    (W_sys (x) W_env) conj(U) = U^dagger (W_sys (x) W_env),
    plus the involution property conj(W) W = 1 for every W.
    """
    d = model.dim_sys
    tri = model.tri
    if tri is None:
        tri = TimeReversalData(np.eye(d), {l: np.eye(model.dim_env(l)) for l in model.labels})
    residuals = {}
    residuals["involution_sys"] = float(
        np.abs(tri.w_sys.conj() @ tri.w_sys - np.eye(d)).max())
    worst = residuals["involution_sys"]
    for label in model.labels:
        w_e = tri.w_env[label]
        h_e = model.probes[label].h_env
        u = model.u[label]
        big_w = tensor(tri.w_sys, w_e)
        r_inv = float(np.abs(w_e.conj() @ w_e - np.eye(w_e.shape[0])).max())
        r_h = float(np.abs(w_e @ h_e.conj() - h_e @ w_e).max())
        r_u = float(np.abs(big_w @ u.conj() - u.conj().T @ big_w).max())
        residuals[f"involution_env[{label!r}]"] = r_inv
        residuals[f"h_env[{label!r}]"] = r_h
        residuals[f"propagator[{label!r}]"] = r_u
        worst = max(worst, r_inv, r_h, r_u)
    return {"holds": worst <= 1e-10, "max_residual": worst, "residuals": residuals}


def check_equilibrium(model: MrisModel) -> dict:
    """Joint-invariance test of the steady state family.

    Equilibrium means U_w (rho_+v (x) rho_env_w) U_w* = rho_+w (x) rho_env_w
    for every chain edge v -> w; the report carries the worst residual, the
    steady entropy production <R_+, J_S>, and the steady energy fluxes.
    """
    r_plus, decomp = model.steady_state.state, model.steady_state.decomposition
    labels = model.labels
    worst = 0.0
    for vi, v in enumerate(labels):
        for wi, w in enumerate(labels):
            if model.chain.P[vi, wi] <= model.tol.edge:
                continue
            u = model.u[w]
            lhs = u @ tensor(decomp.rho_plus[v], model.rho_env[w]) @ u.conj().T
            rhs = tensor(decomp.rho_plus[w], model.rho_env[w])
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    j_s = entropy_flux_observable(model)
    ep_rate = extended.expectation(r_plus, j_s)
    fluxes = {l: extended.expectation(r_plus, flux_extended(model, l)) for l in labels}
    return {
        "is_equilibrium": worst <= 1e-8,
        "max_residual": worst,
        "entropy_production_rate": ep_rate,
        "steady_fluxes": fluxes,
    }


def temperature_deform(model: MrisModel, zeta) -> MrisModel:
    """Rebuild the model with probe temperatures beta_w - zeta_w.

    The propagators do not depend on the probe temperature, so only the probe
    states (and everything downstream of them) change.
    """
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape != (model.chain.n,):
        raise ModelError(f"zeta must have one entry per label, got {zeta.shape}")
    new_probes = {}
    for k, label in enumerate(model.labels):
        spec = model.probes[label]
        beta = spec.beta - zeta[k]
        if beta <= 0:
            raise ModelError(
                f"deformed inverse temperature for {label!r} is {beta} <= 0")
        new_probes[label] = ProbeSpec(h_env=spec.h_env, beta=beta,
                                      tau=spec.tau, coupling=spec.coupling)
    return build_model(model.h_sys, model.chain, new_probes, model.rho_init,
                       tri=model.tri, tol=model.tol)


# ---------------------------------------------------------------------------
# one-step entropy balance
# ---------------------------------------------------------------------------

def one_step_balance(u, rho_env, rho, h_env=None, beta=None) -> dict:
    """Entropy bookkeeping for a single interaction from state rho.

    Returns the system entropies before/after, the entropy dumped into the
    reservoir <rho, J_S>, the entropy production (relative entropy of the
    post-interaction joint state w.r.t. the decoupled reference), and the
    residual of  S(L rho) - S(rho) + <rho, J_S> = ep.  When (h_env, beta) are
    given, also reports the heat dQ = -<rho, J> and the residual of the
    thermal form  S(L rho) - S(rho) + beta dQ = ep.
    """
    rho = np.asarray(rho, dtype=complex)
    d_sys = rho.shape[0]
    d_env = rho_env.shape[0]
    w_env, phi = np.linalg.eigh(rho_env)
    if w_env.min() <= 1e-14:
        raise ModelError("probe state must be faithful for the balance identity")
    s_env = (phi * (-np.log(w_env))) @ phi.conj().T

    joint = u @ tensor(rho, rho_env) @ u.conj().T
    after = partial_trace_env(joint, d_sys, d_env)
    s_before = entropy_vn(rho)
    s_after = entropy_vn(after)
    flux_s = float(np.real(np.trace(joint @ tensor(np.eye(d_sys), s_env))
                           - np.trace(rho_env @ s_env)))
    ep = relative_entropy(joint, tensor(after, rho_env))
    out = {
        "s_before": s_before,
        "s_after": s_after,
        "entropy_flux": flux_s,
        "ep": ep,
        "balance_residual": (abs(s_after - s_before + flux_s - ep)
                             if math.isfinite(ep) else math.inf),
    }
    if h_env is not None and beta is not None:
        heat = float(np.real(np.trace(joint @ tensor(np.eye(d_sys), h_env))
                             - np.trace(rho_env @ h_env)))
        out["dq"] = heat
        out["thermal_residual"] = (abs(s_after - s_before + beta * heat - ep)
                                   if math.isfinite(ep) else math.inf)
    return out
