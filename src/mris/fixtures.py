"""Ready-made small models used by the test suite, the examples, and the
command line demos.  All of them are desk-scale: qubit system, qubit probes.
"""

import numpy as np

from .chains import MarkovChain
from .models import MrisModel, ProbeSpec, TimeReversalData, build_model
from .tolerances import DEFAULT, Tolerances

SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # raises |0> -> |1>
SIGMA_MINUS = SIGMA_PLUS.conj().T
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
QUBIT_H = np.diag([0.0, 1.0]).astype(complex)


def _hopping_coupling(strength: float = 0.5) -> np.ndarray:
    """Excitation exchange between system and probe."""
    return strength * (np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS))


def _hot_cold_qubit(v, beta, tau, tol, p_matrix=None,
                    identity_tri=False) -> MrisModel:
    """Qubit between hot and cold qubit probes at inverse temperatures beta
    that share the coupling v, driven by a two-state chain with
    pi = (4, 3) / 7 and P = p_matrix ([[0.7, 0.3], [0.4, 0.6]] by default);
    both initial states are maximally mixed.  identity_tri attaches the
    identity time reversal."""
    if p_matrix is None:
        p_matrix = [[0.7, 0.3], [0.4, 0.6]]
    chain = MarkovChain(labels=("hot", "cold"), pi=np.array([4.0, 3.0]) / 7.0,
                        P=np.asarray(p_matrix, dtype=float))
    probes = {l: ProbeSpec(h_env=QUBIT_H, beta=beta[k], tau=tau, coupling=v)
              for k, l in enumerate(chain.labels)}
    rho_init = {l: np.eye(2, dtype=complex) / 2 for l in chain.labels}
    tri = (TimeReversalData(np.eye(2), {l: np.eye(2) for l in chain.labels})
           if identity_tri else None)
    return build_model(QUBIT_H, chain, probes, rho_init, tri=tri, tol=tol)


def two_temperature_qubit(beta=(1.0, 2.0), tau: float = 1.0,
                          coupling_strength: float = 0.5,
                          p_matrix=None, tol: Tolerances = DEFAULT) -> MrisModel:
    """Qubit exchanging excitations with hot and cold qubit probes, driven by
    a two-state chain.  The workhorse non-equilibrium fixture."""
    return _hot_cold_qubit(_hopping_coupling(coupling_strength), beta, tau, tol,
                           p_matrix, identity_tri=True)


def equilibrium_qubit(beta: float = 1.0, tau: float = 1.0,
                      coupling_strength: float = 0.5,
                      tol: Tolerances = DEFAULT) -> MrisModel:
    """Both probes at the same temperature: the steady state is thermal and
    all steady fluxes vanish."""
    return two_temperature_qubit(beta=(beta, beta), tau=tau,
                                 coupling_strength=coupling_strength, tol=tol)


def tri_broken_qubit(phase: float = 0.9, hop: float = 0.7, pair: float = 0.5,
                     drive: float = 0.4, beta=(1.0, 2.0), tau: float = 1.0,
                     tol: Tolerances = DEFAULT) -> MrisModel:
    """Control model whose coupling defeats every conjugation-type time
    reversal: a complex-phase hopping term, a pair creation/annihilation term,
    and a transverse drive.  Any one of the three alone can be gauged away;
    together they cannot."""
    v = (hop * (np.exp(1j * phase) * np.kron(SIGMA_PLUS, SIGMA_MINUS)
                + np.exp(-1j * phase) * np.kron(SIGMA_MINUS, SIGMA_PLUS))
         + pair * (np.kron(SIGMA_PLUS, SIGMA_PLUS) + np.kron(SIGMA_MINUS, SIGMA_MINUS))
         + drive * np.kron(SIGMA_X, np.eye(2)))
    return _hot_cold_qubit(v, beta, tau, tol)


def decoupled_qubit(beta=(1.0, 2.0), tau: float = 1.0,
                    tol: Tolerances = DEFAULT) -> MrisModel:
    """Zero coupling: every channel is unitary conjugation by exp(-i tau H_sys),
    so the generator is badly reducible.  Useful as a negative control."""
    return _hot_cold_qubit(np.zeros((4, 4), dtype=complex), beta, tau, tol)


def random_model(seed: int, n_labels: int = 2, coupling_scale: float = 0.8,
                 tol: Tolerances = DEFAULT) -> MrisModel:
    """Random qubit/qubit model: random real symmetric couplings, random
    positive temperatures, random strictly positive transition matrix."""
    rng = np.random.default_rng(seed)
    labels = tuple(f"w{k}" for k in range(n_labels))
    p = rng.uniform(0.1, 1.0, size=(n_labels, n_labels))
    p /= p.sum(axis=1, keepdims=True)
    pi = rng.uniform(0.1, 1.0, size=n_labels)
    pi /= pi.sum()
    probes = {}
    rho_init = {}
    for label in labels:
        a = rng.normal(size=(4, 4))
        v = coupling_scale * (a + a.T) / 2
        probes[label] = ProbeSpec(h_env=QUBIT_H, beta=float(rng.uniform(0.4, 2.5)),
                                  tau=float(rng.uniform(0.5, 1.5)), coupling=v)
        w = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q = np.linalg.qr(w)[0]
        d_rand = rng.uniform(0.1, 1.0, size=2)
        d_rand /= d_rand.sum()
        rho_init[label] = (q * d_rand) @ q.conj().T
    return build_model(QUBIT_H, MarkovChain(labels=labels, pi=pi, P=p),
                       probes, rho_init, tol=tol)
