import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_density, random_hermitian, random_unitary
from mris import extended, fixtures, quantum, trajectories
from mris.tolerances import DEFAULT


def test_tensor_matches_loop_kron(rng):
    a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    b = rng.normal(size=(4, 2))
    np.testing.assert_allclose(quantum.tensor(a, b), oracles.kron_oracle(a, b),
                               atol=1e-15)


def test_tensor_associates(rng):
    a, b, c = (random_hermitian(rng, 2) for _ in range(3))
    np.testing.assert_allclose(quantum.tensor(a, b, c),
                               quantum.tensor(quantum.tensor(a, b), c), atol=1e-14)


def test_partial_trace_env(rng):
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    np.testing.assert_allclose(quantum.partial_trace_env(m, 2, 3),
                               oracles.ptrace_env_oracle(m, 2, 3), atol=1e-14)


def test_partial_trace_of_product_state(rng):
    rho = random_density(rng, 3)
    sigma = random_density(rng, 2)
    out = quantum.partial_trace_env(quantum.tensor(rho, sigma), 3, 2)
    np.testing.assert_allclose(out, rho, atol=1e-14)


def test_vec_column_convention(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_allclose(quantum.vec(m), oracles.vec_col_oracle(m), atol=0)
    np.testing.assert_allclose(quantum.unvec(quantum.vec(m), 3), m, atol=0)


def test_vec_sandwich_identity(rng):
    """vec(A X B) = (B^T (x) A) vec(X) pins the stacking convention."""
    a, x, b = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
               for _ in range(3))
    lhs = quantum.vec(a @ x @ b)
    rhs = np.kron(b.T, a) @ quantum.vec(x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


# ---------------------------------------------------------------------------
# thermal states and propagators
# ---------------------------------------------------------------------------

def test_thermal_state_matches_oracle(rng):
    h = random_hermitian(rng, 3)
    rho, f = quantum.thermal_state(h, 0.7)
    np.testing.assert_allclose(rho, oracles.thermal_oracle(h, 0.7), atol=1e-12)
    assert f is not None
    # free energy reproduces the partition function
    w = np.linalg.eigvalsh(h)
    z = np.exp(-0.7 * w).sum()
    assert abs(f - (-np.log(z) / 0.7)) < 1e-12


def test_thermal_state_infinite_temperature():
    rho, f = quantum.thermal_state(np.diag([0.0, 1.0, 5.0]), 0.0)
    np.testing.assert_allclose(rho, np.eye(3) / 3, atol=1e-15)
    assert f is None


def test_thermal_state_subnormal_beta_reports_divergent_free_energy():
    # -log(Z)/beta exceeds the float range here; same verdict as beta = 0
    rho, f = quantum.thermal_state(np.diag([0.0, 1.0, 5.0]), 5e-324)
    np.testing.assert_allclose(rho, np.eye(3) / 3, atol=1e-12)
    assert f is None


def test_thermal_state_rejects_negative_beta():
    with pytest.raises(quantum.QuantumError):
        quantum.thermal_state(np.diag([0.0, 1.0]), -0.5)


NAN_STATE = [[np.nan, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("call, error", [
    (lambda m: quantum.check_hermitian(NAN_STATE, 1e-12), quantum.QuantumError),
    (lambda m: quantum.check_density_matrix(NAN_STATE), quantum.QuantumError),
    (lambda m: quantum.check_unitary(NAN_STATE, 1e-12), quantum.QuantumError),
    (lambda m: quantum.thermal_state(np.diag([0.0, 1.0]), np.nan), quantum.QuantumError),
    (lambda m: quantum.thermal_state(np.diag([0.0, 1.0]), np.inf), quantum.QuantumError),
    (lambda m: quantum.channel_from_kraus([NAN_STATE]), quantum.QuantumError),
    (lambda m: trajectories.simulate_states(m, ["hot", "cold"], rho0=NAN_STATE),
     trajectories.TrajectoryError),
    (lambda m: extended.evolve(m.generator,
                               extended.ExtendedState(m.labels, [NAN_STATE] * 2), 1),
     extended.GeneratorError),
    (lambda m: extended.ExtendedState(m.labels, [NAN_STATE, np.eye(2) / 2]).check(),
     extended.GeneratorError),
], ids=["check_hermitian", "check_density_matrix", "check_unitary",
        "thermal_state-nan", "thermal_state-inf", "channel_from_kraus",
        "simulate_states", "evolve", "ExtendedState.check"])
def test_nan_fails_the_input_checks(call, error):
    """Every comparison with NaN is false, so a check written as
    ``resid > tol`` lets a NaN input through; each is written to fail it."""
    with pytest.raises(error):
        call(fixtures.two_temperature_qubit())


def test_thermal_state_extreme_beta_is_stable():
    rho, _ = quantum.thermal_state(np.diag([0.0, 500.0]), 3.0)
    assert np.isfinite(rho).all()
    assert abs(np.trace(rho) - 1) < 1e-12


def test_propagator_is_unitary_and_matches_series(rng):
    h = random_hermitian(rng, 4)
    u = quantum.propagator(h, 0.9)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(u, oracles.expm_taylor(-1j * 0.9 * h), atol=1e-11)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def test_superop_from_kraus_matches_columnwise_oracle(rng):
    ks = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    s = quantum.superop_from_kraus(ks)

    def phi(m):
        return sum(k @ m @ k.conj().T for k in ks)

    np.testing.assert_allclose(s, oracles.superop_oracle(phi, 2), atol=1e-13)


def test_channel_requires_trace_preservation(rng):
    k = [0.5 * np.eye(2)]
    with pytest.raises(quantum.QuantumError):
        quantum.channel_from_kraus(k)


def test_channel_apply_and_dual(rng):
    u = random_unitary(rng, 2)
    ch = quantum.channel_from_kraus([u])
    rho = random_density(rng, 2)
    x = random_hermitian(rng, 2)
    # unitary channel: dual is conjugation by u-dagger
    np.testing.assert_allclose(ch.apply(rho), u @ rho @ u.conj().T, atol=1e-13)
    lhs = np.trace(ch.apply(rho) @ x)
    dual = sum(k.conj().T @ x @ k for k in ch.kraus)   # sum K^dagger X K
    rhs = np.trace(rho @ dual)
    assert abs(lhs - rhs) < 1e-12


def test_reduced_map_agrees_with_embedding_oracle(rng):
    u = random_unitary(rng, 6)
    rho_env = random_density(rng, 3)
    rho = random_density(rng, 2)
    ch = quantum.reduced_map(u, rho_env, 2)
    np.testing.assert_allclose(ch.apply(rho),
                               oracles.reduced_map_oracle(u, rho_env, rho),
                               atol=1e-12)


def test_interaction_kraus_atoms_resum(rng):
    u = random_unitary(rng, 4)
    rho_env = random_density(rng, 2)
    atoms, varsigma = quantum.interaction_kraus_atoms(u, rho_env, 2)
    total = sum(k.conj().T @ k for _, _, k in atoms)
    np.testing.assert_allclose(total, np.eye(2), atol=1e-12)
    assert np.isfinite(varsigma).all()
    rho = random_density(rng, 2)
    via_atoms = sum(k @ rho @ k.conj().T for _, _, k in atoms)
    np.testing.assert_allclose(via_atoms, oracles.reduced_map_oracle(u, rho_env, rho),
                               atol=1e-12)


def test_choi_certificate_on_cptp_and_on_broken_map(rng):
    u = random_unitary(rng, 4)
    ch = quantum.reduced_map(u, random_density(rng, 2), 2)
    rep = quantum.choi_verify(ch)
    assert rep["min_choi_eig"] >= -1e-10
    assert rep["tp_residual"] <= 1e-12

    # transpose map: positive but not completely positive
    class Transpose:
        dim = 2

        @staticmethod
        def apply(e):
            return e.T

    c = quantum.choi_matrix(Transpose)
    assert np.linalg.eigvalsh((c + c.conj().T) / 2).min() < -0.4


# ---------------------------------------------------------------------------
# spectral utilities, entropies
# ---------------------------------------------------------------------------

def test_spectral_projections_cluster_degeneracies():
    h = np.diag([0.0, 1.0, 1.0 + 5e-10, 2.0])
    dec = quantum.spectral_projections(h, degeneracy_tol=1e-9)
    assert len(dec.eigenvalues) == 3
    assert [p.shape for p in dec.projections] == [(4, 4)] * 3
    total = sum(dec.projections)
    np.testing.assert_allclose(total, np.eye(4), atol=1e-12)
    rebuilt = sum(w * p for w, p in zip(dec.eigenvalues, dec.projections))
    np.testing.assert_allclose(rebuilt, h, atol=1e-9)


def test_entropy_matches_oracle(rng):
    rho = random_density(rng, 4)
    probs = np.linalg.eigvalsh(rho)
    assert abs(quantum.entropy_vn(rho) - oracles.entropy_oracle(probs)) < 1e-12


def test_relative_entropy_properties(rng):
    rho = random_density(rng, 3)
    sigma = random_density(rng, 3)
    assert quantum.relative_entropy(rho, rho) < 1e-12
    assert quantum.relative_entropy(rho, sigma) > 0
    # support violation: reference misses part of mu's support
    p = np.diag([1.0, 0.0, 0.0])
    q = np.diag([0.0, 0.5, 0.5])
    assert quantum.relative_entropy(p, q) == np.inf


def test_trace_norm(rng):
    a = random_hermitian(rng, 3)
    w = np.linalg.eigvalsh(a)
    assert abs(quantum.trace_norm(a) - np.abs(w).sum()) < 1e-12


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=0.0, max_value=5.0))
def test_thermal_states_are_states(seed, beta):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, 3)
    rho, _ = quantum.thermal_state(h, beta)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-14


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_reduced_maps_are_trace_preserving(seed):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 4)
    ch = quantum.reduced_map(u, random_density(rng, 2), 2)
    assert ch.tp_residual() <= DEFAULT.tp
    rho = random_density(rng, 2)
    out = ch.apply(rho)
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() >= -1e-12
