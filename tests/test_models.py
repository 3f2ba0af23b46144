import math
import re

import numpy as np
import pytest

import oracles
from conftest import random_density
from mris import adiabatic, extended, fixtures, fluctuations, models, trajectories
from mris.chains import ChainError, MarkovChain
from mris.quantum import tensor, thermal_state


def _single_phase_model(phase, tri=None, beta=(1.0, 2.0)):
    sp = np.array([[0, 0], [1, 0]], dtype=complex)
    v = 0.6 * (np.exp(1j * phase) * tensor(sp, sp.conj().T)
               + np.exp(-1j * phase) * tensor(sp.conj().T, sp))
    chain = MarkovChain(labels=("a", "b"), pi=(0.5, 0.5), P=[[0.5, 0.5], [0.5, 0.5]])
    h = np.diag([0.0, 1.0])
    probes = {l: models.ProbeSpec(h_env=h, beta=b, tau=1.0, coupling=v)
              for l, b in zip(("a", "b"), beta)}
    rho0 = np.eye(2) / 2
    return models.build_model(h, chain, probes, {"a": rho0, "b": rho0}, tri=tri)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_probe_spec_rejects_bad_parameters():
    h = np.diag([0.0, 1.0])
    with pytest.raises(models.ModelError):
        models.ProbeSpec(h_env=h, beta=-0.5, tau=1.0, coupling=np.eye(4))
    with pytest.raises(models.ModelError):
        models.ProbeSpec(h_env=h, beta=1.0, tau=0.0, coupling=np.eye(4))


@pytest.mark.parametrize("beta, tau, what", [
    (math.nan, 1.0, "inverse temperature"), (math.inf, 1.0, "inverse temperature"),
    (1.0, math.nan, "interaction duration"), (1.0, math.inf, "interaction duration"),
])
def test_probe_spec_rejects_non_finite_parameters(beta, tau, what):
    """A NaN beta or tau used to pass and fail later in build_model with an
    untyped LinAlgError."""
    with pytest.raises(models.ModelError, match=f"^{what} must be finite"):
        models.ProbeSpec(h_env=np.diag([0.0, 1.0]), beta=beta, tau=tau,
                         coupling=np.eye(4))


def test_build_model_requires_a_probe_per_label(canonical):
    probes = dict(canonical.probes)
    del probes["cold"]
    with pytest.raises(models.ModelError, match="cold"):
        models.build_model(canonical.h_sys, canonical.chain, probes,
                           canonical.rho_init)


def test_build_model_rejects_wrong_coupling_shape(canonical):
    probes = dict(canonical.probes)
    spec = probes["hot"]
    probes["hot"] = models.ProbeSpec(h_env=spec.h_env, beta=spec.beta,
                                     tau=spec.tau, coupling=np.eye(3))
    with pytest.raises(models.ModelError, match="shape"):
        models.build_model(canonical.h_sys, canonical.chain, probes,
                           canonical.rho_init)


def _rebuild(model, rho_init=None, w_sys=None, w_env=None):
    tri = models.TimeReversalData(
        model.tri.w_sys if w_sys is None else w_sys,
        {**model.tri.w_env, **(w_env or {})})
    return models.build_model(model.h_sys, model.chain, model.probes,
                              {**model.rho_init, **(rho_init or {})}, tri=tri)


@pytest.mark.parametrize("change, message", [
    ({"rho_init": {"cold": [[1.0]]}},
     "rho_init['cold'] has shape (1, 1), expected (2, 2)"),
    ({"w_sys": np.eye(3)}, "W_S has shape (3, 3), expected (2, 2)"),
    ({"w_env": {"hot": [[1.0]]}}, "W_E['hot'] has shape (1, 1), expected (2, 2)"),
], ids=["rho_init", "W_S", "W_E"])
def test_build_model_rejects_wrong_state_and_reversal_shapes(canonical, change,
                                                            message):
    """Each wrongly sized matrix is named at build time, before numpy fails
    on it inside a sampler or the time-reversal check."""
    assert _rebuild(canonical).labels == canonical.labels
    with pytest.raises(models.ModelError, match=re.escape(message)):
        _rebuild(canonical, **change)


def test_build_model_requires_reversal_data_per_label(canonical):
    tri = models.TimeReversalData(canonical.tri.w_sys, {"hot": np.eye(2)})
    with pytest.raises(models.ModelError, match="no W_E for chain label 'cold'"):
        models.build_model(canonical.h_sys, canonical.chain, canonical.probes,
                           canonical.rho_init, tri=tri)


def test_effectively_singular_probe_is_refused():
    # at beta = 80 the excited population ~ exp(-80) underflows the floor,
    # so -log(rho_env) stops being a usable observable
    with pytest.raises(models.ModelError, match="singular"):
        fixtures.two_temperature_qubit(beta=(80.0, 80.0))


def test_random_models_build_clean(rng):
    for seed in (3, 17, 91):
        m = fixtures.random_model(seed)
        for l in m.labels:
            assert m.channels[l].superop.shape == (4, 4)
            assert m.unravelings[l].completeness_residual(m.channels[l]) < 1e-12


# ---------------------------------------------------------------------------
# measurement unraveling
# ---------------------------------------------------------------------------

def test_unraveling_structure(canonical):
    entry = models.unraveling(canonical, "hot")
    assert entry.n_outcomes == 4
    gap = entry.varsigma[1] - entry.varsigma[0]
    assert gap > 0
    np.testing.assert_allclose(sorted(entry.deltas), [-gap, 0.0, 0.0, gap],
                               atol=1e-12)
    # ordering contract: lexicographic in the (s, s') cluster pair
    pairs = list(zip(entry.s_initial, entry.s_final))
    assert pairs == sorted(pairs)
    # the probability operators resolve the identity
    np.testing.assert_allclose(entry.prob_ops.sum(axis=0), np.eye(2), atol=1e-12)
    assert entry.kms_residual < 1e-10


def test_outcome_probabilities_form_a_distribution(canonical, rng):
    entry = models.unraveling(canonical, "cold")
    rho = random_density(rng, 2)
    p = np.einsum("xij,ji->x", entry.prob_ops, rho).real     # tr(G_x rho)
    assert p.min() > -1e-14
    assert abs(p.sum() - 1.0) < 1e-12


def test_unraveling_matches_eigenpair_oracle(canonical, rng):
    """Outcome by outcome against the direct two-time construction."""
    rho = random_density(rng, 2)
    for label in canonical.labels:
        entry = models.unraveling(canonical, label)
        raw = oracles.unravel_step_oracle(canonical.u[label],
                                          canonical.rho_env[label], rho)
        assert len(raw) == entry.n_outcomes
        p_env = np.linalg.eigvalsh(canonical.rho_env[label])
        for x in range(entry.n_outcomes):
            hits = [r for r in raw
                    if abs(-math.log(p_env[r["i"]]) - entry.s_initial[x]) < 1e-10
                    and abs(-math.log(p_env[r["j"]]) - entry.s_final[x]) < 1e-10]
            assert len(hits) == 1, "outcome labels must identify one eigenpair"
            r = hits[0]
            assert abs(r["delta"] - entry.deltas[x]) < 1e-12
            assert abs(r["prob"] - np.trace(rho @ entry.prob_ops[x]).real) < 1e-12
            post = (entry._superops[x] @ rho.reshape(-1, order="F")).reshape(2, 2, order="F")
            np.testing.assert_allclose(post, r["post"], atol=1e-12)


def test_flux_observable_measures_probe_energy_change(canonical, rng):
    """tr(rho J_w) must equal the energy the probe loses in one interaction."""
    rho = random_density(rng, 2)
    for label in canonical.labels:
        u = canonical.u[label]
        re = canonical.rho_env[label]
        he = canonical.probes[label].h_env
        joint = u @ tensor(rho, re) @ u.conj().T
        gain = (np.trace(joint @ tensor(np.eye(2), he)).real
                - np.trace(re @ he).real)
        j = models.flux_observable(canonical, label)
        assert np.abs(j - j.conj().T).max() < 1e-12
        assert abs(np.trace(rho @ j).real + gain) < 1e-12


def test_entropy_flux_is_minus_beta_times_energy_flux(canonical):
    js = models.entropy_flux_observable(canonical)
    for k, label in enumerate(canonical.labels):
        beta = canonical.probes[label].beta
        j = models.flux_observable(canonical, label)
        np.testing.assert_allclose(js.blocks[k], -beta * j, atol=1e-12)


def _tilted_superop(model, label, a):
    """The superoperator that deformed_generator puts in place of channel v
    at alpha_v = a: its block (w, v) divided by P[v, w], at the w with the
    largest P[v, w], taken out of the Hermitian basis (U^H B U)."""
    v = model.chain.index(label)
    w = int(np.argmax(model.chain.P[v]))
    alpha = np.zeros(model.chain.n)
    alpha[v] = a
    dd = model.dim_sys ** 2
    mat = extended.deformed_generator(model, alpha).matrix
    u = extended._hermitian_basis(model.dim_sys)
    block = mat[w * dd:(w + 1) * dd, v * dd:(v + 1) * dd] / model.chain.P[v, w]
    return u.conj().T @ block @ u


def test_deformed_superop_interpolates_the_two_time_weighting(canonical, rng):
    """sum_xi e^(-a delta) S_xi == superop of  rho -> tr_E[(1 (x) rho_E^a) U (rho (x) rho_E^(1-a)) U*]."""
    label = "hot"
    u = canonical.u[label]
    re = canonical.rho_env[label]
    w, phi = np.linalg.eigh(re)
    for a in (0.0, 0.3, 1.0, -0.7):
        pa = (phi * w ** a) @ phi.conj().T
        pb = (phi * w ** (1.0 - a)) @ phi.conj().T
        direct = np.zeros((4, 4), dtype=complex)
        for col in range(4):
            unit = np.zeros(4, dtype=complex)
            unit[col] = 1.0
            big = u @ tensor(unit.reshape(2, 2, order="F"), pb) @ u.conj().T
            weighted = tensor(np.eye(2), pa) @ big
            red = weighted.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
            direct[:, col] = red.reshape(-1, order="F")
        np.testing.assert_allclose(_tilted_superop(canonical, label, a), direct,
                                   atol=1e-11)


def test_deformed_superop_at_zero_is_the_channel(canonical):
    for label in canonical.labels:
        np.testing.assert_allclose(_tilted_superop(canonical, label, 0.0),
                                   canonical.channels[label].superop, atol=1e-12)


def test_outcome_table_is_built_once_and_read_only(monkeypatch):
    """The tilted generator, the perturbation kernel, the sampler and the
    exact enumeration all read one real table per model, folded into the
    Hermitian basis once, which cannot be written."""
    reads, prob_ops = [], models.UnravelingEntry.prob_ops
    folds, fold = [], extended._fold

    def counting(entry):
        reads.append(entry.label)        # one read per label per build
        return prob_ops.fget(entry)

    monkeypatch.setattr(models.UnravelingEntry, "prob_ops", property(counting))
    monkeypatch.setattr(extended, "_fold", lambda *a: folds.append(a[0].shape) or fold(*a))
    m = fixtures.two_temperature_qubit()
    fluctuations.e_of_alpha(m, np.array([0.3, -0.2]))
    fluctuations._perron(m, np.array([0.1, 0.4]))
    trajectories.sample_entropy_process(
        m, trajectories.TrajectoryConfig(n_steps=5, n_traj=3, seed=0))
    trajectories.enumerate_full_statistics(m, 2)
    assert reads == list(m.labels)
    assert folds == [m.outcome_table[0].shape]
    table = m.outcome_table
    assert table[0].dtype == table[1].dtype == np.float64
    for a in table:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0


def test_channel_stack_is_folded_once(monkeypatch):
    """The model generator, the steady state, an adiabatic sweep and the
    instantaneous generators all read the one fold of the channel
    superoperators, real_superops."""
    folds, fold = [], extended._fold
    monkeypatch.setattr(extended, "_fold", lambda *a: folds.append(a[0].shape) or fold(*a))
    m = fixtures.two_temperature_qubit()
    m.generator, m.real_superops, m.steady_state
    schedule = adiabatic.AdiabaticSchedule(m.chain.P, np.full((2, 2), 0.5))
    adiabatic.adiabatic_evolve(m, schedule, 8)
    for s in (0.0, 0.5):
        adiabatic.schedule_generator(m, schedule, s)
    assert folds == [m.real_superops.shape]


def test_a_failed_steady_state_solve_keeps_nothing():
    """A model whose generator has a degenerate fixed space raises on every
    call, and no steady state is kept that a later call could read."""
    m = fixtures.decoupled_qubit()
    for _ in range(2):
        with pytest.raises(extended.NotIrreducibleError):
            m.ess()
        with pytest.raises(extended.NotIrreducibleError):
            m.steady_state
    assert "steady_state" not in vars(m)


# ---------------------------------------------------------------------------
# one-step balance
# ---------------------------------------------------------------------------

def test_one_step_balance_identity(canonical, rng):
    rho = random_density(rng, 2)
    label = "cold"
    spec = canonical.probes[label]
    rep = models.one_step_balance(canonical.u[label], canonical.rho_env[label],
                                  rho, h_env=spec.h_env, beta=spec.beta)
    assert rep["balance_residual"] <= 1e-10
    assert rep["thermal_residual"] <= 1e-10
    assert rep["ep"] >= -1e-12
    # thermal probe: entropy flux = beta * heat
    assert abs(rep["entropy_flux"] - spec.beta * rep["dq"]) < 1e-10


def test_one_step_balance_positive_production_out_of_equilibrium(canonical):
    rho = np.diag([0.9, 0.1])
    rep = models.one_step_balance(canonical.u["hot"], canonical.rho_env["hot"], rho)
    assert rep["ep"] > 1e-4


# ---------------------------------------------------------------------------
# time reversal
# ---------------------------------------------------------------------------

def test_check_tri_canonical_and_broken(canonical, tri_broken):
    assert models.check_tri(canonical)["holds"]
    rep = models.check_tri(tri_broken)
    assert not rep["holds"]
    assert rep["max_residual"] > 1e-2


def test_single_phase_coupling_has_a_gauge(rng):
    """A pure hopping phase is removable: W_sys = diag(1, e^(2 i phi)) restores
    time reversal even though the naive identity check fails."""
    phase = 0.73
    naive = _single_phase_model(phase)
    assert not models.check_tri(naive)["holds"]

    w_s = np.diag([1.0, np.exp(2j * phase)])
    tri = models.TimeReversalData(w_sys=w_s, w_env={"a": np.eye(2), "b": np.eye(2)})
    gauged = _single_phase_model(phase, tri=tri)
    rep = models.check_tri(gauged)
    assert rep["holds"]
    assert rep["max_residual"] < 1e-12


# ---------------------------------------------------------------------------
# equilibrium detection and temperature deformation
# ---------------------------------------------------------------------------

def test_check_equilibrium_equilibrium_model(equilibrium):
    rep = models.check_equilibrium(equilibrium)
    assert rep["is_equilibrium"]
    assert rep["max_residual"] <= 1e-10
    assert abs(rep["entropy_production_rate"]) <= 1e-10
    for v in rep["steady_fluxes"].values():
        assert abs(v) <= 1e-10
    # the steady blocks are the system Gibbs state at the common temperature
    r_plus, _ = equilibrium.ess()
    dec = extended.ess_decompose(equilibrium.generator, r_plus)
    gibbs, _ = thermal_state(equilibrium.h_sys, equilibrium.probes["hot"].beta)
    for label in equilibrium.labels:
        np.testing.assert_allclose(dec.rho_plus[label], gibbs, atol=1e-10)


def test_check_equilibrium_two_temperatures(canonical):
    rep = models.check_equilibrium(canonical)
    assert not rep["is_equilibrium"]
    assert rep["entropy_production_rate"] > 1e-4
    total = sum(rep["steady_fluxes"].values())
    # conservation: steady energy fluxes balance
    assert abs(total) < 1e-12


def test_temperature_deform(equilibrium):
    zeta = np.array([0.1, -0.2])
    deformed = models.temperature_deform(equilibrium, zeta)
    for k, label in enumerate(equilibrium.labels):
        assert deformed.probes[label].beta == pytest.approx(
            equilibrium.probes[label].beta - zeta[k])
    # propagators are temperature independent
    for label in equilibrium.labels:
        np.testing.assert_allclose(deformed.u[label], equilibrium.u[label],
                                   atol=1e-14)
    same = models.temperature_deform(equilibrium, np.zeros(2))
    for label in equilibrium.labels:
        np.testing.assert_allclose(same.channels[label].superop,
                                   equilibrium.channels[label].superop, atol=1e-13)


def test_temperature_deform_refuses_nonpositive_beta(equilibrium):
    with pytest.raises(models.ModelError, match="<= 0"):
        models.temperature_deform(equilibrium, np.array([1.5, 0.0]))


@pytest.mark.parametrize("lookup, error", [
    (lambda m: m.chain.index("warm"), ChainError),
    (lambda m: m.dim_env("warm"), ChainError),
    (lambda m: models.flux_observable(m, "warm"), ChainError),
    (lambda m: models.flux_extended(m, "warm"), ChainError),
    (lambda m: models.unraveling(m, "warm"), ChainError),
    (lambda m: m.steady_state.state.block("warm"), extended.GeneratorError),
], ids=["chain.index", "dim_env", "flux_observable", "flux_extended", "unraveling",
        "block"])
def test_an_unknown_label_is_a_named_error(canonical, lookup, error):
    """A label the chain does not have is named with the chain's labels."""
    with pytest.raises(error) as info:
        lookup(canonical)
    assert str(info.value) == "unknown label 'warm'; labels are ('hot', 'cold')"
