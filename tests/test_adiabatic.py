import re
from pathlib import Path

import numpy as np
import pytest

from mris import adiabatic, extended, fluctuations, models, quantum
from mris.modelfile import load_model

MODELS = Path(__file__).resolve().parent.parent / "models"
MODEL_FILES = ("equilibrium_qubit", "two_temperature_qubit", "tri_broken_qubit")


P_START = np.array([[0.7, 0.3], [0.4, 0.6]])
P_END = np.array([[0.2, 0.8], [0.5, 0.5]])


def test_schedule_validation():
    with pytest.raises(adiabatic.AdiabaticError, match="stochastic"):
        adiabatic.AdiabaticSchedule(np.array([[0.5, 0.6], [0.4, 0.6]]), P_END)
    with pytest.raises(adiabatic.AdiabaticError, match="stochastic"):
        adiabatic.AdiabaticSchedule(P_START, np.array([[-0.1, 1.1], [0.4, 0.6]]))
    with pytest.raises(adiabatic.AdiabaticError, match="stochastic"):
        adiabatic.AdiabaticSchedule(P_START, np.array([[np.nan, 1.0], [0.4, 0.6]]))
    with pytest.raises(adiabatic.AdiabaticError, match="kind"):
        adiabatic.AdiabaticSchedule(P_START, P_END, kind="cubic")
    with pytest.raises(adiabatic.AdiabaticError, match="square"):
        adiabatic.AdiabaticSchedule(np.ones((2, 3)) / 3, P_END)


def test_schedule_interpolates():
    sch = adiabatic.AdiabaticSchedule(P_START, P_END)
    np.testing.assert_allclose(sch.transition_matrix(0.0), P_START)
    np.testing.assert_allclose(sch.transition_matrix(1.0), P_END)
    np.testing.assert_allclose(sch.transition_matrix(0.5), (P_START + P_END) / 2)
    with pytest.raises(adiabatic.AdiabaticError):
        sch.fraction(1.2)


def test_smoothstep_fraction():
    sch = adiabatic.AdiabaticSchedule(P_START, P_END, kind="smoothstep")
    assert sch.fraction(0.0) == 0.0
    assert sch.fraction(1.0) == 1.0
    assert sch.fraction(0.5) == pytest.approx(0.5)
    s = np.linspace(0, 1, 41)
    f = np.array([sch.fraction(v) for v in s])
    assert (np.diff(f) >= 0).all()
    # flat to first order at the endpoints
    assert f[1] < s[1] ** 1.5
    assert 1 - f[-2] < (1 - s[-2]) ** 1.5


def test_schedule_generator_endpoints(canonical):
    sch = adiabatic.AdiabaticSchedule(canonical.chain.P, P_END)
    g0 = adiabatic.schedule_generator(canonical, sch, 0.0)
    np.testing.assert_allclose(g0.matrix, canonical.generator.matrix, atol=1e-13)
    g1 = adiabatic.schedule_generator(canonical, sch, 1.0)
    np.testing.assert_allclose(g1.chain.P, P_END, atol=1e-15)


def test_path_must_stay_primitive(canonical):
    two_cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
    sch = adiabatic.AdiabaticSchedule(canonical.chain.P, two_cycle)
    with pytest.raises(adiabatic.AdiabaticError, match="primitive"):
        adiabatic.adiabatic_evolve(canonical, sch, 64)


def test_default_start_has_no_initial_error(canonical):
    sch = adiabatic.AdiabaticSchedule(canonical.chain.P, P_END)
    res = adiabatic.adiabatic_evolve(canonical, sch, 32)
    assert res.errors[0] < 1e-12
    assert res.epsilon == pytest.approx(1 / 32)
    assert res.instantaneous_gap_min > 0.05
    assert res.plateau_error < 0.1


def test_tracking_error_scales_linearly_in_epsilon(canonical):
    sch = adiabatic.AdiabaticSchedule(canonical.chain.P, P_END, kind="smoothstep")
    coarse = adiabatic.adiabatic_evolve(canonical, sch, 48)
    fine = adiabatic.adiabatic_evolve(canonical, sch, 96)
    ratio = coarse.plateau_error / fine.plateau_error
    assert 1.5 < ratio < 2.5


def test_lagged_start_merges_into_the_plateau(canonical, rng):
    """A start away from R_+(0) decays into the same O(eps) tracking band."""
    sch = adiabatic.AdiabaticSchedule(canonical.chain.P, P_END)
    blocks = canonical.initial_state().blocks
    r0 = extended.ExtendedState(canonical.labels, blocks)
    res = adiabatic.adiabatic_evolve(canonical, sch, 96, r0=r0)
    ref = adiabatic.adiabatic_evolve(canonical, sch, 96)
    assert res.errors[0] > 1e-3
    assert res.plateau_error < 3 * ref.plateau_error + 1e-9


def _stepwise_reference(model, sch, n_steps, r0=None):
    """adiabatic_evolve one generator, one eigensolve and one trace norm per
    schedule point, through the public single-matrix functions."""
    tol = model.tol
    gap_min = np.inf
    for s in np.linspace(0.0, 1.0, 20):
        cls = extended.classify_generator(adiabatic.schedule_generator(model, sch, s), tol)
        assert cls.kind == "primitive"
        gap_min = min(gap_min, cls.gap)
    r = r0
    if r is None:
        r, _ = extended.find_ess(adiabatic.schedule_generator(model, sch, 0.0), tol)
    errors = []
    for k, s in enumerate(np.arange(n_steps + 1) / n_steps):
        g = adiabatic.schedule_generator(model, sch, s)
        if k > 0:
            r = g.apply(r)
        ess, _ = extended.find_ess(g, tol)
        errors.append(sum(quantum.trace_norm(r.blocks[j] - ess.blocks[j])
                          for j in range(model.chain.n)))
    return np.array(errors), gap_min


@pytest.mark.parametrize("name", MODEL_FILES)
def test_batched_sweep_equals_stepwise_reference_bitwise(name):
    model = load_model(str(MODELS / f"{name}.json"))
    for kind in ("linear", "smoothstep"):
        sch = adiabatic.AdiabaticSchedule(model.chain.P, P_END, kind=kind)
        for n in (32, 48, 96):
            res = adiabatic.adiabatic_evolve(model, sch, n)
            errors, gap_min = _stepwise_reference(model, sch, n)
            assert res.errors.tobytes() == errors.tobytes(), (kind, n)
            assert res.instantaneous_gap_min == gap_min
    r0 = extended.ExtendedState(model.labels, model.initial_state().blocks)
    res = adiabatic.adiabatic_evolve(model, sch, 48, r0=r0)
    errors, _ = _stepwise_reference(model, sch, 48, r0=r0)
    assert res.errors[0] > 1e-3
    assert res.errors.tobytes() == errors.tobytes()


def test_two_cycle_rejection_names_the_failing_point(canonical):
    two_cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
    sch = adiabatic.AdiabaticSchedule(canonical.chain.P, two_cycle)
    msg = ("instantaneous generator at s=1.000 is irreducible_periodic; the "
           "tracking bound needs a primitive family")
    with pytest.raises(adiabatic.AdiabaticError, match=re.escape(msg) + "$"):
        adiabatic.adiabatic_evolve(canonical, sch, 64)


def test_start_state_must_match_the_model(canonical):
    sch = adiabatic.AdiabaticSchedule(canonical.chain.P, P_END)
    blocks = canonical.initial_state().blocks
    relabelled = extended.ExtendedState(("a", "b"), blocks)
    with pytest.raises(adiabatic.AdiabaticError, match="labels"):
        adiabatic.adiabatic_evolve(canonical, sch, 16, r0=relabelled)
    wide = extended.ExtendedState(canonical.labels, np.zeros((2, 3, 3)))
    with pytest.raises(adiabatic.AdiabaticError, match=r"\(2, 3, 3\).*\(2, 2, 2\)"):
        adiabatic.adiabatic_evolve(canonical, sch, 16, r0=wide)


def test_eigensolve_count_does_not_grow_with_the_step_count(canonical, monkeypatch):
    """The sweep solves stacks of schedule points, not one point per call."""
    sch = adiabatic.AdiabaticSchedule(canonical.chain.P, P_END)
    eigvals = np.linalg.eigvals
    calls = []

    def counting_eigvals(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    counts = []
    for n in (64, 256):
        calls.clear()
        adiabatic.adiabatic_evolve(canonical, sch, n)
        counts.append(len(calls))
    assert counts[0] >= 1
    assert counts[0] == counts[1]


def test_one_eigensolve_per_sweep_and_no_rebuild_in_linear_response(
        canonical, equilibrium, monkeypatch):
    """Regression guard: the tracking grid takes its steady states from the
    bordered solve, so a sweep runs one eigenvalue solve (the primitivity
    stack) and no eigenvector solve whatever its length, as does one
    classification; the linear response rebuilds no model."""
    calls = {"eig": 0, "eigvals": 0, "build_model": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(np.linalg, "eig")
    counting(np.linalg, "eigvals")
    counting(models, "build_model")
    sch = adiabatic.AdiabaticSchedule(canonical.chain.P, P_END)
    for n in (16, 300, 700):
        calls.update(eig=0, eigvals=0)
        adiabatic.adiabatic_evolve(canonical, sch, n)
        assert (calls["eig"], calls["eigvals"]) == (0, 1), n
    calls.update(eig=0, eigvals=0)
    extended.find_ess(canonical.generator, canonical.tol)
    assert (calls["eig"], calls["eigvals"]) == (0, 0)
    extended.classify_generator(canonical.generator, canonical.tol)
    assert (calls["eig"], calls["eigvals"]) == (0, 1)
    fluctuations.kinetic_coefficients(equilibrium)
    assert calls["build_model"] == 0
