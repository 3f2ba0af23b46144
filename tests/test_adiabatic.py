import re
from pathlib import Path

import numpy as np
import pytest

from mris import adiabatic, extended, fixtures, fluctuations, models, quantum
from mris.modelfile import load_model
from test_extended import _blockwise_ess_coords

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


def test_step_count_must_be_an_integer():
    model = fixtures.two_temperature_qubit()
    sched = adiabatic.AdiabaticSchedule(model.chain.P, P_END)
    with pytest.raises(adiabatic.AdiabaticError, match="n_steps must be an integer, got 4.5$"):
        adiabatic.adiabatic_evolve(model, sched, 4.5)


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
    assert g0.matrix.tobytes() == canonical.generator.matrix.tobytes()
    g1 = adiabatic.schedule_generator(canonical, sch, 1.0)
    np.testing.assert_allclose(g1.chain.P, P_END, atol=1e-15)


def test_path_must_stay_primitive(canonical):
    two_cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
    sch = adiabatic.AdiabaticSchedule(canonical.chain.P, two_cycle)
    with pytest.raises(adiabatic.AdiabaticError, match="primitive"):
        adiabatic.adiabatic_evolve(canonical, sch, 64)


def test_path_is_checked_by_every_call_and_a_failing_path_raises_every_time():
    """Each sweep is its own: a failing path raises again, and a repeated
    sweep on a model equals the first sweep of a fresh model byte for byte."""
    model = fixtures.two_temperature_qubit()
    two_cycle = adiabatic.AdiabaticSchedule(model.chain.P, [[0.0, 1.0], [1.0, 0.0]])
    for _ in range(2):
        with pytest.raises(adiabatic.AdiabaticError, match="primitive"):
            adiabatic.adiabatic_evolve(model, two_cycle, 16)
    for kind in ("linear", "smoothstep"):
        sch = adiabatic.AdiabaticSchedule(model.chain.P, P_END, kind=kind)
        fresh = adiabatic.adiabatic_evolve(fixtures.two_temperature_qubit(), sch, 32)
        for _ in range(2):
            again = adiabatic.adiabatic_evolve(model, sch, 32)
            assert again.instantaneous_gap_min == fresh.instantaneous_gap_min
            assert again.errors.tobytes() == fresh.errors.tobytes()


def test_default_start_has_no_initial_error(canonical):
    sch = adiabatic.AdiabaticSchedule(canonical.chain.P, P_END)
    res = adiabatic.adiabatic_evolve(canonical, sch, 32)
    assert res.errors[0] < 1e-12
    assert res.n_steps == 32 and len(res.errors) == 33      # epsilon = 1 / 32
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


def _reference_classification(w, tol):
    """Kind, gap and eigenvalue-1 multiplicity of one spectrum, read one
    point at a time as the classification read them before it took stacks."""
    mult = int((np.abs(w - 1.0) <= tol.peripheral).sum())
    on_circle = np.abs(w) >= 1.0 - tol.peripheral
    inner = np.abs(w[~on_circle])
    gap = float("inf") if inner.size == 0 else float(-np.log(max(inner.max(), 1e-300)))
    if mult != 1:
        kind = "reducible"
    elif on_circle.sum() == 1 and gap > tol.gap:
        kind = "primitive"
    else:
        kind = "irreducible_periodic"
    return kind, gap, mult


def _real_generator_at(model, sch, s):
    """The real generator T M(s) T^H assembled block by block: block (w, v)
    is P(s)[v, w] U S_v U^H."""
    p, real = sch.transition_matrix(s), model.real_superops
    return np.block([[p[v, w] * real[v] if p[v, w] != 0.0 else np.zeros_like(real[v])
                      for v in range(len(p))] for w in range(len(p))])


def _stepwise_reference(model, sch, n_steps, r0=None):
    """adiabatic_evolve one generator, one eigensolve, one steady state and
    one trace norm per schedule point, in the real coordinates."""
    tol = model.tol
    m, d = model.chain.n, model.dim_sys
    gap_min = np.inf
    for s in np.linspace(0.0, 1.0, 20):
        kind, gap, _ = _reference_classification(
            np.linalg.eigvals(_real_generator_at(model, sch, s)), tol)
        assert kind == "primitive"
        gap_min = min(gap_min, gap)
    x = None if r0 is None else extended._coords(r0.blocks)
    errors = []
    for k, s in enumerate(np.arange(n_steps + 1) / n_steps):
        mat = _real_generator_at(model, sch, s)
        ess = _blockwise_ess_coords(mat, m, d, tol)
        x = ess if x is None else (mat @ x if k > 0 else x)
        blocks = extended._blocks(x - ess, m, d)
        errors.append(sum(np.abs(np.linalg.eigvalsh(b)).sum() for b in blocks))
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


def _complex_sweep(model, sch, n_steps):
    """The sweep as it ran in the complex vec(rho) layout: the complex
    generators assembled from the channel superoperators, their eigenvalues,
    the bordered solve with the trace functional vec(1), the steady state
    phase-fixed, Hermitized, clipped and renormalized, and svd trace norms."""
    tol = model.tol
    m, d = model.chain.n, model.dim_sys
    superops = [model.channels[l].superop for l in model.labels]

    def generator(s):
        return extended._generator_stack(sch.transition_matrix(s)[None], superops)[0]

    gens = [generator(s) for s in np.arange(n_steps + 1) / n_steps]
    gap_min = min(_reference_classification(np.linalg.eigvals(generator(s)), tol)[1]
                  for s in np.linspace(0.0, 1.0, 20))
    trace = np.tile(np.eye(d).reshape(-1), m)
    u = trace / (m * d)
    r, errors = None, []
    for k, g in enumerate(gens):
        a = np.eye(len(g)) - g + np.outer(u, trace)
        a_inv = np.linalg.inv(a)
        x = a_inv @ u
        ess = extended.big_unvec(x + a_inv @ (u - a @ x), m, d)
        t = complex(np.trace(ess, axis1=1, axis2=2).sum())
        ess = ess * (t.conjugate() / (abs(t) * abs(t)))
        ess = (ess + ess.conj().transpose(0, 2, 1)) / 2
        ew, ev = np.linalg.eigh(ess)
        ess = (ev * np.clip(ew, 0.0, None)[:, None, :]) @ ev.conj().transpose(0, 2, 1)
        ess /= np.trace(ess, axis1=1, axis2=2).sum().real
        r = ess if r is None else extended.big_unvec(g @ extended.big_vec(r), m, d)
        errors.append(np.linalg.svd(r - ess, compute_uv=False).sum())
    return np.array(errors), gap_min


@pytest.mark.parametrize("name", MODEL_FILES)
def test_real_sweep_matches_the_complex_sweep(name):
    model = load_model(str(MODELS / f"{name}.json"))
    for kind in ("linear", "smoothstep"):
        sch = adiabatic.AdiabaticSchedule(model.chain.P, P_END, kind=kind)
        res = adiabatic.adiabatic_evolve(model, sch, 64)
        errors, gap_min = _complex_sweep(model, sch, 64)
        assert np.abs(res.errors - errors).max() <= 1e-14
        assert abs(res.instantaneous_gap_min - gap_min) <= 1e-14


HARNESS_STEPS = (64, 128, 256)


def test_nested_sweeps_equal_a_fresh_sweep_bitwise():
    """The 256-step sweep that follows the 64- and 128-step sweeps of the
    same schedule equals one on a fresh model byte for byte."""
    warm = fixtures.two_temperature_qubit()
    for kind in ("linear", "smoothstep"):
        sch = adiabatic.AdiabaticSchedule(warm.chain.P, P_END, kind=kind)
        for n in HARNESS_STEPS:
            res = adiabatic.adiabatic_evolve(warm, sch, n)
        cold = adiabatic.adiabatic_evolve(fixtures.two_temperature_qubit(), sch, 256)
        assert res.errors.tobytes() == cold.errors.tobytes()
        assert res.instantaneous_gap_min == cold.instantaneous_gap_min


@pytest.fixture
def solved(monkeypatch):
    """The sizes of the stacks of steady states solved, in call order."""
    ess_stack = extended._ess_stack
    sizes = []

    def counting(mats, *args):
        sizes.append(len(mats))
        return ess_stack(mats, *args)

    monkeypatch.setattr(extended, "_ess_stack", counting)
    return sizes


def test_steady_states_solved_over_the_nested_sweeps(solved):
    """Each sweep solves its own points: the 64/128/256 triple solves
    65 + 129 + 257 = 451 steady states per schedule, on every repeat."""
    model = fixtures.two_temperature_qubit()
    for kind in ("linear", "smoothstep"):
        sch = adiabatic.AdiabaticSchedule(model.chain.P, P_END, kind=kind)
        for _ in range(2):
            solved.clear()
            for n in HARNESS_STEPS:
                adiabatic.adiabatic_evolve(model, sch, n)
            assert sum(solved) == 451, kind


def test_a_sweep_longer_than_one_stack_keeps_nothing(solved):
    """A sweep of 512 steps solves its 513 points in two stacks whatever ran
    before it, with the bits of a sweep on a fresh model."""
    model = fixtures.two_temperature_qubit()
    sch = adiabatic.AdiabaticSchedule(model.chain.P, P_END)
    fresh = adiabatic.adiabatic_evolve(fixtures.two_temperature_qubit(), sch, 512)
    for n in (300, 64, 512):
        solved.clear()
        res = adiabatic.adiabatic_evolve(model, sch, n)
    assert solved == [257, 256]
    assert res.errors.tobytes() == fresh.errors.tobytes()


def test_vectorized_grid_classification_equals_the_per_point_one(canonical):
    """The primitivity grid towards the two-cycle ends in a periodic
    generator; with an identity generator added, every kind occurs."""
    sch = adiabatic.AdiabaticSchedule(canonical.chain.P, [[0.0, 1.0], [1.0, 0.0]])
    mats = extended._generator_stack(sch.transition_matrix(np.linspace(0.0, 1.0, 20)),
                                     canonical.real_superops)
    w = np.linalg.eigvals(np.concatenate([mats, np.eye(8)[None]]))
    kind, gap, mult, _ = extended._spectrum_kinds(w, canonical.tol)
    assert set(kind) == {"primitive", "irreducible_periodic", "reducible"}
    for k in range(len(w)):
        assert (kind[k], gap[k], mult[k]) == _reference_classification(w[k], canonical.tol)
    # an aperiodic spectrum whose gap does not clear tol.gap is not primitive
    slow = canonical.tol.replace(gap=1e-3)
    w = np.array([[1.0, 0.9999, 0.5, 0.1], [1.0, 0.99, 0.5, 0.1]])
    kind, gap, mult, _ = extended._spectrum_kinds(w, slow)
    assert list(kind) == ["irreducible_periodic", "primitive"]
    for k in range(len(w)):
        assert (kind[k], gap[k], mult[k]) == _reference_classification(w[k], slow)
    # classify_generator reads its one spectrum as a stack of one
    end = extended.ExtendedGenerator(canonical.labels, 2, mats[-1])
    cls = extended.classify_generator(end, canonical.tol)
    want = _reference_classification(np.linalg.eigvals(end.matrix), canonical.tol)
    assert (cls.kind, cls.gap, cls.eigenvalue_one_multiplicity) == want
    assert cls.period == 2 and cls.peripheral_match_roots


def test_two_cycle_rejection_names_the_failing_point(canonical):
    two_cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
    sch = adiabatic.AdiabaticSchedule(canonical.chain.P, two_cycle)
    msg = ("instantaneous generator at s=1.000 is irreducible_periodic; the "
           "tracking bound needs a primitive family")
    with pytest.raises(adiabatic.AdiabaticError, match=re.escape(msg) + "$"):
        adiabatic.adiabatic_evolve(canonical, sch, 64)


def test_start_state_must_be_an_extended_state(canonical):
    """The sweep runs in the real coordinates, which would drop an
    anti-Hermitian part of r0 without a word: r0 is checked first."""
    sch = adiabatic.AdiabaticSchedule(canonical.chain.P, P_END)
    blocks = canonical.initial_state().blocks
    skew = blocks.copy()
    skew[0, 0, 1] += 0.3j
    heavy = 5.0 * blocks
    for bad, cause in ((skew, "not Hermitian"), (heavy, "total trace")):
        with pytest.raises(adiabatic.AdiabaticError,
                           match=f"^r0 is not an extended state: .*{cause}"):
            adiabatic.adiabatic_evolve(canonical, sch, 16,
                                       r0=extended.ExtendedState(canonical.labels, bad))


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
    """The sweep solves stacks of schedule points, not one point per call:
    each sweep of any length makes one eigvals call, its primitivity grid."""
    sch = adiabatic.AdiabaticSchedule(canonical.chain.P, [[0.25, 0.75], [0.55, 0.45]])
    eigvals = np.linalg.eigvals
    calls = []

    def counting_eigvals(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    counts = []
    for n in (64, 256, 64):
        calls.clear()
        adiabatic.adiabatic_evolve(canonical, sch, n)
        counts.append(len(calls))
    assert counts == [1, 1, 1]


def test_one_eigensolve_per_sweep_and_no_rebuild_in_linear_response(
        canonical, equilibrium, monkeypatch):
    """Regression guard: the tracking grid takes its steady states from the
    bordered solve, so a sweep runs no eigenvector solve whatever its
    length, and one eigenvalue solve (the primitivity stack) per sweep, as
    does one classification; the linear response rebuilds no model."""
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
    sch = adiabatic.AdiabaticSchedule(canonical.chain.P, [[0.3, 0.7], [0.45, 0.55]],
                                      kind="smoothstep")
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
