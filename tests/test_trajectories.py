import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import random_density
from mris import chains, extended, fixtures, models, trajectories
from mris.chains import MarkovChain
from mris.tolerances import DEFAULT
from mris.trajectories import TrajectoryConfig


def test_trajectory_config_validation():
    with pytest.raises(trajectories.TrajectoryError):
        TrajectoryConfig(n_steps=0, n_traj=1, seed=0)
    with pytest.raises(trajectories.TrajectoryError):
        TrajectoryConfig(n_steps=1, n_traj=1, seed=0, chunk=0)
    with pytest.raises(trajectories.TrajectoryError):
        TrajectoryConfig(n_steps=1, n_traj=1, seed=0, initial="blah")


def test_simulate_states_matches_one_step_oracle(canonical, rng):
    path = ["hot", "cold", "cold", "hot"]
    rho0 = random_density(rng, 2)
    states = trajectories.simulate_states(canonical, path, rho0=rho0)
    np.testing.assert_allclose(states[0], rho0, atol=1e-15)
    rho = rho0
    for k, label in enumerate(path[1:], start=1):
        rho = oracles.reduced_map_oracle(canonical.u[label],
                                         canonical.rho_env[label], rho)
        np.testing.assert_allclose(states[k], rho, atol=1e-13)
        assert abs(np.trace(states[k]) - 1) < 1e-12


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------

def _oracle_branches(model, n):
    labels = model.labels
    return oracles.full_statistics_oracle(
        model.chain.pi, model.chain.P,
        [model.rho_init[l] for l in labels],
        [model.u[l] for l in labels],
        [model.rho_env[l] for l in labels], n)


def _svec_law(pairs, decimals=9):
    law = {}
    for prob, svec in pairs:
        key = tuple(np.round(svec, decimals))
        law[key] = law.get(key, 0.0) + prob
    return law


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumeration_against_branch_oracle(canonical, n):
    dist = trajectories.enumerate_full_statistics(canonical, n)
    assert abs(dist.total_probability() - 1.0) < 1e-12
    assert dist.probs.min() > -1e-14

    branches = _oracle_branches(canonical, n)
    # the joint law of the per-probe entropy vector must agree exactly
    law = _svec_law(zip(dist.probs, dist.svecs))
    want = _svec_law((p, s) for p, s, _ in branches)
    assert set(law) == set(want)
    for key in want:
        assert abs(law[key] - want[key]) < 1e-12

    for alpha in ([0.0, 0.0], [0.4, -0.3], [1.0, 1.0], [-0.8, 0.2]):
        got = dist.deformed_expectation(alpha)
        ref = oracles.deformed_expectation_oracle(branches, np.asarray(alpha))
        assert abs(got - ref) < 1e-12


def test_enumeration_guard_trips():
    m = fixtures.two_temperature_qubit()
    with pytest.raises(trajectories.TrajectoryError, match="guard"):
        trajectories.enumerate_full_statistics(m, 9)


def test_enumeration_word_bookkeeping(canonical):
    dist = trajectories.enumerate_full_statistics(canonical, 2)
    assert dist.words.shape == (len(dist.probs), 2, 2)
    # replaying the word's deltas must reproduce the branch svec
    for b in range(0, len(dist.probs), 7):
        svec = np.zeros(2)
        for w, x in dist.words[b]:
            svec[w] += canonical.unravelings[canonical.labels[w]].deltas[x]
        np.testing.assert_allclose(svec, dist.svecs[b], atol=1e-14)


# ---------------------------------------------------------------------------
# the sampling engine
# ---------------------------------------------------------------------------

def test_sampler_bitwise_deterministic_across_chunks_and_threads(canonical):
    base = TrajectoryConfig(n_steps=60, n_traj=45, seed=99)
    ref = trajectories.sample_entropy_process(canonical, base)
    for chunk, threads in ((7, 1), (512, 3), (11, 4)):
        cfg = TrajectoryConfig(n_steps=60, n_traj=45, seed=99,
                               chunk=chunk, n_threads=threads)
        got = trajectories.sample_entropy_process(canonical, cfg)
        assert np.array_equal(got.svec, ref.svec)
        assert got.floored == ref.floored


def test_sampler_reproduces_exact_law(canonical):
    """At n = 3 the sampled entropy vectors must follow the enumerated law."""
    n, t = 3, 4000
    dist = trajectories.enumerate_full_statistics(canonical, n, keep_words=False)
    law = _svec_law(zip(dist.probs, dist.svecs))

    sample = trajectories.sample_entropy_process(
        canonical, TrajectoryConfig(n_steps=n, n_traj=t, seed=2024))
    counts = {}
    for row in np.round(sample.svec, 9):
        key = tuple(row)
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) <= set(law)

    for key, p in law.items():
        if p < 5e-4:
            continue
        freq = counts.get(key, 0) / t
        sigma = math.sqrt(p * (1 - p) / t)
        assert abs(freq - p) < 4 * sigma, (key, freq, p)


def test_empirical_cumulant_agrees_with_exact_moment(canonical):
    n, t = 3, 4000
    alpha = np.array([0.3, -0.2])
    dist = trajectories.enumerate_full_statistics(canonical, n, keep_words=False)
    sample = trajectories.sample_entropy_process(
        canonical, TrajectoryConfig(n_steps=n, n_traj=t, seed=77))
    vals = np.exp(-sample.svec @ alpha)
    z = (vals.mean() - dist.deformed_expectation(alpha)) / (vals.std(ddof=1) / math.sqrt(t))
    assert abs(z) < 4
    # and the log form is just the stabilized version of the same number
    assert abs(math.exp(n * trajectories.empirical_cumulant(sample, alpha))
               - vals.mean()) < 1e-12


def test_empirical_cumulant_is_stable_for_large_exponents(canonical):
    cfg = TrajectoryConfig(n_steps=4, n_traj=3, seed=0)
    svec = np.array([[-1.0, 2.0], [0.5, -0.3], [1.5, 1.0]])
    alpha = np.array([0.7, -0.4])
    moderate = trajectories.EntropySample(canonical.labels, cfg, svec, 0)
    direct = np.log(np.mean(np.exp(-svec @ alpha))) / cfg.n_steps
    assert abs(trajectories.empirical_cumulant(moderate, alpha) - direct) < 1e-15
    for shift in (800.0, -800.0):
        big = trajectories.EntropySample(canonical.labels, cfg, svec + shift, 0)
        got = trajectories.empirical_cumulant(big, np.array([1.0, 1.0]))
        want = (np.log(np.mean(np.exp(-svec.sum(axis=1)))) - 2 * shift) / cfg.n_steps
        assert np.isfinite(got)
        assert abs(got - want) < 1e-12 * abs(want)


def test_sampler_flags_corrupted_outcome_law():
    m = fixtures.two_temperature_qubit()
    entry = m.unravelings["hot"]
    entry._prob_ops = entry._prob_ops * 1.01
    with pytest.raises(trajectories.NumericalCorruption):
        trajectories.sample_entropy_process(
            m, TrajectoryConfig(n_steps=20, n_traj=8, seed=5))


def test_sampler_flags_nan_outcome_law():
    m = fixtures.two_temperature_qubit()
    entry = m.unravelings["hot"]
    entry._prob_ops = entry._prob_ops * np.nan
    with pytest.raises(trajectories.NumericalCorruption,
                       match=r"outcome law defective at step \d+ of trajectory \d+"):
        trajectories.sample_entropy_process(
            m, TrajectoryConfig(n_steps=20, n_traj=8, seed=5))


def test_sampler_with_active_outcome_floor_is_chunk_independent():
    """Floored outcomes leave the draw but the state is renormalized by the
    raw probability of the drawn outcome, so the outcome law keeps summing to
    one and each trajectory's arithmetic ignores its chunk neighbours."""
    m = fixtures.two_temperature_qubit(tol=DEFAULT.replace(prob_floor=1e-3))
    runs = [trajectories.sample_entropy_process(
                m, TrajectoryConfig(n_steps=100, n_traj=40, seed=0, chunk=chunk))
            for chunk in (1, 7, 512)]
    assert runs[0].floored > 0
    for got in runs[1:]:
        assert np.array_equal(got.svec, runs[0].svec)
        assert got.floored == runs[0].floored


def test_decoupled_model_exchanges_nothing(decoupled):
    sample = trajectories.sample_entropy_process(
        decoupled, TrajectoryConfig(n_steps=40, n_traj=12, seed=3))
    assert np.all(sample.svec == 0.0)


@pytest.mark.parametrize("label,fault,chunk,where", [
    ("hot", "nan", 512, "step 1 of trajectory 1"),
    ("hot", "negative", 7, "step 3 of trajectory 1"),
    ("hot", "negative", 512, "step 2 of trajectory 13"),
    ("cold", "negative", 3, "step 8 of trajectory 0"),
    ("cold", "negative", 7, "step 3 of trajectory 5"),
])
def test_corruption_names_the_first_bad_step_and_trajectory(label, fault, chunk,
                                                            where):
    """Chunks are stepped one after another, so the error names the first
    bad step of the first chunk that has one, and its first bad trajectory
    (positions frozen from the complex vec(rho) kernel)."""
    m = fixtures.two_temperature_qubit()
    entry = m.unravelings[label]
    ops = entry._prob_ops * (np.nan if fault == "nan" else 1.0)
    if fault == "negative":
        # outcome 1 loses weight to outcome 2: the sum stays one
        ops[1] -= 0.05 * np.eye(2)
        ops[2] += 0.05 * np.eye(2)
    entry._prob_ops = ops
    with pytest.raises(trajectories.NumericalCorruption,
                       match=f"outcome law defective at {where} "):
        trajectories.sample_entropy_process(
            m, TrajectoryConfig(n_steps=30, n_traj=20, seed=5, chunk=chunk))


def test_non_hermiticity_preserving_map_is_an_error_not_dropped():
    m = fixtures.two_temperature_qubit()
    cfg = TrajectoryConfig(n_steps=5, n_traj=3, seed=0)
    entry = m.unravelings["hot"]
    plain = entry._superops
    # a phase of round-off size is accepted, one above it is not
    entry._superops = plain * np.exp(1e-15j)
    trajectories.sample_entropy_process(m, cfg)
    entry._superops = plain * np.exp(1e-6j)
    with pytest.raises(trajectories.RealBasisError,
                       match="superoperators not real in the Hermitian basis"):
        trajectories.sample_entropy_process(m, cfg)


def test_tolerated_anti_hermitian_part_of_a_start_state_is_dropped():
    """Within the model's Hermiticity tolerance a start state may carry an
    anti-Hermitian part; it reaches no outcome probability, so the sample is
    that of the Hermitian part."""
    base = fixtures.two_temperature_qubit()
    skew = 5e-11j * np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]])
    cfg = TrajectoryConfig(n_steps=300, n_traj=100, seed=8)
    samples = []
    for shift in (skew, 0.0):
        rho = {l: base.rho_init[l] + shift for l in base.labels}
        m = models.build_model(base.h_sys, base.chain, base.probes, rho)
        samples.append(trajectories.sample_entropy_process(m, cfg))
    assert np.array_equal(samples[0].svec, samples[1].svec)


def test_sampler_memory_does_not_grow_with_the_step_count():
    """Uniforms are streamed in blocks of steps, so no (trajectories, steps)
    buffer is held: the traced peak at 4000 steps is that of 500 steps."""
    m = fixtures.two_temperature_qubit()
    trajectories.sample_entropy_process(m, TrajectoryConfig(4, 4, seed=0))
    peaks = {}
    tracemalloc.start()
    try:
        for n in (500, 4000):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            trajectories.sample_entropy_process(
                m, TrajectoryConfig(n_steps=n, n_traj=8, seed=1))
            peaks[n] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peaks[4000] <= 1.25 * peaks[500], peaks


# ---------------------------------------------------------------------------
# frozen results of the complex vec(rho) kernel the real-basis engine
# replaced: sha256 prefixes of the arrays' bytes, recorded on x86-64 with
# numpy 2.4 and OpenBLAS (a different LAPACK may round the model tables, and
# so these bytes, differently).  Draws, totals and floor counts are bitwise
# those of that kernel; ergodic averages agree to rounding.
# ---------------------------------------------------------------------------

def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


FROZEN_MODELS = {
    "two_temperature": fixtures.two_temperature_qubit,
    "random7": lambda: fixtures.random_model(7, n_labels=4),
    "floor_1e-3": lambda: fixtures.two_temperature_qubit(
        tol=DEFAULT.replace(prob_floor=1e-3)),
}

# (model, initial) -> (svec digest, floored) at 150 steps x 40 trajectories, seed 31
FROZEN_SVEC = {
    ("two_temperature", "model"): ("fd0a38cd80bd3891", 0),
    ("two_temperature", "stationary"): ("280dcdf8462d887d", 0),
    ("random7", "model"): ("732276eff1b69aaf", 0),
    ("random7", "stationary"): ("d746eea19e9c6c12", 0),
    ("floor_1e-3", "model"): ("fd0a38cd80bd3891", 73),
    ("floor_1e-3", "stationary"): ("280dcdf8462d887d", 258),
}


@pytest.mark.parametrize("chunk", [7, 512])
@pytest.mark.parametrize("name,initial", sorted(FROZEN_SVEC))
def test_sampler_matches_frozen_kernel_bitwise(name, initial, chunk):
    sample = trajectories.sample_entropy_process(
        FROZEN_MODELS[name](),
        TrajectoryConfig(n_steps=150, n_traj=40, seed=31, initial=initial,
                         chunk=chunk))
    assert (_digest(sample.svec), sample.floored) == FROZEN_SVEC[name, initial]


@pytest.mark.parametrize("chunk", [7, 512])
def test_kept_increments_match_frozen_kernel_bitwise(chunk):
    sample = trajectories.sample_entropy_process(
        FROZEN_MODELS["random7"](),
        TrajectoryConfig(n_steps=120, n_traj=30, seed=5, initial="stationary",
                         chunk=chunk, keep_increments=True))
    got = [_digest(a) for a in (sample.svec, sample.increments, sample.step_labels)]
    assert got == ["82a9a5eedddcbb98", "134b01f7927c7600", "14db956e74aa632e"]
    assert sample.floored == 0


FROZEN_ERGODIC = {
    "two_temperature": ["0x1.0044cfe0a7608p-7", "0x1.0649d1ef53516p-7",
                        "0x1.056152710cd5ep-7", "0x1.06d0d500ecd78p-7",
                        "0x1.e870ec36d8c34p-8"],
    "random7": ["-0x1.6809af51ea54ep-6", "-0x1.59ba82a7ad1b2p-6",
                "-0x1.7209a54eb7e96p-6", "-0x1.4585f75ab381dp-6",
                "-0x1.6b8fe0f5dcbdfp-6"],
}


@pytest.mark.parametrize("name", sorted(FROZEN_ERGODIC))
def test_ergodic_average_matches_frozen_kernel(name):
    m = FROZEN_MODELS[name]()
    est = trajectories.ergodic_average(
        m, models.flux_extended(m, m.labels[0]),
        TrajectoryConfig(n_steps=200, n_traj=5, seed=12, initial="stationary"))
    want = np.array([float.fromhex(v) for v in FROZEN_ERGODIC[name]])
    assert np.abs(est.per_traj - want).max() <= 1e-14 * np.abs(want).max()


# ---------------------------------------------------------------------------
# ergodic averages
# ---------------------------------------------------------------------------

def test_ergodic_average_hits_steady_expectation(canonical):
    x = models.flux_extended(canonical, "hot")
    r_plus, _ = canonical.ess()
    exact = extended.expectation(r_plus, x)
    est = trajectories.ergodic_average(
        canonical, x,
        TrajectoryConfig(n_steps=2000, n_traj=200, seed=11, initial="stationary"))
    assert est.stderr > 0
    assert abs(est.mean - exact) < 4 * est.stderr


def test_ergodic_average_bitwise_deterministic_across_chunks_and_threads(canonical):
    x = models.flux_extended(canonical, "hot")
    base = TrajectoryConfig(n_steps=60, n_traj=45, seed=99)
    ref = trajectories.ergodic_average(canonical, x, base)
    for chunk, threads in ((7, 1), (512, 3), (11, 4)):
        cfg = TrajectoryConfig(n_steps=60, n_traj=45, seed=99,
                               chunk=chunk, n_threads=threads)
        got = trajectories.ergodic_average(canonical, x, cfg)
        assert np.array_equal(got.per_traj, ref.per_traj)


def test_ergodic_average_pairs_observable_with_entering_state(canonical):
    """One step, one trajectory: the estimate must be tr(rho_0 X(w_1)), i.e.
    the state entering the interaction, not the one leaving it."""
    cfg = TrajectoryConfig(n_steps=1, n_traj=1, seed=1)
    x = models.flux_extended(canonical, "cold")
    est = trajectories.ergodic_average(canonical, x, cfg)
    # replay the same path by hand: trajectory 0 of a model start draws its
    # labels from the first two uniforms of stream seed + 0
    path = chains.sample_path_indices(canonical.chain, 1, cfg.seed)
    w0, w1 = (canonical.labels[i] for i in path)
    want = np.trace(canonical.rho_init[w0] @ x.block(w1)).real
    assert abs(est.mean - want) < 1e-14


# ---------------------------------------------------------------------------
# flux autocorrelation
# ---------------------------------------------------------------------------

def test_autocorrelation_requires_kept_increments(canonical):
    sample = trajectories.sample_entropy_process(
        canonical, TrajectoryConfig(n_steps=10, n_traj=4, seed=1))
    with pytest.raises(trajectories.TrajectoryError):
        trajectories.flux_autocorrelation(sample, "hot", "hot")


def test_autocorrelation_empirical_matches_analytic(canonical):
    sample = trajectories.sample_entropy_process(
        canonical, TrajectoryConfig(n_steps=3000, n_traj=300, seed=8,
                                    initial="stationary", keep_increments=True))
    for omega in canonical.labels:
        for nu in canonical.labels:
            exact = trajectories.flux_autocorrelation(canonical, omega, nu,
                                                      max_lag=5)
            emp = trajectories.flux_autocorrelation(sample, omega, nu, max_lag=5)
            assert emp.mode == "empirical"
            for k in range(6):
                z = (emp.values[k] - exact.values[k]) / emp.stderr[k]
                assert abs(z) < 4, (omega, nu, k, z)


def test_autocorrelation_decays(canonical):
    exact = trajectories.flux_autocorrelation(canonical, "hot", "hot", max_lag=40)
    assert abs(exact.values[40]) < 1e-3 * abs(exact.values[0])


def _recursive_enumeration(model, n):
    """Depth-first reference: (probs, svecs, words) leaf by leaf."""
    m, d = model.chain.n, model.dim_sys
    entries = [model.unravelings[l] for l in model.labels]
    leaves = []

    def recurse(k, w_now, v, svec, word):
        if k == n:
            leaves.append((np.trace(v.reshape(d, d).T).real, svec, word))
            return
        for w in range(m):
            cw = model.chain.P[w_now, w]
            if cw <= model.tol.edge:
                continue
            for x in range(entries[w].n_outcomes):
                s = svec.copy()
                s[w] += entries[w].deltas[x]
                recurse(k + 1, w, cw * (entries[w]._superops[x] @ v), s,
                        word + [(w, x)])

    r0 = model.initial_state()
    for w1 in range(m):
        v0 = r0.blocks[w1].T.reshape(-1)
        for x in range(entries[w1].n_outcomes):
            s = np.zeros(m)
            s[w1] = entries[w1].deltas[x]
            recurse(1, w1, entries[w1]._superops[x] @ v0, s, [(w1, x)])
    probs, svecs, words = zip(*leaves)
    return np.array(probs), np.array(svecs), np.array(words)


def _sparse_mixed_model():
    """Three labels, two missing chain edges, and a qutrit probe whose nine
    outcomes pad the two qubit probes' four."""
    base = fixtures.random_model(11, n_labels=3)
    a = np.random.default_rng(3).normal(size=(6, 6))
    probes = dict(base.probes)
    probes["w1"] = models.ProbeSpec(h_env=np.diag([0.0, 1.0, 2.5]).astype(complex),
                                    beta=0.8, tau=1.0, coupling=0.4 * (a + a.T))
    p = np.array([[0.0, 0.5, 0.5], [0.3, 0.3, 0.4], [0.6, 0.4, 0.0]])
    chain = MarkovChain(labels=base.labels, pi=base.chain.pi, P=p)
    return models.build_model(base.h_sys, chain, probes, base.rho_init)


@pytest.mark.parametrize("kind,n", [("random", 1), ("random", 2), ("random", 3),
                                    ("random", 4), ("sparse", 1), ("sparse", 3)])
def test_batched_enumeration_matches_depth_first_recursion(kind, n):
    m = fixtures.random_model(11, n_labels=3) if kind == "random" else _sparse_mixed_model()
    dist = trajectories.enumerate_full_statistics(m, n)
    probs, svecs, words = _recursive_enumeration(m, n)
    assert np.array_equal(dist.words, words)
    np.testing.assert_allclose(dist.probs, probs, rtol=0, atol=1e-15)
    np.testing.assert_allclose(dist.svecs, svecs, rtol=0, atol=1e-13)
    assert abs(dist.total_probability() - 1.0) < 1e-12
    assert trajectories.enumerate_full_statistics(m, n, keep_words=False).words is None
