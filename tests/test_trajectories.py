import hashlib
import math
import os
import re
import signal
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import random_density
from mris import chains, extended, fixtures, modelfile, models, trajectories
from mris.chains import MarkovChain
from mris.tolerances import DEFAULT
from mris.trajectories import TrajectoryConfig


@pytest.fixture
def forced_split(monkeypatch):
    """Split every sampler call with a worker cap: no work threshold, no
    modeled-gain bound, eight usable cores.  Returns the ranges of each
    call; where this process may not fork, every call keeps one."""
    monkeypatch.setattr(trajectories, "_SPLIT_WORK", 0)
    monkeypatch.setattr(trajectories, "_SPLIT_GAIN", math.inf)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    calls = []
    ranges = trajectories._ranges
    monkeypatch.setattr(trajectories, "_ranges",
                        lambda cfg: calls.append(ranges(cfg)) or calls[-1])
    return calls


def _split_into(calls, n_threads):
    """The last call was split into n_threads ranges, where a fork is safe."""
    want = n_threads if trajectories._fork_is_safe() else 1
    assert len(calls[-1]) == want


def test_trajectory_config_validation():
    with pytest.raises(trajectories.TrajectoryError):
        TrajectoryConfig(n_steps=0, n_traj=1, seed=0)
    with pytest.raises(trajectories.TrajectoryError):
        TrajectoryConfig(n_steps=1, n_traj=1, seed=0, chunk=0)
    for bad in (0, 2.5, True):
        with pytest.raises(trajectories.TrajectoryError, match="n_threads"):
            TrajectoryConfig(n_steps=1, n_traj=1, seed=0, n_threads=bad)
    with pytest.raises(trajectories.TrajectoryError):
        TrajectoryConfig(n_steps=1, n_traj=1, seed=0, initial="blah")
    base = dict(n_steps=1, n_traj=1, seed=0)
    for name in ("n_steps", "n_traj", "chunk", "seed"):
        for bad in (2.5, 4.0, True, "3", None):
            with pytest.raises(trajectories.TrajectoryError, match=re.escape(
                    f"{name} must be an integer, got {bad!r}")):
                TrajectoryConfig(**{**base, name: bad})
    # numpy integers are integers, held as Python ints
    cfg = TrajectoryConfig(n_steps=np.int32(3), n_traj=np.int64(2),
                           seed=np.uint64(7), chunk=np.int16(5))
    assert [(type(v), v) for v in (cfg.n_steps, cfg.n_traj, cfg.seed, cfg.chunk)] \
        == [(int, 3), (int, 2), (int, 7), (int, 5)]


def test_seed_must_key_every_trajectory(canonical):
    """Trajectory t draws from Philox(key=seed + t), and a key lies in
    [0, 2**128): the seed range is [0, 2**128 - n_traj]."""
    top = 2 ** 128 - 4
    for seed in (-1, top + 1):
        with pytest.raises(trajectories.TrajectoryError, match="seed"):
            TrajectoryConfig(n_steps=1, n_traj=4, seed=seed)
    sample = trajectories.sample_entropy_process(
        canonical, TrajectoryConfig(n_steps=2, n_traj=4, seed=top))
    assert np.isfinite(sample.svec).all()


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


@pytest.mark.parametrize("path, message", [
    ([], "omega_path is empty: it has no first label"),
    (["hot", "warm", "cold"], "unknown label 'warm'; labels are ('hot', 'cold')"),
])
def test_simulate_states_rejects_an_empty_path_or_an_unknown_label(canonical, path,
                                                                  message):
    with pytest.raises(trajectories.TrajectoryError, match=f"^{re.escape(message)}$"):
        trajectories.simulate_states(canonical, path)


@pytest.mark.parametrize("rho0, message", [
    (1.0, "expected a matrix, got array of shape ()"),
    (np.eye(3) / 3, "rho0 has shape (3, 3); the system is 2 x 2"),
    (np.diag([1.5, -0.5]), "rho0 has negative eigenvalue -5.000e-01"),
    (np.eye(2), "rho0 has trace (2+0j) (|tr-1| > 1.0e-10)"),
])
def test_simulate_states_rejects_a_rho0_that_is_not_a_system_state(canonical, rho0,
                                                                   message):
    """A scalar is not broadcast into a matrix of ones, and a state of
    another dimension is named, not left to fail inside numpy."""
    with pytest.raises(trajectories.TrajectoryError, match=f"^{re.escape(message)}$"):
        trajectories.simulate_states(canonical, ["hot", "cold"], rho0=rho0)


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


@pytest.mark.parametrize("n", [2.5, True, 0, -1, "3"])
def test_enumeration_step_count_must_be_a_positive_integer(canonical, n):
    with pytest.raises(trajectories.TrajectoryError,
                       match=re.escape(f"n must be an integer >= 1, got {n!r}")):
        trajectories.enumerate_full_statistics(canonical, n)


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

# (chunk, worker cap) pairs for a forced split; chunk 1 steps one trajectory
SPLITS = ((7, 1), (1, 1), (512, 3), (11, 4), (7, 2), (512, 2), (7, 3), (1, 3))


def test_sampler_bitwise_deterministic_across_chunks_and_threads(canonical,
                                                                 forced_split):
    base = TrajectoryConfig(n_steps=60, n_traj=45, seed=99, n_threads=1)
    ref = trajectories.sample_entropy_process(canonical, base)
    for chunk, threads in SPLITS:
        cfg = TrajectoryConfig(n_steps=60, n_traj=45, seed=99,
                               chunk=chunk, n_threads=threads)
        got = trajectories.sample_entropy_process(canonical, cfg)
        _split_into(forced_split, threads)
        assert np.array_equal(got.svec, ref.svec)
        assert got.floored == ref.floored


def test_split_ranges_cut_on_the_chunk_grid_where_that_models_faster(
        monkeypatch):
    """Two ranges of a 1000-trajectory call at chunk 512 are cut at 512 (one
    chunk piece each, not one and two); at 1500 the even cut leaves two
    pieces a side, where the nearest chunk boundary, 512, would leave 988
    trajectories in two pieces on one side."""
    monkeypatch.setattr(trajectories, "_fork_is_safe", lambda: True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)

    def ranges(n_steps, n_traj, **kw):
        return trajectories._ranges(
            TrajectoryConfig(n_steps=n_steps, n_traj=n_traj, seed=0, **kw))
    assert ranges(1000, 1000) == [(0, 512), (512, 1000)]
    assert ranges(1000, 1500) == [(0, 750), (750, 1500)]
    assert ranges(5000, 512) == [(0, 256), (256, 512)]
    assert ranges(1000, 1000, n_threads=1) == [(0, 1000)]
    # below the work threshold, and where the modeled gain is too small: the
    # per-step overhead of a chunk piece dwarfs the step of 16 trajectories
    assert ranges(100, 1000) == [(0, 1000)]
    assert ranges(8192, 16) == [(0, 16)]


def test_a_range_is_stepped_in_chunks_on_the_global_grid(canonical):
    """A range that starts inside a chunk steps up to the next multiple of
    the chunk size first, so no piece straddles two chunks of an unsplit
    run, and a range's first failure is that of its chunks in order."""
    superops, funcs, deltas, n_out = canonical.outcome_table
    cfg = TrajectoryConfig(n_steps=3, n_traj=40, seed=0, chunk=7)
    blocks = trajectories._stepper(
        canonical, cfg, trajectories._step_table(funcs, superops),
        deltas.shape[1], n_out, np.zeros(40, np.int64))
    pieces = [(c0, j.shape[1]) for c0, _, _, j in blocks(10, 30)]
    assert pieces == [(10, 4), (14, 7), (21, 7), (28, 2)]


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


@pytest.mark.parametrize("floor", [0.0, DEFAULT.prob_floor, 1e-3])
def test_floor_is_called_only_where_a_nonzero_probability_is_below_it(
        monkeypatch, floor):
    """Exact zeros are below any positive floor, but they are never drawn
    and need no floor: _floor runs only on a step with a nonzero outcome
    probability below the floor, and then floors one at least."""
    rounds = []

    def floor_spy(p, floor_, floored, c0):
        rounds.append(((p < floor_) & (p != 0.0)).any())
        return original(p, floor_, floored, c0)

    original = trajectories._floor
    monkeypatch.setattr(trajectories, "_floor", floor_spy)
    m = fixtures.two_temperature_qubit(tol=DEFAULT.replace(prob_floor=floor))
    sample = trajectories.sample_entropy_process(
        m, TrajectoryConfig(n_steps=300, n_traj=64, seed=2))
    assert all(rounds)
    assert len(rounds) <= sample.floored
    if floor == 1e-3:
        assert rounds


def test_entropy_sampler_needs_a_floor_of_zero_or_more():
    """A draw leaves the last running sum out, which needs a law without
    negative entries: a floor >= 0 leaves every negative entry out."""
    m = fixtures.two_temperature_qubit(tol=DEFAULT.replace(prob_floor=-1e-9))
    with pytest.raises(trajectories.TrajectoryError,
                       match=r"prob_floor must be >= 0, got -1e-09"):
        trajectories.sample_entropy_process(
            m, TrajectoryConfig(n_steps=5, n_traj=2, seed=0))


def test_decoupled_model_exchanges_nothing(decoupled):
    sample = trajectories.sample_entropy_process(
        decoupled, TrajectoryConfig(n_steps=40, n_traj=12, seed=3))
    assert np.all(sample.svec == 0.0)


@pytest.mark.parametrize("label,fault,chunk,where", [
    ("hot", "nan", 512, "step 1 of trajectory 1 (sum error nan, min nan)"),
    ("hot", "negative", 7,
     "step 3 of trajectory 1 (sum error 1.113e+00, min -1.056e-01)"),
    ("hot", "negative", 512,
     "step 2 of trajectory 13 (sum error 2.220e-16, min -5.000e-02)"),
    ("cold", "negative", 3,
     "step 8 of trajectory 0 (sum error 1.110e-16, min -6.841e-03)"),
    ("cold", "negative", 7,
     "step 3 of trajectory 5 (sum error 2.220e-16, min -5.000e-02)"),
    ("hot", "sum", 3, "step 1 of trajectory 1 (sum error 1.000e-02, min 3.122e-02)"),
    ("hot", "sum", 7, "step 1 of trajectory 1 (sum error 1.000e-02, min 3.122e-02)"),
    ("hot", "sum", 512, "step 1 of trajectory 1 (sum error 1.000e-02, min 3.122e-02)"),
    ("cold", "sum", 7, "step 1 of trajectory 0 (sum error 1.000e-02, min 1.384e-02)"),
])
def test_corruption_names_the_first_bad_step_and_trajectory(label, fault, chunk,
                                                            where, forced_split):
    """Chunks are stepped one after another, so the error names the first
    bad step of the first chunk that has one, and its first bad trajectory
    (positions frozen from the complex vec(rho) kernel; the full messages,
    and the rows of a law whose entries are all >= 0 but sum to 1.01,
    recorded with each law checked whole at its step).  A split raises the
    one-process error, message and all."""
    m = fixtures.two_temperature_qubit()
    entry = m.unravelings[label]
    ops = entry._prob_ops * {"nan": np.nan, "sum": 1.01}.get(fault, 1.0)
    if fault == "negative":
        # outcome 1 loses weight to outcome 2: the sum stays one
        ops[1] -= 0.05 * np.eye(2)
        ops[2] += 0.05 * np.eye(2)
    entry._prob_ops = ops
    for threads in (1, 2, 3):
        with pytest.raises(trajectories.NumericalCorruption) as err:
            trajectories.sample_entropy_process(
                m, TrajectoryConfig(n_steps=30, n_traj=20, seed=5, chunk=chunk,
                                    n_threads=threads))
        _split_into(forced_split, threads)
        assert str(err.value) == f"outcome law defective at {where}"
        assert where.startswith(
            f"step {err.value.step} of trajectory {err.value.trajectory} ")
        assert type(err.value.step) is int and type(err.value.trajectory) is int


# a chain that seldom leaves "hot" for "cold"
STICKY = [[0.995, 0.005], [0.5, 0.5]]


@pytest.mark.parametrize("chunk,threads", [(512, 1), (3, 1), (512, 2), (3, 3)])
def test_a_totals_defect_past_the_first_block_names_its_step(chunk, threads,
                                                             forced_split):
    """Law totals are checked once per block of ``_BLOCK`` steps.  With
    "cold" summing to 1.01, the first defect of these four trajectories is
    the first visit to "cold", at step 194 of trajectory 1, in the second
    block; its law is recovered for the message by stepping that block
    again (message recorded with each law checked whole at its step)."""
    assert trajectories._BLOCK < 194
    m = fixtures.two_temperature_qubit(p_matrix=STICKY)
    entry = m.unravelings["cold"]
    entry._prob_ops = entry._prob_ops * 1.01
    with pytest.raises(trajectories.NumericalCorruption) as err:
        trajectories.sample_entropy_process(
            m, TrajectoryConfig(n_steps=300, n_traj=4, seed=40, chunk=chunk,
                                n_threads=threads))
    _split_into(forced_split, threads)
    assert str(err.value) == ("outcome law defective at step 194 of trajectory 1 "
                              "(sum error 1.000e-02, min 0.000e+00)")
    assert (err.value.step, err.value.trajectory) == (194, 1)


def test_a_totals_defect_is_raised_before_a_later_nan_of_its_block():
    """With w2's law summing to 1.01 and w3's NaN, the one trajectory meets
    w2 first at step 7 and w3 at step 17, in the same block: the NaN stops
    the block at step 17, and the error names step 7, as a check of each
    law at its step would (messages recorded so)."""
    def first_defect(faults):
        m = fixtures.random_model(7, n_labels=4)
        for label, factor in faults:
            m.unravelings[label]._prob_ops = m.unravelings[label]._prob_ops * factor
        with pytest.raises(trajectories.NumericalCorruption) as err:
            trajectories.sample_entropy_process(
                m, TrajectoryConfig(n_steps=40, n_traj=1, seed=12))
        return str(err.value), err.value.step
    assert first_defect([("w3", np.nan)]) == (
        "outcome law defective at step 17 of trajectory 0 (sum error nan, min nan)", 17)
    assert first_defect([("w3", np.nan), ("w2", 1.01)]) == (
        "outcome law defective at step 7 of trajectory 0 "
        "(sum error 1.000e-02, min 3.167e-02)", 7)


@pytest.mark.parametrize("fails", [RuntimeError, KeyboardInterrupt])
def test_a_failing_caller_range_leaves_no_worker(forced_split, monkeypatch,
                                                 canonical, fails):
    """The workers are forked before the caller steps its own range; when
    that raises, or is interrupted, they are killed and reaped."""
    caller, path_stream = os.getpid(), trajectories.path_stream

    def failing(key):
        if os.getpid() == caller:
            raise fails("caller range")
        return path_stream(key)

    monkeypatch.setattr(trajectories, "path_stream", failing)
    with pytest.raises(fails, match="caller range"):
        trajectories.sample_entropy_process(
            canonical, TrajectoryConfig(n_steps=2000, n_traj=64, seed=1,
                                        n_threads=3))
    _split_into(forced_split, 3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("how,error", [
    ("raise", r"ValueError\('worker range'\)"),
    ("kill", r"sampler worker for trajectories \[\d+, \d+\) ended with "
             rf"exit code -{int(signal.SIGKILL)}"),
])
def test_a_failing_worker_is_raised(forced_split, monkeypatch, canonical, how,
                                    error):
    """A worker's own failure comes back as it was raised; a worker that
    dies without a word is an error too, never a sample with holes."""
    if not trajectories._fork_is_safe():
        pytest.skip("this process may not fork")
    caller, path_stream = os.getpid(), trajectories.path_stream

    def failing(key):
        if os.getpid() != caller:
            if how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise ValueError("worker range")
        return path_stream(key)

    monkeypatch.setattr(trajectories, "path_stream", failing)
    with pytest.raises((ValueError, RuntimeError)) as err:
        trajectories.ergodic_average(
            canonical, models.flux_extended(canonical, "hot"),
            TrajectoryConfig(n_steps=20, n_traj=64, seed=1, n_threads=2))
    assert re.fullmatch(error, repr(err.value) if how == "raise"
                        else str(err.value))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_non_hermiticity_preserving_map_is_an_error_not_dropped():
    cfg = TrajectoryConfig(n_steps=5, n_traj=3, seed=0)

    def with_phase(phase):
        # a fresh model: its outcome table is taken on first use
        m = fixtures.two_temperature_qubit()
        entry = m.unravelings["hot"]
        entry._superops = entry._superops * np.exp(phase)
        return m

    # a phase of round-off size is accepted, one above it is not
    trajectories.sample_entropy_process(with_phase(1e-15j), cfg)
    with pytest.raises(trajectories.RealBasisError,
                       match="superoperators not real in the Hermitian basis"):
        trajectories.sample_entropy_process(with_phase(1e-6j), cfg)


def test_a_map_that_is_not_hermiticity_preserving_raises_on_every_call():
    """The sampler and the exact enumeration both raise, and the model keeps
    no outcome table."""
    m = fixtures.two_temperature_qubit()
    entry = m.unravelings["hot"]
    entry._superops = entry._superops * np.exp(1e-6j)
    for _ in range(2):
        with pytest.raises(trajectories.RealBasisError, match="not real in the Hermitian basis"):
            trajectories.sample_entropy_process(m, TrajectoryConfig(n_steps=5, n_traj=3, seed=0))
        with pytest.raises(trajectories.RealBasisError, match="not real in the Hermitian basis"):
            trajectories.enumerate_full_statistics(m, 2)
    assert "outcome_table" not in vars(m)


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
# the step loops as they were written with each law checked whole at its
# step and every index formed per step, kept as bitwise references

def _reference_label_path(cum_rows, lab, u):
    m = cum_rows.shape[0]
    labs = np.empty(u.shape, dtype=np.intp)
    for i, row in enumerate(u):
        lab = np.minimum((row > cum_rows.take(lab, axis=1)).sum(axis=0), m - 1,
                         out=labs[i])
    return labs


def _reference_observe_steps(table, x, labs):
    group, b = x.shape[0] + 1, x.shape[1]
    rows = np.arange(group)[:, None] * b + np.arange(b)
    val = np.empty(labs.shape)
    for i, lab in enumerate(labs):
        g = trajectories._gemm(table, x).ravel().take(rows + lab * (group * b))
        val[i], x = g[0], g[1:]
    return val, x


def _reference_running_sum(p):
    cum = np.empty_like(p)
    cum[0] = p[0]
    for x in range(1, p.shape[0]):
        np.add(cum[x - 1], p[x], out=cum[x])
    return cum


def _reference_measure_steps(table, x, labs, u, width, last, floor, floored,
                             c0, k0):
    group, b = x.shape[0] + 1, x.shape[1]
    col = np.arange(b)
    p_rows = np.arange(width)[:, None] * (group * b) + col
    rows = np.arange(group)[:, None] * b + col
    val = np.empty(labs.shape, dtype=np.intp)
    for i, lab in enumerate(labs):
        y = trajectories._gemm(table, x).ravel()
        p = y.take(p_rows + lab * (width * group * b))
        cum = _reference_running_sum(p)
        p_min = p.min()
        if not (cum[-1].max() <= 1.0 + 1e-8 and cum[-1].min() >= 1.0 - 1e-8
                and p_min >= -1e-8):
            trajectories._check_law(p, cum[-1], k0 + i, c0)
        if p_min < floor and (np.count_nonzero(p < floor)
                              > np.count_nonzero(p == 0.0) * (floor > 0.0)):
            cum = trajectories._floor(p, floor, floored, c0)
        xi = (u[i] > cum).sum(axis=0)
        np.minimum(xi, last.take(lab), out=xi)
        j = np.add(lab * width, xi, out=val[i])
        g = y.take(rows + j * (group * b))
        x = g[1:] / g[0]
    return val, x


def _bits(a):
    return a.dtype, a.shape, np.ascontiguousarray(a).tobytes()


BLOCK_MODELS = {
    "two_temperature": lambda tol: fixtures.two_temperature_qubit(tol=tol),
    "random7": lambda tol: fixtures.random_model(7, n_labels=4, tol=tol),
    "sparse_mixed": lambda tol: _sparse_mixed_model(tol),
}


@pytest.mark.parametrize("width", [1, 7, 512])
@pytest.mark.parametrize("floor", [0.0, DEFAULT.prob_floor, 1e-3])
@pytest.mark.parametrize("name", sorted(BLOCK_MODELS))
def test_step_loops_are_bitwise_the_reference_loops_block_by_block(
        monkeypatch, name, floor, width):
    """Every block of both samplers, over two chunks of ``width``
    trajectories and three blocks of steps, gives the labels, outcome
    indices, states and floored counts of the reference loops, bit for bit:
    the chunk of one trajectory (stepped beside a copy of itself), the
    floor at work, and the clip of a padded label (``_sparse_mixed_model``,
    whose outcome counts are 4, 9 and 4) included.  Each measurement block
    is also stepped with uniforms above 1, where every draw is clipped."""
    model = BLOCK_MODELS[name](DEFAULT.replace(prob_floor=floor))
    n_out = model.outcome_table[3]
    label_path = trajectories._label_path
    observe, measure = trajectories._observe_steps, trajectories._measure_steps
    seen = {"labels": 0, "observe": 0, "measure": 0}

    def label_spy(cum_rows, lab, u):
        got = label_path(cum_rows, lab, u)
        assert _bits(got) == _bits(_reference_label_path(cum_rows, lab, u))
        seen["labels"] += 1
        return got

    def observe_spy(table, x, labs):
        want = _reference_observe_steps(table, x, labs)
        got = observe(table, x, labs)
        assert [_bits(a) for a in got] == [_bits(a) for a in want]
        seen["observe"] += 1
        return got

    def measure_spy(table, x, labs, u, width_, last, floor_, floored, c0, k0):
        assert (last is None) == (n_out.min() == width_)
        ref_floored = floored.copy()
        want = _reference_measure_steps(table, x, labs, u, width_, n_out - 1,
                                        floor_, ref_floored, c0, k0)
        got = measure(table, x, labs, u, width_, last, floor_, floored, c0, k0)
        assert [_bits(a) for a in got] == [_bits(a) for a in want]
        assert _bits(floored) == _bits(ref_floored)
        # uniforms above every law total that passes the check: the clip
        # decides every draw
        top = np.full(u.shape, 1.0 + 2e-8)
        want = _reference_measure_steps(table, x, labs, top, width_, n_out - 1,
                                        floor_, floored.copy(), c0, k0)
        assert [_bits(a) for a in measure(table, x, labs, top, width_, last,
                                          floor_, floored.copy(), c0, k0)] \
            == [_bits(a) for a in want]
        seen["measure"] += 1
        return got

    monkeypatch.setattr(trajectories, "_label_path", label_spy)
    monkeypatch.setattr(trajectories, "_observe_steps", observe_spy)
    monkeypatch.setattr(trajectories, "_measure_steps", measure_spy)
    cfg = TrajectoryConfig(n_steps=300, n_traj=width + 1, seed=24, chunk=width,
                           n_threads=1, initial="stationary")
    sample = trajectories.sample_entropy_process(model, cfg)
    trajectories.ergodic_average(
        model, models.flux_extended(model, model.labels[0]), cfg)
    # two chunks of three blocks each, per sampler
    assert seen == {"labels": 12, "observe": 6, "measure": 6}
    if name == "two_temperature" and floor == 1e-3:
        assert sample.floored > 0


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


# (chunk, worker cap) under a forced split; the ids of one process are the chunk
FROZEN_SPLITS = pytest.mark.parametrize("chunk,n_threads", [
    pytest.param(c, n, id=str(c) if n == 1 else f"{c}-cap{n}")
    for c, n in ((7, 1), (512, 1), (1, 1), (7, 2), (7, 3), (512, 2), (512, 3))])


@FROZEN_SPLITS
@pytest.mark.parametrize("name,initial", sorted(FROZEN_SVEC))
def test_sampler_matches_frozen_kernel_bitwise(name, initial, chunk, n_threads,
                                               forced_split):
    sample = trajectories.sample_entropy_process(
        FROZEN_MODELS[name](),
        TrajectoryConfig(n_steps=150, n_traj=40, seed=31, initial=initial,
                         chunk=chunk, n_threads=n_threads))
    _split_into(forced_split, n_threads)
    assert (_digest(sample.svec), sample.floored) == FROZEN_SVEC[name, initial]


@FROZEN_SPLITS
def test_kept_increments_match_frozen_kernel_bitwise(chunk, n_threads,
                                                     forced_split):
    sample = trajectories.sample_entropy_process(
        FROZEN_MODELS["random7"](),
        TrajectoryConfig(n_steps=120, n_traj=30, seed=5, initial="stationary",
                         chunk=chunk, keep_increments=True, n_threads=n_threads))
    _split_into(forced_split, n_threads)
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
# uniforms addressed by draw index, drawn a slab of steps at a time
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("start", range(9))
@pytest.mark.parametrize("count", [1, 3, 4, 130])
@pytest.mark.parametrize("n_keys", [4, 2 * trajectories._TILE + 3])
def test_draws_are_the_streams_read_from_a_draw_index(start, count, n_keys):
    """Every start % 4, keys on both sides of a word of the 128-bit key, in
    one tile and over three: the draws of each key are those of its own
    path stream, and read from draw n + 1 those of its outcome stream n,
    whatever the generator held."""
    keys = range(2 ** 64 - n_keys // 2, 2 ** 64 + n_keys - n_keys // 2)
    gen = chains.path_stream(12345)
    gen.random(7)
    got = trajectories._draws(gen, keys, start, count)
    assert got.shape == (count, n_keys) and got.flags.c_contiguous
    for key, col in zip(keys, got.T):
        assert np.array_equal(col, chains.path_stream(key).random(start + count)[start:])
        if start:
            assert np.array_equal(
                col, chains.outcome_stream(key, start - 1).random(count))


@pytest.mark.parametrize("width, slab", [(1, 512), (256, 512), (257, 384),
                                         (512, 256), (1000, 128), (5000, 128)])
def test_a_slab_is_whole_blocks_of_bounded_draws(width, slab):
    assert trajectories._slab(width) == slab


SLAB_TRAJ = 5
SLAB_SEEDS = {"0": 0, "2**64-3": 2 ** 64 - 3, "2**64": 2 ** 64,
              "2**128-n_traj": 2 ** 128 - SLAB_TRAJ}

# (seed, n_steps) -> digest of svec, increments, step labels, floored count
# and ergodic per_traj (see _slab_digest), recorded with every trajectory
# stepped on its own streams before uniforms were drawn in slabs
FROZEN_SLABS = {
    ("0", 1): "80b1c97e4a093ca6", ("0", 2): "cd8adb60fa9924f2",
    ("0", 3): "27b1118f860160d8", ("0", 4): "c8d638e9af121fb7",
    ("0", 5): "b29d384c99e5e1f6", ("0", 130): "7e883e9e2efe78e8",
    ("0", 257): "d42853e68a4683a9",
    ("2**64-3", 1): "d66275b9f9a90c3a", ("2**64-3", 2): "1dc149a53ac7314f",
    ("2**64-3", 3): "bef905b77de6be4a", ("2**64-3", 4): "edd980fecf7f9576",
    ("2**64-3", 5): "f3d2df1f9ea2b65d", ("2**64-3", 130): "5534db83ccf95982",
    ("2**64-3", 257): "86f8d13d736f37bc",
    ("2**64", 1): "4799b00b8aa562ff", ("2**64", 2): "26ac8e0be6ed4b2e",
    ("2**64", 3): "4bf4e751d639ed92", ("2**64", 4): "60b12dfcbec3be07",
    ("2**64", 5): "e5e9bc5516455fcb", ("2**64", 130): "b5b262d3ff295a3f",
    ("2**64", 257): "dbb319aba79192b9",
    ("2**128-n_traj", 1): "2f273330d6861f3f", ("2**128-n_traj", 2): "49b3b7f5b6fbcb15",
    ("2**128-n_traj", 3): "4747794398d37b67", ("2**128-n_traj", 4): "ff3afea94b90c4be",
    ("2**128-n_traj", 5): "235353aa640f421a", ("2**128-n_traj", 130): "7074928bb4bc63cb",
    ("2**128-n_traj", 257): "84e7fb84ff399010",
}


def _slab_digest(model, flux, seed, n, chunk):
    cfg = TrajectoryConfig(n_steps=n, n_traj=SLAB_TRAJ, seed=seed, chunk=chunk,
                           n_threads=1, initial="stationary", keep_increments=True)
    sample = trajectories.sample_entropy_process(model, cfg)
    per_traj = trajectories.ergodic_average(model, flux, cfg).per_traj
    h = hashlib.sha256()
    for a in (sample.svec, sample.increments, sample.step_labels,
              np.int64(sample.floored), per_traj):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("blocks", [1, 2, None], ids=["one-block", "two-blocks",
                                                      "whole-run"])
def test_sampler_outputs_do_not_depend_on_the_slab(monkeypatch, blocks):
    """Slabs of one block, of two and of the whole run (every n below 512)
    give the recorded bits, at chunks of 1, 3 and 512, for keys at both
    ends of the key range and across a word of the key, with the floor at
    work (floored counts of up to 76)."""
    steps = 512 if blocks is None else blocks * trajectories._BLOCK
    monkeypatch.setattr(trajectories, "_slab", lambda width: steps)
    model = fixtures.two_temperature_qubit(tol=DEFAULT.replace(prob_floor=1e-3))
    flux = models.flux_extended(model, "hot")
    got = {(name, n): {_slab_digest(model, flux, seed, n, chunk)
                       for chunk in (1, 3, 512)}
           for name, seed in SLAB_SEEDS.items() for n in (1, 2, 3, 4, 5, 130, 257)}
    assert got == {key: {digest} for key, digest in FROZEN_SLABS.items()}


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


def test_ergodic_average_bitwise_deterministic_across_chunks_and_threads(
        canonical, forced_split):
    x = models.flux_extended(canonical, "hot")
    base = TrajectoryConfig(n_steps=60, n_traj=45, seed=99, n_threads=1)
    ref = trajectories.ergodic_average(canonical, x, base)
    for chunk, threads in SPLITS:
        cfg = TrajectoryConfig(n_steps=60, n_traj=45, seed=99,
                               chunk=chunk, n_threads=threads)
        got = trajectories.ergodic_average(canonical, x, cfg)
        _split_into(forced_split, threads)
        assert np.array_equal(got.per_traj, ref.per_traj)


def test_ergodic_average_reads_the_cached_real_superoperators(monkeypatch):
    """The channel superoperators are folded into the Hermitian basis once
    per model (bitwise the fold the ergodic table made on every call); a
    later average folds only its observable."""
    model = fixtures.two_temperature_qubit()
    x = models.flux_extended(model, "hot")
    cfg = TrajectoryConfig(n_steps=20, n_traj=4, seed=3)
    first = trajectories.ergodic_average(model, x, cfg)
    u = extended._hermitian_basis(model.dim_sys)
    superops = np.stack([model.channels[l].superop for l in model.labels])[:, None]
    assert (model.real_superops[:, None].tobytes()
            == extended._real(u @ superops @ u.conj().T, "superoperators").tobytes())
    folded = []
    real = trajectories._real

    def counting(table, what, *args):
        folded.append(what)
        return real(table, what, *args)

    monkeypatch.setattr(trajectories, "_real", counting)
    monkeypatch.setattr(extended, "_real", counting)
    again = trajectories.ergodic_average(model, x, cfg)
    assert "superoperators" not in folded and "observable blocks" in folded
    assert again.per_traj.tobytes() == first.per_traj.tobytes()


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


@pytest.mark.parametrize("labels, d", [(("hot", "cold"), 3), (("hot", "warm"), 2),
                                       (("hot",), 2)])
def test_ergodic_average_rejects_an_observable_of_another_model(canonical, labels,
                                                                d):
    """An observable of another block size or other labels is named with the
    model's, not left to fail in a matrix product or a label lookup."""
    x = extended.identity_observable(labels, d)
    want = (f"observable has labels {labels} and {d} x {d} blocks; "
            "the model has labels ('hot', 'cold') and 2 x 2 blocks")
    with pytest.raises(trajectories.TrajectoryError, match=f"^{re.escape(want)}$"):
        trajectories.ergodic_average(canonical, x,
                                     TrajectoryConfig(n_steps=3, n_traj=2, seed=0))


def test_ergodic_average_reads_an_observable_by_label_in_any_order(canonical):
    x = models.flux_extended(canonical, "hot")
    swapped = extended.ExtendedObservable(x.labels[::-1], x.blocks[::-1])
    cfg = TrajectoryConfig(n_steps=20, n_traj=4, seed=5)
    assert np.array_equal(trajectories.ergodic_average(canonical, swapped, cfg).per_traj,
                          trajectories.ergodic_average(canonical, x, cfg).per_traj)


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


@pytest.mark.parametrize("which", ["canonical", "random_11"])
def test_analytic_autocorrelation_matches_block_evolution(canonical, which):
    """The kernel's lags equal the stationary block recursion: c(0) =
    delta_wv tr(D2_w R_+(w)) - mu_w mu_v and c(k) = tr(D1_w X_k(w)) - mu_w mu_v,
    where X_1(w') = P[v, w'] D1_v R_+(v), X_{k+1} = L X_k and
    Dk_v = sum_xi delta_xi^k S_{v, xi}, mu_v = tr(D1_v R_+(v))."""
    model = canonical if which == "canonical" else fixtures.random_model(11, n_labels=3)
    m, d = model.chain.n, model.dim_sys
    r_plus = model.ess()[0].blocks
    dk = [[np.einsum("x,xij->ij", e.deltas ** k, e._superops)
           for e in (model.unravelings[l] for l in model.labels)] for k in (1, 2)]

    def traced(op, block):
        return np.trace((op @ block.reshape(-1, order="F")).reshape(d, d, order="F")).real

    mu = [traced(dk[0][v], r_plus[v]) for v in range(m)]
    for w, omega in enumerate(model.labels):
        for v, nu in enumerate(model.labels):
            got = trajectories.flux_autocorrelation(model, omega, nu, max_lag=30).values
            want = [(traced(dk[1][w], r_plus[w]) if w == v else 0.0) - mu[w] * mu[v]]
            core = (dk[0][v] @ r_plus[v].reshape(-1, order="F")).reshape(d, d, order="F")
            x = extended.ExtendedState(model.labels, model.chain.P[v][:, None, None] * core)
            for k in range(1, 31):
                want.append(traced(dk[0][w], x.blocks[w]) - mu[w] * mu[v])
                x = model.generator.apply(x)
            assert np.abs(got - np.array(want)).max() <= 1e-14, (omega, nu)


@pytest.fixture(scope="module")
def short_sample(canonical):
    return trajectories.sample_entropy_process(
        canonical, TrajectoryConfig(n_steps=5, n_traj=4, seed=1, keep_increments=True))


def test_autocorrelation_lag_must_lie_inside_the_sample(short_sample):
    with pytest.raises(trajectories.TrajectoryError,
                       match=re.escape("max_lag must be an integer in [0, 5), got 5")):
        trajectories.flux_autocorrelation(short_sample, "hot", "cold", max_lag=5)
    assert np.isfinite(trajectories.flux_autocorrelation(
        short_sample, "hot", "cold", max_lag=4).values).all()


def test_autocorrelation_of_one_trajectory_has_no_standard_error(canonical):
    """Like ergodic_average, one trajectory gives estimates with an infinite
    standard error rather than a division by zero."""
    sample = trajectories.sample_entropy_process(
        canonical, TrajectoryConfig(n_steps=20, n_traj=1, seed=0, keep_increments=True))
    emp = trajectories.flux_autocorrelation(sample, "hot", "cold", max_lag=3)
    assert np.isfinite(emp.values).all() and np.isinf(emp.stderr).all()


def _whole_array_autocorr(sample, omega, nu, max_lag):
    """The empirical estimator written over whole arrays, as it was before
    its lag products were formed in row blocks: (values, stderr)."""
    iw, iv = sample.labels.index(omega), sample.labels.index(nu)
    x_w = sample.increments * (sample.step_labels == iw)
    x_v = sample.increments * (sample.step_labels == iv)
    n = sample.n_steps
    f_w = x_w - x_w.mean()
    f_v = x_v - x_v.mean()
    values = np.empty(max_lag + 1)
    stderr = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        per_traj = (f_w[:, k:] * f_v[:, :n - k]).mean(axis=1)
        t = per_traj.shape[0]
        values[k] = math.fsum(per_traj) / t
        var = (math.fsum((v - values[k]) ** 2 for v in per_traj) / (t - 1)
               if t > 1 else math.inf)
        stderr[k] = math.sqrt(var / t)
    return values, stderr


AUTOCORR_MODELS = {
    "two_temperature": fixtures.two_temperature_qubit,
    "random4": lambda: fixtures.random_model(7, n_labels=4),
    "labels130": lambda: fixtures.random_model(3, n_labels=130),
}


@pytest.fixture(scope="module")
def labels130():
    return AUTOCORR_MODELS["labels130"]()


@pytest.mark.parametrize("n_traj", [1, 6, 7])
@pytest.mark.parametrize("name", sorted(AUTOCORR_MODELS))
def test_row_blocked_autocorrelation_is_bitwise_the_whole_array_form(
        monkeypatch, labels130, name, n_traj):
    """Blocks of three rows (n_traj a multiple of them or not), blocks
    below one row, and the default budget give values and standard errors
    bitwise those of the whole-array estimator, for a probe with itself and
    with another (the first and last labels with a non-zero increment in
    the sample), at lags 0 through n_steps - 1."""
    model = labels130 if name == "labels130" else AUTOCORR_MODELS[name]()
    n = 60
    sample = trajectories.sample_entropy_process(
        model, TrajectoryConfig(n_steps=n, n_traj=n_traj, seed=11,
                                initial="stationary", keep_increments=True))
    seen = np.unique(sample.step_labels[sample.increments != 0.0])
    first, last = model.labels[seen[0]], model.labels[seen[-1]]
    assert first != last
    for budget in (3 * n, n // 2, trajectories._CORR_BLOCK):
        monkeypatch.setattr(trajectories, "_CORR_BLOCK", budget)
        for omega, nu in ((first, first), (last, first), (first, last)):
            for max_lag in (0, 5, n - 1):
                got = trajectories.flux_autocorrelation(sample, omega, nu, max_lag)
                values, stderr = _whole_array_autocorr(sample, omega, nu, max_lag)
                assert np.array_equal(got.values, values, equal_nan=True)
                assert np.array_equal(got.stderr, stderr, equal_nan=True)


def test_empirical_autocorrelation_holds_one_full_size_copy(canonical):
    """Besides the sample, the estimator's traced peak is one centered copy
    of the increments, a transient boolean mask and one block budget of lag
    products; the whole-array form peaked at about five copies."""
    sample = trajectories.sample_entropy_process(
        canonical, TrajectoryConfig(n_steps=1000, n_traj=256, seed=3,
                                    initial="stationary", keep_increments=True))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trajectories.flux_autocorrelation(sample, "hot", "cold", max_lag=5)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    budget = 8 * trajectories._CORR_BLOCK
    assert peak <= 1.3 * sample.increments.nbytes + budget, peak / sample.increments.nbytes


def test_step_labels_hold_more_than_128_labels(labels130):
    """The labels of a 130-label model do not wrap: the increments taken
    through them sum, step by step, to every svec column, and the last
    label's autocorrelation sees its own increments."""
    sample = trajectories.sample_entropy_process(
        labels130, TrajectoryConfig(n_steps=400, n_traj=16, seed=3,
                                    keep_increments=True))
    assert sample.step_labels.dtype == np.int16
    assert sample.step_labels.min() >= 0
    for k in range(130):
        mine = np.where(sample.step_labels == k, sample.increments, 0.0)
        assert np.array_equal(np.cumsum(mine, axis=1)[:, -1], sample.svec[:, k]), k
    assert sample.svec[:, 129].any()
    ac = trajectories.flux_autocorrelation(sample, "w129", "w129", max_lag=2)
    assert ac.values[0] > 0.0


@pytest.mark.parametrize("m, dtype", [(1, np.int8), (128, np.int8), (129, np.int16),
                                      (2 ** 15, np.int16), (2 ** 15 + 1, np.int32)])
def test_step_labels_take_the_smallest_signed_type(m, dtype):
    assert trajectories._label_dtype(m) is dtype


@pytest.mark.parametrize("lag", [-1, 2.5, True])
@pytest.mark.parametrize("which", ["model", "sample"])
def test_autocorrelation_rejects_a_negative_or_fractional_lag(canonical, short_sample,
                                                              which, lag):
    source = canonical if which == "model" else short_sample
    bound = "inf" if which == "model" else "5"
    with pytest.raises(trajectories.TrajectoryError, match=re.escape(
            f"max_lag must be an integer in [0, {bound}), got {lag}")):
        trajectories.flux_autocorrelation(source, "hot", "cold", max_lag=lag)


@pytest.mark.parametrize("which", ["model", "sample"])
def test_autocorrelation_rejects_an_unknown_label(canonical, short_sample, which):
    source = canonical if which == "model" else short_sample
    with pytest.raises(trajectories.TrajectoryError, match="unknown label 'warm'"):
        trajectories.flux_autocorrelation(source, "warm", "cold")


@pytest.mark.parametrize("alpha", [np.zeros(3), 0.5, np.zeros((2, 2))])
def test_cumulants_reject_alpha_of_the_wrong_length(canonical, short_sample, alpha):
    dist = trajectories.enumerate_full_statistics(canonical, 2)
    shape = re.escape(f"got shape {np.shape(alpha)}")
    with pytest.raises(trajectories.TrajectoryError, match=shape):
        trajectories.empirical_cumulant(short_sample, alpha)
    with pytest.raises(trajectories.TrajectoryError, match=shape):
        dist.deformed_expectation(alpha)


def test_cumulants_name_a_non_finite_alpha(canonical, short_sample):
    """A NaN tilt is named, where the empirical cumulant returned nan."""
    dist = trajectories.enumerate_full_statistics(canonical, 2)
    msg = re.escape("alpha has a non-finite entry: alpha=[nan  0.]")
    with pytest.raises(trajectories.TrajectoryError, match=msg):
        trajectories.empirical_cumulant(short_sample, [np.nan, 0.0])
    with pytest.raises(trajectories.TrajectoryError, match=msg):
        dist.deformed_expectation([np.nan, 0.0])


def test_deformed_expectation_leaves_out_exact_zero_atoms():
    """At n = 3 on two_temperature, 144 of the 512 branches have probability
    exactly zero and carry increments up to 6 on the cold probe, where the
    possible branches reach 4: their weights overflow at alpha = (0, -150),
    which must not turn the finite expectation into 0 * inf = nan.  A finite
    result keeps the bits of the plain sum."""
    dist = trajectories.enumerate_full_statistics(fixtures.two_temperature_qubit(), 3)
    atoms = dist.probs != 0.0
    assert (~atoms).sum() == 144
    # at -178 a possible branch's weight e^712 overflows too, but the
    # expectation, e^702.36, does not
    for cold, log_e in ((-150.0, 590.36117359494), (-178.0, 702.36117359494)):
        x = -dist.svecs[atoms] @ np.array([0.0, cold])
        top = x.max()
        log_ref = top + math.log(math.fsum(dist.probs[atoms] * np.exp(x - top)))
        got = dist.deformed_expectation([0.0, cold])
        assert math.isfinite(got)
        assert abs(math.log(got) - log_ref) <= 1e-13 * log_ref
        assert abs(log_ref - log_e) < 1e-9
    alpha = np.array([0.4, -0.3])
    assert dist.deformed_expectation(alpha) == math.fsum(
        dist.probs * np.exp(-dist.svecs @ alpha))


@pytest.mark.parametrize("alpha", [[400.0, 400.0], [200.0, -200.0]])
def test_deformed_expectation_names_an_overflowing_tilt(alpha):
    dist = trajectories.enumerate_full_statistics(fixtures.two_temperature_qubit(), 3)
    msg = re.escape(f"overflows at alpha={np.array(alpha)}")
    with pytest.raises(trajectories.TrajectoryError, match=msg):
        dist.deformed_expectation(alpha)


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


def _complex_outcome_superops(model):
    """The complex outcome superoperators (m, n_max, d^2, d^2) of the
    unravelings, zero-padded to the widest label as the outcome table is."""
    superops = np.zeros(model.outcome_table[0].shape, dtype=complex)
    for w, label in enumerate(model.labels):
        entry = model.unravelings[label]
        superops[w, :entry.n_outcomes] = entry._superops
    return superops


def _complex_enumeration(model, n):
    """The batched enumeration on the complex outcome maps in the vec(rho)
    layout, as it ran before it moved to the real coordinates:
    (probs, svecs, words)."""
    m, d, p_mat = model.chain.n, model.dim_sys, model.chain.P
    superops = _complex_outcome_superops(model)
    _, _, deltas, n_out = model.outcome_table
    valid = np.arange(superops.shape[1]) < n_out[:, None]
    v0 = np.stack([b.T.reshape(-1) for b in model.initial_state().blocks])
    states = np.einsum("wxij,wj->wxi", superops, v0)[valid]
    lab, out = np.nonzero(valid)
    svecs = np.zeros((len(lab), m))
    svecs[np.arange(len(lab)), lab] = deltas[lab, out]
    words = np.stack([lab, out], axis=1)[:, None].astype(np.int16)
    for _ in range(n - 1):
        keep = (p_mat[lab] > model.tol.edge)[:, :, None] & valid
        parent, w_new, out = np.nonzero(keep)
        children = np.einsum("wxij,bj->bwxi", superops, states)[keep]
        states = p_mat[lab[parent], w_new][:, None] * children
        svecs = svecs[parent]
        svecs[np.arange(len(parent)), w_new] += deltas[w_new, out]
        step = np.stack([w_new, out], axis=1)[:, None].astype(np.int16)
        words = np.concatenate([words[parent], step], axis=1)
        lab = w_new
    return states[:, ::d + 1].sum(axis=1).real, svecs, words


MODEL_DIR = Path(__file__).resolve().parent.parent / "models"


@pytest.mark.parametrize("name", ["two_temperature_qubit", "equilibrium_qubit",
                                  "tri_broken_qubit", "random_11", "sparse_mixed"])
def test_real_enumeration_matches_the_complex_one(name):
    """In the real coordinates the law keeps its words and increments bit
    for bit, and its probabilities to 1e-15."""
    if name == "random_11":
        model = fixtures.random_model(11, n_labels=3)
    elif name == "sparse_mixed":
        model = _sparse_mixed_model()
    else:
        model = modelfile.load_model(MODEL_DIR / f"{name}.json")
    for n in (1, 2, 3):
        dist = trajectories.enumerate_full_statistics(model, n)
        probs, svecs, words = _complex_enumeration(model, n)
        assert np.array_equal(dist.words, words)
        assert dist.svecs.tobytes() == svecs.tobytes()
        assert dist.probs.dtype == np.float64
        assert np.abs(dist.probs - probs).max() <= 1e-15


def _sparse_mixed_model(tol=DEFAULT):
    """Three labels, two missing chain edges, and a qutrit probe whose nine
    outcomes pad the two qubit probes' four."""
    base = fixtures.random_model(11, n_labels=3, tol=tol)
    a = np.random.default_rng(3).normal(size=(6, 6))
    probes = dict(base.probes)
    probes["w1"] = models.ProbeSpec(h_env=np.diag([0.0, 1.0, 2.5]).astype(complex),
                                    beta=0.8, tau=1.0, coupling=0.4 * (a + a.T))
    p = np.array([[0.0, 0.5, 0.5], [0.3, 0.3, 0.4], [0.6, 0.4, 0.0]])
    chain = MarkovChain(labels=base.labels, pi=base.chain.pi, P=p)
    return models.build_model(base.h_sys, chain, probes, base.rho_init, tol=tol)


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


# sha256 prefixes of (probs, svecs, words) at the deepest level up to 5 that
# the guard admits, recorded before the enumeration was blocked (see
# test_sampler_matches_frozen_kernel_bitwise for the platform)
FROZEN_ENUM = {
    ("two_temperature", 5): ("c02deac3aa3a373b", "0002402bec9b1e0a", "73f5d4c020f1f480"),
    ("sparse_mixed", 4): ("decb5f7799f981df", "7b67a584469a78f0", "2c5968546a5d0e94"),
}
ENUM_MODELS = {"two_temperature": fixtures.two_temperature_qubit,
               "sparse_mixed": _sparse_mixed_model}


@pytest.mark.parametrize("keep_words", [True, False])
@pytest.mark.parametrize("name,n", sorted(FROZEN_ENUM))
def test_enumeration_matches_frozen_law_bitwise(name, n, keep_words):
    dist = trajectories.enumerate_full_statistics(ENUM_MODELS[name](), n,
                                                  keep_words=keep_words)
    probs, svecs, words = FROZEN_ENUM[name, n]
    assert (_digest(dist.probs), _digest(dist.svecs)) == (probs, svecs)
    if keep_words:
        assert dist.words.dtype == np.int16 and _digest(dist.words) == words
    else:
        assert dist.words is None


@pytest.mark.parametrize("name", sorted(ENUM_MODELS))
def test_blocked_enumeration_is_bitwise_the_whole_level_form(monkeypatch, name):
    """Blocks of one parent, of five and the default budget give the
    probabilities, increments and words of whole levels."""
    model = ENUM_MODELS[name]()
    default = trajectories._ENUM_BLOCK
    for n in (1, 2, 3):
        monkeypatch.setattr(trajectories, "_ENUM_BLOCK", 1 << 30)
        whole = trajectories.enumerate_full_statistics(model, n)
        for budget in (1, 5, default):
            monkeypatch.setattr(trajectories, "_ENUM_BLOCK", budget)
            for keep_words in (True, False):
                got = trajectories.enumerate_full_statistics(model, n, keep_words)
                assert np.array_equal(got.probs, whole.probs)
                assert np.array_equal(got.svecs, whole.svecs)
                if keep_words:
                    assert np.array_equal(got.words, whole.words)


@pytest.mark.parametrize("keep_words", [True, False])
def test_enumeration_holds_its_outputs_one_level_of_parents_and_a_block(keep_words):
    """At n = 6 the traced peak is within 1.5 times the output bytes and one
    block's temporaries; forming every level whole peaked at 3.30 (with
    words) and 5.50 (without) times the output."""
    model = fixtures.two_temperature_qubit()
    trajectories.enumerate_full_statistics(model, 2)
    # four float64 copies of a block's children, all of their coordinates
    budget = 4 * 8 * trajectories._ENUM_BLOCK * model.outcome_table[0][..., 0].size
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dist = trajectories.enumerate_full_statistics(model, 6, keep_words)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    out = dist.probs.nbytes + dist.svecs.nbytes + (dist.words.nbytes if keep_words else 0)
    assert peak <= 1.5 * out + budget, peak / out
