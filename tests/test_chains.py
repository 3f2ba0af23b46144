import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mris import chains


def make(p_rows, pi=None, labels=None):
    p = np.asarray(p_rows, dtype=float)
    n = p.shape[0]
    if pi is None:
        pi = np.ones(n) / n
    if labels is None:
        labels = tuple(f"w{k}" for k in range(n))
    return chains.MarkovChain(labels=labels, pi=np.asarray(pi, float), P=p)


PRIMITIVE = [[0.7, 0.3], [0.4, 0.6]]
TWO_CYCLE = [[0.0, 1.0], [1.0, 0.0]]
REDUCIBLE = [[1.0, 0.0], [0.5, 0.5]]


def test_chain_validation():
    with pytest.raises(chains.ChainError):
        make(PRIMITIVE, pi=[0.9, 0.2])
    with pytest.raises(chains.ChainError):
        make([[0.5, 0.6], [0.4, 0.6]])
    with pytest.raises(chains.ChainError):
        make([[1.1, -0.1], [0.4, 0.6]])
    with pytest.raises(chains.ChainError):
        chains.MarkovChain(labels=("a",), pi=np.array([1.0]),
                           P=np.array([[1.0, 0.0]]))


@pytest.mark.parametrize("p", [PRIMITIVE, TWO_CYCLE, REDUCIBLE,
                               [[0.2, 0.8, 0.0], [0.0, 0.1, 0.9], [0.5, 0.0, 0.5]],
                               [[0, 1, 0], [0, 0, 1], [1, 0, 0]]])
def test_classification_matches_reachability_oracles(p):
    c = make(p)
    cls = chains.classify_chain(c)
    assert cls.irreducible == oracles.irreducible_oracle(np.asarray(p, float))
    if cls.irreducible:
        assert cls.period == oracles.period_oracle(np.asarray(p, float))
        assert cls.primitive == (cls.period == 1)


def test_stationary_vector_against_power_iteration():
    p = np.asarray(PRIMITIVE, float)
    pi, unique = chains.stationary_vector(p)
    assert unique
    np.testing.assert_allclose(pi, oracles.stationary_power_oracle(p), atol=1e-12)
    np.testing.assert_allclose(pi, [4 / 7, 3 / 7], atol=1e-12)
    np.testing.assert_allclose(pi @ p, pi, atol=1e-13)


def test_stationary_vector_flags_nonuniqueness():
    _, unique = chains.stationary_vector(np.eye(2))
    assert not unique


def test_detailed_balance_detection():
    rev = make([[0.5, 0.5], [0.5, 0.5]])
    assert chains.classify_chain(rev).detailed_balance
    irrev = make([[0.2, 0.8, 0.0], [0.0, 0.2, 0.8], [0.8, 0.0, 0.2]])
    cls = chains.classify_chain(irrev)
    assert not cls.detailed_balance
    assert cls.db_residual > 1e-3


def test_sample_path_layout_and_reproducibility():
    c = make(PRIMITIVE, pi=[4 / 7, 3 / 7], labels=("hot", "cold"))
    path1 = chains.sample_path(c, 50, seed=9)
    path2 = chains.sample_path(c, 50, seed=9)
    assert path1 == path2
    assert len(path1) == 51
    assert set(path1) <= {"hot", "cold"}
    assert chains.sample_path(c, 50, seed=10) != path1
    # transitions respect the support of P
    idx = [c.index(l) for l in path1]
    for a, b in zip(idx, idx[1:]):
        assert c.P[a, b] > 0


def test_sample_path_matches_manual_inverse_cdf():
    """Replay the documented stream layout by hand."""
    c = make(PRIMITIVE, pi=[4 / 7, 3 / 7], labels=("hot", "cold"))
    n = 20
    u = chains.path_stream(77).random(n + 1)
    idx = [oracles.inverse_cdf_oracle(c.pi, u[0])]
    for k in range(1, n + 1):
        idx.append(oracles.inverse_cdf_oracle(c.P[idx[-1]], u[k]))
    assert [c.labels[i] for i in idx] == chains.sample_path(c, n, seed=77)


def test_long_run_occupation_approaches_pi():
    c = make(PRIMITIVE, pi=[4 / 7, 3 / 7], labels=("hot", "cold"))
    path = chains.sample_path(c, 20000, seed=1)
    freq = path.count("hot") / len(path)
    assert abs(freq - 4 / 7) < 0.02


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_random_positive_chains_are_primitive(seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 1.0, size=(3, 3))
    p /= p.sum(axis=1, keepdims=True)
    cls = chains.classify_chain(make(p))
    assert cls.irreducible and cls.period == 1 and cls.primitive
    assert cls.stationary_unique
    np.testing.assert_allclose(cls.stationary @ p, cls.stationary, atol=1e-10)


@pytest.mark.parametrize("n", list(range(9)) + [999, 1000, 4999, 5000])
def test_outcome_stream_continues_the_path_stream(n):
    """An n-step trajectory's outcome uniforms are draws n+1, n+2, ... of its
    stream; the offset recipe must land on them bit for bit."""
    for seed in (0, 77, 2 ** 40 + 3):
        want = chains.path_stream(seed).random(2 * n + 5)[n + 1:]
        assert np.array_equal(chains.outcome_stream(seed, n).random(n + 4), want)
