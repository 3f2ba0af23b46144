from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import random_density, random_hermitian
from mris import chains, extended, fixtures, modelfile, models
from test_trajectories import _sparse_mixed_model

MODELS = Path(__file__).resolve().parent.parent / "models"
PERIOD_TWO = [[0.0, 1.0], [1.0, 0.0]]

# models whose generator has a simple eigenvalue 1
IRREDUCIBLE_BUILDS = {
    **{path.stem: (lambda path=path: modelfile.load_model(str(path)))
       for path in sorted(MODELS.glob("*.json"))},
    "random_7_4": lambda: fixtures.random_model(7, n_labels=4),
    "period_two": lambda: fixtures.two_temperature_qubit(p_matrix=PERIOD_TWO),
}


def _oracle_inputs(model):
    labels = model.labels
    return ([model.rho_init[l] for l in labels],
            [model.u[l] for l in labels],
            [model.rho_env[l] for l in labels])


def test_initial_state_matches_oracle(canonical):
    r0 = canonical.initial_state()
    rinit, _, _ = _oracle_inputs(canonical)
    blocks = oracles.initial_blocks_oracle(canonical.chain.pi, canonical.chain.P,
                                           rinit)
    np.testing.assert_allclose(r0.blocks, blocks, atol=1e-14)
    assert abs(r0.total_trace() - 1.0) < 1e-12
    np.testing.assert_allclose(r0.marginal(), canonical.chain.pi @ canonical.chain.P,
                               atol=1e-13)


def test_generator_apply_agrees_with_blockwise_action(canonical, rng):
    g = canonical.generator
    blocks = np.stack([random_density(rng, 2) for _ in canonical.labels]) / 2
    r = extended.ExtendedState(canonical.labels, blocks)
    fast = g.apply(r)
    slow = g.apply_blockwise(r)
    np.testing.assert_allclose(fast.blocks, slow.blocks, atol=1e-13)


def test_duality_against_recursive_path_sum(canonical, rng):
    """<L^n R0, X> equals the exhaustive average over probe words."""
    rinit, us, renvs = _oracle_inputs(canonical)
    g = canonical.generator
    for n in (1, 2, 3):
        x_blocks = [random_hermitian(rng, 2) for _ in canonical.labels]
        x = extended.ExtendedObservable(canonical.labels, np.stack(x_blocks))
        want = oracles.path_expectation_oracle(
            canonical.chain.pi, canonical.chain.P, rinit, us, renvs, x_blocks, n)
        rn = extended.evolve(g, canonical.initial_state(), n)
        got = extended.expectation(rn, x)
        assert abs(got - want) < 1e-12


def test_evolution_preserves_trace_and_positivity(canonical):
    r = canonical.initial_state()
    g = canonical.generator
    for _ in range(25):
        r = g.apply(r)
        r.check(canonical.tol)


def test_adjoint_is_the_pairing_dual(canonical, rng):
    g = canonical.generator
    blocks = np.stack([random_density(rng, 2) for _ in canonical.labels]) / 2
    r = extended.ExtendedState(canonical.labels, blocks)
    x = extended.ExtendedObservable(
        canonical.labels, np.stack([random_hermitian(rng, 2) for _ in canonical.labels]))
    lhs = extended.expectation(g.apply(r), x)
    xd = extended.ExtendedObservable(
        canonical.labels,
        extended.big_unvec(extended.adjoint_matrix(g) @ extended.big_vec(x.blocks),
                           len(canonical.labels), 2))
    rhs = extended.expectation(r, xd)
    assert abs(lhs - rhs) < 1e-12


def test_identity_is_fixed_by_the_adjoint(canonical):
    ident = extended.identity_observable(canonical.labels, 2)
    out = extended.adjoint_matrix(canonical.generator) @ extended.big_vec(ident.blocks)
    np.testing.assert_allclose(out, extended.big_vec(ident.blocks), atol=1e-12)


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------

def test_find_ess_fixed_point(canonical):
    r_plus, residual = extended.find_ess(canonical.generator)
    assert residual < 1e-12
    r_plus.check(canonical.tol)
    moved = canonical.generator.apply(r_plus)
    np.testing.assert_allclose(moved.blocks, r_plus.blocks, atol=1e-12)


def test_ess_decomposition_reconstructs(canonical):
    r_plus, _ = extended.find_ess(canonical.generator)
    dec = extended.ess_decompose(canonical.generator, r_plus)
    np.testing.assert_allclose(dec.pi_plus, [4 / 7, 3 / 7], atol=1e-12)
    assert dec.reconstruction_residual(canonical.generator, r_plus) < 1e-12
    for l in canonical.labels:
        rho = dec.rho_plus[l]
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_find_ess_refuses_degenerate_fixed_space(decoupled):
    with pytest.raises(extended.NotIrreducibleError) as err:
        extended.find_ess(decoupled.generator)
    assert err.value.multiplicity > 1


def test_refused_solves_name_their_cause(canonical):
    """An exactly singular bordered matrix (the identity generator fixes
    every state) reads the multiplicity off the spectrum; a refusal whose
    eigenvalue-1 cluster is a single eigenvalue names the norms instead."""
    ident = extended.ExtendedGenerator(("a", "b"), 2, np.eye(8, dtype=complex))
    with pytest.raises(extended.NotIrreducibleError) as err:
        extended.find_ess(ident)
    assert err.value.multiplicity == 8
    # ||A^-1||_1 = 5.16 and the second eigenvalue is 0.23 from 1
    tol = canonical.tol.replace(peripheral=0.2)
    with pytest.raises(extended.GeneratorError,
                       match=r"refused: \|\|A\^-1\|\|_1 = 5\.155e\+00 reaches "
                             r"1 / tol\.peripheral = 5\.000e\+00 \(bordered "
                             r"condition number 6\.589e\+00\)"):
        extended.find_ess(canonical.generator, tol)


def test_classification_canonical_vs_decoupled(canonical, decoupled):
    cls = extended.classify_generator(canonical.generator)
    assert cls.kind == "primitive"
    assert cls.period == 1
    assert cls.gap > 0.1
    assert cls.eigenvalue_one_multiplicity == 1
    assert cls.ess_faithful

    cls2 = extended.classify_generator(decoupled.generator)
    assert cls2.kind == "reducible"
    assert cls2.eigenvalue_one_multiplicity > 1


@pytest.mark.parametrize("name", IRREDUCIBLE_BUILDS)
def test_left_fixed_point_is_the_identity(name):
    """Trace preservation makes the identity family the adjoint's fixed
    point, which is why classification needs no left eigenvectors."""
    g = IRREDUCIBLE_BUILDS[name]().generator
    cls = extended.classify_generator(g)
    assert cls.kind in ("primitive", "irreducible_periodic")
    assert cls.period == (2 if name == "period_two" else 1)
    eye = extended.big_vec(extended.identity_observable(g.labels, g.dim).blocks)
    assert np.abs(extended.adjoint_matrix(g) @ eye - eye).max() <= 1e-12


def test_defective_generator_classifies_without_raising():
    """A Jordan block at 1 (and a nilpotent one at 0) leaves the
    eigenvectors linearly dependent; eigenvalue 1 counts as not simple."""
    mat = np.zeros((8, 8), dtype=complex)
    mat[:2, :2] = [[1.0, 1.0], [0.0, 1.0]]
    mat[2:5, 2:5] = np.eye(3, k=1)
    mat[5:, 5:] = np.diag([0.5, 0.2, 0.1])
    g = extended.ExtendedGenerator(labels=("a", "b"), dim=2, matrix=mat)
    cls = extended.classify_generator(g)
    assert cls.kind == "reducible"
    assert cls.eigenvalue_one_multiplicity == 2


def test_deformed_generator_at_zero_is_the_generator(canonical):
    g0 = extended.deformed_generator(canonical, np.zeros(2))
    np.testing.assert_allclose(g0.matrix, canonical.generator.matrix, atol=1e-13)


def test_deformed_generator_shrinks_spectral_radius_inside_gc_interval(canonical):
    # strict convexity of e: spr < 1 strictly between the symmetry points
    g = extended.deformed_generator(canonical, 0.5 * np.ones(2))
    w = np.abs(np.linalg.eigvals(g.matrix))
    assert w.max() < 1.0 - 1e-6


def test_generator_matrix_layout(canonical):
    """Block (w', w) of the matrix must be P[w, w'] times the step superop."""
    g = canonical.generator
    d2 = 4
    for wi, w in enumerate(canonical.labels):
        s_w = canonical.channels[w].superop
        for vi in range(len(canonical.labels)):
            block = g.matrix[vi * d2:(vi + 1) * d2, wi * d2:(wi + 1) * d2]
            np.testing.assert_allclose(
                block, canonical.chain.P[wi, vi] * s_w, atol=1e-14)


def test_periodic_driving_gives_periodic_generator():
    m = fixtures.two_temperature_qubit(p_matrix=[[0.0, 1.0], [1.0, 0.0]])
    cls = extended.classify_generator(m.generator)
    assert cls.kind == "irreducible_periodic"
    assert cls.period == 2
    # steady state still exists and is unique for the period-2 mixture
    r_plus, residual = extended.find_ess(m.generator)
    assert residual < 1e-10


def _repair(blocks, tol):
    """find_ess's repair written one block at a time, with the phase factor
    taken in Python complex arithmetic."""
    t = complex(np.trace(blocks, axis1=1, axis2=2).sum())
    blocks = blocks * (t.conjugate() / (abs(t) * abs(t)))
    blocks = (blocks + blocks.conj().transpose(0, 2, 1)) / 2
    repaired = np.empty_like(blocks)
    for k in range(blocks.shape[0]):
        ew, ev = np.linalg.eigh(blocks[k])
        assert ew.min() >= -tol.psd
        repaired[k] = (ev * np.clip(ew, 0.0, None)) @ ev.conj().T
    repaired /= float(np.trace(repaired, axis1=1, axis2=2).sum().real)
    return repaired


def _blockwise_ess_blocks(g, tol):
    """find_ess for one generator: the bordered system
    (1 - M + u tr^T) x = u, u the maximally mixed extended state, solved by
    one inverse and one refinement step, then repaired."""
    m, d = g.n_labels, g.dim
    trace = np.concatenate([extended.big_vec(np.eye(d)[None])] * m)
    u = trace / (m * d)
    a = np.eye(m * d * d) - g.matrix + np.outer(u, trace)
    a_inv = np.linalg.inv(a)
    x = a_inv @ u
    x = x + a_inv @ (u - a @ x)
    return _repair(extended.big_unvec(x, m, d), tol)


def _eigenvector_ess_blocks(g, tol):
    """The steady state the eigenvalue-1 eigenvector gives, repaired."""
    w, vr = np.linalg.eig(g.matrix)
    (i,) = np.flatnonzero(np.abs(w - 1.0) <= tol.peripheral)
    return _repair(extended.big_unvec(vr[:, i], g.n_labels, g.dim), tol)


@pytest.mark.parametrize("name", sorted(IRREDUCIBLE_BUILDS))
def test_stacked_ess_repair_equals_the_blockwise_repair_bitwise(name):
    m = IRREDUCIBLE_BUILDS[name]()
    r_plus, _ = extended.find_ess(m.generator, m.tol)
    assert r_plus.blocks.tobytes() == _blockwise_ess_blocks(m.generator, m.tol).tobytes()
    # a stack of generators along a path of chains, solved in one call
    p_other = np.full((m.chain.n, m.chain.n), 1.0 / m.chain.n)
    P = np.stack([(1 - f) * m.chain.P + f * p_other for f in np.linspace(0.0, 0.9, 5)])
    superops = [m.channels[l].superop for l in m.labels]
    mats = extended._generator_stack(P, superops)
    stacked = extended._ess_stack(mats, m.labels, m.dim_sys, m.tol)
    for k, p in enumerate(P):
        chain = chains.MarkovChain(m.labels, chains.stationary_vector(p)[0], p)
        g = extended.build_generator(chain, m.channels, m.tol)
        assert g.matrix.tobytes() == mats[k].tobytes()
        assert stacked[k].tobytes() == _blockwise_ess_blocks(g, m.tol).tobytes()


ESS_BUILDS = {
    **IRREDUCIBLE_BUILDS,
    **{f"random_{s}_4": (lambda s=s: fixtures.random_model(s, n_labels=4))
       for s in (11, 23)},
    "sparse_mixed": _sparse_mixed_model,
}


@pytest.mark.parametrize("name", sorted(ESS_BUILDS))
def test_bordered_ess_matches_the_eigenvector_route(name):
    m = ESS_BUILDS[name]()
    r_plus, residual = extended.find_ess(m.generator, m.tol)
    assert np.abs(r_plus.blocks - _eigenvector_ess_blocks(m.generator, m.tol)).max() <= 1e-14
    assert residual <= 1e-14
    kappa = extended.bordered_condition(m.generator)
    assert 1.0 <= kappa < 1e3


@pytest.mark.parametrize("c", [1e-3, 1e-4])
def test_weak_coupling_ess_solves_to_round_off(c):
    """The gap closes like c^2 (1e-6, then 1.00000007e-8 against the 1e-8
    eigenvalue-1 cluster), so kappa_1 grows like 1 / c^2; one refinement
    step keeps the residual at round-off."""
    m = fixtures.two_temperature_qubit(coupling_strength=c)
    r_plus, residual = extended.find_ess(m.generator, m.tol)
    assert residual <= 1e-14
    r_plus.check(m.tol)
    assert 1.0 / c ** 2 <= extended.bordered_condition(m.generator) <= 10.0 / c ** 2


@pytest.mark.parametrize("c", [3e-5, 1e-6])
def test_weak_coupling_ess_is_refused_inside_the_eigenvalue_one_cluster(c):
    """Below c = 1e-4 the second eigenvalue lies within tol.peripheral of 1,
    so ||A^{-1}||_1 >= 1 / tol.peripheral: the solve is refused as the
    eigenvector route refused it, and the spectrum names the multiplicity."""
    m = fixtures.two_temperature_qubit(coupling_strength=c)
    with pytest.raises(extended.NotIrreducibleError) as err:
        extended.find_ess(m.generator, m.tol)
    assert err.value.multiplicity == 2


def test_zero_chain_entries_give_exactly_zero_blocks():
    """Blocks where P[v, w] = 0 are +0 exactly, not 0 * S_v (which is -0 in
    some entries of a superoperator with negative parts)."""
    chain = fixtures.two_temperature_qubit(p_matrix=PERIOD_TWO).chain
    superops = [np.full((4, 4), -1.0 - 1.0j), np.full((4, 4), -2.0 - 1.0j)]
    mat = extended.generator_matrix(chain, superops)
    for v in range(chain.n):
        block = mat[v * 4:(v + 1) * 4, v * 4:(v + 1) * 4]
        assert not block.any()
        assert not np.signbit(block.real).any() and not np.signbit(block.imag).any()


def test_stacks_of_families_match_one_family_at_a_time(canonical):
    """big_vec / big_unvec and _generator_stack take leading stack axes; each
    member of a stack is bitwise what the one-family call gives."""
    m, d = canonical.chain.n, canonical.dim_sys
    rng = np.random.default_rng(5)
    blocks = rng.normal(size=(3, m, d, d)) + 1j * rng.normal(size=(3, m, d, d))
    vecs = extended.big_vec(blocks)
    assert vecs.shape == (3, m * d * d)
    assert extended.big_unvec(vecs, m, d).tobytes() == blocks.tobytes()
    for k in range(3):
        assert vecs[k].tobytes() == extended.big_vec(blocks[k]).tobytes()
    superops = np.stack([[canonical.channels[l].superop * (k + 1) for l in canonical.labels]
                         for k in range(3)])
    mats = extended._generator_stack(canonical.chain.P[None], superops)
    assert mats.shape == (3, m * d * d, m * d * d)
    for k in range(3):
        assert mats[k].tobytes() == extended.generator_matrix(canonical.chain,
                                                              superops[k]).tobytes()
