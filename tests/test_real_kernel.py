"""The real tilt kernel: M(alpha) from the model's real outcome table in
the Hermitian basis, real LAPACK, and the border at the scale of lambda.

The complex assembly and kernel that the real ones replaced are kept below
as the reference, read from the complex outcome maps of the unravelings;
gradients at large tilts are checked against values from a 40-digit
eigensolve of the same float matrices (mpmath, computed once and stored as
literals).
"""

import math
from pathlib import Path

import numpy as np
import pytest

from mris import cli, extended, fixtures, fluctuations, modelfile
from test_frozen_formulas import FROZEN_MODELS, _alphas
from test_trajectories import _complex_outcome_superops

MODEL_DIR = Path(__file__).resolve().parent.parent / "models"
EQUILIBRIUM = str(MODEL_DIR / "equilibrium_qubit.json")


def _model(name):
    if name == "random_11":
        return fixtures.random_model(11, n_labels=3)
    return FROZEN_MODELS[name]()


# ---------------------------------------------------------------------------
# the complex assembly and kernel that the real ones replaced
# ---------------------------------------------------------------------------

def _complex_tilted_stack(model, alpha):
    """M(alpha), then d^k M / d alpha_v^k at 1 + (k - 1) m + v, (1 + 2m, n, n),
    assembled in the stacked vec(rho) layout from the complex outcome
    superoperators."""
    superops, deltas = _complex_outcome_superops(model), model.outcome_table[2]
    m = len(deltas)
    weights = (-deltas) ** np.arange(3)[:, None, None] * np.exp(-alpha[:, None] * deltas)
    blocks = np.einsum("kvx,vxij->kvij", weights, superops)
    families = np.zeros((1 + 2 * m,) + superops.shape[:1] + superops.shape[2:],
                        dtype=complex)
    families[0] = blocks[0]
    for k in (1, 2):
        for v in range(m):
            families[1 + (k - 1) * m + v, v] = blocks[k, v]
    return extended._generator_stack(model.chain.P[None], families)


def _complex_kernel(model, alpha):
    """e, its gradient and Hessian from one complex eig of M(alpha) and the
    inverse of lam - M + r r^H."""
    mats = _complex_tilted_stack(model, alpha)
    m, n = model.chain.n, mats.shape[-1]
    gen, d1, d2 = mats[0], mats[1:1 + m], mats[1 + m:]
    w, vr = np.linalg.eig(gen)
    i = fluctuations._perron_index(w, alpha)
    lam, r = w[i].real, vr[:, i]
    b_inv = np.linalg.inv(lam * np.eye(n) - gen + np.outer(r, r.conj()))
    l = (r.conj() @ b_inv).conj()
    proj = np.eye(n) - np.outer(r, l.conj())
    q = proj @ b_inv @ proj
    l_dm = np.array([l.conj() @ d for d in d1])
    dm_r = np.array([d @ r for d in d1]).T
    grad = (l_dm @ r).real / lam
    cross = (l_dm @ q @ dm_r).real
    diag = np.diag([(l.conj() @ d @ r).real for d in d2])
    return math.log(lam), grad, (diag + cross + cross.T) / lam - np.outer(grad, grad)


def _hermitian_transform(mats, d):
    """T M T^H with T = 1_m (x) U: complex matrices in the real coordinates."""
    t = np.kron(np.eye(mats.shape[-1] // (d * d)), extended._hermitian_basis(d))
    return t @ mats @ t.conj().T


@pytest.mark.parametrize("name", sorted(FROZEN_MODELS) + ["random_11"])
def test_real_kernel_matches_the_complex_reference(name):
    """e, grad e and Hess e agree with the complex kernel to 1e-13
    relative; the real M(alpha) is the complex one in the real coordinates."""
    model = _model(name)
    d = model.dim_sys
    for alpha in _alphas(model.chain.n):
        e, grad, hess = fluctuations._perron(model, alpha).derivatives()
        want_e, want_grad, want_hess = _complex_kernel(model, alpha)
        assert abs(e - want_e) <= 1e-13 * max(1.0, abs(want_e))
        assert np.abs(grad - want_grad).max() <= 1e-13 * max(1.0, np.abs(want_grad).max())
        assert np.abs(hess - want_hess).max() <= 1e-13 * max(1.0, np.abs(want_hess).max())
        assert fluctuations.e_of_alpha(model, alpha) == pytest.approx(want_e, rel=1e-13, abs=1e-13)
        complex_m = _hermitian_transform(_complex_tilted_stack(model, alpha)[0], d)
        real_m = extended._tilted_stack(model, alpha)
        assert np.abs(complex_m.imag).max() <= 1e-15 * np.abs(real_m).max()
        assert np.abs(complex_m.real - real_m).max() <= 1e-15 * np.abs(real_m).max()


RANDOM_MODELS = [(seed, 2 + seed % 3) for seed in range(20)]


@pytest.mark.parametrize("build", [
    *[lambda name=name: modelfile.load_model(MODEL_DIR / f"{name}.json")
      for name in ("two_temperature_qubit", "equilibrium_qubit", "tri_broken_qubit")],
    *[lambda s=s, k=k: fixtures.random_model(s, n_labels=k) for s, k in RANDOM_MODELS],
], ids=["two_temperature", "equilibrium", "tri_broken",
        *[f"random_{s}_{k}" for s, k in RANDOM_MODELS]])
def test_the_outcome_table_is_real_and_read_only(build):
    """Every (label, outcome) superoperator and probability functional is
    real in the Hermitian basis before its imaginary part is dropped, and
    the model keeps the folded table read-only, built once."""
    model = build()
    superops, prob_funcs = model.outcome_table[:2]
    assert model.outcome_table[0] is superops
    u = extended._hermitian_basis(model.dim_sys)
    folded = u @ _complex_outcome_superops(model) @ u.conj().T
    assert np.abs(folded.imag).max() <= 1e-15 * max(1.0, np.abs(folded.real).max())
    assert superops.tobytes() == folded.real.tobytes()
    for table in (superops, prob_funcs):
        assert table.dtype == np.float64 and not table.flags.writeable
    # tr(G rho) = prob_funcs . x for a Hermitian rho with coordinates x
    off = np.triu(np.full((model.dim_sys,) * 2, 0.1 - 0.2j), 1)
    rho = np.eye(model.dim_sys) + off + off.conj().T
    x = extended._coords(rho[None])
    for w, label in enumerate(model.labels):
        entry = model.unravelings[label]
        want = np.einsum("xij,ji->x", entry.prob_ops, rho).real
        assert np.abs(prob_funcs[w, :entry.n_outcomes] @ x - want).max() <= 1e-15


def _with_phase(phase):
    """A two-temperature model whose hot outcome maps carry a phase: they do
    not preserve Hermiticity beyond round-off."""
    m = fixtures.two_temperature_qubit()
    entry = m.unravelings["hot"]
    entry._superops = entry._superops * np.exp(phase)
    return m


def test_a_map_that_is_not_hermiticity_preserving_is_a_typed_kernel_error():
    """e_of_alpha and _perron raise RealBasisError on every call and keep no
    outcome table; a phase of round-off size is accepted."""
    fluctuations.e_of_alpha(_with_phase(1e-15j), np.array([0.2, 0.1]))
    model = _with_phase(1e-6j)
    for _ in range(2):
        for route in (fluctuations.e_of_alpha, fluctuations._perron):
            with pytest.raises(extended.RealBasisError,
                               match="superoperators not real in the Hermitian basis"):
                route(model, np.array([0.2, 0.1]))
    assert "outcome_table" not in vars(model)


def test_mris_cumulant_on_a_map_that_is_not_hermiticity_preserving_exits_2(
        monkeypatch, capsys):
    load = cli.load_model

    def load_with_phase(*args, **kwargs):
        model = load(*args, **kwargs)
        entry = model.unravelings[model.labels[0]]
        entry._superops = entry._superops * np.exp(1e-6j)
        return model

    monkeypatch.setattr(cli, "load_model", load_with_phase)
    assert cli.main(["cumulant", "--model", EQUILIBRIUM, "--grid-points", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: superoperators not real in the Hermitian basis")


# ---------------------------------------------------------------------------
# gradients at large tilts against a 40-digit reference
# ---------------------------------------------------------------------------

# grad e at t (1, ..., 1): central differences (step 1e-18) of a 50-digit
# mpmath eigensolve of the float pieces, with exp taken in mpmath; at 80
# digits and step 1e-30 the first and the last entry agree to every digit
GRAD_REFERENCE = {
    ("tri_broken", -10.0): (-0.00001256122684939246487269979,
                            -1.999974865488883390765863),
    ("tri_broken", -10.0025): (-0.00001252986143154226523054842,
                               -1.99997492827985591246909),
    ("tri_broken", 8.0): (0.0002525410472759573515193066,
                          1.999490052963683585703156),
    ("random_11", -10.0025): (-2.22139258830205509153041,
                              -0.0000009568958947055991228584344,
                              -0.000002785629246749666917047127),
}


@pytest.mark.parametrize("name, t", list(GRAD_REFERENCE))
def test_gradient_at_large_tilts_matches_a_40_digit_reference(name, t):
    """With the border at the scale of lambda the bordered matrix stays
    well conditioned, and grad e keeps its digits (the border r r^H lost up
    to 1.5e-7 here)."""
    model = _model(name)
    alpha = t * np.ones(model.chain.n)
    grad = fluctuations._perron(model, alpha).derivatives()[1]
    assert np.abs(grad - np.array(GRAD_REFERENCE[name, t])).max() <= 1e-13
    stacked = fluctuations._perron(model, np.stack([alpha, 0.5 * alpha])).derivatives()[1]
    assert stacked[0].tobytes() == grad.tobytes()
