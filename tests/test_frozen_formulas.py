"""Frozen digests of the lifted-generator formulas.

Each entry is a sha256 prefix of the bytes of the arrays a routine returns
(floats go in as float64 arrays), recorded before the formulas were folded
into one implementation each: the generator layout and its alpha-derivatives
in the perturbation kernel, the steady state and its residual, the lift
sum_v pi_v P[v, w] rho_v, the adiabatic tracking errors, the entropy flux,
the Hermitian clustering of the unravelings and of spectral_projections,
and the symmetry reports.  A refactor that keeps every bit keeps every
digest.  The ``ess.*`` and ``adiabatic.*`` entries were recorded again when
the steady state moved from the eigenvalue-1 eigenvector to the bordered
solve (moves of at most 4e-16 in the state and 3.1e-15 in a tracking
error).  The ``classify.*`` entries were recorded while classification
still computed left eigenvectors; reading the eigenvalues alone keeps them.
The ``enum.*`` entries pin the exact three-step law (probabilities,
increments and words) of enumerate_full_statistics.  The ``ratefn.*``
entries pin the values, maximizers and flags of a scalar and a vector rate
function as the lockstep ascent computes them; they were recorded with it.
The ``perron.*``, ``gc``, ``translation`` and ``ratefn.*`` entries were
recorded again when the tilt kernel moved to real pieces in the Hermitian
basis, real LAPACK and the border at the scale of lambda, and the ascent to
its gain stop.  The largest moves, with r, l and the derivative products
of the complex kernel written in the real basis (and r's phase matched):
lam 3.9e-15, matrix 2.2e-16, r 9.0e-16, l 5.0e-15, q 4.2e-14, dm_r 2.6e-16,
l_dm 7.8e-16, l_d2m_r 1.3e-15; gc 1.0e-14, translation 5.9e-15; ratefn
values 1.2e-14, maximizers 4.9e-14 (no flag moved).  The ``ess.*`` and
``adiabatic.*`` entries were recorded again when the steady state, its
repair and the adiabatic sweep moved to the real coordinates and the trace
norms from svd to eigvalsh: largest moves ess blocks 1.7e-16, residual
1.8e-16, reconstruction residual 8.3e-17, tracking errors 9.4e-16 and
their gap minimum 2.3e-15.
The ``perron.*``, ``gc``, ``translation``, ``ratefn.*`` and
``enum.probs`` entries were recorded again when the tilt kernel and the
exact enumeration came to read the one real outcome table of the model (the
chain folded into the tilt weights, the enumeration run in the real
coordinates): largest moves lam 2.7e-15, matrix 1.1e-16, r 1.0e-15,
l 1.9e-15, q 7.1e-15, dm_r 1.4e-16, l_dm 4.2e-16, l_d2m_r 1.1e-15;
gc 2.9e-15, translation 3.2e-15; ratefn values 3.1e-15, maximizers
4.9e-14 (no flag moved); enum probabilities 6.9e-18 (the words and the
increments kept every bit).
The ``cumulant.ray`` entry pins e(0) and the 61-point diagonal ray
a = -1 ... 2 of the cumulant command.  It was recorded while e(alpha) still
kept its values in a per-model memo (the command asked for e(0) and the ray
after the GC symmetry report), and evaluating every tilt afresh keeps it.
The ``ess.kappa_1`` entries (the bordered condition number of the
steady-state solve) and FROZEN_LINRESP (both routes of the kinetic
coefficients and the Green-Kubo matrices on the equilibrium model) were
recorded while kappa_1 and route (a) still solved the bordered system a
second time; reading them from the model's one kept solve keeps them.
The ``classify.ess_faithful`` entry is gone: the classification no longer
solves the steady state, so it has no faithfulness flag to pin (the
steady state's blocks are pinned by ``ess.blocks``).
The ``ess.*`` and ``classify.*`` entries were recorded again when the
generator came to be held only as the real T M T^H, assembled from the
folded channel superoperators rather than rebased from a complex matrix,
and classified by a real eigenvalue solve: ess blocks, residual and
reconstruction residual moved on tri_broken and sparse_mixed (largest
moves 5.6e-17, 3.9e-17 and 1.4e-17), kappa_1 on two_temperature
(1.8e-15, 2.1e-16 relative), and the gap and the peripheral eigenvalue
on all four models (2.3e-15 and 1.6e-15).  No kind, period or
multiplicity moved, and every other entry kept every bit.

The digests depend on LAPACK rounding: they were recorded on x86-64 with
numpy 2.4 and OpenBLAS, and a different LAPACK (or BLAS kernel) may round
the eigensolves, and so these bytes, differently.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from mris import (adiabatic, extended, fixtures, fluctuations, modelfile,
                  models, quantum, trajectories)
from test_trajectories import _sparse_mixed_model

MODELS = Path(__file__).resolve().parent.parent / "models"

FROZEN_MODELS = {
    "two_temperature": lambda: modelfile.load_model(MODELS / "two_temperature_qubit.json"),
    "equilibrium": lambda: modelfile.load_model(MODELS / "equilibrium_qubit.json"),
    "tri_broken": lambda: modelfile.load_model(MODELS / "tri_broken_qubit.json"),
    "sparse_mixed": _sparse_mixed_model,
}

P_END = {2: [[0.2, 0.8], [0.5, 0.5]],
         3: [[0.2, 0.5, 0.3], [0.4, 0.2, 0.4], [0.3, 0.3, 0.4]]}

PERRON_FIELDS = ("lam", "matrix", "r", "l", "q", "dm_r", "l_dm", "l_d2m_r")


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=complex
                                                 if np.iscomplexobj(a) else float)).tobytes())
    return h.hexdigest()[:16]


def _alphas(m):
    rng = np.random.default_rng(20240901)
    return [np.zeros(m), 0.3 * np.ones(m)] + [rng.uniform(-1.0, 2.0, size=m)
                                              for _ in range(3)]


def _snapshot(model) -> dict:
    out = {}
    m = model.chain.n

    kernels = [fluctuations._perron(model, a) for a in _alphas(m)]
    for name in PERRON_FIELDS:
        out[f"perron.{name}"] = _digest(*[getattr(k, name) for k in kernels])

    g = model.generator
    r_plus, residual = extended.find_ess(g, model.tol)
    decomp = extended.ess_decompose(g, r_plus, model.tol)
    out["ess.blocks"] = _digest(r_plus.blocks)
    out["ess.residual"] = _digest(residual)
    out["ess.reconstruction_residual"] = _digest(decomp.reconstruction_residual(g, r_plus))
    out["ess.kappa_1"] = _digest(model.steady_state.condition)
    out["initial_state"] = _digest(model.initial_state().blocks)

    cls = extended.classify_generator(g, model.tol)
    out["classify.kind"] = _digest([ord(c) for c in cls.kind])
    out["classify.period"] = _digest(cls.period)
    out["classify.gap"] = _digest(cls.gap)
    out["classify.eigenvalue_one_multiplicity"] = _digest(cls.eigenvalue_one_multiplicity)
    out["classify.peripheral"] = _digest(cls.peripheral)

    for kind in ("linear", "smoothstep"):
        sched = adiabatic.AdiabaticSchedule(model.chain.P, np.array(P_END[m]), kind=kind)
        for n in (64, 300):
            res = adiabatic.adiabatic_evolve(model, sched, n)
            out[f"adiabatic.{kind}.{n}"] = _digest(res.errors, res.instantaneous_gap_min)

    out["entropy_flux"] = _digest(models.entropy_flux_observable(model).blocks)

    law = trajectories.enumerate_full_statistics(model, 3)
    out["enum.probs"] = _digest(law.probs)
    out["enum.svecs"] = _digest(law.svecs)
    out["enum.words"] = _digest(law.words)

    for label in model.labels:
        u = model.unravelings[label]
        out[f"unraveling.{label}"] = _digest(u.varsigma, *u.projections)
        for what, h in (("h_env", model.probes[label].h_env), ("s_env", u.s_env)):
            dec = quantum.spectral_projections(h)
            out[f"spectral.{what}.{label}"] = _digest(dec.eigenvalues, *dec.projections)
    dec = quantum.spectral_projections(model.h_sys)
    out["spectral.h_sys"] = _digest(dec.eigenvalues, *dec.projections)

    ones = np.ones(m)
    scalar = fluctuations.entropy_rate_function(model, np.sort(
        [-ones @ fluctuations._grad_e(model, -a * ones) for a in np.linspace(-0.45, 0.45, 21)]))
    vector = fluctuations.rate_function(
        model, [-fluctuations._grad_e(model, -a) for a in _alphas(m)])
    out["ratefn.values"] = _digest(scalar.values, vector.values)
    out["ratefn.maximizers"] = _digest(scalar.maximizers, vector.maximizers)
    out["ratefn.flags"] = _digest(scalar.converged, scalar.unbounded,
                                  vector.converged, vector.unbounded)

    gc = fluctuations.gc_symmetry_report(model)
    out["gc"] = _digest(*[np.hstack([a, va, vb, r]) for a, va, vb, r in gc.entries],
                        gc.max_residual)
    tr = fluctuations.translation_symmetry_report(model)
    out["translation"] = _digest(*[np.hstack([a, gam, vb, r]) for a, gam, vb, r in tr.entries],
                                 tr.max_residual)
    ray = np.linspace(-1.0, 2.0, 61)
    out["cumulant.ray"] = _digest(fluctuations.e_of_alpha(model, np.append(0.0, ray)[:, None]
                                                          * np.ones(m)))
    return out


FROZEN = {
    'equilibrium': {
        'adiabatic.linear.300': 'c194b3c414b2bbf7',
        'adiabatic.linear.64': '253e60931ffb5acc',
        'adiabatic.smoothstep.300': '887bfb8bf71867bd',
        'adiabatic.smoothstep.64': 'e492821bb71c695d',
        'classify.eigenvalue_one_multiplicity': '6c3c396ed6b5c36d',
        'classify.gap': 'abee9aeb885cbd85',
        'classify.kind': '78c7ae3b61e0f1a3',
        'classify.period': '6c3c396ed6b5c36d',
        'classify.peripheral': 'ca29b45f53274f46',
        'cumulant.ray': '1f64e2bd9db11d47',
        'enum.probs': 'ac23f8153509d310',
        'enum.svecs': '0908e7b3eb7fabdc',
        'enum.words': 'edd438497ba7ef6b',
        'entropy_flux': '56e8ed9083587b33',
        'ess.blocks': '7c8fd2083edda26a',
        'ess.kappa_1': 'c7479214b33bf9d1',
        'ess.reconstruction_residual': 'afdb85344a964222',
        'ess.residual': 'acf674302fb9d85f',
        'gc': '43d53fa93b05a75e',
        'initial_state': '24749c899b9b8565',
        'perron.dm_r': '491fd2a5a3fd8d47',
        'perron.l': '031f7db7272c7bdb',
        'perron.l_d2m_r': '767bd9c638d726ce',
        'perron.l_dm': 'a487bf9157d75215',
        'perron.lam': '3edd21f74fe30edb',
        'perron.matrix': '203fb7efb3354c03',
        'perron.q': 'eec833266868b236',
        'perron.r': '4561c6c2c2ce7a01',
        'ratefn.flags': '701b77d55a69cd5b',
        'ratefn.maximizers': 'ab8f189f4f242e5f',
        'ratefn.values': '213b529276e2d651',
        'spectral.h_env.cold': '02ca1916dede82df',
        'spectral.h_env.hot': '02ca1916dede82df',
        'spectral.h_sys': '02ca1916dede82df',
        'spectral.s_env.cold': '82ee7744411569d9',
        'spectral.s_env.hot': '82ee7744411569d9',
        'translation': 'e2be834c5295fb98',
        'unraveling.cold': '82ee7744411569d9',
        'unraveling.hot': '82ee7744411569d9',
    },
    'sparse_mixed': {
        'adiabatic.linear.300': '99a13f7f541f3629',
        'adiabatic.linear.64': '5f52476e5132488d',
        'adiabatic.smoothstep.300': '8b559e7696c78139',
        'adiabatic.smoothstep.64': '0d604e8dc79b75f6',
        'classify.eigenvalue_one_multiplicity': '6c3c396ed6b5c36d',
        'classify.gap': '3d14f48dc3bff9b8',
        'classify.kind': '78c7ae3b61e0f1a3',
        'classify.period': '6c3c396ed6b5c36d',
        'classify.peripheral': '4350ba7f5dc465f1',
        'cumulant.ray': '4d3644020360836b',
        'enum.probs': '6215e2a27a01b08f',
        'enum.svecs': 'b197cae2d134451a',
        'enum.words': '48dcd595f5308859',
        'entropy_flux': '63fd19d206e888b0',
        'ess.blocks': '56eac1703c833f79',
        'ess.kappa_1': '213f374edbdba158',
        'ess.reconstruction_residual': 'dfa2fe7f1a152dd7',
        'ess.residual': '90791e1b411e971c',
        'gc': '5391b1679d9b37e1',
        'initial_state': '03449031af52c020',
        'perron.dm_r': '7bba0e151728c191',
        'perron.l': 'bc38f7fd420d02df',
        'perron.l_d2m_r': 'aab37b80be5d255a',
        'perron.l_dm': '38acc4e9f0536ad9',
        'perron.lam': '08c535bdbf1398fc',
        'perron.matrix': '2ba23b478cb8fcb2',
        'perron.q': 'f3b20a3631c119af',
        'perron.r': '653e24ee37904884',
        'ratefn.flags': '701b77d55a69cd5b',
        'ratefn.maximizers': '908dede93a7e254c',
        'ratefn.values': '6d59c0c478560093',
        'spectral.h_env.w0': '02ca1916dede82df',
        'spectral.h_env.w1': 'c2d38df7f8a9f1bc',
        'spectral.h_env.w2': '02ca1916dede82df',
        'spectral.h_sys': '02ca1916dede82df',
        'spectral.s_env.w0': '48ff7771466c1bb3',
        'spectral.s_env.w1': '7720f34f379f911e',
        'spectral.s_env.w2': '075f13473794e0e6',
        'translation': '61e2bd45af4fc166',
        'unraveling.w0': '48ff7771466c1bb3',
        'unraveling.w1': '7720f34f379f911e',
        'unraveling.w2': '075f13473794e0e6',
    },
    'tri_broken': {
        'adiabatic.linear.300': '499b4285016bfd26',
        'adiabatic.linear.64': 'b32d1064f10be9f0',
        'adiabatic.smoothstep.300': 'a156299de580bf06',
        'adiabatic.smoothstep.64': '5ec0f405eeabaa77',
        'classify.eigenvalue_one_multiplicity': '6c3c396ed6b5c36d',
        'classify.gap': 'c9f35b8009e8a997',
        'classify.kind': '78c7ae3b61e0f1a3',
        'classify.period': '6c3c396ed6b5c36d',
        'classify.peripheral': '5b02826d5a8b4c19',
        'cumulant.ray': '6d64df3670d1ed37',
        'enum.probs': '231d9ae0e069af99',
        'enum.svecs': '13cbedb9f15f4871',
        'enum.words': 'edd438497ba7ef6b',
        'entropy_flux': 'd7a980cdf0b8cd11',
        'ess.blocks': '9eac5a441bfc9d20',
        'ess.kappa_1': 'aa473d2617249cd0',
        'ess.reconstruction_residual': '50cd5005233c4289',
        'ess.residual': '01445266fcc35ffa',
        'gc': '522b7ca172ef9288',
        'initial_state': '24749c899b9b8565',
        'perron.dm_r': '92f2abcd2b246054',
        'perron.l': 'c0896809f8f11aee',
        'perron.l_d2m_r': '2873218cea2506f4',
        'perron.l_dm': '587f548766f679a0',
        'perron.lam': '32512b2d70a214be',
        'perron.matrix': 'd600894cf9b9e804',
        'perron.q': '34e5b280b2debb42',
        'perron.r': '1a7bfbc1c344a37f',
        'ratefn.flags': '701b77d55a69cd5b',
        'ratefn.maximizers': '9b00dc2bf6a40576',
        'ratefn.values': '7a4bf2574ca15859',
        'spectral.h_env.cold': '02ca1916dede82df',
        'spectral.h_env.hot': '02ca1916dede82df',
        'spectral.h_sys': '02ca1916dede82df',
        'spectral.s_env.cold': '2454a61930296ab5',
        'spectral.s_env.hot': '82ee7744411569d9',
        'translation': 'ee1e44a2cae24980',
        'unraveling.cold': '2454a61930296ab5',
        'unraveling.hot': '82ee7744411569d9',
    },
    'two_temperature': {
        'adiabatic.linear.300': '612a5ab6b31c0ed7',
        'adiabatic.linear.64': '89cd25c2abc224bb',
        'adiabatic.smoothstep.300': '5b8fa000dce3c278',
        'adiabatic.smoothstep.64': 'c8cd95f1bda00eed',
        'classify.eigenvalue_one_multiplicity': '6c3c396ed6b5c36d',
        'classify.gap': 'ca66af0c8ba9260f',
        'classify.kind': '78c7ae3b61e0f1a3',
        'classify.period': '6c3c396ed6b5c36d',
        'classify.peripheral': 'ca29b45f53274f46',
        'cumulant.ray': '1af9fcd14b7dd6ae',
        'enum.probs': 'e720a57d8f9d5ec6',
        'enum.svecs': '13cbedb9f15f4871',
        'enum.words': 'edd438497ba7ef6b',
        'entropy_flux': '0ccb1cee99dbd0e8',
        'ess.blocks': '99674582fb73ee88',
        'ess.kappa_1': '1a0460b07253d488',
        'ess.reconstruction_residual': 'c08803e545574d93',
        'ess.residual': 'ceca9c112e59a6c4',
        'gc': '5c2e6fcc14553927',
        'initial_state': '24749c899b9b8565',
        'perron.dm_r': '785758a784f3069b',
        'perron.l': 'cbf7524820ba53d7',
        'perron.l_d2m_r': '382d360a562667fd',
        'perron.l_dm': 'd8aca8155e8c075e',
        'perron.lam': '7f59d21087f39329',
        'perron.matrix': '890c5b56783f87dc',
        'perron.q': '781418a82f373f05',
        'perron.r': 'f7c29bfd4df7efcf',
        'ratefn.flags': '701b77d55a69cd5b',
        'ratefn.maximizers': '1c7816e46c3fcf23',
        'ratefn.values': '1ef884a627efb2e5',
        'spectral.h_env.cold': '02ca1916dede82df',
        'spectral.h_env.hot': '02ca1916dede82df',
        'spectral.h_sys': '02ca1916dede82df',
        'spectral.s_env.cold': '2454a61930296ab5',
        'spectral.s_env.hot': '82ee7744411569d9',
        'translation': 'd400d5bf56321bfa',
        'unraveling.cold': '2454a61930296ab5',
        'unraveling.hot': '82ee7744411569d9',
    },
}


@pytest.mark.parametrize("name", sorted(FROZEN_MODELS))
def test_formulas_match_frozen_digests(name):
    got = _snapshot(FROZEN_MODELS[name]())
    want = FROZEN[name]
    assert sorted(got) == sorted(want)
    assert {k: v for k, v in got.items() if v != want[k]} == {}


FROZEN_LINRESP = {
    'kinetic.matrix': '78c6f8adc99dbd5e',
    'kinetic.route_b': '6a527c71dac1892e',
    'green_kubo.matrix': '2f463cd82aeab88f',
    'green_kubo.per_epsilon.0.05': 'dac3e79e7c2ac463',
    'green_kubo.per_epsilon.0.025': '1cdc63fc55917fc2',
    'green_kubo.per_epsilon.0.0125': 'e1addfce2e32aa05',
}


def test_linear_response_matches_frozen_digests():
    """Both routes of the kinetic coefficients and every Green-Kubo matrix
    at equilibrium, the one model where they are defined."""
    model = FROZEN_MODELS["equilibrium"]()
    kin = fluctuations.kinetic_coefficients(model)
    gk = fluctuations.green_kubo(model)
    got = {"kinetic.matrix": _digest(kin.matrix), "kinetic.route_b": _digest(kin.route_b),
           "green_kubo.matrix": _digest(gk.matrix)}
    got.update({f"green_kubo.per_epsilon.{eps}": _digest(mat)
                for eps, mat in gk.per_epsilon.items()})
    assert got == FROZEN_LINRESP


@pytest.mark.parametrize("name", sorted(FROZEN_MODELS) + ["random_11"])
def test_tilted_generator_is_the_kernel_matrix(name):
    """deformed_generator and the perturbation kernel read the one real
    M(alpha), bit for bit, also on padded labels (sparse_mixed has 4/9/4
    outcomes): the kernel's matrix and deformed_generator's are
    _tilted_stack's."""
    model = (fixtures.random_model(11, n_labels=3) if name == "random_11"
             else FROZEN_MODELS[name]())
    for a in _alphas(model.chain.n):
        real = fluctuations._perron(model, a).matrix
        assert real.dtype == np.float64
        assert real.tobytes() == extended._tilted_stack(model, a).tobytes()
        assert extended.deformed_generator(model, a).matrix.tobytes() == real.tobytes()
