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
    out["initial_state"] = _digest(model.initial_state().blocks)

    cls = extended.classify_generator(g, model.tol)
    out["classify.kind"] = _digest([ord(c) for c in cls.kind])
    out["classify.period"] = _digest(cls.period)
    out["classify.gap"] = _digest(cls.gap)
    out["classify.eigenvalue_one_multiplicity"] = _digest(cls.eigenvalue_one_multiplicity)
    out["classify.peripheral"] = _digest(cls.peripheral)
    out["classify.ess_faithful"] = _digest(cls.ess_faithful)

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
    return out


FROZEN = {
    'equilibrium': {
        'adiabatic.linear.300': 'b15d0004121b3d19',
        'adiabatic.linear.64': 'f89dfc025b2e232b',
        'adiabatic.smoothstep.300': '8caeb3c5e4b2b2af',
        'adiabatic.smoothstep.64': 'e822f0a631f196cb',
        'classify.eigenvalue_one_multiplicity': '6c3c396ed6b5c36d',
        'classify.ess_faithful': '6c3c396ed6b5c36d',
        'classify.gap': '2c20cc027f127ee1',
        'classify.kind': '78c7ae3b61e0f1a3',
        'classify.period': '6c3c396ed6b5c36d',
        'classify.peripheral': 'ecbd733a550ee37d',
        'enum.probs': 'ac23f8153509d310',
        'enum.svecs': '0908e7b3eb7fabdc',
        'enum.words': 'edd438497ba7ef6b',
        'entropy_flux': '56e8ed9083587b33',
        'ess.blocks': 'e80f4951cc0fecdf',
        'ess.reconstruction_residual': '480176fc65506bb4',
        'ess.residual': '773b5de0530c6b6a',
        'gc': '59d67aaa2169ad8a',
        'initial_state': '24749c899b9b8565',
        'perron.dm_r': '492c3c7a132da874',
        'perron.l': '104efefd466deacb',
        'perron.l_d2m_r': '20195b952b4df4e4',
        'perron.l_dm': 'cc5761ad55e9a6bd',
        'perron.lam': '8719b9155c180df0',
        'perron.matrix': 'd07db8d6e9f949b3',
        'perron.q': 'a08454e2fe60de80',
        'perron.r': '83d7f0b80faa7e82',
        'ratefn.flags': '701b77d55a69cd5b',
        'ratefn.maximizers': '343b5edff7bddf02',
        'ratefn.values': '0df25ff0b5b3796d',
        'spectral.h_env.cold': '02ca1916dede82df',
        'spectral.h_env.hot': '02ca1916dede82df',
        'spectral.h_sys': '02ca1916dede82df',
        'spectral.s_env.cold': '82ee7744411569d9',
        'spectral.s_env.hot': '82ee7744411569d9',
        'translation': '65440b529448d01e',
        'unraveling.cold': '82ee7744411569d9',
        'unraveling.hot': '82ee7744411569d9',
    },
    'sparse_mixed': {
        'adiabatic.linear.300': '0381f48a21a25e7e',
        'adiabatic.linear.64': '93688ef3d3b6b06c',
        'adiabatic.smoothstep.300': 'a4bfc2ae696026c5',
        'adiabatic.smoothstep.64': 'f4a6563ada3cb401',
        'classify.eigenvalue_one_multiplicity': '6c3c396ed6b5c36d',
        'classify.ess_faithful': '6c3c396ed6b5c36d',
        'classify.gap': '4aacbc88c15e9e21',
        'classify.kind': '78c7ae3b61e0f1a3',
        'classify.period': '6c3c396ed6b5c36d',
        'classify.peripheral': '166bac70ff1e117b',
        'enum.probs': '3aa489e2152fac25',
        'enum.svecs': 'b197cae2d134451a',
        'enum.words': '48dcd595f5308859',
        'entropy_flux': '63fd19d206e888b0',
        'ess.blocks': '27e398ea47d6d485',
        'ess.reconstruction_residual': '2c90700cca8fa9fe',
        'ess.residual': '81d75406d0f18a55',
        'gc': 'd585d02aa23cd65f',
        'initial_state': '03449031af52c020',
        'perron.dm_r': 'bb88437f12203195',
        'perron.l': 'c66e0f7bee2a2897',
        'perron.l_d2m_r': 'a7b32a5756bdc747',
        'perron.l_dm': '45cc6f0726e90f5a',
        'perron.lam': '57b415fd15253895',
        'perron.matrix': 'ac12c7ccc68e829d',
        'perron.q': '7e5558ae4482bc7d',
        'perron.r': '3926e17c1efb019a',
        'ratefn.flags': '701b77d55a69cd5b',
        'ratefn.maximizers': 'efd9008f5003e67e',
        'ratefn.values': '093ddde577a13a3e',
        'spectral.h_env.w0': '02ca1916dede82df',
        'spectral.h_env.w1': 'c2d38df7f8a9f1bc',
        'spectral.h_env.w2': '02ca1916dede82df',
        'spectral.h_sys': '02ca1916dede82df',
        'spectral.s_env.w0': '48ff7771466c1bb3',
        'spectral.s_env.w1': '7720f34f379f911e',
        'spectral.s_env.w2': '075f13473794e0e6',
        'translation': '0f1b7801faafc211',
        'unraveling.w0': '48ff7771466c1bb3',
        'unraveling.w1': '7720f34f379f911e',
        'unraveling.w2': '075f13473794e0e6',
    },
    'tri_broken': {
        'adiabatic.linear.300': '5359fce9b4a6e5df',
        'adiabatic.linear.64': 'b0580fdd11fd04b0',
        'adiabatic.smoothstep.300': '2654e71a916f22d4',
        'adiabatic.smoothstep.64': 'fd79e8bd37695c0b',
        'classify.eigenvalue_one_multiplicity': '6c3c396ed6b5c36d',
        'classify.ess_faithful': '6c3c396ed6b5c36d',
        'classify.gap': 'ee01ad696dd606ea',
        'classify.kind': '78c7ae3b61e0f1a3',
        'classify.period': '6c3c396ed6b5c36d',
        'classify.peripheral': 'a188fcb999e01efa',
        'enum.probs': 'efb0f90dfff0cfaa',
        'enum.svecs': '13cbedb9f15f4871',
        'enum.words': 'edd438497ba7ef6b',
        'entropy_flux': 'd7a980cdf0b8cd11',
        'ess.blocks': 'fc1fc65982e72880',
        'ess.reconstruction_residual': '62f42a9afe3e63e9',
        'ess.residual': '6780da5561624bea',
        'gc': '58158f4ec9367c39',
        'initial_state': '24749c899b9b8565',
        'perron.dm_r': 'b71f02ca57c15b20',
        'perron.l': '334de332d5de73ad',
        'perron.l_d2m_r': '4824b439f9725cc4',
        'perron.l_dm': '245a261fe57a9c38',
        'perron.lam': '625f2477aff6cfa1',
        'perron.matrix': '7148a5ec5d395fa1',
        'perron.q': '85daf9a039ce6cb9',
        'perron.r': '7997e64751c8d33b',
        'ratefn.flags': '701b77d55a69cd5b',
        'ratefn.maximizers': '6b60f5dea2d034a9',
        'ratefn.values': '09e9b9a2373853d3',
        'spectral.h_env.cold': '02ca1916dede82df',
        'spectral.h_env.hot': '02ca1916dede82df',
        'spectral.h_sys': '02ca1916dede82df',
        'spectral.s_env.cold': '2454a61930296ab5',
        'spectral.s_env.hot': '82ee7744411569d9',
        'translation': '468a9fbd3a825cf3',
        'unraveling.cold': '2454a61930296ab5',
        'unraveling.hot': '82ee7744411569d9',
    },
    'two_temperature': {
        'adiabatic.linear.300': '29536a987758fe15',
        'adiabatic.linear.64': 'df7ff8599092570c',
        'adiabatic.smoothstep.300': '8b806957193b72c0',
        'adiabatic.smoothstep.64': '95db6501a9f96288',
        'classify.eigenvalue_one_multiplicity': '6c3c396ed6b5c36d',
        'classify.ess_faithful': '6c3c396ed6b5c36d',
        'classify.gap': '4b79c6f8a6d49d83',
        'classify.kind': '78c7ae3b61e0f1a3',
        'classify.period': '6c3c396ed6b5c36d',
        'classify.peripheral': 'd43f95e547112144',
        'enum.probs': 'e720a57d8f9d5ec6',
        'enum.svecs': '13cbedb9f15f4871',
        'enum.words': 'edd438497ba7ef6b',
        'entropy_flux': '0ccb1cee99dbd0e8',
        'ess.blocks': 'a9ca3171de7937be',
        'ess.reconstruction_residual': 'ad5b5f55599dd7eb',
        'ess.residual': '6d605a71fbf11d12',
        'gc': '16b6bfe37ebf8656',
        'initial_state': '24749c899b9b8565',
        'perron.dm_r': 'd52460dbe4209d1a',
        'perron.l': '65eea497b45411ca',
        'perron.l_d2m_r': 'e18f77168581f6a8',
        'perron.l_dm': '93775763feec1524',
        'perron.lam': 'f0704a69e5374fa0',
        'perron.matrix': '19adc5e5eed300f6',
        'perron.q': '422ca472202f0c1a',
        'perron.r': 'b01ed6fa637e68fc',
        'ratefn.flags': '701b77d55a69cd5b',
        'ratefn.maximizers': '156199ca9b003c7d',
        'ratefn.values': '7556478e245b7a1e',
        'spectral.h_env.cold': '02ca1916dede82df',
        'spectral.h_env.hot': '02ca1916dede82df',
        'spectral.h_sys': '02ca1916dede82df',
        'spectral.s_env.cold': '2454a61930296ab5',
        'spectral.s_env.hot': '82ee7744411569d9',
        'translation': '820aebe7fa3b80cf',
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


@pytest.mark.parametrize("name", sorted(FROZEN_MODELS) + ["random_11"])
def test_tilted_generator_is_the_kernel_matrix(name):
    """deformed_generator and the perturbation kernel build the same M(alpha),
    bit for bit, also on padded labels (sparse_mixed has 4/9/4 outcomes)."""
    model = (fixtures.random_model(11, n_labels=3) if name == "random_11"
             else FROZEN_MODELS[name]())
    for a in _alphas(model.chain.n):
        assert (extended.deformed_generator(model, a).matrix.tobytes()
                == fluctuations._perron(model, a).matrix.tobytes())
