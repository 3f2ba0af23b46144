"""Frozen digests of the lifted-generator formulas.

Each entry is a sha256 prefix of the bytes of the arrays a routine returns
(floats go in as float64 arrays), recorded before the formulas were folded
into one implementation each: the generator layout and its alpha-derivatives
in the perturbation kernel, the steady state and its residual, the lift
sum_v pi_v P[v, w] rho_v, the adiabatic tracking errors, the entropy flux,
the Hermitian clustering of the unravelings and of spectral_projections,
and the symmetry reports.  A refactor that keeps every bit keeps every
digest.

The digests depend on LAPACK rounding: they were recorded on x86-64 with
numpy 2.4 and OpenBLAS, and a different LAPACK (or BLAS kernel) may round
the eigensolves, and so these bytes, differently.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from mris import adiabatic, extended, fluctuations, modelfile, models, quantum
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

    for kind in ("linear", "smoothstep"):
        sched = adiabatic.AdiabaticSchedule(model.chain.P, np.array(P_END[m]), kind=kind)
        for n in (64, 300):
            res = adiabatic.adiabatic_evolve(model, sched, n)
            out[f"adiabatic.{kind}.{n}"] = _digest(res.errors, res.instantaneous_gap_min)

    out["entropy_flux"] = _digest(models.entropy_flux_observable(model).blocks)

    for label in model.labels:
        u = model.unravelings[label]
        out[f"unraveling.{label}"] = _digest(u.varsigma, *u.projections)
        for what, h in (("h_env", model.probes[label].h_env), ("s_env", u.s_env)):
            dec = quantum.spectral_projections(h)
            out[f"spectral.{what}.{label}"] = _digest(dec.eigenvalues, *dec.projections)
    dec = quantum.spectral_projections(model.h_sys)
    out["spectral.h_sys"] = _digest(dec.eigenvalues, *dec.projections)

    gc = fluctuations.gc_symmetry_report(model)
    out["gc"] = _digest(*[np.hstack([a, va, vb, r]) for a, va, vb, r in gc.entries],
                        gc.max_residual)
    tr = fluctuations.translation_symmetry_report(model)
    out["translation"] = _digest(*[np.hstack([a, gam, vb, r]) for a, gam, vb, r in tr.entries],
                                 tr.max_residual)
    return out


FROZEN = {
    'equilibrium': {
        'adiabatic.linear.300': 'edbaf36a3cce835b',
        'adiabatic.linear.64': 'b575dd2439736d2e',
        'adiabatic.smoothstep.300': 'ca91c876b3db30c0',
        'adiabatic.smoothstep.64': '688b8f0971fff266',
        'entropy_flux': '56e8ed9083587b33',
        'ess.blocks': '88491871c8260402',
        'ess.reconstruction_residual': '8e440ebc13bfc151',
        'ess.residual': 'b2a73d3fd21159c0',
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
        'adiabatic.linear.300': '851164e43a4f3f16',
        'adiabatic.linear.64': '3acfbc52509563de',
        'adiabatic.smoothstep.300': 'd864b959c0b70753',
        'adiabatic.smoothstep.64': '53ccd9fb2151c1be',
        'entropy_flux': '63fd19d206e888b0',
        'ess.blocks': '8d0c953192a1d01d',
        'ess.reconstruction_residual': 'ef55a4398c782df5',
        'ess.residual': '3e7132247dd6e530',
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
        'adiabatic.linear.300': '7a44fb534fccccfd',
        'adiabatic.linear.64': '8ab7f0a168756b44',
        'adiabatic.smoothstep.300': '57584e644ae053d6',
        'adiabatic.smoothstep.64': '06f406b99b199ec6',
        'entropy_flux': 'd7a980cdf0b8cd11',
        'ess.blocks': 'e07a26d8cf09b9a7',
        'ess.reconstruction_residual': '5f9b5bbd47e0705f',
        'ess.residual': 'd9aa2a299c9b39d8',
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
        'adiabatic.linear.300': '0c6e831b467cd995',
        'adiabatic.linear.64': '5958b77b261eeb3d',
        'adiabatic.smoothstep.300': 'cf734c31018ee633',
        'adiabatic.smoothstep.64': '536057ca9187fd6e',
        'entropy_flux': '0ccb1cee99dbd0e8',
        'ess.blocks': '1aa9b69fbd2a2e54',
        'ess.reconstruction_residual': 'a97b6ba01dadf938',
        'ess.residual': '2aa439240df7a0da',
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
