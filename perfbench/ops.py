"""Timed operations of the sampling and analysis workloads, each with the
check of its outputs (see ``common.Op``)."""

import math
from pathlib import Path

import numpy as np

from mris import (adiabatic, extended, fixtures, fluctuations, models,
                  modelfile, trajectories)
from mris.trajectories import TrajectoryConfig

from common import MODEL_FILES, P_END, Op, seeded

Z_LIMIT = 5.0          # the CLI's `simulate` verdict: rates within 5 stderr

# ---------------------------------------------------------------------------
# sampling: the two-time entropy sampler and the ergodic sampler
# ---------------------------------------------------------------------------

# (kind, steps, trajectories, models); all start from the stationary ensemble
SAMPLING_SHAPES = (
    ("wide", 1000, 1000, ("two_temperature", "random4")),
    ("long", 5000, 512, ("two_temperature",)),
    ("incr", 1000, 256, ("two_temperature", "random4")),
    ("ergodic", 500, 500, ("two_temperature", "random4")),
)
CHUNK_CHECK_TRAJ, CHUNK_CHECK_CHUNK = 48, 16


class SamplingModel:
    """A model with its steady targets, computed once at set-up."""

    def __init__(self, model):
        self.model = model
        r_plus, _ = model.ess()
        self.entropy_targets = np.array([
            -model.probes[l].beta
            * extended.expectation(r_plus, models.flux_extended(model, l))
            for l in model.labels])
        self.flux0 = models.flux_extended(model, model.labels[0])
        self.flux0_target = extended.expectation(r_plus, self.flux0)
        # builds the stationary decomposition the samplers start from
        trajectories.sample_entropy_process(
            model, TrajectoryConfig(4, 4, seed=0, initial="stationary"))


def sampling_setup(seed):
    return {
        "two_temperature": SamplingModel(fixtures.two_temperature_qubit()),
        "random4": SamplingModel(fixtures.random_model(seed, n_labels=4)),
    }


def _rate_problems(sm, sample):
    cfg = sample.config
    n, t = cfg.n_steps, cfg.n_traj
    problems = []
    for k, label in enumerate(sm.model.labels):
        col = sample.svec[:, k]
        est = float(col.mean()) / n
        se = float(col.std(ddof=1)) / n / math.sqrt(t)
        z = (est - sm.entropy_targets[k]) / se if se > 0 else math.inf
        if not abs(z) <= Z_LIMIT:
            problems.append(f"rate of {label} is {z:.2f} stderr from its target")
    return problems


def sampling_ops(setup, seed, k=0):
    """Pass k over the sampling shapes; the Philox keys come from ``seed``."""
    rng = seeded(f"sampling-{k}", seed)
    ops = []
    for kind, n, t, names in SAMPLING_SHAPES:
        for name in names:
            sm = setup[name]
            cfg = TrajectoryConfig(n_steps=n, n_traj=t,
                                   seed=rng.randrange(2 ** 40),
                                   initial="stationary",
                                   keep_increments=(kind == "incr"))
            ops.append(_sampling_op(f"{kind}:{name}", sm, cfg))
    return ops


def _sampling_op(label, sm, cfg):
    model = sm.model
    kind = label.split(":")[0]

    if kind == "ergodic":
        def run(_):
            return trajectories.ergodic_average(model, sm.flux0, cfg)

        def check(_, est):
            z = (est.mean - sm.flux0_target) / est.stderr
            return [] if abs(z) <= Z_LIMIT else [
                f"ergodic flux average is {z:.2f} stderr from its target"]
    elif kind == "incr":
        def run(_):
            sample = trajectories.sample_entropy_process(model, cfg)
            ac = trajectories.flux_autocorrelation(
                sample, model.labels[0], model.labels[-1], max_lag=5)
            return sample, ac

        def check(_, result):
            sample, ac = result
            problems = _rate_problems(sm, sample)
            for k in range(len(model.labels)):
                total = (sample.increments * (sample.step_labels == k)).sum(axis=1)
                if not np.allclose(total, sample.svec[:, k], rtol=1e-9, atol=1e-9):
                    problems.append(f"increments of label {k} do not sum to svec")
            if not (np.isfinite(ac.values).all() and np.isfinite(ac.stderr).all()):
                problems.append("empirical autocorrelation is not finite")
            return problems
    else:
        def run(_):
            return trajectories.sample_entropy_process(model, cfg)

        def check(_, sample):
            return _rate_problems(sm, sample)

    return Op(label, lambda: None, run, check, work=cfg.n_steps * cfg.n_traj)


def chunk_check_op(name, sm, seed):
    """Re-run the first trajectories of a wide configuration at another
    chunk size: the per-trajectory Philox streams make svec bitwise equal."""
    n = SAMPLING_SHAPES[0][1]
    base = dict(n_steps=n, seed=seed, initial="stationary")

    def run(_):
        a = trajectories.sample_entropy_process(
            sm.model, TrajectoryConfig(n_traj=2 * CHUNK_CHECK_TRAJ, **base))
        b = trajectories.sample_entropy_process(
            sm.model, TrajectoryConfig(n_traj=CHUNK_CHECK_TRAJ,
                                       chunk=CHUNK_CHECK_CHUNK, **base))
        return a.svec[:CHUNK_CHECK_TRAJ], b.svec

    def check(_, result):
        a, b = result
        return [] if np.array_equal(a, b) else [
            "svec depends on the chunk size"]
    return Op(f"chunk_check:{name}", lambda: None, run, check)


# ---------------------------------------------------------------------------
# analysis: spectral work on freshly loaded models
# ---------------------------------------------------------------------------

def load_bundled(root, name):
    return modelfile.load_model(str(Path(root) / MODEL_FILES[name]))


def _grad_e(model, alpha, h=1e-5):
    out = np.empty(len(alpha))
    for i in range(len(alpha)):
        step = np.zeros(len(alpha))
        step[i] = h
        out[i] = (fluctuations.e_of_alpha(model, alpha + step)
                  - fluctuations.e_of_alpha(model, alpha - step)) / (2 * h)
    return out


def analysis_ops(root, seed):
    """One pass over the analysis operations.  Each prepares freshly loaded
    models, so every e(alpha) cache starts cold."""
    rng = seeded("analysis", seed)
    random_seeds = [rng.randrange(2 ** 31) for _ in range(2)]
    return [
        Op("cumulant", lambda: {n: load_bundled(root, n) for n in MODEL_FILES},
           _cumulant, _cumulant_check),
        Op("ratefn", lambda: load_bundled(root, "two_temperature"),
           _ratefn, _ratefn_check),
        Op("linresp", lambda: load_bundled(root, "equilibrium"),
           _linresp, _linresp_check),
        Op("adiabatic", lambda: load_bundled(root, "two_temperature"),
           _adiabatic, _adiabatic_check),
        Op("spectral", lambda: _spectral_models(root, random_seeds),
           _spectral, _spectral_check),
        Op("exact", lambda: load_bundled(root, "two_temperature"),
           lambda m: trajectories.enumerate_full_statistics(m, 5),
           lambda m, d: [] if abs(d.total_probability() - 1.0) <= 1e-12 else
           [f"exact law sums to {d.total_probability()!r}"]),
    ]


def _cumulant(loaded):
    out = {}
    for name, m in loaded.items():
        ones = np.ones(m.chain.n)
        out[name] = {
            "gc": fluctuations.gc_symmetry_report(m),
            "e0": fluctuations.e_of_alpha(m, np.zeros(m.chain.n)),
            "ray": [fluctuations.e_of_alpha(m, a * ones)
                    for a in np.linspace(-1.0, 2.0, 61)],
        }
    deformed = models.temperature_deform(loaded["equilibrium"],
                                         np.array([0.1, -0.2]))
    out["translation"] = fluctuations.translation_symmetry_report(deformed)
    return out


def _cumulant_check(_, out):
    problems = []
    for name in MODEL_FILES:
        r = out[name]
        if abs(r["e0"]) > 1e-12:
            problems.append(f"e(0) = {r['e0']!r} on {name}")
        if not np.isfinite(r["ray"]).all():
            problems.append(f"diagonal ray of {name} is not finite")
        if r["gc"].holds != (name != "tri_broken"):
            problems.append(f"GC symmetry holds={r['gc'].holds} on {name}")
    if not out["translation"].holds:
        problems.append("translation symmetry fails on a deformed equilibrium")
    return problems


def _ratefn(m):
    # the CLI's scalar grid: s-points from central differences of e on a ray
    ones, h = np.ones(m.chain.n), 1e-5
    s_grid = np.sort([
        -(fluctuations.e_of_alpha(m, (-a + h) * ones)
          - fluctuations.e_of_alpha(m, (-a - h) * ones)) / (2 * h)
        for a in np.linspace(-0.45, 0.45, 21)])
    scalar = fluctuations.entropy_rate_function(m, s_grid)
    # a 3x3 vector grid whose s-points are -grad e at the tilts
    tilts = [np.array([a, b]) for a in (-0.2, 0.0, 0.2) for b in (-0.2, 0.0, 0.2)]
    s_vec = np.array([-_grad_e(m, -t) for t in tilts])
    vector = fluctuations.rate_function(m, s_vec)
    return scalar, vector


def _ratefn_check(_, result):
    return [f"{name} rate function is not finite on the grid"
            for name, res in zip(("scalar", "vector"), result)
            if not np.isfinite(res.values).all()]


def _linresp(m):
    return (fluctuations.kinetic_coefficients(m), fluctuations.clt_covariance(m),
            fluctuations.green_kubo(m))


def _linresp_check(_, result):
    kin, cov, gk = result
    rel = float(np.abs(gk.matrix - kin.matrix).max() / np.abs(kin.matrix).max())
    problems = [] if rel <= 1e-2 else [f"Green-Kubo is {rel:.2e} from route (a)"]
    if not np.isfinite(cov).all():
        problems.append("CLT covariance is not finite")
    return problems


def _adiabatic(m):
    out = {}
    for kind in ("linear", "smoothstep"):
        sched = adiabatic.AdiabaticSchedule(m.chain.P, np.array(P_END), kind=kind)
        out[kind] = [adiabatic.adiabatic_evolve(m, sched, n).plateau_error
                     for n in (64, 128, 256)]
    return out


def _adiabatic_check(_, out):
    problems = []
    for kind, p in out.items():
        ratios = [p[0] / p[1], p[1] / p[2]]
        if not all(1.5 <= r <= 2.5 for r in ratios):
            problems.append(f"{kind} plateau ratios {ratios} outside [1.5, 2.5]")
    return problems


def _spectral_models(root, random_seeds):
    loaded = {n: load_bundled(root, n) for n in MODEL_FILES}
    for s in random_seeds:
        loaded[f"random4-{s}"] = fixtures.random_model(s, n_labels=4)
    return loaded


def _spectral(loaded):
    out = {}
    for name, m in loaded.items():
        g = m.generator
        cls = extended.classify_generator(g, m.tol)
        r_plus, residual = extended.find_ess(g, m.tol)
        dec = extended.ess_decompose(g, r_plus, m.tol)
        out[name] = (cls.kind, residual, dec.reconstruction_residual(g, r_plus))
    return out


def _spectral_check(_, out):
    problems = []
    for name, (kind, residual, recon) in out.items():
        if name in MODEL_FILES and kind != "primitive":
            problems.append(f"bundled model {name} classified {kind}")
        if residual > 1e-8 or recon > 1e-8:
            problems.append(f"ESS of {name}: residual {residual:.2e}, "
                            f"reconstruction {recon:.2e}")
    return problems
