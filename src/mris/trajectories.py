"""Sampling and exact enumeration of the probe-word / measurement-outcome
process, plus trajectory-based estimators.

Both samplers share one kernel: states are rows vec(rho), one per trajectory,
and each step is one batched matvec with the superoperator every trajectory
gathers by (label, outcome) index from tables stacked once per call.

RNG contract (stable across versions, chunk sizes, and thread counts): each
trajectory t uses its own ``numpy.random.Generator(Philox(key=seed + t))``
stream.  The first ``n + 1`` uniforms of the stream drive the probe path
(initial label, then one transition per step); the next ``n`` uniforms select
measurement outcomes.  Every categorical draw maps a uniform u through the
same inverse-CDF arithmetic ``(u > cumsum(p)).sum()``, clipped to the last
index.  Results are therefore bitwise identical however trajectories are
batched or split across threads.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import extended
from .chains import path_stream
from .models import MrisModel
from .quantum import unvec, vec

ENUMERATION_GUARD = 10_000_000


class NumericalCorruption(RuntimeError):
    """Outcome probabilities stopped summing to one; the run is aborted
    rather than silently renormalized."""


class TrajectoryError(ValueError):
    pass


@dataclass(frozen=True)
class TrajectoryConfig:
    n_steps: int
    n_traj: int
    seed: int
    chunk: int = 512
    n_threads: int = 1
    initial: str = "model"        # "model": rho_init[w0]; "stationary": rho_+w0
    keep_increments: bool = False

    def __post_init__(self):
        if self.n_steps < 1 or self.n_traj < 1:
            raise TrajectoryError("n_steps and n_traj must be positive")
        if self.chunk < 1 or self.n_threads < 1:
            raise TrajectoryError("chunk and n_threads must be positive")
        if self.initial not in ("model", "stationary"):
            raise TrajectoryError(f"unknown initial mode {self.initial!r}")


# ---------------------------------------------------------------------------
# deterministic evolution along a fixed path
# ---------------------------------------------------------------------------

def simulate_states(model: MrisModel, omega_path, rho0=None) -> np.ndarray:
    """States rho_0, rho_1, ..., rho_n along the path w_0 ... w_n, where
    rho_k = L_{w_k} rho_{k-1}; rho0 defaults to the model's initial state for
    the path's first label."""
    labels = list(omega_path)
    if rho0 is None:
        rho0 = model.rho_init[labels[0]]
    d = model.dim_sys
    out = np.empty((len(labels), d, d), dtype=complex)
    out[0] = np.asarray(rho0, dtype=complex)
    for k, w in enumerate(labels[1:], start=1):
        out[k] = model.channels[w].apply(out[k - 1])
    return out


# ---------------------------------------------------------------------------
# batched path sampling (shared by the estimators below)
# ---------------------------------------------------------------------------

def _batch_paths(model: MrisModel, t0: int, t1: int, cfg: TrajectoryConfig):
    """Paths (B, n+1) of label indices plus outcome uniforms (B, n) for
    trajectories t0 <= t < t1, honoring the per-trajectory stream layout."""
    n = cfg.n_steps
    b = t1 - t0
    u_path = np.empty((b, n + 1))
    u_out = np.empty((b, n))
    for r, t in enumerate(range(t0, t1)):
        stream = path_stream(cfg.seed + t)
        u_path[r] = stream.random(n + 1)
        u_out[r] = stream.random(n)

    init_dist = model.chain.pi
    if cfg.initial == "stationary":
        init_dist = _stationary_decomposition(model).pi_plus
    cum0 = np.cumsum(init_dist)
    paths = np.empty((b, n + 1), dtype=np.intp)
    paths[:, 0] = np.minimum((u_path[:, 0][:, None] > cum0).sum(axis=1),
                             model.chain.n - 1)
    cum_rows = np.cumsum(model.chain.P, axis=1)
    for k in range(1, n + 1):
        rows = cum_rows[paths[:, k - 1]]
        paths[:, k] = np.minimum((u_path[:, k][:, None] > rows).sum(axis=1),
                                 model.chain.n - 1)
    return paths, u_out


def _stationary_decomposition(model: MrisModel) -> extended.EssDecomposition:
    if "ess_decomposition" not in model.caches:
        r_plus, _ = model.ess()
        model.caches["ess_decomposition"] = extended.ess_decompose(
            model.generator, r_plus, model.tol)
    return model.caches["ess_decomposition"]


# ---------------------------------------------------------------------------
# the batched stepping kernel shared by both samplers
# ---------------------------------------------------------------------------

def _outcome_tables(model: MrisModel):
    """Per-(label, outcome) tables of the two-time measurement: outcome
    superoperators (m, n_max, d^2, d^2), probability functionals G.reshape(-1)
    (m, n_max, d^2), increments (m, n_max) and outcome counts (m,).  Labels
    with fewer outcomes are zero-padded to the widest label.
    """
    entries = [model.unravelings[l] for l in model.labels]
    n_out = np.array([e.n_outcomes for e in entries])
    shape = (len(entries), n_out.max(), model.dim_sys ** 2)
    superops = np.zeros(shape + shape[-1:], dtype=complex)
    prob_funcs = np.zeros(shape, dtype=complex)
    deltas = np.zeros(shape[:2])
    for w, e in enumerate(entries):
        superops[w, :e.n_outcomes] = e._superops
        prob_funcs[w, :e.n_outcomes] = e.prob_ops.reshape(e.n_outcomes, -1)
        deltas[w, :e.n_outcomes] = e.deltas
    return superops, prob_funcs, deltas, n_out


def _step_batches(model: MrisModel, cfg: TrajectoryConfig, t0: int, t1: int,
                  superops, prob_funcs=None, n_out=None, floored=None):
    """Step trajectories t0 <= t < t1, cfg.chunk at a time, and yield
    ``(t, k, lab, xi, v)`` at every step k: the trajectory indices, labels
    w_k, outcome indices and states v = vec(rho_{k-1}) entering the step.

    Without ``prob_funcs`` every trajectory applies row 0 of its label.
    With them it draws xi from p = prob_funcs[lab] . v; outcomes below the
    probability floor are left out of the draw (counted per trajectory in
    ``floored``), and the state is divided by the raw p of the drawn
    outcome, so its trace stays one.
    """
    floor = model.tol.prob_floor
    rho0 = (_stationary_decomposition(model).rho_plus
            if cfg.initial == "stationary" else model.rho_init)
    bank = np.stack([vec(rho0[l]) for l in model.labels])
    for c0 in range(t0, t1, cfg.chunk):
        c1 = min(c0 + cfg.chunk, t1)
        paths, u_out = _batch_paths(model, c0, c1, cfg)
        v = bank[paths[:, 0]]
        t = np.arange(c0, c1)
        xi, scale = 0, 1.0
        for k in range(1, cfg.n_steps + 1):
            lab = paths[:, k]
            if prob_funcs is not None:
                p = np.einsum("bxi,bi->bx", prob_funcs[lab], v).real
                defect = np.abs(p.sum(axis=1) - 1.0)
                # written so that a NaN law fails the check too
                bad = np.nonzero(~(defect <= 1e-8) | (p.min(axis=1) < -1e-8))[0]
                if bad.size:
                    r = bad[0]
                    raise NumericalCorruption(
                        f"outcome law defective at step {k} of trajectory {t[r]} "
                        f"(sum error {defect[r]:.3e}, min {p[r].min():.3e})")
                small = (p < floor) & (p != 0.0)
                hit = small.any(axis=1)
                q = np.where(p < floor, 0.0, p)
                if hit.any():
                    floored[t[hit]] += small[hit].sum(axis=1)
                    q[hit] /= q[hit].sum(axis=1, keepdims=True)
                cum = np.cumsum(q, axis=1)
                xi = np.minimum((u_out[:, k - 1][:, None] > cum).sum(axis=1),
                                n_out[lab] - 1)
                scale = p[t - c0, xi][:, None]
            yield t, k, lab, xi, v
            v = np.einsum("bij,bj->bi", superops[lab, xi], v) / scale


# ---------------------------------------------------------------------------
# ergodic time averages of an extended observable
# ---------------------------------------------------------------------------

@dataclass
class ErgodicEstimate:
    mean: float
    stderr: float
    n_traj: int
    n_steps: int
    per_traj: np.ndarray = field(repr=False)


def ergodic_average(model: MrisModel, x: extended.ExtendedObservable,
                    cfg: TrajectoryConfig) -> ErgodicEstimate:
    """Monte-Carlo estimate of the time average (1/N) sum_k tr(rho_{k-1} X(w_k))
    along sampled paths, with its standard error across trajectories.

    Each term pairs the observable at the upcoming label with the state
    entering that interaction, matching the pairing <R, X> of the extended
    process: for a flux block this is the energy exchanged during step k.
    """
    superops = np.stack([model.channels[l].superop for l in model.labels])[:, None]
    x_funcs = np.stack([x.block(l).reshape(-1) for l in model.labels])
    acc = np.zeros(cfg.n_traj)

    def run_range(t0, t1):
        for t, _, lab, _, v in _step_batches(model, cfg, t0, t1, superops):
            acc[t] += np.einsum("bi,bi->b", x_funcs[lab], v).real

    _run_threaded(run_range, cfg)
    per_traj = acc / cfg.n_steps
    mean = math.fsum(per_traj) / cfg.n_traj
    if cfg.n_traj > 1:
        var = math.fsum((v - mean) ** 2 for v in per_traj) / (cfg.n_traj - 1)
        stderr = math.sqrt(var / cfg.n_traj)
    else:
        stderr = math.inf
    return ErgodicEstimate(mean=mean, stderr=stderr, n_traj=cfg.n_traj,
                           n_steps=cfg.n_steps, per_traj=per_traj)


def _run_threaded(run_range, cfg: TrajectoryConfig):
    """Split [0, n_traj) into contiguous ranges, one per thread.  Every write
    lands at a trajectory-indexed slot, so the result does not depend on the
    split."""
    if cfg.n_threads == 1:
        run_range(0, cfg.n_traj)
        return
    bounds = np.linspace(0, cfg.n_traj, cfg.n_threads + 1).astype(int)
    with ThreadPoolExecutor(max_workers=cfg.n_threads) as pool:
        futures = [pool.submit(run_range, int(a), int(b))
                   for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        for f in futures:
            f.result()


# ---------------------------------------------------------------------------
# the two-time measurement engine
# ---------------------------------------------------------------------------

@dataclass
class EntropySample:
    """Per-trajectory totals of the entropy-exchange process.

    ``svec[t, v]`` is the accumulated two-time measurement increment of probe
    v over trajectory t; when requested, ``increments``/``step_labels`` keep
    the per-step series for autocorrelation estimates.
    """
    labels: tuple
    config: TrajectoryConfig
    svec: np.ndarray                      # (n_traj, n_labels)
    floored: int
    increments: np.ndarray = None         # (n_traj, n_steps) or None
    step_labels: np.ndarray = None        # (n_traj, n_steps) int8 or None

    @property
    def n_traj(self):
        return self.svec.shape[0]

    @property
    def n_steps(self):
        return self.config.n_steps


def sample_entropy_process(model: MrisModel, cfg: TrajectoryConfig) -> EntropySample:
    """Sample the repeated two-time environment-entropy measurement.

    Each step draws the probe label from the chain, measures the probe's
    entropy observable before and after the interaction (jointly realized by
    the outcome decomposition of the step channel), updates the conditional
    system state, and accumulates the entropy increment of that probe.
    """
    superops, prob_funcs, deltas, n_out = _outcome_tables(model)
    svec = np.zeros((cfg.n_traj, model.chain.n))
    increments = step_labels = None
    if cfg.keep_increments:
        increments = np.zeros((cfg.n_traj, cfg.n_steps))
        step_labels = np.zeros((cfg.n_traj, cfg.n_steps), dtype=np.int8)
    floored_counts = np.zeros(cfg.n_traj, dtype=np.int64)

    def run_range(t0, t1):
        for t, k, lab, xi, _ in _step_batches(model, cfg, t0, t1, superops,
                                              prob_funcs, n_out, floored_counts):
            dlt = deltas[lab, xi]
            svec[t, lab] += dlt
            if cfg.keep_increments:
                increments[t, k - 1] = dlt
                step_labels[t, k - 1] = lab

    _run_threaded(run_range, cfg)
    return EntropySample(labels=model.labels, config=cfg, svec=svec,
                         floored=int(floored_counts.sum()),
                         increments=increments, step_labels=step_labels)


# ---------------------------------------------------------------------------
# exact enumeration of the outcome-word law
# ---------------------------------------------------------------------------

@dataclass
class ExactDistribution:
    labels: tuple
    n_steps: int
    probs: np.ndarray                     # (n_branches,)
    svecs: np.ndarray                     # (n_branches, n_labels)
    words: np.ndarray = field(repr=False, default=None)   # (n_branches, n, 2)

    def deformed_expectation(self, alpha) -> float:
        """E[exp(-alpha . S)] over the exact law."""
        alpha = np.asarray(alpha, dtype=float)
        return math.fsum(self.probs * np.exp(-self.svecs @ alpha))

    def total_probability(self) -> float:
        return math.fsum(self.probs)


def enumerate_full_statistics(model: MrisModel, n: int,
                              keep_words: bool = True) -> ExactDistribution:
    """Exhaustive law of the n-step (probe label, outcome) word process.

    The chain factors up to the first step are folded into the initial
    extended state, matching the sampled process and the duality pairing.
    """
    m = model.chain.n
    superops, _, deltas, n_out = _outcome_tables(model)
    total = m * (m * superops.shape[1]) ** n
    if total > ENUMERATION_GUARD:
        raise TrajectoryError(
            f"enumeration would visit ~{total:.3g} branches "
            f"(guard {ENUMERATION_GUARD:.0g}); reduce n")
    if n < 1:
        raise TrajectoryError("n must be at least 1")

    d = model.dim_sys
    p_mat = model.chain.P
    valid = np.arange(superops.shape[1]) < n_out[:, None]        # (m, n_max)
    # level 1: each (w, x) acts on the initial block of w, which carries the
    # chain factors up to the first step
    v0 = np.stack([vec(b) for b in model.initial_state().blocks])
    states = np.einsum("wxij,wj->wxi", superops, v0)[valid]
    lab, out = np.nonzero(valid)
    svecs = np.zeros((len(lab), m))
    svecs[np.arange(len(lab)), lab] = deltas[lab, out]
    words = np.stack([lab, out], axis=1)[:, None].astype(np.int16)
    # each later level expands every branch over every (w, x) at once and
    # keeps chain edges and real outcomes; boolean indexing orders the
    # children parent-major, then by (w, x), as the depth-first order would
    for _ in range(n - 1):
        keep = (p_mat[lab] > model.tol.edge)[:, :, None] & valid
        parent, w_new, out = np.nonzero(keep)
        children = np.einsum("wxij,bj->bwxi", superops, states)[keep]
        states = p_mat[lab[parent], w_new][:, None] * children
        svecs = svecs[parent]
        svecs[np.arange(len(parent)), w_new] += deltas[w_new, out]
        if keep_words:
            step = np.stack([w_new, out], axis=1)[:, None].astype(np.int16)
            words = np.concatenate([words[parent], step], axis=1)
        lab = w_new
    # trace of the unnormalized block = branch probability
    probs = states[:, ::d + 1].sum(axis=1).real
    return ExactDistribution(
        labels=model.labels, n_steps=n, probs=probs, svecs=svecs,
        words=words if keep_words else None)


# ---------------------------------------------------------------------------
# cumulants and autocorrelations from samples
# ---------------------------------------------------------------------------

def empirical_cumulant(sample: EntropySample, alpha) -> float:
    """Per-step empirical cumulant (1/n) log E_hat[exp(-alpha . S_n)],
    evaluated stably through a log-sum-exp."""
    alpha = np.asarray(alpha, dtype=float)
    x = -sample.svec @ alpha
    top = x.max()
    lse = top + math.log(np.exp(x - top).sum())
    return float(lse - math.log(sample.n_traj)) / sample.n_steps


@dataclass
class AutocorrResult:
    omega: object
    nu: object
    lags: np.ndarray
    values: np.ndarray
    stderr: np.ndarray = None             # None for the analytic route
    mode: str = "analytic"


def flux_autocorrelation(source, omega, nu, max_lag: int = 5) -> AutocorrResult:
    """Stationary autocovariance c_{omega nu}(k) of the per-step entropy
    increments attributed to probes omega (late) and nu (early).

    Pass a model for the exact spectral evaluation, or an EntropySample built
    with ``keep_increments=True`` for the empirical estimate with standard
    errors across trajectories.
    """
    if isinstance(source, MrisModel):
        return _autocorr_analytic(source, omega, nu, max_lag)
    if isinstance(source, EntropySample):
        return _autocorr_empirical(source, omega, nu, max_lag)
    raise TrajectoryError(f"cannot compute autocorrelation from {type(source)!r}")


def _autocorr_analytic(model: MrisModel, omega, nu, max_lag) -> AutocorrResult:
    g = model.generator
    r_plus, _ = model.ess()
    d = model.dim_sys
    iw, iv = model.chain.index(omega), model.chain.index(nu)
    # sum_xi delta^k S_xi: the alpha-derivatives of the deformed blocks at 0
    superops, _, deltas, _ = _outcome_tables(model)
    d1 = np.einsum("wx,wxij->wij", deltas, superops)
    d2 = np.einsum("wx,wxij->wij", deltas ** 2, superops)
    p_mat = model.chain.P

    def apply_d(mu, state_blocks):
        """(D_mu R)(w') = P[mu, w'] * unvec(D1_mu vec(R(mu)))."""
        core = unvec(d1[mu] @ vec(state_blocks[mu]), d)
        return np.stack([p_mat[mu, wp] * core for wp in range(model.chain.n)])

    def total_trace(blocks):
        return float(np.trace(blocks.sum(axis=0)).real)

    mean = {mu: float(np.trace(unvec(d1[mu] @ vec(r_plus.blocks[mu]), d)).real)
            for mu in (iw, iv)}

    lags = np.arange(max_lag + 1)
    values = np.empty(max_lag + 1)
    if iw == iv:
        raw0 = float(np.trace(unvec(d2[iw] @ vec(r_plus.blocks[iw]), d)).real)
    else:
        raw0 = 0.0          # a step's increment belongs to exactly one probe
    values[0] = raw0 - mean[iw] * mean[iv]

    v_state = extended.ExtendedState(model.labels, apply_d(iv, r_plus.blocks))
    for k in range(1, max_lag + 1):
        if k > 1:
            v_state = g.apply(v_state)
        raw = float(np.trace(unvec(d1[iw] @ vec(v_state.blocks[iw]), d)).real)
        values[k] = raw - mean[iw] * mean[iv]
    return AutocorrResult(omega=omega, nu=nu, lags=lags, values=values,
                          stderr=None, mode="analytic")


def _autocorr_empirical(sample: EntropySample, omega, nu, max_lag) -> AutocorrResult:
    if sample.increments is None:
        raise TrajectoryError(
            "sample was built without keep_increments; rerun with "
            "TrajectoryConfig(keep_increments=True)")
    iw = sample.labels.index(omega)
    iv = sample.labels.index(nu)
    x_w = sample.increments * (sample.step_labels == iw)
    x_v = sample.increments * (sample.step_labels == iv)
    n = sample.n_steps
    # center with the global means (per-trajectory centering would give the
    # cross pairs a lag-0 estimator whose bias dwarfs its vanishing spread);
    # the per-trajectory scatter of the centered products then carries an
    # honest standard error for every pair
    f_w = x_w - x_w.mean()
    f_v = x_v - x_v.mean()
    lags = np.arange(max_lag + 1)
    values = np.empty(max_lag + 1)
    stderr = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        per_traj = (f_w[:, k:] * f_v[:, :n - k]).mean(axis=1)
        t = per_traj.shape[0]
        values[k] = math.fsum(per_traj) / t
        var = math.fsum((v - values[k]) ** 2 for v in per_traj) / (t - 1)
        stderr[k] = math.sqrt(var / t)
    return AutocorrResult(omega=omega, nu=nu, lags=lags, values=values,
                          stderr=stderr, mode="empirical")
