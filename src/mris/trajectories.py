"""Sampling and exact enumeration of the probe-word / measurement-outcome
process, plus trajectory-based estimators.

Both samplers share one engine.  A state is its d^2 real coordinates
tr(E_a rho) in an orthonormal Hermitian basis E_a, and a chunk of B
trajectories is held trajectory-minor, as one (d^2, B) array X.  The
probability functionals, every (label, outcome) superoperator (or, for the
ergodic sampler, the observable blocks and channels) are folded once per
call into one real table, so each step is a single GEMM ``table @ X``
followed by flat takes of every trajectory's outcome law and drawn image.
Uniforms are streamed in blocks of ``_BLOCK`` steps per trajectory, so
memory does not grow with the number of steps; labels, increments and
totals are handled block by block and summed in step order.

RNG contract (stable across versions, chunk sizes, and thread counts): each
trajectory t uses its own ``numpy.random.Generator(Philox(key=seed + t))``
stream.  The first ``n + 1`` uniforms of the stream drive the probe path
(initial label, then one transition per step); the next ``n`` uniforms select
measurement outcomes (read through ``chains.outcome_stream``, the same stream
advanced past the path draws).  Every categorical draw maps a uniform u
through the same inverse-CDF arithmetic ``(u > cumsum(p)).sum()``, clipped to
the last index.  Results are therefore bitwise identical however
trajectories are batched or split across threads.
"""

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import extended
from .chains import outcome_stream, path_stream
from .models import MrisModel
from .quantum import unvec, vec

ENUMERATION_GUARD = 10_000_000
_BLOCK = 128          # steps of uniforms streamed per trajectory at a time
_IMAG_TOL = 1e-12     # largest imaginary part of a real-basis table, relative


class NumericalCorruption(RuntimeError):
    """Outcome probabilities stopped summing to one; the run is aborted
    rather than silently renormalized."""


class TrajectoryError(ValueError):
    pass


class RealBasisError(TrajectoryError):
    """A model table has an imaginary part in the Hermitian basis: its map
    does not preserve Hermiticity."""


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
# tables of the stepping engine, in a real Hermitian basis
# ---------------------------------------------------------------------------

def _stationary_decomposition(model: MrisModel) -> extended.EssDecomposition:
    if "ess_decomposition" not in model.caches:
        r_plus, _ = model.ess()
        model.caches["ess_decomposition"] = extended.ess_decompose(
            model.generator, r_plus, model.tol)
    return model.caches["ess_decomposition"]


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


def _hermitian_basis(d: int) -> np.ndarray:
    """The unitary U whose row a maps vec(rho) to tr(E_a rho), the coordinate
    of rho in the orthonormal Hermitian basis E_a: |j><j|, then
    (|j><k| + |k><j|)/sqrt(2) and i(|j><k| - |k><j|)/sqrt(2) for j < k.
    Hermitian matrices have real coordinates x, and vec(rho) = U^H x."""
    s = math.sqrt(0.5)
    units = np.eye(d)
    basis = [np.outer(u, u) for u in units]
    for j, k in itertools.combinations(range(d), 2):
        e = s * np.outer(units[j], units[k])
        basis += [e + e.T, 1j * (e - e.T)]
    return np.stack([vec(e.T) for e in basis])


def _real(table: np.ndarray, what: str, tol: float = _IMAG_TOL) -> np.ndarray:
    """The real part of a table written in the Hermitian basis.  An imaginary
    part above tol (relative to the table's scale) means the map does not
    preserve Hermiticity; it is an error, never dropped.  (A NaN table
    passes, so that the outcome-law check names the step where it bites.)"""
    imag = float(np.abs(table.imag).max())
    if imag > tol * max(1.0, float(np.abs(table.real).max())):
        raise RealBasisError(
            f"{what} not real in the Hermitian basis (imaginary part "
            f"{imag:.3e}); the map does not preserve Hermiticity")
    return np.ascontiguousarray(table.real)


def _step_table(model: MrisModel, funcs, superops, what: str) -> np.ndarray:
    """The one real table of a step, for states X (d^2, B) in the Hermitian
    basis.  Each (label w, outcome x) owns d^2 + 1 adjacent rows of
    ``table @ X``: the functional funcs[w, x] at every state, then the image
    of every state under superops[w, x].  funcs is (m, n, d^2) in the
    vec(rho) layout, superops (m, n, d^2, d^2)."""
    u = _hermitian_basis(model.dim_sys)
    uh = u.conj().T
    d2 = uh.shape[0]
    return np.concatenate([_real(funcs @ uh, what)[:, :, None],
                           _real(u @ superops @ uh, "superoperators")],
                          axis=2).reshape(-1, d2)


# ---------------------------------------------------------------------------
# the stepping engine shared by both samplers
# ---------------------------------------------------------------------------

def _uniforms(streams, steps: int) -> np.ndarray:
    """The next ``steps`` uniforms of every stream, trajectory-minor: (steps, B)."""
    block = np.empty((len(streams), steps))
    for stream, row in zip(streams, block):
        stream.random(out=row)
    return block.T


def _step_blocks(model: MrisModel, cfg: TrajectoryConfig, t0: int, t1: int,
                 table, width: int, n_out=None, floored=None):
    """Step trajectories t0 <= t < t1, cfg.chunk at a time, and yield
    ``(c0, k0, labs, val)`` for each block of up to ``_BLOCK`` steps
    k0 <= k < k0 + L of the chunk of B trajectories that starts at c0: the
    labels w_k and per-step values, both (L, B).  A block's labels are drawn
    first (the probe path does not depend on the states), then its states
    are stepped by ``_observe_steps`` (without ``n_out``) or
    ``_measure_steps``; ``table`` is a ``_step_table`` of ``width`` row
    groups per label.
    """
    m, n = model.chain.n, cfg.n_steps
    if cfg.initial == "stationary":
        ess = _stationary_decomposition(model)
        init_dist, rho0 = ess.pi_plus, ess.rho_plus
    else:
        init_dist, rho0 = model.chain.pi, model.rho_init
    cum0 = np.cumsum(init_dist)[:, None]
    cum_rows = np.cumsum(model.chain.P, axis=1).T.copy()      # [j, w]
    # a state's anti-Hermitian part, within the tolerance the model accepted,
    # reaches no outcome probability or observable and is dropped
    bank = _real(_hermitian_basis(model.dim_sys)
                 @ np.stack([vec(rho0[l]) for l in model.labels], axis=1),
                 "initial states", model.tol.herm)
    last = None if n_out is None else n_out - 1
    for c0 in range(t0, t1, cfg.chunk):
        span = range(c0, min(c0 + cfg.chunk, t1))
        paths = [path_stream(cfg.seed + t) for t in span]
        u0 = np.array([stream.random() for stream in paths])
        lab = np.minimum((u0 > cum0).sum(axis=0), m - 1)
        x = bank.take(lab, axis=1)
        if n_out is not None:
            outs = [outcome_stream(cfg.seed + t, n) for t in span]
        for k0 in range(1, n + 1, _BLOCK):
            steps = min(_BLOCK, n + 1 - k0)
            labs = _label_path(cum_rows, lab, _uniforms(paths, steps))
            lab = labs[-1]
            if n_out is None:
                val, x = _observe_steps(table, x, labs)
            else:
                val, x = _measure_steps(table, x, labs, _uniforms(outs, steps),
                                        width, last, model.tol.prob_floor,
                                        floored, c0, k0)
            yield c0, k0, labs, val


def _label_path(cum_rows, lab, u):
    """Labels w_k (L, B) of a block of steps, from the labels entering it and
    the path uniforms u (L, B); cum_rows[j, w] is the cumulative row w of P."""
    m = cum_rows.shape[0]
    labs = np.empty(u.shape, dtype=np.intp)
    for i, row in enumerate(u):
        lab = np.minimum((row > cum_rows.take(lab, axis=1)).sum(axis=0), m - 1,
                         out=labs[i])
    return labs


def _observe_steps(table, x, labs):
    """Ergodic steps over a block: the functional of w_k at the state entering
    step k, (L, B), and the states after the block (the images under the
    channels of w_k, see ``_step_table``)."""
    group, b = x.shape[0] + 1, x.shape[1]
    rows = np.arange(group)[:, None] * b + np.arange(b)
    val = np.empty(labs.shape)
    for i, lab in enumerate(labs):
        g = (table @ x).ravel().take(rows + lab * (group * b))
        val[i], x = g[0], g[1:]
    return val, x


def _measure_steps(table, x, labs, u, width, last, floor, floored, c0, k0):
    """Two-time measurement steps over a block.  The functionals of w_k are
    the outcome probabilities p; each step checks the law, draws xi with the
    outcome uniforms u (L, B), leaving outcomes below the probability floor
    out of the draw (counted per trajectory in ``floored``), and moves the
    state to image (w_k, xi) divided by the raw p of xi, so its trace stays
    one.  Returns the flat outcome indices w_k * width + xi (L, B) and the
    states after the block."""
    group, b = x.shape[0] + 1, x.shape[1]
    col = np.arange(b)
    p_rows = np.arange(width)[:, None] * (group * b) + col
    rows = np.arange(group)[:, None] * b + col
    val = np.empty(labs.shape, dtype=np.intp)
    for i, lab in enumerate(labs):
        y = (table @ x).ravel()
        p = y.take(p_rows + lab * (width * group * b))
        cum = _running_sum(p)
        p_min = p.min()
        # written so that a NaN law fails the check too
        if not (cum[-1].max() <= 1.0 + 1e-8 and cum[-1].min() >= 1.0 - 1e-8
                and p_min >= -1e-8):
            _check_law(p, cum[-1], k0 + i, c0)
        if p_min < floor:
            cum = _floor(p, floor, cum, floored, c0)
        xi = (u[i] > cum).sum(axis=0)
        np.minimum(xi, last.take(lab), out=xi)
        j = np.add(lab * width, xi, out=val[i])
        g = y.take(rows + j * (group * b))
        x = g[1:] / g[0]
    return val, x


def _running_sum(p: np.ndarray) -> np.ndarray:
    """``np.cumsum(p, axis=0)``, bit for bit, in a few row additions: cheaper
    than the accumulate loop for the short outcome axis."""
    cum = np.empty_like(p)
    cum[0] = p[0]
    for x in range(1, p.shape[0]):
        np.add(cum[x - 1], p[x], out=cum[x])
    return cum


def _check_law(p, total, k: int, c0: int):
    """Raise for the first trajectory of the chunk whose outcome law at step
    k is defective: its sum is off by more than 1e-8 or an entry is below
    -1e-8 (or NaN)."""
    defect = np.abs(total - 1.0)
    bad = np.nonzero(~(defect <= 1e-8) | (p.min(axis=0) < -1e-8))[0]
    if not bad.size:
        return
    r = bad[0]
    raise NumericalCorruption(
        f"outcome law defective at step {k} of trajectory {c0 + r} "
        f"(sum error {defect[r]:.3e}, min {p[:, r].min():.3e})")


def _floor(p, floor: float, cum, floored, c0: int):
    """Leave outcomes below the floor out of the draw: count the nonzero ones
    per trajectory, renormalize the remaining law of every trajectory that
    lost one, and return its running sum (``cum`` where nothing was lost)."""
    small = (p < floor) & (p != 0.0)
    if not small.any():
        return cum
    hit = small.any(axis=0)
    floored[c0 + np.nonzero(hit)[0]] += small[:, hit].sum(axis=0)
    q = np.where(p < floor, 0.0, p)
    kept = np.ascontiguousarray(q[:, hit].T)
    q[:, hit] = (kept / kept.sum(axis=1, keepdims=True)).T
    return np.cumsum(q, axis=0)


def _add_in_step_order(total, block):
    """total + block[0] + block[1] + ..., added left to right so the sums
    keep the bits of a step-by-step accumulation."""
    return np.add.reduce(np.vstack([total, block]), axis=0)


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
    """Monte-Carlo estimate of the time average (1/N) sum_k Re tr(rho_{k-1} X(w_k))
    along sampled paths, with its standard error across trajectories.

    Each term pairs the observable at the upcoming label with the state
    entering that interaction, matching the pairing <R, X> of the extended
    process: for a flux block this is the energy exchanged during step k.
    """
    superops = np.stack([model.channels[l].superop for l in model.labels])[:, None]
    # Re tr(rho X) = tr(rho H) with H the Hermitian part of X
    blocks = np.stack([x.block(l) for l in model.labels])
    herm = (blocks + blocks.conj().transpose(0, 2, 1)) / 2
    table = _step_table(model, herm.reshape(len(blocks), 1, -1), superops,
                        "observable blocks")
    acc = np.zeros(cfg.n_traj)

    def run_range(t0, t1):
        for c0, _, _, val in _step_blocks(model, cfg, t0, t1, table, 1):
            c1 = c0 + val.shape[1]
            acc[c0:c1] = _add_in_step_order(acc[c0:c1], val)

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
    table = _step_table(model, prob_funcs, superops, "probability functionals")
    width, m = deltas.shape[1], model.chain.n
    deltas = deltas.ravel()
    svec = np.zeros((m, cfg.n_traj))
    increments = step_labels = None
    if cfg.keep_increments:
        increments = np.zeros((cfg.n_traj, cfg.n_steps))
        step_labels = np.zeros((cfg.n_traj, cfg.n_steps), dtype=np.int8)
    floored_counts = np.zeros(cfg.n_traj, dtype=np.int64)

    def run_range(t0, t1):
        for c0, k0, lab, j in _step_blocks(model, cfg, t0, t1, table, width,
                                           n_out, floored_counts):
            c1, k1 = c0 + j.shape[1], k0 - 1 + j.shape[0]
            dlt = deltas.take(j)
            # steps of other labels add +0.0, which leaves every bit alone
            for w in range(m):
                svec[w, c0:c1] = _add_in_step_order(
                    svec[w, c0:c1], np.where(lab == w, dlt, 0.0))
            if cfg.keep_increments:
                increments[c0:c1, k0 - 1:k1] = dlt.T
                step_labels[c0:c1, k0 - 1:k1] = lab.T

    _run_threaded(run_range, cfg)
    return EntropySample(labels=model.labels, config=cfg,
                         svec=np.ascontiguousarray(svec.T),
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
