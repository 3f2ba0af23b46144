"""Sampling and exact enumeration of the probe-word / measurement-outcome
process, plus trajectory-based estimators.

Both samplers share one engine.  A state is its d^2 real coordinates
tr(E_a rho) in an orthonormal Hermitian basis E_a, and a chunk of B
trajectories is held trajectory-minor, as one (d^2, B) array X.  The
probability functionals and every (label, outcome) superoperator, read as
they are from the model's real outcome table (or, for the ergodic sampler,
the observable blocks, folded per call, and the channels, folded once per
model), are laid out as one table, so each step is a single GEMM
``table @ X`` followed by flat takes of every trajectory's outcome law and
drawn image.  The exact enumeration runs in the same coordinates, on the
same outcome table.
Uniforms are drawn a slab of steps at a time (see ``_slab``) and read in
blocks of ``_BLOCK`` steps, so memory does not grow with the number of
steps; labels, increments and totals are handled block by block and summed
in step order.  The index work that depends on a block's labels alone is
formed once per block, the takes gather into buffers of the block, and an
outcome law's totals are checked once per block (its smallest entry at its
step; see ``_measure_steps``).

RNG contract (stable across versions, chunk sizes, slab sizes and worker
counts): trajectory t reads the stream of
``numpy.random.Generator(Philox(key=seed + t))``, that is
``chains.path_stream(seed + t)``.  Draws 0 ... n of the stream drive the
probe path (initial label, then one transition per step); draw n + k selects
the measurement outcome of step k (``chains.outcome_stream`` is the stream
positioned there).  The stream is counter-based, so any draw is found from
its index alone: ``_draws`` reads a range of draws of every trajectory of a
chunk through one generator per range of trajectories, re-keyed per
trajectory.  Every categorical draw maps a uniform u through the same
inverse-CDF arithmetic ``(u > cumsum(p)).sum()``, clipped to the last index
(the count over every cumulative entry but the last, which is the same
where the entries are nondecreasing).  Results are therefore bitwise
identical however trajectories are batched or split across processes.

A sampler call large enough to pay for a fork (see ``_ranges``) is split into
one contiguous range of trajectories per usable core (see ``_split``): the
first range runs in the calling process, each other in a forked worker
(``mris.workers``) that writes its trajectories' slots of the outputs in
place, in anonymous shared mappings.
"""

import math
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from . import extended
from .chains import path_stream
# RealBasisError is defined with the basis helpers and stays importable here
from .extended import RealBasisError, _hermitian_basis, _real  # noqa: F401
from .models import MrisModel
from .quantum import QuantumError, check_density_matrix, vec

ENUMERATION_GUARD = 10_000_000
_BLOCK = 128          # steps of a block: labels drawn, then states stepped
_TILE = 64            # trajectories whose uniforms are drawn, then transposed, at a time
_CORR_BLOCK = 1 << 14  # elements of the empirical lag products formed at a time
_ENUM_BLOCK = 1 << 8   # parents whose children the exact enumeration forms at a time
_SPLIT_WORK = 1 << 17  # trajectory-steps from which a sampler call forks workers
_PIECE_COST = 400      # per-step overhead of a chunk piece, in trajectories' steps
_SPLIT_GAIN = 0.85     # largest modeled time ratio, split to one process, that forks


class NumericalCorruption(RuntimeError):
    """Outcome probabilities stopped summing to one; the run is aborted
    rather than silently renormalized.  ``step`` and ``trajectory`` locate
    the defective law."""

    def __init__(self, message, step=None, trajectory=None):
        super().__init__(message)
        self.step, self.trajectory = step, trajectory


class TrajectoryError(ValueError):
    pass


@dataclass(frozen=True)
class TrajectoryConfig:
    """A sampler run: ``n_traj`` trajectories of ``n_steps`` steps, trajectory
    t keyed ``seed + t``, stepped ``chunk`` trajectories at a time, starting
    from the model's initial states or the stationary ensemble.

    ``n_threads`` caps the processes a run large enough to pay for a fork
    is split over (see ``_ranges``): None uses every usable core, 1 keeps
    one process.  It is a deployment setting; no result depends on it, or
    on ``chunk``."""
    n_steps: int
    n_traj: int
    seed: int
    chunk: int = 512
    n_threads: int = None
    initial: str = "model"        # "model": rho_init[w0]; "stationary": rho_+w0
    keep_increments: bool = False

    def __post_init__(self):
        for name in ("n_steps", "n_traj", "seed", "chunk"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TrajectoryError(f"{name} must be an integer, got {value!r}")
            # held as a Python int, so that the keys seed + t are exact
            object.__setattr__(self, name, int(value))
        if self.n_steps < 1 or self.n_traj < 1:
            raise TrajectoryError("n_steps and n_traj must be positive")
        if not 0 <= self.seed <= 2 ** 128 - self.n_traj:
            # trajectory t is keyed seed + t, and a Philox key is < 2**128
            raise TrajectoryError(
                f"seed {self.seed} outside [0, 2**128 - n_traj]")
        if self.n_threads is not None and (
                isinstance(self.n_threads, bool)
                or not isinstance(self.n_threads, (int, np.integer))):
            raise TrajectoryError(
                f"n_threads must be an integer or None, got {self.n_threads!r}")
        if self.chunk < 1 or (self.n_threads is not None and self.n_threads < 1):
            raise TrajectoryError("chunk and n_threads must be positive")
        if self.initial not in ("model", "stationary"):
            raise TrajectoryError(f"unknown initial mode {self.initial!r}")


# ---------------------------------------------------------------------------
# deterministic evolution along a fixed path
# ---------------------------------------------------------------------------

def simulate_states(model: MrisModel, omega_path, rho0=None) -> np.ndarray:
    """States rho_0, rho_1, ..., rho_n along the path w_0 ... w_n, where
    rho_k = L_{w_k} rho_{k-1}; rho0 defaults to the model's initial state for
    the path's first label.  An empty path, a label the model does not
    have, or a rho0 that is not a d x d density matrix (within the model's
    tolerances) raises TrajectoryError."""
    labels = list(omega_path)
    if not labels:
        raise TrajectoryError("omega_path is empty: it has no first label")
    for label in labels:
        if label not in model.labels:
            raise TrajectoryError(f"unknown label {label!r}; labels are {model.labels}")
    d = model.dim_sys
    if rho0 is None:
        rho0 = model.rho_init[labels[0]]
    else:
        try:
            rho0 = check_density_matrix(rho0, model.tol, "rho0")
        except QuantumError as exc:
            raise TrajectoryError(str(exc)) from None
        if rho0.shape != (d, d):
            raise TrajectoryError(
                f"rho0 has shape {rho0.shape}; the system is {d} x {d}")
    out = np.empty((len(labels), d, d), dtype=complex)
    out[0] = np.asarray(rho0, dtype=complex)
    for k, w in enumerate(labels[1:], start=1):
        out[k] = model.channels[w].apply(out[k - 1])
    return out


# ---------------------------------------------------------------------------
# tables of the stepping engine, in a real Hermitian basis
# ---------------------------------------------------------------------------

def _step_table(funcs, superops) -> np.ndarray:
    """The one real table of a step, for states X (d^2, B) in the Hermitian
    basis.  Each (label w, outcome x) owns d^2 + 1 adjacent rows of
    ``table @ X``: the functional funcs[w, x] at every state, then the image
    of every state under superops[w, x].  funcs is (m, n, d^2) and superops
    (m, n, d^2, d^2), both real in the Hermitian basis; this only lays them
    out."""
    return np.concatenate([funcs[:, :, None], superops],
                          axis=2).reshape(-1, superops.shape[-1])


# ---------------------------------------------------------------------------
# the stepping engine shared by both samplers
# ---------------------------------------------------------------------------

def _draws(gen, keys, start: int, count: int) -> np.ndarray:
    """Draws start ... start + count - 1 of the stream of every key in
    ``keys``, trajectory-minor: a contiguous (count, B), bitwise
    ``path_stream(key).random(start + count)[start:]``.  ``gen`` is one
    Philox Generator, re-keyed per stream: its counter is set to the block
    of four draws that holds draw ``start`` and its buffer emptied, so a
    stream's row of draws opens with the ``start % 4`` draws of that block
    before draw ``start``, which the copy into place leaves out.  The rows
    of ``_TILE`` streams are drawn at a time, then transposed into place,
    so that a step reads its uniforms from one contiguous row."""
    skip = start % 4
    out = np.empty((count, len(keys)))
    tile = np.empty((min(_TILE, len(keys)), skip + count))
    key = [0, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": [start // 4, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    bits = gen.bit_generator
    for t0 in range(0, len(keys), _TILE):
        rows = tile[:len(keys) - t0]
        for k, row in zip(keys[t0:t0 + _TILE], rows):
            # Philox takes its 128-bit key as two 64-bit words, low word first
            key[0], key[1] = k & (2 ** 64 - 1), k >> 64
            bits.state = state
            gen.random(out=row)
        out[:, t0:t0 + len(rows)] = rows[:, skip:].T
    return out


def _slab(width: int) -> int:
    """The steps of uniforms drawn at a time for a chunk of ``width``
    trajectories: whole blocks, at most 512 steps or 2**17 draws of a kind,
    one block at least."""
    return max(_BLOCK, min(512, 2 ** 17 // width) // _BLOCK * _BLOCK)


def _stepper(model: MrisModel, cfg: TrajectoryConfig, table, width: int,
             n_out=None, floored=None):
    """The stepping engine of one sampler call, set up once for all of its
    ranges: returns ``blocks(t0, t1)``, which steps trajectories
    t0 <= t < t1 in chunks on the global grid of ``cfg.chunk`` (clipped to
    the range, so no chunk straddles two chunks of an unsplit run) and
    yields ``(c0, k0, labs, val)`` for each block of up to ``_BLOCK`` steps
    k0 <= k < k0 + L of the chunk that starts at c0: the labels w_k and
    per-step values, both (L, B).  A chunk's path and outcome uniforms are
    drawn a slab of steps at a time (see ``_slab``), by ``_draws`` through
    one generator per range; the first path slab also holds draw 0, the
    initial label.  A block's labels are drawn first (the probe path does
    not depend on the states), then its states are stepped by
    ``_observe_steps`` (without ``n_out``) or ``_measure_steps``; ``table``
    is a ``_step_table`` of ``width`` row groups per label, laid out by each
    sampler call; a stationary start reads model.steady_state.
    """
    m, n = model.chain.n, cfg.n_steps
    if cfg.initial == "stationary":
        ess = model.steady_state.decomposition
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
    if n_out is not None:
        floor = model.tol.prob_floor
        if not floor >= 0.0:
            raise TrajectoryError(f"prob_floor must be >= 0, got {floor!r}")
        # a padded label's draw is clipped to its own outcomes
        last = n_out - 1 if n_out.min() < width else None

    def blocks(t0, t1):
        gen = path_stream(cfg.seed + t0)
        for g0 in range(t0 - t0 % cfg.chunk, t1, cfg.chunk):
            c0, c1 = max(g0, t0), min(g0 + cfg.chunk, t1)
            keys = range(cfg.seed + c0, cfg.seed + c1)
            slab = _slab(c1 - c0)
            for s0 in range(1, n + 1, slab):
                s1 = min(s0 + slab, n + 1)
                if s0 == 1:
                    u = _draws(gen, keys, 0, s1)
                    lab = np.minimum((u[0] > cum0).sum(axis=0), m - 1)
                    x = bank.take(lab, axis=1)
                    u = u[1:]
                else:
                    u = _draws(gen, keys, s0, s1 - s0)
                v = None if n_out is None else _draws(gen, keys, n + s0, s1 - s0)
                for k0 in range(s0, s1, _BLOCK):
                    steps = slice(k0 - s0, min(k0 + _BLOCK, s1) - s0)
                    labs = _label_path(cum_rows, lab, u[steps])
                    lab = labs[-1]
                    if n_out is None:
                        val, x = _observe_steps(table, x, labs)
                    else:
                        val, x = _measure_steps(table, x, labs, v[steps], width,
                                                last, floor, floored, c0, k0)
                    yield c0, k0, labs, val
                # dropped before the next slab is drawn: one slab is held at a time
                del u, v
    return blocks


def _label_path(cum_rows, lab, u):
    """Labels w_k (L, B) of a block of steps, from the labels entering it and
    the path uniforms u (L, B); cum_rows[j, w] is the cumulative row w of P.
    A label counts the cumulative entries below its uniform over every row
    but the last: a row's entries are nondecreasing, so that count is the
    count over all of them clipped to the last label."""
    rows = cum_rows[:-1]
    labs = np.empty(u.shape, dtype=np.intp)
    at = np.empty((rows.shape[0], u.shape[1]))
    below = np.empty(at.shape, dtype=bool)
    for row, out in zip(u, labs):
        lab = np.greater(row, rows.take(lab, axis=1, out=at, mode="clip"),
                         out=below).sum(axis=0, out=out)
    return labs


def _observe_steps(table, x, labs):
    """Ergodic steps over a block: the functional of w_k at the state entering
    step k, (L, B), and the states after the block (the images under the
    channels of w_k, see ``_step_table``).  Each label's row offset into
    ``table @ x`` is formed once per block."""
    group, b = x.shape[0] + 1, x.shape[1]
    rows = np.arange(group)[:, None] * b + np.arange(b)
    offset = labs * (group * b)
    val = np.empty(labs.shape)
    g, at = np.empty((group, b)), np.empty((group, b), dtype=np.intp)
    for i in range(len(labs)):
        _gemm(table, x).ravel().take(np.add(rows, offset[i], out=at), out=g,
                                     mode="clip")
        val[i], x = g[0], g[1:]
    return val, x


def _measure_steps(table, x, labs, u, width, last, floor, floored, c0, k0):
    """Two-time measurement steps over a block.  The functionals of w_k are
    the outcome probabilities p.  Each step draws xi with the outcome
    uniforms u (L, B), leaving outcomes below the probability floor (>= 0)
    out of the draw (counted per trajectory in ``floored``), and moves the
    state to image (w_k, xi) divided by the raw p of xi, so its trace stays
    one.  Returns the flat outcome indices w_k * width + xi (L, B) and the
    states after the block.

    Every law is checked as ``_check_law`` checks it, and the first defect
    in step order is raised, with the step and trajectory a check of each
    law at its step would name.  The smallest entry is checked at its step
    (the floor test needs it anyway), so a NaN or a negative entry stops
    the block there; the totals, which every step records, are checked once
    per block (see ``_check_totals``).  Steps after a defective total run
    on until that check, under np.errstate, so that no warning escapes
    before it.

    What depends on the labels alone is formed once per block: the flat
    outcome index w_k * width, its row offset into ``table @ x`` and the
    clip ``last`` (n_out - 1 per label, None where no label is padded).  A
    draw counts the running sums below its uniform over every row but the
    last: a floor >= 0 leaves every negative entry out of the draw, so the
    sums drawn from are nondecreasing and that count is the count over all
    of them clipped to the last outcome."""
    group, b = x.shape[0] + 1, x.shape[1]
    col = np.arange(b)
    p_rows = np.arange(width)[:, None] * (group * b) + col
    rows = np.arange(group)[:, None] * b + col
    base = labs * width
    offset = base * (group * b)
    bound = None if last is None else last.take(labs)
    val = np.empty(labs.shape, dtype=np.intp)
    totals = np.empty(labs.shape)
    p, p_at = np.empty((width, b)), np.empty((width, b), dtype=np.intp)
    g, g_at = np.empty((group, b)), np.empty((group, b), dtype=np.intp)
    image, norm, state = g[1:], g[0], np.empty((group - 1, b))
    below = np.empty((width - 1, b), dtype=bool)
    xi, j_rows = np.empty(b, dtype=np.intp), np.empty(b, dtype=np.intp)
    # the running sums overwrite p in place; the last is the law's total
    sums, cum = list(zip(p[:-1], p[1:])), p[:-1]
    x0 = x

    def law(s):
        # the law of step s, from the block's entering states stepped again
        # with the same labels and uniforms, outside the floored counts
        x = x0
        if s:
            _, x = _measure_steps(table, x0, labs[:s], u[:s], width, last,
                                  floor, np.zeros(b, np.int64), 0, k0)
        return _gemm(table, x).ravel().take(p_rows + offset[s])

    with np.errstate(all="ignore"):
        for i in range(len(labs)):
            y = _gemm(table, x).ravel()
            y.take(np.add(p_rows, offset[i], out=p_at), out=p, mode="clip")
            p_min = p.min()
            if not p_min >= -1e-8:          # written so that a NaN fails too
                _check_totals(totals[:i], law, k0, c0)
                _check_law(p, np.cumsum(p, axis=0)[-1], k0 + i, c0)
            # the floor acts on nonzero probabilities only: the smallest of
            # them is below it when more entries are below it than the exact
            # zeros that are (a positive floor is above every zero)
            drawn = cum
            if p_min < floor and (np.count_nonzero(p < floor)
                                  > np.count_nonzero(p == 0.0) * (floor > 0.0)):
                drawn = _floor(p, floor, floored, c0)[:-1]
            for prev, row in sums:
                np.add(prev, row, out=row)
            totals[i] = p[-1]
            np.greater(u[i], drawn, out=below).sum(axis=0, out=xi)
            if bound is not None:
                np.minimum(xi, bound[i], out=xi)
            j = np.add(base[i], xi, out=val[i])
            y.take(np.add(rows, np.multiply(j, group * b, out=j_rows), out=g_at),
                   out=g, mode="clip")
            x = np.divide(image, norm, out=state)
        _check_totals(totals, law, k0, c0)
    return val, x


def _gemm(table, x):
    """``table @ x`` by a matrix-matrix product, whatever the chunk width:
    numpy takes a single column by a matrix-vector product, whose sums may
    round otherwise, so a chunk of one trajectory is stepped beside a copy
    of itself."""
    if x.shape[1] > 1:
        return table @ x
    return (table @ np.repeat(x, 2, axis=1))[:, :1]


def _check_totals(totals, law, k0: int, c0: int):
    """Raise for the first of the steps k0, k0 + 1, ... whose law totals, the
    rows of ``totals`` (B each), include a defective one (see
    ``_check_law``); ``law(s)`` recovers the law of step k0 + s for the
    message."""
    if not totals.size or (totals.max() <= 1.0 + 1e-8
                           and totals.min() >= 1.0 - 1e-8):
        return
    for s, total in enumerate(totals):
        if not (total.max() <= 1.0 + 1e-8 and total.min() >= 1.0 - 1e-8):
            _check_law(law(s), total, k0 + s, c0)


def _check_law(p, total, k: int, c0: int):
    """Raise for the first trajectory of the chunk whose outcome law at step
    k is defective: its sum is off by more than 1e-8 or an entry is below
    -1e-8 (or NaN)."""
    defect = np.abs(total - 1.0)
    bad = np.nonzero(~(defect <= 1e-8) | (p.min(axis=0) < -1e-8))[0]
    if not bad.size:
        return
    r = int(bad[0])
    raise NumericalCorruption(
        f"outcome law defective at step {k} of trajectory {c0 + r} "
        f"(sum error {defect[r]:.3e}, min {p[:, r].min():.3e})",
        step=k, trajectory=c0 + r)


def _floor(p, floor: float, floored, c0: int):
    """Leave outcomes below the floor out of the draw: count the nonzero ones
    per trajectory, renormalize the remaining law of every trajectory that
    lost one, and return the running sum of the floored law of every
    trajectory.  Called only where some entry of p, nonzero, is below the
    floor."""
    small = (p < floor) & (p != 0.0)
    hit = small.any(axis=0)
    floored[c0 + np.nonzero(hit)[0]] += small[:, hit].sum(axis=0)
    q = np.where(p < floor, 0.0, p)
    kept = np.ascontiguousarray(q[:, hit].T)
    q[:, hit] = (kept / kept.sum(axis=1, keepdims=True)).T
    return np.cumsum(q, axis=0)


def _add_in_step_order(total, block):
    """total + block[0] + block[1] + ..., added left to right so the sums
    keep the bits of a step-by-step accumulation.  A reduction along a
    contiguous axis (one trajectory) would add pairwise, so a chunk of one
    trajectory is accumulated."""
    stack = np.vstack([total, block])
    if stack.shape[1] == 1:
        return np.add.accumulate(stack, axis=0)[-1]
    return np.add.reduce(stack, axis=0)


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
    An observable whose labels or block size are not the model's raises
    TrajectoryError.
    """
    d = model.dim_sys
    if set(x.labels) != set(model.labels) or x.dim != d:
        raise TrajectoryError(
            f"observable has labels {x.labels} and {x.dim} x {x.dim} blocks; "
            f"the model has labels {model.labels} and {d} x {d} blocks")
    # Re tr(rho X) = tr(rho H) with H the Hermitian part of X
    blocks = np.stack([x.block(l) for l in model.labels])
    herm = (blocks + blocks.conj().transpose(0, 2, 1)) / 2
    uh = _hermitian_basis(d).conj().T
    table = _step_table(_real(herm.reshape(len(blocks), 1, -1) @ uh, "observable blocks"),
                        model.real_superops[:, None])
    ranges = _ranges(cfg)
    acc = _zeros((cfg.n_traj,), np.float64, len(ranges) > 1)
    stepper = _stepper(model, cfg, table, 1)

    def run_range(t0, t1):
        for c0, _, _, val in stepper(t0, t1):
            c1 = c0 + val.shape[1]
            acc[c0:c1] = _add_in_step_order(acc[c0:c1], val)

    _split(run_range, ranges, cfg.chunk)
    per_traj = acc / cfg.n_steps
    mean = math.fsum(per_traj) / cfg.n_traj
    if cfg.n_traj > 1:
        var = math.fsum((v - mean) ** 2 for v in per_traj) / (cfg.n_traj - 1)
        stderr = math.sqrt(var / cfg.n_traj)
    else:
        stderr = math.inf
    return ErgodicEstimate(mean=mean, stderr=stderr, n_traj=cfg.n_traj,
                           n_steps=cfg.n_steps, per_traj=per_traj)


# ---------------------------------------------------------------------------
# splitting a sampler call over processes
# ---------------------------------------------------------------------------

def _ranges(cfg: TrajectoryConfig) -> list:
    """The contiguous trajectory ranges [t0, t1) a sampler call is split
    into: one per usable core, capped by cfg.n_threads and n_traj, where
    the call has at least ``_SPLIT_WORK`` trajectory-steps (a fork and reap
    costs a few milliseconds), a fork is safe, and the modeled step time of
    the slowest range (see ``_step_cost``) is at most ``_SPLIT_GAIN`` times
    that of one process (two busy processes each run slower); else
    [0, n_traj) alone.  The ranges are cut evenly, or at the nearest chunk
    boundaries where that models faster."""
    n, c = cfg.n_traj, cfg.chunk
    k = 1
    if cfg.n_threads != 1 and n * cfg.n_steps >= _SPLIT_WORK and _fork_is_safe():
        k = min(len(os.sched_getaffinity(0)), cfg.n_threads or n, n)
    even = [i * n // k for i in range(k + 1)]
    grid = [0] + [min(n, round(b / c) * c) for b in even[1:-1]] + [n]
    cuts = min([b for b in (even, grid) if len(set(b)) == k + 1],
               key=lambda b: _step_cost(b, c))
    if _step_cost(cuts, c) > _SPLIT_GAIN * _step_cost([0, n], c):
        cuts = [0, n]
    return list(zip(cuts[:-1], cuts[1:]))


def _step_cost(cuts, chunk: int) -> int:
    """The modeled time of one step of the slowest of the ranges between
    ``cuts``, in trajectories: each chunk piece a range steps costs
    ``_PIECE_COST`` plus its width."""
    return max(_PIECE_COST * (-(-t1 // chunk) - t0 // chunk) + t1 - t0
               for t0, t1 in zip(cuts[:-1], cuts[1:]))


def _fork_is_safe() -> bool:
    """On Linux, with no other Python thread, and, where os.fork warns of
    any other OS thread (Python >= 3.12; a BLAS pool's too), with none."""
    if not sys.platform.startswith("linux") or threading.active_count() > 1:
        return False
    return sys.version_info < (3, 12) or len(os.listdir("/proc/self/task")) == 1


def _zeros(shape: tuple, dtype, shared: bool) -> np.ndarray:
    """Zeros of ``shape``, in an anonymous shared mapping when ``shared``, so
    that forked workers write into the caller's array in place."""
    if not shared:
        return np.zeros(shape, dtype)
    from .workers import shared_zeros

    return shared_zeros(shape, dtype)


def _split(run_range, ranges, chunk: int):
    """Run ``run_range(t0, t1)`` over each of ``ranges``: the first in this
    process, each other in a forked worker (see ``workers.Worker``).  Every
    write lands at a trajectory-indexed slot of a shared output, so the
    results are those of one process.

    So is a failure.  Each range stops at its first, and the one with the
    smallest (chunk, step, trajectory) is raised, as one process stepping
    the chunks in order would raise it; a failure that names no step (a
    worker killed, say) comes first.  If this process's own range fails,
    the workers are killed and the rest of its failing chunk, which later
    ranges hold, is stepped here.  Every worker is reaped on every path,
    and killed first if this process is interrupted."""
    if len(ranges) == 1:
        run_range(*ranges[0])
        return
    from . import workers

    started = []
    try:
        workers.start(run_range, ranges[1:], started)
        try:
            run_range(*ranges[0])
        except NumericalCorruption as exc:
            for worker in started:
                worker.stop()
            failures = [exc]
            end = min(exc.trajectory // chunk * chunk + chunk, ranges[-1][1])
            if ranges[0][1] < end:
                try:
                    run_range(ranges[0][1], end)
                except NumericalCorruption as rest:
                    failures.append(rest)
        else:
            failures = [worker.result() for worker in started]
    finally:
        for worker in started:
            worker.stop()
    failures = [f for f in failures if f is not None]
    if failures:
        raise min(failures, key=lambda f: (
            (f.trajectory // chunk, f.step, f.trajectory)
            if isinstance(f, NumericalCorruption) else (-1, 0, 0)))


# ---------------------------------------------------------------------------
# the two-time measurement engine
# ---------------------------------------------------------------------------

@dataclass
class EntropySample:
    """Per-trajectory totals of the entropy-exchange process.

    ``svec[t, v]`` is the accumulated two-time measurement increment of probe
    v over trajectory t; when requested, ``increments``/``step_labels`` keep
    the per-step series for autocorrelation estimates.  The label indices
    are stored in the smallest signed integer type that holds n_labels - 1
    (int8 up to 128 labels).
    """
    labels: tuple
    config: TrajectoryConfig
    svec: np.ndarray                      # (n_traj, n_labels)
    floored: int
    increments: np.ndarray = None         # (n_traj, n_steps) or None
    step_labels: np.ndarray = None        # (n_traj, n_steps) signed int or None

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
    superops, prob_funcs, deltas, n_out = model.outcome_table
    table = _step_table(prob_funcs, superops)
    width, m = deltas.shape[1], model.chain.n
    deltas = deltas.ravel()
    ranges = _ranges(cfg)
    shared = len(ranges) > 1
    svec = _zeros((m, cfg.n_traj), np.float64, shared)
    increments = step_labels = None
    if cfg.keep_increments:
        increments = _zeros((cfg.n_traj, cfg.n_steps), np.float64, shared)
        step_labels = _zeros((cfg.n_traj, cfg.n_steps), _label_dtype(m), shared)
    floored_counts = _zeros((cfg.n_traj,), np.int64, shared)
    stepper = _stepper(model, cfg, table, width, n_out, floored_counts)

    def run_range(t0, t1):
        for c0, k0, lab, j in stepper(t0, t1):
            c1, k1 = c0 + j.shape[1], k0 - 1 + j.shape[0]
            dlt = deltas.take(j)
            # steps of other labels add +0.0, which leaves every bit alone
            for w in range(m):
                svec[w, c0:c1] = _add_in_step_order(
                    svec[w, c0:c1], np.where(lab == w, dlt, 0.0))
            if cfg.keep_increments:
                increments[c0:c1, k0 - 1:k1] = dlt.T
                step_labels[c0:c1, k0 - 1:k1] = lab.T

    _split(run_range, ranges, cfg.chunk)
    return EntropySample(labels=model.labels, config=cfg,
                         svec=np.ascontiguousarray(svec.T),
                         floored=int(floored_counts.sum()),
                         increments=increments, step_labels=step_labels)


def _label_dtype(m: int):
    """The smallest signed integer type that holds the label indices 0..m-1."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64)
                if np.iinfo(t).max >= m - 1)


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
        """E[exp(-alpha . S)] over the exact law.

        Atoms of probability exactly zero are left out of the sum: they may
        carry increments that no possible branch reaches, whose weights
        overflow.  Where a weight overflows but the sum does not, the sum is
        taken with the largest exponent factored out; every other result is
        the plain sum.  Raises TrajectoryError naming alpha where the sum
        overflows."""
        alpha = extended._tilt_vector(len(self.labels), alpha, TrajectoryError)
        atoms = self.probs != 0.0
        probs = self.probs[atoms]
        with np.errstate(over="ignore", invalid="ignore"):
            x = -self.svecs[atoms] @ alpha
            terms = probs * np.exp(x)
            try:
                if np.isfinite(terms).all():
                    return math.fsum(terms)
                top = x.max()
                value = math.exp(top + math.log(math.fsum(probs * np.exp(x - top))))
            except OverflowError:       # the exact sum is past the float range
                value = math.inf
        if math.isfinite(value):
            return value
        raise TrajectoryError(
            f"E[exp(-alpha . S)] overflows at alpha={alpha}")

    def total_probability(self) -> float:
        return math.fsum(self.probs)


def enumerate_full_statistics(model: MrisModel, n: int,
                              keep_words: bool = True) -> ExactDistribution:
    """Exhaustive law of the n-step (probe label, outcome) word process.

    The chain factors up to the first step are folded into the initial
    extended state, matching the sampled process and the duality pairing.

    Each level is sized from its keep mask before it is formed, and the
    children of at most ``_ENUM_BLOCK`` parents are formed at a time,
    straight into the level's preallocated arrays, so that besides its
    outputs the enumeration holds one level of parents and one block.  At
    the last level only a child's d diagonal coordinates, whose sum is its
    probability, are formed.  Every child is the same arithmetic on the
    same operands whatever the block, so the law does not depend on it.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise TrajectoryError(f"n must be an integer >= 1, got {n!r}")
    m = model.chain.n
    superops, _, deltas, n_out = model.outcome_table
    total = m * (m * superops.shape[1]) ** n
    if total > ENUMERATION_GUARD:
        raise TrajectoryError(
            f"enumeration would visit ~{total:.3g} branches "
            f"(guard {ENUMERATION_GUARD:.0g}); reduce n")

    d = model.dim_sys
    p_mat = model.chain.P
    valid = np.arange(superops.shape[1]) < n_out[:, None]        # (m, n_max)
    # level 1: each (w, x) acts on the initial block of w, which carries the
    # chain factors up to the first step; states are real coordinates
    x0 = extended._coords(model.initial_state().blocks).reshape(m, -1)
    states = np.einsum("wxij,wj->wxi", superops, x0)[valid]
    lab, out = np.nonzero(valid)
    svecs = np.zeros((len(lab), m))
    svecs[np.arange(len(lab)), lab] = deltas[lab, out]
    words = np.stack([lab, out], axis=1)[:, None].astype(np.int16)
    # the children (w, x) of a parent of label v: chain edges and real
    # outcomes; boolean indexing orders them parent-major, then by (w, x),
    # as the depth-first order would
    keep = (p_mat > model.tol.edge)[:, :, None] & valid          # (v, w, x)
    n_kids = keep.sum(axis=(1, 2))
    # the diagonal coordinates lead the real basis
    diag_ops = np.ascontiguousarray(superops[:, :, :d])
    for k in range(2, n + 1):
        last = k == n
        size = int(np.bincount(lab, minlength=m) @ n_kids)
        if last:
            probs = np.empty(size)
        else:
            kid_lab, kid_states = np.empty(size, np.intp), np.empty((size, d * d))
        kid_svecs = np.empty((size, m))
        kid_words = np.empty((size, k, 2), np.int16) if keep_words else None
        stop = 0
        for a in range(0, len(lab), _ENUM_BLOCK):
            mask = keep[lab[a:a + _ENUM_BLOCK]]
            parent, w_new, out = np.nonzero(mask)
            kids = slice(stop, stop + len(parent))
            stop = kids.stop
            parent += a
            children = np.einsum("wxij,bj->bwxi", diag_ops if last else superops,
                                 states[a:a + _ENUM_BLOCK])[mask]
            children *= p_mat[lab[parent], w_new][:, None]
            if last:
                probs[kids] = children.sum(axis=1)
            else:
                kid_states[kids], kid_lab[kids] = children, w_new
            block = kid_svecs[kids]
            block[...] = svecs[parent]
            block[np.arange(len(parent)), w_new] += deltas[w_new, out]
            if keep_words:
                kid_words[kids, :-1] = words[parent]
                kid_words[kids, -1, 0], kid_words[kids, -1, 1] = w_new, out
        svecs, words = kid_svecs, kid_words
        if not last:
            lab, states = kid_lab, kid_states
    if n == 1:
        # trace of the unnormalized block = branch probability
        probs = states[:, :d].sum(axis=1)
    return ExactDistribution(
        labels=model.labels, n_steps=n, probs=probs, svecs=svecs,
        words=words if keep_words else None)


# ---------------------------------------------------------------------------
# cumulants and autocorrelations from samples
# ---------------------------------------------------------------------------

def empirical_cumulant(sample: EntropySample, alpha) -> float:
    """Per-step empirical cumulant (1/n) log E_hat[exp(-alpha . S_n)],
    evaluated stably through a log-sum-exp."""
    alpha = extended._tilt_vector(len(sample.labels), alpha, TrajectoryError)
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
    errors across trajectories.  The estimate centers with the global means
    of the two probes' increments.  Besides the sample it holds one
    full-size array, the late probe's centered increments, and forms its
    lag products in row blocks of at most ``_CORR_BLOCK`` elements; its
    values and standard errors are bitwise those of the whole-array form
    (see _autocorr_empirical).
    """
    if not isinstance(source, (MrisModel, EntropySample)):
        raise TrajectoryError(f"cannot compute autocorrelation from {type(source)!r}")
    for label in (omega, nu):
        if label not in source.labels:
            raise TrajectoryError(f"unknown label {label!r}; labels are {source.labels}")
    n_steps = source.n_steps if isinstance(source, EntropySample) else math.inf
    if (isinstance(max_lag, bool) or not isinstance(max_lag, (int, np.integer))
            or not 0 <= max_lag < n_steps):
        raise TrajectoryError(
            f"max_lag must be an integer in [0, {n_steps}), got {max_lag!r}")
    if isinstance(source, MrisModel):
        return _autocorr_analytic(source, omega, nu, max_lag)
    return _autocorr_empirical(source, omega, nu, max_lag)


def _autocorr_analytic(model: MrisModel, omega, nu, max_lag) -> AutocorrResult:
    """c(0) = delta_wv l^T M_ww r - <J_w><J_v> and, for k >= 1,
    c(k) = l^T M_w G^{k-1} M_v r - <J_w><J_v>, with G the generator, r and l
    its Perron pair and M_v, M_vv the alpha-derivatives of the tilted
    generator at 0, all real (see fluctuations._perron); <J_v> = -l^T M_v r."""
    from .fluctuations import _perron

    p = _perron(model, np.zeros(model.chain.n))
    iw, iv = model.chain.index(omega), model.chain.index(nu)
    mean = p.l_dm @ p.r                 # -<J_v>
    row, col = p.l_dm[iw], p.dm_r[:, iv]
    values = np.empty(max_lag + 1)
    # a step's increment belongs to exactly one probe
    values[0] = p.l_d2m_r[iw] if iw == iv else 0.0
    for k in range(1, max_lag + 1):
        values[k] = row @ col
        col = p.matrix @ col
    values -= mean[iw] * mean[iv]
    return AutocorrResult(omega=omega, nu=nu, lags=np.arange(max_lag + 1),
                          values=values, stderr=None, mode="analytic")


def _autocorr_empirical(sample: EntropySample, omega, nu, max_lag) -> AutocorrResult:
    """c(k) as the mean over trajectories of the per-trajectory means of
    f_w[:, k:] * f_v[:, :n - k], with f the masked increments of a probe
    centered with their global mean (per-trajectory centering would give the
    cross pairs a lag-0 estimator whose bias dwarfs its vanishing spread);
    the per-trajectory scatter of the centered products then carries an
    honest standard error for every pair.

    Besides the sample it holds one full-size array, f_w, centered in
    place; the early probe's mean comes from a transient masked copy, and
    f_v and the lag products are formed for blocks of rows of at most
    ``_CORR_BLOCK`` elements (one row at least).  Each per-trajectory mean
    is the same row reduction of the same products, and both global means
    are np.mean of the same full arrays, so values and stderr are bitwise
    those of the whole-array form."""
    if sample.increments is None:
        raise TrajectoryError(
            "sample was built without keep_increments; rerun with "
            "TrajectoryConfig(keep_increments=True)")
    iw = sample.labels.index(omega)
    iv = sample.labels.index(nu)
    inc, labs = sample.increments, sample.step_labels
    t, n = inc.shape
    # multiply, not where, so that the zeros of other labels keep their signs
    mean_v = np.multiply(inc, labs == iv).mean()
    f_w = np.multiply(inc, labs == iw)
    f_w -= f_w.mean()
    per_traj = np.empty((max_lag + 1, t))
    rows = max(1, _CORR_BLOCK // n)
    for r0 in range(0, t, rows):
        block = slice(r0, r0 + rows)
        f_v = np.multiply(inc[block], labs[block] == iv)
        f_v -= mean_v
        for k in range(max_lag + 1):
            per_traj[k, block] = (f_w[block, k:] * f_v[:, :n - k]).mean(axis=1)
    lags = np.arange(max_lag + 1)
    values = np.empty(max_lag + 1)
    stderr = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        values[k] = math.fsum(per_traj[k]) / t
        var = (math.fsum((v - values[k]) ** 2 for v in per_traj[k]) / (t - 1)
               if t > 1 else math.inf)       # as ergodic_average: no spread
        stderr[k] = math.sqrt(var / t)
    return AutocorrResult(omega=omega, nu=nu, lags=lags, values=values,
                          stderr=stderr, mode="empirical")
