"""Slow driving of the chain: schedules interpolating two transition
matrices, the instantaneous generator family, and tracking of the evolved
extended state against the instantaneous steady state.
"""

from dataclasses import dataclass

import numpy as np

from . import extended
from .chains import MarkovChain, stationary_vector
from .models import MrisModel


class AdiabaticError(ValueError):
    pass


def _smoothstep(s):
    return s * s * (3.0 - 2.0 * s)


@dataclass(frozen=True)
class AdiabaticSchedule:
    """Interpolation P(s) = (1 - f(s)) P_start + f(s) P_end on s in [0, 1];
    only the chain varies, the probes and channels stay fixed."""
    p_start: np.ndarray
    p_end: np.ndarray
    kind: str = "linear"           # "linear" | "smoothstep"

    def __post_init__(self):
        for name in ("p_start", "p_end"):
            p = np.asarray(getattr(self, name), dtype=float)
            if p.ndim != 2 or p.shape[0] != p.shape[1]:
                raise AdiabaticError(f"{name} must be square")
            # written so that a NaN entry fails it too
            if not ((p >= 0).all() and np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12):
                raise AdiabaticError(f"{name} is not a stochastic matrix")
            object.__setattr__(self, name, p)
        if self.p_start.shape != self.p_end.shape:
            raise AdiabaticError("endpoint matrices differ in shape")
        if self.kind not in ("linear", "smoothstep"):
            raise AdiabaticError(f"unknown schedule kind {self.kind!r}")

    def fraction(self, s):
        """f(s); elementwise for an array of schedule times."""
        s = np.asarray(s, dtype=float)
        outside = ~((s >= 0.0) & (s <= 1.0))
        if outside.any():
            raise AdiabaticError(
                f"schedule parameter {s[outside].flat[0]} outside [0, 1]")
        f = s if self.kind == "linear" else _smoothstep(s)
        return float(f) if f.ndim == 0 else f

    def transition_matrix(self, s):
        """P(s); a stack of matrices for an array of schedule times."""
        f = np.asarray(self.fraction(s))[..., None, None]
        return (1.0 - f) * self.p_start + f * self.p_end


def _check_states(model: MrisModel, schedule: AdiabaticSchedule):
    m = schedule.p_start.shape[0]
    if m != model.chain.n:
        raise AdiabaticError(
            f"schedule is {m}-state but the model has {model.chain.n}")


def schedule_generator(model: MrisModel, schedule: AdiabaticSchedule,
                       s: float) -> extended.ExtendedGenerator:
    """Instantaneous generator at schedule time s: the model's channels driven
    by the interpolated chain."""
    _check_states(model, schedule)
    p_s = schedule.transition_matrix(s)
    pi_s, _ = stationary_vector(p_s)
    chain_s = MarkovChain(labels=model.labels, pi=pi_s, P=p_s)
    return extended.build_generator(chain_s, model.channels, model.tol)


# Schedule steps per stack of generators (the first stack also carries s = 0),
# so that memory does not grow with the number of steps.
_SWEEP_BLOCK = 256

# Points of the uniform grid on which the family is checked for primitivity.
_PRIMITIVITY_POINTS = 20


@dataclass
class AdiabaticResult:
    n_steps: int
    kind: str
    s_grid: np.ndarray
    errors: np.ndarray              # trace-norm distance to R_+(s_k), per step
    plateau_error: float            # max over the final three quarters
    instantaneous_gap_min: float

    @property
    def epsilon(self):
        return 1.0 / self.n_steps


def adiabatic_evolve(model: MrisModel, schedule: AdiabaticSchedule,
                     n_steps: int, r0: extended.ExtendedState = None) -> AdiabaticResult:
    """Run R_k = generator(k / N) R_{k-1} for k = 1..N and track the
    trace-norm error sum_w || R_k(w) - R_+(k/N)(w) ||_1.

    The instantaneous family must be primitive along the whole path (checked
    on a uniform grid); r0 defaults to the initial steady state R_+(0), so the
    reported error is pure lag, not transient decay.  The plateau error is the
    maximum over k >= N/4, by which point any admissible start has merged into
    the O(1/N) tracking regime.

    The primitivity grid is one batched eigvals call.  The generators, the
    steady states R_+(s_k) (one bordered solve each, see extended.find_ess;
    no eigensolve) and the trace norms are taken over stacks of schedule
    points; only the recursion itself steps one point at a time.
    """
    if n_steps < 4:
        raise AdiabaticError("need at least 4 steps")
    _check_states(model, schedule)
    tol = model.tol
    labels, m, d = model.labels, model.chain.n, model.dim_sys
    if r0 is not None:
        if r0.labels != labels:
            raise AdiabaticError(
                f"r0 has labels {r0.labels}, the model has {labels}")
        if r0.blocks.shape != (m, d, d):
            raise AdiabaticError(
                f"r0 blocks have shape {r0.blocks.shape}, the model needs {(m, d, d)}")
    superops = [model.channels[l].superop for l in labels]

    def generators(s):
        return extended._generator_stack(schedule.transition_matrix(s), superops)

    grid = np.linspace(0.0, 1.0, _PRIMITIVITY_POINTS)
    gap_min = np.inf
    for s, w in zip(grid, np.linalg.eigvals(generators(grid))):
        cls = extended._classify_spectrum(w, tol)
        if cls.kind != "primitive":
            raise AdiabaticError(
                f"instantaneous generator at s={s:.3f} is {cls.kind}; the "
                "tracking bound needs a primitive family")
        gap_min = min(gap_min, cls.gap)

    s_grid = np.arange(n_steps + 1) / n_steps
    errors = np.empty(n_steps + 1)

    def track(lo, hi, v):
        """Fill errors[lo:hi] and return R_{hi-1}, entering with R_{lo-1}
        (with R_0, or None for R_+(0), when lo = 0).  A function of its own,
        so that one stack is released before the next is built."""
        mats = generators(s_grid[lo:hi])
        ess = extended._ess_stack(mats, labels, d, tol)
        states = np.empty((hi - lo, m * d * d), dtype=complex)
        for k in range(lo, hi):
            if k > 0:
                v = mats[k - lo] @ v
            elif v is None:
                v = extended.big_vec(ess[0])
            states[k - lo] = v
        errors[lo:hi] = extended._trace_norm_lag(extended.big_unvec(states, m, d), ess)
        return v

    v = None if r0 is None else extended.big_vec(r0.blocks)
    bounds = [0, *range(_SWEEP_BLOCK + 1, n_steps + 1, _SWEEP_BLOCK), n_steps + 1]
    for lo, hi in zip(bounds, bounds[1:]):
        v = track(lo, hi, v)
    plateau = float(errors[int(np.ceil(n_steps / 4)):].max())
    return AdiabaticResult(n_steps=n_steps, kind=schedule.kind, s_grid=s_grid,
                           errors=errors, plateau_error=plateau,
                           instantaneous_gap_min=float(gap_min))
