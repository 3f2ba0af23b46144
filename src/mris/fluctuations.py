"""Large-deviation and linear-response machinery: the cumulant generating
function of the entropy-exchange process, its symmetries, the central-limit
covariance, Legendre transforms, kinetic coefficients, and the Green-Kubo
representation.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import extended, models, trajectories
from .models import MrisModel


class FluctuationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# the cumulant generating function e(alpha) = log spr(deformed generator)
# ---------------------------------------------------------------------------

def e_of_alpha(model: MrisModel, alpha) -> float:
    """Per-step cumulant generating function of the entropy-exchange vector,
    lim (1/n) log E[exp(-alpha . S_n)], from the deformed generator's spectral
    radius.  Values are cached per model (alpha quantized to 12 digits)."""
    alpha = np.asarray(alpha, dtype=float)
    key = tuple(np.round(alpha, 12))
    cache = model.caches.setdefault("cumulant_values", {})
    if key in cache:
        return cache[key]
    g = extended.deformed_generator(model, alpha)
    w = np.linalg.eigvals(g.matrix)
    # Perron root: on a periodic chain -lambda (and other roots of unity
    # times lambda) share the spectral radius up to round-off
    mod = np.abs(w)
    top = w[mod >= (1.0 - 1e-12) * mod.max()]
    lam = top[np.argmax(top.real)]
    if lam.real <= 0.0 or abs(lam.imag) > 1e-10 * max(1.0, abs(lam.real)):
        raise FluctuationError(
            f"dominant deformed eigenvalue is not real positive at "
            f"alpha={alpha}: {lam}")
    val = math.log(lam.real)
    cache[key] = val
    return val


def _grad_e(model, alpha, h: float = 1e-5) -> np.ndarray:
    m = len(alpha)
    g = np.empty(m)
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        g[i] = (e_of_alpha(model, alpha + e) - e_of_alpha(model, alpha - e)) / (2 * h)
    return g


def _richardson(coarse: float, fine: float) -> float:
    """Limit estimate from two central differences at steps h and h/2."""
    return (4.0 * fine - coarse) / 3.0


# ---------------------------------------------------------------------------
# symmetry reports
# ---------------------------------------------------------------------------

@dataclass
class SymmetryReport:
    entries: list                  # (alpha, value, mirrored value, residual)
    max_residual: float
    holds: bool
    threshold: float


def _default_alpha_grid(m: int) -> list:
    grid = [lvl * np.ones(m) for lvl in (0.0, 0.25, 0.5, 0.75, 1.0)]
    rng = np.random.default_rng(20240817)
    grid.extend(rng.uniform(-1.0, 2.0, size=m) for _ in range(10))
    return grid


def gc_symmetry_report(model: MrisModel, alpha_grid=None,
                       threshold: float = 1e-8) -> SymmetryReport:
    """Residuals of e(1 - alpha) = e(alpha) over a grid of alpha vectors.

    The symmetry holds exactly for time-reversal invariant models; a maximum
    residual above the threshold certifies its breakdown.
    """
    m = model.chain.n
    if alpha_grid is None:
        alpha_grid = _default_alpha_grid(m)
    entries = []
    worst = 0.0
    for a in alpha_grid:
        a = np.asarray(a, dtype=float)
        va = e_of_alpha(model, a)
        vb = e_of_alpha(model, 1.0 - a)
        r = abs(va - vb)
        entries.append((a, va, vb, r))
        worst = max(worst, r)
    return SymmetryReport(entries=entries, max_residual=worst,
                          holds=worst <= threshold, threshold=threshold)


def translation_symmetry_report(model: MrisModel, alphas=None, gammas=None,
                                threshold: float = 1e-8) -> SymmetryReport:
    """Residuals of e(alpha + gamma / beta) = e(alpha), with 1/beta the
    entrywise inverse of the model's probe temperatures.

    The identity characterizes models obtained by deforming the temperatures
    of an equilibrium family, so it doubles as an equilibrium-origin test.
    """
    m = model.chain.n
    beta_inv = 1.0 / np.array([model.probes[l].beta for l in model.labels])
    if alphas is None:
        rng = np.random.default_rng(20240818)
        alphas = [np.zeros(m), 0.5 * np.ones(m)] + \
            [rng.uniform(-0.5, 1.0, size=m) for _ in range(2)]
    if gammas is None:
        gammas = (0.25, -0.4, 0.9, 1.7)
    entries = []
    worst = 0.0
    for a in alphas:
        a = np.asarray(a, dtype=float)
        va = e_of_alpha(model, a)
        for gam in gammas:
            vb = e_of_alpha(model, a + gam * beta_inv)
            r = abs(va - vb)
            entries.append((a, gam, vb, r))
            worst = max(worst, r)
    return SymmetryReport(entries=entries, max_residual=worst,
                          holds=worst <= threshold, threshold=threshold)


# ---------------------------------------------------------------------------
# central-limit covariance: Hessian of e at 0, via moments of spr
# ---------------------------------------------------------------------------

def clt_covariance(model: MrisModel, h: float = 1e-4) -> np.ndarray:
    """Asymptotic covariance of S_n / sqrt(n): C = Hess e(0), evaluated as
    l_{wv} - l_w l_v with l = exp(e) (the spectral radius), by Richardson-
    extrapolated central differences."""
    m = model.chain.n

    def ell(a):
        return math.exp(e_of_alpha(model, a))

    def basis(i, s):
        v = np.zeros(m)
        v[i] = s
        return v

    l0 = ell(np.zeros(m))
    grad = np.empty(m)
    for i in range(m):
        d_h = (ell(basis(i, h)) - ell(basis(i, -h))) / (2 * h)
        d_h2 = (ell(basis(i, h / 2)) - ell(basis(i, -h / 2))) / h
        grad[i] = _richardson(d_h, d_h2)

    hess = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            if i == j:
                def second(step):
                    return (ell(basis(i, step)) - 2 * l0 + ell(basis(i, -step))) \
                        / step ** 2
            else:
                def second(step):
                    pp = ell(basis(i, step) + basis(j, step))
                    pm = ell(basis(i, step) - basis(j, step))
                    mp = ell(basis(j, step) - basis(i, step))
                    mm = ell(-basis(i, step) - basis(j, step))
                    return (pp - pm - mp + mm) / (4 * step ** 2)
            hess[i, j] = hess[j, i] = _richardson(second(h), second(h / 2))

    c = hess / l0 - np.outer(grad, grad) / l0 ** 2
    return (c + c.T) / 2


# ---------------------------------------------------------------------------
# Legendre transforms (level-1 rate functions)
# ---------------------------------------------------------------------------

@dataclass
class RateFunctionResult:
    s: np.ndarray                      # (n_points, m) or (n_points,)
    values: np.ndarray                 # (n_points,)
    maximizers: np.ndarray             # optimal alpha per point
    unbounded: np.ndarray              # True where the sup escaped the box
    box: float = 50.0


def _ascend(objective, gradient, x0, box: float, iters: int = 200,
            eta0: float = 0.25):
    """Damped gradient ascent: growth 1.5 on accepted steps, halving on
    rejected ones, iterates clamped to [-box, box]^m."""
    x = np.clip(np.asarray(x0, dtype=float), -box, box)
    f = objective(x)
    eta = eta0
    for _ in range(iters):
        g = gradient(x)
        cand = np.clip(x + eta * g, -box, box)
        fc = objective(cand)
        if fc > f:
            x, f = cand, fc
            eta *= 1.5
        else:
            eta /= 2
            if eta < 1e-18:
                break
    g = gradient(x)
    clamped_out = np.any((np.abs(x) >= box) & (g * np.sign(x) > 1e-8))
    return x, f, bool(clamped_out)


def rate_function(model: MrisModel, s_grid) -> RateFunctionResult:
    """Legendre transform I(s) = sup_alpha [alpha . s - e(-alpha)] on a grid
    of entropy-exchange rate vectors, with warm starts along the grid."""
    s_grid = np.atleast_2d(np.asarray(s_grid, dtype=float))
    m = model.chain.n
    box = 50.0
    values = np.empty(s_grid.shape[0])
    maximizers = np.empty_like(s_grid)
    unbounded = np.zeros(s_grid.shape[0], dtype=bool)
    warm = np.zeros(m)
    for p, s in enumerate(s_grid):
        def obj(a):
            return float(a @ s) - e_of_alpha(model, -a)

        def grad(a):
            return s + _grad_e(model, -a)

        x, f, clamped = _ascend(obj, grad, warm, box)
        maximizers[p] = x
        unbounded[p] = clamped
        values[p] = math.inf if clamped else f
        if not clamped:
            warm = x
    return RateFunctionResult(s=s_grid, values=values, maximizers=maximizers,
                              unbounded=unbounded, box=box)


def entropy_rate_function(model: MrisModel, s_grid) -> RateFunctionResult:
    """Scalar version for the total entropy exchange: the transform of
    ebar(a) = e(a 1)."""
    s_grid = np.asarray(s_grid, dtype=float).reshape(-1)
    m = model.chain.n
    ones = np.ones(m)
    box = 50.0
    values = np.empty(s_grid.shape[0])
    maximizers = np.empty(s_grid.shape[0])
    unbounded = np.zeros(s_grid.shape[0], dtype=bool)
    warm = np.zeros(1)
    h = 1e-5
    for p, s in enumerate(s_grid):
        def obj(a):
            return float(a[0] * s) - e_of_alpha(model, -a[0] * ones)

        def grad(a):
            d = (e_of_alpha(model, (-a[0] + h) * ones)
                 - e_of_alpha(model, (-a[0] - h) * ones)) / (2 * h)
            return np.array([s + d])

        x, f, clamped = _ascend(obj, grad, warm, box)
        maximizers[p] = x[0]
        unbounded[p] = clamped
        values[p] = math.inf if clamped else f
        if not clamped:
            warm = x
    return RateFunctionResult(s=s_grid, values=values, maximizers=maximizers,
                              unbounded=unbounded, box=box)


# ---------------------------------------------------------------------------
# kinetic coefficients at equilibrium
# ---------------------------------------------------------------------------

@dataclass
class KineticMatrix:
    matrix: np.ndarray            # flux response: d Jbar_w / d zeta_v at 0
    route_b: np.ndarray           # Hess e(0) / (2 beta^2), independent stencil
    discrepancy: float
    beta_bar: float
    zeta_step: float
    row_sums: np.ndarray = None
    col_sums: np.ndarray = None

    def __post_init__(self):
        if self.row_sums is None:
            self.row_sums = self.matrix.sum(axis=1)
        if self.col_sums is None:
            self.col_sums = self.matrix.sum(axis=0)


def _steady_fluxes(model: MrisModel) -> np.ndarray:
    r_plus, _ = model.ess()
    return np.array([extended.expectation(r_plus, models.flux_extended(model, l))
                     for l in model.labels])


def kinetic_coefficients(model: MrisModel, zeta_step: float = 1e-3) -> KineticMatrix:
    """Linear response of the steady fluxes to probe-temperature deformations
    around an equilibrium model.

    Route (a) differentiates the steady flux of the re-solved deformed model
    (Richardson-extrapolated central differences in zeta); route (b) is
    Hess e(0) / (2 beta_bar^2) with its own stencil.  The two are returned
    together with their maximum entrywise discrepancy.
    """
    eq = models.check_equilibrium(model)
    if not eq["is_equilibrium"]:
        raise FluctuationError(
            f"kinetic coefficients are defined at equilibrium; joint-invariance "
            f"residual is {eq['max_residual']:.3e}")
    betas = np.array([model.probes[l].beta for l in model.labels])
    beta_bar = float(betas.mean())
    if np.abs(betas - beta_bar).max() > 1e-10:
        raise FluctuationError(f"probe temperatures differ at equilibrium: {betas}")

    m = model.chain.n
    mat = np.empty((m, m))
    h = zeta_step
    for v in range(m):
        def fluxes_at(step):
            zeta = np.zeros(m)
            zeta[v] = step
            return _steady_fluxes(models.temperature_deform(model, zeta))

        d_h = (fluxes_at(h) - fluxes_at(-h)) / (2 * h)
        d_h2 = (fluxes_at(h / 2) - fluxes_at(-h / 2)) / h
        mat[:, v] = _richardson(d_h, d_h2)

    route_b = _hessian_e(model, h=2e-4) / (2 * beta_bar ** 2)
    disc = float(np.abs(mat - route_b).max())
    return KineticMatrix(matrix=mat, route_b=route_b, discrepancy=disc,
                         beta_bar=beta_bar, zeta_step=zeta_step)


def _hessian_e(model: MrisModel, h: float = 2e-4) -> np.ndarray:
    """Richardson-extrapolated finite-difference Hessian of e at 0, working on
    e-values directly (the covariance route differentiates the spectral radius
    instead, keeping the two computations independent)."""
    m = model.chain.n

    def basis(i, s):
        v = np.zeros(m)
        v[i] = s
        return v

    e0 = e_of_alpha(model, np.zeros(m))
    hess = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            if i == j:
                def second(step):
                    return (e_of_alpha(model, basis(i, step)) - 2 * e0
                            + e_of_alpha(model, basis(i, -step))) / step ** 2
            else:
                def second(step):
                    pp = e_of_alpha(model, basis(i, step) + basis(j, step))
                    pm = e_of_alpha(model, basis(i, step) - basis(j, step))
                    mp = e_of_alpha(model, basis(j, step) - basis(i, step))
                    mm = e_of_alpha(model, -basis(i, step) - basis(j, step))
                    return (pp - pm - mp + mm) / (4 * step ** 2)
            hess[i, j] = hess[j, i] = _richardson(second(h), second(h / 2))
    return hess


# ---------------------------------------------------------------------------
# Green-Kubo representation
# ---------------------------------------------------------------------------

@dataclass
class GreenKuboResult:
    matrix: np.ndarray            # Abel-regularized, extrapolated to eps -> 0
    per_epsilon: dict             # eps -> matrix
    epsilon_list: tuple
    lag_cap: int
    beta_bar: float


def green_kubo(model: MrisModel, epsilon_list=(0.05, 0.025, 0.0125),
               lag_cap: int = 2000) -> GreenKuboResult:
    """Kinetic coefficients from flux autocorrelations:

        GK_{wv}(eps) = [c_{wv}(0) + sum_{n>=1} e^{-n eps} (c_{wv}(n) + c_{vw}(n))]
                       / (2 beta_bar^2),

    extrapolated to eps -> 0 by a polynomial fit over epsilon_list.  The lag
    sum is truncated at lag_cap (the correlations decay at the spectral gap,
    so the default is far past extinction for any gapped model)."""
    betas = np.array([model.probes[l].beta for l in model.labels])
    beta_bar = float(betas.mean())
    m = model.chain.n
    labels = model.labels

    corr = np.empty((m, m, lag_cap + 1))
    for a in range(m):
        for b in range(m):
            corr[a, b] = trajectories.flux_autocorrelation(
                model, labels[a], labels[b], max_lag=lag_cap).values

    eps_arr = np.asarray(sorted(epsilon_list, reverse=True), dtype=float)
    n_arr = np.arange(1, lag_cap + 1)
    per_eps = {}
    stack = []
    for eps in eps_arr:
        damp = np.exp(-eps * n_arr)
        mat = np.empty((m, m))
        for a in range(m):
            for b in range(m):
                tail = float(np.dot(damp, corr[a, b, 1:] + corr[b, a, 1:]))
                mat[a, b] = (corr[a, b, 0] + tail) / (2 * beta_bar ** 2)
        per_eps[float(eps)] = mat
        stack.append(mat)

    stack = np.array(stack)
    deg = len(eps_arr) - 1
    extrap = np.empty((m, m))
    for a in range(m):
        for b in range(m):
            coeffs = np.polyfit(eps_arr, stack[:, a, b], deg)
            extrap[a, b] = np.polyval(coeffs, 0.0)
    return GreenKuboResult(matrix=extrap, per_epsilon=per_eps,
                           epsilon_list=tuple(float(e) for e in eps_arr),
                           lag_cap=lag_cap, beta_bar=beta_bar)
