"""Large-deviation and linear-response machinery: the cumulant generating
function of the entropy-exchange process, its symmetries, the central-limit
covariance, Legendre transforms, kinetic coefficients, and the Green-Kubo
representation.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import extended, models
from .models import MrisModel, _outcome_tables


class FluctuationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# the cumulant generating function e(alpha) = log spr(deformed generator)
# ---------------------------------------------------------------------------

def _perron_index(w: np.ndarray, alpha) -> int:
    """Index of the Perron root among the eigenvalues w of a deformed
    generator: of those whose modulus is within a relative 1e-12 of the
    spectral radius, the one with the largest real part (on a periodic chain
    -lambda and the other roots of unity times lambda share the radius up to
    round-off)."""
    mod = np.abs(w)
    top = np.flatnonzero(mod >= (1.0 - 1e-12) * mod.max())
    i = top[np.argmax(w[top].real)]
    lam = w[i]
    if lam.real <= 0.0 or abs(lam.imag) > 1e-10 * max(1.0, abs(lam.real)):
        raise FluctuationError(
            f"dominant deformed eigenvalue is not real positive at "
            f"alpha={alpha}: {lam}")
    return i


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
    val = math.log(w[_perron_index(w, alpha)].real)
    cache[key] = val
    return val


# ---------------------------------------------------------------------------
# exact derivatives of e: simple-eigenvalue perturbation at the Perron root
# ---------------------------------------------------------------------------

@dataclass
class _Perron:
    """Perron data of the deformed generator M(alpha).

    ``lam`` is the Perron root, ``r`` and ``l`` its right and left vectors
    with <l, r> = 1, and ``q`` the reduced resolvent, the group inverse of
    lam - M: q = (lam - M + r l^H)^{-1} - r l^H.  M(alpha) has block column
    v equal to P[v, .] (x) sum_xi exp(-alpha_v delta_xi) S_{v, xi}, so
    dM/dalpha_v keeps only that column with weights -delta_xi exp(...), the
    second derivative has delta_xi^2, and mixed second derivatives vanish.
    """
    lam: float
    matrix: np.ndarray
    r: np.ndarray
    l: np.ndarray
    q: np.ndarray
    dm_r: np.ndarray        # (N, m): column v is (dM/dalpha_v) r
    l_dm: np.ndarray        # (m, N): row v is l^H dM/dalpha_v
    l_d2m_r: np.ndarray     # (m,): l^H (d^2 M / dalpha_v^2) r

    def derivatives(self):
        """e = log lam with its exact gradient and Hessian in alpha:
        lam_v = l^H M_v r and lam_uv = delta_uv l^H M_vv r
        + l^H M_u q M_v r + l^H M_v q M_u r (Kato's second-order formula)."""
        grad = (self.l_dm @ self.r).real / self.lam
        cross = (self.l_dm @ self.q @ self.dm_r).real
        hess = (np.diag(self.l_d2m_r.real) + cross + cross.T) / self.lam
        return math.log(self.lam), grad, hess - np.outer(grad, grad)


def _perron(model: MrisModel, alpha) -> _Perron:
    """One eigensolve of M(alpha) and one inverse: with r of unit norm,
    B = lam - M + r r^H is invertible, l^H = r^H B^{-1} is the left vector
    already normalized to <l, r> = 1, and q = (1 - r l^H) B^{-1} (1 - r l^H)."""
    alpha = np.asarray(alpha, dtype=float)
    superops, _, deltas, _ = _outcome_tables(model)
    m, n = model.chain.n, model.chain.n * superops.shape[-1]
    # the k-th alpha_v-derivative of exp(-alpha_v delta) is (-delta)^k times
    # it; padded outcomes have zero superoperators and drop out
    tilt = (-deltas) ** np.arange(3)[:, None, None] * np.exp(-alpha[:, None] * deltas)
    blocks = np.einsum("kvx,vxij->kvij", tilt, superops)
    # M and, as cols[k - 1, v], d^k M / d alpha_v^k: the generators of the
    # family S(alpha) and of the 2m families whose one nonzero superoperator
    # is the k-th derivative of S_v
    families = np.zeros((1 + 2 * m,) + blocks.shape[1:], dtype=complex)
    families[0] = blocks[0]
    derivs = families[1:].reshape(2, m, *blocks.shape[1:])    # a view
    derivs[:, range(m), range(m)] = blocks[1:]
    mats = extended._generator_stack(model.chain.P[None], families)
    gen, cols = mats[0], mats[1:].reshape(2, m, n, n)

    w, vr = np.linalg.eig(gen)
    i = _perron_index(w, alpha)
    lam = w[i].real
    r = vr[:, i]
    eye = np.eye(n)
    b_inv = np.linalg.inv(lam * eye - gen + np.outer(r, r.conj()))
    l = (r.conj() @ b_inv).conj()
    proj = eye - np.outer(r, l.conj())
    return _Perron(lam=lam, matrix=gen, r=r, l=l, q=proj @ b_inv @ proj,
                   dm_r=(cols[0] @ r).T, l_dm=l.conj() @ cols[0],
                   l_d2m_r=l.conj() @ cols[1] @ r)


def _grad_e(model, alpha) -> np.ndarray:
    """Exact gradient of e at alpha."""
    return _perron(model, alpha).derivatives()[1]


def _hessian_e(model: MrisModel) -> np.ndarray:
    """Exact Hessian of e at 0."""
    return _perron(model, np.zeros(model.chain.n)).derivatives()[2]


# ---------------------------------------------------------------------------
# symmetry reports
# ---------------------------------------------------------------------------

@dataclass
class SymmetryReport:
    entries: list                  # (alpha, value, mirrored value, residual)
    max_residual: float
    holds: bool
    threshold: float


def _symmetry_report(cases, threshold: float) -> SymmetryReport:
    """The report over (head, e, transformed e) cases: each entry is
    (*head, transformed e, residual |e - transformed e|)."""
    entries = [(*head, vb, abs(va - vb)) for head, va, vb in cases]
    worst = max([0.0] + [entry[-1] for entry in entries])
    return SymmetryReport(entries=entries, max_residual=worst,
                          holds=worst <= threshold, threshold=threshold)


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
    if alpha_grid is None:
        alpha_grid = _default_alpha_grid(model.chain.n)

    def cases():
        for a in alpha_grid:
            a = np.asarray(a, dtype=float)
            va = e_of_alpha(model, a)
            yield (a, va), va, e_of_alpha(model, 1.0 - a)

    return _symmetry_report(cases(), threshold)


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

    def cases():
        for a in alphas:
            a = np.asarray(a, dtype=float)
            va = e_of_alpha(model, a)
            for gam in gammas:
                yield (a, gam), va, e_of_alpha(model, a + gam * beta_inv)

    return _symmetry_report(cases(), threshold)


# ---------------------------------------------------------------------------
# central-limit covariance: Hessian of e at 0
# ---------------------------------------------------------------------------

def clt_covariance(model: MrisModel) -> np.ndarray:
    """Asymptotic covariance of S_n / sqrt(n): C = Hess e(0), exactly."""
    return _hessian_e(model)


# ---------------------------------------------------------------------------
# Legendre transforms (level-1 rate functions)
# ---------------------------------------------------------------------------

GRAD_TOL = 1e-8       # final gradient norm of a converged ascent; also the
                      # slope below which a flat direction or a box face is idle


@dataclass
class RateFunctionResult:
    s: np.ndarray                      # (n_points, m) or (n_points,)
    values: np.ndarray                 # inf where unbounded, nan where not converged
    maximizers: np.ndarray             # optimal alpha per point
    unbounded: np.ndarray              # True where the sup escaped the box
    converged: np.ndarray              # True where the final gradient norm <= GRAD_TOL
    grad_norm: np.ndarray              # final gradient norm of the objective
    box: float = 50.0


def _ascend(model, s, basis, x0, box: float):
    """Damped Newton ascent of phi(x) = x . s - e(-basis x) over the box
    [-box, box]^k, with the exact gradient and Hessian of e.

    The Hessian of e is near-singular along conserved combinations of the
    currents, so the Newton step is a least-squares solve in its
    eigenbasis: curvatures within 1e-10 of zero (relative to max(1, the
    largest)) count as flat.  Along flat directions phi is linear: a slope
    there above GRAD_TOL is followed straight to the box, one below it is
    left alone.  Steps are halved until phi increases (or, at round-off
    level, until the gradient norm falls), iterates are clamped to the box,
    and the ascent stops once the gradient off the flat directions is below
    GRAD_TOL / 100.  Returns the maximizer, the value, the final gradient
    and whether the sup escaped the box.
    """
    def evaluate(x):
        e, g, h = _perron(model, -basis @ x).derivatives()
        return float(x @ s) - e, s + basis.T @ g, basis.T @ h @ basis

    x = np.clip(np.asarray(x0, dtype=float), -box, box)
    f, g, h = evaluate(x)
    for _ in range(100):                # Newton needs a handful
        curv, vecs = np.linalg.eigh(h)
        coef = vecs.T @ g
        flat = np.abs(curv) <= 1e-10 * max(1.0, np.abs(curv).max())
        step = vecs[:, ~flat] @ (coef[~flat] / curv[~flat])
        slope = vecs[:, flat] @ coef[flat]
        if np.abs(slope).max(initial=0.0) > GRAD_TOL:
            step = step + slope * (2 * box / np.abs(slope).max())
        elif np.linalg.norm(coef[~flat]) <= GRAD_TOL / 100:
            break
        t = 1.0
        while t > 1e-12:
            cand = np.clip(x + t * step, -box, box)
            fc, gc, hc = evaluate(cand)
            if fc > f or (fc >= f - 1e-13 * max(1.0, abs(f))
                          and np.linalg.norm(gc) < np.linalg.norm(g)):
                break
            t /= 2
        else:
            break
        if np.array_equal(cand, x):
            break
        x, f, g, h = cand, fc, gc, hc
    clamped_out = np.any((np.abs(x) >= box) & (g * np.sign(x) > GRAD_TOL))
    return x, f, g, bool(clamped_out)


def _legendre(model: MrisModel, s_grid, basis) -> RateFunctionResult:
    """sup_x [x . s - e(-basis x)] at each row s of s_grid, warm-starting
    each ascent at the previous converged maximizer."""
    n_pts, box = s_grid.shape[0], 50.0
    res = RateFunctionResult(
        s=s_grid, values=np.empty(n_pts), maximizers=np.empty((n_pts, basis.shape[1])),
        unbounded=np.zeros(n_pts, dtype=bool), converged=np.zeros(n_pts, dtype=bool),
        grad_norm=np.empty(n_pts), box=box)
    warm = np.zeros(basis.shape[1])
    for p, s in enumerate(s_grid):
        x, f, g, clamped = _ascend(model, s, basis, warm, box)
        norm = np.linalg.norm(g)
        converged = not clamped and norm <= GRAD_TOL
        res.values[p] = math.inf if clamped else f if converged else math.nan
        res.maximizers[p], res.unbounded[p] = x, clamped
        res.converged[p], res.grad_norm[p] = converged, norm
        if converged:
            warm = x
    return res


def rate_function(model: MrisModel, s_grid) -> RateFunctionResult:
    """Legendre transform I(s) = sup_alpha [alpha . s - e(-alpha)] on a grid
    of entropy-exchange rate vectors, with warm starts along the grid."""
    s_grid = np.atleast_2d(np.asarray(s_grid, dtype=float))
    return _legendre(model, s_grid, np.eye(model.chain.n))


def entropy_rate_function(model: MrisModel, s_grid) -> RateFunctionResult:
    """Scalar version for the total entropy exchange: the transform of
    ebar(a) = e(a 1), the vector transform restricted to the direction 1."""
    s_grid = np.asarray(s_grid, dtype=float).reshape(-1)
    res = _legendre(model, s_grid[:, None], np.ones((model.chain.n, 1)))
    res.s, res.maximizers = s_grid, res.maximizers[:, 0]
    return res


# ---------------------------------------------------------------------------
# kinetic coefficients at equilibrium
# ---------------------------------------------------------------------------

@dataclass
class KineticMatrix:
    matrix: np.ndarray            # flux response: d Jbar_w / d zeta_v at 0
    route_b: np.ndarray           # exact Hess e(0) / (2 beta^2)
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
    the exact Hess e(0) / (2 beta_bar^2).  The two are returned together
    with their maximum entrywise discrepancy.
    """
    if not (math.isfinite(zeta_step) and zeta_step > 0):
        raise FluctuationError(f"zeta_step must be finite and > 0, got {zeta_step}")
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
        mat[:, v] = (4.0 * d_h2 - d_h) / 3.0          # Richardson limit

    route_b = _hessian_e(model) / (2 * beta_bar ** 2)
    disc = float(np.abs(mat - route_b).max())
    return KineticMatrix(matrix=mat, route_b=route_b, discrepancy=disc,
                         beta_bar=beta_bar, zeta_step=zeta_step)


# ---------------------------------------------------------------------------
# Green-Kubo representation
# ---------------------------------------------------------------------------

@dataclass
class GreenKuboResult:
    matrix: np.ndarray            # the eps -> 0 limit
    per_epsilon: dict             # eps -> Abel-regularized matrix
    epsilon_list: tuple
    beta_bar: float


def green_kubo(model: MrisModel, epsilon_list=(0.05, 0.025, 0.0125)) -> GreenKuboResult:
    """Kinetic coefficients from flux autocorrelations:

        GK_{wv}(eps) = [c_{wv}(0) + sum_{n>=1} e^{-n eps} (c_{wv}(n) + c_{vw}(n))]
                       / (2 beta_bar^2),

    in closed form.  With G the plain generator, R_+ = r and l the Perron
    pair at 0 and M_v the alpha-derivatives of the deformed generator, the
    lag-n correlation is c_{wv}(n) = l^H M_w (G^{n-1} - r l^H) M_v r, so with
    z = e^{-eps} the lag sum is l^H M_w z (1 - z G)^{-1} (1 - r l^H) M_v r.
    At eps -> 0 the resolvent becomes the group inverse of 1 - G, the
    fundamental matrix of perturbation theory, and the limit is exact."""
    beta_bar = float(np.mean([model.probes[l].beta for l in model.labels]))
    p = _perron(model, np.zeros(model.chain.n))
    mean = (p.l_dm @ p.r).real
    c0 = np.diag(p.l_d2m_r.real) - np.outer(mean, mean)
    eye = np.eye(len(p.r))
    proj = eye - np.outer(p.r, p.l.conj())

    def regularized(z):
        # z (1 - z G)^{-1} (1 - r l^H), which is q at z = 1
        res = p.q if z == 1.0 else z * np.linalg.solve(eye - z * p.matrix, proj)
        lags = (p.l_dm @ res @ p.dm_r).real
        return (c0 + lags + lags.T) / (2 * beta_bar ** 2)

    eps_list = sorted((float(e) for e in epsilon_list), reverse=True)
    return GreenKuboResult(
        matrix=regularized(1.0), epsilon_list=tuple(eps_list), beta_bar=beta_bar,
        per_epsilon={eps: regularized(math.exp(-eps)) for eps in eps_list})
