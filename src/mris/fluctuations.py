"""Large-deviation and linear-response machinery: the cumulant generating
function of the entropy-exchange process, its symmetries, the central-limit
covariance, Legendre transforms, kinetic coefficients, and the Green-Kubo
representation.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import extended, models, quantum
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


def _check_tilt(mats: np.ndarray, alpha):
    """A tilt large enough to overflow exp(-alpha_v delta) leaves no
    spectrum to read: name alpha instead."""
    if not np.isfinite(mats).all():
        raise FluctuationError(
            f"tilted generator is not finite at alpha={alpha}: "
            "exp(-alpha . delta) overflows")


def e_of_alpha(model: MrisModel, alpha) -> float:
    """Per-step cumulant generating function of the entropy-exchange vector,
    lim (1/n) log E[exp(-alpha . S_n)], from the deformed generator's spectral
    radius.  Values are cached per model (alpha quantized to 12 digits)."""
    alpha = np.asarray(alpha, dtype=float)
    key = tuple(np.round(alpha, 12))
    cache = model.caches.setdefault("cumulant_values", {})
    if key in cache:
        return cache[key]
    with np.errstate(over="ignore", invalid="ignore"):
        g = extended.deformed_generator(model, alpha)
    _check_tilt(g.matrix, alpha)
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
    alpha: np.ndarray       # named when a product overflows

    def derivatives(self):
        """e = log lam with its exact gradient and Hessian in alpha:
        lam_v = l^H M_v r and lam_uv = delta_uv l^H M_vv r
        + l^H M_u q M_v r + l^H M_v q M_u r (Kato's second-order formula).
        A tilt whose generator is finite can still overflow these products:
        then the Hessian (which a non-finite gradient spoils too) is not
        finite, and alpha is named."""
        with np.errstate(over="ignore", invalid="ignore"):
            grad = (self.l_dm @ self.r).real / self.lam
            cross = (self.l_dm @ self.q @ self.dm_r).real
            hess = (np.diag(self.l_d2m_r.real) + cross + cross.T) / self.lam
            hess = hess - np.outer(grad, grad)
        if not np.isfinite(hess).all():
            raise FluctuationError(
                f"Hessian of e is not finite at alpha={self.alpha}: "
                "a kernel product overflows")
        return math.log(self.lam), grad, hess


def _perron(model: MrisModel, alpha) -> _Perron:
    """One eigensolve of M(alpha) and one inverse: with r of unit norm,
    B = lam - M + r r^H is invertible, l^H = r^H B^{-1} is the left vector
    already normalized to <l, r> = 1, and q = (1 - r l^H) B^{-1} (1 - r l^H)."""
    alpha = extended._tilt_vector(model.chain, alpha)
    superops, _, deltas, _ = _outcome_tables(model)
    m, n = model.chain.n, model.chain.n * superops.shape[-1]
    # the k-th alpha_v-derivative of exp(-alpha_v delta) is (-delta)^k times
    # it; padded outcomes have zero superoperators and drop out
    # M and, as cols[k - 1, v], d^k M / d alpha_v^k: the generators of the
    # family S(alpha) and of the 2m families whose one nonzero superoperator
    # is the k-th derivative of S_v
    with np.errstate(over="ignore", invalid="ignore"):
        tilt = (-deltas) ** np.arange(3)[:, None, None] * np.exp(-alpha[:, None] * deltas)
        blocks = np.einsum("kvx,vxij->kvij", tilt, superops)
        families = np.zeros((1 + 2 * m,) + blocks.shape[1:], dtype=complex)
        families[0] = blocks[0]
        derivs = families[1:].reshape(2, m, *blocks.shape[1:])    # a view
        derivs[:, range(m), range(m)] = blocks[1:]
        mats = extended._generator_stack(model.chain.P[None], families)
    _check_tilt(mats, alpha)
    gen, cols = mats[0], mats[1:].reshape(2, m, n, n)

    w, vr = np.linalg.eig(gen)
    i = _perron_index(w, alpha)
    lam = w[i].real
    r = vr[:, i]
    eye = np.eye(n)
    b_inv = np.linalg.inv(lam * eye - gen + np.outer(r, r.conj()))
    l = (r.conj() @ b_inv).conj()
    proj = eye - np.outer(r, l.conj())
    with np.errstate(over="ignore", invalid="ignore"):    # see derivatives
        return _Perron(lam=lam, matrix=gen, r=r, l=l, q=proj @ b_inv @ proj,
                       dm_r=(cols[0] @ r).T, l_dm=l.conj() @ cols[0],
                       l_d2m_r=l.conj() @ cols[1] @ r, alpha=alpha)


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


# The first draws of np.random.default_rng(20240817).uniform(-1.0, 2.0) and
# of np.random.default_rng(20240818).uniform(-0.5, 1.0), written out: the
# symmetry reports of models with up to 6 labels take their alpha points
# from here and do not import numpy.random.
_GC_DRAWS = (
    0.6283127712392891, -0.24104074477684878, -0.1572040347031135,
    -0.1749939128119663, 1.4103278457998405, 1.5782519929359369,
    1.9996715205791524, 1.2686520088859412, -0.7293999803735287,
    -0.5973066891106091, 1.432491104673387, 0.8020169552027665,
    0.5191013981475994, -0.848582021683289, -0.20773341389041322,
    1.2085693259703745, -0.9456091498113223, 0.8559479310826756,
    0.5333507297756208, -0.6863922933173868, -0.9175591812933314,
    0.4260725581412981, 0.6657977541704572, 1.4683541341972814,
    -0.04911578060181576, -0.67991141798006, 0.2684582797889479,
    1.5229519134753327, 1.0966273569431082, -0.1978025249083658,
    1.7360899875477682, 1.7972425262875382, 0.2960688937779725,
    0.06743285960363976, 0.22744163041649657, 1.1945495690738333,
    1.7461867129899078, 1.9612751441624865, 1.3130088840127394,
    0.3111119920959098, 1.445913474446329, 0.602478765152068,
    1.8468335732345502, -0.6577394203202878, 0.39604848617343635,
    -0.26468440713806274, 1.4757008620282228, 1.9781403158844437,
    1.951264990505968, -0.4710901847949609, -0.35325388139977654,
    0.365355657434725, 1.6964755120435626, 0.018376026940059464,
    1.660518180159316, 1.7035769769132232, -0.5925812150266064,
    -0.24646023740147394, 1.3108558832732742, -0.36432749571545753,
)
_TRANSLATION_DRAWS = (
    0.29904737331370446, 0.539249476043167, 0.973608865698494,
    0.05677148954088396, 0.2098605654718958, 0.8073398804294047,
    0.3377096133887044, 0.7266275444694066, -0.33892012615277745,
    0.20464216187301898, 0.6167063812965465, 0.24955027664736318,
)


def _seeded_draws(stored, seed: int, low: float, high: float, count: int) -> np.ndarray:
    """The first count draws of np.random.default_rng(seed).uniform(low,
    high): the stored ones, or the generator's when more are needed."""
    if count <= len(stored):
        return np.array(stored[:count])
    return np.random.default_rng(seed).uniform(low, high, size=count)


def _default_alpha_grid(m: int) -> list:
    grid = [lvl * np.ones(m) for lvl in (0.0, 0.25, 0.5, 0.75, 1.0)]
    grid.extend(_seeded_draws(_GC_DRAWS, 20240817, -1.0, 2.0, 10 * m).reshape(10, m))
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
        alphas = [np.zeros(m), 0.5 * np.ones(m), *_seeded_draws(
            _TRANSLATION_DRAWS, 20240818, -0.5, 1.0, 2 * m).reshape(2, m)]
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
    if s_grid.ndim != 2 or s_grid.shape[1] != model.chain.n:
        raise FluctuationError(
            f"s must have one entry per label, got rows of shape {s_grid.shape[1:]}")
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
    row_sums: np.ndarray = None
    col_sums: np.ndarray = None

    def __post_init__(self):
        if self.row_sums is None:
            self.row_sums = self.matrix.sum(axis=1)
        if self.col_sums is None:
            self.col_sums = self.matrix.sum(axis=0)


def _zeta_derivatives(model: MrisModel, label):
    """d/dzeta at zeta = 0 of the channel superoperator and of the flux
    observable of one probe, its inverse temperature being beta - zeta.

    Both are linear in the probe state, whose derivative is
    D = (H_E - <H_E>) rho_E.  So dS is the superoperator of
    X -> tr_E U (X (x) D) U*: the channel's Kraus atoms
    K_ij = sqrt(p_i) <phi_j| U |phi_i>, reweighted by
    E_i - <H_E> = (varsigma_i - <varsigma>) / beta (the entropy observable is
    beta (H_E - F) for a thermal probe), and dF is the flux formula at D.
    """
    u, rho, h = model.u[label], model.rho_env[label], model.probes[label].h_env
    d = model.dim_sys
    atoms, varsigma = quantum.interaction_kraus_atoms(u, rho, d, floor=model.tol.prob_floor)
    kept = np.isfinite(varsigma)
    mean = float(np.exp(-varsigma[kept]) @ varsigma[kept])
    weights = (varsigma - mean) / model.probes[label].beta
    d_superop = sum(weights[i] * np.kron(k.conj(), k) for i, _j, k in atoms)
    d_rho = (h - np.trace(h @ rho).real * np.eye(len(h))) @ rho
    return d_superop, models._flux_matrix(u, h, (d_rho + d_rho.conj().T) / 2, d)


def kinetic_coefficients(model: MrisModel) -> KineticMatrix:
    """Linear response of the steady fluxes to probe-temperature deformations
    around an equilibrium model.

    Route (a) is exact and rebuilds nothing: with A the bordered matrix of
    the steady-state solve (see extended._bordered_solve) and dM_v the
    generator of the family whose one nonzero superoperator is dS_v/dzeta_v,
    dR_v = A^{-1} dM_v R_+ and
    dJ_w/dzeta_v = <F_w, dR_v> + delta_wv <dF_v/dzeta_v, R_+>.
    Route (b) is the exact Hess e(0) / (2 beta_bar^2).  The two are returned
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
    if beta_bar <= 0:
        raise FluctuationError(
            f"kinetic coefficients need a positive inverse temperature, got {beta_bar}")

    m, d = model.chain.n, model.dim_sys
    families = np.zeros((m, m, d * d, d * d), dtype=complex)
    d_flux = np.zeros((m, d, d), dtype=complex)
    for v, label in enumerate(model.labels):
        families[v, v], d_flux[v] = _zeta_derivatives(model, label)
    d_gens = extended._generator_stack(model.chain.P[None], families)
    r, a_inv, _, _ = extended._bordered_solve(model.generator.matrix[None], m, d)
    d_r = extended.big_unvec((a_inv[0] @ (d_gens @ r[0]).T).T, m, d)  # [v]: dR_v
    # F_w lives in block w alone, so <F_w, dR_v> = tr(F_w^* dR_v(w))
    flux = np.stack([model.flux[l] for l in model.labels])
    mat = np.einsum("wij,vwij->wv", flux.conj(), d_r).real
    mat[range(m), range(m)] += np.einsum("vij,vij->v", d_flux.conj(),
                                         extended.big_unvec(r[0], m, d)).real
    route_b = _hessian_e(model) / (2 * beta_bar ** 2)
    disc = float(np.abs(mat - route_b).max())
    return KineticMatrix(matrix=mat, route_b=route_b, discrepancy=disc,
                         beta_bar=beta_bar)


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
