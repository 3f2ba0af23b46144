"""Large-deviation and linear-response machinery: the cumulant generating
function of the entropy-exchange process, its symmetries, the central-limit
covariance, Legendre transforms, kinetic coefficients, and the Green-Kubo
representation.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import extended, models, quantum
from .models import MrisModel


class FluctuationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# the cumulant generating function e(alpha) = log spr(deformed generator)
# ---------------------------------------------------------------------------

def _perron_index(w: np.ndarray, alpha) -> np.ndarray:
    """Index of the Perron root among the eigenvalues w (..., n) of deformed
    generators at the tilts alpha (..., m): of those whose modulus is within
    a relative 1e-12 of the spectral radius, the one with the largest real
    part (on a periodic chain -lambda and the other roots of unity times
    lambda share the radius up to round-off).  The first tilt whose root is
    not real positive is named."""
    mod = np.abs(w)
    top = mod >= (1.0 - 1e-12) * mod.max(axis=-1, keepdims=True)
    i = np.where(top, w.real, -np.inf).argmax(axis=-1)
    roots = w.reshape(-1, w.shape[-1])
    for k, j in enumerate(i.reshape(-1).tolist()):
        lam = roots[k, j]
        if lam.real <= 0.0 or abs(lam.imag) > 1e-10 * max(1.0, abs(lam.real)):
            raise FluctuationError(
                f"dominant deformed eigenvalue is not real positive at "
                f"alpha={np.reshape(alpha, (len(roots), -1))[k]}: {lam}")
    return i


def e_of_alpha(model: MrisModel, alpha):
    """Per-step cumulant generating function of the entropy-exchange vector,
    lim (1/n) log E[exp(-alpha . S_n)], from the deformed generator's spectral
    radius.  A tilt alpha (m,) gives a float; a stack of tilts (K, m) gives a
    list of K floats from one stacked tilt and one batched eigvals, each
    bitwise that of its own call."""
    alpha = extended._tilt_vector(model.chain.n, alpha, stack=True)
    alphas = np.atleast_2d(alpha)
    w = np.linalg.eigvals(extended._tilted_stack(model, alphas, error=FluctuationError))
    lam = w[range(len(w)), _perron_index(w, alphas)].real
    values = [math.log(v) for v in lam.tolist()]
    return values if alpha.ndim == 2 else values[0]


# ---------------------------------------------------------------------------
# exact derivatives of e: simple-eigenvalue perturbation at the Perron root
# ---------------------------------------------------------------------------

@dataclass
class _Perron:
    """Perron data of the real deformed generator M(alpha), or of a stack
    of them (every field then has a leading K axis).

    ``lam`` is the Perron root, ``r`` and ``l`` its right and left vectors
    with <l, r> = 1, and ``q`` the reduced resolvent, the group inverse of
    lam - M: q = (1 - r l^T) B^{-1} (1 - r l^T) for any bordered B (see
    _perron).  The derivatives M_v and M_vv of M in alpha_v come from
    extended._tilted_stack; mixed second derivatives vanish.
    """
    lam: float
    matrix: np.ndarray
    r: np.ndarray
    l: np.ndarray
    q: np.ndarray
    dm_r: np.ndarray        # (N, m): column v is (dM/dalpha_v) r
    l_dm: np.ndarray        # (m, N): row v is l^T dM/dalpha_v
    l_d2m_r: np.ndarray     # (m,): l^T (d^2 M / dalpha_v^2) r
    alpha: np.ndarray       # named when a product overflows

    def derivatives(self):
        """e = log lam with its exact gradient and Hessian in alpha:
        lam_v = l^T M_v r and lam_uv = delta_uv l^T M_vv r
        + l^T M_u q M_v r + l^T M_v q M_u r (Kato's second-order formula).
        A tilt whose generator is finite can still overflow these products:
        then the Hessian (which a non-finite gradient spoils too) is not
        finite, and alpha (the first such one of a stack) is named."""
        lam = np.asarray(self.lam)[..., None]
        m = self.l_d2m_r.shape[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            grad = (self.l_dm @ self.r[..., None])[..., 0] / lam
            cross = self.l_dm @ self.q @ self.dm_r
            diag = np.zeros(cross.shape)
            diag[..., range(m), range(m)] = self.l_d2m_r
            hess = (diag + cross + cross.swapaxes(-1, -2)) / lam[..., None]
            hess = hess - grad[..., :, None] * grad[..., None, :]
        finite = np.isfinite(hess).all(axis=(-2, -1))
        if not finite.all():
            alpha = self.alpha if finite.ndim == 0 else self.alpha[np.argmin(finite)]
            raise FluctuationError(
                f"Hessian of e is not finite at alpha={alpha}: "
                "a kernel product overflows")
        if finite.ndim == 0:
            return math.log(self.lam), grad, hess
        return np.array([math.log(v) for v in self.lam.tolist()]), grad, hess


def _perron(model: MrisModel, alpha) -> _Perron:
    """One real eigensolve of M(alpha) and one inverse, bordered at the
    scale of lam (Golub and Meyer, SIAM J. Alg. Disc. Meth. 1986): with r
    the unit-norm Perron column of eig, B = lam (1 + r r^T) - M is
    invertible, l = lam (r^T B^{-1})^T is the left vector already
    normalized to <l, r> = 1, and q = (1 - r l^T) B^{-1} (1 - r l^T).  The
    border weight lam keeps every eigenvalue of B at the scale of lam, so
    B stays well conditioned however large the tilt makes lam.  A stack of
    tilts alpha (K, m) takes one batched eig, one batched inverse and
    batched products, each item bitwise equal to its own call."""
    alpha = extended._tilt_vector(model.chain.n, alpha, stack=True)
    alphas = np.atleast_2d(alpha)
    mats = extended._tilted_stack(model, alphas, derivatives=True,
                                  error=FluctuationError)
    K, m, n = len(alphas), model.chain.n, mats.shape[-1]
    dd = n // m             # block width, explicit so that K = 0 reshapes
    gen = mats[:, 0]
    d1, d2 = mats[:, 1].reshape(K, n, m, dd), mats[:, 2].reshape(K, n, m, dd)

    w, vr = np.linalg.eig(gen)
    i = _perron_index(w, alphas)
    items = np.arange(K)
    lam = w[items, i].real
    r = vr[items, :, i].real
    eye = np.eye(n)
    border = lam[:, None, None] * (eye + r[:, :, None] * r[:, None, :]) - gen
    try:
        b_inv = np.linalg.inv(border)
    except np.linalg.LinAlgError:
        _singular_border(border, alphas)
    l = lam[:, None] * (r[:, None, :] @ b_inv)[:, 0]
    proj = eye - r[:, :, None] * l[:, None, :]
    r_blocks = r.reshape(K, m, dd)
    with np.errstate(over="ignore", invalid="ignore"):    # see derivatives
        # block column v of D_k is that of the k-th derivative in alpha_v
        l_dm = np.zeros((K, m, m, dd))
        l_dm[:, range(m), range(m)] = np.einsum("ki,kivj->kvj", l, d1)
        kernel = _Perron(
            lam=lam, matrix=gen, r=r, l=l, q=proj @ b_inv @ proj,
            dm_r=np.einsum("kivj,kvj->kiv", d1, r_blocks),
            l_dm=l_dm.reshape(K, m, n), alpha=alpha,
            l_d2m_r=np.einsum("kvj,kvj->kv", np.einsum("ki,kivj->kvj", l, d2),
                              r_blocks))
    if alpha.ndim == 1:
        for name in ("lam", "matrix", "r", "l", "q", "dm_r", "l_dm", "l_d2m_r"):
            setattr(kernel, name, getattr(kernel, name)[0])
    return kernel


def _singular_border(border: np.ndarray, alphas: np.ndarray):
    """Raise for the first bordered matrix of a stack whose inverse failed,
    found item by item (this runs on the error path only)."""
    for b, a in zip(border, alphas):
        try:
            np.linalg.inv(b)
        except np.linalg.LinAlgError:
            break
    raise FluctuationError(
        f"bordered matrix lam (1 + r r^T) - M is singular at alpha={a}: "
        "the Perron root is not resolved")


def _grad_e(model, alpha) -> np.ndarray:
    """Exact gradient of e at alpha."""
    return _perron(model, alpha).derivatives()[1]


# ---------------------------------------------------------------------------
# symmetry reports
# ---------------------------------------------------------------------------

@dataclass
class SymmetryReport:
    entries: list                  # (alpha, value, mirrored value, residual)
    max_residual: float
    holds: bool
    threshold: float


def _nonempty(check: str = "the symmetry check", **grids):
    """Raise for the first empty grid: a check over no point tests nothing."""
    for name, grid in grids.items():
        if len(grid) == 0:
            raise FluctuationError(f"{name} is empty: {check} would test nothing")


def _tilt_grid(m: int, name: str, grid) -> np.ndarray:
    """The tilts of a symmetry check as a (K, m) array; raises
    FluctuationError for an empty grid, naming the first ill-formed row of
    a ragged one, or otherwise naming the shape or a non-finite tilt."""
    grid = list(grid)
    _nonempty(**{name: grid})
    alphas = extended._tilt_vector(m, grid, FluctuationError, stack=True)
    if alphas.ndim != 2:
        raise FluctuationError(f"{name} must be a sequence of tilts, got shape {alphas.shape}")
    return alphas


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
    alphas = _tilt_grid(model.chain.n, "alpha_grid", alpha_grid)
    values = e_of_alpha(model, [b for a in alphas for b in (a, 1.0 - a)])
    return _symmetry_report((((a, va), va, vb) for a, va, vb
                             in zip(alphas, values[::2], values[1::2])), threshold)


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
    alphas = _tilt_grid(m, "alphas", alphas)
    _nonempty(gammas=gammas)
    values = iter(e_of_alpha(model, [b for a in alphas for b in
                                     (a, *(a + gam * beta_inv for gam in gammas))]))
    cases = []
    for a in alphas:
        va = next(values)
        cases += [((a, gam), va, next(values)) for gam in gammas]
    return _symmetry_report(cases, threshold)


# ---------------------------------------------------------------------------
# central-limit covariance: Hessian of e at 0
# ---------------------------------------------------------------------------

def clt_covariance(model: MrisModel) -> np.ndarray:
    """Asymptotic covariance of S_n / sqrt(n): C = Hess e(0), exactly."""
    return _perron(model, np.zeros(model.chain.n)).derivatives()[2]


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


def _ascend(model, s_grid, basis, x, box: float):
    """Damped Newton ascents of phi_p(x) = x . s_p - e(-basis x) over the box
    [-box, box]^k, one for each row s_p of s_grid, starting at the rows of
    x, with the exact gradient and Hessian of e.  The ascents run in
    lockstep: each iteration, and each round of step-halving, is one
    stacked kernel call over the points still moving.

    The Hessian of e is near-singular along conserved combinations of the
    currents, so each Newton step is a least-squares solve in its
    eigenbasis: curvatures within 1e-12 of zero (relative to max(1, the
    largest)) count as flat, above the kernel's curvature noise along a
    conserved combination (2e-15 relative for |alpha| <= 3, 2e-12 at 12).
    Along flat directions phi is linear: a slope there above GRAD_TOL is
    followed straight to the box, one below it is left alone.  Steps are
    halved (down to 1e-12) until phi increases (or, at round-off level,
    until the gradient norm falls), iterates are clamped to the box, and a
    point stops once no step moves it, or once its gradient off the flat
    directions is below GRAD_TOL / 100 and the gain the Newton step
    predicts, sum coef^2 / curv, is below 1e-13 max(1, |phi|).  The gain
    test matters where the sup is approached in an exponential tail
    (s at the edge of the reachable range), where gradient and curvature
    shrink together and the gradient test alone stops at a value short of
    the sup by about the last gradient.  Returns the maximizers, the values
    and the final gradients.
    """
    def evaluate(pts, x):
        e, g, h = _perron(model, -(x @ basis.T)).derivatives()
        return (np.einsum("pk,pk->p", x, s_grid[pts]) - e,
                s_grid[pts] + g @ basis, basis.T @ h @ basis)

    x = np.clip(x, -box, box)
    f, g, h = evaluate(np.arange(len(x)), x)
    moving = np.ones(len(x), dtype=bool)
    for _ in range(100):                # Newton needs a handful
        pts = np.flatnonzero(moving)
        if pts.size == 0:
            break
        curv, vecs = np.linalg.eigh(h[pts])
        coef = np.einsum("pji,pj->pi", vecs, g[pts])
        flat = np.abs(curv) <= 1e-12 * np.maximum(1.0, np.abs(curv).max(axis=1))[:, None]
        sharp = np.where(flat, 0.0, coef)
        step = np.einsum("pij,pj->pi", vecs, sharp / np.where(flat, 1.0, curv))
        slope = np.einsum("pij,pj->pi", vecs, coef - sharp)
        steep = np.abs(slope).max(axis=1)
        follow = steep > GRAD_TOL
        step[follow] += slope[follow] * (2 * box / steep[follow])[:, None]
        gain = (sharp ** 2 / np.where(flat, 1.0, np.abs(curv))).sum(axis=1)
        done = ~follow & (np.linalg.norm(sharp, axis=1) <= GRAD_TOL / 100) & (
            gain <= 1e-13 * np.maximum(1.0, np.abs(f[pts])))
        moving[pts[done]] = False
        pts, step = pts[~done], step[~done]
        t = np.ones(len(pts))
        while pts.size:                 # one round of step-halving
            cand = np.clip(x[pts] + t[:, None] * step, -box, box)
            fc, gc, hc = evaluate(pts, cand)
            fp = f[pts]
            ok = (fc > fp) | ((fc >= fp - 1e-13 * np.maximum(1.0, np.abs(fp)))
                              & (np.linalg.norm(gc, axis=1)
                                 < np.linalg.norm(g[pts], axis=1)))
            stalled = ok & (cand == x[pts]).all(axis=1)
            moving[pts[stalled]] = False
            took = ok & ~stalled
            x[pts[took]], f[pts[took]], g[pts[took]], h[pts[took]] = (
                cand[took], fc[took], gc[took], hc[took])
            t = t[~ok] / 2
            moving[pts[~ok][t <= 1e-12]] = False
            keep = t > 1e-12
            pts, step, t = pts[~ok][keep], step[~ok][keep], t[keep]
    return x, f, g


def _legendre(model: MrisModel, s_grid, basis) -> RateFunctionResult:
    """sup_x [x . s - e(-basis x)] at each row s of s_grid: every point is
    ascended from x = 0 (see _ascend).  A point is unbounded when its sup
    escaped the box and converged when its final gradient norm is at most
    GRAD_TOL.  A row of s_grid that is not finite is named."""
    bad = np.flatnonzero(~np.isfinite(s_grid).all(axis=1))
    if bad.size:
        raise FluctuationError(f"s is not finite at row {bad[0]}: {s_grid[bad[0]]}")
    box = 50.0
    x, f, g = _ascend(model, s_grid, basis, np.zeros((len(s_grid), basis.shape[1])), box)
    unbounded = np.any((np.abs(x) >= box) & (g * np.sign(x) > GRAD_TOL), axis=1)
    converged = ~unbounded & (np.linalg.norm(g, axis=1) <= GRAD_TOL)
    return RateFunctionResult(
        s=s_grid, values=np.where(unbounded, math.inf, np.where(converged, f, math.nan)),
        maximizers=x, unbounded=unbounded, converged=converged,
        grad_norm=np.linalg.norm(g, axis=1), box=box)


def rate_function(model: MrisModel, s_grid) -> RateFunctionResult:
    """Legendre transform I(s) = sup_alpha [alpha . s - e(-alpha)] on a grid
    of entropy-exchange rate vectors, all points ascended in lockstep."""
    s_grid = np.atleast_2d(np.asarray(s_grid, dtype=float))
    if s_grid.ndim != 2 or s_grid.shape[1] != model.chain.n:
        raise FluctuationError(
            f"s must have one entry per label, got rows of shape {s_grid.shape[1:]}")
    _nonempty("the rate function", s_grid=s_grid)
    return _legendre(model, s_grid, np.eye(model.chain.n))


def entropy_rate_function(model: MrisModel, s_grid) -> RateFunctionResult:
    """Scalar version for the total entropy exchange: the transform of
    ebar(a) = e(a 1), the vector transform restricted to the direction 1."""
    s_grid = np.asarray(s_grid, dtype=float).reshape(-1)
    _nonempty("the rate function", s_grid=s_grid)
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

    Route (a) is exact and reads the model's one steady-state solve
    (MrisModel.steady_state holds R_+ and A^{-1}, A its bordered matrix, see
    extended._bordered_solve): with dM_v the generator of the family whose one
    nonzero superoperator is dS_v/dzeta_v, dR_v = A^{-1} dM_v R_+ and
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

    m, P = model.chain.n, model.chain.P
    d_super, d_flux = map(np.stack, zip(*(_zeta_derivatives(model, l) for l in model.labels)))
    r, a_inv = model.steady_state.coords.reshape(m, -1), model.steady_state.inverse
    # dM_v R_+ lives in block column v: its block w is P[v, w] dS_v R_+(v)
    d_mr = P[:, :, None] * (extended._fold(d_super, "superoperator derivatives")
                            @ r[..., None])[:, None, :, 0]
    d_r = (a_inv @ d_mr.reshape(m, -1).T).T.reshape(m, m, -1)    # [v, w]: dR_v(w)
    # F_w lives in block w alone, and <X, Y> of Hermitian blocks is the real
    # dot product of their coordinates: <F_w, dR_v> = f_w . dR_v(w)
    flux = extended._coords(np.stack([model.flux[l] for l in model.labels])).reshape(m, -1)
    mat = np.einsum("wa,vwa->wv", flux, d_r)
    mat[range(m), range(m)] += np.einsum("va,va->v", extended._coords(d_flux).reshape(m, -1), r)
    route_b = _perron(model, np.zeros(m)).derivatives()[2] / (2 * beta_bar ** 2)
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
    lag-n correlation is c_{wv}(n) = l^T M_w (G^{n-1} - r l^T) M_v r, so with
    z = e^{-eps} the lag sum is l^T M_w z (1 - z G)^{-1} (1 - r l^T) M_v r.
    At eps -> 0 the resolvent becomes the group inverse of 1 - G, the
    fundamental matrix of perturbation theory, and the limit is exact."""
    eps_list = sorted((float(e) for e in epsilon_list), reverse=True)
    bad = [e for e in eps_list if not 0.0 <= e < math.inf]
    if bad:
        raise FluctuationError(
            f"epsilon must be finite and >= 0 (the lag series diverges for "
            f"epsilon < 0), got {bad[0]}")
    beta_bar = float(np.mean([model.probes[l].beta for l in model.labels]))
    p = _perron(model, np.zeros(model.chain.n))
    mean = p.l_dm @ p.r
    c0 = np.diag(p.l_d2m_r) - np.outer(mean, mean)
    eye = np.eye(len(p.r))
    proj = eye - np.outer(p.r, p.l)

    def regularized(z):
        # z (1 - z G)^{-1} (1 - r l^T), which is q at z = 1
        res = p.q if z == 1.0 else z * np.linalg.solve(eye - z * p.matrix, proj)
        lags = p.l_dm @ res @ p.dm_r
        return (c0 + lags + lags.T) / (2 * beta_bar ** 2)

    return GreenKuboResult(
        matrix=regularized(1.0), epsilon_list=tuple(eps_list), beta_bar=beta_bar,
        per_epsilon={eps: regularized(math.exp(-eps)) for eps in eps_list})
