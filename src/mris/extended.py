"""Extended states, the one-step generator on them, and its spectral theory.

An extended state is a family R = (R(w))_{w in Omega} of positive blocks with
total trace one; extended observables are Hermitian block families.  The
generator acts blockwise as

    (L R)(w) = sum_v P[v, w] L_v R(v).

It is held as one real (m d^2) x (m d^2) matrix over the stacked coordinates
of the blocks in an orthonormal Hermitian basis E_a (_hermitian_basis).
With U the unitary that takes vec(rho) to the coordinates tr(E_a rho) and
T = 1_m (x) U, it is T M T^H, M the matrix over the stacked
column-vectorizations: block (w, v) is P[v, w] U S_v U^H, from the channel
superoperators S_v folded once (an imaginary part beyond round-off raises
RealBasisError).  The duality <R, X> = sum_w tr(R(w)* X(w)) is the plain
inner product of the real coordinates, so the dual map on observables is the
transpose of the matrix.  States are stepped, steady states and their
sensitivities solved and spectra classified on it, so LAPACK runs on real
matrices.  The tilted generator lives in the same coordinates; its block
(w, v) is

    M(alpha)_wv = sum_xi exp(-alpha_v delta_{v xi}) P[v, w] U S_{v xi} U^H,

read from the real outcome table of the model (MrisModel.outcome_table)
with the chain folded into the weights.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .chains import MarkovChain
from .quantum import vec
from .tolerances import DEFAULT, Tolerances

_IMAG_TOL = 1e-12     # largest imaginary part of a real-basis table, relative


class GeneratorError(ValueError):
    pass


class RealBasisError(GeneratorError):
    """A model table has an imaginary part in the Hermitian basis: its map
    does not preserve Hermiticity."""


class NotIrreducibleError(GeneratorError):
    """Eigenvalue 1 of the generator is not simple."""

    def __init__(self, multiplicity):
        self.multiplicity = multiplicity
        super().__init__(
            f"eigenvalue 1 has multiplicity {multiplicity}; the model is reducible")


# ---------------------------------------------------------------------------
# block families
# ---------------------------------------------------------------------------

@dataclass
class _BlockFamily:
    """d x d blocks, one per chain label: extended states and observables."""
    labels: tuple
    blocks: np.ndarray   # shape (m, d, d)

    def __post_init__(self):
        self.labels = tuple(self.labels)
        if isinstance(self.blocks, dict):
            arr = np.stack([np.asarray(self.blocks[l], dtype=complex) for l in self.labels])
        else:
            arr = np.asarray(self.blocks, dtype=complex)
        if arr.ndim != 3 or arr.shape[0] != len(self.labels) or arr.shape[1] != arr.shape[2]:
            raise GeneratorError(
                f"blocks have shape {arr.shape}, expected ({len(self.labels)}, d, d)")
        self.blocks = arr

    @property
    def dim(self):
        return self.blocks.shape[1]

    def block(self, label):
        if label not in self.labels:
            raise GeneratorError(f"unknown label {label!r}; labels are {self.labels}")
        return self.blocks[self.labels.index(label)]

    def check(self, tol: Tolerances = DEFAULT):
        herm = np.abs(self.blocks - self.blocks.conj().transpose(0, 2, 1)).max()
        if not herm <= tol.herm:        # so that NaN fails too
            # _what, a class attribute of each family, names its blocks
            raise GeneratorError(f"{self._what} not Hermitian ({herm:.3e})")
        return self


@dataclass
class ExtendedState(_BlockFamily):
    _what = "extended state block"

    def total_trace(self) -> float:
        return float(np.trace(self.blocks, axis1=1, axis2=2).sum().real)

    def marginal(self) -> np.ndarray:
        """tr R(w) per block -- the chain-law marginal carried by the state."""
        return np.trace(self.blocks, axis1=1, axis2=2).real

    def check(self, tol: Tolerances = DEFAULT):
        super().check(tol)
        low = np.linalg.eigvalsh((self.blocks + self.blocks.conj().transpose(0, 2, 1)) / 2)[:, 0]
        bad = np.flatnonzero(~(low >= -tol.psd))
        if bad.size:
            raise GeneratorError(
                f"block {self.labels[bad[0]]} has negative eigenvalue {low[bad[0]]:.3e}")
        if not abs(self.total_trace() - 1.0) <= tol.trace:
            raise GeneratorError(f"total trace {self.total_trace()} != 1")
        return self


@dataclass
class ExtendedObservable(_BlockFamily):
    _what = "observable block"


def identity_observable(labels, d: int) -> ExtendedObservable:
    m = len(labels)
    return ExtendedObservable(tuple(labels), np.broadcast_to(np.eye(d, dtype=complex), (m, d, d)).copy())


def big_vec(blocks: np.ndarray) -> np.ndarray:
    """Stack the column-vectorizations of the blocks (..., m, d, d) into one
    long vector (..., m d^2); leading axes index a stack of families."""
    *lead, m, d, _ = blocks.shape
    return blocks.swapaxes(-1, -2).reshape(*lead, m * d * d)


def big_unvec(v: np.ndarray, m: int, d: int) -> np.ndarray:
    """The blocks (..., m, d, d) of stacked vectors (..., m d^2), C-ordered;
    the inverse of big_vec."""
    v = np.asarray(v, dtype=complex)
    return np.ascontiguousarray(v.reshape(*v.shape[:-1], m, d, d).swapaxes(-1, -2))


def _trace_norm(x: np.ndarray, m: int, d: int):
    """sum_w ||X(w)||_1 for families in the real coordinates (..., m d^2):
    one batched eigvalsh of the Hermitian blocks, summed label by label."""
    norms = np.abs(np.linalg.eigvalsh(_blocks(x, m, d))).sum(axis=-1)
    return sum(norms[..., w] for w in range(m))


def _lift(P: np.ndarray, weights, states) -> np.ndarray:
    """The blocks sum_v weights[v] P[v, w] states[v] for every label w,
    accumulated in label order v."""
    return sum((weights[v] * P[v])[:, None, None] * s for v, s in enumerate(states))


def expectation(r, x) -> float:
    """<R, X> = sum_w tr(R(w)^dagger X(w)); real for Hermitian pairs."""
    if r.labels != x.labels:
        raise GeneratorError("label mismatch between state and observable")
    val = complex(np.vdot(big_vec(r.blocks), big_vec(x.blocks)))
    return val.real if abs(val.imag) <= 1e-9 * max(1.0, abs(val)) else val


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------

@dataclass
class ExtendedGenerator:
    labels: tuple
    dim: int
    matrix: np.ndarray = field(repr=False)    # real T M T^H (module docstring)
    chain: MarkovChain = None
    channels: dict = None       # label -> QuantumChannel; None for tilted variants

    @property
    def n_labels(self):
        return len(self.labels)

    def apply(self, r: ExtendedState) -> ExtendedState:
        """L R: one step of evolve, which checks R."""
        return evolve(self, r, 1)


def _generator_stack(P: np.ndarray, superops) -> np.ndarray:
    """Generator matrices for a stack of transition matrices P (K, m, m) and
    one superoperator family S (m, d^2, d^2) or a stack of them
    (K, m, d^2, d^2): block (w, v) of the k-th matrix is P[k, v, w] * S[k]_v,
    and exactly zero where P[k, v, w] is.  Either stack may have K = 1.  The
    matrices take the dtype of S: the folded U S_v U^H give T M T^H."""
    superops = np.asarray(superops)
    if superops.ndim == 4:
        superops = superops[:, None]
    m, dd = P.shape[-1], superops.shape[-1]
    p = P.transpose(0, 2, 1)[..., None, None]
    blocks = np.where(p != 0.0, p * superops, 0.0)
    return blocks.transpose(0, 1, 3, 2, 4).reshape(-1, m * dd, m * dd)


def build_generator(chain: MarkovChain, channels: dict) -> ExtendedGenerator:
    """The one-step generator T M T^H from a chain and per-label channels,
    their superoperators folded into the Hermitian basis (_fold): a channel
    that does not preserve Hermiticity raises RealBasisError."""
    labels = chain.labels
    missing = [l for l in labels if l not in channels]
    if missing:
        raise GeneratorError(f"no channel for labels {missing}")
    dims = {channels[l].dim for l in labels}
    if len(dims) != 1:
        raise GeneratorError(f"channels have mixed dimensions {sorted(dims)}")
    return _chain_generator(
        chain, _fold(np.stack([channels[l].superop for l in labels])), channels)


def _chain_generator(chain: MarkovChain, superops: np.ndarray,
                     channels: dict) -> ExtendedGenerator:
    """The generator of a chain over the channels whose folded
    superoperators U S_v U^H (m, d^2, d^2) are given in chain label order
    (build_generator, or a model's real_superops, which folds nothing anew)."""
    return ExtendedGenerator(labels=tuple(chain.labels), dim=math.isqrt(superops.shape[-1]),
                             matrix=_generator_stack(chain.P[None], superops)[0],
                             chain=chain, channels=dict(channels))


def initial_extended_state(chain: MarkovChain, rho_init: dict) -> ExtendedState:
    """R0(w) = sum_v pi_v P[v, w] rho_v."""
    states = [np.asarray(rho_init[l], dtype=complex) for l in chain.labels]
    return ExtendedState(tuple(chain.labels), _lift(chain.P, chain.pi, states))


def evolve(g: ExtendedGenerator, r: ExtendedState, n: int) -> ExtendedState:
    """L^n R, stepped in the real coordinates: R is read into them once and
    written back once.  R must have the generator's labels, block dimension
    and Hermitian blocks, and n must be an integer >= 0; GeneratorError
    otherwise."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise GeneratorError(f"n must be an integer >= 0, got {n!r}")
    if r.labels != g.labels or r.dim != g.dim:
        raise GeneratorError(
            f"state has labels {r.labels} and {r.dim} x {r.dim} blocks, the "
            f"generator {g.labels} and {g.dim} x {g.dim}")
    # the base check alone: Hermitian blocks, whose real coordinates lose nothing
    _BlockFamily.check(r)
    x = _coords(r.blocks)
    for _ in range(n):
        x = g.matrix @ x
    return ExtendedState(g.labels, _blocks(x, g.n_labels, g.dim))


# ---------------------------------------------------------------------------
# spectral classification and steady states
# ---------------------------------------------------------------------------

@dataclass
class GeneratorClassification:
    """The spectral class of a generator, read off its eigenvalues alone; its
    steady state is a separate solve (find_ess, MrisModel.steady_state)."""
    kind: str                     # 'reducible' | 'irreducible_periodic' | 'primitive'
    period: int
    gap: float
    eigenvalue_one_multiplicity: int
    peripheral: np.ndarray
    peripheral_match_roots: bool


def _eigenvalue_one_cluster(w: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Mask of the eigenvalues counted as 1, for one spectrum or a stack."""
    return np.abs(w - 1.0) <= tol.peripheral


def _bordered_solve(mats: np.ndarray, m: int, d: int):
    """Steady states of a stack of real generators T M T^H (K, n, n), one
    bordered solve each (Paige, Styan and Wachter, J. Stat. Comput. Simul.
    1975).

    With u the maximally mixed extended state and tr the total-trace
    functional (the indicator of each block's d diagonal coordinates),
    A = 1 - M + u tr^T is invertible exactly when eigenvalue 1 of M is
    simple, and A R = u means (1 - M) R = 0 with tr R = 1.  One batched
    inverse gives R = A^{-1} u, refined by one step with the same inverse.
    A^{-1} also solves A dR = (dM) R, the steady state's sensitivity to a
    trace-preserving perturbation dM (Golub and Meyer, SIAM J. Alg. Disc.
    Meth. 1986).  Returns R (K, n), A^{-1} (K, n, n), ||A^{-1}||_1 (K,) and
    kappa_1 = ||A||_1 ||A^{-1}||_1 (K,); raises LinAlgError when some A is
    exactly singular.
    """
    n = mats.shape[-1]
    trace = np.tile((np.arange(d * d) < d).astype(float), m)
    u = trace / (m * d)
    a = np.eye(n) - mats + np.outer(u, trace)
    a_inv = np.linalg.inv(a)
    x = a_inv @ u
    x = x + (a_inv @ (u - (a @ x[..., None])[..., 0])[..., None])[..., 0]
    # column sums by einsum: numpy's sum over a short middle axis is slower
    inv_norm = np.einsum("...ij->...j", np.abs(a_inv)).max(axis=-1)
    return x, a_inv, inv_norm, np.einsum("...ij->...j", np.abs(a)).max(axis=-1) * inv_norm


def _ess_stack(mats: np.ndarray, labels, d: int, tol: Tolerances = DEFAULT):
    """Repaired steady states (K, n) of a stack of real generators (K, n, n),
    the bordered solve of each clipped and renormalized (see find_ess), with
    the A^{-1} (K, n, n) and kappa_1 (K,) of those solves."""
    K, m = mats.shape[0], len(labels)
    try:
        x, a_inv, inv_norm, kappa = _bordered_solve(mats, m, d)
    except np.linalg.LinAlgError:
        x, kappa, inv_norm = None, np.full(K, np.inf), np.full(K, np.inf)
    # an eigenvalue lambda != 1 of M makes ||A^{-1}||_1 >= 1 / |1 - lambda|,
    # so every eigenvalue-1 cluster of width tol.peripheral is refused
    refused = ~(inv_norm * tol.peripheral < 1.0)
    if refused.any():
        _refuse(mats[refused], inv_norm[refused], kappa[refused], tol)
    blocks = _blocks(x, m, d)
    low = np.linalg.eigvalsh(blocks)[..., 0]
    if (low < -tol.psd).any():
        k, j = np.argwhere(low < -tol.psd)[0]
        raise GeneratorError(
            f"fixed-point block {labels[j]} has eigenvalue {low[k, j]:.3e} "
            "beyond the round-off repair window")
    coords = x.reshape(K, m, d * d)
    neg = low < 0.0
    if neg.any():
        ew, ev = np.linalg.eigh(blocks[neg])
        clipped = (ev * np.clip(ew, 0.0, None)[..., None, :]) @ ev.conj().swapaxes(-1, -2)
        coords[neg] = _coords(clipped[:, None])
    return x / coords[..., :d].sum(axis=(1, 2))[:, None], a_inv, kappa


def _refuse(mats: np.ndarray, inv_norm: np.ndarray, kappa: np.ndarray,
            tol: Tolerances):
    """Raise for generators whose bordered solve was refused: eigenvalue 1
    with its multiplicity read off the spectrum when that is not 1, the
    norms of the solve otherwise."""
    counts = _eigenvalue_one_cluster(np.linalg.eigvals(mats), tol).sum(axis=1)
    multiple = np.flatnonzero(counts != 1)
    if multiple.size:
        raise NotIrreducibleError(int(counts[multiple[0]]))
    raise GeneratorError(
        f"steady-state solve refused: ||A^-1||_1 = {inv_norm[0]:.3e} reaches "
        f"1 / tol.peripheral = {1.0 / tol.peripheral:.3e} (bordered condition "
        f"number {kappa[0]:.3e})")


def find_ess(g: ExtendedGenerator, tol: Tolerances = DEFAULT):
    """Extended steady state from one bordered solve (see _bordered_solve)
    of the generator in the real coordinates.

    Returns (state, residual) with residual = sum_w ||(L R)(w) - R(w)||_1 of
    the repaired state.  The solve is refused when ||A^{-1}||_1 reaches
    1 / tol.peripheral.  Since ||A^{-1}||_1 >= 1 / |1 - lambda| for every
    other eigenvalue lambda of the generator, that covers each generator
    whose eigenvalue-1 cluster (width tol.peripheral) holds more than one
    eigenvalue.  Only then is the spectrum read, to name the failure:
    NotIrreducibleError when that cluster is not one eigenvalue,
    GeneratorError naming kappa_1 otherwise.  The blocks are Hermitian by
    construction; repair clips round-off negatives in [-psd_tol, 0) and
    renormalizes, and eigenvalues below -psd_tol abort: they signal a wrong
    solution, not noise.
    """
    return _steady_state(g, tol)[:2]


def _steady_state(g: ExtendedGenerator, tol: Tolerances):
    """find_ess's (state, residual), then what else its one solve gives:
    the state's real coordinates x, A^{-1} and kappa_1 (MrisModel.steady_state
    keeps them all)."""
    x, a_inv, kappa = (a[0] for a in _ess_stack(g.matrix[None], g.labels, g.dim, tol))
    return (ExtendedState(g.labels, _blocks(x, g.n_labels, g.dim)),
            float(_trace_norm(g.matrix @ x - x, g.n_labels, g.dim)), x, a_inv, float(kappa))


@dataclass
class EssDecomposition:
    labels: tuple
    pi_plus: np.ndarray
    rho_plus: dict

    def reconstruction_residual(self, g: ExtendedGenerator, r_plus: ExtendedState) -> float:
        """max_w | sum_v P[v,w] pi_v rho_v - R_+(w) | (elementwise)."""
        lifted = _lift(g.chain.P, self.pi_plus, [self.rho_plus[l] for l in g.labels])
        return float(np.abs(lifted - r_plus.blocks).max())


def ess_decompose(g: ExtendedGenerator, r_plus: ExtendedState, tol: Tolerances = DEFAULT) -> EssDecomposition:
    """Split an ESS into the invariant chain law pi_+ and the state family
    rho_+w = L_w R_+(w) / pi_+w (maximally mixed placeholder off the support)."""
    if g.channels is None:
        raise GeneratorError("decomposition needs the channel family")
    pi_plus, d = r_plus.marginal(), g.dim
    rho_plus = {l: g.channels[l].apply(r_plus.blocks[k]) / pi_plus[k] if pi_plus[k] > tol.pi_floor
                else np.eye(d, dtype=complex) / d for k, l in enumerate(g.labels)}
    return EssDecomposition(g.labels, pi_plus, rho_plus)


def _spectrum_kinds(w: np.ndarray, tol: Tolerances = DEFAULT):
    """Kind, gap and eigenvalue-1 multiplicity of each spectrum of a stack
    w (K, n), with the mask of its peripheral eigenvalues, in one pass.
    Eigenvalue 1 is simple when exactly one eigenvalue lies in its cluster."""
    mult = _eigenvalue_one_cluster(w, tol).sum(axis=-1)
    on_circle = np.abs(w) >= 1.0 - tol.peripheral
    inner = np.where(on_circle, -np.inf, np.abs(w)).max(axis=-1)
    gap = np.where(on_circle.all(axis=-1), np.inf, -np.log(np.maximum(inner, 1e-300)))
    kind = np.where(mult != 1, "reducible", np.where(
        (on_circle.sum(axis=-1) == 1) & (gap > tol.gap), "primitive", "irreducible_periodic"))
    return kind, gap, mult, on_circle


def classify_generator(g: ExtendedGenerator, tol: Tolerances = DEFAULT) -> GeneratorClassification:
    """Full-spectrum classification: reducible / irreducible-periodic / primitive.

    One real eigenvalue solve, no eigenvectors: a trace-preserving positive map
    has the trace as its left fixed point and a semisimple peripheral
    spectrum (Wolf, Quantum Channels & Operations, 2012, ch. 6).
    Irreducibility is exactly one eigenvalue in the 1-cluster.  The period
    is the number of peripheral eigenvalues, cross-checked against the p-th
    roots of unity.  No steady state is solved.  An irreducible aperiodic
    generator whose sub-peripheral spectrum does not clear the gap
    threshold is reported as 'irreducible_periodic' with period 1 rather
    than certified primitive.
    """
    w = np.linalg.eigvals(g.matrix)
    kind, gap, mult, on_circle = (a[0] for a in _spectrum_kinds(w[None], tol))
    peripheral = w[on_circle]
    p = len(peripheral) if mult == 1 else 0
    roots = np.exp(2j * np.pi * np.arange(p) / max(p, 1))
    return GeneratorClassification(
        kind=str(kind), period=p, gap=float(gap), eigenvalue_one_multiplicity=int(mult),
        peripheral=peripheral,
        peripheral_match_roots=p >= 1 and all(np.abs(peripheral - r).min() <= 1e-6 for r in roots))


# ---------------------------------------------------------------------------
# the real Hermitian basis, and the tilted generators in it
# ---------------------------------------------------------------------------

@functools.cache
def _hermitian_basis(d: int) -> np.ndarray:
    """The unitary U (read-only, one per d) whose row a maps vec(rho) to
    tr(E_a rho), the coordinate of rho in the orthonormal Hermitian basis
    E_a: |j><j|, then (|j><k| + |k><j|)/sqrt(2) and i(|j><k| - |k><j|)/sqrt(2)
    for j < k.  Hermitian matrices have real coordinates x = U vec(rho)."""
    s = math.sqrt(0.5)
    units = np.eye(d)
    basis = [np.outer(u, u) for u in units]
    for j, k in itertools.combinations(range(d), 2):
        e = s * np.outer(units[j], units[k])
        basis += [e + e.T, 1j * (e - e.T)]
    u = np.stack([vec(e.T) for e in basis])
    u.flags.writeable = False
    return u


def _blocks(x: np.ndarray, m: int, d: int) -> np.ndarray:
    """The Hermitian blocks (..., m, d, d) of families in the real
    coordinates (..., m d^2): vec(X(w)) = U^H x(w)."""
    v = x.reshape(x.shape[:-1] + (m, d * d)) @ _hermitian_basis(d).conj()
    return big_unvec(v.reshape(x.shape), m, d)


def _coords(blocks: np.ndarray) -> np.ndarray:
    """The real coordinates (..., m d^2) of Hermitian blocks (..., m, d, d),
    the inverse of _blocks (an anti-Hermitian part would be dropped)."""
    v = big_vec(blocks)
    d = blocks.shape[-1]
    return (v.reshape(v.shape[:-1] + (-1, d * d)) @ _hermitian_basis(d).T).real.reshape(v.shape)


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


def _fold(superops: np.ndarray, what: str = "superoperators") -> np.ndarray:
    """U S U^H: superoperators (..., d^2, d^2) in the Hermitian basis (_real)."""
    u = _hermitian_basis(math.isqrt(superops.shape[-1]))
    return _real(u @ superops @ u.conj().T, what)


def _tilt_vector(m: int, alpha, error=GeneratorError, stack: bool = False) -> np.ndarray:
    """alpha as a float array with one entry for each of m labels (or, with
    ``stack``, also a stack (K, m) of such tilts); raises ``error`` naming
    the shape, the first row of a ragged stack that is not m entries long,
    or the first tilt with a non-finite entry, otherwise."""
    try:
        alpha = np.asarray(alpha, dtype=float)
    except (TypeError, ValueError) as exc:
        # only an alpha that does not convert pays for the search
        raise error(_unconverted_tilt(m, alpha, exc)) from None
    if alpha.ndim not in ((1, 2) if stack else (1,)) or alpha.shape[-1:] != (m,):
        raise error(f"alpha must have one entry per label, got shape {alpha.shape}")
    if not np.isfinite(alpha).all():
        rows = alpha.reshape(-1, m)
        bad = rows[~np.isfinite(rows).all(axis=1)][0]
        raise error(f"alpha has a non-finite entry: alpha={bad}")
    return alpha


def _unconverted_tilt(m: int, alpha, exc: Exception) -> str:
    """Why alpha is no float array: the first row of a ragged stack that is
    not m entries long, or the conversion's own message."""
    for i, row in enumerate(alpha if isinstance(alpha, (list, tuple)) else ()):
        sized = isinstance(row, (list, tuple)) or getattr(row, "ndim", 0) >= 1
        if sized and len(row) != m:
            return f"alpha row {i} has length {len(row)}, not one entry per label ({m})"
    return f"alpha is not an array of numbers: {exc}"


def _tilted_stack(model, alpha, derivatives: bool = False,
                  error=GeneratorError) -> np.ndarray:
    """The real M(alpha) (n, n), whose block (w, v) is
    sum_xi exp(-alpha_v delta_{v xi}) P[v, w] U S_{v xi} U^H, from the
    model's outcome table: one exp, the chain folded into the weights, and
    one einsum.  With derivatives, (3, n, n): D_k = sum_v d^k M / d alpha_v^k
    for k = 0, 1, 2 (D_0 = M), with weights (-delta)^k exp(-alpha_v delta);
    block column v of D_k is that of the k-th derivative in alpha_v, and
    mixed derivatives vanish.  A stack of tilts (K, m) adds a leading K
    axis, each item bitwise its own call; padded outcomes have zero maps.
    Callers check alpha with _tilt_vector first.  Where the weights
    overflow, ``error`` names the first such alpha and the first of M, D_1,
    D_2 that overflows, with no warning left."""
    alpha = np.asarray(alpha, dtype=float)
    superops, _, deltas, _ = model.outcome_table
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.exp(-alpha[..., :, None] * deltas)
        if derivatives:
            weights = (-deltas) ** np.arange(3)[:, None, None] * weights[..., None, :, :]
        weights = weights[..., :, None, :] * model.chain.P[:, :, None]
        blocks = np.einsum("...vwx,vxij->...wivj", weights, superops)
    if not np.isfinite(blocks).all():
        alphas = alpha.reshape(-1, len(deltas))
        finite = np.isfinite(blocks.reshape(len(alphas), 3 if derivatives else 1, -1))
        a, k = np.argwhere(~finite.all(axis=2))[0]
        what = f"derivative D_{k} of the tilted generator" if k else "tilted generator"
        raise error(f"{what} is not finite at alpha={alphas[a]}: "
                    f"{f'(-delta)^{k} ' if k else ''}exp(-alpha . delta) overflows")
    n = blocks.shape[-1] * blocks.shape[-2]
    return blocks.reshape(blocks.shape[:-4] + (n, n))


def deformed_generator(model, alpha) -> ExtendedGenerator:
    """The entropy-tilted generator: channel v is replaced by
    sum_xi exp(-alpha_v * delta_xi) L_{v, xi}, from the unravelings' Kraus
    atoms, so nothing is re-diagonalized per alpha.  The matrix is the real
    M(alpha) of the tilt kernel (see _tilted_stack), which equals the plain
    generator's at alpha = 0 up to round-off; a tilt that overflows raises
    GeneratorError naming alpha."""
    chain = model.chain
    alpha = _tilt_vector(chain.n, alpha)
    return ExtendedGenerator(labels=tuple(chain.labels), dim=model.dim_sys,
                             matrix=_tilted_stack(model, alpha), chain=chain, channels=None)
