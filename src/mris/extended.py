"""Extended states, the one-step generator on them, and its spectral theory.

An extended state is a family R = (R(w))_{w in Omega} of positive blocks with
total trace one; extended observables are Hermitian block families.  The
generator acts blockwise as

    (L R)(w) = sum_v P[v, w] L_v R(v),

and is represented as an (m d^2) x (m d^2) matrix over the stacked
column-vectorizations of the blocks.  The duality <R, X> = sum_w tr(R(w)* X(w))
is then the plain inner product of stacked vectors, so the adjoint map on
observables is the conjugate transpose of the generator matrix.
"""

from dataclasses import dataclass, field

import numpy as np

from .chains import MarkovChain
from .tolerances import DEFAULT, Tolerances


class GeneratorError(ValueError):
    pass


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
        return self.blocks[self.labels.index(label)]

    def check(self, tol: Tolerances = DEFAULT):
        herm = np.abs(self.blocks - self.blocks.conj().transpose(0, 2, 1)).max()
        if herm > tol.herm:
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
        for k in range(self.blocks.shape[0]):
            w = np.linalg.eigvalsh((self.blocks[k] + self.blocks[k].conj().T) / 2)
            if w.min() < -tol.psd:
                raise GeneratorError(
                    f"block {self.labels[k]} has negative eigenvalue {w.min():.3e}")
        if abs(self.total_trace() - 1.0) > tol.trace:
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
    """The blocks (..., m, d, d) of stacked vectors (..., m d^2); the
    inverse of big_vec."""
    v = np.asarray(v, dtype=complex)
    return v.reshape(*v.shape[:-1], m, d, d).swapaxes(-1, -2)


def _trace_norm_lag(a: np.ndarray, b: np.ndarray):
    """sum_w ||a(w) - b(w)||_1 for block families (..., m, d, d): one batched
    svd, summed label by label like quantum.trace_norm over the blocks."""
    norms = np.linalg.svd(a - b, compute_uv=False).sum(axis=-1)
    return sum(norms[..., w] for w in range(norms.shape[-1]))


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
    matrix: np.ndarray = field(repr=False)
    chain: MarkovChain = None
    channels: dict = None       # label -> QuantumChannel; None for tilted variants

    @property
    def n_labels(self):
        return len(self.labels)

    def apply(self, r: ExtendedState) -> ExtendedState:
        v = self.matrix @ big_vec(r.blocks)
        return ExtendedState(self.labels, big_unvec(v, self.n_labels, self.dim))

    def apply_blockwise(self, r: ExtendedState) -> ExtendedState:
        """Direct blockwise action; cross-checks the assembled matrix."""
        if self.channels is None:
            raise GeneratorError("blockwise action needs the channel family")
        m, d = self.n_labels, self.dim
        out = np.zeros((m, d, d), dtype=complex)
        for w in range(m):
            for v in range(m):
                pvw = self.chain.P[v, w]
                if pvw != 0.0:
                    out[w] += pvw * self.channels[self.labels[v]].apply(r.blocks[v])
        return ExtendedState(self.labels, out)


def _generator_stack(P: np.ndarray, superops) -> np.ndarray:
    """Generator matrices for a stack of transition matrices P (K, m, m) and
    one superoperator family S (m, d^2, d^2) or a stack of them
    (K, m, d^2, d^2): block (w, v) of the k-th matrix is P[k, v, w] * S[k]_v,
    and exactly zero where P[k, v, w] is.  Either stack may have K = 1."""
    superops = np.asarray(superops, dtype=complex)
    if superops.ndim == 4:
        superops = superops[:, None]
    m, dd = P.shape[-1], superops.shape[-1]
    p = P.transpose(0, 2, 1)[..., None, None]
    blocks = np.where(p != 0.0, p * superops, 0.0)
    return blocks.transpose(0, 1, 3, 2, 4).reshape(-1, m * dd, m * dd)


def generator_matrix(chain: MarkovChain, superops) -> np.ndarray:
    """Assemble the block matrix M[w, v] = P[v, w] * S_v."""
    return _generator_stack(chain.P[None], superops)[0]


def build_generator(chain: MarkovChain, channels: dict, tol: Tolerances = DEFAULT) -> ExtendedGenerator:
    """The one-step generator from a chain and per-label channels."""
    labels = chain.labels
    missing = [l for l in labels if l not in channels]
    if missing:
        raise GeneratorError(f"no channel for labels {missing}")
    dims = {channels[l].dim for l in labels}
    if len(dims) != 1:
        raise GeneratorError(f"channels have mixed dimensions {sorted(dims)}")
    d = dims.pop()
    mat = generator_matrix(chain, [channels[l].superop for l in labels])
    return ExtendedGenerator(labels=tuple(labels), dim=d, matrix=mat,
                             chain=chain, channels=dict(channels))


def initial_extended_state(chain: MarkovChain, rho_init: dict) -> ExtendedState:
    """R0(w) = sum_v pi_v P[v, w] rho_v."""
    states = [np.asarray(rho_init[l], dtype=complex) for l in chain.labels]
    return ExtendedState(tuple(chain.labels), _lift(chain.P, chain.pi, states))


def evolve(g: ExtendedGenerator, r: ExtendedState, n: int) -> ExtendedState:
    if r.labels != g.labels or r.dim != g.dim:
        raise GeneratorError("state does not match generator layout")
    v = big_vec(r.blocks)
    for _ in range(n):
        v = g.matrix @ v
    return ExtendedState(g.labels, big_unvec(v, g.n_labels, g.dim))


def adjoint_matrix(g: ExtendedGenerator) -> np.ndarray:
    """Matrix of the dual map on observables w.r.t. <R, X>."""
    return g.matrix.conj().T


# ---------------------------------------------------------------------------
# spectral classification and steady states
# ---------------------------------------------------------------------------

@dataclass
class GeneratorClassification:
    kind: str                     # 'reducible' | 'irreducible_periodic' | 'primitive'
    period: int
    gap: float
    dominant_eigenvalue: float
    eigenvalue_one_multiplicity: int
    peripheral: np.ndarray
    peripheral_match_roots: bool
    ess: ExtendedState = None
    ess_faithful: bool = None


def _eigenvalue_one_cluster(w: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Mask of the eigenvalues counted as 1, for one spectrum or a stack."""
    return np.abs(w - 1.0) <= tol.peripheral


def _bordered_solve(mats: np.ndarray, m: int, d: int):
    """Steady states of a stack of generators (K, n, n), one bordered solve
    each (Paige, Styan and Wachter, J. Stat. Comput. Simul. 1975).

    With u the maximally mixed extended state (tr u = 1) and tr the
    total-trace functional, A = 1 - M + u tr^T is invertible exactly when
    eigenvalue 1 of M is simple, and A R = u means (1 - M) R = 0 with
    tr R = 1.  One batched inverse gives R = A^{-1} u, refined by one step
    with the same inverse.  A^{-1} also solves A dR = (dM) R, the steady
    state's sensitivity to a trace-preserving perturbation dM (Golub and
    Meyer, SIAM J. Alg. Disc. Meth. 1986).  Returns R (K, n), A^{-1}
    (K, n, n), ||A^{-1}||_1 (K,) and kappa_1 = ||A||_1 ||A^{-1}||_1 (K,);
    raises LinAlgError when some A is exactly singular.
    """
    n = mats.shape[-1]
    trace = np.tile(np.eye(d).reshape(-1), m)     # vec(1) in every block
    u = trace / (m * d)
    a = np.eye(n) - mats + np.outer(u, trace)
    a_inv = np.linalg.inv(a)
    x = a_inv @ u
    x = x + (a_inv @ (u - (a @ x[..., None])[..., 0])[..., None])[..., 0]
    inv_norm = np.abs(a_inv).sum(axis=-2).max(axis=-1)
    return x, a_inv, inv_norm, np.abs(a).sum(axis=-2).max(axis=-1) * inv_norm


def _ess_stack(mats: np.ndarray, labels, d: int,
               tol: Tolerances = DEFAULT) -> np.ndarray:
    """Repaired steady-state blocks (K, m, d, d) of a stack of generators
    (K, n, n): the bordered solve of each, phase-fixed, Hermitized, clipped
    and renormalized as find_ess describes."""
    K, m = mats.shape[0], len(labels)
    try:
        x, _a_inv, inv_norm, kappa = _bordered_solve(mats, m, d)
    except np.linalg.LinAlgError:
        x, kappa, inv_norm = None, np.full(K, np.inf), np.full(K, np.inf)
    # an eigenvalue lambda != 1 of M makes ||A^{-1}||_1 >= 1 / |1 - lambda|,
    # so every eigenvalue-1 cluster of width tol.peripheral is refused
    refused = ~(inv_norm * tol.peripheral < 1.0)
    if refused.any():
        _refuse(mats[refused], inv_norm[refused], kappa[refused], tol)
    blocks = big_unvec(x, m, d)
    # phase-fix and set total trace 1, in Python complex arithmetic: numpy's
    # vectorised complex division differs in the last bit
    scale = np.empty(K, dtype=complex)
    for k, t in enumerate(np.trace(blocks, axis1=2, axis2=3).sum(axis=1).tolist()):
        scale[k] = t.conjugate() / (abs(t) * abs(t))
    blocks = blocks * scale[:, None, None, None]
    blocks = (blocks + blocks.conj().transpose(0, 1, 3, 2)) / 2
    ew, ev = np.linalg.eigh(blocks)
    low = ew.min(axis=2)
    if (low < -tol.psd).any():
        k, j = np.argwhere(low < -tol.psd)[0]
        raise GeneratorError(
            f"fixed-point block {labels[j]} has eigenvalue {low[k, j]:.3e} "
            "beyond the round-off repair window")
    repaired = (ev * np.clip(ew, 0.0, None)[..., None, :]) @ ev.conj().transpose(0, 1, 3, 2)
    repaired /= np.trace(repaired, axis1=2, axis2=3).sum(axis=1).real[:, None, None, None]
    return repaired


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
    """Extended steady state from one bordered solve (see _bordered_solve).

    Returns (state, residual) with residual = sum_w ||(L R)(w) - R(w)||_1 of
    the repaired state.  The solve is refused when ||A^{-1}||_1 reaches
    1 / tol.peripheral.  Since ||A^{-1}||_1 >= 1 / |1 - lambda| for every
    other eigenvalue lambda of the generator, that covers each generator
    whose eigenvalue-1 cluster (width tol.peripheral) holds more than one
    eigenvalue.  Only then is the spectrum read, to name the failure:
    NotIrreducibleError when that cluster is not one eigenvalue,
    GeneratorError naming kappa_1 otherwise.  Repair: phase-fix, Hermitize,
    clip round-off negatives in [-psd_tol, 0), renormalize; eigenvalues
    below -psd_tol abort instead, since they signal a genuinely wrong
    solution rather than noise.
    """
    state = ExtendedState(g.labels, _ess_stack(g.matrix[None], g.labels, g.dim, tol)[0])
    return state, float(_trace_norm_lag(g.apply(state).blocks, state.blocks))


def bordered_condition(g: ExtendedGenerator) -> float:
    """kappa_1 of the bordered matrix whose solve gives the steady state of
    g (a numerical-health figure of find_ess)."""
    return float(_bordered_solve(g.matrix[None], g.n_labels, g.dim)[3][0])


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
    pi_plus = r_plus.marginal()
    rho_plus = {}
    d = g.dim
    for k, label in enumerate(g.labels):
        if pi_plus[k] > tol.pi_floor:
            rho_plus[label] = g.channels[label].apply(r_plus.blocks[k]) / pi_plus[k]
        else:
            rho_plus[label] = np.eye(d, dtype=complex) / d
    return EssDecomposition(g.labels, pi_plus, rho_plus)


def _classify_spectrum(w: np.ndarray, tol: Tolerances = DEFAULT) -> GeneratorClassification:
    """The kind, period and gap that classify_generator reads off one
    spectrum w, without the steady-state fields.  Eigenvalue 1 counts as
    simple when exactly one eigenvalue lies in its cluster."""
    mult = int(_eigenvalue_one_cluster(w, tol).sum())
    simple = mult == 1
    on_circle = np.abs(w) >= 1.0 - tol.peripheral
    peripheral = w[on_circle]
    inner = np.abs(w[~on_circle])
    gap = float("inf") if inner.size == 0 else float(-np.log(max(inner.max(), 1e-300)))
    p = len(peripheral)
    match = False
    if simple and p >= 1:
        roots = np.exp(2j * np.pi * np.arange(p) / p)
        match = all(np.abs(peripheral - r).min() <= 1e-6 for r in roots)

    if not simple:
        kind = "reducible"
    elif p == 1 and gap > tol.gap:
        kind = "primitive"
    else:
        kind = "irreducible_periodic"

    return GeneratorClassification(
        kind=kind,
        period=p if simple else 0,
        gap=gap,
        dominant_eigenvalue=float(np.abs(w).max()),
        eigenvalue_one_multiplicity=mult,
        peripheral=peripheral,
        peripheral_match_roots=match,
    )


def classify_generator(g: ExtendedGenerator, tol: Tolerances = DEFAULT) -> GeneratorClassification:
    """Full-spectrum classification: reducible / irreducible-periodic / primitive.

    One eigenvalue solve, no eigenvectors: a trace-preserving positive map
    has the trace as its left fixed point and a semisimple peripheral
    spectrum (Wolf, Quantum Channels & Operations, 2012, ch. 6).
    Irreducibility is exactly one eigenvalue in the 1-cluster; a generator
    whose steady state cannot be solved still fails in find_ess.  The
    period is the number of peripheral eigenvalues, cross-checked against
    the p-th roots of unity.  An irreducible aperiodic generator whose
    sub-peripheral spectrum does not clear the gap threshold is reported as
    'irreducible_periodic' with period 1 rather than certified primitive.
    """
    cls = _classify_spectrum(np.linalg.eigvals(g.matrix), tol)
    if cls.kind != "reducible":
        cls.ess, _resid = find_ess(g, tol)
        pi_plus = cls.ess.marginal()
        cls.ess_faithful = True
        for k in range(g.n_labels):
            if pi_plus[k] > tol.pi_floor:
                if np.linalg.eigvalsh(cls.ess.blocks[k]).min() <= 0.0:
                    cls.ess_faithful = False
    return cls


# ---------------------------------------------------------------------------
# tilted generators
# ---------------------------------------------------------------------------

def _tilt_vector(chain: MarkovChain, alpha) -> np.ndarray:
    """alpha as a float array with one entry per chain label."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (chain.n,):
        raise GeneratorError(f"alpha must have one entry per label, got shape {alpha.shape}")
    return alpha


def deformed_generator(model, alpha) -> ExtendedGenerator:
    """The entropy-tilted generator: channel v is replaced by
    sum_xi exp(-alpha_v * delta_xi) L_{v, xi}.

    ``model`` must carry built unravelings (see the models module).  The tilt
    reuses the unraveling's Kraus atoms -- nothing is re-diagonalized per
    alpha, so sweeps are cheap and exactly consistent with the measurement
    statistics.  At alpha = 0 the matrix equals the plain generator.
    """
    chain = model.chain
    alpha = _tilt_vector(chain, alpha)
    superops = [model.unravelings[l].deformed_superop(alpha[k])
                for k, l in enumerate(chain.labels)]
    mat = generator_matrix(chain, superops)
    return ExtendedGenerator(labels=tuple(chain.labels), dim=model.dim_sys,
                             matrix=mat, chain=chain, channels=None)
