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
from .quantum import QuantumChannel, QuantumError, trace_norm, unvec
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

def _coerce_blocks(labels, blocks):
    labels = tuple(labels)
    if isinstance(blocks, dict):
        arr = np.stack([np.asarray(blocks[l], dtype=complex) for l in labels])
    else:
        arr = np.asarray(blocks, dtype=complex)
    if arr.ndim != 3 or arr.shape[0] != len(labels) or arr.shape[1] != arr.shape[2]:
        raise GeneratorError(f"blocks have shape {arr.shape}, expected ({len(labels)}, d, d)")
    return labels, arr


@dataclass
class ExtendedState:
    labels: tuple
    blocks: np.ndarray   # shape (m, d, d)

    def __post_init__(self):
        self.labels, self.blocks = _coerce_blocks(self.labels, self.blocks)

    @property
    def dim(self):
        return self.blocks.shape[1]

    def block(self, label):
        return self.blocks[self.labels.index(label)]

    def total_trace(self) -> float:
        return float(np.trace(self.blocks, axis1=1, axis2=2).sum().real)

    def marginal(self) -> np.ndarray:
        """tr R(w) per block -- the chain-law marginal carried by the state."""
        return np.trace(self.blocks, axis1=1, axis2=2).real

    def check(self, tol: Tolerances = DEFAULT):
        herm = np.abs(self.blocks - self.blocks.conj().transpose(0, 2, 1)).max()
        if herm > tol.herm:
            raise GeneratorError(f"extended state block not Hermitian ({herm:.3e})")
        for k in range(self.blocks.shape[0]):
            w = np.linalg.eigvalsh((self.blocks[k] + self.blocks[k].conj().T) / 2)
            if w.min() < -tol.psd:
                raise GeneratorError(
                    f"block {self.labels[k]} has negative eigenvalue {w.min():.3e}")
        if abs(self.total_trace() - 1.0) > tol.trace:
            raise GeneratorError(f"total trace {self.total_trace()} != 1")
        return self


@dataclass
class ExtendedObservable:
    labels: tuple
    blocks: np.ndarray

    def __post_init__(self):
        self.labels, self.blocks = _coerce_blocks(self.labels, self.blocks)

    @property
    def dim(self):
        return self.blocks.shape[1]

    def block(self, label):
        return self.blocks[self.labels.index(label)]

    def check(self, tol: Tolerances = DEFAULT):
        herm = np.abs(self.blocks - self.blocks.conj().transpose(0, 2, 1)).max()
        if herm > tol.herm:
            raise GeneratorError(f"observable block not Hermitian ({herm:.3e})")
        return self


def identity_observable(labels, d: int) -> ExtendedObservable:
    m = len(labels)
    return ExtendedObservable(tuple(labels), np.broadcast_to(np.eye(d, dtype=complex), (m, d, d)).copy())


def big_vec(blocks: np.ndarray) -> np.ndarray:
    """Stack the column-vectorizations of the blocks into one long vector."""
    m, d, _ = blocks.shape
    return blocks.transpose(0, 2, 1).reshape(m * d * d)


def big_unvec(v: np.ndarray, m: int, d: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(m, d, d).transpose(0, 2, 1)


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
    _eig: tuple = field(default=None, repr=False, compare=False)

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

    def eig(self):
        """Eigenvalues w with unit-norm left (vl) and right (vr) eigenvectors
        as columns: M vr[:, i] = w[i] vr[:, i], vl[:, i]^H M = w[i] vl[:, i]^H.
        The left vectors are the rows of vr^{-1}; a defective generator can
        make vr exactly singular, and then the pseudo-inverse stands in."""
        if self._eig is None:
            w, vr = np.linalg.eig(self.matrix)
            try:
                vl = np.linalg.inv(vr)
            except np.linalg.LinAlgError:
                vl = np.linalg.pinv(vr)
            vl = vl.conj().T
            vl /= np.linalg.norm(vl, axis=0)
            object.__setattr__(self, "_eig", (w, vl, vr))
        return self._eig


def generator_matrix(chain: MarkovChain, superops) -> np.ndarray:
    """Assemble the block matrix M[w, v] = P[v, w] * S_v."""
    m = chain.n
    dd = superops[0].shape[0]
    mat = np.zeros((m * dd, m * dd), dtype=complex)
    for w in range(m):
        for v in range(m):
            pvw = chain.P[v, w]
            if pvw != 0.0:
                mat[w * dd:(w + 1) * dd, v * dd:(v + 1) * dd] = pvw * superops[v]
    return mat


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
    labels = chain.labels
    d = np.asarray(rho_init[labels[0]]).shape[0]
    blocks = np.zeros((chain.n, d, d), dtype=complex)
    for w in range(chain.n):
        for v in range(chain.n):
            blocks[w] += chain.pi[v] * chain.P[v, w] * np.asarray(rho_init[labels[v]], dtype=complex)
    return ExtendedState(tuple(labels), blocks)


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
    left_fixed: ExtendedObservable = None


def _eigenvalue_one_cluster(w: np.ndarray, tol: Tolerances):
    return np.flatnonzero(np.abs(w - 1.0) <= tol.peripheral)


def find_ess(g: ExtendedGenerator, tol: Tolerances = DEFAULT):
    """Extended steady state from the eigenvalue-1 eigenvector.

    Returns (state, residual) with residual = sum_w ||(L R)(w) - R(w)||_1 of
    the repaired state.  Raises NotIrreducibleError when eigenvalue 1 is not
    simple.  Repair: phase-fix, Hermitize, clip round-off negatives in
    [-psd_tol, 0), renormalize; eigenvalues below -psd_tol abort instead,
    since they signal a genuinely wrong eigenvector rather than noise.
    """
    w, _vl, vr = g.eig()
    ones = _eigenvalue_one_cluster(w, tol)
    if len(ones) != 1:
        raise NotIrreducibleError(len(ones))
    v = vr[:, ones[0]]
    blocks = big_unvec(v, g.n_labels, g.dim)
    t = complex(np.trace(blocks, axis1=1, axis2=2).sum())
    if abs(t) < 1e-14:
        raise GeneratorError("fixed eigenvector is traceless; cannot normalize")
    blocks = blocks * (t.conjugate() / (abs(t) * abs(t)))   # phase-fix and set total trace 1
    blocks = (blocks + blocks.conj().transpose(0, 2, 1)) / 2
    repaired = np.empty_like(blocks)
    for k in range(blocks.shape[0]):
        ew, ev = np.linalg.eigh(blocks[k])
        if ew.min() < -tol.psd:
            raise GeneratorError(
                f"fixed-point block {g.labels[k]} has eigenvalue {ew.min():.3e} "
                "beyond the round-off repair window")
        repaired[k] = (ev * np.clip(ew, 0.0, None)) @ ev.conj().T
    total = float(np.trace(repaired, axis1=1, axis2=2).sum().real)
    repaired /= total
    state = ExtendedState(g.labels, repaired)
    image = big_unvec(g.matrix @ big_vec(state.blocks), g.n_labels, g.dim)
    residual = float(sum(trace_norm(image[k] - state.blocks[k])
                         for k in range(g.n_labels)))
    return state, residual


@dataclass
class EssDecomposition:
    labels: tuple
    pi_plus: np.ndarray
    rho_plus: dict

    def reconstruction_residual(self, g: ExtendedGenerator, r_plus: ExtendedState) -> float:
        """max_w | sum_v P[v,w] pi_v rho_v - R_+(w) | (elementwise)."""
        m, d = g.n_labels, g.dim
        resid = 0.0
        for w in range(m):
            acc = np.zeros((d, d), dtype=complex)
            for v in range(m):
                acc += g.chain.P[v, w] * self.pi_plus[v] * self.rho_plus[g.labels[v]]
            resid = max(resid, float(np.abs(acc - r_plus.blocks[w]).max()))
        return resid


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


def classify_generator(g: ExtendedGenerator, tol: Tolerances = DEFAULT) -> GeneratorClassification:
    """Full-spectrum classification: reducible / irreducible-periodic / primitive.

    Irreducibility is read off the (algebraic) simplicity of eigenvalue 1:
    exactly one eigenvalue in the 1-cluster and a rank-one spectral projector
    with |<left, right>| bounded away from zero.  The period is the number of
    peripheral eigenvalues, cross-checked against the p-th roots of unity.
    An irreducible aperiodic generator whose sub-peripheral spectrum does not
    clear the gap threshold is reported as 'irreducible_periodic' with
    period 1 rather than certified primitive.
    """
    w, vl, vr = g.eig()
    ones = _eigenvalue_one_cluster(w, tol)
    mult = len(ones)
    simple = mult == 1
    if simple:
        i = ones[0]
        overlap = abs(np.vdot(vl[:, i], vr[:, i])) / (
            np.linalg.norm(vl[:, i]) * np.linalg.norm(vr[:, i]))
        simple = overlap >= 1e-8
    peripheral_idx = np.flatnonzero(np.abs(w) >= 1.0 - tol.peripheral)
    peripheral = w[peripheral_idx]
    inner = np.abs(w[np.setdiff1d(np.arange(len(w)), peripheral_idx)])
    gap = float("inf") if inner.size == 0 else float(-np.log(max(inner.max(), 1e-300)))
    p = len(peripheral)
    match = False
    if simple and p >= 1:
        roots = np.exp(2j * np.pi * np.arange(p) / p)
        match = all(np.abs(peripheral - r).min() <= 1e-6 for r in roots)

    ess = None
    faithful = None
    left_fixed = None
    if simple:
        ess, _resid = find_ess(g, tol)
        pi_plus = ess.marginal()
        faithful = True
        for k in range(g.n_labels):
            if pi_plus[k] > tol.pi_floor:
                if np.linalg.eigvalsh(ess.blocks[k]).min() <= 0.0:
                    faithful = False
        lf = big_unvec(vl[:, ones[0]], g.n_labels, g.dim)
        lf = (lf + lf.conj().transpose(0, 2, 1)) / 2
        scale = np.trace(lf, axis1=1, axis2=2).sum().real / (g.n_labels * g.dim)
        if abs(scale) > 1e-14:
            lf = lf / scale
        left_fixed = ExtendedObservable(g.labels, lf)

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
        ess=ess,
        ess_faithful=faithful,
        left_fixed=left_fixed,
    )


# ---------------------------------------------------------------------------
# tilted generators
# ---------------------------------------------------------------------------

def deformed_generator(model, alpha) -> ExtendedGenerator:
    """The entropy-tilted generator: channel v is replaced by
    sum_xi exp(-alpha_v * delta_xi) L_{v, xi}.

    ``model`` must carry built unravelings (see the models module).  The tilt
    reuses the unraveling's Kraus atoms -- nothing is re-diagonalized per
    alpha, so sweeps are cheap and exactly consistent with the measurement
    statistics.  At alpha = 0 the matrix equals the plain generator.
    """
    chain = model.chain
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (chain.n,):
        raise GeneratorError(f"alpha must have one entry per label, got shape {alpha.shape}")
    superops = [model.unravelings[l].deformed_superop(alpha[k])
                for k, l in enumerate(chain.labels)]
    mat = generator_matrix(chain, superops)
    return ExtendedGenerator(labels=tuple(chain.labels), dim=model.dim_sys,
                             matrix=mat, chain=chain, channels=None)
