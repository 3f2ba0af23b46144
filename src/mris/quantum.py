"""Dense complex linear algebra and quantum primitives at small fixed dimension.

Conventions used throughout the package:

* composite Hilbert spaces are ordered system-first, ``|a> (x) |e>`` mapping to
  row index ``a * d_env + e`` (numpy ``kron`` order);
* vectorization is column-stacking, ``vec(m) = m.reshape(-1, order='F')``, so a
  channel with Kraus family {K} has superoperator sum conj(K) (x) K and
  ``vec(A X B) = (B^T (x) A) vec(X)``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .tolerances import DEFAULT, Tolerances


class QuantumError(ValueError):
    """An input violated one of the structural invariants."""


# ---------------------------------------------------------------------------
# basic matrix plumbing
# ---------------------------------------------------------------------------

def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise QuantumError(f"expected a matrix, got array of shape {a.shape}")
    return a


def check_hermitian(m, tol: float, what: str = "matrix") -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise QuantumError(f"{what} is not square: shape {a.shape}")
    resid = float(np.abs(a - a.conj().T).max())
    if not resid <= tol:        # so that NaN fails too
        raise QuantumError(f"{what} is not Hermitian (residual {resid:.3e} > {tol:.1e})")
    return a


def check_density_matrix(rho, tol: Tolerances = DEFAULT, what: str = "state") -> np.ndarray:
    a = check_hermitian(rho, tol.herm, what)
    tr = np.trace(a)
    if not abs(tr - 1.0) <= tol.trace:
        raise QuantumError(f"{what} has trace {tr} (|tr-1| > {tol.trace:.1e})")
    w = np.linalg.eigvalsh((a + a.conj().T) / 2)
    if not w.min() >= -tol.psd:
        raise QuantumError(f"{what} has negative eigenvalue {w.min():.3e}")
    return a


def check_unitary(u, tol: float, what: str = "propagator") -> np.ndarray:
    a = as_matrix(u)
    resid = float(np.abs(a @ a.conj().T - np.eye(a.shape[0])).max())
    if not resid <= tol:
        raise QuantumError(f"{what} is not unitary (residual {resid:.3e})")
    return a


def tensor(*ops) -> np.ndarray:
    """Kronecker product of one or more operators (system-first ordering)."""
    if not ops:
        raise QuantumError("tensor() needs at least one operator")
    out = as_matrix(ops[0])
    for op in ops[1:]:
        out = np.kron(out, as_matrix(op))
    return out


def partial_trace_env(m, d_sys: int, d_env: int) -> np.ndarray:
    """Trace out the environment (second) factor of an operator on H_S (x) H_E."""
    a = as_matrix(m)
    if a.shape != (d_sys * d_env, d_sys * d_env):
        raise QuantumError(
            f"partial_trace_env: shape {a.shape} does not factor as {d_sys}*{d_env}")
    return np.einsum("aebe->ab", a.reshape(d_sys, d_env, d_sys, d_env))


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(d, d, order="F")


# ---------------------------------------------------------------------------
# thermal states and propagators
# ---------------------------------------------------------------------------

def thermal_state(h, beta: float, tol: Tolerances = DEFAULT):
    """Gibbs state exp(-beta h)/Z and the free energy -log(Z)/beta.

    beta = 0 returns the maximally mixed state with free energy None (it
    diverges there); beta small enough that the quotient overflows the
    float range is reported the same way.  A negative, infinite or NaN beta
    is rejected.
    """
    hmat = check_hermitian(h, tol.herm, "hamiltonian")
    if not 0 <= beta < math.inf:
        raise QuantumError(f"inverse temperature must be finite and >= 0, got {beta}")
    d = hmat.shape[0]
    if beta == 0.0:
        return np.eye(d, dtype=complex) / d, None
    w, v = np.linalg.eigh(hmat)
    shifted = -beta * (w - w.min())
    weights = np.exp(shifted)
    z_shifted = weights.sum()
    rho = (v * (weights / z_shifted)) @ v.conj().T
    log_z = math.log(z_shifted) - beta * w.min()
    with np.errstate(over="ignore"):
        free_energy = float(-log_z / beta)
    return rho, (free_energy if math.isfinite(free_energy) else None)


def propagator(h_total, tau: float, tol: Tolerances = DEFAULT) -> np.ndarray:
    """exp(-i tau H) through the eigendecomposition of Hermitian H.

    The eigenbasis route keeps the result unitary to eigensolver accuracy,
    which the downstream CPTP checks rely on.
    """
    hmat = check_hermitian(h_total, tol.herm, "total hamiltonian")
    w, v = np.linalg.eigh(hmat)
    u = (v * np.exp(-1j * tau * w)) @ v.conj().T
    return check_unitary(u, tol.unit)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def superop_from_kraus(kraus) -> np.ndarray:
    """Column-stacked superoperator sum_j conj(K_j) (x) K_j."""
    ks = [as_matrix(k) for k in kraus]
    d = ks[0].shape[0]
    s = np.zeros((d * d, d * d), dtype=complex)
    for k in ks:
        s += np.kron(k.conj(), k)
    return s


@dataclass
class QuantumChannel:
    """A CPTP map held as a Kraus family plus its cached superoperator."""

    dim: int
    kraus: list
    superop: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.kraus = [as_matrix(k) for k in self.kraus]
        if self.superop is None:
            self.superop = superop_from_kraus(self.kraus)

    def apply(self, rho) -> np.ndarray:
        rho = as_matrix(rho)
        out = np.zeros_like(rho)
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        return out

    def tp_residual(self) -> float:
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for k in self.kraus:
            acc += k.conj().T @ k
        return float(np.abs(acc - np.eye(self.dim)).max())


def channel_from_kraus(kraus, tol: Tolerances = DEFAULT) -> QuantumChannel:
    ks = [as_matrix(k) for k in kraus]
    d = ks[0].shape[0]
    ch = QuantumChannel(dim=d, kraus=ks)
    if not ch.tp_residual() <= tol.tp:
        raise QuantumError(f"Kraus family is not trace preserving (residual {ch.tp_residual():.3e})")
    # cached superoperator must agree with the Kraus action on matrix units
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            resid = np.abs(unvec(ch.superop @ vec(e), d) - ch.apply(e)).max()
            if not resid <= tol.consistency:
                raise QuantumError(f"superoperator/Kraus mismatch {resid:.3e}")
    return ch


def interaction_kraus_atoms(u, rho_env, d_sys: int, floor: float = 1e-14):
    """Kraus atoms of rho -> tr_env(U (rho (x) rho_env) U*) in the probe eigenbasis.

    Diagonalize rho_env = sum_i p_i |phi_i><phi_i| and set, for every pair of
    probe eigenvectors with p_i above the floor,

        K_{ij} = sqrt(p_i) <phi_j| U |phi_i>    (a d_sys x d_sys block).

    Returns (atoms, varsigma) where atoms is a list of (i, j, K_ij) and
    varsigma[i] = -log p_i.  Zero-weight eigenvectors are dropped as Kraus
    sources (their varsigma is +inf) but kept as arrival labels j, since
    <phi_j|U|phi_i> can be nonzero for any j.  The same atom family feeds the
    plain channel, the measurement unraveling, and the tilted channels, which
    keeps all three exactly consistent.
    """
    umat = as_matrix(u)
    p_env, phi = np.linalg.eigh(check_hermitian(rho_env, 1e-8, "probe state"))
    d_env = p_env.shape[0]
    if umat.shape != (d_sys * d_env, d_sys * d_env):
        raise QuantumError("propagator dimension does not match system x probe")
    u4 = umat.reshape(d_sys, d_env, d_sys, d_env)
    # block[i, j] = <phi_j| U |phi_i> as a system operator
    blocks = np.einsum("ej,aebf,fi->ijab", phi.conj(), u4, phi)
    atoms = []
    varsigma = np.full(d_env, np.inf)
    for i in range(d_env):
        if p_env[i] <= floor:
            continue
        varsigma[i] = -math.log(float(p_env[i]))
        w = math.sqrt(float(p_env[i]))
        for j in range(d_env):
            atoms.append((i, j, w * blocks[i, j]))
    return atoms, varsigma


def reduced_map(u, rho_env, d_sys: int, tol: Tolerances = DEFAULT) -> QuantumChannel:
    """One-step reduced dynamics rho -> tr_env(U (rho (x) rho_env) U*)."""
    atoms, _ = interaction_kraus_atoms(u, rho_env, d_sys, floor=tol.prob_floor)
    return channel_from_kraus([k for _, _, k in atoms], tol)


def choi_matrix(channel: QuantumChannel) -> np.ndarray:
    """Choi matrix C[(i,k),(j,l)] = Phi(E_ij)[k,l] (unnormalized)."""
    d = channel.dim
    c = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            c[i * d:(i + 1) * d, j * d:(j + 1) * d] = channel.apply(e)
    return c


def choi_verify(channel: QuantumChannel) -> dict:
    """Diagnostic report: PSD margin of the Choi matrix and TP residual."""
    c = choi_matrix(channel)
    herm_resid = float(np.abs(c - c.conj().T).max())
    w = np.linalg.eigvalsh((c + c.conj().T) / 2)
    return {
        "min_choi_eig": float(w.min()),
        "tp_residual": channel.tp_residual(),
        "choi_herm_residual": herm_resid,
    }


# ---------------------------------------------------------------------------
# spectral decompositions
# ---------------------------------------------------------------------------

@dataclass
class SpectralDecomposition:
    eigenvalues: np.ndarray          # one representative value per cluster, ascending
    projections: list                # orthogonal projections, same order
    degeneracy_tol: float
    members: list = None             # raw eigenvalue indices per cluster

    def check(self, tol: Tolerances = DEFAULT):
        d = self.projections[0].shape[0]
        acc = np.zeros((d, d), dtype=complex)
        for p in self.projections:
            if np.abs(p @ p - p).max() > 1e-8:
                raise QuantumError("spectral projection is not idempotent")
            acc += p
        if np.abs(acc - np.eye(d)).max() > 1e-8:
            raise QuantumError("spectral projections do not sum to the identity")


def _cluster_spectrum(w, v, order, width: float):
    """Chain-link clusters of eigenvalues w (eigenvectors v as columns),
    visited in the ascending ``order``: a value joins the current cluster when
    within ``width`` of its last member.  Returns per cluster the mean
    value, the projection onto its eigenspace and its indices into w."""
    clusters = [[order[0]]]
    for idx in order[1:]:
        if w[idx] - w[clusters[-1][-1]] <= width:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    values = np.array([w[c].mean() for c in clusters])
    projections = [v[:, c] @ v[:, c].conj().T for c in clusters]
    return values, projections, clusters


def spectral_projections(h, degeneracy_tol: float = None, tol: Tolerances = DEFAULT) -> SpectralDecomposition:
    """Eigenvalues of a Hermitian operator clustered to width degeneracy_tol,
    with the orthogonal projection onto each cluster's eigenspace."""
    if degeneracy_tol is None:
        degeneracy_tol = tol.degeneracy
    w, v = np.linalg.eigh(check_hermitian(h, tol.herm))
    values, projections, clusters = _cluster_spectrum(w, v, range(len(w)), degeneracy_tol)
    dec = SpectralDecomposition(values, projections, degeneracy_tol, members=clusters)
    dec.check(tol)
    return dec


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def trace_norm(m) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(as_matrix(m), compute_uv=False).sum())


def entropy_vn(rho) -> float:
    """von Neumann entropy -tr(rho log rho)."""
    w = np.linalg.eigvalsh(check_hermitian(rho, 1e-8))
    w = np.clip(w.real, 0.0, None)
    out = 0.0
    for p in w:
        if p > 1e-300:
            out -= p * math.log(p)
    return out


def relative_entropy(mu, rho, support_tol: float = 1e-10) -> float:
    """Ent(mu | rho) = tr mu (log mu - log rho).

    Returns math.inf when the support of mu leaks outside the support of rho
    by more than support_tol (the convention appropriate for entropy
    production, which this quantity measures downstream).
    """
    mu = check_hermitian(mu, 1e-8, "mu")
    rho = check_hermitian(rho, 1e-8, "rho")
    wm, vm = np.linalg.eigh(mu)
    wr, vr = np.linalg.eigh(rho)
    wm = np.clip(wm.real, 0.0, None)
    wr = np.clip(wr.real, 0.0, None)
    # support leakage: weight of mu on the kernel of rho
    kernel_cols = vr[:, wr <= support_tol]
    if kernel_cols.shape[1] > 0:
        leak = float(np.real(np.trace(kernel_cols.conj().T @ mu @ kernel_cols)))
        if leak > support_tol:
            return math.inf
    term1 = 0.0
    for p in wm:
        if p > 1e-300:
            term1 += p * math.log(p)
    log_rho = (vr * np.log(np.maximum(wr, 1e-300))) @ vr.conj().T
    term2 = float(np.real(np.trace(mu @ log_rho)))
    return term1 - term2
