"""Finite-state driving chains: validation, classification, path sampling.

The sampler uses a counter-based generator (Philox) keyed by the seed, so
trajectory streams can be assigned as ``base_seed + trajectory_index`` and
sampled in any order or thread layout without changing a single draw.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tolerances import DEFAULT, Tolerances


class ChainError(ValueError):
    pass


@dataclass(frozen=True)
class MarkovChain:
    labels: tuple
    pi: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "pi", np.asarray(self.pi, dtype=float))
        object.__setattr__(self, "P", np.asarray(self.P, dtype=float))
        m = len(self.labels)
        if self.pi.shape != (m,) or self.P.shape != (m, m):
            raise ChainError(f"chain shapes inconsistent with {m} labels")
        if self.pi.min() < -1e-12 or abs(self.pi.sum() - 1.0) > 1e-12:
            raise ChainError("pi is not a probability vector")
        if self.P.min() < -1e-12:
            raise ChainError("P has a negative entry")
        rows = np.abs(self.P.sum(axis=1) - 1.0)
        if rows.max() > 1e-12:
            bad = int(rows.argmax())
            raise ChainError(f"row {bad} of P sums to {self.P[bad].sum()!r}")

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self.labels.index(label)


@dataclass
class ChainClassification:
    irreducible: bool
    period: int
    primitive: bool
    stationary: np.ndarray
    stationary_unique: bool
    detailed_balance: bool
    db_residual: float


def _support_edges(P: np.ndarray, edge_tol: float):
    """Adjacency lists of the support digraph (entries above edge_tol only)."""
    n = P.shape[0]
    fwd = [[v for v in range(n) if P[u, v] > edge_tol] for u in range(n)]
    bwd = [[u for u in range(n) if P[u, v] > edge_tol] for v in range(n)]
    return fwd, bwd


def _reaches_all(adj, start, n) -> bool:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def _chain_period(adj, n) -> int:
    """gcd of cycle lengths through a BFS level assignment (irreducible input)."""
    level = {0: 0}
    queue = [0]
    g = 0
    while queue:
        nxt = []
        for u in queue:
            for v in adj[u]:
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
                else:
                    g = math.gcd(g, level[u] + 1 - level[v])
        queue = nxt
    return abs(g) if g != 0 else 0


def stationary_vector(P: np.ndarray):
    """Left eigenvector of P at eigenvalue 1, normalized to a probability
    vector; second return flags uniqueness (eigenvalue-1 multiplicity one)."""
    w, v = np.linalg.eig(P.T)
    close = np.abs(w - 1.0) <= 1e-8
    unique = int(close.sum()) == 1
    idx = int(np.argmin(np.abs(w - 1.0)))
    vec = v[:, idx]
    # rotate to the real axis, then sign-fix
    big = np.argmax(np.abs(vec))
    vec = vec * np.exp(-1j * np.angle(vec[big]))
    vec = vec.real
    if vec.sum() < 0:
        vec = -vec
    vec = np.clip(vec, 0.0, None)
    s = vec.sum()
    if s <= 0:
        raise ChainError("stationary eigenvector could not be normalized")
    return vec / s, unique


def classify_chain(chain: MarkovChain, tol: Tolerances = DEFAULT) -> ChainClassification:
    fwd, bwd = _support_edges(chain.P, tol.edge)
    n = chain.n
    # strongly connected iff node 0 reaches everything along edges and
    # everything reaches node 0 (reachability in the reversed digraph)
    irreducible = _reaches_all(fwd, 0, n) and _reaches_all(bwd, 0, n)
    period = _chain_period(fwd, n) if irreducible else 0
    primitive = irreducible and period == 1
    stationary, unique = stationary_vector(chain.P)
    db_residual = float(np.abs(stationary[:, None] * chain.P
                               - (stationary[:, None] * chain.P).T).max())
    return ChainClassification(
        irreducible=irreducible,
        period=period,
        primitive=primitive,
        stationary=stationary,
        stationary_unique=unique,
        detailed_balance=db_residual <= 1e-8,
        db_residual=db_residual,
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _inverse_cdf(weights: np.ndarray, u: float) -> int:
    """Index of the inverse-CDF cell containing u, in label order."""
    idx = int((u > np.cumsum(weights)).sum())
    return min(idx, len(weights) - 1)


def path_stream(seed: int) -> np.random.Generator:
    """The counter-based uniform stream assigned to one trajectory."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def outcome_stream(seed: int, n: int) -> np.random.Generator:
    """``path_stream(seed)`` positioned after its first n + 1 draws, where an
    n-step trajectory's outcome uniforms start.  Each Philox counter value
    yields four draws, so the counter advances by (n + 1) // 4 and the
    remaining (n + 1) % 4 draws are discarded."""
    bits = np.random.Philox(key=int(seed))
    bits.advance((n + 1) // 4)
    stream = np.random.Generator(bits)
    stream.random((n + 1) % 4)
    return stream


def sample_path_indices(chain: MarkovChain, n: int, seed: int) -> np.ndarray:
    """omega_0 ... omega_n as label indices; draw k of the stream decides step k."""
    if n < 0:
        raise ChainError("path length must be >= 0")
    u = path_stream(seed).random(n + 1)
    out = np.empty(n + 1, dtype=np.int64)
    out[0] = _inverse_cdf(chain.pi, u[0])
    for k in range(n):
        out[k + 1] = _inverse_cdf(chain.P[out[k]], u[k + 1])
    return out

def sample_path(chain: MarkovChain, n: int, seed: int) -> list:
    """omega_0 ... omega_n as labels, deterministic in the seed."""
    return [chain.labels[i] for i in sample_path_indices(chain, n, seed)]
