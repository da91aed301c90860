"""Time-delay matrix assembly and its eigendecomposition.

Q = j S^dag dS/dk is Hermitian for a lossless reciprocal scatterer; its
eigenvectors (columns of W) are incoming patterns that exit with a single
well-defined delay, the corresponding real eigenvalue. Q and S diagonalize
simultaneously: Sbar = W^T S W is diagonal with unimodular diagonal.

Delays are reported in units of distance over sound speed with c = 1, so
numerically they are lengths.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DomainError
from .modal import ModeSet
from .smatrix import DEFAULT_SMATRIX_GATE, SMatrix, relative_residual

# Degenerate clusters: one scan over the sorted spectrum forms runs, each
# from its first eigenvalue through every next one at most CLUSTER_SPREAD_CAP
# times the spectral scale above it, so a longer near-degenerate chain becomes
# several runs (rotations may only mix eigenvalues that agree to within the
# reconstruction budget). Within a run the basis is rotated to diagonalize S
# as well (any eigh basis diagonalizes Q there, but not S), and the delays are
# replaced by their mean so the reported spectrum reconstructs Q exactly.
CLUSTER_SPREAD_CAP = 5e-11


@dataclass
class QMatrix:
    """Hermitian-symmetrized time-delay matrix with its provenance."""

    matrix: np.ndarray
    provenance: str = "analytic"
    presym_residual: float = 0.0

    @classmethod
    def symmetrized(cls, raw: np.ndarray, provenance: str) -> "QMatrix":
        """The Hermitian part of raw, with the discarded part recorded."""
        return cls(matrix=0.5 * (raw + raw.conj().T), provenance=provenance,
                   presym_residual=relative_residual(raw, raw.conj().T))


@dataclass
class WSDecomposition:
    """Eigenpairs of Q plus the simultaneously diagonalized S."""

    delays: np.ndarray          # ascending, real
    w: np.ndarray               # unitary, columns are the delay eigenmodes
    sbar: np.ndarray            # W^T S W

    def orthonormality_residual(self) -> float:
        m = self.w.shape[0]
        return float(np.linalg.norm(self.w.conj().T @ self.w - np.eye(m)))

    def reconstruction_residual(self, q: QMatrix) -> float:
        rebuilt = (self.w * self.delays) @ self.w.conj().T
        denom = np.linalg.norm(q.matrix)
        if denom == 0.0:
            return float(np.linalg.norm(rebuilt))
        return float(np.linalg.norm(rebuilt - q.matrix) / denom)

    def simdiag_offdiag_residual(self) -> float:
        return relative_residual(self.sbar, np.diag(np.diag(self.sbar)))

    def diagonal_delay_identity_residual(self, q: QMatrix) -> float:
        """max_n |Q_nn - sum_i |W_ni|^2 delay_i| (an exact algebraic identity)."""
        recon = (np.abs(self.w) ** 2) @ self.delays
        return float(np.max(np.abs(np.diag(q.matrix).real - recon)))


@dataclass
class SMatrixReport:
    unitarity_residual: float
    symmetry_residual: float
    passed: bool = field(init=False)

    def __post_init__(self):
        gate = DEFAULT_SMATRIX_GATE
        self.passed = self.unitarity_residual <= gate and self.symmetry_residual <= gate


def validate_smatrix(s: SMatrix) -> SMatrixReport:
    """Frobenius-normalized unitarity and symmetry residuals against
    DEFAULT_SMATRIX_GATE."""
    return SMatrixReport(
        unitarity_residual=s.unitarity_residual(), symmetry_residual=s.symmetry_residual()
    )


def fd_step(k: float, dk: float = None) -> float:
    """The central-difference step: dk when given, else 1e-4 k."""
    return 1e-4 * k if dk is None else dk


def smatrix_fd_derivative(provider, k: float, dk: float = None):
    """Central-difference dS/dk from an S-matrix provider, at fd_step(k, dk).

    provider(k') must return an SMatrix on the same mode list for every k'.
    """
    dk = fd_step(k, dk)
    if not dk > 0:
        raise DomainError("finite-difference step must be positive")
    sp = provider(k + dk)
    sm = provider(k - dk)
    if not sp.modes.same_modes(sm.modes):
        raise ContractError("provider returned mismatched mode sets")
    d = (sp.matrix - sm.matrix) / (2.0 * dk)
    return SMatrix(modes=ModeSet(sp.modes.dim, sp.modes.top, k), k=k, matrix=d)


def q_matrix(s: SMatrix, sp: SMatrix, provenance: str = "analytic") -> QMatrix:
    """Q = j S^dag S', Hermitian-symmetrized, with the discarded part recorded."""
    if s.matrix.shape != sp.matrix.shape:
        raise ContractError("S and dS/dk shapes differ")
    if not s.modes.same_modes(sp.modes):
        raise ContractError("S and dS/dk built on different mode sets")
    return QMatrix.symmetrized(1j * s.matrix.conj().T @ sp.matrix, provenance)


def _first_significant_index(v: np.ndarray) -> int:
    thresh = 1e-6 * np.max(np.abs(v))
    idx = np.nonzero(np.abs(v) > thresh)[0]
    return int(idx[0]) if idx.size else 0


def _fix_phases(w: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    out = w.copy()
    for i in range(out.shape[1]):
        col = out[:, i]
        pivot = int(np.argmax(np.abs(col)))
        ph = col[pivot]
        if abs(ph) > 0:
            out[:, i] = col * (np.conj(ph) / abs(ph))
    return out


def _joint_real_diagonalizer(b: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Real orthogonal V with V^T b V diagonal, for b symmetric unitary.

    Unitarity of a symmetric b makes Re(b) and Im(b) commuting real symmetric
    matrices, so they share a real orthogonal eigenbasis: diagonalize Re(b),
    then Im(b) restricted to each degenerate Re-eigenspace.
    """
    bs = 0.5 * (b + b.T)
    a, c = bs.real, bs.imag
    evals, v = np.linalg.eigh(a)
    scale = max(float(np.max(np.abs(evals))), 1.0)
    i, n = 0, b.shape[0]
    while i < n:
        j = i + 1
        while j < n and evals[j] - evals[j - 1] <= tol * scale:
            j += 1
        if j - i >= 2:
            block = v[:, i:j].T @ c @ v[:, i:j]
            _, vc = np.linalg.eigh(0.5 * (block + block.T))
            v[:, i:j] = v[:, i:j] @ vc
        i = j
    return v


def _resolve_degenerate_clusters(delays: np.ndarray, w: np.ndarray, s: np.ndarray):
    """Fix the basis inside numerically degenerate delay clusters.

    Each cluster basis is rotated so the cluster block of W^T S W becomes
    diagonal, the cluster delays are averaged (they differ by less than the
    rotation spread cap, so the reported spectrum still reconstructs Q), and
    columns are ordered by their first significant entry.
    """
    m = delays.size
    cap = CLUSTER_SPREAD_CAP * max(float(np.max(np.abs(delays))), 1e-300)
    delays = delays.copy()
    w = w.copy()
    start = 0
    while start < m:
        stop = start + 1
        while stop < m and delays[stop] - delays[start] <= cap:
            stop += 1
        if stop - start >= 2:
            block = w[:, start:stop].T @ s @ w[:, start:stop]
            v = _joint_real_diagonalizer(block)
            w[:, start:stop] = w[:, start:stop] @ v
            delays[start:stop] = np.mean(delays[start:stop])
            order = sorted(range(start, stop), key=lambda i: _first_significant_index(w[:, i]))
            w[:, start:stop] = w[:, order]
        start = stop
    return delays, w


def ws_decompose(q: QMatrix, s: SMatrix) -> WSDecomposition:
    """Hermitian eigendecomposition of Q and simultaneous diagonalization of S.

    Eigenvalues ascend; each eigenvector's phase makes its largest entry real
    positive; degenerate clusters are rotated to diagonalize S there too and
    deterministically ordered.
    """
    if q.matrix.shape != s.matrix.shape:
        raise ContractError("Q and S shapes differ")
    delays, w = np.linalg.eigh(q.matrix)
    delays, w = _resolve_degenerate_clusters(delays, w, s.matrix)
    w = _fix_phases(w)
    sbar = w.T @ s.matrix @ w
    return WSDecomposition(delays=delays, w=w, sbar=sbar)
