"""Scattering-matrix container shared by the closed-form and BEM solvers."""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractError
from .modal import ModeSet

# Largest unitarity or symmetry residual an S matrix may carry: the one S
# gate of every verdict (validate_smatrix, the run's report, bem_smatrix).
DEFAULT_SMATRIX_GATE = 1e-3


def relative_residual(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||_F / ||a||_F, and 0 when a is zero."""
    denom = np.linalg.norm(a)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b) / denom)


class BoundaryCondition(Enum):
    SOUND_SOFT = "soft"   # Dirichlet: potential vanishes on the boundary
    SOUND_HARD = "hard"   # Neumann: normal derivative vanishes


@dataclass
class SMatrix:
    """Dense M x M map from incoming to outgoing modal amplitudes at fixed k.

    Lossless reciprocal scatterers give unitary, symmetric matrices; the
    residual methods quantify how far a computed matrix is from that.
    """

    modes: ModeSet
    k: float
    matrix: np.ndarray

    def __post_init__(self):
        m = len(self.modes)
        if self.matrix.shape != (m, m):
            raise ContractError(
                f"matrix shape {self.matrix.shape} does not match mode count {m}"
            )

    def unitarity_residual(self) -> float:
        m = self.matrix.shape[0]
        gram = self.matrix.conj().T @ self.matrix
        return float(np.linalg.norm(gram - np.eye(m)) / np.sqrt(m))

    def symmetry_residual(self) -> float:
        return relative_residual(self.matrix, self.matrix.T)
