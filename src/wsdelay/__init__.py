"""Time-delay analysis of acoustic scattering governed by the Helmholtz
equation: scattering matrices (closed-form and boundary-integral), the
Hermitian delay matrix Q = j S^dag dS/dk built by independent routes, its
eigenmodes with well-defined delays, and field maps that sort those modes
into corner, ballistic, surface-wave, non-propagating and cavity families.

The top level holds the names a library caller needs to build S, dS/dk, Q
and its eigenmodes; everything else is imported from its module.
"""

from .bem import bem_smatrix
from .errors import WsdelayError
from .geometry import make_cavity, make_circle, make_strip, mesh_geometry
from .mie import mie_smatrix, mie_smatrix_deriv
from .modal import ModeSet
from .smatrix import BoundaryCondition
from .wigner import q_matrix, smatrix_fd_derivative, validate_smatrix, ws_decompose

__version__ = "0.1.0"
