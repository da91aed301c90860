"""Time-delay analysis of acoustic scattering governed by the Helmholtz
equation: scattering matrices (closed-form and boundary-integral), the
Hermitian delay matrix Q = j S^dag dS/dk built by independent routes, its
eigenmodes with well-defined delays, and field maps that sort those modes
into corner, ballistic, surface-wave, non-propagating and cavity families.
"""

from .bem import (
    BoundarySolution,
    bem_smatrix,
    far_field_coefficients,
    scattered_field,
    solve_exterior,
)
from .errors import (
    AccuracyError,
    CapacityError,
    ConfigError,
    ContractError,
    DomainError,
    GeometryError,
    QualityGateError,
    SingularPointError,
    SolverError,
    WsdelayError,
)
from .fields import (
    ClassificationThresholds,
    FieldGrid,
    GridSpec,
    bem_excitation_fields,
    classify_modes,
    group_counts,
    localization_metrics,
    modal_excitation_fields,
    mode_field_matrix,
    region_masks,
)
from .geometry import (
    BoundaryMesh,
    Geometry,
    make_cavity,
    make_circle,
    make_geometry,
    make_polyline,
    make_strip,
    mesh_geometry,
)
from .mie import (
    free_space_smatrix,
    mie_smatrix,
    mie_smatrix_deriv,
    modal_reflection,
    modal_reflection_deriv,
)
from .modal import (
    ModeIndex,
    ModeSet,
    conjugate_mode,
    incoming_wave,
    outgoing_template,
    regular_wave,
    suggested_mode_count,
)
from .smatrix import BoundaryCondition, SMatrix
from .volumeq import (
    QuadratureSpec,
    RadialProfile,
    qtilde_infinity,
    surface_identity_check,
    volume_q_matrix,
)
from .wigner import (
    QMatrix,
    WSDecomposition,
    q_matrix,
    smatrix_fd_derivative,
    validate_smatrix,
    ws_decompose,
)

__version__ = "0.1.0"
