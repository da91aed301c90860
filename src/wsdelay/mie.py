"""Closed-form scattering matrices for the centered sphere and cylinder.

Separation of variables gives one reflection coefficient per angular order,

    soft:  alpha = -h1(ka)/h2(ka)      hard:  alpha = -h1'(ka)/h2'(ka)

(spherical functions in 3D, cylindrical in 2D), so S has exactly one entry
per column, coupling each mode p to its conjugate index p~ with a fixed
geometric phase. |alpha| = 1 always, which makes these matrices unitary and
symmetric to rounding and turns this module into the high-precision oracle
for every identity downstream. Wavenumber derivatives are analytic via the
radial-function recurrences, no finite differences involved.
"""

import numpy as np

from .errors import ContractError, DomainError
from .modal import (
    ModeIndex,
    ModeSet,
    angular_factor,
    conjugate_mode,
    gamma_2d,
    polar_coordinates,
)
from .smatrix import BoundaryCondition, SMatrix
from .specfun import (
    BesselKind,
    cyl_bessel,
    cyl_bessel_dx,
    sph_bessel,
    sph_bessel_table,
    sph_harm,
)

H1, H2 = BesselKind.HANKEL1, BesselKind.HANKEL2


def _hankel1(dim: int, order: int, z: float):
    """h^(1) (3D) or H^(1) (2D) at z and its z-derivative, one table per order;
    the outgoing kind is their conjugate."""
    if dim == 3:
        h, dh = sph_bessel_table(H1, order, z)
        return h[-1, 0], dh[-1, 0]
    return cyl_bessel(H1, order, z), cyl_bessel_dx(H1, order, z)


def modal_reflection(dim: int, bc: BoundaryCondition, order: int, ka: float) -> complex:
    """Outgoing/incoming amplitude ratio for one angular order; |alpha| = 1."""
    if ka <= 0:
        raise DomainError("ka must be positive")
    order = abs(int(order)) if dim == 2 else int(order)
    if dim == 3 and order < 0:
        raise DomainError("spherical degree must be >= 0")
    h1, d1 = _hankel1(dim, order, ka)
    if bc is BoundaryCondition.SOUND_SOFT:
        return -h1 / np.conj(h1)
    return -d1 / np.conj(d1)


def modal_reflection_deriv(
    dim: int, bc: BoundaryCondition, order: int, k: float, a: float
) -> complex:
    """d(alpha)/dk, analytic.

    Chain rule through z = ka; second derivatives for the hard case come
    from the radial ODE f'' = -(c1/z) f' + (L/z^2 - 1) f with (c1, L) =
    (2, l(l+1)) spherical and (1, n^2) cylindrical.
    """
    z = k * a
    if z <= 0:
        raise DomainError("ka must be positive")
    order = abs(int(order)) if dim == 2 else int(order)
    h1, d1 = _hankel1(dim, order, z)
    h2, d2 = np.conj(h1), np.conj(d1)
    if bc is BoundaryCondition.SOUND_SOFT:
        dalpha_dz = -(d1 * h2 - h1 * d2) / h2**2
        return a * dalpha_dz
    c1 = 2.0 if dim == 3 else 1.0
    big_l = order * (order + 1) if dim == 3 else order**2
    dd1 = -(c1 / z) * d1 + (big_l / z**2 - 1.0) * h1
    dd2 = -(c1 / z) * d2 + (big_l / z**2 - 1.0) * h2
    dalpha_dz = -(dd1 * d2 - d1 * dd2) / d2**2
    return a * dalpha_dz


def _column_phase(p: ModeIndex) -> complex:
    """Phase linking column p to row p~, fixed by the incoming radial phase."""
    if p.dim == 3:
        return (-1.0) ** p.m * (-1.0) ** (p.l + 1)
    return 1j * (-1.0) ** p.n


def _assemble(modes: ModeSet, alpha_of_mode) -> np.ndarray:
    m = len(modes)
    s = np.zeros((m, m), dtype=complex)
    for col, p in enumerate(modes.modes):
        ptilde, _ = conjugate_mode(p)
        s[modes.position(ptilde), col] = _column_phase(p) * alpha_of_mode(p)
    return s


def mie_smatrix(
    dim: int, bc: BoundaryCondition, k: float, a: float, modes: ModeSet
) -> SMatrix:
    """Scattering matrix of the centered sound-soft/hard sphere or cylinder."""
    if modes.dim != dim:
        raise ContractError(f"mode set dim {modes.dim} != requested dim {dim}")
    if a <= 0:
        raise DomainError("radius must be positive")
    cache = {}

    def alpha(p):
        order = p.l if dim == 3 else abs(p.n)
        if order not in cache:
            cache[order] = modal_reflection(dim, bc, order, k * a)
        return cache[order]

    return SMatrix(modes=modes, k=k, matrix=_assemble(modes, alpha))


def mie_smatrix_deriv(
    dim: int, bc: BoundaryCondition, k: float, a: float, modes: ModeSet
) -> SMatrix:
    """dS/dk with the same single-entry-per-column sparsity as the S matrix."""
    if modes.dim != dim:
        raise ContractError(f"mode set dim {modes.dim} != requested dim {dim}")
    cache = {}

    def dalpha(p):
        order = p.l if dim == 3 else abs(p.n)
        if order not in cache:
            cache[order] = modal_reflection_deriv(dim, bc, order, k, a)
        return cache[order]

    return SMatrix(modes=modes, k=k, matrix=_assemble(modes, dalpha))


def free_space_smatrix(modes: ModeSet) -> SMatrix:
    """The alpha = 1 special case: no scatterer, pure geometric feed-through.

    k-independent, so its wavenumber derivative vanishes identically.
    """
    return SMatrix(
        modes=modes, k=modes.k, matrix=_assemble(modes, lambda p: 1.0 + 0.0j)
    )


def outgoing_partial_wave(m: ModeIndex, k: float, points):
    """Exact radial continuation of the outgoing far-field template.

    The outgoing partial wave whose r -> infinity limit is
    conj(X_m) e^{-jkr}/r (3D) or conj(X_m) e^{-jkr}/sqrt(r) (2D); used to
    reconstruct total fields of centered scatterers at finite radius.
    """
    r, theta, phi = polar_coordinates(points, m.dim)
    if m.dim == 3:
        radial = k * (-1j) ** (m.l + 1) * sph_bessel(H2, m.l, k * r)
        return radial * np.conj(sph_harm(m.l, m.m, theta, phi))
    radial = np.conj(gamma_2d(m.n, k)) * cyl_bessel(H2, m.n, k * r)
    return radial * np.conj(angular_factor(m, theta))
