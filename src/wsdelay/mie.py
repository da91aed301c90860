"""Closed-form scattering matrices for the centered sphere and cylinder.

Separation of variables gives one reflection coefficient per angular order,

    soft:  alpha = -h1(ka)/h2(ka)      hard:  alpha = -h1'(ka)/h2'(ka)

(spherical functions in 3D, cylindrical in 2D), so S has exactly one entry
per column, coupling each mode p to its conjugate index p~ with a fixed
geometric phase. |alpha| = 1 always, which makes these matrices unitary and
symmetric to rounding and turns this module into the high-precision oracle
for every identity downstream. Wavenumber derivatives are analytic via the
radial-function recurrences, no finite differences involved.

reflection_table gives alpha_n and d(alpha_n)/dk for every order 0..n_max
from one h^(1) (3D) or H^(1) (2D) table at ka, with the outgoing kind by
conjugation; both matrices read their entries off it.
"""

import numpy as np

from .errors import ContractError, DomainError
from .modal import ModeIndex, ModeSet, conjugate_mode
from .smatrix import BoundaryCondition, SMatrix
from .specfun import hankel1_table


def radial_second_derivative(dim: int, order, z, f, df):
    """f'' from the radial ODE f'' = -(c1/z) f' + (L/z^2 - 1) f, with
    (c1, L) = (2, l(l+1)) spherical and (1, n^2) cylindrical."""
    c1, big_l = (2.0, order * (order + 1)) if dim == 3 else (1.0, order**2)
    return -(c1 / z) * df + (big_l / z**2 - 1.0) * f


def _reflection(dim: int, bc: BoundaryCondition, order: int, z: float, a: float, h1, d1):
    """(alpha, d(alpha)/dk) of one order from h^(1) and its derivative at z =
    ka; the outgoing kind is their conjugate, and the chain rule through z
    gives the factor a."""
    h2, d2 = np.conj(h1), np.conj(d1)
    if bc is BoundaryCondition.SOUND_SOFT:
        return -h1 / h2, a * (-(d1 * h2 - h1 * d2) / h2**2)
    dd1 = radial_second_derivative(dim, order, z, h1, d1)
    dd2 = radial_second_derivative(dim, order, z, h2, d2)
    return -d1 / d2, a * (-(dd1 * d2 - d1 * dd2) / d2**2)


def reflection_table(dim: int, bc: BoundaryCondition, k: float, a: float, n_max: int):
    """(alpha, dalpha): reflection coefficients alpha_n (|alpha_n| = 1) and
    their analytic k-derivatives for every order n = 0..n_max, from one
    Hankel table at z = ka (specfun.hankel1_table).

    The few products per order run on scalars: numpy's vectorized complex
    product may fuse multiply-adds depending on the CPU, which would make
    the bits of S' machine-dependent. The singular kind outgrows double
    precision at high order and small ka (dalpha first, from order 99 at
    ka = 2), so a non-finite coefficient raises DomainError naming its order.
    """
    z = k * a
    if not z > 0:
        raise DomainError("ka must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        table = hankel1_table(dim, n_max, z)
        rows = [
            _reflection(dim, bc, n, z, a, h, d)
            for n, (h, d) in enumerate(zip(table[0][:, 0], table[1][:, 0]))
        ]
    alpha, dalpha = (np.array(col) for col in zip(*rows))
    bad = np.flatnonzero(~(np.isfinite(alpha) & np.isfinite(dalpha)))
    if bad.size:
        raise DomainError(f"reflection coefficients overflow from order {bad[0]} at ka={z:g}")
    return alpha, dalpha


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


def _closed_form(dim, bc, k, a, modes, column):
    """S (column 0) or dS/dk (column 1) from one reflection table."""
    if modes.dim != dim:
        raise ContractError(f"mode set dim {modes.dim} != requested dim {dim}")
    if a <= 0:
        raise DomainError("radius must be positive")
    values = reflection_table(dim, bc, k, a, modes.top)[column]
    return SMatrix(modes=modes, k=k, matrix=_assemble(modes, lambda p: values[p.order]))


def mie_smatrix(
    dim: int, bc: BoundaryCondition, k: float, a: float, modes: ModeSet
) -> SMatrix:
    """Scattering matrix of the centered sound-soft/hard sphere or cylinder."""
    return _closed_form(dim, bc, k, a, modes, 0)


def mie_smatrix_deriv(
    dim: int, bc: BoundaryCondition, k: float, a: float, modes: ModeSet
) -> SMatrix:
    """dS/dk with the same single-entry-per-column sparsity as the S matrix."""
    return _closed_form(dim, bc, k, a, modes, 1)


def free_space_smatrix(modes: ModeSet) -> SMatrix:
    """The alpha = 1 special case: no scatterer, pure geometric feed-through.

    k-independent, so its wavenumber derivative vanishes identically.
    """
    return SMatrix(
        modes=modes, k=modes.k, matrix=_assemble(modes, lambda p: 1.0 + 0.0j)
    )

