"""Port basis for the scattering matrices.

3D ports are spherical harmonics indexed by p = (l, m); 2D ports are the
angular exponentials X_n(theta) = e^{j n theta}/sqrt(2 pi). Incoming waves
carry the e^{+jkr} radial phase, outgoing ones e^{-jkr}; the radial factors
are normalized so both limit to unit-power far-field templates:

    3D incoming:  k j^{l+1} h_l^(1)(kr) X_lm -> X_lm e^{jkr}/r
    2D incoming:  gamma_n H_n^(1)(kr) X_n    -> X_n  e^{jkr}/sqrt(r)

with gamma_n = sqrt(pi k/2) e^{j(n pi/2 + pi/4)}.

Mode ordering is total and deterministic (3D lexicographic in (l, m); 2D by
n = 0, -1, +1, -2, +2, ...) so that matrix files are reproducible across
runs. A port set is its dimension, top order and k; its ports, their count
and each port's row follow from those. The basis origin is the coordinate
origin; scatterer placement relative to it matters.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, DomainError
from .specfun import cyl_jn_table


@dataclass(frozen=True, order=False)
class ModeIndex:
    """A single port label: (l, m) in 3D, signed order n in 2D."""

    dim: int
    l: int = 0
    m: int = 0
    n: int = 0

    def __post_init__(self):
        if self.dim == 3:
            if self.l < 0 or abs(self.m) > self.l:
                raise DomainError(f"invalid spherical index (l={self.l}, m={self.m})")
        elif self.dim != 2:
            raise DomainError(f"dim must be 2 or 3, got {self.dim}")

    @staticmethod
    def spherical(l: int, m: int) -> "ModeIndex":
        return ModeIndex(dim=3, l=l, m=m)

    @staticmethod
    def angular(n: int) -> "ModeIndex":
        return ModeIndex(dim=2, n=n)

    @property
    def order(self) -> int:
        """l in 3D, |n| in 2D."""
        return self.l if self.dim == 3 else abs(self.n)

    def __repr__(self):
        if self.dim == 3:
            return f"(l={self.l},m={self.m})"
        return f"(n={self.n})"


def conjugate_mode(p: ModeIndex):
    """Index map p -> p~ and sign with conj(X_p) = sign * X_p~.

    3D: p~ = (l, -m) with sign (-1)^m; 2D: p~ = -n with sign +1.
    An involution that preserves l (respectively |n|).
    """
    if p.dim == 3:
        return ModeIndex.spherical(p.l, -p.m), (-1.0) ** p.m
    return ModeIndex.angular(-p.n), 1.0


@dataclass(frozen=True)
class ModeSet:
    """Ordered port basis at a fixed wavenumber: every port up to order top,
    (l, m) with l <= top in 3D and n = -top..top in 2D."""

    dim: int
    top: int
    k: float

    def __post_init__(self):
        if self.k <= 0:
            raise DomainError("wavenumber must be positive")
        if self.dim not in (2, 3):
            raise DomainError(f"dim must be 2 or 3, got {self.dim}")
        if self.top < 0:
            raise DomainError(f"top order must be non-negative, got {self.top}")

    @staticmethod
    def spherical(l_max: int, k: float) -> "ModeSet":
        return ModeSet(dim=3, top=l_max, k=k)

    @staticmethod
    def angular(n_max: int, k: float) -> "ModeSet":
        return ModeSet(dim=2, top=n_max, k=k)

    @staticmethod
    def with_count(dim: int, count: int, k: float) -> "ModeSet":
        if dim == 2:
            if count % 2 == 0:
                raise DomainError("2D mode count must be odd")
            return ModeSet.angular((count - 1) // 2, k)
        lmax = int(round(np.sqrt(count))) - 1
        if (lmax + 1) ** 2 != count:
            raise DomainError("3D mode count must be a perfect square")
        return ModeSet.spherical(lmax, k)

    @cached_property
    def modes(self) -> tuple:
        """The ports in matrix order (see position)."""
        if self.dim == 3:
            return tuple(ModeIndex.spherical(l, m)
                         for l in range(self.top + 1) for m in range(-l, l + 1))
        return (ModeIndex.angular(0),) + tuple(
            ModeIndex.angular(s * n) for n in range(1, self.top + 1) for s in (-1, 1))

    def __len__(self):
        return (self.top + 1) ** 2 if self.dim == 3 else 2 * self.top + 1

    def position(self, p: ModeIndex) -> int:
        """Row of port p: l^2 + l + m in 3D, 2|n| - (n < 0) in 2D."""
        if p.dim != self.dim or p.order > self.top:
            raise ContractError(f"mode {p} not in mode set")
        if p.dim == 3:
            return p.l * p.l + p.l + p.m
        return 2 * abs(p.n) - (p.n < 0)

    def same_modes(self, other: "ModeSet") -> bool:
        return (self.dim, self.top) == (other.dim, other.top)


def suggested_mode_count(k: float, a: float, dim: int) -> int:
    """Mode count from the truncation rule l_max = ka + 3 (ka)^(1/3).

    Returns (l_max+1)^2 in 3D and 2*l_max+1 in 2D. This is a sizing helper;
    scenario configs take the mode count directly.
    """
    if k <= 0 or a <= 0:
        raise DomainError("k and a must be positive")
    ka = k * a
    lmax = int(np.ceil(ka + 3.0 * ka ** (1.0 / 3.0)))
    if dim == 3:
        return (lmax + 1) ** 2
    if dim == 2:
        return 2 * lmax + 1
    raise DomainError("dim must be 2 or 3")


# ---------------------------------------------------------------------------
# coordinates
# ---------------------------------------------------------------------------
def polar_coordinates(points, allow_origin=False):
    """(r, theta) of 2D points about the basis origin."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != 2:
        raise ContractError("points must have 2 components")
    r = np.hypot(pts[..., 0], pts[..., 1])
    theta = np.arctan2(pts[..., 1], pts[..., 0])
    if np.any(r == 0.0):
        if not allow_origin:
            raise DomainError("field evaluation at the basis origin")
        # regular fields are finite at the origin: J_n(0) kills the
        # undefined angle for n != 0; clamp r so special functions accept it
        r = np.where(r == 0.0, 1e-300, r)
    return r, theta


def gamma_2d(n: int, k: float) -> complex:
    """Amplitude/phase constant of the 2D incoming radial factor."""
    return np.sqrt(np.pi * k / 2.0) * np.exp(1j * (n * np.pi / 2.0 + np.pi / 4.0))


# ---------------------------------------------------------------------------
# standing excitations
# ---------------------------------------------------------------------------
def regular_waves_batch(modes: ModeSet, k: float, points, normals=None):
    """The standing excitation 2 gamma_n J_n(kr) X_n of every port of a 2D
    set, from one J_n table: the incoming mode plus its own free-space
    outgoing response, regular everywhere, so solvers can evaluate it on any
    boundary wherever the origin lies.

    Returns the (points, ports) values. Given one unit normal per point it
    also returns the normal derivatives, as a second array of the same shape;
    the points must then avoid the origin.
    """
    if modes.dim != 2:
        raise ContractError("batched regular waves implemented for dim=2 only")
    r, theta = polar_coordinates(points, allow_origin=normals is None)
    orders = np.array([p.n for p in modes.modes])
    table = cyl_jn_table(modes.top + 1, k * r)

    def jn(n):  # J_{-n} = (-1)^n J_n
        return table[n] if n >= 0 else (-1.0) ** (-n % 2) * table[-n]

    values = np.empty((len(orders), len(r)), dtype=complex)   # returned transposed
    if normals is not None:
        nrm = np.asarray(normals, dtype=float)
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        rdot_n = cos_t * nrm[:, 0] + sin_t * nrm[:, 1]
        tdot_n = -sin_t * nrm[:, 0] + cos_t * nrm[:, 1]
        normal_derivs = np.empty_like(values)
    # X_m = X_{8q} e^{j r theta} for m = 8q + r takes one exp per 8 orders and
    # adds one rounding, not m of them; the ports -m, +m share X_m (X_-m = X_m*)
    low = np.exp(1j * np.outer(np.arange(8), theta))
    m = q = None
    for col, n in enumerate(orders):
        if abs(n) != m:
            m = abs(n)
            if m // 8 != q:
                q = m // 8
                anchor = np.exp(1j * (8 * q) * theta) / np.sqrt(2.0 * np.pi)
            ang_m = anchor * low[m % 8]
        ang = ang_m if n >= 0 else ang_m.conj()
        g_ang = 2.0 * gamma_2d(int(n), k) * ang
        values[col] = g_ang * jn(n)
        if normals is not None:   # du/dr rdot_n + (1/r) du/dtheta tdot_n
            du_dr = (0.5 * k) * (jn(n - 1) - jn(n + 1))
            normal_derivs[col] = g_ang * (du_dr * rdot_n + (1j * n) * (jn(n) / r * tdot_n))
    if normals is None:
        return values.T
    return values.T, normal_derivs.T

