"""Cylindrical and spherical Bessel/Hankel functions and spherical harmonics.

All evaluations are for positive real arguments. Spherical Bessel functions
are computed by recurrence: j_l by downward (Miller-style) recurrence
normalized against the closed-form j_0/j_1, which is stable for l greater
than x, and y_l by upward recurrence, which is stable everywhere. One
sph_jy_table call holds every degree 0..l on an argument array; h^(1) is
j + jy, h^(2) is its conjugate (real arguments), and derivatives come from
the neighbouring row, so sph_bessel_table gives all degrees of a function
and its derivative from one pair of recurrences. Cylindrical
J_n comes from the same downward recurrence (one table of orders 0..n,
normalized against scipy's J_0/J_1); Y_n and the Hankel functions are
delegated to scipy's Amos/Cephes routines behind the same argument checks.

Spherical harmonics use fully normalized associated Legendre recurrences so
no factorial ratio is ever materialized; the Condon-Shortley phase (-1)^m is
applied exactly once, here.

Everything is pure and reentrant; x may be a scalar or an ndarray.
"""

from enum import Enum

import numpy as np
from scipy import special as _sp

from .errors import CapacityError, DomainError

# Nominal ceilings. Beyond these, double precision under/overflows for
# small arguments (y_l grows like (2l-1)!!/x^(l+1)).
CYL_ORDER_MAX = 200
SPH_DEGREE_MAX = 200


class BesselKind(Enum):
    """Radial function family: regular, incoming (type 1), outgoing (type 2).

    For real arguments the two Hankel kinds are complex conjugates of each
    other.
    """

    REGULAR_J = "j"
    HANKEL1 = "h1"
    HANKEL2 = "h2"


def _check_x(x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise DomainError("argument must be positive and finite")
    return x


# ---------------------------------------------------------------------------
# Cylindrical functions (J by recurrence, Y and H scipy-backed)
# ---------------------------------------------------------------------------
def cyl_bessel(kind: BesselKind, order: int, x, ceiling: int = CYL_ORDER_MAX):
    """J_n(x), H_n^(1)(x) or H_n^(2)(x) for integer order n.

    Negative orders are folded with J_{-n} = (-1)^n J_n (same reflection for
    Y_n, hence for both Hankel kinds).
    """
    x = _check_x(x)
    n = int(order)
    if abs(n) > ceiling:
        raise CapacityError(f"cylindrical order |{n}| exceeds ceiling {ceiling}")
    sign = 1.0 if (n >= 0 or n % 2 == 0) else -1.0
    n = abs(n)
    if kind is BesselKind.REGULAR_J:
        return sign * cyl_jn_table(n, x)[n].reshape(x.shape)
    if kind is BesselKind.HANKEL1:
        return sign * (_sp.jv(n, x) + 1j * _sp.yv(n, x))
    return sign * (_sp.jv(n, x) - 1j * _sp.yv(n, x))


def cyl_bessel_dx(kind: BesselKind, order: int, x, ceiling: int = CYL_ORDER_MAX):
    """d/dx of the chosen cylindrical function, via f' = (f_{n-1} - f_{n+1})/2."""
    lo = cyl_bessel(kind, order - 1, x, ceiling=ceiling + 1)
    hi = cyl_bessel(kind, order + 1, x, ceiling=ceiling + 1)
    return 0.5 * (lo - hi)


def cyl_jn_table(n: int, x) -> np.ndarray:
    """J_0..J_n at nonnegative x, rows indexed by order: Miller's downward
    recurrence normalized against scipy's J_0 and J_1, and below x = 1e-8 the
    leading series term (x/2)^n/n!, which is exact there in double precision."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise DomainError("argument must be nonnegative and finite")
    small = x < 1e-8
    xs = np.where(small, 1.0, x)
    jm = _miller_downward(n, xs, 0, _sp.j0(xs), _sp.j1(xs))
    if np.any(small):
        half = x[small] / 2.0
        terms = [np.ones_like(half)] + [half / m for m in range(1, len(jm))]
        jm[:, small] = np.cumprod(terms, axis=0)       # (x/2)^m / m!
    return jm[: n + 1]


# ---------------------------------------------------------------------------
# Miller's downward recurrence (cylindrical J, spherical j) and spherical functions
# ---------------------------------------------------------------------------
def _miller_downward(order: int, x: np.ndarray, odd: int, f0, f1) -> np.ndarray:
    """Rows 0..max(order, 1) of the solution of f_{m-1} = (2m+odd)/x f_m - f_{m+1}
    that decays with m (Miller): seeded high above the order, recursed down
    with on-the-fly rescaling against overflow, then normalized per column to
    row 0 = f0, or row 1 = f1 where f0 is nearer its zero (no common zeros).
    """
    xmax = float(np.max(x))
    start = int(max(order, xmax)) + 24 + int(2.0 * np.sqrt(max(order, xmax, 1.0)))
    nrows = max(order, 1) + 1
    jm = np.zeros((nrows, x.size))
    fp = np.zeros_like(x)          # f_{m+1}
    fc = np.full_like(x, 1e-300)   # f_m, arbitrary seed
    for m in range(start, -1, -1):
        if m < nrows:
            jm[m] = fc
        fm = (2 * m + odd) / x * fc - fp
        fp, fc = fc, fm
        big = np.abs(fc) > 1e250
        if np.any(big):
            fc[big] *= 1e-250
            fp[big] *= 1e-250
            jm[:, big] *= 1e-250
    use0 = np.abs(f0) >= np.abs(f1)
    denom0 = np.where(jm[0] == 0.0, 1.0, jm[0])
    denom1 = np.where(jm[1] == 0.0, 1.0, jm[1])
    scale = np.where(use0, f0 / denom0, f1 / denom1)
    return jm * scale


def sph_jy_table(l: int, x):
    """j_0..j_l and y_0..y_l at positive x, rows indexed by degree: j by
    Miller's downward recurrence normalized against the closed-form j_0/j_1,
    y by upward recurrence (stable)."""
    l = int(l)
    if l < 0:
        raise DomainError("spherical degree must be >= 0")
    if l > SPH_DEGREE_MAX:
        raise CapacityError(f"spherical degree {l} exceeds ceiling {SPH_DEGREE_MAX}")
    x = np.atleast_1d(_check_x(x))
    sin, cos = np.sin(x), np.cos(x)
    j = _miller_downward(l, x, 1, sin / x, sin / x**2 - cos / x)[: l + 1]
    y = np.zeros((l + 1, x.size))
    y[0] = -cos / x
    if l >= 1:
        y[1] = -cos / x**2 - sin / x
        for m in range(1, l):
            y[m + 1] = (2 * m + 1) / x * y[m] - y[m - 1]
    return j, y


def _of_kind(kind: BesselKind, j, y):
    """j_l, h_l^(1) = j_l + j y_l, or h_l^(2) = conj h_l^(1) (real arguments)."""
    if kind is BesselKind.REGULAR_J:
        return j
    h1 = j + 1j * y
    return h1 if kind is BesselKind.HANKEL1 else np.conj(h1)


def sph_bessel_table(kind: BesselKind, l: int, x):
    """Degrees 0..l of the chosen spherical function at positive x and their
    x-derivatives, rows indexed by degree, from one sph_jy_table.

    f_l' = f_{l-1} - (l+1)/x f_l, with the standard extension below row 0:
    j_{-1} = cos(x)/x, y_{-1} = sin(x)/x, so h1_{-1} = e^{jx}/x.
    """
    x = np.atleast_1d(_check_x(x))
    f = _of_kind(kind, *sph_jy_table(l, x))
    below = _of_kind(kind, np.cos(x) / x, np.sin(x) / x)
    prev = np.concatenate([below[None], f[:-1]])
    return f, prev - np.arange(1, len(f) + 1)[:, None] / x * f


def _shaped(row, x):
    return row[0] if np.ndim(x) == 0 else row.reshape(np.shape(x))


def sph_bessel(kind: BesselKind, degree: int, x):
    """j_l(x), h_l^(1)(x) or h_l^(2)(x) for degree l >= 0."""
    j, y = sph_jy_table(degree, x)
    return _shaped(_of_kind(kind, j[-1], y[-1]), x)


def sph_bessel_dx(kind: BesselKind, degree: int, x):
    """d/dx of the chosen spherical function (see sph_bessel_table)."""
    return _shaped(sph_bessel_table(kind, degree, x)[1][-1], x)


# ---------------------------------------------------------------------------
# Spherical harmonics
# ---------------------------------------------------------------------------
def _legendre_normalized(l: int, m: int, costh: np.ndarray, sinth: np.ndarray):
    """NP_l^m = sqrt((2l+1)/(4pi) (l-m)!/(l+m)!) P_l^m(cos th) for m >= 0.

    Computed by the l-increasing recurrence on the pre-normalized functions;
    P_l^m here carries no Condon-Shortley phase.
    """
    npmm = np.full_like(costh, 1.0 / np.sqrt(4.0 * np.pi))
    for mm in range(1, m + 1):
        npmm = npmm * sinth * np.sqrt((2 * mm + 1) / (2.0 * mm))
    if l == m:
        return npmm
    npm1 = np.sqrt(2 * m + 3.0) * costh * npmm
    if l == m + 1:
        return npm1
    prev2, prev1 = npmm, npm1
    for ll in range(m + 2, l + 1):
        a = np.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - m * m))
        b = np.sqrt(
            (2.0 * ll + 1.0)
            * (ll - 1.0 - m)
            * (ll - 1.0 + m)
            / ((2.0 * ll - 3.0) * (ll * ll - m * m))
        )
        curr = a * costh * prev1 - b * prev2
        prev2, prev1 = prev1, curr
    return prev1


def sph_harm(l: int, m: int, theta, phi):
    """Fully normalized spherical harmonic X_lm(theta, phi).

    X_lm = (-1)^m sqrt((2l+1)/(4pi) (l-m)!/(l+m)!) P_l^m(cos theta) e^{jm phi}
    with the Condon-Shortley phase included here and nowhere else. Satisfies
    conj(X_lm) = (-1)^m X_{l,-m} and unit L2 norm on the sphere.
    """
    l, m = int(l), int(m)
    if l < 0 or abs(m) > l:
        raise DomainError(f"invalid harmonic indices (l={l}, m={m})")
    if l > SPH_DEGREE_MAX:
        raise CapacityError(f"degree {l} exceeds ceiling {SPH_DEGREE_MAX}")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    costh, sinth = np.cos(theta), np.sin(theta)
    base = _legendre_normalized(l, abs(m), costh, sinth)
    phase = np.exp(1j * m * phi)
    if m >= 0:
        out = (-1.0) ** m * base * phase
    else:
        out = base * phase
    if out.ndim == 0:
        return complex(out)
    return out
