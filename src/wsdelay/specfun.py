"""Cylindrical and spherical Bessel/Hankel tables.

Every Bessel/Hankel evaluation is a table: all orders (degrees) 0..n of one
function on positive real arguments, rows indexed by order. Spherical
Bessel functions are computed by recurrence: j_l by downward (Miller-style)
recurrence normalized against the closed-form j_0/j_1, which is stable for
l greater than x, and y_l by upward recurrence, which is stable everywhere.
One sph_jy_table call holds every degree 0..l; sph_hankel1_table gives
h^(1) = j + jy of every degree and, from the neighbouring rows, its
derivatives. Cylindrical J_n comes from the same downward recurrence (one
table of orders 0..n, normalized against scipy's J_0/J_1). The Hankel
functions are delegated to scipy's J and Y behind the same argument
checks: cyl_hankel1_table holds H^(1) of every order 0..n and, from the
neighbouring rows, its derivatives. H^(2) and h^(2) are the conjugates.

Everything is pure and reentrant; x may be a scalar or an ndarray.
"""

import numpy as np
from scipy import special as _sp

from .errors import DomainError

# Nominal ceilings. Beyond these, double precision under/overflows for
# small arguments (y_l grows like (2l-1)!!/x^(l+1)).
CYL_ORDER_MAX = 200
SPH_DEGREE_MAX = 200


def _check_x(x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise DomainError("argument must be positive and finite")
    return x


# ---------------------------------------------------------------------------
# Cylindrical tables (J by recurrence, H^(1) scipy-backed)
# ---------------------------------------------------------------------------
def cyl_hankel1_table(n: int, x):
    """H^(1)_0..H^(1)_n at positive x and their x-derivatives, rows indexed
    by order: scipy's J and Y over the order vector, and
    f_n' = (f_{n-1} - f_{n+1})/2 from the neighbouring rows, f_{-1} = -f_1."""
    if n > CYL_ORDER_MAX:
        raise DomainError(f"cylindrical order {n} exceeds ceiling {CYL_ORDER_MAX}")
    x = np.atleast_1d(_check_x(x))
    order = np.arange(n + 2)[:, None]
    f = _sp.jv(order, x) + 1j * _sp.yv(order, x)
    prev = np.concatenate([-f[1:2], f[:-2]])
    return f[:-1], 0.5 * (prev - f[1:])


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
        raise DomainError(f"spherical degree {l} exceeds ceiling {SPH_DEGREE_MAX}")
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


def sph_hankel1_table(l: int, x):
    """h^(1)_0..h^(1)_l at positive x and their x-derivatives, rows indexed
    by degree, from one sph_jy_table.

    f_l' = f_{l-1} - (l+1)/x f_l, with the standard extension below row 0:
    j_{-1} = cos(x)/x, y_{-1} = sin(x)/x, so h1_{-1} = e^{jx}/x.
    """
    x = np.atleast_1d(_check_x(x))
    j, y = sph_jy_table(l, x)
    f = j + 1j * y
    below = np.cos(x) / x + 1j * (np.sin(x) / x)
    prev = np.concatenate([below[None], f[:-1]])
    return f, prev - np.arange(1, len(f) + 1)[:, None] / x * f
