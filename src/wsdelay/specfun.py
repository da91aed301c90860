"""Cylindrical and spherical Bessel/Hankel tables.

Every Bessel/Hankel evaluation is a table: all orders 0..n of one function
on positive real arguments, rows indexed by order. Both dimensions share one
recurrence pair, with odd = 0 for the cylindrical J, Y, H and odd = 1 for
the spherical j, y, h (degree l in the role of the order):

    f_{m-1} + f_{m+1} = (2m+odd)/x f_m,    f_m' = f_{m-1} - (m+odd)/x f_m.

The regular kind (J, j) comes from Miller's downward recurrence, which is
stable for orders above x, normalized against its order-0 and order-1
values; the singular kind (Y, y) from the upward recurrence, which is stable
everywhere. hankel1_table gives H^(1) = J + jY (2D) or h^(1) = j + jy (3D)
of every order 0..n and, from the neighbouring rows, their derivatives; the
seeds are scipy's J/Y at orders 0 and 1 (AMOS, which keeps its digits at
large x) in 2D and the closed forms in 3D. cyl_jn_table gives J alone,
origin included, normalized against scipy's J_0/J_1. H^(2) and h^(2) are
the conjugates.

Everything is pure and reentrant; x may be a scalar or an ndarray.
"""

import numpy as np
from scipy import special as _sp

from .errors import DomainError

# Nominal ceiling. Beyond it, double precision under/overflows for small
# arguments (y_l grows like (2l-1)!!/x^(l+1), Y_n like (n-1)!(2/x)^n).
ORDER_MAX = 200


def hankel1_table(dim: int, n: int, x):
    """H^(1)_0..H^(1)_n (dim 2) or h^(1)_0..h^(1)_n (dim 3) at positive x and
    their x-derivatives, rows indexed by order (see the module docstring).
    Below row 0 the derivative reads H_{-1} = -H_1, or h_{-1} = e^{jx}/x."""
    n = int(n)
    if n < 0:
        raise DomainError("order must be >= 0")
    if n > ORDER_MAX:
        raise DomainError(f"order {n} exceeds ceiling {ORDER_MAX}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise DomainError("argument must be positive and finite")
    odd = dim - 2
    if dim == 3:
        sin, cos = np.sin(x), np.cos(x)
        j0, j1, y0, y1 = sin / x, sin / x**2 - cos / x, -cos / x, -cos / x**2 - sin / x
    else:
        j0, j1, y0, y1 = _sp.jv(0, x), _sp.jv(1, x), _sp.yv(0, x), _sp.yv(1, x)
    j = _miller_downward(n, x, odd, j0, j1)
    y = np.zeros_like(j)
    y[0], y[1] = y0, y1
    for m in range(1, n):
        y[m + 1] = (2 * m + odd) / x * y[m] - y[m - 1]
    f = j + 1j * y
    below = cos / x + 1j * (sin / x) if dim == 3 else -f[1]
    prev = np.concatenate([below[None], f[:n]])
    f = f[: n + 1]
    return f, prev - (np.arange(n + 1)[:, None] + odd) / x * f


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
