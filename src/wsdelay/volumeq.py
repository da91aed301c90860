"""Volume-integral routes to the time-delay matrix for the centered sphere.

Entries of Q are renormalized volume integrals of energy-like densities:
the total-field integrals over the exterior shell [a, R] minus free-field
counterparts over [0, R], where the free fields are the far-field forms
extended inward and their gradients are the leading-order radial forms
(+-jk times the field); the free-field part is elementary and taken in
closed form. Three styles are implemented:

    symmetric : (1/2) int [phi phi* - free] + (1/2k^2) int [grad grad* - free]
    a         : int [phi phi* - free]               + S-dependent correction
    b         : (1/k^2) int [grad grad* - free]     - the same correction

All three equal j S^dag S' in exact arithmetic. Angular integrals are
reduced exactly by orthonormality/conjugation of the harmonics, leaving the
total field's 1D radial integrals over [a, R], which are closed forms too:
the field energy by Lommel's integral (DLMF 10.22(i), spherical form) and
the gradient energy from it by Green's identity, both evaluated at r = a and
r = R. The Appendix-B surface check takes its angular integral by
orthonormality too, so no harmonic is ever evaluated. Every degree's radial
integrals come from one h^(1) table at k[a, R] (specfun's
sph_hankel1_table: one j/y recurrence for all degrees, derivatives from the
neighbouring row), with h^(2) = conj h^(1) for real arguments, and the three
styles are combinations of that one set of integrals. The fields'
reflection coefficients are read off the S (and, for the surface identity,
the S') under test, never re-derived here.

A sharp cutoff at R leaves an O(1/(k^2 R)) oscillatory boundary error. Since
h_l is exactly a polynomial in 1/r times e^{jkr}/r, the [R, inf) tail of the
renormalized integrand is a finite combination of power and oscillatory
moments and is summed in closed form (repeated integration by parts); with
the tail closure the route is limited only by rounding.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyadd

from .errors import AccuracyError, ContractError, DomainError
from .mie import radial_second_derivative
from .modal import ModeIndex, ModeSet, conjugate_mode
from .smatrix import SMatrix, relative_residual
from .specfun import sph_hankel1_table
from .wigner import QMatrix

STYLES = ("symmetric", "a", "b")


def _degree_entries(matrix: np.ndarray, modes: ModeSet, lmax: int) -> np.ndarray:
    """The (l, 0) diagonal entries for degrees 0..lmax. On S they are the
    outgoing coefficients beta_l = (-1)^(l+1) alpha_l (far form
    field*r -> e^{jkr} + beta e^{-jkr}), on S' their k-derivatives: the 3D
    column phase of (l, 0) is (-1)^(l+1), so both are exact."""
    rows = [modes.position(ModeIndex.spherical(l, 0)) for l in range(lmax + 1)]
    return matrix[rows, rows]


# ---------------------------------------------------------------------------
# exact tails
# ---------------------------------------------------------------------------
def _hankel_poly(l: int, k: float) -> np.ndarray:
    """Coefficients A_s of h_l^(1)(kr) = (-j)^(l+1) e^{jkr}/(kr) sum A_s r^-s.

    A_s = (l+s)!/(s!(l-s)!) (j/(2k))^s, a finite (degree-l) exact expansion.
    """
    coeffs = np.zeros(l + 1, dtype=complex)
    c = 1.0
    for s in range(l + 1):
        coeffs[s] = c * (1j / (2.0 * k)) ** s
        c = c * (l + s + 1) * (l - s) / (s + 1.0)
    return coeffs


def _shift2(p: np.ndarray) -> np.ndarray:
    return np.concatenate([np.zeros(2, dtype=complex), p])


def _osc_moment(s: int, c: complex, radius: float, tol: float = 1e-16) -> complex:
    """integral_R^inf e^{c r} r^{-s} dr for purely imaginary c, |c| R >> s.

    Repeated integration by parts gives the asymptotic series
    -(e^{cR} R^{-s}/c) sum_m (s)_m / (c R)^m, truncated once terms are
    negligible; its terms decrease as long as s + m << |c| R.
    """
    acc = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for m in range(200):
        acc += term
        nxt = term * (s + m) / (c * radius)
        if abs(nxt) < tol * max(abs(acc), 1.0):
            acc += nxt
            break
        if abs(nxt) > abs(term):
            raise AccuracyError("oscillatory tail series diverged; increase kR")
        term = nxt
    return -np.exp(c * radius) * radius ** (-s) / c * acc


def _tail_sums(nonosc: np.ndarray, osc: np.ndarray, beta: complex, k: float, radius: float):
    """Closed-form integral_R^inf of nonosc(u) + 2 Re[conj(beta) e^{2jkr} osc(u)]."""
    scale = max(np.max(np.abs(nonosc)), np.max(np.abs(osc)), 1.0)
    if abs(nonosc[0]) > 1e-10 * scale or (len(nonosc) > 1 and abs(nonosc[1]) > 1e-10 * scale):
        raise AccuracyError("non-integrable tail term; inconsistent expansion")
    if abs(osc[0]) > 1e-10 * scale:
        raise AccuracyError("divergent oscillatory tail term")
    total = 0.0 + 0.0j
    for s in range(2, len(nonosc)):
        total += nonosc[s] * radius ** (1 - s) / (s - 1.0)
    osc_sum = 0.0 + 0.0j
    for s in range(1, len(osc)):
        osc_sum += osc[s] * _osc_moment(s, 2j * k, radius)
    total += np.conj(beta) * osc_sum + np.conj(np.conj(beta) * osc_sum)
    return total


def _difference_tails(l: int, beta: complex, k: float, radius: float):
    """Exact [R, inf) tails of the ff and gg renormalized integrand pairs."""
    a_poly = _hankel_poly(l, k)           # e^{+jkr} side of field*r
    b_poly = np.conj(a_poly)              # e^{-jkr} side
    # field derivative * r: e^{jkr} G(u) + beta e^{-jkr} H(u)
    g_poly = np.zeros(l + 2, dtype=complex)
    h_poly = np.zeros(l + 2, dtype=complex)
    for t in range(l + 2):
        at = a_poly[t] if t <= l else 0.0
        at1 = a_poly[t - 1] if 1 <= t <= l + 1 else 0.0
        g_poly[t] = 1j * k * at - t * at1
        h_poly[t] = np.conj(g_poly[t])
    ll = l * (l + 1)

    nonosc_ff = 2.0 * np.convolve(a_poly, b_poly)
    nonosc_ff[0] -= 2.0
    osc_ff = np.convolve(a_poly, a_poly)
    osc_ff[0] -= 1.0

    nonosc_gg = 2.0 * np.convolve(g_poly, h_poly)
    nonosc_gg[0] -= 2.0 * k**2
    nonosc_gg = polyadd(nonosc_gg, ll * _shift2(2.0 * np.convolve(a_poly, b_poly)))
    osc_gg = np.convolve(g_poly, g_poly)
    osc_gg[0] += k**2
    osc_gg = polyadd(osc_gg, ll * _shift2(np.convolve(a_poly, a_poly)))

    tail_ff = _tail_sums(nonosc_ff, osc_ff, beta, k, radius)
    tail_gg = _tail_sums(nonosc_gg, osc_gg, beta, k, radius)
    return tail_ff, tail_gg


def check_cutoff(k: float, a: float, radius: float, lmax: int) -> float:
    """radius, once it can be the volume routes' cutoff R for degrees 0..lmax:
    kR >= 50, R >= 3a (NaN fails both), and a finite, converged [R, inf) tail
    closure at the top degree, where it is hardest. The sphere's outgoing
    coefficients are unimodular, so beta = 1 stands in for the solve's."""
    if not radius * k >= 50.0:
        raise DomainError("need kR >= 50 for the far-field port region")
    if not radius >= 3.0 * a:
        raise DomainError("need R >= 3a")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            tails = _difference_tails(lmax, 1.0, k, radius)
    except AccuracyError as exc:
        raise DomainError(f"degree {lmax} at kR={k * radius:g}: {exc}") from None
    if not np.all(np.isfinite(tails)):
        raise DomainError(f"degree {lmax} tail closure overflows at kR={k * radius:g}")
    return radius


# ---------------------------------------------------------------------------
# radial integrals
# ---------------------------------------------------------------------------
def _free_field_integrals(betas: np.ndarray, k: float, radius: float):
    """(F_ff, F_gg) per beta: |e^{jkr} + beta e^{-jkr}|^2 and its gradient's
    |jk (e^{jkr} - beta e^{-jkr})|^2 over [0, R], in closed form:
    R (1 + |beta|^2) +- Re(conj(beta) (e^{2jkR} - 1)/(jk)), times k^2 for gg."""
    power = radius * (1.0 + np.abs(betas) ** 2)
    wave = (betas.real * np.sin(2.0 * k * radius)
            + betas.imag * (1.0 - np.cos(2.0 * k * radius))) / k
    return power + wave, k**2 * (power - wave)


def _shell_integrals(betas: np.ndarray, k: float, a: float, radius: float):
    """(T_ff, T_gg) for degrees 0..lmax: the total field's int_a^R |f|^2 r^2 dr
    and int_a^R (|f_r|^2 r^2 + l(l+1) |f|^2) dr from one h^(1) table at
    k[a, R]. The degree-l field is c1 (h_l^(1) + alpha_l h_l^(2)), c1 = k j^(l+1),
    alpha_l = (-1)^(l+1) beta_l. With x = kr and f' = df/dx, Lommel's integral
        int x^2 |f|^2 dx = (x^3/2)(|f|^2 + |f'|^2 - l(l+1)|f|^2/x^2) + (x^2/2) Re(conj(f) f')
    gives T_ff, and as (r^2 f_r)_r = (l(l+1) - k^2 r^2) f, Green's identity
    gives T_gg = [r^2 Re(conj(f) f_r)] + k^2 T_ff."""
    lmax = len(betas) - 1
    c1 = np.array([k * 1j ** (l + 1) for l in range(lmax + 1)])[:, None]
    degree = np.arange(lmax + 1)[:, None]
    c2 = c1 * ((-1.0) ** (degree + 1) * betas[:, None])
    ll = degree * (degree + 1)

    x = k * np.array([a, radius])
    h, dh = sph_hankel1_table(lmax, x)
    f = c1 * h + c2 * np.conj(h)
    fx = c1 * dh + c2 * np.conj(dh)
    f2, cross = np.abs(f) ** 2, np.real(np.conj(f) * fx)
    lommel = 0.5 * x**3 * (f2 + np.abs(fx) ** 2 - ll * f2 / x**2) + 0.5 * x**2 * cross
    green = x**2 * cross / k
    t_ff = (lommel[:, 1] - lommel[:, 0]) / k**3
    return t_ff, green[:, 1] - green[:, 0] + k**2 * t_ff


def _style_corrections(smat: np.ndarray, modes: ModeSet, k: float) -> np.ndarray:
    """S-dependent terms C[q, p] that close the a/b formulations (applied +/-):
    (j/2k) (-1)^m_p (conj S[p~, q] - S[q, p~]) with p~ the conjugate port."""
    perm = [modes.position(conjugate_mode(p)[0]) for p in modes.modes]
    sign = np.array([(-1.0) ** p.m for p in modes.modes])
    return (1j / (2.0 * k)) * sign * (np.conj(smat)[perm, :].T - smat[:, perm])


def _combine(style: str, d_ff, d_gg, k: float, corr=0.0):
    """Q from the renormalized ff and gg integrals in the given style."""
    if style == "symmetric":
        return 0.5 * d_ff + d_gg / (2.0 * k**2)
    if style == "a":
        return d_ff + corr
    return d_gg / k**2 - corr


def volume_q_matrix(s: SMatrix, a: float, radius: float) -> dict:
    """Volume-route Q of the radius-a sphere whose scattering matrix is s,
    cut off at radius R, in every style, {style: QMatrix} in STYLES order:
    k and the modes are s's, every degree's outgoing coefficient is read off
    s, and the radial integrals (diagonal per degree) and the a/b
    corrections come from it."""
    k, modes = s.k, s.modes
    if modes.dim != 3:
        raise ContractError("volume formulation is implemented for dim=3 only")
    degrees = [p.l for p in modes.modes]
    check_cutoff(k, a, radius, max(degrees))
    # per degree: the [a, R] shell integrals less the free-field ones over
    # [0, R], plus the exact tails
    betas = _degree_entries(s.matrix, modes, max(degrees))
    shell, free = _shell_integrals(betas, k, a, radius), _free_field_integrals(betas, k, radius)
    tails = np.array([_difference_tails(l, b, k, radius) for l, b in enumerate(betas)]).T
    d_ff, d_gg = (np.diag((t - f + tail)[degrees]) for t, f, tail in zip(shell, free, tails))
    corr = _style_corrections(s.matrix, modes, k)
    routes = {}
    for style in STYLES:
        out = _combine(style, d_ff, d_gg, k, corr)
        routes[style] = QMatrix(
            matrix=0.5 * (out + out.conj().T), k=k, modes=modes,
            provenance="volume-integral", presym_residual=relative_residual(out, out.conj().T),
        )
    return routes


# ---------------------------------------------------------------------------
# surface-integral identity (closed forms vs quadrature)
# ---------------------------------------------------------------------------
@dataclass
class SurfaceIdentityReport:
    closed_value: complex      # (I1 - I2 + I3) / 2k
    reference_value: complex   # 2R delta_pq + j sum_m S*_mq S'_mp
    algebraic_residual: float
    numeric_value: complex     # the same integral of the true fields at r = R
    numeric_rel_error: float


def _dk_profile_terms(l: int, k: float, z: float, alpha, dalpha, h1, d1):
    """(field, d/dk field, d/dr field, d2/drdk field) of degree l at z = kr,
    given alpha_l, its k-derivative, h_l^(1)(z) and its derivative; h^(2) is
    their conjugate."""
    h2, d2 = np.conj(h1), np.conj(d1)
    dd1 = radial_second_derivative(3, l, z, h1, d1)
    dd2 = radial_second_derivative(3, l, z, h2, d2)
    pref = 1j ** (l + 1)
    f = k * pref * (h1 + alpha * h2)
    df_dk = pref * ((h1 + alpha * h2) + z * (d1 + alpha * d2) + k * dalpha * h2)
    df_dr = k * pref * k * (d1 + alpha * d2)
    d2f_drdk = pref * k * (
        2.0 * (d1 + alpha * d2) + z * (dd1 + alpha * dd2) + k * dalpha * d2
    )
    return f, df_dk, df_dr, d2f_drdk


def surface_identity_check(
    s: SMatrix, sprime: SMatrix, pairs, radius: float
) -> list:
    """Closed-form surface integrals vs direct quadrature vs the WS identity,
    one SurfaceIdentityReport per (p, q) in pairs.

    The closed forms are algebra in S, S' and R and reproduce
    2R delta_pq + j (S^dag S')_qp exactly; the numeric side evaluates the
    true total fields, whose alpha_l and alpha_l' are read off S and S',
    at r = R and deviates by O(1/kR). Its angular integral of X_p conj(X_q)
    is delta_pq by the orthonormality of the ports, so it takes no angular
    grid. One h^(1) table at kR serves every pair.
    """
    k, modes = s.k, s.modes
    if modes.dim != 3:
        raise ContractError("volume formulation is implemented for dim=3 only")
    kr = k * radius
    if not kr >= 50.0:
        raise DomainError("need kR >= 50 for the far-zone surface")
    smat, sp = s.matrix, sprime.matrix
    lmax = max(max(p.l, q.l) for p, q in pairs)
    h, dh = sph_hankel1_table(lmax, kr)
    sign = (-1.0) ** np.arange(1, lmax + 2)
    alpha = sign * _degree_entries(smat, modes, lmax)
    dalpha = sign * _degree_entries(sp, modes, lmax)
    profile = {
        l: _dk_profile_terms(l, k, kr, alpha[l], dalpha[l], h[l, 0], dh[l, 0])
        for l in {m.l for pair in pairs for m in pair}
    }
    e_plus, e_minus = np.exp(2j * k * radius), np.exp(-2j * k * radius)

    reports = []
    for p, q in pairs:
        ip, iq = modes.position(p), modes.position(q)
        ipt = modes.position(conjugate_mode(p)[0])
        sign_p = (-1.0) ** p.m
        delta = 1.0 if ip == iq else 0.0
        ssum = np.sum(np.conj(smat[:, iq]) * sp[:, ip])

        i1 = (
            2.0 * kr * delta
            - sign_p * (1j + kr) * e_plus * np.conj(smat[ipt, iq])
            - 1j * k * e_minus * sp[iq, ip]
            + 1j * k * ssum
            + sign_p * (1j - kr) * e_minus * smat[iq, ipt]
        )
        i2 = (
            -2.0 * kr * delta
            - 1j * k * e_minus * sp[iq, ip]
            - sign_p * kr * e_minus * smat[iq, ipt]
            - sign_p * kr * e_plus * np.conj(smat[ipt, iq])
            - 1j * k * ssum
        )
        i3 = (-sign_p * 1j * e_minus * smat[iq, ipt]
              + 1j * sign_p * e_plus * np.conj(smat[ipt, iq]))

        closed = (i1 - i2 + i3) / (2.0 * k)
        reference = 2.0 * radius * delta + 1j * ssum
        alg_res = abs(closed - reference) / max(abs(reference), 1.0)

        # the true-field surface integral: its angular factor is delta_pq
        fp, fp_k, _, fp_rk = profile[p.l]
        fq, _, fq_r, _ = profile[q.l]
        radial_combo = (
            fp_k * np.conj(fq_r) - np.conj(fq) * fp_rk + np.conj(fq_r) * fp / k
        )
        numeric = radial_combo * delta * radius**2 / (2.0 * k)
        num_err = abs(numeric - closed) / max(abs(closed), 1e-30)

        reports.append(SurfaceIdentityReport(
            closed_value=complex(closed),
            reference_value=complex(reference),
            algebraic_residual=float(alg_res),
            numeric_value=complex(numeric),
            numeric_rel_error=float(num_err),
        ))
    return reports
