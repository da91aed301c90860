"""Volume-integral routes to the time-delay matrix for the centered sphere.

Entries of Q are renormalized volume integrals of energy-like densities:
the total-field integrals over the exterior [a, R] minus free-field
counterparts over [0, R], in the limit R -> inf, where the free fields are
the far-field forms extended inward and their gradients are the
leading-order radial forms (+-jk times the field). Three styles are
implemented:

    symmetric : (1/2) int [phi phi* - free] + (1/2k^2) int [grad grad* - free]
    a         : int [phi phi* - free]               + S-dependent correction
    b         : (1/k^2) int [grad grad* - free]     - the same correction

All three equal j S^dag S' in exact arithmetic. Angular integrals are
reduced exactly by orthonormality/conjugation of the harmonics, leaving the
total field's 1D radial integrals, which are closed forms: the field energy
by Lommel's integral (DLMF 10.22(i), spherical form) and the gradient energy
from it by Green's identity. Their R-ends less the free-field integrals tend
to constants in the outgoing coefficient, so the R -> inf limit needs the
closed forms at r = a only. The Appendix-B surface check takes its angular
integral by orthonormality too, so no harmonic is ever evaluated. Every
degree's radial integrals come from one h^(1) table at ka (specfun's
hankel1_table: one j/y recurrence for all degrees, derivatives from the
neighbouring row), with h^(2) = conj h^(1) for real arguments, and the three
styles are combinations of that one set of integrals. The fields'
reflection coefficients are read off the S (and, for the surface identity,
the S') under test, never re-derived here.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError
from .mie import radial_second_derivative
from .modal import ModeIndex, ModeSet, conjugate_mode
from .smatrix import SMatrix, relative_residual
from .specfun import hankel1_table
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
# radial integrals
# ---------------------------------------------------------------------------
def _renormalized_integrals(betas: np.ndarray, k: float, a: float):
    """(D_ff, D_gg) for degrees 0..lmax: the total field's int_a^R |f|^2 r^2 dr
    and int_a^R (|f_r|^2 r^2 + l(l+1) |f|^2) dr less the free field's
    |e^{jkr} + beta e^{-jkr}|^2 and |jk (e^{jkr} - beta e^{-jkr})|^2 over
    [0, R], as R -> inf, from one h^(1) table at ka. The degree-l field is
    c1 (h_l^(1) + alpha_l h_l^(2)), c1 = k j^(l+1), alpha_l = (-1)^(l+1) beta_l.
    With x = kr and f' = df/dx, Lommel's integral int x^2 |f|^2 dx = L(x),
        L(x) = (x^3/2)(|f|^2 + |f'|^2 - l(l+1)|f|^2/x^2) + (x^2/2) Re(conj(f) f'),
    gives the field energy, and as (r^2 f_r)_r = (l(l+1) - k^2 r^2) f,
    Green's identity gives the gradient energy as [x^2 Re(conj(f) f')/k]
    + k^2 times the field energy. At r = R the closed forms less the free
    field tend to -Im(beta)/k and k Im(beta), for any beta, so
        D_ff = -L(ka)/k^3 - Im(beta)/k,
        D_gg = k^2 D_ff - (ka)^2 Re(conj(f) f')/k + 2k Im(beta)."""
    lmax = len(betas) - 1
    c1 = np.array([k * 1j ** (l + 1) for l in range(lmax + 1)])
    degree = np.arange(lmax + 1)
    c2 = c1 * ((-1.0) ** (degree + 1) * betas)
    ll = degree * (degree + 1)

    x = k * a
    h, dh = hankel1_table(3, lmax, x)
    h, dh = h[:, 0], dh[:, 0]
    f = c1 * h + c2 * np.conj(h)
    fx = c1 * dh + c2 * np.conj(dh)
    f2, cross = np.abs(f) ** 2, np.real(np.conj(f) * fx)
    lommel = 0.5 * x**3 * (f2 + np.abs(fx) ** 2 - ll * f2 / x**2) + 0.5 * x**2 * cross
    d_ff = -lommel / k**3 - betas.imag / k
    return d_ff, k**2 * d_ff - x**2 * cross / k + 2.0 * k * betas.imag


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


def volume_q_matrix(s: SMatrix, a: float) -> dict:
    """Volume-route Q of the radius-a sphere whose scattering matrix is s,
    in every style, {style: QMatrix} in STYLES order: k and the modes are
    s's, every degree's outgoing coefficient is read off s, and the
    renormalized radial integrals (diagonal per degree) and the a/b
    corrections come from it."""
    k, modes = s.k, s.modes
    if modes.dim != 3:
        raise ContractError("volume formulation is implemented for dim=3 only")
    degrees = [p.l for p in modes.modes]
    betas = _degree_entries(s.matrix, modes, max(degrees))
    d_ff, d_gg = (np.diag(d[degrees]) for d in _renormalized_integrals(betas, k, a))
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
    h, dh = hankel1_table(3, lmax, kr)
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
