"""Volume-integral routes to the time-delay matrix for the centered sphere.

Entries of Q are renormalized volume integrals of energy-like densities:
the total-field integrals over the exterior shell [a, R] minus free-field
counterparts over [0, R], where the free fields are the far-field forms
extended inward and their gradients are the leading-order radial forms
(+-jk times the field). Three styles are implemented:

    symmetric : (1/2) int [phi phi* - free] + (1/2k^2) int [grad grad* - free]
    a         : int [phi phi* - free]               + S-dependent correction
    b         : (1/k^2) int [grad grad* - free]     - the same correction

All three equal j S^dag S' in exact arithmetic. Angular integrals are
reduced exactly by orthonormality/conjugation of the harmonics, leaving 1D
radial integrals done by composite Gauss panels.

A sharp cutoff at R leaves an O(1/(k^2 R)) oscillatory boundary error. Since
h_l is exactly a polynomial in 1/r times e^{jkr}/r, the [R, inf) tail of the
renormalized integrand is a finite combination of power and oscillatory
moments and is summed in closed form (repeated integration by parts); with
the tail closure the route is limited only by quadrature. tail="none" keeps
the raw truncated form for R-convergence studies.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ContractError, DomainError
from .mie import (
    mie_smatrix,
    mie_smatrix_deriv,
    modal_reflection,
    modal_reflection_deriv,
)
from .modal import ModeIndex, ModeSet, conjugate_mode
from .smatrix import BoundaryCondition
from .specfun import BesselKind, sph_bessel, sph_bessel_dx, sph_harm
from .wigner import QMatrix

H1, H2 = BesselKind.HANKEL1, BesselKind.HANKEL2

STYLES = ("symmetric", "a", "b")


@dataclass(frozen=True)
class QuadratureSpec:
    """Radial quadrature layout for the renormalized volume integrals."""

    radius: float                       # outer cutoff R (m)
    nodes_per_wavelength: float = 16.0  # Gauss nodes per radial wavelength
    tail: str = "analytic"              # "analytic" closes [R, inf); "none" truncates

    def validate(self, k: float, a: float):
        if self.radius * k < 50.0:
            raise DomainError("need kR >= 50 for the far-field port region")
        if self.radius < 3.0 * a:
            raise DomainError("need R >= 3a")
        if self.nodes_per_wavelength < 4.0:
            raise DomainError("radial quadrature too coarse")
        if self.tail not in ("analytic", "none"):
            raise DomainError(f"unknown tail mode {self.tail!r}")


@dataclass
class RadialProfile:
    """Radial factor of the total sphere field for one excitation degree l.

    field(r) = c1 h_l^(1)(kr) + c2 h_l^(2)(kr) outside the scatterer, 0
    inside. c2/c1 is the modal reflection coefficient.
    """

    l: int
    bc: BoundaryCondition
    k: float
    a: float
    alpha: complex
    c1: complex
    c2: complex

    def field(self, r):
        z = self.k * np.asarray(r, dtype=float)
        return self.c1 * sph_bessel(H1, self.l, z) + self.c2 * sph_bessel(H2, self.l, z)

    def dfield_dr(self, r):
        z = self.k * np.asarray(r, dtype=float)
        return self.k * (
            self.c1 * sph_bessel_dx(H1, self.l, z)
            + self.c2 * sph_bessel_dx(H2, self.l, z)
        )

    def boundary_residual(self) -> float:
        scale = abs(self.c1) * abs(sph_bessel(H1, self.l, self.k * self.a))
        if self.bc is BoundaryCondition.SOUND_SOFT:
            return float(abs(self.field(self.a))) / max(scale, 1e-300)
        scale_d = abs(self.k * self.c1 * sph_bessel_dx(H1, self.l, self.k * self.a))
        return float(abs(self.dfield_dr(self.a))) / max(scale_d, 1e-300)


def make_radial_profile(l: int, bc: BoundaryCondition, k: float, a: float):
    alpha = modal_reflection(3, bc, l, k * a)
    c1 = k * 1j ** (l + 1)
    return RadialProfile(l=l, bc=bc, k=k, a=a, alpha=alpha, c1=c1, c2=c1 * alpha)


def outgoing_coefficient(l: int, alpha: complex) -> complex:
    """beta with far form field*r -> e^{jkr} + beta e^{-jkr}."""
    return (-1.0) ** (l + 1) * alpha


# ---------------------------------------------------------------------------
# Gauss panels
# ---------------------------------------------------------------------------
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)


def _gauss_panels(lo: float, hi: float, k: float, nodes_per_wavelength: float):
    """Composite 8-point Gauss nodes/weights on [lo, hi]."""
    if hi <= lo:
        raise DomainError("empty radial interval")
    wavelength = 2.0 * np.pi / k
    panel = wavelength * 8.0 / nodes_per_wavelength
    n_panels = max(int(np.ceil((hi - lo) / panel)), 1)
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * _GAUSS_X[None, :]).ravel()
    weights = (half[:, None] * _GAUSS_W[None, :]).ravel()
    return nodes, weights


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
    nonosc_gg = _pad_add(nonosc_gg, ll * _shift2(2.0 * np.convolve(a_poly, b_poly)))
    osc_gg = np.convolve(g_poly, g_poly)
    osc_gg[0] += k**2
    osc_gg = _pad_add(osc_gg, ll * _shift2(np.convolve(a_poly, a_poly)))

    tail_ff = _tail_sums(nonosc_ff, osc_ff, beta, k, radius)
    tail_gg = _tail_sums(nonosc_gg, osc_gg, beta, k, radius)
    return tail_ff, tail_gg


def _pad_add(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    n = max(len(p), len(q))
    out = np.zeros(n, dtype=complex)
    out[: len(p)] += p
    out[: len(q)] += q
    return out


# ---------------------------------------------------------------------------
# radial integrals
# ---------------------------------------------------------------------------
def _free_field_integrals(beta: complex, k: float, quad: QuadratureSpec):
    """(F_ff, F_gg): far-form free-field ff and gg integrals over [0, R]."""
    r, w = _gauss_panels(0.0, quad.radius, k, quad.nodes_per_wavelength)
    phi_r = np.exp(1j * k * r) + beta * np.exp(-1j * k * r)
    psi_r = 1j * k * (np.exp(1j * k * r) - beta * np.exp(-1j * k * r))
    return np.sum(w * np.abs(phi_r) ** 2), np.sum(w * np.abs(psi_r) ** 2)


def _radial_differences(profile: RadialProfile, quad: QuadratureSpec):
    """(D_ff, D_gg): renormalized ff and gg radial integrals incl. tails."""
    k, a, l = profile.k, profile.a, profile.l
    beta = outgoing_coefficient(l, profile.alpha)

    r_t, w_t = _gauss_panels(a, quad.radius, k, quad.nodes_per_wavelength)
    f = profile.field(r_t)
    df = profile.dfield_dr(r_t)
    t_ff = np.sum(w_t * np.abs(f) ** 2 * r_t**2)
    t_gg = np.sum(w_t * (np.abs(df) ** 2 * r_t**2 + l * (l + 1) * np.abs(f) ** 2))
    f_ff, f_gg = _free_field_integrals(beta, k, quad)

    d_ff = t_ff - f_ff
    d_gg = t_gg - f_gg
    if quad.tail == "analytic":
        tail_ff, tail_gg = _difference_tails(l, beta, k, quad.radius)
        d_ff = d_ff + tail_ff
        d_gg = d_gg + tail_gg
    return complex(d_ff), complex(d_gg)


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


def q_entry_volume(
    style: str,
    p: ModeIndex,
    q: ModeIndex,
    bc: BoundaryCondition,
    k: float,
    a: float,
    quad: QuadratureSpec,
) -> complex:
    """One (q, p) entry of the volume-route Q for the centered sphere.

    Angular orthogonality makes every p != q entry vanish up to the a/b
    correction terms, which are evaluated from the sphere's S matrix.
    """
    if style not in STYLES:
        raise DomainError(f"unknown style {style!r}")
    if p.dim != 3 or q.dim != 3:
        raise ContractError("volume formulation is implemented for dim=3 only")
    quad.validate(k, a)

    modes = ModeSet.spherical(max(p.l, q.l), k)
    corr = _style_corrections(mie_smatrix(3, bc, k, a, modes).matrix, modes, k)
    if (p.l, p.m) == (q.l, q.m):
        d_ff, d_gg = _radial_differences(make_radial_profile(p.l, bc, k, a), quad)
    else:
        d_ff = d_gg = 0.0
    return _combine(style, d_ff, d_gg, k, corr[modes.position(q), modes.position(p)])


def volume_q_matrix(
    style: str,
    bc: BoundaryCondition,
    k: float,
    a: float,
    modes: ModeSet,
    quad: QuadratureSpec,
) -> QMatrix:
    """Full volume-route Q on a spherical mode set (diagonal per degree)."""
    if modes.dim != 3:
        raise ContractError("volume formulation is implemented for dim=3 only")
    quad.validate(k, a)
    lmax = max(p.l for p in modes.modes)
    diff_by_l = [
        _radial_differences(make_radial_profile(l, bc, k, a), quad)
        for l in range(lmax + 1)
    ]
    d_ff, d_gg = (np.diag([diff_by_l[p.l][i] for p in modes.modes]) for i in (0, 1))
    corr = 0.0
    if style != "symmetric":
        corr = _style_corrections(mie_smatrix(3, bc, k, a, modes).matrix, modes, k)
    out = _combine(style, d_ff, d_gg, k, corr)
    presym = float(
        np.linalg.norm(out - out.conj().T) / max(np.linalg.norm(out), 1e-300)
    )
    herm = 0.5 * (out + out.conj().T)
    return QMatrix(
        matrix=herm, k=k, modes=modes, provenance="volume-integral", presym_residual=presym
    )


def qtilde_infinity(p: ModeIndex, q: ModeIndex, k: float, quad: QuadratureSpec) -> float:
    """Free-field normalizer integral; analytically 2R delta_pq.

    Uses the free-space outgoing coefficient. The angular reduction makes
    p != q vanish identically; the diagonal radial integrand is evaluated
    numerically over [0, R].
    """
    if p.dim != 3 or q.dim != 3:
        raise ContractError("volume formulation is implemented for dim=3 only")
    if quad.radius * k < 50.0:
        raise DomainError("need kR >= 50")
    if (p.l, p.m) != (q.l, q.m):
        return 0.0
    beta = outgoing_coefficient(p.l, 1.0 + 0.0j)
    return float(_combine("symmetric", *_free_field_integrals(beta, k, quad), k))


# ---------------------------------------------------------------------------
# surface-integral identity (closed forms vs quadrature)
# ---------------------------------------------------------------------------
@dataclass
class SurfaceIdentityReport:
    i1: complex
    i2: complex
    i3: complex
    closed_value: complex      # (I1 - I2 + I3) / 2k
    reference_value: complex   # 2R delta_pq + j sum_m S*_mq S'_mp
    algebraic_residual: float
    numeric_value: complex     # true-field surface quadrature of the same integral
    numeric_rel_error: float
    radius: float
    k: float


def _dk_profile_terms(profile: RadialProfile, r: float):
    """(field, d/dk field, d/dr field, d2/drdk field) at radius r."""
    l, k, a = profile.l, profile.k, profile.a
    z = k * r
    h1, h2 = sph_bessel(H1, l, z), sph_bessel(H2, l, z)
    d1, d2 = sph_bessel_dx(H1, l, z), sph_bessel_dx(H2, l, z)
    ll = l * (l + 1)
    dd1 = -(2.0 / z) * d1 + (ll / z**2 - 1.0) * h1
    dd2 = -(2.0 / z) * d2 + (ll / z**2 - 1.0) * h2
    alpha = profile.alpha
    dalpha = modal_reflection_deriv(3, profile.bc, l, k, a)
    pref = 1j ** (l + 1)
    f = k * pref * (h1 + alpha * h2)
    df_dk = pref * ((h1 + alpha * h2) + z * (d1 + alpha * d2) + k * dalpha * h2)
    df_dr = k * pref * k * (d1 + alpha * d2)
    d2f_drdk = pref * k * (
        2.0 * (d1 + alpha * d2) + z * (dd1 + alpha * dd2) + k * dalpha * d2
    )
    return f, df_dk, df_dr, d2f_drdk


def surface_identity_check(
    p: ModeIndex,
    q: ModeIndex,
    bc: BoundaryCondition,
    k: float,
    a: float,
    radius: float,
    n_theta: int = 48,
    n_phi: int = 96,
) -> SurfaceIdentityReport:
    """Closed-form surface integrals vs direct quadrature vs the WS identity.

    The closed forms are algebra in S, S' and R and reproduce
    2R delta_pq + j (S^dag S')_qp exactly; the numeric side integrates the
    true total fields over the sphere r = R and deviates by O(1/kR).
    """
    if k * radius < 50.0:
        raise DomainError("need kR >= 50 for the far-zone surface")
    lmax = max(p.l, q.l)
    modes = ModeSet.spherical(lmax, k)
    s = mie_smatrix(3, bc, k, a, modes).matrix
    sp = mie_smatrix_deriv(3, bc, k, a, modes).matrix
    ip, iq = modes.position(p), modes.position(q)
    ptilde, _ = conjugate_mode(p)
    ipt = modes.position(ptilde)
    sign = (-1.0) ** p.m
    delta = 1.0 if ip == iq else 0.0
    ssum = np.sum(np.conj(s[:, iq]) * sp[:, ip])
    e_plus, e_minus = np.exp(2j * k * radius), np.exp(-2j * k * radius)
    kr = k * radius

    i1 = (
        2.0 * kr * delta
        - sign * (1j + kr) * e_plus * np.conj(s[ipt, iq])
        - 1j * k * e_minus * sp[iq, ip]
        + 1j * k * ssum
        + sign * (1j - kr) * e_minus * s[iq, ipt]
    )
    i2 = (
        -2.0 * kr * delta
        - 1j * k * e_minus * sp[iq, ip]
        - sign * kr * e_minus * s[iq, ipt]
        - sign * kr * e_plus * np.conj(s[ipt, iq])
        - 1j * k * ssum
    )
    i3 = -sign * 1j * e_minus * s[iq, ipt] + 1j * sign * e_plus * np.conj(s[ipt, iq])

    closed = (i1 - i2 + i3) / (2.0 * k)
    reference = 2.0 * radius * delta + 1j * ssum
    alg_res = abs(closed - reference) / max(abs(reference), 1.0)

    # direct quadrature of the true-field surface integral
    prof_p = make_radial_profile(p.l, bc, k, a)
    prof_q = make_radial_profile(q.l, bc, k, a)
    fp, fp_k, _, fp_rk = _dk_profile_terms(prof_p, radius)
    fq, _, fq_r, _ = _dk_profile_terms(prof_q, radius)
    radial_combo = (
        fp_k * np.conj(fq_r) - np.conj(fq) * fp_rk + np.conj(fq_r) * fp / k
    )
    u, wu = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(u)
    phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    xpq = sph_harm(p.l, p.m, tt, pp) * np.conj(sph_harm(q.l, q.m, tt, pp))
    angular = np.sum(xpq * wu[:, None]) * (2.0 * np.pi / n_phi)
    numeric = radial_combo * angular * radius**2 / (2.0 * k)
    num_err = abs(numeric - closed) / max(abs(closed), 1e-30)

    return SurfaceIdentityReport(
        i1=complex(i1),
        i2=complex(i2),
        i3=complex(i3),
        closed_value=complex(closed),
        reference_value=complex(reference),
        algebraic_residual=float(alg_res),
        numeric_value=complex(numeric),
        numeric_rel_error=float(num_err),
        radius=radius,
        k=k,
    )
