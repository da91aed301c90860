from dataclasses import fields

import numpy as np
import pytest
from scipy import special as sp

from wsdelay import volumeq
from wsdelay.errors import ContractError, DomainError
from wsdelay.mie import free_space_smatrix, mie_smatrix, mie_smatrix_deriv
from wsdelay.modal import ModeIndex, ModeSet, conjugate_mode
from wsdelay.smatrix import BoundaryCondition, SMatrix
from wsdelay.specfun import hankel1_table
from wsdelay.volumeq import (
    STYLES,
    _combine,
    _degree_entries,
    _renormalized_integrals,
    _style_corrections,
    surface_identity_check,
    volume_q_matrix,
)
from wsdelay.wigner import QMatrix, q_matrix

SOFT = BoundaryCondition.SOUND_SOFT
HARD = BoundaryCondition.SOUND_HARD

P00 = ModeIndex.spherical(0, 0)


def qtilde_infinity(p: ModeIndex, q: ModeIndex, k: float, radius: float) -> complex:
    """Free-field normalizer integral; analytically 2R delta_pq.

    The true-field surface integral at r = R with no scatterer: the
    free-space S and S' = 0, so j S^dag S' vanishes and the integral is the
    normalizer alone. Its angular factor makes p != q vanish identically.
    """
    modes = ModeSet.spherical(max(p.l, q.l), k)
    s = free_space_smatrix(modes)
    sp = SMatrix(modes=modes, k=k, matrix=np.zeros_like(s.matrix))
    (rep,) = surface_identity_check(s, sp, [(p, q)], radius)
    return rep.numeric_value


def reference_q(bc, k, a, lmax):
    modes = ModeSet.spherical(lmax, k)
    return (
        q_matrix(
            mie_smatrix(3, bc, k, a, modes), mie_smatrix_deriv(3, bc, k, a, modes)
        ),
        modes,
    )


def routes_for(bc, k, a, modes):
    return volume_q_matrix(mie_smatrix(3, bc, k, a, modes), a)


def closed_form(bc, k=1.0, a=2.0, lmax=5):
    modes = ModeSet.spherical(lmax, k)
    return mie_smatrix(3, bc, k, a, modes), mie_smatrix_deriv(3, bc, k, a, modes)


def surface(pairs, radius, bc=SOFT):
    return surface_identity_check(*closed_form(bc), pairs, radius)


def entry(routes, style, p, q, modes):
    """The (q, p) entry of one style's volume-route Q."""
    return routes[style].matrix[modes.position(q), modes.position(p)]


# ---------------------------------------------------------------------------
# references: the per-degree, per-style volume route with one pair of
# recurrences per function, h^(2) = j - jy and h^(2)' formed on its own;
# alpha_l and alpha_l' come off the (l, 0) diagonal of the same S and S'
# ---------------------------------------------------------------------------
def ref_hankel(l, z, sign):
    """h_l^(1) (sign +1) or h_l^(2) (sign -1) from its own j/y table."""
    h = hankel1_table(3, l, z)[0]
    j, y = h.real, h.imag
    return j[l] + 1j * y[l] if sign > 0 else j[l] - 1j * y[l]


def ref_hankel_dx(l, z, sign):
    z = np.atleast_1d(z)
    h = hankel1_table(3, max(l, 1), z)[0]
    j, y = h.real, h.imag
    if l == 0:
        jm1, ym1 = np.cos(z) / z, np.sin(z) / z
    else:
        jm1, ym1 = j[l - 1], y[l - 1]
    if sign > 0:
        prev, curr = jm1 + 1j * ym1, j[l] + 1j * y[l]
    else:
        prev, curr = jm1 - 1j * ym1, j[l] - 1j * y[l]
    return prev - (l + 1) / z * curr


def ref_diagonal(matrix, modes, l):
    i = modes.position(ModeIndex.spherical(l, 0))
    return matrix[i, i]


def ref_field(l, beta, k, z):
    """The degree-l field c1 (h^(1) + alpha_l h^(2)) at z and its z-derivative."""
    c1 = k * 1j ** (l + 1)
    c2 = c1 * ((-1.0) ** (l + 1) * beta)
    f = c1 * ref_hankel(l, z, 1) + c2 * ref_hankel(l, z, -1)
    fx = c1 * ref_hankel_dx(l, z, 1) + c2 * ref_hankel_dx(l, z, -1)
    return f, fx


def ref_renormalized_integrals(l, beta, k, a):
    """The R -> inf renormalized integrals of one degree: Lommel's integral
    and Green's identity at r = a, and the R-end constants -Im(beta)/k and
    k Im(beta) of the closed forms less the free field."""
    x = k * a
    f, fx = (v[0] for v in ref_field(l, beta, k, np.array([x])))
    f2, cross = np.abs(f) ** 2, np.real(np.conj(f) * fx)
    lommel = 0.5 * x**3 * (f2 + np.abs(fx) ** 2 - l * (l + 1) * f2 / x**2) + 0.5 * x**2 * cross
    d_ff = -lommel / k**3 - beta.imag / k
    return d_ff, k**2 * d_ff - x**2 * cross / k + 2.0 * k * beta.imag


def gauss_panels(lo, hi, k, nodes_per_wavelength):
    """Composite 12-point Gauss nodes/weights on [lo, hi] with
    nodes_per_wavelength nodes per radial wavelength."""
    x, w = np.polynomial.legendre.leggauss(12)
    panel = (2.0 * np.pi / k) * len(x) / nodes_per_wavelength
    edges = np.linspace(lo, hi, max(int(np.ceil((hi - lo) / panel)), 1) + 1)
    half = 0.5 * np.diff(edges)[:, None]
    return (0.5 * (edges[:-1] + edges[1:])[:, None] + half * x).ravel(), (half * w).ravel()


def quadrature_shell_integrals(l, beta, k, lo, hi, nodes_per_wavelength=48.0):
    """The field and gradient energies over [lo, hi] by composite Gauss
    quadrature."""
    r, w = gauss_panels(lo, hi, k, nodes_per_wavelength)
    f, fx = ref_field(l, beta, k, k * r)
    t_ff = np.sum(w * np.abs(f) ** 2 * r**2)
    t_gg = np.sum(w * (np.abs(k * fx) ** 2 * r**2 + l * (l + 1) * np.abs(f) ** 2))
    return t_ff, t_gg


def ref_volume_q_matrix(style, s, a):
    k, modes = s.k, s.modes
    lmax = max(p.l for p in modes.modes)
    diff_by_l = [
        ref_renormalized_integrals(l, ref_diagonal(s.matrix, modes, l), k, a)
        for l in range(lmax + 1)
    ]
    d_ff, d_gg = (np.diag([diff_by_l[p.l][i] for p in modes.modes]) for i in (0, 1))
    corr = 0.0
    if style != "symmetric":
        corr = _style_corrections(s.matrix, modes, k)
    out = _combine(style, d_ff, d_gg, k, corr)
    presym = float(
        np.linalg.norm(out - out.conj().T) / max(np.linalg.norm(out), 1e-300)
    )
    herm = 0.5 * (out + out.conj().T)
    return QMatrix(
        matrix=herm, k=k, modes=modes, provenance="volume-integral", presym_residual=presym
    )


def ref_dk_profile_terms(l, k, z, alpha, dalpha):
    """The radial terms from four separate evaluations at z."""
    h1, h2 = ref_hankel(l, z, 1)[0], ref_hankel(l, z, -1)[0]
    d1, d2 = ref_hankel_dx(l, z, 1)[0], ref_hankel_dx(l, z, -1)[0]
    ll = l * (l + 1)
    dd1 = -(2.0 / z) * d1 + (ll / z**2 - 1.0) * h1
    dd2 = -(2.0 / z) * d2 + (ll / z**2 - 1.0) * h2
    pref = 1j ** (l + 1)
    f = k * pref * (h1 + alpha * h2)
    df_dk = pref * ((h1 + alpha * h2) + z * (d1 + alpha * d2) + k * dalpha * h2)
    df_dr = k * pref * k * (d1 + alpha * d2)
    d2f_drdk = pref * k * (
        2.0 * (d1 + alpha * d2) + z * (dd1 + alpha * dd2) + k * dalpha * d2
    )
    return f, df_dk, df_dr, d2f_drdk


class TestOneTableAgainstPerDegreeReference:
    @pytest.mark.parametrize("bc", [SOFT, HARD], ids=["soft", "hard"])
    @pytest.mark.parametrize("lmax", [3, 9])
    @pytest.mark.parametrize("k,a", [(1.0, 2.0), (0.7, 1.0)])
    def test_every_style_entrywise(self, bc, lmax, k, a):
        # the reference's per-degree tables seed Miller's recurrence at
        # their own degree, so its j_l differ from the one table's in the
        # last bits: every entry agrees to 4e-15 of itself (1.6e-15 read)
        s = mie_smatrix(3, bc, k, a, ModeSet.spherical(lmax, k))
        routes = volume_q_matrix(s, a)
        assert list(routes) == list(STYLES)
        for style in STYLES:
            ref = ref_volume_q_matrix(style, s, a)
            got = routes[style].matrix
            assert np.all(np.abs(got - ref.matrix) <= 4e-15 * np.abs(ref.matrix)), style
            assert routes[style].presym_residual == ref.presym_residual, style

    @pytest.mark.parametrize("bc", [SOFT, HARD], ids=["soft", "hard"])
    @pytest.mark.parametrize(
        "p,q",
        [
            ((0, 0), (0, 0)),
            ((1, 0), (1, 0)),
            ((0, 0), (1, 0)),
            ((2, -1), (2, 1)),
            ((5, 3), (5, 3)),
        ],
    )
    @pytest.mark.parametrize("radius", [200.0, 400.0])
    def test_surface_identity_bitwise(self, monkeypatch, bc, p, q, radius):
        pairs = [(ModeIndex.spherical(*p), ModeIndex.spherical(*q))]
        s, sp = closed_form(bc)
        (got,) = surface_identity_check(s, sp, pairs, radius)

        def ref_terms(l, k, z, *_):
            # alpha_l and alpha_l' off the (l, 0) diagonals, ignoring the
            # coefficients and table rows passed in
            sign = (-1.0) ** (l + 1)
            return ref_dk_profile_terms(l, k, z, sign * ref_diagonal(s.matrix, s.modes, l),
                                        sign * ref_diagonal(sp.matrix, sp.modes, l))

        monkeypatch.setattr(volumeq, "_dk_profile_terms", ref_terms)
        (want,) = surface_identity_check(s, sp, pairs, radius)
        for fld in fields(got):
            assert getattr(got, fld.name) == getattr(want, fld.name), fld.name

    def test_one_call_serves_every_pair(self):
        pairs = [
            (ModeIndex.spherical(0, 0), ModeIndex.spherical(0, 0)),
            (ModeIndex.spherical(2, -1), ModeIndex.spherical(2, 1)),
            (ModeIndex.spherical(1, 0), ModeIndex.spherical(3, 0)),
        ]
        together = surface(pairs, 200.0, bc=HARD)
        assert len(together) == len(pairs)
        for pair, got in zip(pairs, together):
            (want,) = surface([pair], 200.0, bc=HARD)
            assert got == want


class TestRenormalizedIntegrals:
    # D(a1) - D(a2) is the total field's energy over [a1, a2], whatever the
    # R-end constants; it must match composite Gauss quadrature of the
    # integrands at 48 nodes per radial wavelength
    @staticmethod
    def assert_shell_matches(betas, k, a1, a2):
        inner = _renormalized_integrals(betas, k, a1)
        outer = _renormalized_integrals(betas, k, a2)
        for l, beta in enumerate(betas):
            want = quadrature_shell_integrals(l, beta, k, a1, a2)
            for d1, d2, w in zip(inner, outer, want):
                assert abs((d1[l] - d2[l]) - w) <= 1e-12 * abs(w), l

    @pytest.mark.parametrize("bc", [SOFT, HARD], ids=["soft", "hard"])
    @pytest.mark.parametrize("k,a", [(1.0, 2.0), (0.7, 1.0)])
    @pytest.mark.parametrize("kr", [200.0, 400.0])
    def test_match_fine_quadrature(self, bc, k, a, kr):
        lmax = 9
        modes = ModeSet.spherical(lmax, k)
        betas = _degree_entries(mie_smatrix(3, bc, k, a, modes).matrix, modes, lmax)
        self.assert_shell_matches(betas, k, a, kr / k)

    @pytest.mark.parametrize("a2", [60.0, 200.0])
    def test_any_outgoing_coefficient(self, a2):
        # Lommel's integral holds for every combination of h^(1) and h^(2)
        betas = np.array([0.3 - 0.4j, 2.5 * np.exp(-2.1j), 1j, -0.8])
        self.assert_shell_matches(betas, 1.0, 2.0, a2)


class TestRadialProfile:
    @pytest.mark.parametrize("bc", [SOFT, HARD])
    @pytest.mark.parametrize("l", [0, 1, 4])
    def test_boundary_condition_satisfied(self, bc, l):
        # the (l, 0) diagonal of S is beta_l = (-1)^(l+1) alpha_l, and the
        # degree-l field h^(1) + alpha_l h^(2) meets the boundary condition
        k, a = 1.0, 2.0
        modes = ModeSet.spherical(4, k)
        beta = _degree_entries(mie_smatrix(3, bc, k, a, modes).matrix, modes, 4)[l]
        alpha = (-1.0) ** (l + 1) * beta
        h, dh = hankel1_table(3, l, k * a)
        f = h if bc is SOFT else dh                 # field or its radial derivative
        value = f[l, 0] + alpha * np.conj(f[l, 0])
        assert abs(value) / abs(f[l, 0]) < 1e-10


class TestVolumeQEntries:
    def test_soft_monopole_reference(self):
        modes = ModeSet.spherical(0, 1.0)
        routes = routes_for(SOFT, 1.0, 1.0, modes)
        for style in STYLES:
            v = entry(routes, style, P00, P00, modes)
            assert v.real == pytest.approx(-2.0, abs=2e-5)
            # the diagonal's imaginary part before symmetrization
            assert routes[style].presym_residual < 1e-12

    def test_off_block_entries_vanish(self):
        modes = ModeSet.spherical(2, 1.0)
        routes = routes_for(SOFT, 1.0, 1.0, modes)
        p, q = ModeIndex.spherical(1, 0), ModeIndex.spherical(2, 0)
        for style in STYLES:
            assert entry(routes, style, p, q, modes) == 0.0
        # same degree, different order
        p, q = ModeIndex.spherical(2, 1), ModeIndex.spherical(2, -1)
        for style in STYLES:
            assert abs(entry(routes, style, p, q, modes)) < 1e-14

    @pytest.mark.parametrize("bc", [SOFT, HARD])
    def test_route_equivalence_all_styles(self, bc):
        k, a = 1.0, 2.0  # ka = 2
        qref, modes = reference_q(bc, k, a, 3)
        routes = routes_for(bc, k, a, modes)
        for l in range(4):
            p = ModeIndex.spherical(l, 0)
            ref = qref.matrix[modes.position(p), modes.position(p)].real
            for style in STYLES:
                v = entry(routes, style, p, p, modes)
                assert abs(v - ref) / abs(ref) < 1e-3

    def test_styles_agree_pairwise(self):
        p = ModeIndex.spherical(1, 0)
        modes = ModeSet.spherical(1, 1.0)
        routes = routes_for(SOFT, 1.0, 2.0, modes)
        vals = {style: entry(routes, style, p, p, modes) for style in STYLES}
        assert abs(vals["a"] - vals["b"]) / abs(vals["symmetric"]) < 1e-3
        combo = 0.5 * (vals["a"] + vals["b"])
        assert combo == pytest.approx(vals["symmetric"], rel=1e-12)

    @pytest.mark.parametrize("bc", [SOFT, HARD], ids=["soft", "hard"])
    @pytest.mark.parametrize("k,a", [(1.0, 2.0), (0.7, 1.0)])
    def test_every_style_tight(self, bc, k, a):
        qref, modes = reference_q(bc, k, a, 3)
        routes = routes_for(bc, k, a, modes)
        scale = np.max(np.abs(np.diag(qref.matrix)))
        for style in STYLES:
            assert np.max(np.abs(routes[style].matrix - qref.matrix)) <= 1e-12 * scale, style

    def test_validation(self):
        with pytest.raises(ContractError):
            volume_q_matrix(mie_smatrix(2, SOFT, 1.0, 1.0, ModeSet.angular(0, 1.0)), 1.0)


class TestVolumeQMatrix:
    @pytest.mark.parametrize("style", STYLES)
    def test_full_matrix_matches_reference(self, style):
        k, a = 1.0, 2.0
        modes = ModeSet.spherical(2, k)
        qref, _ = reference_q(SOFT, k, a, 2)
        qvol = routes_for(SOFT, k, a, modes)[style]
        scale = np.max(np.abs(np.diag(qref.matrix)))
        assert np.max(np.abs(qvol.matrix - qref.matrix)) / scale < 1e-3
        assert qvol.provenance == "volume-integral"
        assert np.array_equal(qvol.matrix, qvol.matrix.conj().T)

    @pytest.mark.parametrize("bc", [SOFT, HARD])
    @pytest.mark.parametrize("lmax", [3, 9])
    def test_style_corrections_match_entrywise_formula(self, bc, lmax):
        k, a = 1.0, 2.0
        modes = ModeSet.spherical(lmax, k)
        s = mie_smatrix(3, bc, k, a, modes).matrix
        corr = _style_corrections(s, modes, k)
        for row in range(len(modes)):
            for col, p in enumerate(modes.modes):
                pt = modes.position(conjugate_mode(p)[0])
                ref = (1j / (2.0 * k)) * (-1.0) ** p.m * (np.conj(s[pt, row]) - s[row, pt])
                assert corr[row, col] == ref


class TestHighDegreeRoutes:
    # l_max 9: the l = 9 entries of Q are ~1e-9, so the routes must
    # resolve them to far below the O(1) scale of the low degrees
    @pytest.mark.parametrize("bc", [SOFT, HARD], ids=["soft", "hard"])
    def test_every_style_and_diagonal_entry(self, bc):
        k, a, lmax = 1.0, 2.0, 9
        qref, modes = reference_q(bc, k, a, lmax)
        routes = routes_for(bc, k, a, modes)
        diag = np.diag(qref.matrix)
        scale = np.max(np.abs(diag))
        for style in STYLES:
            got = routes[style].matrix
            assert np.max(np.abs(got - qref.matrix)) / scale <= 1e-12, style
            rel = np.abs(np.diag(got) - diag) / np.abs(diag)
            assert np.max(rel) <= 1e-12, style


class TestQtildeInfinity:
    @pytest.mark.parametrize("lm", [(0, 0), (1, 0), (3, 2)])
    def test_diagonal_is_twice_radius(self, lm):
        p = ModeIndex.spherical(*lm)
        assert abs(qtilde_infinity(p, p, 1.0, 100.0) - 200.0) / 200.0 < 0.005

    def test_off_diagonal_vanishes(self):
        v = qtilde_infinity(ModeIndex.spherical(1, 0), ModeIndex.spherical(2, 0), 1.0, 100.0)
        assert abs(v) < 1e-6 * 100.0


class TestSurfaceIdentity:
    @pytest.mark.parametrize(
        "p,q",
        [
            (ModeIndex.spherical(0, 0), ModeIndex.spherical(0, 0)),
            (ModeIndex.spherical(2, 1), ModeIndex.spherical(2, 1)),
            (ModeIndex.spherical(1, 0), ModeIndex.spherical(2, 0)),
            (ModeIndex.spherical(2, -1), ModeIndex.spherical(2, 1)),
        ],
    )
    def test_closed_form_is_algebraically_exact(self, p, q):
        (rep,) = surface([(p, q)], 200.0)
        assert rep.algebraic_residual < 1e-12

    def test_validation(self):
        s2 = mie_smatrix(2, SOFT, 1.0, 1.0, ModeSet.angular(1, 1.0))
        with pytest.raises(ContractError):
            surface_identity_check(s2, s2, [(P00, P00)], 200.0)
        with pytest.raises(DomainError):
            surface([(P00, P00)], 30.0)

    def test_numeric_quadrature_matches_closed_form(self):
        p = ModeIndex.spherical(2, 1)
        (rep,) = surface([(p, p)], 200.0)
        assert rep.numeric_rel_error < 0.01

    def test_numeric_error_improves_with_radius(self):
        p = ModeIndex.spherical(2, 1)
        e1 = surface([(p, p)], 200.0)[0].numeric_rel_error
        e2 = surface([(p, p)], 400.0)[0].numeric_rel_error
        assert e2 < 0.7 * e1

    @pytest.mark.parametrize("bc", [SOFT, HARD])
    @pytest.mark.parametrize("k", [0.5, 1.0])
    @pytest.mark.parametrize("radius", [200.0, 400.0])
    def test_numeric_delay_part_sees_the_sign_of_alpha(self, bc, k, radius):
        # the monopole field (e^{jkr} + beta e^{-jkr})/r is exact at every r,
        # so its surface integral is exactly 2R + j (S^dag S')_00 plus the
        # term of the -f/r part of df/dr, -(1 + Re(beta e^{-2jkR}))/(k^2 R).
        # With 2R subtracted that term is resolved; flipping the sign of
        # alpha_0 and alpha_0' moves it by 2 |Re(beta e^{-2jkR})|/(k^2 R),
        # which the relative error against 2R hides
        s, sp = closed_form(bc, k=k)
        (rep,) = surface_identity_check(s, sp, [(P00, P00)], radius)
        i = s.modes.position(P00)
        wave = s.matrix[i, i] * np.exp(-2j * k * radius)
        want = rep.reference_value - 2.0 * radius - (1.0 + wave.real) / (k * k * radius)
        assert abs(rep.numeric_value - 2.0 * radius - want) < 1e-9

    def test_oscillatory_terms_cancel_in_combination(self):
        # combined closed form depends on R only through 2R delta_pq
        p = ModeIndex.spherical(1, 0)
        r1, r2 = 200.0, 214.7
        c1 = surface([(p, p)], r1)[0].closed_value
        c2 = surface([(p, p)], r2)[0].closed_value
        assert abs((c2 - c1) - 2.0 * (r2 - r1)) < 1e-10 * max(abs(c1), abs(c2))


def ref_surface_quadrature(s, sp_, p, q, radius, n_theta=48, n_phi=96):
    """The true-field surface integral with its angular factor taken by a
    Gauss-Legendre x trapezoid product rule over scipy's harmonics."""
    k = s.k
    sign_p, sign_q = (-1.0) ** (p.l + 1), (-1.0) ** (q.l + 1)
    fp, fp_k, _, fp_rk = ref_dk_profile_terms(
        p.l, k, k * radius, sign_p * ref_diagonal(s.matrix, s.modes, p.l),
        sign_p * ref_diagonal(sp_.matrix, sp_.modes, p.l))
    fq, _, fq_r, _ = ref_dk_profile_terms(
        q.l, k, k * radius, sign_q * ref_diagonal(s.matrix, s.modes, q.l),
        sign_q * ref_diagonal(sp_.matrix, sp_.modes, q.l))
    radial = fp_k * np.conj(fq_r) - np.conj(fq) * fp_rk + np.conj(fq_r) * fp / k
    u, wu = np.polynomial.legendre.leggauss(n_theta)
    tt, pp = np.meshgrid(np.arccos(u), np.arange(n_phi) * (2.0 * np.pi / n_phi),
                         indexing="ij")
    xpq = sp.sph_harm_y(p.l, p.m, tt, pp) * np.conj(sp.sph_harm_y(q.l, q.m, tt, pp))
    angular = np.sum(xpq * wu[:, None]) * (2.0 * np.pi / n_phi)
    return radial * angular * radius**2 / (2.0 * k)


class TestSurfaceOrthonormality:
    # the numeric side takes the angular integral of X_p conj(X_q) as
    # delta_pq; an explicit quadrature over the sphere must agree
    @pytest.mark.parametrize("bc", [SOFT, HARD], ids=["soft", "hard"])
    @pytest.mark.parametrize(
        "p,q",
        [
            ((0, 0), (0, 0)),
            ((1, 0), (1, 0)),
            ((5, -3), (5, -3)),
            ((0, 0), (1, 0)),
            ((2, -1), (2, 1)),
        ],
    )
    def test_numeric_value_matches_sphere_quadrature(self, bc, p, q):
        radius = 200.0
        p, q = ModeIndex.spherical(*p), ModeIndex.spherical(*q)
        s, sp_ = closed_form(bc)
        (rep,) = surface_identity_check(s, sp_, [(p, q)], radius)
        want = ref_surface_quadrature(s, sp_, p, q, radius)
        assert abs(rep.numeric_value - want) <= 1e-12 * max(abs(rep.closed_value), 1.0)
        if p != q:
            assert rep.numeric_value == 0.0
