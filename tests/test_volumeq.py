from dataclasses import fields

import numpy as np
import pytest

from wsdelay import volumeq
from wsdelay.errors import ContractError, DomainError
from wsdelay.mie import mie_smatrix, mie_smatrix_deriv, modal_reflection_deriv
from wsdelay.modal import ModeIndex, ModeSet, conjugate_mode
from wsdelay.smatrix import BoundaryCondition
from wsdelay.specfun import BesselKind, sph_bessel_table, sph_jy_table
from wsdelay.volumeq import (
    QuadratureSpec,
    STYLES,
    _combine,
    _difference_tails,
    _gauss_panels,
    _style_corrections,
    make_radial_profile,
    outgoing_coefficient,
    qtilde_infinity,
    surface_identity_check,
    volume_q_matrix,
)
from wsdelay.wigner import QMatrix, q_matrix

SOFT = BoundaryCondition.SOUND_SOFT
HARD = BoundaryCondition.SOUND_HARD
H1 = BesselKind.HANKEL1

P00 = ModeIndex.spherical(0, 0)
QUAD = QuadratureSpec(radius=200.0)


def reference_q(bc, k, a, lmax):
    modes = ModeSet.spherical(lmax, k)
    return (
        q_matrix(
            mie_smatrix(3, bc, k, a, modes), mie_smatrix_deriv(3, bc, k, a, modes)
        ),
        modes,
    )


def entry(routes, style, p, q, modes):
    """The (q, p) entry of one style's volume-route Q."""
    return routes[style].matrix[modes.position(q), modes.position(p)]


# ---------------------------------------------------------------------------
# references: the per-degree, per-style volume route with one pair of
# recurrences per function, h^(2) = j - jy and h^(2)' formed on its own
# ---------------------------------------------------------------------------
def ref_hankel(l, z, sign):
    """h_l^(1) (sign +1) or h_l^(2) (sign -1) from its own j/y table."""
    j, y = sph_jy_table(l, z)
    return j[l] + 1j * y[l] if sign > 0 else j[l] - 1j * y[l]


def ref_hankel_dx(l, z, sign):
    z = np.atleast_1d(z)
    j, y = sph_jy_table(max(l, 1), z)
    if l == 0:
        jm1, ym1 = np.cos(z) / z, np.sin(z) / z
    else:
        jm1, ym1 = j[l - 1], y[l - 1]
    if sign > 0:
        prev, curr = jm1 + 1j * ym1, j[l] + 1j * y[l]
    else:
        prev, curr = jm1 - 1j * ym1, j[l] - 1j * y[l]
    return prev - (l + 1) / z * curr


def ref_radial_differences(profile, quad):
    k, a, l = profile.k, profile.a, profile.l
    beta = outgoing_coefficient(l, profile.alpha)
    r_t, w_t = _gauss_panels(a, quad.radius, k, quad.nodes_per_wavelength)
    z = k * r_t
    f = profile.c1 * ref_hankel(l, z, 1) + profile.c2 * ref_hankel(l, z, -1)
    df = k * (profile.c1 * ref_hankel_dx(l, z, 1) + profile.c2 * ref_hankel_dx(l, z, -1))
    t_ff = np.sum(w_t * np.abs(f) ** 2 * r_t**2)
    t_gg = np.sum(w_t * (np.abs(df) ** 2 * r_t**2 + l * (l + 1) * np.abs(f) ** 2))
    r, w = _gauss_panels(0.0, quad.radius, k, quad.nodes_per_wavelength)
    phi_r = np.exp(1j * k * r) + beta * np.exp(-1j * k * r)
    psi_r = 1j * k * (np.exp(1j * k * r) - beta * np.exp(-1j * k * r))
    tail_ff, tail_gg = _difference_tails(l, beta, k, quad.radius)
    d_ff = t_ff - np.sum(w * np.abs(phi_r) ** 2) + tail_ff
    d_gg = t_gg - np.sum(w * np.abs(psi_r) ** 2) + tail_gg
    return complex(d_ff), complex(d_gg)


def ref_volume_q_matrix(style, bc, k, a, modes, quad):
    lmax = max(p.l for p in modes.modes)
    diff_by_l = [
        ref_radial_differences(make_radial_profile(l, bc, k, a), quad)
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


def ref_dk_profile_terms(profile, z, *_):
    """The radial terms from four separate evaluations at z, ignoring the
    table rows passed in."""
    l, k, a = profile.l, profile.k, profile.a
    h1, h2 = ref_hankel(l, z, 1)[0], ref_hankel(l, z, -1)[0]
    d1, d2 = ref_hankel_dx(l, z, 1)[0], ref_hankel_dx(l, z, -1)[0]
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


class TestOneTableAgainstPerDegreeReference:
    @pytest.mark.parametrize("bc", [SOFT, HARD], ids=["soft", "hard"])
    @pytest.mark.parametrize("lmax", [3, 9])
    @pytest.mark.parametrize("kr", [200.0, 400.0])
    def test_every_style_bitwise(self, bc, lmax, kr):
        k, a = 1.0, 2.0
        modes = ModeSet.spherical(lmax, k)
        quad = QuadratureSpec(radius=kr / k)
        routes = volume_q_matrix(bc, k, a, modes, quad)
        assert list(routes) == list(STYLES)
        for style in STYLES:
            ref = ref_volume_q_matrix(style, bc, k, a, modes, quad)
            assert np.array_equal(routes[style].matrix, ref.matrix), style
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
        args = (ModeIndex.spherical(*p), ModeIndex.spherical(*q), bc, 1.0, 2.0, radius)
        got = surface_identity_check(*args)
        monkeypatch.setattr(volumeq, "_dk_profile_terms", ref_dk_profile_terms)
        want = surface_identity_check(*args)
        for fld in fields(got):
            assert getattr(got, fld.name) == getattr(want, fld.name), fld.name


class TestRadialProfile:
    @pytest.mark.parametrize("bc", [SOFT, HARD])
    @pytest.mark.parametrize("l", [0, 1, 4])
    def test_boundary_condition_satisfied(self, bc, l):
        prof = make_radial_profile(l, bc, 1.0, 2.0)
        h, dh = sph_bessel_table(H1, l, prof.k * prof.a)
        f = h if bc is SOFT else dh                 # field or its radial derivative
        value = prof.c1 * f[l, 0] + prof.c2 * np.conj(f[l, 0])
        assert abs(value) / abs(prof.c1 * f[l, 0]) < 1e-10


class TestVolumeQEntries:
    def test_soft_monopole_reference(self):
        modes = ModeSet.spherical(0, 1.0)
        routes = volume_q_matrix(SOFT, 1.0, 1.0, modes, QUAD)
        for style in STYLES:
            v = entry(routes, style, P00, P00, modes)
            assert v.real == pytest.approx(-2.0, abs=2e-5)
            # the diagonal's imaginary part before symmetrization
            assert routes[style].presym_residual < 1e-12

    def test_off_block_entries_vanish(self):
        modes = ModeSet.spherical(2, 1.0)
        routes = volume_q_matrix(SOFT, 1.0, 1.0, modes, QUAD)
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
        routes = volume_q_matrix(bc, k, a, modes, QUAD)
        for l in range(4):
            p = ModeIndex.spherical(l, 0)
            ref = qref.matrix[modes.position(p), modes.position(p)].real
            for style in STYLES:
                v = entry(routes, style, p, p, modes)
                assert abs(v - ref) / abs(ref) < 1e-3

    def test_styles_agree_pairwise(self):
        p = ModeIndex.spherical(1, 0)
        modes = ModeSet.spherical(1, 1.0)
        routes = volume_q_matrix(SOFT, 1.0, 2.0, modes, QUAD)
        vals = {style: entry(routes, style, p, p, modes) for style in STYLES}
        assert abs(vals["a"] - vals["b"]) / abs(vals["symmetric"]) < 1e-3
        combo = 0.5 * (vals["a"] + vals["b"])
        assert combo == pytest.approx(vals["symmetric"], rel=1e-12)

    def test_quadrature_refinement_reduces_error(self):
        k, a = 1.0, 2.0
        qref, modes = reference_q(SOFT, k, a, 2)
        p = ModeIndex.spherical(2, 0)
        ref = qref.matrix[modes.position(p), modes.position(p)].real
        errs = []
        for npw in (8.0, 16.0):
            quad = QuadratureSpec(radius=200.0, nodes_per_wavelength=npw)
            routes = volume_q_matrix(SOFT, k, a, modes, quad)
            errs.append(abs(entry(routes, "symmetric", p, p, modes) - ref))
        assert errs[1] < errs[0] / 4.0

    def test_r_independence_with_tail_closure(self):
        modes = ModeSet.spherical(0, 1.0)
        v1, v2 = (
            entry(volume_q_matrix(SOFT, 1.0, 1.0, modes, QuadratureSpec(r)), "symmetric",
                  P00, P00, modes)
            for r in (160.0, 200.0)
        )
        assert abs(v1 - v2) / abs(v2) < 1e-3

    def test_validation(self):
        modes = ModeSet.spherical(0, 1.0)
        with pytest.raises(DomainError):
            volume_q_matrix(SOFT, 1.0, 1.0, modes, QuadratureSpec(30.0))
        with pytest.raises(ContractError):
            volume_q_matrix(SOFT, 1.0, 1.0, ModeSet.angular(0, 1.0), QUAD)

    @pytest.mark.parametrize(
        "quad",
        [
            QuadratureSpec(float("nan")),
            QuadratureSpec(200.0, nodes_per_wavelength=float("nan")),
            QuadratureSpec(200.0, nodes_per_wavelength=3.0),
            QuadratureSpec(5.0),
        ],
        ids=["radius-nan", "npw-nan", "npw-coarse", "radius-below-3a"],
    )
    def test_quadrature_spec_rejects(self, quad):
        with pytest.raises(DomainError):
            quad.validate(100.0, 2.0)


class TestVolumeQMatrix:
    @pytest.mark.parametrize("style", STYLES)
    def test_full_matrix_matches_reference(self, style):
        k, a = 1.0, 2.0
        modes = ModeSet.spherical(2, k)
        qref, _ = reference_q(SOFT, k, a, 2)
        qvol = volume_q_matrix(SOFT, k, a, modes, QUAD)[style]
        scale = np.max(np.abs(np.diag(qref.matrix)))
        assert np.max(np.abs(qvol.matrix - qref.matrix)) / scale < 1e-3
        assert qvol.provenance == "volume-integral"
        assert qvol.hermiticity_residual() < 1e-12

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


class TestQtildeInfinity:
    def test_diagonal_is_twice_radius(self):
        quad = QuadratureSpec(radius=100.0)
        val = qtilde_infinity(P00, P00, 1.0, quad)
        assert abs(val - 200.0) / 200.0 < 0.005
        p = ModeIndex.spherical(1, 0)
        assert abs(qtilde_infinity(p, p, 1.0, quad) - 200.0) / 200.0 < 0.005

    def test_off_diagonal_vanishes(self):
        quad = QuadratureSpec(radius=100.0)
        v = qtilde_infinity(ModeIndex.spherical(1, 0), ModeIndex.spherical(2, 0), 1.0, quad)
        assert abs(v) < 1e-6 * quad.radius


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
        rep = surface_identity_check(p, q, SOFT, 1.0, 2.0, 200.0)
        assert rep.algebraic_residual < 1e-12

    def test_numeric_quadrature_matches_closed_form(self):
        p = ModeIndex.spherical(2, 1)
        rep = surface_identity_check(p, p, SOFT, 1.0, 2.0, 200.0)
        assert rep.numeric_rel_error < 0.01

    def test_numeric_error_improves_with_radius(self):
        p = ModeIndex.spherical(2, 1)
        e1 = surface_identity_check(p, p, SOFT, 1.0, 2.0, 200.0).numeric_rel_error
        e2 = surface_identity_check(p, p, SOFT, 1.0, 2.0, 400.0).numeric_rel_error
        assert e2 < 0.7 * e1

    def test_oscillatory_terms_cancel_in_combination(self):
        # combined closed form depends on R only through 2R delta_pq
        p = ModeIndex.spherical(1, 0)
        r1, r2 = 200.0, 214.7
        c1 = surface_identity_check(p, p, SOFT, 1.0, 2.0, r1).closed_value
        c2 = surface_identity_check(p, p, SOFT, 1.0, 2.0, r2).closed_value
        assert abs((c2 - c1) - 2.0 * (r2 - r1)) < 1e-10 * max(abs(c1), abs(c2))
