import numpy as np
import pytest

from wsdelay.errors import ContractError, DomainError
from wsdelay.mie import mie_smatrix, mie_smatrix_deriv
from wsdelay.modal import ModeIndex, ModeSet, conjugate_mode
from wsdelay.smatrix import BoundaryCondition
from wsdelay.volumeq import (
    QuadratureSpec,
    STYLES,
    _style_corrections,
    make_radial_profile,
    q_entry_volume,
    qtilde_infinity,
    surface_identity_check,
    volume_q_matrix,
)
from wsdelay.wigner import q_matrix

SOFT = BoundaryCondition.SOUND_SOFT
HARD = BoundaryCondition.SOUND_HARD

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


class TestRadialProfile:
    @pytest.mark.parametrize("bc", [SOFT, HARD])
    @pytest.mark.parametrize("l", [0, 1, 4])
    def test_boundary_condition_satisfied(self, bc, l):
        prof = make_radial_profile(l, bc, 1.0, 2.0)
        assert prof.boundary_residual() < 1e-10


class TestQEntryVolume:
    def test_soft_monopole_reference(self):
        for style in STYLES:
            v = q_entry_volume(style, P00, P00, SOFT, 1.0, 1.0, QUAD)
            assert v.real == pytest.approx(-2.0, abs=2e-5)
            assert abs(v.imag) < 1e-12

    def test_off_block_entries_vanish(self):
        p, q = ModeIndex.spherical(1, 0), ModeIndex.spherical(2, 0)
        for style in STYLES:
            assert q_entry_volume(style, p, q, SOFT, 1.0, 1.0, QUAD) == 0.0
        # same degree, different order
        p, q = ModeIndex.spherical(2, 1), ModeIndex.spherical(2, -1)
        for style in STYLES:
            assert abs(q_entry_volume(style, p, q, SOFT, 1.0, 1.0, QUAD)) < 1e-14

    @pytest.mark.parametrize("bc", [SOFT, HARD])
    def test_route_equivalence_all_styles(self, bc):
        k, a = 1.0, 2.0  # ka = 2
        qref, modes = reference_q(bc, k, a, 3)
        for l in range(4):
            p = ModeIndex.spherical(l, 0)
            ref = qref.matrix[modes.position(p), modes.position(p)].real
            for style in STYLES:
                v = q_entry_volume(style, p, p, bc, k, a, QUAD)
                assert abs(v - ref) / abs(ref) < 1e-3

    def test_styles_agree_pairwise(self):
        p = ModeIndex.spherical(1, 0)
        vals = {
            style: q_entry_volume(style, p, p, SOFT, 1.0, 2.0, QUAD) for style in STYLES
        }
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
            errs.append(abs(q_entry_volume("symmetric", p, p, SOFT, k, a, quad) - ref))
        assert errs[1] < errs[0] / 4.0

    def test_r_independence_with_tail_closure(self):
        v1 = q_entry_volume("symmetric", P00, P00, SOFT, 1.0, 1.0, QuadratureSpec(160.0))
        v2 = q_entry_volume("symmetric", P00, P00, SOFT, 1.0, 1.0, QuadratureSpec(200.0))
        assert abs(v1 - v2) / abs(v2) < 1e-3

    def test_truncated_tail_shows_cutoff_error(self):
        # without the closure the sharp cutoff leaves an O(1/(k^2 R)) artifact
        e_trunc = abs(
            q_entry_volume(
                "symmetric", P00, P00, SOFT, 1.0, 1.0, QuadratureSpec(100.0, tail="none")
            )
            + 2.0
        )
        e_closed = abs(
            q_entry_volume("symmetric", P00, P00, SOFT, 1.0, 1.0, QuadratureSpec(100.0))
            + 2.0
        )
        assert e_closed < e_trunc / 100.0
        assert e_trunc < 4.0 / 100.0  # bounded by 2 sin^2 / (k^2 R) * safety

    def test_validation(self):
        with pytest.raises(DomainError):
            q_entry_volume("symmetric", P00, P00, SOFT, 1.0, 1.0, QuadratureSpec(30.0))
        with pytest.raises(DomainError):
            q_entry_volume("nope", P00, P00, SOFT, 1.0, 1.0, QUAD)
        with pytest.raises(ContractError):
            q_entry_volume(
                "symmetric", ModeIndex.angular(0), ModeIndex.angular(0), SOFT, 1.0, 1.0, QUAD
            )


class TestVolumeQMatrix:
    @pytest.mark.parametrize("style", STYLES)
    def test_full_matrix_matches_reference(self, style):
        k, a = 1.0, 2.0
        modes = ModeSet.spherical(2, k)
        qref, _ = reference_q(SOFT, k, a, 2)
        qvol = volume_q_matrix(style, SOFT, k, a, modes, QUAD)
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
