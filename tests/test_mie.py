import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

from wsdelay.errors import ContractError, DomainError
from wsdelay.fields import GridSpec, modal_excitation_fields, region_masks
from wsdelay.geometry import make_circle
from wsdelay.mie import (
    _assemble,
    free_space_smatrix,
    mie_smatrix,
    mie_smatrix_deriv,
    reflection_table,
)
from wsdelay.modal import ModeIndex, ModeSet, regular_waves_batch
from wsdelay.smatrix import BoundaryCondition
from wsdelay.specfun import hankel1_table
from test_modal import outgoing_template, ref_incoming, ref_outgoing, ref_regular

SOFT = BoundaryCondition.SOUND_SOFT
HARD = BoundaryCondition.SOUND_HARD


# ---------------------------------------------------------------------------
# reference: one order at a time, both Hankel kinds and both derivatives
# from their own evaluations, h^(2) = j - jy rather than the conjugate of
# h^(1)
# ---------------------------------------------------------------------------
def ref_sph(l, z, sign):
    h = hankel1_table(3, l, z)[0]
    j, y = h.real, h.imag
    return (j[l] + 1j * y[l] if sign > 0 else j[l] - 1j * y[l])[0]


def ref_sph_dx(l, z, sign):
    h = hankel1_table(3, max(l, 1), z)[0]
    j, y = h.real, h.imag
    jm1, ym1 = (np.cos(z) / z, np.sin(z) / z) if l == 0 else (j[l - 1][0], y[l - 1][0])
    if sign > 0:
        prev, curr = jm1 + 1j * ym1, j[l][0] + 1j * y[l][0]
    else:
        prev, curr = jm1 - 1j * ym1, j[l][0] - 1j * y[l][0]
    return prev - (l + 1) / z * curr


def ref_cyl(order, z, sign):
    """H^(1) (sign > 0) or H^(2) of one order from mpmath, at its working
    precision."""
    return mp.hankel1(order, z) if sign > 0 else mp.hankel2(order, z)


def ref_cyl_dx(order, z, sign):
    return 0.5 * (ref_cyl(order - 1, z, sign) - ref_cyl(order + 1, z, sign))


def ref_pairs(dim, order, z):
    """(h1, h2), (h1', h2') as four separate evaluations."""
    if dim == 3:
        return ((ref_sph(order, z, 1), ref_sph(order, z, -1)),
                (ref_sph_dx(order, z, 1), ref_sph_dx(order, z, -1)))
    return ((ref_cyl(order, z, 1), ref_cyl(order, z, -1)),
            (ref_cyl_dx(order, z, 1), ref_cyl_dx(order, z, -1)))


def ref_alpha(dim, bc, order, ka):
    (h1, h2), (d1, d2) = ref_pairs(dim, order, ka)
    return -h1 / h2 if bc is SOFT else -d1 / d2


def ref_dalpha(dim, bc, order, k, a):
    z = k * a
    (h1, h2), (d1, d2) = ref_pairs(dim, order, z)
    if bc is SOFT:
        return a * (-(d1 * h2 - h1 * d2) / h2**2)
    c1 = 2.0 if dim == 3 else 1.0
    big_l = order * (order + 1) if dim == 3 else order**2
    dd1 = -(c1 / z) * d1 + (big_l / z**2 - 1.0) * h1
    dd2 = -(c1 / z) * d2 + (big_l / z**2 - 1.0) * h2
    return a * (-(dd1 * d2 - d1 * dd2) / d2**2)


class TestConjugateHankelAgainstReference:
    @pytest.mark.parametrize("bc", [SOFT, HARD], ids=["soft", "hard"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("ka", [0.05, 0.7, 1.0, 2.0, 10.0, 40.0])
    def test_smatrix_and_derivative_against_reference(self, bc, dim, ka):
        # 2D: mpmath's Hankel functions, with every reference operation at
        # 40 digits. 3D: one spherical table for every degree starts
        # Miller's recurrence above the highest degree, not above each one,
        # which moves S and S' by rounding (4e-16 measured)
        k = mp.mpf(1) if dim == 2 else 1.0
        modes = ModeSet.spherical(8, k) if dim == 3 else ModeSet.angular(12, 1.0)

        def order(p):
            return p.l if dim == 3 else abs(p.n)

        with mp.workdps(40):
            want_s = _assemble(modes, lambda p: ref_alpha(dim, bc, order(p), k * ka))
            want_ds = _assemble(modes, lambda p: ref_dalpha(dim, bc, order(p), k, ka))
        got_s = mie_smatrix(dim, bc, 1.0, ka, modes).matrix
        got_ds = mie_smatrix_deriv(dim, bc, 1.0, ka, modes).matrix
        tol = 2e-15 if dim == 2 else 1e-15
        assert np.max(np.abs(got_s - want_s)) <= tol
        assert np.max(np.abs(got_ds - want_ds)) <= tol * np.max(np.abs(want_ds))


class TestModalReflection:
    def test_soft_sphere_monopole_closed_form(self):
        # alpha_0 = e^{2jka} from h_0^(1,2) = -+j e^{+-jx}/x
        for ka in [0.7, 2.0, 5.3]:
            got = reflection_table(3, SOFT, 1.0, ka, 0)[0][0]
            assert got == pytest.approx(np.exp(2j * ka), rel=1e-13)

    def test_boundary_residual_oracle(self):
        # total radial field h1 + alpha h2 vanishes at r = a (soft)
        ka = 2.0
        alphas = reflection_table(3, SOFT, 1.0, ka, 5)[0]
        for l, alpha in enumerate(alphas):
            jl, yl = sp.spherical_jn(l, ka), sp.spherical_yn(l, ka)
            res = jl + 1j * yl + alpha * (jl - 1j * yl)
            assert abs(res) < 1e-12

    def test_unimodular(self):
        for dim, n_max, ka in [(2, 7, 5.3), (3, 3, 1.1)]:
            alpha = reflection_table(dim, HARD, 1.0, ka, n_max)[0]
            assert np.max(np.abs(np.abs(alpha) - 1.0)) <= 1e-12

    def test_high_order_no_scattering_phase(self):
        # far below the caustic the mode barely senses the scatterer
        alpha = reflection_table(3, SOFT, 1.0, 5.0, 40)[0][40]
        assert abs(np.angle(alpha)) < 1e-12

    def test_invalid_ka(self):
        with pytest.raises(DomainError):
            reflection_table(3, SOFT, 1.0, -1.0, 0)


class TestMieSMatrix:
    def test_unitarity_and_symmetry(self):
        modes = ModeSet.spherical(4, k=1.0)
        s = mie_smatrix(3, SOFT, 1.0, 1.0, modes)
        assert s.unitarity_residual() < 1e-13
        assert s.symmetry_residual() < 1e-13

    def test_2d_unitarity_and_symmetry(self):
        modes = ModeSet.angular(6, k=1.0)
        for bc in (SOFT, HARD):
            s = mie_smatrix(2, bc, 1.0, 2.0, modes)
            assert s.unitarity_residual() < 1e-13
            assert s.symmetry_residual() < 1e-13

    def test_free_space_is_exactly_unitary_symmetric(self):
        for modes in (ModeSet.spherical(3, 1.0), ModeSet.angular(5, 1.0)):
            s = free_space_smatrix(modes)
            assert s.unitarity_residual() == pytest.approx(0.0, abs=1e-15)
            assert s.symmetry_residual() == pytest.approx(0.0, abs=1e-15)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ContractError):
            mie_smatrix(3, SOFT, 1.0, 1.0, ModeSet.angular(3, 1.0))

    def test_total_far_field_vanishes_on_boundary(self):
        # reconstruct incoming + S-weighted outgoing partial waves at r = a
        k, a = 1.0, 1.0
        modes = ModeSet.spherical(2, k)
        s = mie_smatrix(3, SOFT, k, a, modes)
        p = ModeIndex.spherical(0, 0)
        col = modes.position(p)
        pts = a * np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, -1.0, 0.0]])
        total = ref_incoming(p, k, pts)
        for row, q in enumerate(modes.modes):
            if s.matrix[row, col] != 0.0:
                total = total + s.matrix[row, col] * ref_outgoing(q, k, pts)
        assert np.max(np.abs(total)) < 1e-10

    def test_total_far_field_vanishes_2d(self):
        k, a = 1.0, 2.0
        modes = ModeSet.angular(4, k)
        s = mie_smatrix(2, SOFT, k, a, modes)
        p = ModeIndex.angular(3)
        col = modes.position(p)
        angles = np.array([0.1, 1.7, 4.4])
        pts = a * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        total = ref_incoming(p, k, pts)
        for row, q in enumerate(modes.modes):
            if s.matrix[row, col] != 0.0:
                total = total + s.matrix[row, col] * ref_outgoing(q, k, pts)
        assert np.max(np.abs(total)) < 1e-10


class TestModalExcitationFields:
    @pytest.mark.parametrize("bc", [SOFT, HARD])
    def test_matches_partial_wave_sum(self, bc):
        # the batched Hankel table against one scipy call per port, on the
        # cylinder scenarios' a = 2 and default M = 13
        k, a = 1.0, 2.0
        geom, modes = make_circle(a), ModeSet.angular(6, k)
        s = mie_smatrix(2, bc, k, a, modes)
        spec = GridSpec(-6.0, 6.0, -6.0, 6.0, nx=61, ny=61)
        regions = region_masks(geom, spec, k)
        live = regions.live
        # exporting the identity gives every excitation's field
        _, fields = modal_excitation_fields(s, spec, regions, np.eye(len(modes)))
        pts = spec.points()[live]
        delta = s.matrix - free_space_smatrix(modes).matrix
        want = regular_waves_batch(modes, k, pts)
        for row, q in enumerate(modes.modes):
            want += ref_outgoing(q, k, pts)[:, None] * delta[row]
        assert np.all(fields[~live] == 0.0)
        assert np.max(np.abs(fields[live] - want)) <= 1e-14 * np.max(np.abs(want))


class TestFreeSpaceConsistency:
    """Regular field = (incoming + free-space outgoing)/2, pinning the
    free-space phases against the wave templates."""

    def test_3d(self):
        k, r = 1.0, 1000.0
        modes = ModeSet.spherical(2, k)
        s = free_space_smatrix(modes)
        theta, phi = 0.8, 2.1
        pt = r * np.array(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
        for p in [ModeIndex.spherical(0, 0), ModeIndex.spherical(2, 1)]:
            col = modes.position(p)
            rhs = ref_incoming(p, k, pt)
            for row, q in enumerate(modes.modes):
                if s.matrix[row, col] != 0.0:
                    rhs = rhs + s.matrix[row, col] * outgoing_template(q, k, pt)
            reg = 0.5 * ref_regular(p, k, pt)
            assert abs(0.5 * rhs - reg) / abs(reg) < 0.01

    def test_2d(self):
        k, r = 1.0, 2000.0
        modes = ModeSet.angular(3, k)
        s = free_space_smatrix(modes)
        pt = r * np.array([np.cos(0.7), np.sin(0.7)])
        for n in [0, -2, 3]:
            p = ModeIndex.angular(n)
            col = modes.position(p)
            rhs = ref_incoming(p, k, pt)
            for row, q in enumerate(modes.modes):
                if s.matrix[row, col] != 0.0:
                    rhs = rhs + s.matrix[row, col] * outgoing_template(q, k, pt)
            reg = 0.5 * ref_regular(p, k, pt)
            assert abs(0.5 * rhs - reg) / abs(reg) < 0.01


class TestDerivative:
    def test_soft_monopole_delay(self):
        # j conj(alpha) dalpha/dk = -2a for the soft sphere monopole
        for k, a in [(0.5, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 3.0)]:
            (alpha,), (dalpha,) = reflection_table(3, SOFT, k, a, 0)
            delay = 1j * np.conj(alpha) * dalpha
            assert delay.real == pytest.approx(-2 * a, abs=1e-8)
            assert abs(delay.imag) < 1e-10

    @pytest.mark.parametrize(
        "dim,bc,order,k,a",
        [
            (3, SOFT, 2, 1.0, 2.0),
            (3, HARD, 1, 1.0, 2.0),
            (2, HARD, 3, 1.0, 4.0),
            (2, SOFT, 5, 1.3, 2.0),
        ],
    )
    def test_against_central_difference(self, dim, bc, order, k, a):
        dk = 1e-5
        fd = (
            reflection_table(dim, bc, k + dk, a, order)[0][order]
            - reflection_table(dim, bc, k - dk, a, order)[0][order]
        ) / (2 * dk)
        got = reflection_table(dim, bc, k, a, order)[1][order]
        assert abs(got - fd) / abs(fd) < 1e-7

    def test_matrix_derivative_sparsity_matches(self):
        modes = ModeSet.spherical(3, 1.0)
        s = mie_smatrix(3, HARD, 1.0, 1.5, modes)
        sp = mie_smatrix_deriv(3, HARD, 1.0, 1.5, modes)
        assert np.array_equal(s.matrix != 0, sp.matrix != 0)

    def test_free_space_derivative_is_zero(self):
        # alpha = 1 independent of k
        modes = ModeSet.angular(4, 1.0)
        s1 = free_space_smatrix(modes)
        modes2 = ModeSet.angular(4, 1.0 + 1e-3)
        s2 = free_space_smatrix(modes2)
        assert np.max(np.abs(s1.matrix - s2.matrix)) == 0.0

    def test_high_order_delays_vanish(self):
        # modes far beyond the caustic barely dwell near the scatterer
        alpha, dalpha = reflection_table(3, SOFT, 1.0, 5.0, 20)
        delay = np.abs(1j * np.conj(alpha) * dalpha)
        assert delay[12] < 1e-2 * delay[1]
        assert delay[20] < 1e-8 * delay[1]
