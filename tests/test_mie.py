import numpy as np
import pytest

from wsdelay.errors import ContractError, DomainError
from wsdelay.mie import (
    _assemble,
    free_space_smatrix,
    mie_smatrix,
    mie_smatrix_deriv,
    modal_reflection,
    modal_reflection_deriv,
    outgoing_partial_wave,
)
from wsdelay.modal import (
    ModeIndex,
    ModeSet,
    incoming_wave,
    outgoing_template,
    regular_wave,
)
from wsdelay.smatrix import BoundaryCondition
from wsdelay.specfun import (
    BesselKind,
    cyl_bessel,
    cyl_bessel_dx,
    sph_bessel,
    sph_jy_table,
)

SOFT = BoundaryCondition.SOUND_SOFT
HARD = BoundaryCondition.SOUND_HARD
H1, H2 = BesselKind.HANKEL1, BesselKind.HANKEL2


# ---------------------------------------------------------------------------
# reference: both Hankel kinds and both derivatives from their own
# recurrences, h^(2) = j - jy rather than the conjugate of h^(1)
# ---------------------------------------------------------------------------
def ref_sph(l, z, sign):
    j, y = sph_jy_table(l, z)
    return (j[l] + 1j * y[l] if sign > 0 else j[l] - 1j * y[l])[0]


def ref_sph_dx(l, z, sign):
    j, y = sph_jy_table(max(l, 1), z)
    jm1, ym1 = (np.cos(z) / z, np.sin(z) / z) if l == 0 else (j[l - 1][0], y[l - 1][0])
    if sign > 0:
        prev, curr = jm1 + 1j * ym1, j[l][0] + 1j * y[l][0]
    else:
        prev, curr = jm1 - 1j * ym1, j[l][0] - 1j * y[l][0]
    return prev - (l + 1) / z * curr


def ref_pairs(dim, order, z):
    """(h1, h2), (h1', h2') as four separate evaluations."""
    if dim == 3:
        return ((ref_sph(order, z, 1), ref_sph(order, z, -1)),
                (ref_sph_dx(order, z, 1), ref_sph_dx(order, z, -1)))
    return ((cyl_bessel(H1, order, z), cyl_bessel(H2, order, z)),
            (cyl_bessel_dx(H1, order, z), cyl_bessel_dx(H2, order, z)))


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
    def test_smatrix_and_derivative_bitwise(self, bc, dim, ka):
        k = 1.0
        modes = ModeSet.spherical(8, k) if dim == 3 else ModeSet.angular(12, k)

        def order(p):
            return p.l if dim == 3 else abs(p.n)

        want_s = _assemble(modes, lambda p: ref_alpha(dim, bc, order(p), k * ka))
        want_ds = _assemble(modes, lambda p: ref_dalpha(dim, bc, order(p), k, ka))
        assert np.array_equal(mie_smatrix(dim, bc, k, ka, modes).matrix, want_s)
        assert np.array_equal(mie_smatrix_deriv(dim, bc, k, ka, modes).matrix, want_ds)


class TestModalReflection:
    def test_soft_sphere_monopole_closed_form(self):
        # alpha_0 = e^{2jka} from h_0^(1,2) = -+j e^{+-jx}/x
        for ka in [0.7, 2.0, 5.3]:
            got = modal_reflection(3, SOFT, 0, ka)
            assert got == pytest.approx(np.exp(2j * ka), rel=1e-13)

    def test_boundary_residual_oracle(self):
        # total radial field h1 + alpha h2 vanishes at r = a (soft)
        ka = 2.0
        for l in range(0, 6):
            alpha = modal_reflection(3, SOFT, l, ka)
            res = sph_bessel(BesselKind.HANKEL1, l, ka) + alpha * sph_bessel(
                BesselKind.HANKEL2, l, ka
            )
            assert abs(res) < 1e-12

    def test_unimodular(self):
        assert abs(modal_reflection(2, HARD, 7, 5.3)) == pytest.approx(1.0, abs=1e-12)
        assert abs(modal_reflection(3, HARD, 3, 1.1)) == pytest.approx(1.0, abs=1e-12)

    def test_high_order_no_scattering_phase(self):
        # far below the caustic the mode barely senses the scatterer
        alpha = modal_reflection(3, SOFT, 40, 5.0)
        assert abs(np.angle(alpha)) < 1e-12

    def test_invalid_ka(self):
        with pytest.raises(DomainError):
            modal_reflection(3, SOFT, 0, -1.0)


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
        total = incoming_wave(p, k, pts)
        for row, q in enumerate(modes.modes):
            if s.matrix[row, col] != 0.0:
                total = total + s.matrix[row, col] * outgoing_partial_wave(q, k, pts)
        assert np.max(np.abs(total)) < 1e-10

    def test_total_far_field_vanishes_2d(self):
        k, a = 1.0, 2.0
        modes = ModeSet.angular(4, k)
        s = mie_smatrix(2, SOFT, k, a, modes)
        p = ModeIndex.angular(3)
        col = modes.position(p)
        angles = np.array([0.1, 1.7, 4.4])
        pts = a * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        total = incoming_wave(p, k, pts)
        for row, q in enumerate(modes.modes):
            if s.matrix[row, col] != 0.0:
                total = total + s.matrix[row, col] * outgoing_partial_wave(q, k, pts)
        assert np.max(np.abs(total)) < 1e-10


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
            rhs = incoming_wave(p, k, pt)
            for row, q in enumerate(modes.modes):
                if s.matrix[row, col] != 0.0:
                    rhs = rhs + s.matrix[row, col] * outgoing_template(q, k, pt)
            reg = 0.5 * regular_wave(p, k, pt)
            assert abs(0.5 * rhs - reg) / abs(reg) < 0.01

    def test_2d(self):
        k, r = 1.0, 2000.0
        modes = ModeSet.angular(3, k)
        s = free_space_smatrix(modes)
        pt = r * np.array([np.cos(0.7), np.sin(0.7)])
        for n in [0, -2, 3]:
            p = ModeIndex.angular(n)
            col = modes.position(p)
            rhs = incoming_wave(p, k, pt)
            for row, q in enumerate(modes.modes):
                if s.matrix[row, col] != 0.0:
                    rhs = rhs + s.matrix[row, col] * outgoing_template(q, k, pt)
            reg = 0.5 * regular_wave(p, k, pt)
            assert abs(0.5 * rhs - reg) / abs(reg) < 0.01


class TestDerivative:
    def test_soft_monopole_delay(self):
        # j conj(alpha) dalpha/dk = -2a for the soft sphere monopole
        for k, a in [(0.5, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 3.0)]:
            alpha = modal_reflection(3, SOFT, 0, k * a)
            dalpha = modal_reflection_deriv(3, SOFT, 0, k, a)
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
            modal_reflection(dim, bc, order, (k + dk) * a)
            - modal_reflection(dim, bc, order, (k - dk) * a)
        ) / (2 * dk)
        got = modal_reflection_deriv(dim, bc, order, k, a)
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
        k, a = 1.0, 5.0
        def delay(l):
            alpha = modal_reflection(3, SOFT, l, k * a)
            return abs(1j * np.conj(alpha) * modal_reflection_deriv(3, SOFT, l, k, a))

        assert delay(12) < 1e-2 * delay(1)
        assert delay(20) < 1e-8 * delay(1)
