import numpy as np
import pytest

from wsdelay.errors import ContractError, DomainError, SingularPointError
from wsdelay.modal import (
    ModeIndex,
    ModeSet,
    angular_factor,
    angular_mode_list,
    conjugate_mode,
    gamma_2d,
    incoming_wave,
    polar_coordinates,
    regular_wave,
    regular_waves_batch,
    suggested_mode_count,
)
from wsdelay.specfun import sph_harm

FAR_ZONE_KR_MIN = 50.0


def outgoing_template(m: ModeIndex, k: float, points):
    """Far-zone outgoing basis function conj(X_m) e^{-jkr}/r (2D: /sqrt(r)).

    Only defined in the far zone; kr below the threshold is a domain error.
    """
    if k <= 0:
        raise DomainError("wavenumber must be positive")
    r, theta, phi = polar_coordinates(points, m.dim)
    if np.any(k * r < FAR_ZONE_KR_MIN):
        raise DomainError(
            f"outgoing template undefined in the near zone (need kr >= {FAR_ZONE_KR_MIN})"
        )
    if m.dim == 3:
        return np.conj(sph_harm(m.l, m.m, theta, phi)) * np.exp(-1j * k * r) / r
    return np.conj(angular_factor(m, theta)) * np.exp(-1j * k * r) / np.sqrt(r)


class TestModeOrdering:
    def test_2d_order_is_zigzag(self):
        ns = [p.n for p in angular_mode_list(2)]
        assert ns == [0, -1, 1, -2, 2]

    def test_3d_order_is_lexicographic(self):
        ms = ModeSet.spherical(2, k=1.0)
        labels = [(p.l, p.m) for p in ms.modes]
        assert labels == sorted(labels)
        assert len(ms) == 9

    def test_with_count(self):
        assert len(ModeSet.with_count(2, 111, 1.0)) == 111
        assert len(ModeSet.with_count(3, 16, 1.0)) == 16
        with pytest.raises(DomainError):
            ModeSet.with_count(2, 10, 1.0)
        with pytest.raises(DomainError):
            ModeSet.with_count(3, 12, 1.0)

    def test_position_lookup(self):
        ms = ModeSet.angular(3, k=1.0)
        assert ms.position(ModeIndex.angular(0)) == 0
        assert ms.position(ModeIndex.angular(2)) == 4
        with pytest.raises(ContractError):
            ms.position(ModeIndex.angular(9))


class TestSuggestedModeCount:
    def test_3d_small(self):
        # ka = 1, c = 2 -> l_max = ceil(3) = 3 -> 16 modes
        assert suggested_mode_count(1.0, 1.0, 2.0, dim=3) == 16

    def test_matches_rule(self):
        k, a, c = 1.0, 25.05, 3.7
        lmax = int(np.ceil(k * a + c * (k * a) ** (1 / 3)))
        assert suggested_mode_count(k, a, c, dim=2) == 2 * lmax + 1
        assert suggested_mode_count(k, a, c, dim=3) == (lmax + 1) ** 2

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            suggested_mode_count(-1.0, 1.0, 3.0, dim=2)
        with pytest.raises(DomainError):
            suggested_mode_count(1.0, 1.0, 5.0, dim=2)


class TestConjugateMode:
    def test_m_zero_self_conjugate(self):
        q, sign = conjugate_mode(ModeIndex.spherical(2, 0))
        assert q == ModeIndex.spherical(2, 0)
        assert sign == 1.0

    def test_negative_m(self):
        q, sign = conjugate_mode(ModeIndex.spherical(3, -2))
        assert q == ModeIndex.spherical(3, 2)
        assert sign == 1.0

    def test_2d(self):
        q, sign = conjugate_mode(ModeIndex.angular(4))
        assert q == ModeIndex.angular(-4)
        assert sign == 1.0

    def test_involution_and_conjugation_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            l = int(rng.integers(0, 9))
            m = int(rng.integers(-l, l + 1)) if l else 0
            p = ModeIndex.spherical(l, m)
            pt, sign = conjugate_mode(p)
            back, sign2 = conjugate_mode(pt)
            assert back == p and pt.l == p.l
            theta, phi = rng.uniform(0.1, 3.0), rng.uniform(0, 6.2)
            lhs = np.conj(sph_harm(p.l, p.m, theta, phi))
            rhs = sign * sph_harm(pt.l, pt.m, theta, phi)
            assert abs(lhs - rhs) < 1e-13


class TestIncomingWave:
    def test_3d_far_field_limit(self):
        p = ModeIndex.spherical(0, 0)
        r = 500.0
        for theta, phi in [(0.4, 0.3), (2.0, 4.0)]:
            point = r * np.array(
                [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
            )
            got = incoming_wave(p, 1.0, point)
            want = sph_harm(0, 0, theta, phi) * np.exp(1j * r) / r
            assert abs(got - want) / abs(want) < 0.002

    def test_2d_far_field_limit(self):
        p = ModeIndex.angular(0)
        r = 1e4
        got = incoming_wave(p, 1.0, np.array([r, 0.0]))
        want = np.exp(1j * r) / np.sqrt(2 * np.pi * r)
        assert abs(got - want) / abs(want) < 0.001

    def test_radial_phase_is_incoming(self):
        # d(field)/dr ~ +jk field at large kr
        p = ModeIndex.spherical(1, 0)
        k, r, h = 1.0, 1e3, 1e-4
        pt = np.array([0.0, 0.0, 1.0])
        fd = (incoming_wave(p, k, (r + h) * pt) - incoming_wave(p, k, (r - h) * pt)) / (
            2 * h
        )
        val = incoming_wave(p, k, r * pt)
        assert abs(fd - 1j * k * val) / abs(val) < 0.01

    def test_origin_is_singular(self):
        with pytest.raises(SingularPointError):
            incoming_wave(ModeIndex.angular(0), 1.0, np.array([0.0, 0.0]))

    def test_vectorized_points(self):
        pts = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
        vals = incoming_wave(ModeIndex.angular(2), 1.0, pts)
        assert vals.shape == (3,)
        single = incoming_wave(ModeIndex.angular(2), 1.0, pts[1])
        assert vals[1] == pytest.approx(single, rel=1e-14)


class TestRegularWave:
    def test_regular_at_small_radius(self):
        # finite and smooth through the origin region even for high order
        pts = np.array([[1e-6, 0.0], [0.0, 1e-5]])
        vals = regular_wave(ModeIndex.angular(35), 1.0, pts)
        assert np.all(np.isfinite(vals))
        assert np.all(np.abs(vals) < 1e-30)

    def test_batch_matches_single_waves(self):
        modes = ModeSet.angular(6, k=1.3)
        pts = np.array([[2.1, -0.7], [-0.4, 3.3], [0.0, 0.0], [-5.0, -1e-3]])
        vals = regular_waves_batch(modes, 1.3, pts)
        assert vals.shape == (4, 13)
        for col, p in enumerate(modes.modes):
            want = regular_wave(p, 1.3, pts)
            assert np.allclose(vals[:, col], want, rtol=1e-14, atol=0.0), p

    def test_gradient_against_finite_difference(self):
        p = ModeIndex.angular(3)
        k = 1.3
        modes = ModeSet.angular(3, k)
        pt = np.array([2.1, -0.7])
        h = 1e-6
        # normal derivatives along (1, 0) and (0, 1) are the gradient
        _, grad = regular_waves_batch(modes, k, np.array([pt, pt]), normals=np.eye(2))
        col = modes.position(p)
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = h
            fd = (regular_wave(p, k, pt + e) - regular_wave(p, k, pt - e)) / (2 * h)
            assert abs(grad[axis, col] - fd) < 1e-7 * max(1.0, abs(fd))

    def test_normal_derivatives_reject_origin(self):
        modes = ModeSet.angular(2, k=1.0)
        pts = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(SingularPointError):
            regular_waves_batch(modes, 1.0, pts, normals=np.array([[1.0, 0.0], [0.0, 1.0]]))


class TestOutgoingTemplate:
    def test_conjugate_pair_with_incoming(self):
        m = ModeIndex.spherical(0, 0)
        r = 500.0
        pt = r * np.array([0.6, 0.0, 0.8])
        out = outgoing_template(m, 1.0, pt)
        inc = incoming_wave(m, 1.0, pt)
        assert abs(np.conj(out) - inc) / abs(inc) < 0.002

    def test_harmonic_zero(self):
        m = ModeIndex.spherical(1, 0)
        pt = 100.0 * np.array([1.0, 0.0, 0.0])  # theta = pi/2
        assert abs(outgoing_template(m, 1.0, pt)) < 1e-15

    def test_unit_power_flux_mode_independent(self):
        r = 1e3
        u, wu = np.polynomial.legendre.leggauss(48)
        theta = np.arccos(u)
        phi = np.arange(96) * (2 * np.pi / 96)
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        pts = r * np.stack(
            [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
        )
        fluxes = []
        for m in [ModeIndex.spherical(0, 0), ModeIndex.spherical(2, 1)]:
            f = outgoing_template(m, 1.0, pts)
            flux = np.sum(np.abs(f) ** 2 * wu[:, None]) * (2 * np.pi / 96) * r**2
            fluxes.append(flux)
        assert fluxes[0] == pytest.approx(1.0, abs=1e-3)
        assert fluxes[1] == pytest.approx(fluxes[0], abs=1e-3)

    def test_near_zone_rejected(self):
        with pytest.raises(DomainError):
            outgoing_template(ModeIndex.angular(0), 1.0, np.array([10.0, 0.0]))


class TestBasisOrthonormality2D:
    def test_far_circle_inner_products(self):
        n_nodes = 256
        theta = np.arange(n_nodes) * (2 * np.pi / n_nodes)
        for n1 in range(-4, 5):
            x1 = np.exp(1j * n1 * theta) / np.sqrt(2 * np.pi)
            for n2 in range(-4, 5):
                x2 = np.exp(1j * n2 * theta) / np.sqrt(2 * np.pi)
                val = np.sum(x1 * np.conj(x2)) * (2 * np.pi / n_nodes)
                assert val == pytest.approx(1.0 if n1 == n2 else 0.0, abs=1e-12)


def test_gamma_convention():
    # gamma_n H_n^(1)(kr) -> e^{jkr}/sqrt(r)
    from wsdelay.specfun import BesselKind, cyl_bessel

    k, r, n = 1.0, 2e4, 3
    val = gamma_2d(n, k) * cyl_bessel(BesselKind.HANKEL1, n, k * r)
    want = np.exp(1j * k * r) / np.sqrt(r)
    assert abs(val - want) / abs(want) < 1e-3
