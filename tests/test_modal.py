import numpy as np
import pytest
from scipy import special as sp

from wsdelay.errors import ContractError, DomainError
from wsdelay.modal import (
    ModeIndex,
    ModeSet,
    angular_mode_list,
    conjugate_mode,
    gamma_2d,
    polar_coordinates,
    regular_waves_batch,
    suggested_mode_count,
)

FAR_ZONE_KR_MIN = 50.0


# ---------------------------------------------------------------------------
# one port at a time, radial factors from scipy: references for the batched
# and closed-form evaluators
# ---------------------------------------------------------------------------
def _spherical(points):
    """(r, theta, phi) of Cartesian points; in 2D theta is the azimuth and
    phi is None."""
    pts = np.asarray(points, dtype=float)
    azimuth = np.arctan2(pts[..., 1], pts[..., 0])
    if pts.shape[-1] == 2:
        return np.hypot(pts[..., 0], pts[..., 1]), azimuth, None
    r = np.sqrt(np.sum(pts**2, axis=-1))
    return r, np.arccos(np.clip(pts[..., 2] / r, -1.0, 1.0)), azimuth


def _harmonic(m: ModeIndex, theta, phi):
    if m.dim == 3:
        return sp.sph_harm_y(m.l, m.m, theta, phi)
    return np.exp(1j * m.n * theta) / np.sqrt(2.0 * np.pi)


def ref_incoming(m: ModeIndex, k: float, points):
    """Exact incoming unit-power mode: k j^{l+1} h_l^(1)(kr) X_lm (3D),
    gamma_n H_n^(1)(kr) X_n (2D)."""
    r, theta, phi = _spherical(points)
    if m.dim == 3:
        h1 = sp.spherical_jn(m.l, k * r) + 1j * sp.spherical_yn(m.l, k * r)
        return k * 1j ** (m.l + 1) * h1 * _harmonic(m, theta, phi)
    return gamma_2d(m.n, k) * sp.hankel1(m.n, k * r) * _harmonic(m, theta, phi)


def ref_outgoing(m: ModeIndex, k: float, points):
    """Exact outgoing partial wave whose r -> infinity limit is
    outgoing_template: k (-j)^{l+1} h_l^(2)(kr) conj(X_lm) (3D),
    conj(gamma_n) H_n^(2)(kr) conj(X_n) (2D)."""
    r, theta, phi = _spherical(points)
    if m.dim == 3:
        h2 = sp.spherical_jn(m.l, k * r) - 1j * sp.spherical_yn(m.l, k * r)
        return k * (-1j) ** (m.l + 1) * h2 * np.conj(_harmonic(m, theta, phi))
    return np.conj(gamma_2d(m.n, k)) * sp.hankel2(m.n, k * r) * np.conj(_harmonic(m, theta, phi))


def ref_regular(m: ModeIndex, k: float, points):
    """Standing excitation whose incoming content is exactly mode m, the
    incoming wave plus its free-space outgoing response: 2 k j^{l+1} j_l(kr)
    X_lm (3D), 2 gamma_n J_n(kr) X_n (2D). The origin is evaluated at
    r = 1e-300, as regular_waves_batch does."""
    r, theta, phi = _spherical(points)
    kr = k * np.where(r == 0.0, 1e-300, r)
    if m.dim == 3:
        return 2.0 * k * 1j ** (m.l + 1) * sp.spherical_jn(m.l, kr) * _harmonic(m, theta, phi)
    if abs(m.n) > 1:
        jn = sp.jv(m.n, kr)
    else:   # Cephes j0/j1: at the 1e-300 clamp jv is 5e-14 off
        jn = sp.j0(kr) if m.n == 0 else m.n * sp.j1(kr)
    return 2.0 * gamma_2d(m.n, k) * jn * _harmonic(m, theta, phi)


def outgoing_template(m: ModeIndex, k: float, points):
    """Far-zone outgoing basis function conj(X_m) e^{-jkr}/r (2D: /sqrt(r)).

    Only defined in the far zone; kr below the threshold is a domain error.
    """
    if k <= 0:
        raise DomainError("wavenumber must be positive")
    r, theta, phi = _spherical(points)
    if np.any(k * r < FAR_ZONE_KR_MIN):
        raise DomainError(
            f"outgoing template undefined in the near zone (need kr >= {FAR_ZONE_KR_MIN})"
        )
    decay = r if m.dim == 3 else np.sqrt(r)
    return np.conj(_harmonic(m, theta, phi)) * np.exp(-1j * k * r) / decay


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
        # ka = 1 -> l_max = ceil(1 + 3) = 4 -> 25 modes
        assert suggested_mode_count(1.0, 1.0, dim=3) == 25

    def test_matches_rule(self):
        k, a = 1.0, 25.05
        lmax = int(np.ceil(k * a + 3 * (k * a) ** (1 / 3)))
        assert suggested_mode_count(k, a, dim=2) == 2 * lmax + 1
        assert suggested_mode_count(k, a, dim=3) == (lmax + 1) ** 2

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            suggested_mode_count(-1.0, 1.0, dim=2)
        with pytest.raises(DomainError):
            suggested_mode_count(1.0, 1.0, dim=4)


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
            lhs = np.conj(sp.sph_harm_y(p.l, p.m, theta, phi))
            rhs = sign * sp.sph_harm_y(pt.l, pt.m, theta, phi)
            assert abs(lhs - rhs) < 1e-13


class TestIncomingWave:
    """The reference's normalization, on which the closed-form and
    free-space tests rely."""

    def test_3d_far_field_limit(self):
        p = ModeIndex.spherical(0, 0)
        r = 500.0
        for theta, phi in [(0.4, 0.3), (2.0, 4.0)]:
            point = r * np.array(
                [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
            )
            got = ref_incoming(p, 1.0, point)
            want = sp.sph_harm_y(0, 0, theta, phi) * np.exp(1j * r) / r
            assert abs(got - want) / abs(want) < 0.002

    def test_2d_far_field_limit(self):
        p = ModeIndex.angular(0)
        r = 1e4
        got = ref_incoming(p, 1.0, np.array([r, 0.0]))
        want = np.exp(1j * r) / np.sqrt(2 * np.pi * r)
        assert abs(got - want) / abs(want) < 0.001

    def test_radial_phase_is_incoming(self):
        # d(field)/dr ~ +jk field at large kr
        p = ModeIndex.spherical(1, 0)
        k, r, h = 1.0, 1e3, 1e-4
        pt = np.array([0.0, 0.0, 1.0])
        fd = (ref_incoming(p, k, (r + h) * pt) - ref_incoming(p, k, (r - h) * pt)) / (
            2 * h
        )
        val = ref_incoming(p, k, r * pt)
        assert abs(fd - 1j * k * val) / abs(val) < 0.01


class TestPolarCoordinates:
    def test_origin_is_singular(self):
        pts = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DomainError, match="basis origin"):
            polar_coordinates(pts)
        r, theta = polar_coordinates(pts, allow_origin=True)
        assert r.tolist() == [1.0, 1e-300]
        assert theta.tolist() == [0.0, 0.0]

    def test_vectorized_points(self):
        pts = np.array([[1.0, 2.0], [3.0, -1.0], [-0.5, 0.5]])
        r, theta = polar_coordinates(pts)
        assert r.shape == theta.shape == (3,)
        for i, pt in enumerate(pts):
            assert polar_coordinates(pt) == (r[i], theta[i])
        with pytest.raises(ContractError):
            polar_coordinates(np.array([1.0, 2.0, 3.0]))


class TestRegularWave:
    def test_regular_at_small_radius(self):
        # finite and smooth through the origin region even for high order
        modes = ModeSet.angular(35, k=1.0)
        pts = np.array([[1e-6, 0.0], [0.0, 1e-5]])
        vals = regular_waves_batch(modes, 1.0, pts)
        for n in (-35, 35):
            col = vals[:, modes.position(ModeIndex.angular(n))]
            assert np.all(np.isfinite(col))
            assert np.all(np.abs(col) < 1e-30)

    def test_batch_matches_single_waves(self):
        modes = ModeSet.angular(6, k=1.3)
        pts = np.array([[2.1, -0.7], [-0.4, 3.3], [0.0, 0.0], [-5.0, -1e-3]])
        vals = regular_waves_batch(modes, 1.3, pts)
        assert vals.shape == (4, 13)
        for col, p in enumerate(modes.modes):
            want = ref_regular(p, 1.3, pts)
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
            plus, minus = regular_waves_batch(modes, k, np.array([pt + e, pt - e]))[:, col]
            fd = (plus - minus) / (2 * h)
            assert abs(grad[axis, col] - fd) < 1e-7 * max(1.0, abs(fd))

    def test_normal_derivatives_reject_origin(self):
        modes = ModeSet.angular(2, k=1.0)
        pts = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DomainError, match="basis origin"):
            regular_waves_batch(modes, 1.0, pts, normals=np.array([[1.0, 0.0], [0.0, 1.0]]))


class TestOutgoingTemplate:
    def test_conjugate_pair_with_incoming(self):
        m = ModeIndex.spherical(0, 0)
        r = 500.0
        pt = r * np.array([0.6, 0.0, 0.8])
        out = outgoing_template(m, 1.0, pt)
        inc = ref_incoming(m, 1.0, pt)
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
    k, r, n = 1.0, 2e4, 3
    val = gamma_2d(n, k) * sp.hankel1(n, k * r)
    want = np.exp(1j * k * r) / np.sqrt(r)
    assert abs(val - want) / abs(want) < 1e-3
