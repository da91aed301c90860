import math

import numpy as np
import pytest
from scipy import special as sp

from wsdelay.errors import CapacityError, DomainError
from wsdelay.specfun import (
    CYL_ORDER_MAX,
    SPH_DEGREE_MAX,
    BesselKind,
    cyl_bessel,
    cyl_bessel_dx,
    cyl_jn_table,
    sph_bessel,
    sph_bessel_dx,
    sph_bessel_table,
    sph_harm,
    sph_jy_table,
)

J = BesselKind.REGULAR_J
H1 = BesselKind.HANKEL1
H2 = BesselKind.HANKEL2


def j1_series(x, terms=40):
    """Power-series oracle for J_1, summed to machine precision."""
    total = 0.0
    for m in range(terms):
        total += (-1.0) ** m / (
            math.factorial(m) * math.factorial(m + 1)
        ) * (x / 2.0) ** (2 * m + 1)
    return total


class TestCylBessel:
    def test_j0_at_zero_limit(self):
        assert cyl_bessel(J, 0, 1e-8) == pytest.approx(1.0, abs=1e-12)

    def test_hankel2_is_conjugate_of_hankel1(self):
        a = cyl_bessel(H1, 4, 3.7)
        b = cyl_bessel(H2, 4, 3.7)
        assert b == pytest.approx(np.conj(a), rel=1e-14)

    def test_j1_against_power_series(self):
        oracle = j1_series(1.0)
        assert oracle == pytest.approx(0.44005058574493355, abs=1e-15)
        assert cyl_bessel(J, 1, 1.0) == pytest.approx(oracle, rel=1e-14)

    @pytest.mark.parametrize("n", [-7, -2, -1])
    def test_negative_order_reflection(self, n):
        x = 2.9
        expect = (-1.0) ** n * cyl_bessel(J, -n, x)
        assert cyl_bessel(J, n, x) == pytest.approx(expect, rel=1e-14)
        expect_h = (-1.0) ** n * cyl_bessel(H1, -n, x)
        got = cyl_bessel(H1, n, x)
        assert abs(got - expect_h) < 1e-14 * abs(expect_h)

    def test_derivative_against_finite_difference(self):
        x, h = 4.2, 1e-6
        fd = (cyl_bessel(H1, 3, x + h) - cyl_bessel(H1, 3, x - h)) / (2 * h)
        assert cyl_bessel_dx(H1, 3, x) == pytest.approx(fd, rel=1e-8)

    def test_domain_and_capacity_errors(self):
        with pytest.raises(DomainError):
            cyl_bessel(J, 0, 0.0)
        with pytest.raises(DomainError):
            cyl_bessel(J, 0, -1.0)
        with pytest.raises(CapacityError):
            cyl_bessel(J, 500, 1.0)


class TestCylJnTable:
    def test_against_scipy_jv(self):
        # the origin, the 1e-300 origin clamp, the series branch and a dense
        # sweep; raising on overflow and invalid operations exercises the
        # rescaling and keeps x = 0 out of the recurrence
        x = np.concatenate(
            [[0.0, 1e-300, 1e-12, 1e-8, 1e-6, 1e-4], np.geomspace(1e-3, 400.0, 1500),
             np.linspace(1e-3, 400.0, 2500)]
        )
        with np.errstate(over="raise", invalid="raise"):
            table = cyl_jn_table(CYL_ORDER_MAX, x)
        ref = sp.jv(np.arange(CYL_ORDER_MAX + 1)[:, None], x[None, :])
        assert table.shape == ref.shape
        assert np.max(np.abs(table - ref)) <= 1e-13

    def test_low_order_table(self):
        x = np.array([0.0, 0.5, 3.0])
        table = cyl_jn_table(0, x)
        assert table.shape == (1, 3)
        assert np.max(np.abs(table[0] - sp.j0(x))) <= 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            cyl_jn_table(3, [1.0, -1.0])
        with pytest.raises(DomainError):
            cyl_jn_table(3, [np.nan])


class TestSphBessel:
    def test_h0_closed_form(self):
        x = 2.0
        expect = -1j * np.exp(1j * x) / x
        assert sph_bessel(H1, 0, x) == pytest.approx(expect, rel=1e-14)

    def test_j0_closed_form(self):
        assert sph_bessel(J, 0, 1.0) == pytest.approx(np.sin(1.0), rel=1e-14)

    def test_large_argument_asymptotic(self):
        # h_l^(1)(x) ~ (-j)^(l+1) e^(jx)/x for x >> l. The next term in the
        # expansion is a pure phase at O(1/x), so the 1% agreement is in
        # magnitude.
        l, x = 5, 40.0
        asym = (-1j) ** (l + 1) * np.exp(1j * x) / x
        got = sph_bessel(H1, l, x)
        assert abs(abs(got) - abs(asym)) / abs(asym) < 0.01

    @pytest.mark.parametrize("l", [3, 7])
    def test_hankel_limit_at_extreme_argument(self, l):
        x = 1e3
        ratio = sph_bessel(H1, l, x) * x * 1j ** (l + 1) / np.exp(1j * x)
        assert abs(abs(ratio) - 1.0) < 1e-3

    @pytest.mark.parametrize("l", [0, 1, 2, 5, 13, 30, 50])
    @pytest.mark.parametrize("x", [0.3, 1.0, 2.5, 17.0, 60.0])
    def test_against_scipy(self, l, x):
        assert sph_bessel(J, l, x) == pytest.approx(
            sp.spherical_jn(l, x), rel=1e-12, abs=1e-280
        )
        mine = sph_bessel(H1, l, x)
        ref = sp.spherical_jn(l, x) + 1j * sp.spherical_yn(l, x)
        assert abs(mine - ref) < 1e-12 * abs(ref)

    def test_upward_and_downward_agree_where_upward_stable(self):
        # Upward recurrence for j_l is reliable only for l below x; compare
        # on that wedge.
        rng = np.random.default_rng(7)
        for _ in range(40):
            x = rng.uniform(5.0, 100.0)
            l = int(rng.integers(2, min(50, int(0.8 * x)) + 1))
            j0, j1 = np.sin(x) / x, np.sin(x) / x**2 - np.cos(x) / x
            prev, curr = j0, j1
            for m in range(1, l):
                prev, curr = curr, (2 * m + 1) / x * curr - prev
            assert sph_bessel(J, l, x) == pytest.approx(curr, rel=1e-10)

    def test_array_argument(self):
        x = np.array([1.0, 2.0, 30.0])
        vals = sph_bessel(J, 4, x)
        assert vals.shape == (3,)
        for xi, vi in zip(x, vals):
            assert vi == pytest.approx(sp.spherical_jn(4, xi), rel=1e-12)


class TestSphBesselDx:
    def test_j0_derivative_closed_form(self):
        expect = np.cos(1.0) / 1.0 - np.sin(1.0) / 1.0**2
        assert expect == pytest.approx(-0.30116867893975674, abs=1e-15)
        assert sph_bessel_dx(J, 0, 1.0) == pytest.approx(expect, rel=1e-13)

    def test_wronskian_identity(self):
        # j_l y_l' - j_l' y_l = 1/x^2
        l, x = 3, 2.5
        jl = sph_bessel(J, l, x)
        yl = (sph_bessel(H1, l, x) - jl) / 1j
        jlp = sph_bessel_dx(J, l, x)
        ylp = (sph_bessel_dx(H1, l, x) - jlp) / 1j
        assert jl * ylp - jlp * yl == pytest.approx(1.0 / x**2, rel=1e-12)

    def test_against_central_difference(self):
        l, x, h = 2, 10.0, 1e-6
        fd = (sph_bessel(H1, l, x + h) - sph_bessel(H1, l, x - h)) / (2 * h)
        got = sph_bessel_dx(H1, l, x)
        assert abs(got - fd) / abs(fd) < 1e-7


class TestSphTables:
    X = np.concatenate([np.geomspace(0.05, 2.0, 40), np.linspace(2.0, 400.0, 200)])

    def test_jy_table_against_scipy(self):
        j, y = sph_jy_table(12, self.X)
        assert j.shape == y.shape == (13, self.X.size)
        for l in range(13):
            # |j_l| <= 1, so absolute near its zeros; y_l relative
            assert np.allclose(j[l], sp.spherical_jn(l, self.X), rtol=0.0, atol=1e-14)
            assert np.allclose(y[l], sp.spherical_yn(l, self.X), rtol=1e-12, atol=0.0)

    def test_derivative_rows_against_scipy(self):
        f, df = sph_bessel_table(J, 12, self.X)
        h, dh = sph_bessel_table(H1, 12, self.X)
        for l in range(13):
            jp = sp.spherical_jn(l, self.X, derivative=True)
            yp = sp.spherical_yn(l, self.X, derivative=True)
            assert np.allclose(df[l], jp, rtol=0.0, atol=1e-14)
            assert np.allclose(dh[l].real, jp, rtol=0.0, atol=1e-14)
            assert np.allclose(dh[l].imag, yp, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", [J, H1, H2])
    def test_rows_are_the_single_degree_functions(self, kind):
        # every row of one table equals the single-degree evaluation bitwise
        x = np.linspace(60.0, 400.0, 50)
        f, df = sph_bessel_table(kind, 9, x)
        for l in range(10):
            assert np.array_equal(f[l], sph_bessel(kind, l, x))
            assert np.array_equal(df[l], sph_bessel_dx(kind, l, x))

    def test_outgoing_kind_is_conjugate(self):
        h1, dh1 = sph_bessel_table(H1, 5, self.X)
        h2, dh2 = sph_bessel_table(H2, 5, self.X)
        assert np.array_equal(h2, np.conj(h1))
        assert np.array_equal(dh2, np.conj(dh1))

    def test_degree_bounds(self):
        with pytest.raises(DomainError):
            sph_bessel(J, -1, 1.0)
        with pytest.raises(CapacityError):
            sph_bessel_dx(H1, SPH_DEGREE_MAX + 1, 1.0)
        with pytest.raises(DomainError):
            sph_jy_table(3, [1.0, np.nan])


class TestSphHarm:
    def test_lowest_harmonic_is_constant(self):
        expect = 1.0 / np.sqrt(4.0 * np.pi)
        for theta, phi in [(0.3, 0.0), (1.2, 2.2), (2.9, 5.5)]:
            assert sph_harm(0, 0, theta, phi) == pytest.approx(expect, rel=1e-14)

    def test_conjugation_property(self):
        theta, phi = 1.1, 0.7
        lhs = np.conj(sph_harm(3, 2, theta, phi))
        rhs = (-1.0) ** 2 * sph_harm(3, -2, theta, phi)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_conjugation_property_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            l = int(rng.integers(0, 12))
            m = int(rng.integers(-l, l + 1)) if l else 0
            theta = rng.uniform(0.05, np.pi - 0.05)
            phi = rng.uniform(0.0, 2 * np.pi)
            lhs = np.conj(sph_harm(l, m, theta, phi))
            rhs = (-1.0) ** m * sph_harm(l, -m, theta, phi)
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))

    def test_matches_scipy_for_nonnegative_m(self):
        theta, phi = 0.9, 1.3
        for l, m in [(1, 0), (2, 1), (5, 3), (8, 8)]:
            ref = sp.sph_harm_y(l, m, theta, phi)
            assert sph_harm(l, m, theta, phi) == pytest.approx(ref, rel=1e-12)

    def test_single_mode_norm(self):
        val = _sphere_inner_product(2, 1, 2, 1)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_orthonormality_grid(self):
        modes = [(l, m) for l in range(0, 9) for m in range(-l, l + 1)]
        rng = np.random.default_rng(3)
        picks = rng.choice(len(modes), size=24, replace=False)
        for i in picks:
            for j in picks[:8]:
                l1, m1 = modes[i]
                l2, m2 = modes[j]
                val = _sphere_inner_product(l1, m1, l2, m2)
                expect = 1.0 if (l1, m1) == (l2, m2) else 0.0
                assert val == pytest.approx(expect, abs=1e-8)

    def test_index_bounds(self):
        with pytest.raises(DomainError):
            sph_harm(2, 3, 0.5, 0.5)
        with pytest.raises(DomainError):
            sph_harm(-1, 0, 0.5, 0.5)


def _sphere_inner_product(l1, m1, l2, m2, n_theta=64, n_phi=128):
    """Quadrature oracle: Gauss-Legendre in cos(theta) x trapezoid in phi."""
    u, wu = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(u)
    phi = np.arange(n_phi) * (2 * np.pi / n_phi)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    f = sph_harm(l1, m1, tt, pp) * np.conj(sph_harm(l2, m2, tt, pp))
    integral = np.sum(f * wu[:, None]) * (2 * np.pi / n_phi)
    return complex(integral)
