import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

from wsdelay.errors import DomainError
from wsdelay.specfun import ORDER_MAX, cyl_jn_table, hankel1_table


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
        assert cyl_jn_table(0, 1e-8)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_j1_against_power_series(self):
        oracle = j1_series(1.0)
        assert oracle == pytest.approx(0.44005058574493355, abs=1e-15)
        assert cyl_jn_table(1, 1.0)[1, 0] == pytest.approx(oracle, rel=1e-14)

    def test_derivative_against_finite_difference(self):
        x, h = 4.2, 1e-6
        _, df = hankel1_table(2, 3, x)
        plus, minus = hankel1_table(2, 3, x + h)[0], hankel1_table(2, 3, x - h)[0]
        for n in (0, 3):
            fd = (plus[n, 0] - minus[n, 0]) / (2 * h)
            assert df[n, 0] == pytest.approx(fd, rel=1e-8)

    def test_hankel2_is_conjugate_of_hankel1(self):
        # the solvers take H^(2) and its derivative as the conjugate table
        x = np.array([0.3, 3.7, 60.0])
        f, df = hankel1_table(2, 4, x)
        for n in range(5):
            assert np.allclose(np.conj(f[n]), sp.hankel2(n, x), rtol=1e-14, atol=0.0)
            assert np.allclose(np.conj(df[n]), sp.h2vp(n, x), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n", [-7, -2, -1])
    def test_negative_order_reflection(self, n):
        # negative orders are read from row |n| as f_n = (-1)^n f_|n|
        x = np.array([0.4, 2.9, 35.0])
        sign = (-1.0) ** n
        jn = sign * cyl_jn_table(-n, x)[-n]
        assert np.allclose(jn, sp.jv(n, x), rtol=1e-13, atol=1e-300)
        h1 = sign * hankel1_table(2, -n, x)[0][-n]
        assert np.allclose(h1, sp.hankel1(n, x), rtol=1e-14, atol=0.0)

    def test_hankel1_table_rows_are_the_single_order_functions(self):
        # a row does not depend on how many orders the table holds
        x = np.array([0.3, 4.2, 60.0])
        f, df = hankel1_table(2, 7, x)
        for n in range(8):
            fn, dfn = hankel1_table(2, n, x)
            assert np.array_equal(f[n], fn[n])
            assert np.array_equal(df[n], dfn[n])

    def test_hankel1_table_against_scipy(self):
        x = np.array([0.3, 4.2, 60.0])
        f, df = hankel1_table(2, 7, x)
        assert f.shape == df.shape == (8, 3)
        for n in range(8):
            assert np.allclose(f[n], sp.hankel1(n, x), rtol=1e-14, atol=0.0)
            assert np.allclose(df[n], sp.h1vp(n, x), rtol=1e-13, atol=0.0)

    def test_domain_and_capacity_errors(self):
        with pytest.raises(DomainError):
            hankel1_table(2, 0, 0.0)
        with pytest.raises(DomainError):
            hankel1_table(2, 0, -1.0)
        with pytest.raises(DomainError, match="exceeds ceiling"):
            hankel1_table(2, ORDER_MAX + 1, 1.0)


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
            table = cyl_jn_table(ORDER_MAX, x)
        ref = sp.jv(np.arange(ORDER_MAX + 1)[:, None], x[None, :])
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


def sph_j(l, x):
    """j_l at x from the table, row l."""
    return hankel1_table(3, l, x)[0][l].real


def sph_h1(l, x):
    """h_l^(1) and its derivative at x from the table, row l."""
    h, dh = hankel1_table(3, l, x)
    return h[l], dh[l]


class TestSphBessel:
    def test_h0_closed_form(self):
        x = 2.0
        expect = -1j * np.exp(1j * x) / x
        assert sph_h1(0, x)[0][0] == pytest.approx(expect, rel=1e-14)

    def test_j0_closed_form(self):
        assert sph_j(0, 1.0)[0] == pytest.approx(np.sin(1.0), rel=1e-14)

    def test_large_argument_asymptotic(self):
        # h_l^(1)(x) ~ (-j)^(l+1) e^(jx)/x for x >> l. The next term in the
        # expansion is a pure phase at O(1/x), so the 1% agreement is in
        # magnitude.
        l, x = 5, 40.0
        asym = (-1j) ** (l + 1) * np.exp(1j * x) / x
        got = sph_h1(l, x)[0][0]
        assert abs(abs(got) - abs(asym)) / abs(asym) < 0.01

    @pytest.mark.parametrize("l", [3, 7])
    def test_hankel_limit_at_extreme_argument(self, l):
        x = 1e3
        ratio = sph_h1(l, x)[0][0] * x * 1j ** (l + 1) / np.exp(1j * x)
        assert abs(abs(ratio) - 1.0) < 1e-3

    @pytest.mark.parametrize("l", [0, 1, 2, 5, 13, 30, 50])
    @pytest.mark.parametrize("x", [0.3, 1.0, 2.5, 17.0, 60.0])
    def test_against_scipy(self, l, x):
        assert sph_j(l, x)[0] == pytest.approx(
            sp.spherical_jn(l, x), rel=1e-12, abs=1e-280
        )
        mine = sph_h1(l, x)[0][0]
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
            assert sph_j(l, x)[0] == pytest.approx(curr, rel=1e-10)

    def test_array_argument(self):
        x = np.array([1.0, 2.0, 30.0])
        vals = sph_j(4, x)
        assert vals.shape == (3,)
        for xi, vi in zip(x, vals):
            assert vi == pytest.approx(sp.spherical_jn(4, xi), rel=1e-12)


class TestSphBesselDx:
    def test_j0_derivative_closed_form(self):
        # Re h_l^(1)' = j_l' at real arguments
        expect = np.cos(1.0) / 1.0 - np.sin(1.0) / 1.0**2
        assert expect == pytest.approx(-0.30116867893975674, abs=1e-15)
        assert sph_h1(0, 1.0)[1][0].real == pytest.approx(expect, rel=1e-13)

    def test_wronskian_identity(self):
        # j_l y_l' - j_l' y_l = 1/x^2
        l, x = 3, 2.5
        h, dh = sph_h1(l, x)
        jl, yl, jlp, ylp = h[0].real, h[0].imag, dh[0].real, dh[0].imag
        assert jl * ylp - jlp * yl == pytest.approx(1.0 / x**2, rel=1e-12)

    def test_against_central_difference(self):
        l, x, h = 2, 10.0, 1e-6
        fd = (sph_h1(l, x + h)[0][0] - sph_h1(l, x - h)[0][0]) / (2 * h)
        got = sph_h1(l, x)[1][0]
        assert abs(got - fd) / abs(fd) < 1e-7


class TestSphTables:
    X = np.concatenate([np.geomspace(0.05, 2.0, 40), np.linspace(2.0, 400.0, 200)])

    def test_jy_table_against_scipy(self):
        h = hankel1_table(3, 12, self.X)[0]
        j, y = h.real, h.imag
        assert j.shape == y.shape == (13, self.X.size)
        for l in range(13):
            # |j_l| <= 1, so absolute near its zeros; y_l relative
            assert np.allclose(j[l], sp.spherical_jn(l, self.X), rtol=0.0, atol=1e-14)
            assert np.allclose(y[l], sp.spherical_yn(l, self.X), rtol=1e-12, atol=0.0)

    def test_derivative_rows_against_scipy(self):
        h, dh = hankel1_table(3, 12, self.X)
        assert h.shape == dh.shape == (13, self.X.size)
        for l in range(13):
            jp = sp.spherical_jn(l, self.X, derivative=True)
            yp = sp.spherical_yn(l, self.X, derivative=True)
            assert np.allclose(dh[l].real, jp, rtol=0.0, atol=1e-14)
            assert np.allclose(dh[l].imag, yp, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", ["j", "y", "h1"])
    def test_rows_are_the_single_degree_functions(self, kind):
        # where x exceeds the degree the recurrences start at the same row,
        # so every row of one table equals the smaller table's last row bitwise
        x = np.linspace(60.0, 400.0, 50)

        def table(l):
            h, dh = hankel1_table(3, l, x)
            return {"h1": (h, dh), "j": (h.real,), "y": (h.imag,)}[kind]

        full = table(9)
        for l in range(10):
            for got, want in zip(full, table(l)):
                assert np.array_equal(got[l], want[l])

    def test_outgoing_kind_is_conjugate(self):
        # h^(2) = j - jy and its derivative, as the solvers take them
        h, dh = hankel1_table(3, 5, self.X)
        for l in range(6):
            jn, yn = sp.spherical_jn(l, self.X), sp.spherical_yn(l, self.X)
            jp = sp.spherical_jn(l, self.X, derivative=True)
            yp = sp.spherical_yn(l, self.X, derivative=True)
            assert np.allclose(np.conj(h[l]), jn - 1j * yn, rtol=1e-12, atol=0.0)
            assert np.allclose(np.conj(dh[l]), jp - 1j * yp, rtol=1e-12, atol=0.0)

    def test_degree_bounds(self):
        with pytest.raises(DomainError):
            hankel1_table(3, -1, 1.0)
        with pytest.raises(DomainError, match="exceeds ceiling"):
            hankel1_table(3, ORDER_MAX + 1, 1.0)
        with pytest.raises(DomainError):
            hankel1_table(3, 3, [1.0, np.nan])
        with pytest.raises(DomainError):
            hankel1_table(3, 3, 0.0)


def mp_hankel1_table(dim, n, x):
    """H^(1) (dim 2) or h^(1) (dim 3) of orders 0..n at x and their
    derivatives, at 40 digits: mpmath's closed forms at orders -1, 0 and 1,
    the upward recurrence above, which is stable for the dominant
    solution, and the derivative recurrence f_m' = f_{m-1} - (m+odd)/x f_m."""
    odd = dim - 2
    with mp.workdps(40):
        z = mp.mpf(float(x))
        if dim == 2:
            f = [-mp.hankel1(1, z), mp.hankel1(0, z), mp.hankel1(1, z)]
        else:
            e = mp.expj(z)
            f = [e / z, -1j * e / z, -e / z - 1j * e / z**2]
        for m in range(1, n):
            f.append((2 * m + odd) / z * f[-1] - f[-2])
        df = [f[m] - (m + odd) / z * f[m + 1] for m in range(n + 1)]
        return (np.array([complex(v) for v in f[1 : n + 2]]),
                np.array([complex(v) for v in df]))


class TestHankelTableAgainstMpmath:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_orders_to_60(self, dim):
        # measured worst case 8.4e-15 (2D, x = 370, order 0) and median
        # 1.1e-15: Miller's recurrence runs down through about x oscillatory
        # orders, each adding a rounding; scipy's per-order J and Y read
        # 2.1e-13 on the same points
        x = TestSphTables.X
        f, df = hankel1_table(dim, 60, x)
        worst = 0.0
        for i, xi in enumerate(x):
            ref, dref = mp_hankel1_table(dim, 60, xi)
            worst = max(worst, np.max(np.abs(f[:, i] - ref) / np.abs(ref)),
                        np.max(np.abs(df[:, i] - dref) / np.abs(dref)))
        assert worst <= 2e-14, worst
