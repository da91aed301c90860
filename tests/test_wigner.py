import numpy as np
import pytest
from scipy.linalg import expm

from wsdelay.errors import ContractError, DomainError
from wsdelay.mie import (
    free_space_smatrix,
    mie_smatrix,
    mie_smatrix_deriv,
    reflection_table,
)
from wsdelay.modal import ModeSet
from wsdelay.smatrix import BoundaryCondition, SMatrix
from wsdelay.wigner import (
    QMatrix,
    q_matrix,
    smatrix_fd_derivative,
    validate_smatrix,
    ws_decompose,
)

SOFT = BoundaryCondition.SOUND_SOFT
HARD = BoundaryCondition.SOUND_HARD


def sphere_provider(bc, a, lmax):
    def provider(k):
        modes = ModeSet.spherical(lmax, k)
        return mie_smatrix(3, bc, k, a, modes)

    return provider


class TestFdDerivative:
    def test_matches_analytic_on_sphere(self):
        k, a, lmax = 1.0, 2.0, 4  # ka = 2
        fd = smatrix_fd_derivative(sphere_provider(SOFT, a, lmax), k, dk=1e-5)
        ana = mie_smatrix_deriv(3, SOFT, k, a, ModeSet.spherical(lmax, k))
        err = np.linalg.norm(fd.matrix - ana.matrix) / np.linalg.norm(ana.matrix)
        assert err < 1e-7

    def test_free_space_derivative_is_zero(self):
        def provider(k):
            return free_space_smatrix(ModeSet.angular(4, k))

        fd = smatrix_fd_derivative(provider, 1.0)
        assert np.max(np.abs(fd.matrix)) < 1e-12

    def test_second_order_convergence(self):
        k, a, lmax = 1.0, 2.0, 3
        ana = mie_smatrix_deriv(3, SOFT, k, a, ModeSet.spherical(lmax, k)).matrix
        errs = []
        for dk in (2e-3, 1e-3):
            fd = smatrix_fd_derivative(sphere_provider(SOFT, a, lmax), k, dk=dk)
            errs.append(np.linalg.norm(fd.matrix - ana))
        ratio = errs[0] / errs[1]
        assert 2.5 < ratio < 6.0

    @pytest.mark.parametrize("dk", [0.0, -1e-4, float("nan")])
    def test_bad_step_rejected(self, dk):
        with pytest.raises(DomainError):
            smatrix_fd_derivative(sphere_provider(SOFT, 2.0, 1), 1.0, dk=dk)


class TestQMatrix:
    def test_soft_sphere_monopole_delay(self):
        k, a = 1.0, 1.0
        modes = ModeSet.spherical(0, k)
        q = q_matrix(
            mie_smatrix(3, SOFT, k, a, modes), mie_smatrix_deriv(3, SOFT, k, a, modes)
        )
        assert q.matrix[0, 0].real == pytest.approx(-2.0 * a, abs=1e-10)
        assert q.presym_residual < 1e-12

    def test_free_space_q_is_zero(self):
        modes = ModeSet.angular(5, 1.0)
        s = free_space_smatrix(modes)
        sp = SMatrix(modes=modes, k=1.0, matrix=np.zeros_like(s.matrix))
        q = q_matrix(s, sp)
        assert np.max(np.abs(q.matrix)) == 0.0

    def test_hermitian_and_real_diagonal(self):
        k, a = 1.0, 1.5
        modes = ModeSet.spherical(4, k)
        q = q_matrix(
            mie_smatrix(3, HARD, k, a, modes), mie_smatrix_deriv(3, HARD, k, a, modes)
        )
        assert np.array_equal(q.matrix, q.matrix.conj().T)
        assert np.max(np.abs(np.diag(q.matrix).imag)) == 0.0

    def test_shape_mismatch_rejected(self):
        m1, m2 = ModeSet.angular(2, 1.0), ModeSet.angular(3, 1.0)
        with pytest.raises(ContractError):
            q_matrix(free_space_smatrix(m1), free_space_smatrix(m2))


class TestWsDecompose:
    def _sphere_case(self, bc, k=1.0, a=2.0, lmax=3):
        modes = ModeSet.spherical(lmax, k)
        s = mie_smatrix(3, bc, k, a, modes)
        sp = mie_smatrix_deriv(3, bc, k, a, modes)
        q = q_matrix(s, sp)
        return q, s, modes

    def test_sphere_delays_and_multiplicities(self):
        k, a, lmax = 1.0, 2.0, 3
        q, s, modes = self._sphere_case(SOFT, k, a, lmax)
        dec = ws_decompose(q, s)
        expected = []
        alpha, dalpha = reflection_table(3, SOFT, k, a, lmax)
        for l in range(lmax + 1):
            tau = (1j * np.conj(alpha[l]) * dalpha[l]).real
            expected.extend([tau] * (2 * l + 1))
        assert np.allclose(sorted(expected), dec.delays, atol=1e-10)

    def test_invariants(self):
        q, s, _ = self._sphere_case(HARD)
        dec = ws_decompose(q, s)
        assert dec.orthonormality_residual() < 1e-10
        assert dec.reconstruction_residual(q) < 1e-10
        assert dec.simdiag_offdiag_residual() < 1e-12
        assert np.allclose(np.abs(np.diag(dec.sbar)), 1.0, atol=1e-12)
        assert dec.diagonal_delay_identity_residual(q) < 1e-10

    def test_delays_invariant_under_phase_convention(self):
        q, s, modes = self._sphere_case(SOFT)
        dec = ws_decompose(q, s)
        rng = np.random.default_rng(2)
        d = np.exp(1j * rng.uniform(0, 2 * np.pi, size=q.matrix.shape[0]))
        q2 = QMatrix(
            matrix=np.diag(d) @ q.matrix @ np.diag(d).conj(),
            provenance=q.provenance,
        )
        s2 = SMatrix(modes=modes, k=s.k, matrix=np.diag(d) @ s.matrix @ np.diag(d))
        dec2 = ws_decompose(q2, s2)
        assert np.allclose(dec.delays, dec2.delays, atol=1e-10)

    def test_deterministic(self):
        q, s, _ = self._sphere_case(SOFT)
        d1 = ws_decompose(q, s)
        d2 = ws_decompose(q, s)
        assert np.array_equal(d1.w, d2.w)
        assert np.array_equal(d1.delays, d2.delays)


class TestValidateSmatrix:
    def test_mie_passes(self):
        s = mie_smatrix(2, SOFT, 1.0, 2.0, ModeSet.angular(6, 1.0))
        rep = validate_smatrix(s)
        assert rep.unitarity_residual <= 1e-12
        assert rep.symmetry_residual <= 1e-12
        assert rep.passed

    def test_truncated_dense_unitary_fails(self):
        rng = np.random.default_rng(4)
        m = 24
        a = rng.normal(size=(m, m))
        a = a + a.T  # real symmetric generator -> exp(jA) unitary symmetric
        u = expm(1j * a)
        keep = m - 5
        modes = ModeSet.angular((keep - 1) // 2, 1.0)
        s = SMatrix(modes=modes, k=1.0, matrix=u[:keep, :keep])
        rep = validate_smatrix(s)
        assert not rep.passed
        assert rep.unitarity_residual > 1e-3
