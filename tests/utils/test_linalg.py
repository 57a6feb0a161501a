"""Unit and property tests for repro.utils.linalg."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import linalg as la


class TestBlkdiag:
    def test_basic(self):
        out = la.blkdiag([np.eye(2), 3.0 * np.eye(1)])
        expected = np.diag([1.0, 1.0, 3.0])
        np.testing.assert_array_equal(out, expected)

    def test_empty(self):
        assert la.blkdiag([]).shape == (0, 0)

    def test_rectangular_blocks(self):
        out = la.blkdiag([np.ones((1, 2)), np.ones((2, 1))])
        assert out.shape == (3, 3)
        assert out[0, 2] == 0.0

    def test_dtype_promotion(self):
        out = la.blkdiag([np.eye(1), 1j * np.eye(1)])
        assert out.dtype == complex


class TestSolveShiftedDiagonal:
    def test_vector_rhs(self):
        d = np.array([-1.0, -2.0, -3.0])
        shift = 0.5 + 0.7j
        rhs = np.array([1.0, 2.0, 3.0], dtype=complex)
        x = la.solve_shifted_diagonal(d, shift, rhs)
        np.testing.assert_allclose((d - shift) * x, rhs)

    def test_matrix_rhs(self):
        d = np.array([-1.0, -2.0])
        shift = 1j
        rhs = np.ones((2, 3), dtype=complex)
        x = la.solve_shifted_diagonal(d, shift, rhs)
        np.testing.assert_allclose((d - shift)[:, None] * x, rhs)

    def test_singular_shift_raises(self):
        with pytest.raises(ZeroDivisionError):
            la.solve_shifted_diagonal(np.array([-1.0]), -1.0, np.array([1.0]))


class TestSolveShiftedDiagonalMany:
    def test_matches_per_shift_vector_rhs(self, rng):
        d = -rng.uniform(0.5, 3.0, 6)
        shifts = 0.1 + 1j * np.linspace(0.5, 4.0, 5)
        rhs = rng.standard_normal(6)
        batch = la.solve_shifted_diagonal_many(d, shifts, rhs)
        for k, shift in enumerate(shifts):
            np.testing.assert_allclose(
                batch[k], la.solve_shifted_diagonal(d, shift, rhs), atol=1e-14
            )

    def test_matches_per_shift_matrix_rhs(self, rng):
        d = -rng.uniform(0.5, 3.0, 4)
        shifts = 1j * np.linspace(0.2, 2.0, 3)
        rhs = rng.standard_normal((4, 2))
        batch = la.solve_shifted_diagonal_many(d, shifts, rhs)
        assert batch.shape == (3, 4, 2)
        for k, shift in enumerate(shifts):
            np.testing.assert_allclose(
                batch[k], la.solve_shifted_diagonal(d, shift, rhs), atol=1e-14
            )

    def test_singular_shift_raises(self):
        with pytest.raises(ZeroDivisionError):
            la.solve_shifted_diagonal_many(
                np.array([-1.0, -2.0]), np.array([1j, -1.0 + 0j]), np.ones(2)
            )


class TestRot2:
    def _dense_block(self, alpha, beta):
        return np.array([[alpha, beta], [-beta, alpha]])

    def test_apply_matches_dense(self, rng):
        alpha = rng.standard_normal(5)
        beta = rng.standard_normal(5)
        x = rng.standard_normal((5, 2))
        out = la.apply_rot2(alpha, beta, x)
        for i in range(5):
            np.testing.assert_allclose(
                out[i], self._dense_block(alpha[i], beta[i]) @ x[i]
            )

    def test_solve_matches_dense(self, rng):
        alpha = rng.standard_normal(4)
        beta = rng.standard_normal(4) + 2.0
        shift = 0.3 + 0.9j
        rhs = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        x = la.solve_shifted_rot2(alpha, beta, shift, rhs)
        for i in range(4):
            block = self._dense_block(alpha[i], beta[i]) - shift * np.eye(2)
            np.testing.assert_allclose(block @ x[i], rhs[i], atol=1e-12)

    def test_solve_matrix_rhs(self, rng):
        alpha = rng.standard_normal(3)
        beta = rng.standard_normal(3) + 1.5
        shift = 1.1j
        rhs = rng.standard_normal((3, 2, 4)) + 0j
        x = la.solve_shifted_rot2(alpha, beta, shift, rhs)
        for i in range(3):
            block = self._dense_block(alpha[i], beta[i]) - shift * np.eye(2)
            np.testing.assert_allclose(block @ x[i], rhs[i], atol=1e-12)

    def test_singular_shift_raises(self):
        # Block eigenvalues are alpha +/- j beta; shift exactly there.
        with pytest.raises(ZeroDivisionError):
            la.solve_shifted_rot2(
                np.array([-1.0]), np.array([2.0]), -1.0 + 2.0j, np.ones((1, 2))
            )


class TestSolveShiftedRot2Many:
    def test_matches_per_shift(self, rng):
        alpha = rng.standard_normal(4)
        beta = rng.standard_normal(4) + 2.0
        shifts = 0.2 + 1j * np.linspace(0.3, 3.0, 6)
        rhs = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        batch = la.solve_shifted_rot2_many(alpha, beta, shifts, rhs)
        assert batch.shape == (6, 4, 2)
        for k, shift in enumerate(shifts):
            np.testing.assert_allclose(
                batch[k], la.solve_shifted_rot2(alpha, beta, shift, rhs), atol=1e-13
            )

    def test_matches_per_shift_block_rhs(self, rng):
        alpha = rng.standard_normal(3)
        beta = rng.standard_normal(3) + 1.5
        shifts = 1j * np.linspace(0.1, 1.5, 4)
        rhs = rng.standard_normal((3, 2, 5)) + 0j
        batch = la.solve_shifted_rot2_many(alpha, beta, shifts, rhs)
        assert batch.shape == (4, 3, 2, 5)
        for k, shift in enumerate(shifts):
            np.testing.assert_allclose(
                batch[k], la.solve_shifted_rot2(alpha, beta, shift, rhs), atol=1e-13
            )

    def test_singular_shift_raises(self):
        with pytest.raises(ZeroDivisionError):
            la.solve_shifted_rot2_many(
                np.array([-1.0]),
                np.array([2.0]),
                np.array([1j, -1.0 + 2.0j]),
                np.ones((1, 2)),
            )


class TestOrthonormalizeAgainst:
    def test_empty_basis(self, rng):
        v = rng.standard_normal(6) + 0j
        coeffs, norm, q = la.orthonormalize_against(np.zeros((6, 0), complex), v)
        assert coeffs.size == 0
        assert norm == pytest.approx(np.linalg.norm(v))
        np.testing.assert_allclose(np.linalg.norm(q), 1.0)

    def test_orthogonality(self, rng):
        basis, _ = np.linalg.qr(
            rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        )
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        coeffs, norm, q = la.orthonormalize_against(basis, v)
        np.testing.assert_allclose(basis.conj().T @ q, 0.0, atol=1e-12)

    def test_reconstruction(self, rng):
        basis, _ = np.linalg.qr(rng.standard_normal((8, 3)) + 0j)
        v = rng.standard_normal(8) + 0j
        coeffs, norm, q = la.orthonormalize_against(basis, v)
        np.testing.assert_allclose(basis @ coeffs + norm * q, v, atol=1e-12)

    def test_breakdown_detected(self, rng):
        basis, _ = np.linalg.qr(rng.standard_normal((6, 2)) + 0j)
        v = basis @ np.array([1.0, -2.0])  # inside span(basis)
        _, norm, q = la.orthonormalize_against(basis, v)
        assert q is None
        assert norm == 0.0

    def test_zero_vector_breakdown(self):
        basis = np.zeros((4, 0), complex)
        _, norm, q = la.orthonormalize_against(basis, np.zeros(4, complex))
        assert q is None

    def test_strided_column_slice(self, rng):
        """A column slice of a wider basis, as the Arnoldi loop passes it."""
        n, d, k = 40, 12, 7
        full = np.zeros((n, d), dtype=complex)
        full[:, :k], _ = np.linalg.qr(
            rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        )
        basis = full[:, :k]
        assert not basis.flags.c_contiguous and not basis.flags.f_contiguous
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        coeffs, norm, q = la.orthonormalize_against(basis, v)
        np.testing.assert_allclose(coeffs, basis.conj().T @ v, rtol=0, atol=1e-13)
        np.testing.assert_allclose(basis.conj().T @ q, 0.0, atol=1e-12)
        np.testing.assert_allclose(basis @ coeffs + norm * q, v, atol=1e-12)


class TestRelativeSpacing:
    def test_single_value(self):
        assert la.relative_spacing([1.0]) == np.inf

    def test_uniform(self):
        assert la.relative_spacing([0.0, 1.0, 2.0]) == pytest.approx(0.5)


@settings(max_examples=50, deadline=None)
@given(
    alpha=st.floats(-5, 5, allow_nan=False),
    beta=st.floats(0.1, 5, allow_nan=False),
    sr=st.floats(-3, 3, allow_nan=False),
    si=st.floats(-3, 3, allow_nan=False),
)
def test_rot2_solve_property(alpha, beta, sr, si):
    """(block - shift I) @ solve(...) == rhs for random blocks and shifts."""
    shift = complex(sr, si)
    # Skip shifts that coincide with the block eigenvalues alpha +/- j beta.
    if min(abs(shift - (alpha + 1j * beta)), abs(shift - (alpha - 1j * beta))) < 1e-6:
        return
    rhs = np.array([[1.0 + 0.5j, -2.0 - 1.0j]])
    x = la.solve_shifted_rot2(np.array([alpha]), np.array([beta]), shift, rhs)
    block = np.array([[alpha, beta], [-beta, alpha]]) - shift * np.eye(2)
    np.testing.assert_allclose(block @ x[0], rhs[0], atol=1e-8)
