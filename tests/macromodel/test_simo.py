"""Unit and property tests for the structured SIMO realization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.macromodel.realization import pole_residue_to_simo
from repro.macromodel.simo import SimoColumn, SimoRealization, segment_sum
from repro.utils import linalg as la
from tests.conftest import make_pole_residue


class TestSegmentSum:
    def test_vector(self):
        out = segment_sum(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 2, 4]))
        np.testing.assert_array_equal(out, [3.0, 7.0])

    def test_matrix(self):
        vals = np.arange(8.0).reshape(4, 2)
        out = segment_sum(vals, np.array([0, 1, 4]))
        np.testing.assert_array_equal(out, [[0.0, 1.0], [12.0, 15.0]])

    def test_empty_segments(self):
        out = segment_sum(np.array([1.0, 2.0]), np.array([0, 0, 2, 2]))
        np.testing.assert_array_equal(out, [0.0, 3.0, 0.0])

    def test_all_empty(self):
        out = segment_sum(np.zeros(0), np.array([0, 0]))
        np.testing.assert_array_equal(out, [0.0])

    def test_complex(self):
        out = segment_sum(np.array([1j, 2j]), np.array([0, 2]))
        assert out[0] == 3j


class TestSimoColumn:
    def test_order_counts_pairs_twice(self):
        col = SimoColumn(
            np.array([-1.0]),
            np.array([[1.0, 2.0]]),
            np.array([-0.5 + 3j]),
            np.array([[1 + 1j, 2 - 1j]]),
        )
        assert col.order == 3
        assert col.num_ports == 2

    def test_all_poles(self):
        col = SimoColumn(
            np.array([-1.0]),
            np.array([[1.0]]),
            np.array([-0.5 + 3j]),
            np.array([[1 + 1j]]),
        )
        np.testing.assert_allclose(
            np.sort_complex(col.all_poles()),
            np.sort_complex(np.array([-1.0, -0.5 + 3j, -0.5 - 3j])),
        )

    def test_rejects_lower_half_pair(self):
        with pytest.raises(ValueError, match="upper half"):
            SimoColumn(
                np.array([]),
                np.zeros((0, 1)),
                np.array([-1 - 1j]),
                np.ones((1, 1)) + 0j,
            )

    def test_rejects_residue_count_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            SimoColumn(
                np.array([-1.0, -2.0]), np.ones((1, 2)), np.array([]), np.zeros((0, 2))
            )


class TestAgainstDense:
    """Every structured kernel must agree with its dense counterpart."""

    @pytest.fixture
    def simo(self):
        return pole_residue_to_simo(make_pole_residue(seed=7))

    def test_transfer_equals_pole_residue(self, simo):
        model = make_pole_residue(seed=7)
        for s in (0.3j, 5.0j, 0.5 + 2.0j):
            np.testing.assert_allclose(
                simo.transfer(s), model.transfer(s), atol=1e-12
            )

    def test_transfer_equals_dense_statespace(self, simo):
        ss = simo.to_statespace()
        for s in (1.0j, 0.1 + 7.0j):
            np.testing.assert_allclose(simo.transfer(s), ss.transfer(s), atol=1e-10)

    @staticmethod
    def _apply(factors, x):
        diag, off, swap = factors
        return (diag * x.T + off * x[swap].T).T

    def test_state_factors(self, simo, rng):
        a = simo.dense_a()
        x = rng.standard_normal(simo.order) + 1j * rng.standard_normal(simo.order)
        np.testing.assert_allclose(
            self._apply(simo.state_factors(), x), a @ x, atol=1e-12
        )

    def test_state_factors_block_input(self, simo, rng):
        a = simo.dense_a()
        x = rng.standard_normal((simo.order, 3))
        np.testing.assert_allclose(
            self._apply(simo.state_factors(), x), a @ x, atol=1e-12
        )

    def test_solve_shifted(self, simo, rng):
        a = simo.dense_a()
        shift = 0.3 + 1.1j
        rhs = rng.standard_normal(simo.order) + 1j * rng.standard_normal(simo.order)
        x = simo.solve_shifted(shift, rhs)
        np.testing.assert_allclose(
            (a - shift * np.eye(simo.order)) @ x, rhs, atol=1e-11
        )

    def test_solve_shifted_transpose(self, simo, rng):
        a = simo.dense_a()
        shift = -0.4 + 2.0j
        rhs = rng.standard_normal(simo.order) + 0j
        x = simo.solve_shifted(shift, rhs, transpose=True)
        np.testing.assert_allclose(
            (a.T - shift * np.eye(simo.order)) @ x, rhs, atol=1e-11
        )

    def test_solve_shifted_matrix_rhs(self, simo, rng):
        a = simo.dense_a()
        shift = 1.7j
        rhs = rng.standard_normal((simo.order, 4)) + 0j
        x = simo.solve_shifted(shift, rhs)
        np.testing.assert_allclose(
            (a - shift * np.eye(simo.order)) @ x, rhs, atol=1e-11
        )

    def test_solve_on_pole_raises(self, simo):
        pole = simo.real_val[0] if simo.real_val.size else complex(
            simo.pair_alpha[0], simo.pair_beta[0]
        )
        with pytest.raises(ZeroDivisionError):
            simo.solve_shifted(complex(pole), np.ones(simo.order))

    def test_gamma_definition(self, simo):
        a = simo.dense_a()
        b = simo.dense_b()
        shift = 0.2 + 3.0j
        expected = simo.c @ np.linalg.solve(
            a - shift * np.eye(simo.order), b.astype(complex)
        )
        np.testing.assert_allclose(simo.gamma(shift), expected, atol=1e-10)

    def test_gamma_transpose_consistency(self, simo):
        shift = 0.1 + 2.5j
        np.testing.assert_allclose(
            simo.gamma_transpose(shift), simo.gamma(shift).T, atol=1e-10
        )


class TestShiftedInverseFactors:
    """The factored inverse against the per-block reference kernels."""

    @pytest.fixture
    def simo(self):
        return pole_residue_to_simo(make_pole_residue(seed=7))

    def test_swap_exchanges_pair_states(self, simo):
        _, off, swap = simo.shifted_inverse_factors(0.3 + 1.1j)
        np.testing.assert_array_equal(swap[simo.real_pos], simo.real_pos)
        np.testing.assert_array_equal(swap[simo.pair_pos], simo.pair_pos + 1)
        np.testing.assert_array_equal(swap[simo.pair_pos + 1], simo.pair_pos)
        np.testing.assert_array_equal(off[simo.real_pos], 0.0)
        np.testing.assert_array_equal(swap[swap], np.arange(simo.order))

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("rhs_shape", [(), (3,)])
    def test_matches_reference_kernels(self, simo, rng, transpose, rhs_shape):
        shift = -0.4 + 2.0j
        shape = (simo.order,) + rhs_shape
        rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        diag, off, swap = simo.shifted_inverse_factors(shift, transpose=transpose)
        col = (slice(None),) + (None,) * len(rhs_shape)
        x = diag[col] * rhs + off[col] * rhs[swap]
        solved = simo.solve_shifted(shift, rhs, transpose=transpose)
        np.testing.assert_allclose(x, solved, rtol=0, atol=1e-14)

        real = la.solve_shifted_diagonal(simo.real_val, shift, rhs[simo.real_pos])
        np.testing.assert_allclose(x[simo.real_pos], real, rtol=0, atol=1e-14)
        beta = -simo.pair_beta if transpose else simo.pair_beta
        stacked = np.stack([rhs[simo.pair_pos], rhs[simo.pair_pos + 1]], axis=1)
        pair = la.solve_shifted_rot2(simo.pair_alpha, beta, shift, stacked)
        np.testing.assert_allclose(x[simo.pair_pos], pair[:, 0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            x[simo.pair_pos + 1], pair[:, 1], rtol=0, atol=1e-14
        )

    @pytest.mark.parametrize("transpose", [False, True])
    def test_pole_shift_raises(self, simo, transpose):
        pair_pole = complex(simo.pair_alpha[0], simo.pair_beta[0])
        for pole in (simo.real_val[0], pair_pole, pair_pole.conjugate()):
            with pytest.raises(ZeroDivisionError):
                simo.shifted_inverse_factors(pole, transpose=transpose)


class TestMetadata:
    def test_poles_union(self, small_simo, small_model):
        np.testing.assert_allclose(
            np.sort_complex(small_simo.poles()),
            np.sort_complex(np.tile(small_model.poles, small_model.num_ports)),
        )

    def test_stability(self, small_simo):
        assert small_simo.is_stable()

    def test_spectral_radius_bound(self, small_simo):
        bound = small_simo.spectral_radius_bound()
        assert bound >= np.abs(small_simo.poles()).max() - 1e-12

    def test_column_orders_sum(self, small_simo):
        assert small_simo.column_orders.sum() == small_simo.order

    def test_columns_roundtrip(self, small_simo):
        cols = small_simo.columns
        rebuilt = SimoRealization(cols, small_simo.d)
        assert rebuilt.order == small_simo.order
        np.testing.assert_allclose(rebuilt.c, small_simo.c)

    def test_repr(self, small_simo):
        assert "SimoRealization" in repr(small_simo)

    def test_port_count_mismatch_rejected(self, small_simo):
        with pytest.raises(ValueError, match="columns"):
            SimoRealization(small_simo.columns[:2], small_simo.d)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_simo_transfer_matches_pole_residue_property(seed):
    """Structured O(n p) transfer == partial-fraction sum, any model."""
    model = make_pole_residue(seed=seed, num_ports=2, num_real=1, num_pairs=2)
    simo = pole_residue_to_simo(model)
    s = 1j * (seed % 13 + 0.5)
    np.testing.assert_allclose(simo.transfer(s), model.transfer(s), atol=1e-10)
