"""Unit tests for the SMW shift-and-invert operator (eq. 6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hamiltonian.operator import HamiltonianOperator
from repro.hamiltonian.shift_invert import ShiftInvertOperator
from repro.macromodel.realization import pole_residue_to_simo
from repro.utils.timing import WorkCounter
from tests.conftest import make_pole_residue


@pytest.fixture
def op(small_simo):
    return HamiltonianOperator(small_simo)


def _immittance_operator():
    model = make_pole_residue(seed=2)
    model = model.with_d(model.d + 2.0 * np.eye(model.num_ports))
    return HamiltonianOperator(pole_residue_to_simo(model), "immittance")


class TestConstruction:
    def test_factory(self, op):
        si = op.shift_invert(1.5j)
        assert isinstance(si, ShiftInvertOperator)
        assert si.shift == 1.5j

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            ShiftInvertOperator("not an operator", 1j)

    def test_shift_on_pole_raises(self, op):
        pole = complex(op.simo.poles()[0])
        with pytest.raises(ZeroDivisionError):
            op.shift_invert(pole)

    def test_shift_on_mirrored_pole_raises(self, op):
        """A shift at -conj(p) makes the bottom block -A^T - theta I singular."""
        simo = op.simo
        pole = complex(simo.pair_alpha[0], simo.pair_beta[0])
        mirrored = -pole.conjugate()
        simo.solve_shifted(mirrored, np.ones(simo.order))  # top block is fine
        with pytest.raises(ZeroDivisionError):
            op.shift_invert(mirrored)

    def test_small_solve_counted(self, small_simo):
        work = WorkCounter()
        op = HamiltonianOperator(small_simo, work=work)
        op.shift_invert(2.0j)
        assert work.small_solves == 1


class TestApply:
    @pytest.mark.parametrize("shift", [0.0j, 0.9j, 3.1j, 0.2 + 5.0j, -1.0 + 0.5j])
    def test_inverse_property(self, op, rng, shift):
        si = op.shift_invert(shift)
        m = op.dense()
        x = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
        y = si.matvec(x)
        residual = (m - si.shift * np.eye(op.dimension)) @ y - x
        assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(x)

    def test_wrong_length_rejected(self, op):
        si = op.shift_invert(1j)
        with pytest.raises(ValueError, match="length"):
            si.matvec(np.zeros(5))

    def test_callable_alias(self, op, rng):
        si = op.shift_invert(1j)
        x = rng.standard_normal(op.dimension) + 0j
        np.testing.assert_array_equal(si(x), si.matvec(x))

    def test_apply_counted(self, small_simo, rng):
        work = WorkCounter()
        op = HamiltonianOperator(small_simo, work=work)
        si = op.shift_invert(1j)
        before = work.operator_applies
        si.matvec(rng.standard_normal(op.dimension) + 0j)
        assert work.operator_applies == before + 1

    def test_roundtrip_with_matvec(self, op, rng):
        """op.matvec(si.matvec(x)) - shift*si.matvec(x) == x."""
        si = op.shift_invert(2.2j)
        x = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
        y = si.matvec(x)
        np.testing.assert_allclose(
            op.matvec(y) - si.shift * y, x, atol=1e-8 * np.linalg.norm(x)
        )

    def test_immittance_inverse(self, rng):
        op = _immittance_operator()
        si = op.shift_invert(1.3j)
        m = op.dense()
        x = rng.standard_normal(op.dimension) + 0j
        y = si.matvec(x)
        residual = (m - 1.3j * np.eye(op.dimension)) @ y - x
        assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(x)

    def test_repr(self, op):
        assert "ShiftInvertOperator" in repr(op.shift_invert(1j))


class TestAgainstDenseSolve:
    """Vector and block applies equal ``solve(M - theta I, X)``."""

    @pytest.fixture(params=["scattering", "immittance"])
    def op(self, request, small_simo):
        if request.param == "scattering":
            return HamiltonianOperator(small_simo)
        return _immittance_operator()

    @pytest.mark.parametrize("shift", [0.0j, 1.3j, 0.2 + 5.0j])
    def test_vector_and_block(self, op, rng, shift):
        si = op.shift_invert(shift)
        shifted = op.dense() - si.shift * np.eye(op.dimension)
        shape = (op.dimension, 4)
        block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expected = np.linalg.solve(shifted, block)
        scale = np.abs(expected).max()
        np.testing.assert_allclose(
            si.matvec(block), expected, rtol=0, atol=1e-10 * scale
        )
        np.testing.assert_allclose(
            si.matvec(block[:, 1]), expected[:, 1], rtol=0, atol=1e-10 * scale
        )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 3_000),
    omega=st.floats(0.0, 20.0, allow_nan=False),
)
def test_smw_equals_dense_inverse_property(seed, omega):
    """SMW apply == dense solve at random shifts on random models."""
    model = make_pole_residue(seed=seed, num_ports=2, num_real=1, num_pairs=2)
    simo = pole_residue_to_simo(model)
    op = HamiltonianOperator(simo)
    try:
        si = op.shift_invert(1j * omega)
    except (ZeroDivisionError, np.linalg.LinAlgError):
        return  # shift collided with a pole/eigenvalue — allowed to refuse
    m = op.dense()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
    y = si.matvec(x)
    residual = (m - si.shift * np.eye(op.dimension)) @ y - x
    # Conditioning near eigenvalues degrades the bound; stay lenient.
    assert np.linalg.norm(residual) <= 1e-6 * np.linalg.norm(x)
