"""Parity of the fused Hamiltonian kernels with dense linear algebra.

``HamiltonianOperator.matvec`` applies ``M = K0 + (U Z) V`` and
``ShiftInvertOperator.matvec`` applies ``K^-1 - G Z_c V K^-1`` with
``G = K^-1 U`` stored by blocks.  Both must equal the dense ``M`` (whose
``-A^T`` block checks the transposed state factors) and a dense solve of
``M - theta I`` for every pole layout the factored form distinguishes:
real poles only (the pair permutation is the identity), complex pairs only,
a mix, and a single port.
"""

import numpy as np
import pytest

from repro.hamiltonian.operator import HamiltonianOperator
from repro.macromodel.realization import pole_residue_to_simo
from tests.conftest import make_pole_residue

#: (num_ports, num_real, num_pairs) of each model layout.
LAYOUTS = {
    "mixed": (3, 2, 3),
    "real_poles_only": (3, 4, 0),
    "complex_pairs_only": (3, 0, 4),
    "single_port": (1, 2, 3),
}

SHIFTS = [0.0j, 1.3j, 7.9j, 0.2 + 5.0j]


def _operator(layout: str, representation: str, seed: int = 3) -> HamiltonianOperator:
    ports, num_real, num_pairs = LAYOUTS[layout]
    model = make_pole_residue(
        seed=seed, num_ports=ports, num_real=num_real, num_pairs=num_pairs
    )
    if representation == "immittance":
        model = model.with_d(model.d + 2.0 * np.eye(ports))
    return HamiltonianOperator(pole_residue_to_simo(model), representation)


@pytest.fixture(
    params=[
        (layout, representation)
        for layout in LAYOUTS
        for representation in ("scattering", "immittance")
    ],
    ids=lambda param: f"{param[0]}-{param[1]}",
)
def op(request):
    return _operator(*request.param)


def _inputs(rng, dim: int):
    block = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
    return block[:, 0].copy(), block


def test_layouts_cover_both_state_kinds():
    real_only = _operator("real_poles_only", "scattering").simo
    pairs_only = _operator("complex_pairs_only", "scattering").simo
    assert real_only.pair_pos.size == 0 and real_only.real_pos.size > 0
    assert pairs_only.real_pos.size == 0 and pairs_only.pair_pos.size > 0
    assert _operator("single_port", "scattering").num_ports == 1


def test_port_projection_matches_dense_b_and_c(op):
    simo = op.simo
    n, p = simo.order, simo.num_ports
    v = op.port_projection
    assert v.shape == (2 * p, 2 * n)
    np.testing.assert_array_equal(v[:p, :n], simo.c)
    np.testing.assert_array_equal(v[p:, n:], simo.dense_b().T)
    assert not v[:p, n:].any() and not v[p:, :n].any()
    assert not v.flags.writeable


def test_hamiltonian_matvec_matches_dense(op, rng):
    m = op.dense()
    x, block = _inputs(rng, op.dimension)
    scale = np.abs(m).max() * np.abs(block).max()
    np.testing.assert_allclose(op.matvec(x), m @ x, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(op.matvec(block), m @ block, rtol=0, atol=1e-12 * scale)


def test_hamiltonian_matvec_real_block_stays_real(op, rng):
    block = rng.standard_normal((op.dimension, 2))
    out = op.matvec(block)
    assert out.dtype == np.float64
    np.testing.assert_allclose(
        out, op.dense() @ block, rtol=0, atol=1e-12 * np.abs(out).max()
    )


@pytest.mark.parametrize("shift", SHIFTS)
def test_shift_invert_matches_dense_solve(op, rng, shift):
    si = op.shift_invert(shift)
    shifted = op.dense() - si.shift * np.eye(op.dimension)
    x, block = _inputs(rng, op.dimension)
    expected = np.linalg.solve(shifted, block)
    scale = np.abs(expected).max()
    np.testing.assert_allclose(si.matvec(block), expected, rtol=0, atol=1e-10 * scale)
    np.testing.assert_allclose(si.matvec(x), expected[:, 0], rtol=0, atol=1e-10 * scale)


@pytest.mark.parametrize("shift", SHIFTS)
def test_shift_invert_inverts_dense_hamiltonian(op, rng, shift):
    """(M - theta I) applied to the SMW solution gives back the input."""
    si = op.shift_invert(shift)
    shifted = op.dense() - si.shift * np.eye(op.dimension)
    x, block = _inputs(rng, op.dimension)
    for rhs in (x, block):
        residual = shifted @ si.matvec(rhs) - rhs
        assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(rhs)


def test_block_apply_equals_column_applies(op, rng):
    si = op.shift_invert(2.1j)
    _, block = _inputs(rng, op.dimension)
    for apply in (si.matvec, op.matvec):
        columns = np.stack([apply(block[:, j]) for j in range(3)], axis=1)
        np.testing.assert_allclose(
            apply(block), columns, rtol=0, atol=1e-13 * np.abs(columns).max()
        )
