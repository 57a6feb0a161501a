"""``ritz_pairs(max_pairs=m)`` against a full ``numpy.linalg.eig``.

Only the kept pairs get eigenvectors, from one batched inverse-iteration
solve on the Hessenberg matrix; a kept value inside a cluster takes a full
``eig`` instead.  Either way the pairs must match what ``eig`` gives:
values, vectors up to a unit phase, and residual estimates, to 1e-10
relative.
"""

import numpy as np
import pytest
import scipy.linalg

from repro.core import arnoldi
from repro.core.arnoldi import ArnoldiFactorization, build_arnoldi, ritz_pairs

RTOL = 1e-10

#: The reference decomposition, bound before any test counts ``eig`` calls.
_reference_eig = np.linalg.eig


def _factorization(hess: np.ndarray, coupling: float, seed: int = 0):
    """A factorization around ``hess`` with a random orthonormal basis."""
    k = hess.shape[0]
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((3 * k, k)) + 1j * rng.standard_normal((3 * k, k))
    basis, _ = np.linalg.qr(raw)
    return ArnoldiFactorization(
        basis=basis,
        hessenberg=hess,
        next_vector=None,
        residual_coupling=coupling,
        breakdown=coupling == 0.0,
        deflation_coeffs=np.zeros((0, k), dtype=complex),
    )


def _random_hessenberg(seed: int, k: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.triu(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)), -1)


def _hessenberg_with_eigenvalues(values: np.ndarray, seed: int) -> np.ndarray:
    """An upper Hessenberg matrix unitarily similar to a triangular one."""
    k = values.size
    rng = np.random.default_rng(seed)
    tri = np.diag(values) + 0.3 * np.triu(
        rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)), 1
    )
    unitary, _ = np.linalg.qr(
        rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    )
    return scipy.linalg.hessenberg(unitary @ tri @ unitary.conj().T)


def _assert_matches_eig(fact: ArnoldiFactorization, keep: int) -> None:
    hess = fact.hessenberg
    values, vectors = _reference_eig(hess)
    order = np.argsort(-np.abs(values))[:keep]
    pairs = ritz_pairs(fact, max_pairs=keep)
    assert len(pairs) == order.size
    scale = np.linalg.norm(hess, 1)
    coupling = abs(fact.residual_coupling)
    residual_atol = RTOL * max(coupling, 1e-300)
    for pair, idx in zip(pairs, order):
        assert abs(pair.value - values[idx]) <= RTOL * scale
        expected = vectors[:, idx]
        phase = np.vdot(pair.hess_vector, expected)
        assert abs(abs(phase) - 1.0) <= RTOL
        np.testing.assert_allclose(
            pair.hess_vector * (phase / abs(phase)), expected, rtol=0, atol=RTOL
        )
        expected_lifted = fact.basis @ expected
        np.testing.assert_allclose(
            pair.vector * (phase / abs(phase)),
            expected_lifted / np.linalg.norm(expected_lifted),
            rtol=0,
            atol=RTOL,
        )
        expected_residual = coupling * abs(expected[-1])
        assert abs(pair.residual_estimate - expected_residual) <= residual_atol


@pytest.fixture
def eig_calls(monkeypatch):
    """Count full eigendecompositions made by ``ritz_pairs``."""
    calls = []
    real_eig = np.linalg.eig

    def counting_eig(a):
        calls.append(a.shape)
        return real_eig(a)

    monkeypatch.setattr(arnoldi.np.linalg, "eig", counting_eig)
    return calls


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k, keep", [(12, 4), (30, 12), (60, 12)])
def test_random_hessenbergs_match_eig(seed, k, keep, eig_calls):
    rng = np.random.default_rng(100 + seed)
    values = rng.standard_normal(k) * np.exp(2j * np.pi * rng.random(k))
    hess = _hessenberg_with_eigenvalues(values, seed)
    _assert_matches_eig(_factorization(hess, 0.37, seed), keep)
    assert eig_calls == [], "well-separated values must not need a full eig"


@pytest.mark.parametrize("seed", range(4))
def test_unstructured_random_hessenbergs_match_eig(seed):
    _assert_matches_eig(_factorization(_random_hessenberg(seed, 40), 1.3, seed), 10)


def test_near_double_pair_takes_the_full_eig(eig_calls):
    values = np.linspace(1.0, 0.2, 20).astype(complex) * np.exp(
        1j * np.linspace(0.0, 5.0, 20)
    )
    hess = _hessenberg_with_eigenvalues(values, 7)
    scale = np.linalg.norm(hess, 1)
    values[1] = values[0] + 1e-8 * scale
    hess = _hessenberg_with_eigenvalues(values, 7)
    computed = np.sort_complex(np.linalg.eigvals(hess))
    assert np.min(np.abs(np.diff(computed))) < 1e-7 * scale
    _assert_matches_eig(_factorization(hess, 0.5), 6)
    assert eig_calls == [hess.shape]


def test_all_pairs_kept_uses_one_eig(eig_calls):
    hess = _random_hessenberg(3, 10)
    _assert_matches_eig(_factorization(hess, 0.2), 10)
    assert eig_calls == [hess.shape]


def test_breakdown_factorization_matches_eig(rng):
    """A Krylov space closed on an invariant subspace (coupling 0)."""
    diag = np.arange(1.0, 9.0) + 0j
    start = np.zeros(8, dtype=complex)
    start[:4] = rng.standard_normal(4)
    fact = build_arnoldi(lambda x: diag * x, start, 8)
    assert fact.breakdown and fact.dimension == 4
    assert fact.residual_coupling == 0.0
    _assert_matches_eig(fact, 2)
    assert all(pair.residual_estimate == 0.0 for pair in ritz_pairs(fact, max_pairs=2))


def test_kept_pairs_lead_the_full_ordering(rng):
    hess = _random_hessenberg(11, 25)
    fact = _factorization(hess, 0.8)
    everything = ritz_pairs(fact)
    leading = ritz_pairs(fact, max_pairs=5)
    for full, kept in zip(everything[:5], leading):
        assert abs(full.value - kept.value) <= RTOL * np.linalg.norm(hess, 1)
        assert abs(abs(np.vdot(full.vector, kept.vector)) - 1.0) <= RTOL


def test_zero_pairs_requested():
    assert ritz_pairs(_factorization(_random_hessenberg(0, 6), 1.0), max_pairs=0) == []
