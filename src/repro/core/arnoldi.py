"""Arnoldi machinery: Krylov factorization, Ritz extraction, deflation.

The single-shift iteration of Sec. III builds a ``d``-dimensional orthogonal
basis of the Krylov subspace of the shift-inverted Hamiltonian (eq. 8),
``d`` much smaller than the matrix order 2n (the paper uses ``d = 60``).
This module implements the factorization with:

* classical Gram-Schmidt with re-orthogonalization ("twice is enough");
* explicit deflation — every generated vector is kept orthogonal to a set
  of *locked* vectors spanning already-converged eigenvector directions, so
  restarts discover new eigenvalues instead of reconverging old ones;
* breakdown handling — a vanishing remainder means the Krylov space closed
  on an invariant subspace, which is a success condition, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.utils.linalg import orthonormalize_against
from repro.utils.timing import WorkCounter

__all__ = ["ArnoldiFactorization", "RitzPair", "build_arnoldi", "ritz_pairs"]

Operator = Callable[[np.ndarray], np.ndarray]


@dataclass
class ArnoldiFactorization:
    """Result of a (possibly early-terminated) Arnoldi run.

    Satisfies ``OP V_k = V_k H_k + h_{k+1,k} v_{k+1} e_k^T`` restricted to
    the orthogonal complement of the locked subspace.

    Attributes
    ----------
    basis:
        ``(n, k)`` orthonormal Krylov basis ``V_k``.
    hessenberg:
        ``(k, k)`` upper Hessenberg projection ``H_k``.
    next_vector:
        The ``(k+1)``-th basis vector, or ``None`` on breakdown.
    residual_coupling:
        The scalar ``h_{k+1,k}`` (0.0 on breakdown).
    breakdown:
        True when the Krylov space became invariant before reaching the
        requested dimension.
    deflation_coeffs:
        ``(m, k)`` matrix ``F`` with ``F[:, j] = Q^H (OP v_j)`` — the
        locked-subspace components removed from each operator application
        during explicit deflation (``m`` = number of locked vectors).
        These let callers reconstruct full-space eigenvectors from deflated
        Ritz vectors: for a Ritz pair ``(mu, y)`` the correction is
        ``t = (mu I - Q^H OP Q)^{-1} F y`` and the full eigenvector is
        ``V y + Q t``.
    """

    basis: np.ndarray
    hessenberg: np.ndarray
    next_vector: Optional[np.ndarray]
    residual_coupling: float
    breakdown: bool
    deflation_coeffs: np.ndarray

    @property
    def dimension(self) -> int:
        """Achieved Krylov dimension k."""
        return int(self.basis.shape[1])


@dataclass(frozen=True)
class RitzPair:
    """One Ritz approximation extracted from the Hessenberg projection.

    Attributes
    ----------
    value:
        Ritz value ``mu`` (eigenvalue estimate of the *iterated* operator —
        for shift-invert runs the corresponding original eigenvalue is
        ``theta + 1/mu``).
    vector:
        Ritz vector in the full space (unit norm) — for deflated runs this
        lives in the orthogonal complement of the locked subspace.
    residual_estimate:
        The classical cheap bound ``|h_{k+1,k}| * |last component of the
        Hessenberg eigenvector|`` on ``||OP x - mu x||``.
    hess_vector:
        The underlying unit eigenvector ``y`` of the Hessenberg matrix;
        needed for the locked-subspace correction ``t = (mu I -
        Q^H OP Q)^{-1} F y``.
    """

    value: complex
    vector: np.ndarray
    residual_estimate: float
    hess_vector: np.ndarray


def build_arnoldi(
    op: Operator,
    start: np.ndarray,
    max_dim: int,
    *,
    locked: Optional[np.ndarray] = None,
    work: Optional[WorkCounter] = None,
) -> ArnoldiFactorization:
    """Build an Arnoldi factorization of ``op`` started at ``start``.

    Parameters
    ----------
    op:
        Linear operator (callable ``x -> OP x``).
    start:
        Start vector (any nonzero vector; normalized internally and
        orthogonalized against ``locked``).
    max_dim:
        Target Krylov dimension ``d`` (capped at the space dimension).
    locked:
        Optional ``(n, m)`` orthonormal matrix of locked directions; the
        factorization lives in their orthogonal complement (explicit
        deflation of converged eigenvectors).
    work:
        Optional counter; increments ``arnoldi_steps`` per basis extension
        (operator applications are counted by the operator itself).

    Raises
    ------
    ValueError
        If the start vector is zero or lies entirely inside the locked
        subspace.
    """
    start = np.asarray(start, dtype=complex)
    n = start.shape[0]
    if locked is None:
        locked = np.zeros((n, 0), dtype=complex)
    locked = np.asarray(locked, dtype=complex)
    max_dim = int(min(max_dim, n - locked.shape[1]))
    if max_dim <= 0:
        raise ValueError("no room left for a Krylov basis outside the locked space")

    _, norm0, v0 = orthonormalize_against(locked, start)
    if v0 is None or norm0 == 0.0:
        raise ValueError("start vector vanishes after deflation against locked space")

    basis = np.zeros((n, max_dim), dtype=complex)
    hess = np.zeros((max_dim + 1, max_dim), dtype=complex)
    defl = np.zeros((locked.shape[1], max_dim), dtype=complex)
    basis[:, 0] = v0
    k = 0
    next_vector: Optional[np.ndarray] = None
    coupling = 0.0
    breakdown = False

    while k < max_dim:
        w = op(basis[:, k])
        # Deflate against locked directions (plain projection, two passes to
        # control floating-point leakage), then orthogonalize in-basis.
        # The removed components Q^H (OP v_k) are recorded so callers can
        # reconstruct full-space eigenvectors from deflated Ritz vectors.
        # Q^H w is taken as (w^H Q)^H so Q is never copied by a conjugation.
        if locked.shape[1]:
            f1 = (w.conj() @ locked).conj()
            w = w - locked @ f1
            f2 = (w.conj() @ locked).conj()
            w = w - locked @ f2
            defl[:, k] = f1 + f2
        coeffs, norm, q = orthonormalize_against(basis[:, : k + 1], w)
        hess[: k + 1, k] = coeffs
        hess[k + 1, k] = norm
        if work is not None:
            work.add(arnoldi_steps=1)
        if q is None:
            breakdown = True
            coupling = 0.0
            k += 1
            break
        if k + 1 < max_dim:
            basis[:, k + 1] = q
        else:
            next_vector = q
            coupling = norm
        k += 1

    return ArnoldiFactorization(
        basis=basis[:, :k],
        hessenberg=hess[:k, :k],
        next_vector=next_vector,
        residual_coupling=float(coupling if not breakdown else 0.0),
        breakdown=breakdown,
        deflation_coeffs=defl[:, :k],
    )


def ritz_pairs(
    fact: ArnoldiFactorization,
    *,
    max_pairs: Optional[int] = None,
    sort_by: str = "magnitude",
) -> List[RitzPair]:
    """Extract Ritz pairs from an Arnoldi factorization.

    Parameters
    ----------
    fact:
        The factorization to analyze.
    max_pairs:
        Keep at most this many pairs (after sorting); default all.
    sort_by:
        ``"magnitude"`` — descending ``|mu|`` (appropriate for
        shift-inverted operators, where large ``|mu|`` means close to the
        shift); ``"none"`` — Hessenberg eigendecomposition order.

    Returns
    -------
    list of RitzPair
        Ritz values/vectors with cheap residual estimates.
    """
    k = fact.dimension
    if k == 0:
        return []
    values, vectors = np.linalg.eig(fact.hessenberg)
    residuals = np.abs(fact.residual_coupling) * np.abs(vectors[-1, :])
    order = np.arange(values.size)
    if sort_by == "magnitude":
        order = np.argsort(-np.abs(values))
    elif sort_by != "none":
        raise ValueError(f"unknown sort_by {sort_by!r}")
    if max_pairs is not None:
        order = order[: int(max_pairs)]
    # Lift all selected Hessenberg eigenvectors to the full space with one
    # BLAS-3 product instead of one BLAS-2 product per pair.
    lifted = fact.basis @ vectors[:, order]  # (n, len(order))
    norms = np.linalg.norm(lifted, axis=0)
    pairs: List[RitzPair] = []
    for j, idx in enumerate(order):
        if norms[j] == 0.0:
            continue
        pairs.append(
            RitzPair(
                value=complex(values[idx]),
                vector=lifted[:, j] / norms[j],
                residual_estimate=float(residuals[idx]),
                hess_vector=vectors[:, idx],
            )
        )
    return pairs
