"""Arnoldi machinery: Krylov factorization, Ritz extraction, deflation.

The single-shift iteration of Sec. III builds a ``d``-dimensional orthogonal
basis of the Krylov subspace of the shift-inverted Hamiltonian (eq. 8),
``d`` much smaller than the matrix order 2n (the paper uses ``d = 60``).
This module implements the factorization with:

* classical Gram-Schmidt with re-orthogonalization ("twice is enough"),
  over a basis stored as rows so every GEMV is contiguous;
* Ritz vectors only for the pairs a caller keeps, by inverse iteration on
  the Hessenberg matrix (a full ``eig`` only when kept values cluster);
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

_EPS = float(np.finfo(float).eps)

#: A kept Ritz value closer than this many ``eps ||H||_1`` to another Ritz
#: value gets its vector from a full ``eig`` (see _selected_eigenvectors).
#: One inverse-iteration step leaves a neighbour at distance ``gap`` with
#: about ``eps ||H||_1 / gap`` of the wanted component, so this bounds that
#: contamination near 1e-9.  LAPACK ``zhsein`` only separates values closer
#: than ``eps ||H||`` because ``zlaein`` iterates; one step needs more room.
_CLUSTER_EPS = 1e9

#: Inverse iteration must leave a residual ``||(H - mu I) y|| / ||y||``
#: within this many ``eps ||H||_1``; otherwise the vectors come from ``eig``.
#: LAPACK ``zlaein`` accepts a solve whose growth bounds this residual by
#: about ``10 k^1.5 eps ||H||`` (4.6e3 at ``k = 60``); 1e4 is about twice
#: that and, at ~2e-12 relative, far below the solver's ``tol``.
_GROWTH_EPS = 1e4


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
        Optional counter; ``arnoldi_steps`` grows by one per basis
        extension, added once per factorization (operator applications
        are counted by the operator itself).

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

    # The basis vectors are stored as rows: each one is contiguous for the
    # operator, and the column view rows[:j].T keeps both Gram-Schmidt
    # GEMVs contiguous.
    rows = np.zeros((max_dim, n), dtype=complex)
    hess = np.zeros((max_dim + 1, max_dim), dtype=complex)
    defl = np.zeros((locked.shape[1], max_dim), dtype=complex)
    # Q^H, conjugated once per factorization instead of once per step.
    locked_h = locked.conj().T if locked.shape[1] else None
    rows[0] = v0
    k = 0
    next_vector: Optional[np.ndarray] = None
    coupling = 0.0
    breakdown = False

    while k < max_dim:
        w = op(rows[k])
        # Deflate against locked directions (plain projection, two passes to
        # control floating-point leakage), then orthogonalize in-basis.
        # The removed components Q^H (OP v_k) are recorded so callers can
        # reconstruct full-space eigenvectors from deflated Ritz vectors.
        if locked_h is not None:
            f1 = locked_h @ w
            w = w - locked @ f1
            f2 = locked_h @ w
            w -= locked @ f2
            defl[:, k] = f1 + f2
        coeffs, norm, q = orthonormalize_against(rows[: k + 1].T, w)
        hess[: k + 1, k] = coeffs
        hess[k + 1, k] = norm
        k += 1
        if q is None:
            breakdown = True
            break
        if k < max_dim:
            rows[k] = q
        else:
            next_vector = q
            coupling = norm
    if work is not None:
        work.add(arnoldi_steps=k)

    return ArnoldiFactorization(
        basis=rows[:k].T,
        hessenberg=hess[:k, :k],
        next_vector=next_vector,
        residual_coupling=float(coupling),
        breakdown=breakdown,
        deflation_coeffs=defl[:, :k],
    )


def _ritz_order(values: np.ndarray, sort_by: str) -> np.ndarray:
    """Indices of ``values`` in the order :func:`ritz_pairs` reports them."""
    if sort_by == "magnitude":
        return np.argsort(-np.abs(values))
    if sort_by == "none":
        return np.arange(values.size)
    raise ValueError(f"unknown sort_by {sort_by!r}")


def _selected_eigenvectors(
    hess: np.ndarray, values: np.ndarray, order: np.ndarray
) -> Optional[np.ndarray]:
    """Unit eigenvectors of ``hess`` for ``values[order]`` by inverse iteration.

    One batched solve of ``(H - (mu + delta) I) y = 1`` per selected value
    ``mu``, with ``delta = eps ||H||_1`` so the shifted matrix is never
    exactly singular.  The vectors are normalized as LAPACK ``geev``
    normalizes them: unit 2-norm, largest component real.

    Returns ``None`` — the caller then uses a full ``eig`` — when a
    selected value lies within ``_CLUSTER_EPS`` ``eps ||H||_1`` of any
    other eigenvalue (one step of inverse iteration cannot separate the
    two eigenvectors; LAPACK ``zhsein`` guards clusters likewise), or when
    a solve fails or grows less than an eigenvector solve must.
    """
    k = hess.shape[0]
    m = order.size
    tiny = _EPS * float(np.abs(hess).sum(axis=0).max())
    selected = values[order]
    gaps = np.abs(values[None, :] - selected[:, None])
    gaps[np.arange(m), order] = np.inf
    if gaps.min() <= _CLUSTER_EPS * tiny:
        return None
    shifted = np.repeat(hess[None], m, axis=0)
    diag = np.arange(k)
    shifted[:, diag, diag] -= (selected + tiny)[:, None]
    try:
        y = np.linalg.solve(shifted, np.ones((m, k, 1), dtype=complex))[:, :, 0].T
    except np.linalg.LinAlgError:
        return None
    norms = np.linalg.norm(y, axis=0)
    # ||(H - mu I) y|| / ||y|| <= sqrt(k) / ||y|| + tiny: a small growth
    # means mu was not resolved to working accuracy.
    if not np.all(norms * tiny * _GROWTH_EPS >= np.sqrt(k)):
        return None
    largest = y[np.abs(y).argmax(axis=0), np.arange(m)]
    return y * (largest.conj() / (np.abs(largest) * norms))


def ritz_pairs(
    fact: ArnoldiFactorization,
    *,
    max_pairs: Optional[int] = None,
    sort_by: str = "magnitude",
) -> List[RitzPair]:
    """Extract Ritz pairs from an Arnoldi factorization.

    All Ritz values come from ``eigvals`` of the Hessenberg matrix; only
    the pairs kept after sorting get eigenvectors, from one batched
    inverse-iteration solve (the selected-eigenvector scheme of LAPACK
    ``zhsein``), and only those are lifted to the full space.  A full
    ``eig`` supplies the vectors instead when every pair is kept, or when
    a kept value lies in a cluster that inverse iteration cannot resolve.

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
    # The slice keeps Python's semantics for a negative max_pairs.
    keep = k if max_pairs is None else len(range(k)[: int(max_pairs)])
    if keep == 0:
        return []
    hess = fact.hessenberg
    vectors = None
    if keep < k:
        values = np.linalg.eigvals(hess)
        order = _ritz_order(values, sort_by)[:keep]
        vectors = _selected_eigenvectors(hess, values, order)
    if vectors is None:
        values, all_vectors = np.linalg.eig(hess)
        order = _ritz_order(values, sort_by)[:keep]
        vectors = all_vectors[:, order]
    residuals = np.abs(fact.residual_coupling) * np.abs(vectors[-1])
    # Lift the kept Hessenberg eigenvectors to the full space with one
    # BLAS-3 product instead of one BLAS-2 product per pair.
    lifted = fact.basis @ vectors  # (n, len(order))
    norms = np.linalg.norm(lifted, axis=0)
    pairs: List[RitzPair] = []
    for j, idx in enumerate(order):
        if norms[j] == 0.0:
            continue
        pairs.append(
            RitzPair(
                value=complex(values[idx]),
                vector=lifted[:, j] / norms[j],
                residual_estimate=float(residuals[j]),
                hess_vector=vectors[:, j],
            )
        )
    return pairs
