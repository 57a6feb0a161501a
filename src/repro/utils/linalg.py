"""Dense and structured linear-algebra kernels.

The structured SIMO realization of the paper (eq. 2) stores the state matrix
``A`` as a block diagonal of 1x1 blocks (real poles) and 2x2 rotation-like
blocks (complex-conjugate pole pairs after the real transformation of
ref. [9]).  The kernels here solve shifted systems against such blocks in
O(n) vectorized numpy operations — the workhorse behind the O(n p)
Sherman-Morrison-Woodbury shift-invert of eq. (6).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "blkdiag",
    "solve_shifted_diagonal",
    "solve_shifted_diagonal_many",
    "solve_shifted_rot2",
    "solve_shifted_rot2_many",
    "apply_rot2",
    "orthonormalize_against",
    "real_matmul",
    "relative_spacing",
]


def blkdiag(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Assemble a dense block-diagonal matrix from a sequence of blocks.

    Equivalent to :func:`scipy.linalg.block_diag` but accepts an empty
    sequence (returning a 0x0 array) and always promotes to a common dtype.
    """
    mats = [np.atleast_2d(np.asarray(b)) for b in blocks]
    if not mats:
        return np.zeros((0, 0))
    dtype = np.result_type(*[m.dtype for m in mats])
    rows = sum(m.shape[0] for m in mats)
    cols = sum(m.shape[1] for m in mats)
    out = np.zeros((rows, cols), dtype=dtype)
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


def solve_shifted_diagonal(
    diag: np.ndarray, shift: complex, rhs: np.ndarray
) -> np.ndarray:
    """Solve ``(diag(d) - shift*I) x = rhs`` element-wise.

    Parameters
    ----------
    diag:
        1-D array of diagonal entries ``d``.
    shift:
        Complex shift.
    rhs:
        Right-hand side with leading dimension ``len(diag)``; trailing
        dimensions are broadcast (each column solved independently).

    Raises
    ------
    ZeroDivisionError
        If the shift coincides (to machine precision) with a diagonal entry,
        making the block singular.
    """
    diag = np.asarray(diag)
    denom = diag - shift
    if denom.size and np.min(np.abs(denom)) == 0.0:
        raise ZeroDivisionError(
            "shift coincides with a real pole; shifted block is singular"
        )
    if rhs.ndim == 1:
        return rhs / denom
    return rhs / denom[:, None]


def solve_shifted_diagonal_many(
    diag: np.ndarray, shifts: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve ``(diag(d) - shift_k*I) x_k = rhs`` for a whole batch of shifts.

    The multi-shift companion of :func:`solve_shifted_diagonal`: the
    right-hand side is *shared* across shifts (the multi-shift structure of
    frequency sweeps, where ``B`` is fixed and only the evaluation point
    moves), so the solves reduce to one broadcast divide.

    Parameters
    ----------
    diag:
        1-D array of diagonal entries ``d`` (length ``m``).
    shifts:
        1-D array of ``K`` complex shifts.
    rhs:
        Shared right-hand side of shape ``(m,)`` or ``(m, j)``.

    Returns
    -------
    numpy.ndarray
        Shape ``(K, m)`` or ``(K, m, j)`` — one solution per shift.

    Raises
    ------
    ZeroDivisionError
        If any shift coincides (to machine precision) with a diagonal entry.
    """
    diag = np.asarray(diag)
    shifts = np.asarray(shifts)
    rhs = np.asarray(rhs)
    denom = diag[None, :] - shifts[:, None]  # (K, m)
    if denom.size and np.min(np.abs(denom)) == 0.0:
        raise ZeroDivisionError(
            "shift coincides with a real pole; shifted block is singular"
        )
    if rhs.ndim == 1:
        return rhs[None, :] / denom
    return rhs[None, :, :] / denom[:, :, None]


def apply_rot2(alpha: np.ndarray, beta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply a batch of 2x2 blocks ``[[alpha, beta], [-beta, alpha]]``.

    Parameters
    ----------
    alpha, beta:
        1-D arrays of length ``m`` (one entry per 2x2 block).
    x:
        Array of shape ``(m, 2)`` or ``(m, 2, k)`` holding the per-block
        input vectors.

    Returns
    -------
    numpy.ndarray
        Same shape as ``x``.
    """
    alpha = np.asarray(alpha)
    beta = np.asarray(beta)
    x = np.asarray(x)
    if x.ndim == 2:
        out = np.empty_like(x, dtype=np.result_type(x.dtype, alpha.dtype))
        out[:, 0] = alpha * x[:, 0] + beta * x[:, 1]
        out[:, 1] = -beta * x[:, 0] + alpha * x[:, 1]
        return out
    out = np.empty_like(x, dtype=np.result_type(x.dtype, alpha.dtype))
    out[:, 0, :] = alpha[:, None] * x[:, 0, :] + beta[:, None] * x[:, 1, :]
    out[:, 1, :] = -beta[:, None] * x[:, 0, :] + alpha[:, None] * x[:, 1, :]
    return out


def solve_shifted_rot2(
    alpha: np.ndarray, beta: np.ndarray, shift: complex, rhs: np.ndarray
) -> np.ndarray:
    """Solve a batch of shifted 2x2 systems.

    Each block has the rotation-like form ``[[alpha, beta], [-beta, alpha]]``
    (the real realization of a complex pole pair ``alpha +/- j*beta``); the
    systems solved are ``(block - shift*I2) x = rhs`` for every block at
    once.

    The inverse of ``[[a, b], [-b, a]]`` (with ``a = alpha - shift``,
    ``b = beta``) is ``[[a, -b], [b, a]] / (a^2 + b^2)``.

    Parameters
    ----------
    alpha, beta:
        1-D arrays of length ``m``.
    shift:
        Complex shift.
    rhs:
        Array of shape ``(m, 2)`` or ``(m, 2, k)``.

    Raises
    ------
    ZeroDivisionError
        If the shift coincides with one of the block eigenvalues
        ``alpha +/- j*beta``.
    """
    alpha = np.asarray(alpha)
    beta = np.asarray(beta)
    rhs = np.asarray(rhs)
    a = alpha - shift
    b = beta
    det = a * a + b * b
    if det.size and np.min(np.abs(det)) == 0.0:
        raise ZeroDivisionError(
            "shift coincides with a complex pole; shifted block is singular"
        )
    if rhs.ndim == 2:
        out = np.empty(rhs.shape, dtype=np.result_type(rhs.dtype, det.dtype))
        out[:, 0] = (a * rhs[:, 0] - b * rhs[:, 1]) / det
        out[:, 1] = (b * rhs[:, 0] + a * rhs[:, 1]) / det
        return out
    out = np.empty(rhs.shape, dtype=np.result_type(rhs.dtype, det.dtype))
    det_c = det[:, None]
    out[:, 0, :] = (a[:, None] * rhs[:, 0, :] - b[:, None] * rhs[:, 1, :]) / det_c
    out[:, 1, :] = (b[:, None] * rhs[:, 0, :] + a[:, None] * rhs[:, 1, :]) / det_c
    return out


def solve_shifted_rot2_many(
    alpha: np.ndarray, beta: np.ndarray, shifts: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve the shifted 2x2 batch of :func:`solve_shifted_rot2` for many shifts.

    The right-hand side is shared across the ``K`` shifts; every
    ``(block, shift)`` combination is solved with one broadcast expression
    using the closed-form inverse of ``[[a, b], [-b, a]]``.

    Parameters
    ----------
    alpha, beta:
        1-D arrays of length ``m`` (one entry per 2x2 block).
    shifts:
        1-D array of ``K`` complex shifts.
    rhs:
        Shared right-hand side of shape ``(m, 2)`` or ``(m, 2, j)``.

    Returns
    -------
    numpy.ndarray
        Shape ``(K, m, 2)`` or ``(K, m, 2, j)``.

    Raises
    ------
    ZeroDivisionError
        If any shift coincides with a block eigenvalue ``alpha +/- j*beta``.
    """
    alpha = np.asarray(alpha)
    beta = np.asarray(beta)
    shifts = np.asarray(shifts)
    rhs = np.asarray(rhs)
    a = alpha[None, :] - shifts[:, None]  # (K, m)
    b = beta  # (m,)
    det = a * a + (b * b)[None, :]
    if det.size and np.min(np.abs(det)) == 0.0:
        raise ZeroDivisionError(
            "shift coincides with a complex pole; shifted block is singular"
        )
    dtype = np.result_type(rhs.dtype, det.dtype)
    if rhs.ndim == 2:
        out = np.empty((shifts.size,) + rhs.shape, dtype=dtype)
        out[:, :, 0] = (a * rhs[None, :, 0] - b[None, :] * rhs[None, :, 1]) / det
        out[:, :, 1] = (b[None, :] * rhs[None, :, 0] + a * rhs[None, :, 1]) / det
        return out
    out = np.empty((shifts.size,) + rhs.shape, dtype=dtype)
    a3 = a[:, :, None]
    b3 = b[None, :, None]
    det3 = det[:, :, None]
    out[:, :, 0, :] = (a3 * rhs[None, :, 0, :] - b3 * rhs[None, :, 1, :]) / det3
    out[:, :, 1, :] = (b3 * rhs[None, :, 0, :] + a3 * rhs[None, :, 1, :]) / det3
    return out


def orthonormalize_against(basis: np.ndarray, vector: np.ndarray, *, passes: int = 2):
    """Orthonormalize ``vector`` against the columns of ``basis``.

    Uses classical Gram-Schmidt with ``passes`` re-orthogonalization sweeps
    ("twice is enough", Kahan/Parlett) — each sweep is a pair of BLAS-2
    products, which is both faster and numerically tighter than one
    element-at-a-time modified Gram-Schmidt pass in floating point.  The
    basis is read in place and never copied; both GEMVs are contiguous
    when it is a C-contiguous ``(n, k)`` array or the transposed view
    ``rows[:k].T`` of basis vectors stored as rows, the layout
    :func:`~repro.core.arnoldi.build_arnoldi` keeps.

    Parameters
    ----------
    basis:
        ``(n, k)`` array with orthonormal columns (``k`` may be 0).
    vector:
        Length-``n`` vector to orthogonalize (not modified).
    passes:
        Number of projection sweeps (2 is the robust default).

    Returns
    -------
    (coeffs, norm, q):
        ``coeffs`` — accumulated projection coefficients (length ``k``);
        ``norm`` — the norm of the orthogonalized remainder;
        ``q`` — the unit remainder, or ``None`` when the remainder vanished
        (vector was numerically inside ``span(basis)``).
    """
    basis = np.asarray(basis)
    w = np.array(vector, dtype=np.result_type(vector, basis.dtype), copy=True)
    # vdot conjugates its first argument, so this is ||w||^2 without the
    # call overhead of np.linalg.norm.
    original_norm = math.sqrt(np.vdot(w, w).real)
    k = basis.shape[1] if basis.ndim == 2 else 0
    coeffs = np.zeros(k, dtype=w.dtype)
    if k:
        for _ in range(max(1, passes)):
            # (w^H V)^H equals V^H w without materializing the conjugated
            # basis, which would copy all k columns at every call.
            proj = (w.conj() @ basis).conj()
            w -= basis @ proj
            coeffs += proj
    norm = math.sqrt(np.vdot(w, w).real)
    # Breakdown detection: the remainder is in span(basis) to machine
    # precision when its norm collapsed by ~eps relative to the input.
    if original_norm == 0.0 or norm <= 1e-14 * max(1.0, original_norm):
        return coeffs, 0.0, None
    w /= norm
    return coeffs, norm, w


def real_matmul(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Compute ``a @ x`` for a real matrix ``a`` without casting it to complex.

    numpy promotes a real matrix to a complex copy before multiplying it
    with a complex operand, which costs more than the product itself for
    the port-factor GEMVs of the Hamiltonian operators.  A contiguous
    complex ``x`` of shape ``(m,)`` or ``(m, k)`` is instead read as its
    real view ``(m, 2)`` or ``(m, 2k)``: one real GEMM, whose result is
    viewed back as complex.
    """
    if not np.iscomplexobj(x):
        return a @ x
    x = np.ascontiguousarray(x, dtype=np.complex128)
    if x.ndim == 1:
        return (a @ x.view(np.float64).reshape(-1, 2)).view(np.complex128)[:, 0]
    return (a @ x.view(np.float64)).view(np.complex128)


def relative_spacing(values: np.ndarray) -> float:
    """Return the smallest relative gap between sorted real values.

    Used by tests to reason about eigenvalue cluster resolvability; returns
    ``inf`` for fewer than two values.
    """
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size < 2:
        return float("inf")
    scale = max(1.0, float(np.max(np.abs(arr))))
    return float(np.min(np.diff(arr)) / scale)
