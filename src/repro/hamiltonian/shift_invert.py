"""Sherman-Morrison-Woodbury shift-and-invert operator (eq. 6 of the paper).

With the low-rank split ``M = K0 + U Z V`` (see
:mod:`repro.hamiltonian.operator`) the shifted matrix is
``M - theta I = K + U Z V`` where ``K = blkdiag(A - theta I, -A^T - theta I)``
is block-diagonal with 1x1/2x2 blocks.  The Woodbury identity in the form
that does not require ``Z`` itself to be invertible reads

.. math::

    (K + U Z V)^{-1} = K^{-1} - K^{-1} U \\, Z_c \\, V K^{-1},
    \\qquad Z_c = Z (I + V K^{-1} U Z)^{-1}.

Everything that depends on the shift is built once per shift:

* the factors of ``K^{-1}`` in the form ``diag * x + off * x[swap]`` (see
  :meth:`~repro.macromodel.simo.SimoRealization.shifted_inverse_factors`);
* ``G = K^{-1} U = blkdiag((A - theta I)^{-1} B, (-A^T - theta I)^{-1} C^T)``
  in that block form: ``B`` has one nonzero per state, so the top block is
  a length-``n`` vector read through the column each state belongs to, and
  only the bottom ``n x p`` block is dense;
* the ``2p x 2p`` core inverse ``Z_c``, from two structured Gramian
  products (``V K^{-1} U`` is block-diagonal with the blocks
  ``gamma(theta)`` and ``-gamma(-theta)^T``).

An application of ``(M - theta I)^{-1}`` is then
``w = K^{-1} x`` (two elementwise passes) and ``t = Z_c (V w)`` (two
GEMVs), followed by ``w - G t``: one elementwise pass for the top block
and one ``n x p`` GEMV for the bottom one (GEMMs for a ``(2n, k)`` block).
The cost stays O(n p) per vector — linear in the number of macromodel
states, which is the enabling property for the Krylov iteration of
Sec. III.  Storing ``G`` by blocks does a quarter of the multiply-adds of a
dense ``2n x 2p`` ``G``, and keeps that GEMV small enough to run on one
BLAS thread at moderate orders.  ``Z_c`` is deliberately not folded into
``G`` or ``V``: that would make the per-shift setup O(n p^2) instead of
O(n p).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hamiltonian.operator import HamiltonianOperator
from repro.utils.linalg import real_matmul
from repro.utils.timing import WorkCounter

__all__ = ["ShiftInvertOperator"]


class ShiftInvertOperator:
    """Applies ``(M - shift I)^{-1}`` in O(n p) via the SMW identity.

    Parameters
    ----------
    hamiltonian:
        The matrix-free Hamiltonian operator (carries the realization, the
        coupling matrix Z and the port projection V).
    shift:
        Complex shift ``theta``.  Must not coincide with a pole of the
        realization (that would make the block-diagonal part K singular) or
        with an eigenvalue of M (that would make the core singular).

    Raises
    ------
    ZeroDivisionError
        If ``shift`` equals a pole of A or ``-conj``-mirrored pole of A^T.
    numpy.linalg.LinAlgError
        If the SMW core is numerically singular (shift equals a Hamiltonian
        eigenvalue); callers are expected to nudge the shift and retry.
    """

    def __init__(self, hamiltonian: HamiltonianOperator, shift: complex) -> None:
        if not isinstance(hamiltonian, HamiltonianOperator):
            raise TypeError(
                f"expected HamiltonianOperator, got {type(hamiltonian).__name__}"
            )
        self.hamiltonian = hamiltonian
        self.shift = complex(shift)
        simo = hamiltonian.simo
        n = simo.order
        p = simo.num_ports

        # Factors of K^-1 = blkdiag((A - theta I)^-1, (-A^T - theta I)^-1),
        # stacked over the 2n states.  The bottom block uses
        # (-A^T - theta I)^-1 = -(A^T + theta I)^-1.  Building them raises
        # ZeroDivisionError when theta is a pole of A or of -A^T.
        top_diag, top_off, swap = simo.shifted_inverse_factors(self.shift)
        bot_diag, bot_off, _ = simo.shifted_inverse_factors(-self.shift, transpose=True)
        self._k_diag = np.concatenate([top_diag, -bot_diag])
        self._k_off = np.concatenate([top_off, -bot_off])
        self._k_swap = np.concatenate([swap, swap + n])
        # G = K^-1 U by blocks of U = blkdiag(B, C^T).  B has one nonzero
        # per state, in the column the state belongs to, so
        # (A - theta I)^-1 B is the vector (A - theta I)^-1 b read through
        # col_of_state; only (-A^T - theta I)^-1 C^T is a dense block.
        self._v = hamiltonian.port_projection
        self._col_of_state = simo.col_of_state
        self._g_top = top_diag * simo.b + top_off * simo.b[swap]
        ct = simo.c.T
        self._g_bottom = self._k_diag[n:, None] * ct + self._k_off[n:, None] * ct[swap]

        # Gramian blocks of V K^-1 U:
        #   upper: C (A - theta I)^-1 B              = gamma(theta)
        #   lower: B^T (-A^T - theta I)^-1 C^T       = -gamma(-theta)^T
        g_upper = simo.gamma(self.shift)
        g_lower = -simo.gamma(-self.shift).T
        vku = np.zeros((2 * p, 2 * p), dtype=complex)
        vku[:p, :p] = g_upper
        vku[p:, p:] = g_lower

        z = hamiltonian.smw_coupling
        core = np.eye(2 * p, dtype=complex) + vku @ z
        # Inversion may raise LinAlgError for a singular core (shift on an
        # eigenvalue); propagate to the caller, which perturbs the shift.
        # An explicit inverse (applied via matmul) is used instead of an LU
        # factorization because worker threads apply this concurrently and
        # BLAS matmul is the only reliably thread-safe small-solve
        # primitive across scipy/OpenBLAS builds.
        self._zcore_inv = z @ np.linalg.inv(core)
        if not np.all(np.isfinite(self._zcore_inv)):
            raise np.linalg.LinAlgError("SMW core inversion is not finite")
        if hamiltonian.work is not None:
            hamiltonian.work.add(small_solves=1)

    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """Operator dimension 2n."""
        return self.hamiltonian.dimension

    @property
    def work(self) -> Optional[WorkCounter]:
        """The work counter shared with the parent Hamiltonian operator."""
        return self.hamiltonian.work

    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply ``(M - shift I)^{-1}`` to a vector ``(2n,)`` or block ``(2n, k)``.

        ``w = K^{-1} x``, then ``w - G (Z_c (V w))`` with ``G`` applied by
        blocks.  Every step broadcasts over trailing columns, so a
        ``k``-column block costs the same few BLAS calls as a vector;
        blocked applies count as ``k`` work units.
        """
        x = np.asarray(x, dtype=complex)
        n = self.hamiltonian.order
        if x.ndim not in (1, 2) or x.shape[0] != 2 * n:
            raise ValueError(
                f"expected vector of length {2 * n} or block (2n, k),"
                f" got shape {x.shape}"
            )
        # ``.T`` is a no-op on a vector and puts the state axis last on a
        # block, so one expression broadcasts the factors over both.
        w = (self._k_diag * x.T + self._k_off * x[self._k_swap].T).T
        t = self._zcore_inv @ real_matmul(self._v, w)
        w[:n] -= (self._g_top * t[self._col_of_state].T).T
        w[n:] -= self._g_bottom @ t[self.hamiltonian.num_ports :]
        if self.hamiltonian.work is not None:
            self.hamiltonian.work.add(
                operator_applies=1 if x.ndim == 1 else x.shape[1]
            )
        return w

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def __repr__(self) -> str:
        return (
            f"ShiftInvertOperator(shift={self.shift!r},"
            f" order={self.hamiltonian.order})"
        )
