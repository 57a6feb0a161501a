"""Sherman-Morrison-Woodbury shift-and-invert operator (eq. 6 of the paper).

With the low-rank split ``M = K0 + U Z V`` (see
:mod:`repro.hamiltonian.operator`) the shifted matrix is
``M - theta I = K + U Z V`` where ``K = blkdiag(A - theta I, -A^T - theta I)``
is block-diagonal with 1x1/2x2 blocks.  The Woodbury identity in the form
that does not require ``Z`` itself to be invertible reads

.. math::

    (K + U Z V)^{-1} = K^{-1} - K^{-1} U Z (I + V K^{-1} U Z)^{-1} V K^{-1}.

Everything that depends on the shift is built once per shift: the
``2p x 2p`` *core* ``I + (V K^{-1} U) Z`` (two structured Gramian products,
then inverted) and the factors of ``K^{-1}`` in the form
``diag * x + off * x[swap]`` (see
:meth:`~repro.macromodel.simo.SimoRealization.shifted_inverse_factors`).
Afterwards each application of ``(M - theta I)^{-1}`` costs two fused
elementwise passes over those factors, two O(n p) port projections, and
one O(p^2) small matmul — linear in the number of macromodel states, which
is the enabling property for the Krylov iteration of Sec. III.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hamiltonian.operator import HamiltonianOperator
from repro.utils.timing import WorkCounter

__all__ = ["ShiftInvertOperator"]


class ShiftInvertOperator:
    """Applies ``(M - shift I)^{-1}`` in O(n p) via the SMW identity.

    Parameters
    ----------
    hamiltonian:
        The matrix-free Hamiltonian operator (carries the realization and
        the coupling matrix Z).
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
    def _solve_k(self, x: np.ndarray) -> np.ndarray:
        """Apply ``K^{-1} = blkdiag((A - theta I)^{-1}, (-A^T - theta I)^{-1})``."""
        # ``.T`` is a no-op on a vector and puts the state axis last on a
        # block, so one expression broadcasts the factors over both.
        return (self._k_diag * x.T + self._k_off * x[self._k_swap].T).T

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply ``(M - shift I)^{-1}`` to a vector ``(2n,)`` or block ``(2n, k)``.

        The structured solves and port projections broadcast over trailing
        columns, so a ``k``-column block amortizes the Python-level kernel
        dispatch into BLAS calls; blocked applies count as ``k`` work units.
        """
        x = np.asarray(x, dtype=complex)
        n = self.hamiltonian.order
        if x.ndim not in (1, 2) or x.shape[0] != 2 * n:
            raise ValueError(
                f"expected vector of length {2 * n} or block (2n, k),"
                f" got shape {x.shape}"
            )
        simo = self.hamiltonian.simo
        p = simo.num_ports

        w = self._solve_k(x)
        # v = V w  (port projections)
        v = np.concatenate([simo.apply_c(w[:n]), simo.apply_bt(w[n:])])
        # t = Z (I + VKU Z)^-1 v
        t = self._zcore_inv @ v
        # u = U t
        u = np.concatenate([simo.apply_b(t[:p]), simo.apply_ct(t[p:])])
        result = w - self._solve_k(u)

        if self.hamiltonian.work is not None:
            self.hamiltonian.work.add(
                operator_applies=1 if x.ndim == 1 else x.shape[1]
            )
        return result

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def __repr__(self) -> str:
        return (
            f"ShiftInvertOperator(shift={self.shift!r},"
            f" order={self.hamiltonian.order})"
        )
