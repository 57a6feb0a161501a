"""Matrix-free Hamiltonian operator built on the structured realization.

Applying the dense Hamiltonian of eq. (5) costs O(n^2) because ``M`` is full
even when the realization is sparse.  This module never forms ``M``:
it exploits the factored structure

.. math::

    M = K_0 + U Z V, \\quad
    K_0 = \\begin{bmatrix} A & \\\\ & -A^T \\end{bmatrix}, \\quad
    U = \\begin{bmatrix} B & \\\\ & C^T \\end{bmatrix}, \\quad
    V = \\begin{bmatrix} C & \\\\ & B^T \\end{bmatrix}

where ``Z`` is a small ``2p x 2p`` coupling matrix depending only on ``D``
(scattering: ``Z = [[-R^-1 D^T, -R^-1], [S^-1, D R^-1]]``; immittance:
``Z = [[-R0^-1, -R0^-1], [R0^-1, R0^-1]]``).  ``K_0`` is applied in the
factored form ``diag * x + off * x[swap]`` of
:meth:`~repro.macromodel.simo.SimoRealization.state_factors`, and the
products ``U Z`` (``2n x 2p``) and ``V`` (``2p x 2n``) are built densely
once per operator, so each application is two elementwise passes plus two
O(n p) GEMVs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hamiltonian.dense import (
    asymptotic_singular_margin,
    dense_hamiltonian,
)
from repro.macromodel.simo import SimoRealization
from repro.utils.linalg import blkdiag, real_matmul
from repro.utils.timing import WorkCounter
from repro.utils.validation import ensure_choice

__all__ = ["HamiltonianOperator", "REPRESENTATIONS"]

#: Canonical transfer-representation names; the single source of truth
#: consumed by :class:`~repro.core.config.RunConfig` validation and the CLI.
REPRESENTATIONS = ("scattering", "immittance")


class HamiltonianOperator:
    """Matrix-free ``M x`` in O(n p) plus shift-invert factory.

    Parameters
    ----------
    simo:
        Structured realization of the macromodel.
    representation:
        ``"scattering"`` (default; eq. 5 of the paper) or ``"immittance"``.
    work:
        Optional :class:`~repro.utils.timing.WorkCounter`; every operator
        application increments ``operator_applies``.

    Raises
    ------
    ValueError
        If the asymptotic condition fails (``sigma(D) >= 1`` for
        scattering, ``D + D^T`` not positive definite for immittance).
    """

    def __init__(
        self,
        simo: SimoRealization,
        representation: str = "scattering",
        work: Optional[WorkCounter] = None,
    ) -> None:
        if not isinstance(simo, SimoRealization):
            raise TypeError(f"expected SimoRealization, got {type(simo).__name__}")
        ensure_choice(representation, "representation", REPRESENTATIONS)
        self.simo = simo
        self.representation = representation
        self.work = work
        p = simo.num_ports
        d = simo.d
        eye = np.eye(p)

        # The small p x p couplings are inverted explicitly (they are tiny
        # and well conditioned under the asymptotic conditions below) and
        # applied with plain matmuls.  Rationale: worker threads apply these
        # concurrently, and BLAS-level matmul is the only small-solve
        # primitive that is reliably thread-safe across scipy/OpenBLAS
        # builds (scipy's lu_solve crashed under concurrency in testing).
        if representation == "scattering":
            margin = asymptotic_singular_margin(d)
            if margin <= 0.0:
                raise ValueError(
                    "strict asymptotic passivity sigma(D) < 1 required"
                    f" (margin={margin:.3e})"
                )
            self.asymptotic_margin = margin
            r = d.T @ d - eye
            s = d @ d.T - eye
            r_inv = np.linalg.inv(r)
            s_inv = np.linalg.inv(s)
            self._z = np.block(
                [[-r_inv @ d.T, -r_inv], [s_inv, d @ r_inv]]
            )
        else:
            r0 = d + d.T
            eigvals = np.linalg.eigvalsh(r0)
            if eigvals.size and eigvals.min() <= 0.0:
                raise ValueError(
                    "immittance Hamiltonian requires D + D^T positive definite"
                    f" (min eig = {eigvals.min():.3e})"
                )
            self.asymptotic_margin = float(eigvals.min()) if eigvals.size else 1.0
            r0_inv = np.linalg.inv(r0)
            self._z = np.block([[-r0_inv, -r0_inv], [r0_inv, r0_inv]])

        # M = K0 + U Z V with every factor built once.  K0 = blkdiag(A, -A^T)
        # in the form diag * x + off * x[swap]; -A^T keeps A's off-diagonal
        # factor because the transpose flips its sign.
        n = simo.order
        a_diag, a_off, swap = simo.state_factors()
        self._k0_diag = np.concatenate([a_diag, -a_diag])
        self._k0_off = np.concatenate([a_off, a_off])
        self._k0_swap = np.concatenate([swap, swap + n])
        b = simo.dense_b()
        self._uz = blkdiag([b, simo.c.T]) @ self._z
        self._v = blkdiag([simo.c, b.T])
        self._v.flags.writeable = False

    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Macromodel dynamic order n."""
        return self.simo.order

    @property
    def dimension(self) -> int:
        """Hamiltonian dimension 2n."""
        return 2 * self.simo.order

    @property
    def num_ports(self) -> int:
        """Number of ports p."""
        return self.simo.num_ports

    @property
    def smw_coupling(self) -> np.ndarray:
        """The ``2p x 2p`` coupling matrix Z of the low-rank split (copy)."""
        return self._z.copy()

    @property
    def port_projection(self) -> np.ndarray:
        """The dense ``2p x 2n`` factor ``V = blkdiag(C, B^T)`` (read-only, shared)."""
        return self._v

    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply ``M`` to a vector ``(2n,)`` or a block ``(2n, k)`` in O(n p k).

        ``M x = K0 x + (U Z)(V x)``: two elementwise passes over the
        factors of ``K0 = blkdiag(A, -A^T)`` and two GEMVs (GEMMs for a
        block) with the cached ``U Z`` and ``V``.  The same expression serves
        both representations and broadcasts over trailing columns, so a
        ``k``-column block costs one pass of BLAS-level operations; it
        counts as ``k`` work units.  A real input gives a real output.
        """
        x = np.asarray(x)
        n = self.order
        if x.ndim not in (1, 2) or x.shape[0] != 2 * n:
            raise ValueError(
                f"expected vector of length {2 * n} or block (2n, k),"
                f" got shape {x.shape}"
            )
        # ``.T`` is a no-op on a vector and puts the state axis last on a
        # block, so one expression broadcasts the factors over both.
        y = (self._k0_diag * x.T + self._k0_off * x[self._k0_swap].T).T
        y += real_matmul(self._uz, real_matmul(self._v, x))
        if self.work is not None:
            self.work.add(operator_applies=1 if x.ndim == 1 else x.shape[1])
        return y

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    # ------------------------------------------------------------------
    def shift_invert(self, shift: complex) -> "ShiftInvertOperator":
        """Build the O(n p) SMW operator for ``(M - shift I)^{-1}``."""
        from repro.hamiltonian.shift_invert import ShiftInvertOperator

        return ShiftInvertOperator(self, shift)

    def dense(self) -> np.ndarray:
        """Assemble the dense ``2n x 2n`` Hamiltonian (tests / baseline)."""
        return dense_hamiltonian(self.simo, self.representation)

    def norm_upper_bound(self) -> float:
        """Cheap upper bound on ``||M||_2`` used for eigenvalue tolerances.

        Combines the exact spectral radius of the block-diagonal part with
        the norms of the low-rank factors:
        ``||M|| <= ||blkdiag(A, -A^T)|| + ||U|| ||Z|| ||V||``.
        """
        simo = self.simo
        base = simo.spectral_radius_bound()
        bnorm = float(np.linalg.norm(simo.b)) if simo.b.size else 0.0
        cnorm = float(np.linalg.norm(simo.c, 2)) if simo.c.size else 0.0
        unorm = max(bnorm, cnorm)
        znorm = float(np.linalg.norm(self._z, 2)) if self._z.size else 0.0
        return base + unorm * znorm * unorm

    def __repr__(self) -> str:
        return (
            f"HamiltonianOperator(order={self.order}, ports={self.num_ports},"
            f" representation={self.representation!r})"
        )
