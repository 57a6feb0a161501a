"""Ablation B: complexity of the SMW shift-invert vs. dense alternatives.

Sec. III of the paper motivates the structured approach: the dense
Hamiltonian is full, so a full eigensolution costs O(n^3) and even one
dense shifted solve costs O(n^3) (O(n^2) per extra right-hand side after
factorization), while the Sherman-Morrison-Woodbury operator of eq. (6)
applies ``(M - theta I)^{-1}`` in O(n p).

The benchmark sweeps the dynamic order at a fixed port count and measures:

* SMW operator construction + apply (the fast path), and the microbench
  layer of the eigensweep kernels: microseconds per SMW apply and per
  Arnoldi step (``d = 60``, operator apply plus Gram-Schmidt);
* a dense LU solve of ``(M - theta I) x = b`` (the naive alternative);
* the full dense eigensolution (the baseline the paper calls
  "unacceptable for large-size macromodels").
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from _config import BENCH_SCALE, write_artifact
from repro.core.arnoldi import build_arnoldi
from repro.hamiltonian.operator import HamiltonianOperator
from repro.synth.generator import random_simo_macromodel

PORTS = 8
KRYLOV_DIM = 60  # the paper's Arnoldi dimension d
BASE = max(64, int(1000 * BENCH_SCALE))
ORDERS = [BASE, 2 * BASE, 4 * BASE]

_cache = {}


def get_setup(order):
    if order not in _cache:
        simo = random_simo_macromodel(
            order, PORTS, seed=order, sigma_target=None
        )
        op = HamiltonianOperator(simo)
        rng = np.random.default_rng(order)
        x = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
        _cache[order] = (simo, op, x)
    return _cache[order]


@pytest.mark.parametrize("order", ORDERS)
def test_smw_apply(benchmark, order):
    """O(n p): one SMW shift-invert application (operator pre-built)."""
    _, op, x = get_setup(order)
    si = op.shift_invert(1.0j)
    benchmark(si.matvec, x)


@pytest.mark.parametrize("order", ORDERS)
def test_smw_build_and_apply(benchmark, order):
    """O(n p + p^3): per-shift setup plus one application."""
    _, op, x = get_setup(order)

    def run():
        si = op.shift_invert(1.0j)
        return si.matvec(x)

    benchmark(run)


@pytest.mark.parametrize("order", ORDERS)
def test_dense_lu_solve(benchmark, order):
    """O(n^3): dense factor-and-solve of the shifted Hamiltonian."""
    _, op, x = get_setup(order)
    m = op.dense().astype(complex)
    shifted = m - 1.0j * np.eye(m.shape[0])

    def run():
        lu = scipy.linalg.lu_factor(shifted)
        return scipy.linalg.lu_solve(lu, x)

    benchmark.pedantic(run, rounds=1, iterations=1)


@pytest.mark.parametrize("order", ORDERS[:2])
def test_dense_full_eig(benchmark, order):
    """O(n^3): the full dense eigensolution of Sec. III."""
    _, op, _ = get_setup(order)
    m = op.dense()
    benchmark.pedantic(lambda: scipy.linalg.eigvals(m), rounds=1, iterations=1)


def test_scaling_report(benchmark):
    """Empirical scaling exponents: SMW ~ n, dense >= n^2."""
    import time

    def measure(fn, repeats=3):
        best = np.inf
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    def run():
        rows = [
            f"{'n':>8}{'smw apply':>14}{'dense solve':>14}{'dense eig':>14}"
            f"{'apply us':>12}{'step us':>12}"
        ]
        rows.append("-" * len(rows[0]))
        timings = []
        for order in ORDERS:
            _, op, x = get_setup(order)
            si = op.shift_invert(1.0j)
            t_smw = measure(lambda: si.matvec(x))
            # Per-apply cost amortized over a burst, and per-step cost of a
            # d-dimensional Arnoldi build (apply plus orthogonalization).
            t_burst = measure(lambda: [si.matvec(x) for _ in range(50)])
            t_build = measure(lambda: build_arnoldi(si.matvec, x, KRYLOV_DIM))
            steps = build_arnoldi(si.matvec, x, KRYLOV_DIM).dimension
            m = op.dense().astype(complex)
            shifted = m - 1.0j * np.eye(m.shape[0])
            t_dense = measure(
                lambda: scipy.linalg.lu_factor(shifted), repeats=1
            )
            t_eig = measure(lambda: scipy.linalg.eigvals(m), repeats=1)
            timings.append((order, t_smw, t_dense, t_eig))
            rows.append(
                f"{order:>8}{t_smw:>14.6f}{t_dense:>14.6f}{t_eig:>14.6f}"
                f"{1e6 * t_burst / 50:>12.1f}{1e6 * t_build / steps:>12.1f}"
            )
        # Growth factors across the 4x order sweep.
        growth_smw = timings[-1][1] / max(timings[0][1], 1e-12)
        growth_eig = timings[-1][3] / max(timings[0][3], 1e-12)
        rows.append("")
        rows.append(
            f"order grew {ORDERS[-1] // ORDERS[0]}x:"
            f" SMW apply grew {growth_smw:.1f}x,"
            f" dense eig grew {growth_eig:.1f}x"
        )
        # Shape assertion: the dense eigensolution must scale strictly
        # worse than the structured apply.
        assert growth_eig > growth_smw
        return "\n".join(rows)

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    path = write_artifact("shift_invert_scaling.txt", table)
    print("\n[Shift-invert complexity ablation]")
    print(table)
    print(f"(written to {path})")
