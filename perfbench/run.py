"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep_serial --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, including
the tracing overhead.  Earlier output lines carry a JSON report (the
environment, per-round times and work counts); the last line is the
result object ``{"correct", "attempted", "failed", "metrics"}``.
``perfbench/README.md`` defines every workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: A seed never used while the benchmark was tuned (``--held-out``).
HELD_OUT_SEED = 8191

END_TO_END_UNITS = {
    "setup_s": "s",
    "ok_ratio": "ratio",
    "round_s": "s",
    "p50_ms": "ms",
}


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def git_commit(root: Path):
    """The checked-out commit read from ``.git``; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def blas_info() -> dict:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        return {}


def environment(seed: int, held_out: bool) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "thread_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "commit": git_commit(ROOT),
        "seed": seed,
        "held_out": held_out,
    }


def quantile_ms(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile of ``values`` (s), in ms.

    A weighted mean of all order statistics rather than one or two of
    them: fresh service jobs finish on the 0.1 s ticks of the events
    long-poll, so their latencies fall in clusters 100 ms apart, and a
    plain sample median jumps between clusters from run to run.
    """
    import numpy
    from scipy.stats import beta

    x = numpy.sort(numpy.asarray(values, dtype=float))
    n = x.size
    edges = beta.cdf(numpy.arange(n + 1) / n, (n + 1) * q, (n + 1) * (1.0 - q))
    return float(1e3 * numpy.diff(edges) @ x)


def spread(values) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def round_time(rounds, cpu_bound: bool):
    """The round time and the operation latencies of ``rounds``.

    For a CPU-bound workload an item's latency is its best scaled time
    over the rounds, an operation's latency the sum over its items, and
    the round time the sum over all items.  Otherwise the latencies are
    pooled and the round time is the median round.
    """
    if not cpu_bound:
        latencies = [x for rnd in rounds for x in rnd.latencies]
        return statistics.median(rnd.wall_s for rnd in rounds), latencies
    best, group_of = {}, {}
    for rnd in rounds:
        for item, group, latency in zip(rnd.items, rnd.groups, rnd.scaled):
            best[item] = min(latency, best.get(item, latency))
            group_of[item] = group
    operations = {}
    for item, latency in best.items():
        operations[group_of[item]] = operations.get(group_of[item], 0.0) + latency
    return sum(best.values()), list(operations.values())


def run_workload(cls, *, seed: int, seconds: float, trace: bool, tmp_root: str):
    """Set up, run rounds for ``seconds``, verify; returns (result, report)."""
    from perfbench import layers

    setup_times = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload = cls(seed, nproc(), tmp_root)
        started = time.perf_counter()
        try:
            workload.setup()
        except BaseException:
            workload.close()
            raise
        setup_times.append(time.perf_counter() - started)

    plain, traced, layer_rows, tail, targets = [], [], [], None, None
    try:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or (trace and not traced):
            if trace and len(plain) > len(traced):
                recorder = layers.Recorder()
                with layers.installed(recorder):
                    rnd = workload.run_round()
                workload.collect(rnd)
                row = layers.layer_metrics(recorder.spans, rnd.work, rnd.jobs)
                layer_rows.append(row)
                traced.append(rnd)
            else:
                plain.append(workload.run_round())
        rounds = plain + traced
        failures = [f for rnd in rounds for f in rnd.failures]
        failures += workload.verify(rounds)
    finally:
        workload.close()

    attempted = sum(len(rnd.latencies) for rnd in rounds)
    failed = min(len(failures), attempted)
    if trace:
        metrics = {
            m.name: statistics.median(row[m.name] for row in layer_rows)
            for m in layers.PER_LAYER
            if m.name != "trace.overhead_share"
        }
        traced_s, _ = round_time(traced, cls.cpu_bound)
        plain_s, _ = round_time(plain, cls.cpu_bound)
        metrics["trace.overhead_share"] = traced_s / plain_s - 1.0
        units = {m.name: m.unit for m in layers.PER_LAYER}
        targets = {m.name: [m.target, *m.workloads] for m in layers.PER_LAYER}
    else:
        round_s, latencies = round_time(plain, cls.cpu_bound)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ok_ratio": 1.0 - failed / attempted,
            "round_s": round_s,
            "p50_ms": quantile_ms(latencies, 0.5),
        }
        units = END_TO_END_UNITS
        tail = {"p90_ms": quantile_ms(latencies, 0.9), "samples": len(latencies)}
    work_keys = sorted({k for rnd in rounds for k in rnd.work})
    report = {
        "workload": cls.name,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "operations": attempted,
        "setup_s": setup_times,
        "round_s": [r.wall_s for r in plain],
        "slowdown": [
            statistics.median(x / y for x, y in zip(r.latencies, r.scaled))
            for r in plain
            if r.scaled
        ],
        "latency_tail": tail,
        "layer_targets": targets,
        "work_per_round": {
            key: spread([rnd.work.get(key, 0) for rnd in rounds]) for key in work_keys
        },
        "failures": failures[:20],
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    return result, report


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--held-out",
        action="store_true",
        help=f"use the held-out seed {HELD_OUT_SEED} instead of --seed",
    )
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.held_out:
        args.seed = HELD_OUT_SEED
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="run-", dir=scratch)
    # Temporary files of the program and its child processes stay inside
    # the checkout.
    os.environ["TMPDIR"] = tmp_root
    tempfile.tempdir = None
    try:
        result, report = run_workload(
            WORKLOADS[args.workload],
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            tmp_root=tmp_root,
        )
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    report["environment"] = environment(args.seed, args.held_out)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
