"""Benchmark-side layer tracing.

Traced rounds wrap the public functions of each ``repro`` layer where the
calling code looks them up (a module attribute or a class attribute), so
the program itself carries no extra instrumentation.  Each call records a
span: layer name, start, end, the enclosing span on the calling thread,
and a few facts read off the return value.  A span's *self time* is its
duration minus the union of its children's intervals.

Service jobs run in a forked child process, where these wrappers record
into a copy of the recorder that is never read.  For those jobs the
solver layers come from the span tree the service serves at
``GET /v1/jobs/<id>/trace``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# ---------------------------------------------------------------------------
# Per-layer metrics: name, unit, better, and the end-to-end metric and
# workloads each one is expected to move.
# ---------------------------------------------------------------------------

_SOLVER = ("sweep_serial", "sweep_parallel", "enforce_pipeline")
_PARALLEL = ("sweep_parallel",)
_PIPE = ("enforce_pipeline",)
_FRESH = ("service_fresh",)
_SERVICE = ("service_fresh", "service_hit")


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric, and the end-to-end metric and workloads it
    should move (none for the tracing overhead)."""

    name: str
    unit: str
    better: str
    target: str
    workloads: Tuple[str, ...]


PER_LAYER: Tuple[LayerMetric, ...] = (
    LayerMetric("hamiltonian.apply.calls", "count", "lower", "round_s", _SOLVER),
    LayerMetric("hamiltonian.apply.us", "us", "lower", "round_s", _SOLVER),
    LayerMetric("hamiltonian.shift_setup.calls", "count", "lower", "round_s", _SOLVER),
    LayerMetric("hamiltonian.shift_setup.ms", "ms", "lower", "round_s", _SOLVER),
    LayerMetric("arnoldi.steps", "count", "lower", "round_s", _SOLVER),
    LayerMetric("arnoldi.orthogonalize_s", "s", "lower", "round_s", _SOLVER),
    LayerMetric("arnoldi.ritz_s", "s", "lower", "round_s", _SOLVER),
    LayerMetric("single_shift.runs", "count", "lower", "round_s", _SOLVER),
    LayerMetric("single_shift.restarts", "count", "lower", "round_s", _SOLVER),
    LayerMetric("single_shift.s", "s", "lower", "round_s", _SOLVER),
    LayerMetric("scheduler.bookkeeping_s", "s", "lower", "round_s", _PARALLEL),
    LayerMetric("scheduler.shifts_eliminated", "count", "higher", "round_s", _PARALLEL),
    LayerMetric("scheduler.idle_share", "ratio", "lower", "round_s", _PARALLEL),
    LayerMetric("solve.calls", "count", "lower", "round_s", _SOLVER),
    LayerMetric("solve.s", "s", "lower", "round_s", _SOLVER),
    LayerMetric("passivity.characterize.calls", "count", "lower", "round_s", _PIPE),
    LayerMetric("passivity.characterize_s", "s", "lower", "round_s", _PIPE),
    LayerMetric("passivity.enforce_s", "s", "lower", "round_s", _PIPE),
    LayerMetric("passivity.enforce_iterations", "count", "lower", "round_s", _PIPE),
    LayerMetric("vectfit.fit_s", "s", "lower", "round_s", _PIPE),
    LayerMetric("vectfit.iterations", "count", "lower", "round_s", _PIPE),
    LayerMetric("timedomain.simulate_s", "s", "lower", "round_s", _PIPE),
    LayerMetric("timedomain.steps", "count", "lower", "round_s", _PIPE),
    LayerMetric("store.get.calls", "count", "lower", "p50_ms", _SERVICE),
    LayerMetric("store.get_ms", "ms", "lower", "p50_ms", _SERVICE),
    LayerMetric("store.put.calls", "count", "lower", "p50_ms", _FRESH),
    LayerMetric("store.put_ms", "ms", "lower", "p50_ms", _FRESH),
    LayerMetric("store.hit_ratio", "ratio", "higher", "p50_ms", _SERVICE),
    LayerMetric("queue.enqueue_ms", "ms", "lower", "p50_ms", _SERVICE),
    LayerMetric("queue.claim.calls", "count", "lower", "p50_ms", _FRESH),
    LayerMetric("queue.claim_useful_ratio", "ratio", "higher", "p50_ms", _FRESH),
    LayerMetric("queue.ack_ms", "ms", "lower", "p50_ms", _FRESH),
    LayerMetric("queue.wait_ms", "ms", "lower", "p50_ms", _FRESH),
    LayerMetric("batch.run_ms", "ms", "lower", "p50_ms", _FRESH),
    LayerMetric("batch.overhead_ms", "ms", "lower", "p50_ms", _FRESH),
    LayerMetric("service.submit_ms", "ms", "lower", "p50_ms", _SERVICE),
    LayerMetric("service.events_lag_ms", "ms", "lower", "p50_ms", _SERVICE),
    LayerMetric("service.unattributed_share", "ratio", "lower", "p50_ms", _SERVICE),
    LayerMetric("trace.overhead_share", "ratio", "lower", "", ()),
    LayerMetric("work.operator_applies", "count", "lower", "round_s", _SOLVER),
    LayerMetric("work.arnoldi_steps", "count", "lower", "round_s", _SOLVER),
)

# ---------------------------------------------------------------------------
# Probes: which function each layer name wraps, and where it is looked up.
# ---------------------------------------------------------------------------


def _steps(result) -> dict:
    return {"steps": int(result.dimension)}


def _restarts(result) -> dict:
    return {"restarts": int(result.restarts)}


def _solve_info(result) -> dict:
    return {
        "threads": int(result.num_threads),
        "eliminated": int(result.work.get("shifts_eliminated", 0)),
    }


def _iterations(result) -> dict:
    return {"iterations": int(result.iterations)}


def _num_steps(result) -> dict:
    return {"steps": int(result.num_steps)}


def _found(result) -> dict:
    return {"found": result is not None}


@dataclass(frozen=True)
class Probe:
    """A layer name, its lookup sites and what to read off its result."""

    layer: str
    sites: Tuple[Tuple[str, str, str], ...]  # (module, class or "", attribute)
    info: Optional[Callable[[object], dict]] = None


PROBES: Tuple[Probe, ...] = (
    Probe(
        "hamiltonian.apply",
        (("repro.hamiltonian.shift_invert", "ShiftInvertOperator", "matvec"),),
    ),
    Probe(
        "hamiltonian.shift_setup",
        (("repro.hamiltonian.operator", "HamiltonianOperator", "shift_invert"),),
    ),
    Probe(
        "arnoldi.build",
        (("repro.core.single_shift", "", "build_arnoldi"),),
        _steps,
    ),
    Probe(
        "arnoldi.orthogonalize",
        (
            ("repro.core.arnoldi", "", "orthonormalize_against"),
            ("repro.core.single_shift", "", "orthonormalize_against"),
        ),
    ),
    Probe("arnoldi.ritz", (("repro.core.single_shift", "", "ritz_pairs"),)),
    Probe(
        "single_shift.run",
        (("repro.core.single_shift", "SingleShiftSolver", "run"),),
        _restarts,
    ),
    Probe(
        "scheduler.bookkeeping",
        (
            ("repro.core.scheduler", "BandScheduler", "next_task"),
            ("repro.core.scheduler", "BandScheduler", "complete"),
            ("repro.core.scheduler", "BandScheduler", "register_external_disk"),
        ),
    ),
    Probe(
        "solve",
        (
            ("repro.core", "", "solve"),
            ("repro.core.solver", "", "solve"),
            ("repro.passivity.characterization", "", "solve"),
            ("repro.api.session", "", "solve"),
        ),
        _solve_info,
    ),
    Probe(
        "passivity.characterize",
        (
            ("repro.api.session", "", "characterize_passivity"),
            ("repro.passivity.enforcement", "", "characterize_passivity"),
        ),
    ),
    Probe(
        "passivity.enforce",
        (("repro.api.session", "", "enforce_passivity"),),
        _iterations,
    ),
    Probe("vectfit.fit", (("repro.api.session", "", "vector_fit"),), _iterations),
    Probe(
        "timedomain.simulate",
        (("repro.timedomain.engine", "", "simulate"),),
        _num_steps,
    ),
    Probe("store.get", (("repro.store.store", "ResultStore", "get"),), _found),
    Probe("store.put", (("repro.store.store", "ResultStore", "put"),)),
    Probe("queue.enqueue", (("repro.queue.db", "JobQueue", "enqueue"),)),
    Probe("queue.claim", (("repro.queue.db", "JobQueue", "claim"),), _found),
    Probe("queue.ack", (("repro.queue.db", "JobQueue", "ack"),)),
    Probe("batch.run", (("repro.batch.runner", "BatchRunner", "run"),)),
)


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """One wrapped call."""

    id: int
    parent: Optional[int]
    layer: str
    start: float
    end: float
    info: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from every thread of this process, in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable, info: Optional[Callable] = None):
        """Return ``fn`` wrapped so each call records one span."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            returned, result = False, None
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                facts = info(result) if info is not None and returned else {}
                span = Span(span_id, parent, layer, start, end, facts)
                recorder.spans.append(span)

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper


def _owner(module: str, cls: str):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


@contextlib.contextmanager
def installed(recorder: Recorder, probes: Sequence[Probe] = PROBES) -> Iterator[None]:
    """Patch every probe site with a recording wrapper; restore on exit.

    The exact original object (the entry of the module or class
    ``__dict__``) is put back, even when the body raises.
    """
    saved: List[Tuple[object, str, object]] = []
    try:
        for probe in probes:
            for module, cls, attr in probe.sites:
                owner = _owner(module, cls)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, recorder.wrap(probe.layer, original, probe.info))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def is_patched(probes: Sequence[Probe] = PROBES) -> bool:
    """True while any probe site still holds a wrapper."""
    for probe in probes:
        for module, cls, attr in probe.sites:
            if hasattr(_owner(module, cls).__dict__[attr], "__wrapped_by_perfbench__"):
                return True
    return False


# ---------------------------------------------------------------------------
# Self time and metric derivation
# ---------------------------------------------------------------------------


def union_length(
    intervals: Sequence[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children share their parent's thread by construction (the parent is
    the top of the calling thread's span stack).
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - union_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


@dataclass
class JobRecord:
    """What the service client saw of one job (for the per-layer metrics)."""

    submit_s: float
    lag_s: float
    trace: List[dict] = field(default_factory=list)


def _trace_stats(spans: Sequence[dict]) -> dict:
    """Timing facts of one job's span tree (``GET /v1/jobs/<id>/trace``)."""
    by_parent: Dict[Optional[str], List[dict]] = {}
    for span in spans:
        by_parent.setdefault(span.get("parent_id"), []).append(span)
    job = next((s for s in spans if s["name"] == "job"), None)
    unattributed = 0.0
    for span in spans:
        kids = by_parent.get(span["span_id"], [])
        if not kids:
            continue  # a leaf: all of its time belongs to its own layer
        start, end = span["start"], span["start"] + span["duration"]
        covered = union_length(
            [(k["start"], k["start"] + k["duration"]) for k in kids], start, end
        )
        unattributed += span["duration"] - covered

    def total(name: str) -> float:
        return sum(s["duration"] for s in spans if s["name"] == name)

    def count(name: str) -> int:
        return sum(1 for s in spans if s["name"] == name)

    return {
        "job_s": job["duration"] if job else 0.0,
        "unattributed_s": unattributed,
        "wait_s": total("queue.wait"),
        "waits": count("queue.wait"),
        "stages_s": sum(
            s["duration"] for s in spans if s["name"].startswith("stage.")
        ),
        "solve_s": total("solve.sweep"),
        "solves": count("solve.sweep"),
        "check_s": total("stage.check"),
        "checks": count("stage.check"),
    }


def layer_metrics(
    spans: Sequence[Span],
    work: Dict[str, int],
    jobs: Sequence[JobRecord] = (),
) -> Dict[str, float]:
    """Every per-layer metric of one traced round (0 where a layer idles)."""
    own = self_times(spans)
    by_layer: Dict[str, List[Span]] = {}
    for span in spans:
        by_layer.setdefault(span.layer, []).append(span)

    def calls(layer: str) -> int:
        return len(by_layer.get(layer, ()))

    def total(layer: str) -> float:
        return sum(s.duration for s in by_layer.get(layer, ()))

    def self_total(layer: str) -> float:
        return sum(own[s.id] for s in by_layer.get(layer, ()))

    def mean_self(layer: str, scale: float) -> float:
        n = calls(layer)
        return scale * self_total(layer) / n if n else 0.0

    def mean_total(layer: str, scale: float) -> float:
        n = calls(layer)
        return scale * total(layer) / n if n else 0.0

    def facts(layer: str, key: str) -> List:
        return [s.info[key] for s in by_layer.get(layer, ()) if key in s.info]

    def ratio(values: List[bool]) -> float:
        return sum(values) / len(values) if values else 0.0

    solves = by_layer.get("solve", [])
    capacity = sum(s.duration * s.info.get("threads", 1) for s in solves)
    busy = total("single_shift.run")
    traces = [_trace_stats(job.trace) for job in jobs if job.trace]

    def trace_sum(key: str) -> float:
        return sum(t[key] for t in traces)

    batch_ms = mean_total("batch.run", 1e3)
    metrics = {
        "hamiltonian.apply.calls": calls("hamiltonian.apply"),
        "hamiltonian.apply.us": mean_self("hamiltonian.apply", 1e6),
        "hamiltonian.shift_setup.calls": calls("hamiltonian.shift_setup"),
        "hamiltonian.shift_setup.ms": mean_self("hamiltonian.shift_setup", 1e3),
        "arnoldi.steps": sum(facts("arnoldi.build", "steps")),
        "arnoldi.orthogonalize_s": self_total("arnoldi.orthogonalize"),
        "arnoldi.ritz_s": self_total("arnoldi.ritz"),
        "single_shift.runs": calls("single_shift.run"),
        "single_shift.restarts": sum(facts("single_shift.run", "restarts")),
        "single_shift.s": busy,
        "scheduler.bookkeeping_s": self_total("scheduler.bookkeeping"),
        "scheduler.shifts_eliminated": sum(facts("solve", "eliminated")),
        "scheduler.idle_share": 1.0 - busy / capacity if capacity else 0.0,
        "solve.calls": calls("solve") + trace_sum("solves"),
        "solve.s": total("solve") + trace_sum("solve_s"),
        "passivity.characterize.calls": calls("passivity.characterize")
        + trace_sum("checks"),
        "passivity.characterize_s": total("passivity.characterize")
        + trace_sum("check_s"),
        "passivity.enforce_s": total("passivity.enforce"),
        "passivity.enforce_iterations": sum(facts("passivity.enforce", "iterations")),
        "vectfit.fit_s": total("vectfit.fit"),
        "vectfit.iterations": sum(facts("vectfit.fit", "iterations")),
        "timedomain.simulate_s": total("timedomain.simulate"),
        "timedomain.steps": sum(facts("timedomain.simulate", "steps")),
        "store.get.calls": calls("store.get"),
        "store.get_ms": mean_total("store.get", 1e3),
        "store.put.calls": calls("store.put"),
        "store.put_ms": mean_total("store.put", 1e3),
        "store.hit_ratio": ratio(facts("store.get", "found")),
        "queue.enqueue_ms": mean_total("queue.enqueue", 1e3),
        "queue.claim.calls": calls("queue.claim"),
        "queue.claim_useful_ratio": ratio(facts("queue.claim", "found")),
        "queue.ack_ms": mean_total("queue.ack", 1e3),
        "queue.wait_ms": 1e3 * trace_sum("wait_s") / trace_sum("waits")
        if trace_sum("waits")
        else 0.0,
        "batch.run_ms": batch_ms,
        "batch.overhead_ms": batch_ms - 1e3 * trace_sum("stages_s") / calls("batch.run")
        if calls("batch.run")
        else 0.0,
        "service.submit_ms": 1e3 * sum(j.submit_s for j in jobs) / len(jobs)
        if jobs
        else 0.0,
        "service.events_lag_ms": 1e3 * sum(j.lag_s for j in jobs) / len(jobs)
        if jobs
        else 0.0,
        "service.unattributed_share": trace_sum("unattributed_s") / trace_sum("job_s")
        if trace_sum("job_s")
        else 0.0,
        "work.operator_applies": work.get("operator_applies", 0),
        "work.arnoldi_steps": work.get("arnoldi_steps", 0),
    }
    return {name: float(value) for name, value in metrics.items()}
